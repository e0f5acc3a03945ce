"""Named verification suites: theorem property checks over built-in and
seed-generated instances.  The CLI exposes them as `finalg verify <name>`
and the acceptance tests drive the same entry points.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .absorption import SearchBudget, absorption_theorem_check, check_absorption
from .catalog import (
    boolean_affine,
    boolean_majority,
    suite_taylor_algebras,
)
from .core import (
    DEFAULT_TABLE_GUARD,
    FiniteAlgebra,
    OperationTable,
    algebra,
    clone_iter,
    is_cyclic_table,
    power,
)
from .cyclic import (
    arity_spectrum,
    has_cyclic_term,
    smallest_cyclic_prime_check,
)
from .digraph import (
    Digraph,
    digraph_algebraic_length,
    find_loop_smooth_taylor,
    solve_circle_csp,
)
from .csp import RelationalStructure, digraph_structure, find_homomorphism
from .errors import BudgetExceeded, InvalidInput, TheoremViolation
from .relations import Relation, is_linked, is_subdirect

SUITE_NAMES = ("absorption-theorem", "cyclic-prime", "loop-theorem", "spectra", "oracles")

# most maps decided at once by brute_force_homomorphism
ORACLE_BLOCK = 1 << 20
# clone tables brute_force_has_cyclic scans before answering False
BRUTE_CLONE_TABLES = 100_000
# suite sizes: random digraphs per loop-theorem algebra, the largest
# spectra arity, random hom and circle instances of the oracles suite
LOOP_INSTANCES_PER_ALGEBRA = 60
SPECTRA_MAX_K = 9
HOM_INSTANCES = 500
CIRCLE_INSTANCES = 200


@dataclass
class SuiteReport:
    name: str
    seed: int
    instances: int = 0
    passes: int = 0
    violations: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations and self.passes == self.instances

    def record(self, ok: bool, detail: str = ""):
        self.instances += 1
        if ok:
            self.passes += 1
        else:
            self.violations.append(detail)

    def to_json(self) -> dict:
        return {
            "suite": self.name,
            "seed": self.seed,
            "instances": self.instances,
            "passes": self.passes,
            "violations": self.violations,
            "ok": self.ok,
        }


def run_suite(name: str, seed: int = 1,
              budget: SearchBudget | None = None) -> SuiteReport:
    if name == "absorption-theorem":
        return absorption_theorem_suite(seed, budget)
    if name == "cyclic-prime":
        return cyclic_prime_suite(seed)
    if name == "loop-theorem":
        return loop_theorem_suite(seed, budget)
    if name == "spectra":
        return spectra_suite(seed)
    if name == "oracles":
        return oracles_suite(seed)
    raise InvalidInput(f"unknown suite {name!r}; choose from {', '.join(SUITE_NAMES)}")


# ---------------------------------------------------------------------------
# cyclic-prime: every suite Taylor algebra has a cyclic term at the first prime


def cyclic_prime_suite(seed: int = 1) -> SuiteReport:
    report = SuiteReport("cyclic-prime", seed)
    for name, alg in suite_taylor_algebras().items():
        try:
            p, decision = smallest_cyclic_prime_check(alg)
            report.record(decision.has_cyclic_term, f"{name}: p={p}")
        except (InvalidInput, TheoremViolation) as exc:
            report.record(False, f"{name}: {exc}")
    return report


# ---------------------------------------------------------------------------
# absorption-theorem: exhaustive linked subdirect proper invariant relations


def invariant_binary_relations(alg: FiniteAlgebra) -> list[Relation]:
    """Every subuniverse of the square: each nonempty binary relation on the
    universe that is closed under the operations, by ascending mask over the
    pairs in product order.  All 2**(n*n) - 1 masks are decided at once, so
    this is meant for n <= 3; past n = 4 the masks exceed the table guard.

    An operation sends each combination of pairs to an image pair; a mask is
    closed when every combination of pairs inside it has its image inside it.
    `forced[S]` collects the images of the combinations that use exactly the
    pairs S, and one pass per pair turns it into the images of the
    combinations inside S (an OR over the subsets of S).
    """
    n = alg.size
    pairs = list(itertools.product(range(n), repeat=2))
    k = len(pairs)
    if 2**k > DEFAULT_TABLE_GUARD:
        raise BudgetExceeded(
            f"2^{k} binary relations on {n} elements exceed the table guard {DEFAULT_TABLE_GUARD}"
        )
    forced = np.zeros(2**k, dtype=np.int64)
    rows = kernels.tuple_rows(np.arange(k), n, 2)
    for op in alg.operations:
        for args, cells in kernels.combinations(rows, n, op.arity):
            used = np.zeros(len(cells), dtype=np.int64)
            for r in args(np.arange(len(cells))):
                used |= np.int64(1) << r
            images = kernels.row_keys(op.array[cells], n)
            np.bitwise_or.at(forced, used, np.int64(1) << images)
    for i in range(k):
        halves = forced.reshape(-1, 2, 2**i)
        halves[:, 1] |= halves[:, 0]
    masks = np.arange(2**k, dtype=np.int64)
    closed = (forced & ~masks) == 0
    return [Relation.binary(n, n, [pairs[i] for i in range(k) if mask >> i & 1])
            for mask in np.flatnonzero(closed[1:]) + 1]


def absorption_theorem_suite(seed: int = 1,
                             budget: SearchBudget | None = None) -> SuiteReport:
    report = SuiteReport("absorption-theorem", seed)
    budget = budget or SearchBudget()
    for name, alg in suite_taylor_algebras().items():
        n = alg.size
        full_count = n * n
        for rel in invariant_binary_relations(alg):
            if len(rel.tuples) == full_count:
                continue
            if not is_subdirect(rel):
                continue
            if not is_linked(rel):
                continue
            verdict = absorption_theorem_check(alg, alg, rel, budget)
            if verdict.kind == "undecided":
                report.record(False, f"{name}: undecided on {rel.sorted_tuples()}")
            elif verdict.kind == "full":
                report.record(False, f"{name}: proper relation reported full")
            else:
                w = verdict.witness
                ok = check_absorption(alg, w.subuniverse, w.term)
                detail = f"{name}: witness {sorted(w.subuniverse)} failed re-verification"
                report.record(ok, detail if not ok else "")
    return report


# ---------------------------------------------------------------------------
# loop-theorem: random invariant smooth digraphs of algebraic length one


def _random_invariant_digraph(alg: FiniteAlgebra, rng: random.Random) -> Digraph:
    n = alg.size
    pairs = list(itertools.product(range(n), repeat=2))
    count = rng.randint(1, len(pairs))
    chosen = rng.sample(pairs, count)
    codes = sorted(a * n + b for a, b in chosen)
    flat, offsets, arities = alg.packed
    members = kernels.closure_members(flat, offsets, arities, n, 2, codes)
    return Digraph.build(n, [divmod(int(c), n) for c in members])


def loop_theorem_suite(seed: int = 1,
                       budget: SearchBudget | None = None) -> SuiteReport:
    report = SuiteReport("loop-theorem", seed)
    rng = random.Random(seed)
    algebras = []
    for base in (boolean_majority(), boolean_affine()):
        algebras.append(base)
        algebras.append(power(base, 2))
    for alg in algebras:
        for _ in range(LOOP_INSTANCES_PER_ALGEBRA):
            g = _random_invariant_digraph(alg, rng)
            if not g.is_smooth():
                report.record(True)
                continue
            if digraph_algebraic_length(g) != 1:
                report.record(True)
                continue
            try:
                loop = find_loop_smooth_taylor(g, alg, budget)
                report.record((loop.vertex, loop.vertex) in g.edges,
                              f"reported loop {loop.vertex} is not a loop")
            except (TheoremViolation, InvalidInput) as exc:
                report.record(False, f"{sorted(g.edges)}: {exc}")
    return report


# ---------------------------------------------------------------------------
# spectra: multiplicativity of the cyclic arity spectrum


def spectra_suite(seed: int = 1) -> SuiteReport:
    report = SuiteReport("spectra", seed)
    alg = boolean_majority()
    spectrum = arity_spectrum(alg, SPECTRA_MAX_K).members
    for m in range(2, SPECTRA_MAX_K + 1):
        for n in range(2, SPECTRA_MAX_K + 1):
            if m * n > SPECTRA_MAX_K:
                continue
            both = m in spectrum and n in spectrum
            prod = (m * n) in spectrum
            report.record(both == prod, f"pair ({m},{n}): {both} vs product {prod}")
    aff = boolean_affine()
    aff_spec = arity_spectrum(aff, 4).members
    report.record(2 not in aff_spec and 4 not in aff_spec,
                  f"affine spectrum {sorted(aff_spec)} should omit 2 and 4")
    return report


# ---------------------------------------------------------------------------
# oracles: decision procedures vs brute force


def all_one_op_two_element_algebras(max_arity: int = 3) -> list[FiniteAlgebra]:
    """Every idempotent 2-element algebra with one basic operation of arity <= 3."""
    out = []
    seen = set()
    for arity in range(1, max_arity + 1):
        for table in itertools.product((0, 1), repeat=2**arity):
            op = OperationTable("f", arity, table)
            if not op.is_idempotent(2):
                continue
            if table in seen:
                continue
            seen.add(table)
            out.append(FiniteAlgebra(2, (op,)))
    return out


def brute_force_has_cyclic(alg: FiniteAlgebra, k: int) -> bool:
    """Clone search oracle: some arity-k clone table is cyclic."""
    for m, table, _term in clone_iter(alg, k, BRUTE_CLONE_TABLES):
        if m == 0:
            break
        if m == k and is_cyclic_table(table, k, alg.size):
            return True
    return False


def _random_template(rng: random.Random) -> RelationalStructure:
    n = rng.randint(2, 3)
    rels = []
    for ri in range(rng.randint(1, 2)):
        arity = rng.randint(1, 2)
        universe = list(itertools.product(range(n), repeat=arity))
        count = rng.randint(1, len(universe))
        rels.append((f"R{ri}", Relation(arity, (n,) * arity,
                                        frozenset(rng.sample(universe, count)))))
    return RelationalStructure(n, tuple(rels))


def _random_instance(rng: random.Random, template: RelationalStructure) -> RelationalStructure:
    size = rng.randint(1, 6)
    rels = []
    for name, rel in template.relations:
        universe = list(itertools.product(range(size), repeat=rel.arity))
        count = rng.randint(0, min(len(universe), 2 * size))
        rels.append((name, Relation(rel.arity, (size,) * rel.arity,
                                    frozenset(rng.sample(universe, count)))))
    return RelationalStructure(size, tuple(rels))


def brute_force_homomorphism(x: RelationalStructure, a: RelationalStructure):
    """The first map X -> A in `itertools.product(range(|A|), repeat=|X|)`
    order that sends every tuple of every relation of X into the relation of
    A of the same name, as a tuple of ints; None if no map does.

    Exhaustive and independent of the solver: every map is tried, no value is
    pruned.  The trailing `width` variables of X, with |A|**width at most
    ORACLE_BLOCK, form a block decided at once for each value of the leading
    ones, in product order.  Each relation of A is an |A|x...x|A| boolean
    indicator; each tuple of X ANDs one read of it into the block's boolean
    array, a block variable read through `arange(|A|)` on its own axis and a
    leading variable through its value.
    """
    if x.signature() != a.signature():
        raise InvalidInput("signature mismatch")
    n, k = a.size, x.size
    checks = []
    for (_, rx), (_, ra) in zip(x.relations, a.relations):
        inside = np.zeros((n,) * ra.arity, dtype=bool)
        inside[tuple(np.array(list(ra.tuples), dtype=np.int64).reshape(-1, ra.arity).T)] = True
        checks.extend((inside, t) for t in rx.tuples)
    width = k
    while width and n**width > ORACLE_BLOCK:
        width -= 1
    axes = tuple(np.arange(n).reshape([-1 if j == i else 1 for j in range(width)])
                 for i in range(width))
    ok = np.empty((n,) * width, dtype=bool)
    for prefix in itertools.product(range(n), repeat=k - width):
        at = prefix + axes
        ok.fill(True)
        for inside, t in checks:
            ok &= inside[tuple(at[v] for v in t)]
        if ok.size:
            first = int(ok.argmax())
            if ok.flat[first]:
                return prefix + tuple(int(c) for c in np.unravel_index(first, ok.shape))
    return None


def _random_circle_union(rng: random.Random) -> Digraph:
    lengths = [rng.randint(1, 4) for _ in range(rng.randint(1, 3))]
    edges = []
    base = 0
    for L in lengths:
        for i in range(L):
            edges.append((base + i, base + (i + 1) % L))
        base += L
    return Digraph.build(base, edges)


def _random_digraph(rng: random.Random) -> Digraph:
    n = rng.randint(1, 6)
    pairs = list(itertools.product(range(n), repeat=2))
    count = rng.randint(0, min(len(pairs), 10))
    return Digraph.build(n, rng.sample(pairs, count))


def oracles_suite(seed: int = 1) -> SuiteReport:
    report = SuiteReport("oracles", seed)
    rng = random.Random(seed)

    for alg in all_one_op_two_element_algebras():
        decided = has_cyclic_term(alg, 3).has_cyclic_term
        brute = brute_force_has_cyclic(alg, 3)
        report.record(decided == brute,
                      f"table {alg.operations[0].table}: decision {decided} vs clone {brute}")

    for _ in range(HOM_INSTANCES):
        template = _random_template(rng)
        instance = _random_instance(rng, template)
        fast = find_homomorphism(instance, template)
        brute = brute_force_homomorphism(instance, template)
        report.record((fast is None) == (brute is None),
                      f"hom search mismatch on |X|={instance.size}")

    for _ in range(CIRCLE_INSTANCES):
        template = _random_circle_union(rng)
        instance = _random_digraph(rng)
        fast = solve_circle_csp(instance, template)
        brute = brute_force_homomorphism(
            digraph_structure(instance), digraph_structure(template)
        )
        report.record((fast is None) == (brute is None),
                      f"circle solver mismatch on {sorted(instance.edges)}")
    return report

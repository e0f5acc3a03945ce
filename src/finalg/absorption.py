"""Absorbing subuniverses: detection with witness terms, minimal absorbing
sets, the spreading-term construction, and the Absorption Theorem verdict.

Absorption is semi-decided by a bounded clone search; every report carries
an explicit completeness flag.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    DEFAULT_CLONE_ARITY,
    DEFAULT_CLONE_TABLES,
    DEFAULT_TABLE_GUARD,
    ARITY_CAP,
    FiniteAlgebra,
    OperationTable,
    Term,
    Var,
    candidate_iter,
    construct_universal_generator_term,
    eval_term_grid,
    generate_subuniverse,
    renumber_dense,
    require_taylor,
    star_compose,
    taylor_witnesses_for_table,
    term_arity,
    term_table,
)
from .errors import BudgetExceeded, InvalidInput, TheoremViolation
from .relations import Relation, is_linked, is_subdirect

SUBUNIVERSE_GUARD = 8
REPORT_CACHE_SIZE = 32  # algebra-budget pairs kept per result cache
CELLS_CACHE_SIZE = 256  # one arity's subuniverses of an 8-element algebra


@dataclass(frozen=True)
class SearchBudget:
    """Clone limits of the witness search, set by the CLI's `--budget-arity`
    and `--budget-tables`; the other guards are the module constants."""

    max_arity: int = DEFAULT_CLONE_ARITY
    max_tables: int = DEFAULT_CLONE_TABLES


@dataclass(frozen=True)
class AbsorptionWitness:
    subuniverse: frozenset
    term: Term
    arity: int


@dataclass
class AbsorptionReport:
    proper_absorbing: list[AbsorptionWitness]
    minimal_absorbing: list[frozenset]
    complete: bool

    def witness_for(self, B) -> AbsorptionWitness | None:
        B = frozenset(B)
        for w in self.proper_absorbing:
            if w.subuniverse == B:
                return w
        return None


def _require_subuniverse(alg: FiniteAlgebra, B) -> frozenset:
    B = frozenset(B)
    if not B:
        raise InvalidInput("absorption is defined for nonempty subuniverses")
    if generate_subuniverse(alg, B) != B:
        raise InvalidInput(f"{sorted(B)} is not a subuniverse")
    return B


def check_absorption(alg: FiniteAlgebra, B, t: Term) -> bool:
    """All-but-one-argument-in-B evaluations land in B, checked exhaustively."""
    B = _require_subuniverse(alg, B)
    t = renumber_dense(t)
    m = term_arity(t)
    bs = sorted(B)
    cases = len(bs) ** (m - 1) * alg.size
    if cases > DEFAULT_TABLE_GUARD:
        raise BudgetExceeded(
            f"absorption check needs {cases} cases per coordinate (> guard)"
        )
    universe = list(range(alg.size))
    in_b = np.zeros(alg.size, dtype=bool)
    in_b[bs] = True
    for j in range(m):
        domains = [bs] * m
        domains[j] = universe
        if not in_b[eval_term_grid(alg, t, domains)].all():
            return False
    return True


def check_absorption_table(table: np.ndarray, arity: int, B, size: int) -> bool:
    """Table-level absorption check used by the clone scan: one gather over
    every argument tuple with at most one coordinate outside B."""
    cells, in_b = _absorption_cells(arity, frozenset(B), size)
    return bool(in_b[table[cells]].all())


@functools.lru_cache(maxsize=CELLS_CACHE_SIZE)
def _absorption_cells(arity: int, B: frozenset, size: int, free: tuple | None = None):
    """Codes of the argument tuples with one coordinate in `free` (the
    universe by default) and the others in B, and B's indicator over the
    universe; cached per (arity, B, size) and the free set if given."""
    bs = sorted(B)
    free = range(size) if free is None else free
    parts = [
        _product_codes([free if q == j else bs for q in range(arity)], size)
        for j in range(arity)
    ]
    in_b = np.zeros(size, dtype=bool)
    in_b[bs] = True
    return kernels.unique(np.concatenate(parts)), in_b


def _product_codes(domains, size: int) -> np.ndarray:
    """Codes of the product of per-position domains, position 0 most
    significant, in row-major order."""
    idx = np.zeros(1, dtype=np.int64)
    for d in domains:
        idx = (idx[:, None] * size + np.asarray(d, dtype=np.int64)[None, :]).ravel()
    return idx


def _absorption_search(alg: FiniteAlgebra, targets: list, budget: SearchBudget,
                       first: bool = False):
    """Witnesses for the target subuniverses from one pass over `candidate_iter`.

    Each candidate is checked against the targets still without a witness,
    in target order.  The targets are settled once all of them have a
    witness, or one has when `first`; the pass stops right there.  Returns
    ({B: witness}, {B: the witness's table}, complete): each table has the
    witness's arity, and complete means the targets were settled or the
    clone reached its fixpoint.
    """
    witnesses: dict[frozenset, AbsorptionWitness] = {}
    tables: dict[frozenset, np.ndarray] = {}
    wanted = min(1, len(targets)) if first else len(targets)
    if wanted == 0:
        return witnesses, tables, True
    for m, table, term in candidate_iter(alg, budget.max_arity, budget.max_tables):
        if m == 0:
            return witnesses, tables, True
        for B in targets:
            if B not in witnesses and check_absorption_table(table, m, B, alg.size):
                witnesses[B] = AbsorptionWitness(B, term, m)
                tables[B] = table
                if len(witnesses) == wanted:
                    return witnesses, tables, True
    return witnesses, tables, False


def find_absorption_witness(alg: FiniteAlgebra, B,
                            budget: SearchBudget | None = None) -> AbsorptionWitness | None:
    """First witness in the fixed search order, or None within budget.

    A None result means no witness within the budget, not a disproof.
    Search order: basic operations, then clone tables by arity and discovery
    order; B = A is absorbed by the first of them.
    """
    B = _require_subuniverse(alg, B)
    witnesses, _, _ = _absorption_search(alg, [B], budget or SearchBudget())
    return witnesses.get(B)


def enumerate_subuniverses(alg: FiniteAlgebra) -> list[frozenset]:
    """All nonempty subuniverses, as closures of all nonempty seeds."""
    if alg.size > SUBUNIVERSE_GUARD:
        raise BudgetExceeded(
            f"subuniverse enumeration guarded at n<={SUBUNIVERSE_GUARD} (got {alg.size})"
        )
    out = set()
    for mask in range(1, 2**alg.size):
        seed = [a for a in range(alg.size) if mask >> a & 1]
        out.add(generate_subuniverse(alg, seed))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def absorption_report(alg: FiniteAlgebra,
                      budget: SearchBudget | None = None) -> AbsorptionReport:
    """Witnessed proper absorbing subuniverses and the inclusion-minimal ones.

    Results are cached per (algebra, budget); all inputs are immutable.
    """
    return _report(alg, budget or SearchBudget())


@functools.lru_cache(maxsize=REPORT_CACHE_SIZE)
def _report(alg: FiniteAlgebra, budget: SearchBudget) -> AbsorptionReport:
    alg.require_idempotent()
    full = frozenset(range(alg.size))
    proper = [B for B in enumerate_subuniverses(alg) if B != full]
    witnesses, tables, complete = _absorption_search(alg, proper, budget)

    _add_star_witnesses(alg, proper, witnesses, tables)

    found = [witnesses[B] for B in proper if B in witnesses]
    absorbing_sets = [w.subuniverse for w in found] + [full]
    minimal = [
        S for S in absorbing_sets
        if not any(T < S for T in absorbing_sets)
    ]
    minimal.sort(key=lambda s: (len(s), sorted(s)))
    return AbsorptionReport(found, minimal, complete)


def _add_star_witnesses(alg: FiniteAlgebra, targets: list, witnesses: dict,
                        tables: dict) -> None:
    """One pass of star compositions: each target without a witness gets the
    first s*t that absorbs it, over pairs (s, t) of the witnesses found so
    far in `itertools.product` order.

    Read off the factors' search tables.  For idempotent s (d1-ary) and t
    (d2-ary) and a subuniverse B, t(B^d2) = B, so on the tuples with at most
    one argument outside B, s*t takes exactly the values of s with one
    argument in I = t(tuples of A^d2 with at most one argument outside B) and
    the others in B.  A dummy coordinate of a table changes neither I nor
    that check.  A pair past ARITY_CAP, or whose exhaustive check would
    exceed the case guard of `check_absorption`, is skipped.  A hit is built
    as a term and re-verified by `check_absorption`.
    """
    missing = [B for B in targets if B not in witnesses]
    found = [witnesses[B] for B in targets if B in witnesses]
    if not missing or not found:
        return
    n = alg.size
    arities = [term_arity(w.term) for w in found]
    for B in missing:
        images = {}
        for (i, s), (j, t) in itertools.product(enumerate(found), repeat=2):
            m = arities[i] * arities[j]
            if m > ARITY_CAP or len(B) ** (m - 1) * n > DEFAULT_TABLE_GUARD:
                continue
            if j not in images:
                cells = _absorption_cells(t.arity, B, n)[0]
                images[j] = tuple(kernels.unique(tables[t.subuniverse][cells]).tolist())
            cells, in_b = _absorption_cells(s.arity, B, n, images[j])
            if not in_b[tables[s.subuniverse][cells]].all():
                continue
            composed = star_compose(s.term, t.term)
            if not check_absorption(alg, B, composed):
                raise TheoremViolation(
                    f"the factors' tables say {sorted(B)} is absorbed by a star "
                    "composition, but the composed term does not absorb it"
                )
            witnesses[B] = AbsorptionWitness(B, composed, term_arity(composed))
            break


def find_first_proper_absorbing(alg: FiniteAlgebra,
                                budget: SearchBudget | None = None):
    """First proper absorbing witness in search order, or (None, complete).

    Cheaper than a full report: stops at the first subuniverse any candidate
    absorbs, so algebras whose basic operations already witness absorption
    never touch the clone.  Returns (witness | None, search_complete).
    """
    return _first_proper(alg, budget or SearchBudget())


@functools.lru_cache(maxsize=REPORT_CACHE_SIZE)
def _first_proper(alg: FiniteAlgebra, budget: SearchBudget):
    alg.require_idempotent()
    full = frozenset(range(alg.size))
    proper = [B for B in enumerate_subuniverses(alg) if B != full]
    witnesses, _, complete = _absorption_search(alg, proper, budget, first=True)
    return next(iter(witnesses.values()), None), complete


def transitivity_compose(alg: FiniteAlgebra, w_cb: AbsorptionWitness,
                         w_ba: AbsorptionWitness) -> AbsorptionWitness:
    """C absorbs B via s and B absorbs A via t, so C absorbs A via s*t."""
    C, B = w_cb.subuniverse, w_ba.subuniverse
    if not C <= B:
        raise InvalidInput("transitivity needs C <= B")
    composed = star_compose(w_cb.term, w_ba.term)
    if not check_absorption(alg, C, composed):
        raise InvalidInput(
            "composed term does not absorb: an input witness was invalid"
        )
    return AbsorptionWitness(C, composed, term_arity(composed))


# ---------------------------------------------------------------------------
# spreading term (every pinned coordinate still reaches the whole universe)


def pinned_value_set(alg: FiniteAlgebra, t: Term, b: int, i: int) -> frozenset:
    """Values of t over all argument tuples with position i pinned to b."""
    t = renumber_dense(t)
    m = term_arity(t)
    domains = [list(range(alg.size))] * m
    domains[i] = [b]
    values = eval_term_grid(alg, t, domains)
    return frozenset(kernels.unique(values).tolist())


def _image_with_pin(table: np.ndarray, arity: int, size: int, j: int, S) -> frozenset:
    idx = _product_codes([sorted(S) if q == j else range(size) for q in range(arity)], size)
    return frozenset(kernels.unique(table[idx]).tolist())


def _classes_through_chain(alg, chain_tables, base_classes):
    """Fold pinned-value classes outward along a star chain of factor tables.

    For an idempotent outer factor f, the pinned-value sets of f*inner are
    exactly the images of f with one position restricted to a pinned-value
    set of inner and the rest free.
    """
    classes = base_classes
    for table, arity in reversed(chain_tables):
        classes = frozenset(
            _image_with_pin(table, arity, alg.size, j, S)
            for j in range(arity)
            for S in classes
        )
    return classes


@dataclass
class SpreadingTerm:
    term: Term
    arity: int
    stages: int


def construct_spreading_term(alg: FiniteAlgebra, taylor_term: Term,
                             budget: SearchBudget | None = None) -> SpreadingTerm:
    """Iterate v <- s * (taylor * v) until every pinned coordinate spans A.

    Preconditions: idempotent, a verified Taylor term, and no proper
    absorbing subuniverse found within the budget.
    """
    budget = budget or SearchBudget()
    alg.require_idempotent()
    if alg.size == 1:
        return SpreadingTerm(Var(0), 1, 0)
    taylor = renumber_dense(taylor_term)
    t_arity = term_arity(taylor)
    t_table = term_table(alg, taylor, t_arity)
    if taylor_witnesses_for_table(t_table, t_arity, alg.size) is None:
        raise InvalidInput("supplied term is not a Taylor term of the algebra")
    witness, _ = find_first_proper_absorbing(alg, budget)
    if witness is not None:
        raise InvalidInput(
            f"precondition fails: {sorted(witness.subuniverse)} is a proper "
            "absorbing subuniverse"
        )

    gen = construct_universal_generator_term(alg)
    s_term = gen.term
    s_factors = []
    for f in gen.factors:
        fa = term_arity(f)
        s_factors.append((term_table(alg, f, fa), fa))

    v = taylor
    v_arity = t_arity
    classes_by_b = {
        b: frozenset(_image_with_pin(t_table, t_arity, alg.size, i, {b})
                     for i in range(t_arity))
        for b in range(alg.size)
    }
    _verify_stage(alg, v, v_arity, classes_by_b)

    stages = 0
    full = frozenset(range(alg.size))
    while any(S != full for b in range(alg.size) for S in classes_by_b[b]):
        stages += 1
        if stages > alg.size:
            raise BudgetExceeded(
                "pinned-value sets stopped growing; a proper absorbing "
                "subuniverse may exist beyond the budget"
            )
        new_chain = s_factors + [(t_table, t_arity)]
        for b in range(alg.size):
            classes_by_b[b] = _classes_through_chain(alg, new_chain, classes_by_b[b])
        v = star_compose(s_term, star_compose(taylor, v))
        v_arity = v_arity * t_arity * term_arity(s_term)
        if v_arity > ARITY_CAP:
            raise BudgetExceeded(
                f"spreading term arity {v_arity} exceeds cap {ARITY_CAP}"
            )
        _verify_stage(alg, v, v_arity, classes_by_b)
    return SpreadingTerm(v, v_arity, stages)


def _verify_stage(alg, v, v_arity, classes_by_b):
    """Direct enumeration cross-check of the staged pinned-value sets."""
    if alg.size**v_arity > DEFAULT_TABLE_GUARD:
        return
    for b in range(alg.size):
        direct = frozenset(
            pinned_value_set(alg, v, b, i) for i in range(v_arity)
        )
        if direct != classes_by_b[b]:
            raise InvalidInput(
                "staged pinned-value sets disagree with direct enumeration"
            )


# ---------------------------------------------------------------------------
# the Absorption Theorem as a checkable verdict


@dataclass
class AbsorptionTheoremVerdict:
    kind: str  # "full" | "absorption_in_a" | "absorption_in_b" | "undecided"
    witness: AbsorptionWitness | None


def _image_pairs(algA: FiniteAlgebra, algB: FiniteAlgebra, opA: OperationTable,
                 opB: OperationTable, pairs: list):
    """(f^A, f^B) applied to every combination of `pairs`, in product order."""
    nA, nB, tA, tB = algA.size, algB.size, opA.table, opB.table
    for combo in itertools.product(pairs, repeat=opA.arity):
        ia = 0
        ib = 0
        for a, b in combo:
            ia = ia * nA + a
            ib = ib * nB + b
        yield tA[ia], tB[ib]


def is_invariant_pair_relation(algA: FiniteAlgebra, algB: FiniteAlgebra,
                               r: Relation) -> bool:
    """r is closed under every shared operation acting as (f^A, f^B)."""
    if algA.signature() != algB.signature():
        raise InvalidInput("the two algebras must share a signature")
    if r.arity != 2 or r.sizes != (algA.size, algB.size):
        raise InvalidInput("relation must be binary over the two universes")
    tuples = sorted(r.tuples)
    return all(
        image in r.tuples
        for opA, opB in zip(algA.operations, algB.operations)
        for image in _image_pairs(algA, algB, opA, opB, tuples)
    )


def absorption_theorem_check(algA: FiniteAlgebra, algB: FiniteAlgebra,
                             r: Relation,
                             budget: SearchBudget | None = None) -> AbsorptionTheoremVerdict:
    """Full product, or a proper absorbing witness in one factor.

    Undecided is only possible when the budgeted search misses a witness;
    on valid inputs the Absorption Theorem rules it out, and the verify
    suite treats it as a failure.
    """
    budget = budget or SearchBudget()
    if not is_invariant_pair_relation(algA, algB, r):
        raise InvalidInput("relation is not a subuniverse of the product")
    if not is_subdirect(r):
        raise InvalidInput("relation is not subdirect")
    if not is_linked(r):
        raise InvalidInput("relation is not linked")
    for name, alg in (("A", algA), ("B", algB)):
        require_taylor(alg, f"algebra {name}")
    if len(r.tuples) == algA.size * algB.size:
        return AbsorptionTheoremVerdict("full", None)
    witnessA, _ = find_first_proper_absorbing(algA, budget)
    if witnessA is not None:
        return AbsorptionTheoremVerdict("absorption_in_a", witnessA)
    witnessB, _ = find_first_proper_absorbing(algB, budget)
    if witnessB is not None:
        return AbsorptionTheoremVerdict("absorption_in_b", witnessB)
    return AbsorptionTheoremVerdict("undecided", None)

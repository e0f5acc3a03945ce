"""Cyclic-term existence, constructive synthesis, prime-arity checks, the
arity spectrum, and the quotient/block and congruence-tower corollaries.

The decision procedure quantifies over single-orbit generators: a k-ary
cyclic term exists iff the subpower generated by every shift orbit contains
a constant tuple; call such an orbit good.  Sg(orbit b) is closed under the
shift, so it holds the orbit of every first-round product
f(b, s^d2 b, ..., s^dm b); the orbit of b is good when one of those orbits
is.  A pre-pass reads these products for every orbit in batched table
gathers, keeps each as an edge to its orbit's index, and settles orbits
from the constants along the edges to a fixpoint.  Only the orbits it
leaves open get a closure, on coded tuples through the kernels; the scan
shares a `good` mask of every orbit settled so far, each closure stops at
its first good tuple, and each success settles the edges again.  A
closure that reaches its fixpoint without a good tuple is exactly
Sg(orbit), so the refutation is certified on that mask, with no second
closure.  Synthesis reads each witness term off the orbit's
`core.term_closure`, which builds every tuple's term from the operation and
argument rows that first produced it; each round reads its term's table off
the previous round's through the orbit codes, so the term itself is
evaluated once, as the certificate of the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import (
    Congruence,
    FiniteAlgebra,
    Term,
    Var,
    block_algebra,
    decode_tuple,
    is_congruence,
    is_cyclic_table,
    orbit_representatives,
    quotient,
    require_taylor,
    shift_index_permutation,
    substitute,
    term_closure,
    term_size,
    term_table,
)
from .errors import BudgetExceeded, InvalidInput, TheoremViolation
from .relations import (
    contains_constant,
    is_cyclic_relation,
    is_subuniverse_of_power,
    relation_from_codes,
)

TUPLE_SPACE_GUARD = 10**6
SYNTHESIS_NODE_BUDGET = 200_000
EDGE_LIMIT = 1 << 22  # stored first-round edges, int32 orbit indices (16 MiB)


@dataclass
class CyclicDecision:
    arity: int
    has_cyclic_term: bool
    counterexample: tuple[int, ...] | None = None

    def __bool__(self) -> bool:
        return self.has_cyclic_term


@dataclass
class AritySpectrum:
    tested: tuple[int, int]  # inclusive range
    members: frozenset[int] = field(default_factory=frozenset)


def _shift_codes(code, n: int, k: int) -> list:
    """The k left shifts of a coded k-tuple (or of an array of codes),
    repeats included for periodic tuples."""
    out = [code]
    step = n ** (k - 1)
    for _ in range(k - 1):
        code = (code % step) * n + code // step
        out.append(code)
    return out


def _edge_counts(arities: np.ndarray, k: int, orbits: int) -> list:
    """Columns per operation of the first-round edge table of `orbits` rows:
    the k**(m-1) products of each operation of arity m, in order, until the
    table holds EDGE_LIMIT entries."""
    width = EDGE_LIMIT // orbits
    counts = []
    for m in arities.tolist():
        counts.append(min(k ** (m - 1), width))
        width -= counts[-1]
    return counts


def _first_round_edges(alg: FiniteAlgebra, k: int, reps: np.ndarray,
                       index: np.ndarray) -> np.ndarray:
    """Orbit indices of the first-round products of each orbit representative.

    Row i lists, per operation f of arity m in order, the orbit index of
    f(b, s^d2 b, ..., s^dm b) for b = reps[i], s the left shift and
    (d2, ..., dm) in [k]^(m-1) in lexicographic order.  A product whose
    first argument is shifted is a shift of one of these.  The table keeps
    at most EDGE_LIMIT entries by dropping trailing columns, and is built in
    batches of at most `kernels.CHUNK` cells.
    """
    n = alg.size
    flat, offsets, arities = alg.packed
    rows = kernels.tuple_rows(reps, n, k)
    twice = np.concatenate([rows, rows], axis=1)  # twice[:, d : d + k] is s^d
    coords = np.arange(k)
    counts = _edge_counts(arities, k, len(reps))
    edges = np.empty((len(reps), sum(counts)), dtype=np.int32)
    base = 0
    for o, m, count in zip(offsets.tolist(), arities.tolist(), counts):
        # cells below n**m <= 256 stay uint8, as the product rows do
        table = flat[o : o + n**m].astype(kernels.row_dtype(n))
        cell_dtype = kernels.row_dtype(n**m)
        cols = max(1, min(count, kernels.CHUNK // k))
        for c0 in range(base, base + count, cols):
            c = np.arange(c0 - base, min(c0 + cols, base + count) - base)
            # at[q][j, i]: the coordinate of b read by argument q + 2 of
            # column c[j] at coordinate i; digits of weight k**e >= count
            # are 0 (and k**e may not fit an int64)
            at = [(c // k**e % k if k**e < count else np.zeros_like(c))[:, None] + coords
                  for e in reversed(range(m - 1))]
            span = max(1, kernels.CHUNK // (c.size * k))
            for r0 in range(0, len(reps), span):
                cells = rows[r0 : r0 + span, None].astype(cell_dtype)
                for a in at:
                    cells = cells * n + np.take(twice[r0 : r0 + span], a, axis=1)
                out = kernels.row_keys(table[cells].reshape(-1, k), n)
                edges[r0 : r0 + span, c0 : c0 + c.size] = index[out].reshape(-1, c.size)
        base += count
    return edges


def _settle(edges: np.ndarray, settled: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Settle each of `rows` with an edge into a settled orbit, to a fixpoint.

    Returns the rows left open, in the order given.
    """
    step = max(1, kernels.CHUNK // max(1, edges.shape[1]))
    while rows.size and edges.shape[1]:
        hit = np.concatenate([settled[edges[rows[i : i + step]]].any(axis=1)
                              for i in range(0, rows.size, step)])
        if not hit.any():
            break
        settled[rows[hit]] = True
        rows = rows[~hit]
    return rows


def has_cyclic_term(alg: FiniteAlgebra, k: int,
                    guard: int = TUPLE_SPACE_GUARD) -> CyclicDecision:
    """Decide existence of a k-ary cyclic term by scanning orbit generators.

    An orbit is good when its closure holds a constant.  A first-round
    pre-pass (`_first_round_edges`) gives each orbit an edge to the orbit of
    each product of its shifts; an orbit with an edge into a good one is
    good, so the constants settle orbits along the edges to a fixpoint
    (`_settle`).  The orbits left open are closed in code order of their
    least member: one `good` mask holds every orbit settled so far, each
    closure stops at the first good tuple, since Sg(orbit c) lies inside
    the closure, and each success settles along the edges again.  Goodness
    is a property of the orbit alone, so the counterexample is the first
    bad orbit in code order, as a closure of every orbit would find it.
    When the edge table would be larger than one `kernels.CHUNK` batch, the
    least open orbit is closed before it is built, so an input whose first
    orbit is bad pays for no table.
    """
    alg.require_idempotent()
    if k < 2:
        raise InvalidInput("cyclic terms have arity at least 2")
    n = alg.size
    N = n**k
    if N > guard:
        raise BudgetExceeded(f"tuple space {n}^{k} exceeds guard {guard}")
    flat, offsets, arities = alg.packed
    reps, index = orbit_representatives(n, k)
    constants = kernels.constant_codes(n, k)
    settled = np.zeros(len(reps), dtype=np.bool_)
    settled[index[constants]] = True
    good = np.zeros(N, dtype=np.bool_)
    good[constants] = True
    pending = np.flatnonzero(~settled)

    def close(row: int) -> CyclicDecision | None:
        """Close the orbit of reps[row]: settle it if it is good, else
        return the verdict it refutes."""
        code = int(reps[row])
        orbit = _shift_codes(code, n, k)
        member, hit = kernels.closure(flat, offsets, arities, n, k, orbit,
                                      stop_at_constant=True, good=good)
        if hit == -1:
            counter = decode_tuple(code, n, k)
            _verify_counterexample(alg, counter, orbit, member)
            return CyclicDecision(k, False, counter)
        settled[row] = True
        good[orbit] = True
        return None

    # an edge table larger than one batch is built only once the least open
    # orbit is known to be good
    if pending.size and len(reps) * sum(_edge_counts(arities, k, len(reps))) > kernels.CHUNK:
        if (refuted := close(int(pending[0]))) is not None:
            return refuted
        pending = pending[1:]
    edges = _first_round_edges(alg, k, reps, index)
    while True:
        rows = _settle(edges, settled, pending)
        fresh = reps[pending[settled[pending]]]  # the orbits just settled
        good[np.concatenate(_shift_codes(fresh, n, k))] = True
        if not rows.size:
            return CyclicDecision(k, True)
        if (refuted := close(int(rows[0]))) is not None:
            return refuted
        pending = rows[1:]


def _verify_counterexample(alg: FiniteAlgebra, counter: tuple[int, ...],
                           orbit: list, member: np.ndarray):
    """The member mask of the closure that refuted `orbit` must hold the
    orbit and be a cyclic, constant-free subpower."""
    k = len(counter)
    rel = relation_from_codes(np.flatnonzero(member), alg.size, k)
    ok = (
        member[orbit].all()
        and is_cyclic_relation(rel)
        and contains_constant(rel) is None
        and is_subuniverse_of_power(alg, rel)
    )
    if not ok:
        raise TheoremViolation(
            f"counterexample orbit closure for {counter} failed re-verification"
        )


# ---------------------------------------------------------------------------
# constructive synthesis


@dataclass
class CyclicSynthesis:
    term: Term
    arity: int
    measure_history: list[int]


def _shift_term(t: Term, k: int, amount: int) -> Term:
    return substitute(t, {i: Var((i + amount) % k) for i in range(k)})


def _constant_witness_term(alg: FiniteAlgebra, b: int, k: int) -> Term:
    """A k-ary term s with s(b) = s(shift b) = ..., from a term closure.

    The generators are the shifts of the coded tuple b; the seed in row i is
    b shifted i times and becomes the variable x_i.  Any constant member
    serves the repair, so the term is that of the first one the closure
    yields, and no later batch or fixpoint round is computed.
    """
    n = alg.size
    for row, term in term_closure(alg, kernels.tuple_rows(_shift_codes(b, n, k), n, k)):
        if (row == row[0]).all():
            return term
    raise TheoremViolation("orbit closure lost its constant tuple")


def find_cyclic_term(alg: FiniteAlgebra, k: int,
                     guard: int = TUPLE_SPACE_GUARD,
                     decision: CyclicDecision | None = None) -> CyclicSynthesis:
    """Improvement loop: repair the lexicographically least violating orbit.

    Maintains t, its table and S(t) = tuples on whose orbit t is constant;
    each round builds a constant-collapsing term s for the violating value
    orbit and replaces t by s over the k cyclic shifts of t, so |S(t)|
    strictly grows.  A round reads everything off one array, codes[c] = the
    code of (t(c), t(σc), ..., t(σ^(k-1) c)) for σ the left shift: S(t) is
    where it is a constant code, the violating value orbit is its entry at
    the least c outside S(t), and the next table is s's table read at it.
    The loop never evaluates t; the final term is evaluated once, and its
    table must be the carried one.  `decision`, when given, is
    `has_cyclic_term(alg, k)` already computed.
    """
    if decision is None:
        decision = has_cyclic_term(alg, k, guard)
    if not decision.has_cyclic_term:
        raise InvalidInput(
            f"no cyclic term of arity {k} exists; counterexample {decision.counterexample}"
        )
    n = alg.size
    N = n**k
    perm = shift_index_permutation(n, k)
    constant = np.zeros(N, dtype=np.bool_)
    constant[kernels.constant_codes(n, k)] = True

    t: Term = Var(0)
    table = term_table(alg, t, k)
    history: list[int] = []
    while True:
        codes = table.astype(np.int64)
        shifted = table
        for _ in range(k - 1):
            shifted = shifted[perm]
            codes *= n
            codes += shifted
        mask = constant[codes]
        size = int(mask.sum())
        if history and size <= history[-1]:
            raise TheoremViolation("cyclic synthesis measure failed to increase")
        history.append(size)
        if size == N:
            break
        s = _constant_witness_term(alg, int(codes[np.flatnonzero(~mask)[0]]), k)
        t = substitute(s, {i: _shift_term(t, k, i) for i in range(k)})
        if term_size(t) > SYNTHESIS_NODE_BUDGET:
            raise BudgetExceeded(
                f"synthesis term grew past {SYNTHESIS_NODE_BUDGET} DAG nodes"
            )
        table = term_table(alg, s, k)[codes]
    if not np.array_equal(term_table(alg, t, k), table):
        raise TheoremViolation("synthesized term table differs from the carried table")
    if not is_cyclic_table(table, k, n):
        raise TheoremViolation("synthesized term table is not cyclic")
    return CyclicSynthesis(t, k, history)


# ---------------------------------------------------------------------------
# prime arities and the spectrum


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def next_prime_above(n: int) -> int:
    p = n + 1
    while not is_prime(p):
        p += 1
    return p


def smallest_cyclic_prime_check(alg: FiniteAlgebra, guard: int = TUPLE_SPACE_GUARD):
    """The smallest prime above |A| must admit a cyclic term for Taylor algebras."""
    require_taylor(alg)
    p = next_prime_above(alg.size)
    decision = has_cyclic_term(alg, p, guard)
    if not decision.has_cyclic_term:
        raise TheoremViolation(
            f"Taylor algebra lacks a cyclic term of prime arity {p}: "
            f"counterexample {decision.counterexample}"
        )
    return p, decision


def arity_spectrum(alg: FiniteAlgebra, max_k: int,
                   guard: int = TUPLE_SPACE_GUARD) -> AritySpectrum:
    members = set()
    for k in range(2, max_k + 1):
        if has_cyclic_term(alg, k, guard).has_cyclic_term:
            members.add(k)
    return AritySpectrum((2, max_k), frozenset(members))


def check_spectrum_multiplicativity(alg: FiniteAlgebra, m: int, n: int) -> bool:
    """m and n admit cyclic terms iff their product does (decision only)."""
    has_m = has_cyclic_term(alg, m, TUPLE_SPACE_GUARD).has_cyclic_term
    has_n = has_cyclic_term(alg, n, TUPLE_SPACE_GUARD).has_cyclic_term
    has_mn = has_cyclic_term(alg, m * n, TUPLE_SPACE_GUARD).has_cyclic_term
    return (has_m and has_n) == has_mn


# ---------------------------------------------------------------------------
# congruence corollaries


def check_block_quotient_lemma(alg: FiniteAlgebra, c: Congruence, k: int) -> bool:
    """Quotient and all blocks cyclic at arity k force the algebra cyclic at k."""
    if not is_congruence(alg, c):
        raise InvalidInput("partition is not a congruence")
    blocks = c.classes()
    premise = has_cyclic_term(quotient(alg, c), k, TUPLE_SPACE_GUARD).has_cyclic_term
    for cls in blocks:
        if not premise:
            break
        premise = has_cyclic_term(block_algebra(alg, cls), k,
                                  TUPLE_SPACE_GUARD).has_cyclic_term
    if not premise:
        return True  # implication holds vacuously
    return has_cyclic_term(alg, k, TUPLE_SPACE_GUARD).has_cyclic_term


def check_congruence_tower(alg: FiniteAlgebra, chain: list[Congruence],
                           p: int) -> bool | None:
    """Every class splitting into fewer than p subclasses forces p-ary cyclicity.

    Returns None when the splitting bound fails (no assertion is made).
    """
    alg.require_idempotent()
    if not is_prime(p):
        raise InvalidInput(f"{p} is not prime")
    if not chain:
        raise InvalidInput("empty congruence chain")
    if chain[0].blocks != Congruence.diagonal(alg.size).blocks:
        raise InvalidInput("chain must start at the diagonal")
    if chain[-1].blocks != Congruence.full(alg.size).blocks:
        raise InvalidInput("chain must end at the full relation")
    for c in chain:
        if not is_congruence(alg, c):
            raise InvalidInput("chain member is not a congruence")
    for prev, cur in zip(chain, chain[1:]):
        if not prev.refines(cur):
            raise InvalidInput("chain is not increasing")
    for prev, cur in zip(chain, chain[1:]):
        for cls in cur.classes():
            splits = len({prev.blocks[a] for a in cls})
            if splits >= p:
                return None
    return has_cyclic_term(alg, p, TUPLE_SPACE_GUARD).has_cyclic_term

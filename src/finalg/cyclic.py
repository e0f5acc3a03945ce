"""Cyclic-term existence, constructive synthesis, prime-arity checks, the
arity spectrum, and the quotient/block and congruence-tower corollaries.

The decision procedure quantifies over single-orbit generators: a k-ary
cyclic term exists iff the subpower generated by every shift orbit contains
a constant tuple.  Orbit closures run on coded tuples through the kernels;
one scan shares a `good` set of the constants and every orbit verified so
far, and each closure stops at its first good tuple.  Synthesis reads each
witness term off a provenance closure (`kernels.closure_provenance`), which
records the operation and argument rows that first produced every tuple.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import kernels
from .core import (
    App,
    Congruence,
    FiniteAlgebra,
    OperationTable,
    Term,
    Var,
    decode_tuple,
    encode_tuple,
    is_congruence,
    is_cyclic_table,
    is_taylor_term,
    quotient,
    shift_index_permutation,
    substitute,
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


@dataclass
class CyclicDecision:
    arity: int
    has_cyclic_term: bool
    counterexample: tuple[int, ...] | None = None
    method: str = "decision"

    def __bool__(self) -> bool:
        return self.has_cyclic_term


@dataclass
class AritySpectrum:
    tested: tuple[int, int]  # inclusive range
    members: frozenset[int] = field(default_factory=frozenset)


def _shift_codes(code: int, n: int, k: int) -> list[int]:
    """The k left shifts of a coded k-tuple, repeats included for periodic tuples."""
    out = [code]
    step = n ** (k - 1)
    for _ in range(k - 1):
        code = (code % step) * n + code // step
        out.append(code)
    return out


def has_cyclic_term(alg: FiniteAlgebra, k: int,
                    guard: int = TUPLE_SPACE_GUARD) -> CyclicDecision:
    """Decide existence of a k-ary cyclic term by scanning orbit generators.

    The scan keeps one `good` mask: the constants plus every orbit verified
    so far.  An orbit whose closure reaches a good tuple c is good itself,
    because Sg(orbit c) lies inside its closure, so each closure stops at the
    first good tuple.  Orbits are scanned in code order of their least
    member, so the counterexample is the first bad orbit in that order.
    """
    alg.require_idempotent()
    if k < 2:
        raise InvalidInput("cyclic terms have arity at least 2")
    n = alg.size
    N = n**k
    if N > guard:
        raise BudgetExceeded(f"tuple space {n}^{k} exceeds guard {guard}")
    flat, offsets, arities = alg.packed
    good = np.zeros(N, dtype=np.bool_)
    good[kernels.constant_codes(n, k)] = True
    for code in range(N):
        if good[code]:
            continue  # a constant, or an orbit already verified
        orbit = _shift_codes(code, n, k)
        _, hit = kernels.closure(flat, offsets, arities, n, k, orbit,
                                 stop_at_constant=True, good=good)
        if hit == -1:
            counter = decode_tuple(code, n, k)
            _verify_counterexample(alg, counter, k)
            return CyclicDecision(k, False, counter)
        good[orbit] = True
    return CyclicDecision(k, True)


def _verify_counterexample(alg: FiniteAlgebra, counter: tuple[int, ...], k: int):
    """The orbit closure must be a nonempty, cyclic, constant-free subpower."""
    flat, offsets, arities = alg.packed
    orbit = _shift_codes(encode_tuple(counter, alg.size), alg.size, k)
    members = kernels.closure_members(flat, offsets, arities, alg.size, k, orbit)
    rel = relation_from_codes(members, alg.size, k)
    ok = (
        rel.tuples
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
    decision: CyclicDecision


def _shift_term(t: Term, k: int, amount: int) -> Term:
    return substitute(t, {i: Var((i + amount) % k) for i in range(k)})


def _constant_witness_term(alg: FiniteAlgebra, b: int, k: int) -> Term:
    """A k-ary term s with s(b) = s(shift b) = ..., from a provenance closure.

    The generators are the shifts of the coded tuple b; the seed in row i is
    b shifted i times and becomes the variable x_i.  The least constant
    member is rebuilt from the operation and argument rows that first
    produced each code, sharing the term of every row used twice.
    """
    n = alg.size
    flat, offsets, arities = alg.packed
    codes, ops, parents = kernels.closure_provenance(
        flat, offsets, arities, n, k, _shift_codes(b, n, k)
    )
    rows = np.flatnonzero(np.isin(codes, kernels.constant_codes(n, k)))
    if not rows.size:
        raise TheoremViolation("orbit closure lost its constant tuple")
    terms: dict[int, Term] = {}

    def rec(row: int) -> Term:
        if row not in terms:
            oi = int(ops[row])
            if oi < 0:
                terms[row] = Var(row)
            else:
                op = alg.operations[oi]
                terms[row] = App(op.name, tuple(rec(int(p)) for p in parents[row, : op.arity]))
        return terms[row]

    return rec(int(rows[np.argmin(codes[rows])]))


def find_cyclic_term(alg: FiniteAlgebra, k: int,
                     node_budget: int = SYNTHESIS_NODE_BUDGET,
                     guard: int = TUPLE_SPACE_GUARD,
                     decision: CyclicDecision | None = None) -> CyclicSynthesis:
    """Improvement loop: repair the lexicographically least violating orbit.

    Maintains t and S(t) = tuples on whose orbit t is constant; each round
    builds a constant-collapsing term s for the violating value orbit and
    replaces t by s over the k cyclic shifts of t, so |S(t)| strictly grows.
    `decision`, when given, is `has_cyclic_term(alg, k)` already computed.
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

    t: Term = Var(0)
    history: list[int] = []
    while True:
        table = term_table(alg, t, k)
        mask = np.ones(N, dtype=np.bool_)
        shifted = table
        for _ in range(k - 1):
            shifted = shifted[perm]
            mask &= table == shifted
        size = int(mask.sum())
        if history and size <= history[-1]:
            raise TheoremViolation("cyclic synthesis measure failed to increase")
        history.append(size)
        if size == N:
            break
        a_code = int(np.flatnonzero(~mask)[0])
        b = encode_tuple([int(table[c]) for c in _shift_codes(a_code, n, k)], n)
        s = _constant_witness_term(alg, b, k)
        t = substitute(s, {i: _shift_term(t, k, i) for i in range(k)})
        if term_size(t) > node_budget:
            raise BudgetExceeded(
                f"synthesis term grew past {node_budget} DAG nodes"
            )
    final = term_table(alg, t, k)
    if not is_cyclic_table(final, k, n):
        raise TheoremViolation("synthesized term table is not cyclic")
    return CyclicSynthesis(t, k, history, CyclicDecision(k, True, None, "synthesis"))


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


def smallest_cyclic_prime_check(alg: FiniteAlgebra, taylor_witness: Term,
                                guard: int = TUPLE_SPACE_GUARD):
    """The smallest prime above |A| must admit a cyclic term for Taylor algebras."""
    alg.require_idempotent()
    if is_taylor_term(alg, taylor_witness) is None:
        raise InvalidInput("supplied term is not a Taylor term of the algebra")
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


def check_spectrum_multiplicativity(alg: FiniteAlgebra, m: int, n: int,
                                    guard: int = TUPLE_SPACE_GUARD) -> bool:
    """m and n admit cyclic terms iff their product does (decision only)."""
    has_m = has_cyclic_term(alg, m, guard).has_cyclic_term
    has_n = has_cyclic_term(alg, n, guard).has_cyclic_term
    has_mn = has_cyclic_term(alg, m * n, guard).has_cyclic_term
    return (has_m and has_n) == has_mn


# ---------------------------------------------------------------------------
# congruence corollaries


def block_algebra(alg: FiniteAlgebra, block: list[int]) -> FiniteAlgebra:
    """Restriction to a block that is a subuniverse, renamed to 0..|block|-1."""
    block = sorted(block)
    pos = np.full(alg.size, -1, dtype=np.int64)
    pos[block] = np.arange(len(block))
    ops = []
    for op in alg.operations:
        grid = op.array.reshape((alg.size,) * op.arity)[np.ix_(*[block] * op.arity)]
        table = pos[grid].ravel()
        if (table < 0).any():
            raise InvalidInput(f"block {block} is not a subuniverse")
        ops.append(OperationTable(op.name, op.arity, tuple(table.tolist())))
    return FiniteAlgebra(len(block), tuple(ops))


def check_block_quotient_lemma(alg: FiniteAlgebra, c: Congruence, k: int,
                               guard: int = TUPLE_SPACE_GUARD) -> bool:
    """Quotient and all blocks cyclic at arity k force the algebra cyclic at k."""
    if not is_congruence(alg, c):
        raise InvalidInput("partition is not a congruence")
    blocks = c.classes()
    premise = has_cyclic_term(quotient(alg, c), k, guard).has_cyclic_term
    for cls in blocks:
        if not premise:
            break
        premise = has_cyclic_term(block_algebra(alg, cls), k, guard).has_cyclic_term
    if not premise:
        return True  # implication holds vacuously
    return has_cyclic_term(alg, k, guard).has_cyclic_term


def check_congruence_tower(alg: FiniteAlgebra, chain: list[Congruence], p: int,
                           guard: int = TUPLE_SPACE_GUARD) -> bool | None:
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
    outcome = has_cyclic_term(alg, p, guard).has_cyclic_term
    return outcome

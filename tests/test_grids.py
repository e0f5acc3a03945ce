"""Table reads on argument grids against the index loops they replaced.

The reference functions below are the earlier loop implementations of
`taylor_witnesses_for_table`, `is_wnu_op`, `product`, `quotient` and
`cyclic.block_algebra`, kept verbatim as independent checks of the numpy
table reads.
"""

import itertools
import random

import numpy as np
import pytest

from finalg import kernels
from finalg.catalog import (
    boolean_affine,
    boolean_majority,
    boolean_meet,
    one_element,
    rock_paper_scissors,
    three_chain_meet,
    three_majority,
    z3_affine,
)
from finalg.core import (
    DEFAULT_TABLE_GUARD,
    Congruence,
    FiniteAlgebra,
    OperationTable,
    _partitions_rgs,
    algebra,
    congruences,
    encode_tuple,
    is_congruence,
    is_cyclic_table,
    is_wnu_op,
    product,
    quotient,
    quotient_map_is_homomorphism,
    shift_index_permutation,
    taylor_witnesses_for_table,
)
from finalg.cyclic import block_algebra
from finalg.digraph import Digraph, _forest, algebraic_length, weak_components
from finalg.errors import BudgetExceeded, InvalidInput
from finalg.relations import Relation, is_subuniverse_of_power

# ---------------------------------------------------------------------------
# references


def reference_taylor_witnesses_for_table(table: np.ndarray, arity: int, size: int):
    n = size
    step = (n**arity - 1) // (n - 1) if n > 1 else 1
    if any(table[a * step] != a for a in range(n)):
        return None

    def pattern_fn(pat):
        out = np.zeros((n, n), dtype=np.int64)
        for x in range(n):
            for y in range(n):
                idx = 0
                for p in pat:
                    idx = idx * n + (y if p else x)
                out[x, y] = table[idx]
        return out

    pats = list(itertools.product((0, 1), repeat=arity))
    tables = {pat: pattern_fn(pat) for pat in pats}
    witnesses = []
    for j in range(arity):
        found = None
        for left in pats:
            if left[j] != 0:
                continue
            for right in pats:
                if right[j] != 1:
                    continue
                if np.array_equal(tables[left], tables[right]):
                    found = (left, right)
                    break
            if found:
                break
        if not found:
            return None
        witnesses.append(found)
    return witnesses


def reference_is_wnu_op(op: OperationTable, size: int) -> bool:
    if op.arity < 2 or not op.is_idempotent(size):
        return False
    n = size
    m = op.arity
    for x in range(n):
        for y in range(n):
            ref = None
            for j in range(m):
                idx = 0
                for q in range(m):
                    idx = idx * n + (y if q == j else x)
                v = op.table[idx]
                if ref is None:
                    ref = v
                elif v != ref:
                    return False
    return True


def reference_product(algs: list[FiniteAlgebra]) -> FiniteAlgebra:
    if not algs:
        raise InvalidInput("empty product")
    sig = algs[0].signature()
    for a in algs[1:]:
        if a.signature() != sig:
            raise InvalidInput("signature mismatch in product")
    sizes = [a.size for a in algs]
    N = 1
    for s in sizes:
        N *= s
    ops = []
    for oi, (name, m) in enumerate(sig):
        if N**m > DEFAULT_TABLE_GUARD:
            raise BudgetExceeded(
                f"product table for {name!r} needs {N**m} entries (> guard); "
                "use the coded-tuple operations instead of materializing"
            )
        idx = np.arange(N**m, dtype=np.int64)
        argcodes = [(idx // (N ** (m - 1 - q))) % N for q in range(m)]
        out = np.zeros(N**m, dtype=np.int64)
        rem = [ac.copy() for ac in argcodes]
        # decode factor digits from most significant factor down
        factor_vals = []
        div = N
        for fi, a in enumerate(algs):
            div //= a.size
            digs = [rc // div for rc in rem]
            rem = [rc % div for rc in rem]
            t = np.zeros(N**m, dtype=np.int64)
            for q in range(m):
                t = t * a.size + digs[q]
            factor_vals.append(a.operations[oi].array[t])
        mult = 1
        for fi in range(len(algs) - 1, -1, -1):
            out += factor_vals[fi] * mult
            mult *= algs[fi].size
        ops.append(OperationTable(name, m, tuple(int(v) for v in out)))
    return FiniteAlgebra(N, tuple(ops))


def reference_quotient(alg: FiniteAlgebra, c: Congruence) -> FiniteAlgebra:
    if len(c.blocks) != alg.size:
        raise InvalidInput("congruence size mismatch")
    classes = c.classes()
    m = len(classes)
    ops = []
    for op in alg.operations:
        q = op.arity
        table = [-1] * (m**q)
        for blkargs in itertools.product(range(m), repeat=q):
            idx = 0
            for b in blkargs:
                idx = idx * m + b
            val = -1
            for reps in itertools.product(*(classes[b] for b in blkargs)):
                jdx = 0
                for a in reps:
                    jdx = jdx * alg.size + a
                v = c.blocks[op.table[jdx]]
                if val == -1:
                    val = v
                elif val != v:
                    raise InvalidInput(
                        f"representative-dependent result for {op.name!r}: "
                        "the partition is not a congruence"
                    )
            table[idx] = val
        ops.append(OperationTable(op.name, q, tuple(table)))
    return FiniteAlgebra(m, tuple(ops))


def reference_block_algebra(alg: FiniteAlgebra, block: list[int]) -> FiniteAlgebra:
    block = sorted(block)
    pos = {a: i for i, a in enumerate(block)}
    ops = []
    for op in alg.operations:
        table = []
        for args in itertools.product(block, repeat=op.arity):
            v = op.apply(alg.size, args)
            if v not in pos:
                raise InvalidInput(f"block {block} is not a subuniverse")
            table.append(pos[v])
        ops.append(OperationTable(op.name, op.arity, tuple(table)))
    return FiniteAlgebra(len(block), tuple(ops))


# ---------------------------------------------------------------------------
# random inputs


def random_table(rng, size, arity, idempotent=True, cyclic=False):
    """A random table; cyclic ones are constant on shift orbits of arguments."""
    table = [rng.randrange(size) for _ in range(size**arity)]
    if cyclic:
        perm = shift_index_permutation(size, arity).tolist()
        for code in range(size**arity):
            orbit = [code]
            while perm[orbit[-1]] != code:
                orbit.append(perm[orbit[-1]])
            value = table[min(orbit)]
            for c in orbit:
                table[c] = value
    if idempotent:
        for a, c in enumerate(kernels.constant_codes(size, arity).tolist()):
            table[c] = a
    return table


def random_algebra(rng, size, arities, idempotent=True):
    return algebra(size, {
        f"f{i}": (m, random_table(rng, size, m, idempotent)) for i, m in enumerate(arities)
    })


def outcome(fn, *args):
    """The result, or the type and message of the InvalidInput raised."""
    try:
        return fn(*args)
    except InvalidInput as exc:
        return ("InvalidInput", str(exc))


CATALOG = (one_element, boolean_meet, three_chain_meet, boolean_majority, boolean_affine,
           z3_affine, three_majority, rock_paper_scissors)


# ---------------------------------------------------------------------------
# pattern tables


def test_taylor_witnesses_match_reference():
    rng = random.Random(11)
    cases = [(op.array, op.arity, alg.size) for make in CATALOG
             for alg in [make()] for op in alg.operations]
    for size in range(1, 5):
        for arity in range(1, 5):
            if size**arity > 256:
                continue
            for idempotent, cyclic in ((True, False), (False, False), (True, True)):
                for _ in range(6):
                    table = random_table(rng, size, arity, idempotent, cyclic and arity > 1)
                    cases.append((np.array(table, dtype=np.int64), arity, size))
    found = 0
    for table, arity, size in cases:
        want = reference_taylor_witnesses_for_table(table, arity, size)
        assert taylor_witnesses_for_table(table, arity, size) == want
        found += want is not None
    assert found > 20  # the comparison covers witnesses, not only refusals


def test_wnu_matches_reference():
    rng = random.Random(12)
    ops = [(op, alg.size) for make in CATALOG for alg in [make()] for op in alg.operations]
    for size in range(1, 5):
        for arity in range(1, 5):
            if size**arity > 256:
                continue
            for idempotent, cyclic in ((True, False), (False, False), (True, True)):
                for _ in range(6):
                    table = random_table(rng, size, arity, idempotent, cyclic and arity > 1)
                    ops.append((OperationTable("f", arity, tuple(table)), size))
    ops.append((OperationTable("wide", 64, (0,)), 1))  # 64 positions, one element
    verdicts = [reference_is_wnu_op(op, size) for op, size in ops]
    assert [is_wnu_op(op, size) for op, size in ops] == verdicts
    assert sum(verdicts) > 20


def test_cyclic_table_and_idempotence_read_the_diagonal():
    rng = random.Random(13)
    for size in range(1, 5):
        for arity in range(1, 5):
            if size**arity > 256:
                continue
            for _ in range(10):
                table = random_table(rng, size, arity, rng.random() < 0.5, arity > 1)
                diagonal = [table[encode_tuple((a,) * arity, size)] for a in range(size)]
                idempotent = diagonal == list(range(size))
                assert OperationTable("f", arity, tuple(table)).is_idempotent(size) == idempotent
                arr = np.array(table, dtype=np.int64)
                assert is_cyclic_table(arr, arity, size) == (arity > 1 and idempotent)


# ---------------------------------------------------------------------------
# products, quotients and blocks


def test_product_matches_reference():
    rng = random.Random(14)
    for _ in range(40):
        arities = [rng.randint(1, 3) for _ in range(rng.randint(1, 2))]
        factors = [random_algebra(rng, rng.randint(1, 4), arities, rng.random() < 0.5)
                   for _ in range(rng.randint(2, 3))]
        want = outcome(reference_product, factors)
        assert outcome(product, factors) == want
    powers = [[boolean_affine()] * 3, [one_element()] * 5, [z3_affine(), z3_affine()]]
    for factors in powers:
        assert product(factors) == reference_product(factors)


def test_product_refusals_match_reference():
    mismatch = [boolean_meet(), boolean_majority()]
    assert outcome(product, mismatch) == outcome(reference_product, mismatch)
    assert outcome(product, []) == outcome(reference_product, [])
    with pytest.raises(BudgetExceeded, match="product table for 'maj'"):
        product([three_majority()] * 6)


def test_quotient_matches_reference():
    rng = random.Random(15)
    algs = [make() for make in CATALOG]
    algs += [random_algebra(rng, rng.randint(1, 4), [rng.randint(1, 3)], rng.random() < 0.5)
             for _ in range(30)]
    rejected = accepted = 0
    for alg in algs:
        for rgs in _partitions_rgs(alg.size):
            c = Congruence(rgs)
            want = outcome(reference_quotient, alg, c)
            assert outcome(quotient, alg, c) == want
            if isinstance(want, tuple):
                rejected += 1
                assert not is_congruence(alg, c)
            else:
                accepted += 1
                assert quotient_map_is_homomorphism(alg, c)
    assert rejected > 20 and accepted > 20
    with pytest.raises(InvalidInput, match="congruence size mismatch"):
        quotient(boolean_meet(), Congruence.full(3))


def test_block_algebra_matches_reference():
    rng = random.Random(16)
    algs = [make() for make in CATALOG]
    algs += [random_algebra(rng, rng.randint(1, 4), [rng.randint(1, 3)], rng.random() < 0.5)
             for _ in range(30)]
    rejected = accepted = 0
    for alg in algs:
        blocks = [[a for a in range(alg.size) if mask >> a & 1]
                  for mask in range(1, 2**alg.size)]
        blocks += [cls for c in congruences(alg) for cls in c.classes()]
        for block in blocks:
            want = outcome(reference_block_algebra, alg, block)
            assert outcome(block_algebra, alg, block) == want
            if isinstance(want, tuple):
                rejected += 1
            else:
                accepted += 1
    assert rejected > 20 and accepted > 20


# ---------------------------------------------------------------------------
# invariance


def closed_by_size(alg, codes, k):
    flat, offsets, arities = alg.packed
    return len(kernels.closure_members(flat, offsets, arities, alg.size, k, codes)) == len(codes)


def test_is_closed_matches_closure_size():
    rng = random.Random(17)
    algs = [make() for make in CATALOG]
    algs += [random_algebra(rng, rng.randint(1, 3), [rng.randint(1, 3)]) for _ in range(10)]
    for alg in algs:
        flat, offsets, arities = alg.packed
        for k in (1, 2, 3):
            N = alg.size**k
            sets = [[], list(range(N))]
            sets += [sorted(rng.sample(range(N), rng.randint(1, N))) for _ in range(15)]
            sets += [kernels.closure_members(flat, offsets, arities, alg.size, k, s).tolist()
                     for s in sets[2:6]]
            for codes in sets:
                assert kernels.is_closed(flat, offsets, arities, alg.size, k, codes) \
                    == closed_by_size(alg, codes, k)


def test_invariance_keeps_its_edge_cases():
    alg = boolean_majority()
    assert is_subuniverse_of_power(alg, Relation(2, (2, 2), frozenset()))
    full = Relation(3, (2,) * 3, frozenset(itertools.product(range(2), repeat=3)))
    assert is_subuniverse_of_power(alg, full)
    wide = Relation(64, (2,) * 64, frozenset({(0,) * 64, (1,) * 64}))
    with pytest.raises(BudgetExceeded, match="kernel limit"):
        is_subuniverse_of_power(alg, wide)


# ---------------------------------------------------------------------------
# potentials of weak components


def test_potentials_span_each_weak_component():
    rng = random.Random(18)
    for _ in range(60):
        n = rng.randint(1, 7)
        edges = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 9))]
        g = Digraph.build(n, edges)
        for comp in weak_components(g):
            comps, pot = _forest(g, comp)
            assert comps == [comp]
            assert set(pot) == comp and pot[min(comp)] == 0
            d = algebraic_length(g, comp) or 0
            for u, v in g.edges:
                if u in comp:
                    assert (pot[u] + 1 - pot[v]) % d == 0 if d else pot[u] + 1 == pot[v]
        if len(weak_components(g)) > 1:
            with pytest.raises(InvalidInput, match="single weak component"):
                algebraic_length(g, range(n))

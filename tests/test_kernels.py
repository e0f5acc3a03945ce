"""Closure kernels against an independent python closure."""

import itertools
import random

import numpy as np
import pytest

from finalg import kernels
from finalg.catalog import boolean_majority, three_majority, z3_affine
from finalg.core import algebra
from finalg.errors import BudgetExceeded
from finalg.relations import Relation, is_subuniverse_of_power


def decode(code, n, k):
    out = []
    for _ in range(k):
        out.append(code % n)
        code //= n
    return tuple(reversed(out))


def encode(t, n):
    c = 0
    for a in t:
        c = c * n + a
    return c


def apply_coordinatewise(n, table, args):
    val = []
    for j in range(len(args[0])):
        idx = 0
        for t in args:
            idx = idx * n + t[j]
        val.append(table[idx])
    return tuple(val)


def python_closure(ops, n, k, seeds):
    """Reference closure over decoded tuples, no shortcuts."""
    members = {decode(s, n, k) for s in seeds}
    changed = True
    while changed:
        changed = False
        for arity, table in ops:
            for combo in itertools.product(sorted(members), repeat=arity):
                val = apply_coordinatewise(n, table, combo)
                if val not in members:
                    members.add(val)
                    changed = True
    return sorted(encode(t, n) for t in members)


def pack(alg):
    return kernels.pack_tables([(op.arity, op.table) for op in alg.operations])


def mixed_arity():
    """Binary and ternary operations together, so provenance rows are padded."""
    return algebra(3, {
        "meet": (2, min),
        "mal": (3, lambda x, y, z: (x - y + z) % 3),
    })


def random_seed_cases(rng):
    for alg in (boolean_majority(), z3_affine(), three_majority(), mixed_arity()):
        for k in (1, 2, 3):
            N = alg.size**k
            for _ in range(20):
                yield alg, k, rng.sample(range(N), rng.randint(1, min(4, N)))


def test_paths_agree_on_random_seeds():
    for alg, k, seeds in random_seed_cases(random.Random(7)):
        ops = [(op.arity, op.table) for op in alg.operations]
        flat, offsets, arities = pack(alg)
        member, _ = kernels.closure(flat, offsets, arities, alg.size, k, seeds)
        assert list(np.flatnonzero(member)) == python_closure(ops, alg.size, k, seeds)


def test_provenance_rows_rebuild_every_code():
    for alg, k, seeds in random_seed_cases(random.Random(11)):
        n = alg.size
        ops = [(op.arity, op.table) for op in alg.operations]
        flat, offsets, arities = pack(alg)
        seeds = seeds + seeds[:1]  # a repeated seed is dropped
        codes, op_of, parents = kernels.closure_provenance(
            flat, offsets, arities, n, k, seeds
        )
        assert sorted(codes) == python_closure(ops, n, k, seeds)
        distinct = list(dict.fromkeys(seeds))
        assert list(codes[: len(distinct)]) == distinct
        assert list(op_of[: len(distinct)]) == [-1] * len(distinct)
        for i in range(len(distinct), len(codes)):
            arity, table = ops[op_of[i]]
            rows = parents[i, :arity]
            assert all(0 <= r < i for r in rows)
            assert all(r == -1 for r in parents[i, arity:])
            args = [decode(int(codes[r]), n, k) for r in rows]
            assert encode(apply_coordinatewise(n, table, args), n) == codes[i]


def test_constant_detection_matches_full_closure():
    alg = z3_affine()
    flat, offsets, arities = pack(alg)
    n, k = alg.size, 3
    for code in range(n**k):
        members = kernels.closure_members(flat, offsets, arities, n, k, [code])
        consts = [c for c in members
                  if len(set((int(c) // n**j) % n for j in range(k))) == 1]
        _, found = kernels.closure(flat, offsets, arities, n, k, [code],
                                   stop_at_constant=True)
        assert (found != -1) == bool(consts)
        if found != -1:
            assert found in members


def test_closure_stops_at_first_good_code():
    alg = boolean_majority()
    flat, offsets, arities = pack(alg)
    orbit = [0b011, 0b101, 0b110]
    # maj of the orbit is (1,1,1): a constant, but not in this good set
    good = np.zeros(8, dtype=np.bool_)
    good[0b000] = True
    member, hit = kernels.closure(flat, offsets, arities, 2, 3, orbit,
                                  stop_at_constant=True, good=good)
    assert hit == -1 and list(np.flatnonzero(member)) == [0b011, 0b101, 0b110, 0b111]
    _, hit = kernels.closure(flat, offsets, arities, 2, 3, orbit, stop_at_constant=True)
    assert hit == 0b111
    # maj((1,1,0), (1,0,1), (0,0,0)) = (1,0,0), a good tuple that is not constant
    good[0b100] = True
    _, hit = kernels.closure(flat, offsets, arities, 2, 3, [0b110, 0b101, 0b000],
                             stop_at_constant=True, good=good)
    assert hit == 0b000
    good[0b000] = False
    _, hit = kernels.closure(flat, offsets, arities, 2, 3, [0b110, 0b101, 0b000],
                             stop_at_constant=True, good=good)
    assert hit == 0b100


def test_closure_of_closed_set_is_itself():
    alg = boolean_majority()
    flat, offsets, arities = pack(alg)
    member, const = kernels.closure(flat, offsets, arities, 2, 2, [1, 2])
    assert sorted(np.flatnonzero(member)) == [1, 2]
    assert const == -1


def test_empty_seed_closure_is_empty():
    alg = boolean_majority()
    flat, offsets, arities = pack(alg)
    member, const = kernels.closure(flat, offsets, arities, 2, 2, [])
    assert not member.any()
    assert const == -1


def test_tuple_space_above_kernel_limit_is_refused():
    alg = boolean_majority()
    wide = Relation(64, (2,) * 64, frozenset({(0,) * 64, (1,) * 64}))
    with pytest.raises(BudgetExceeded, match="kernel limit"):
        is_subuniverse_of_power(alg, wide)


def product_reference(rows, n, m, lo, pos):
    """(argument rows, cells) of every combination whose first argument in
    the frontier [lo, len(rows)) sits at `pos`, in `itertools.product` order."""
    width = len(rows[0]) if rows else 0
    out = []
    for combo in itertools.product(range(len(rows)), repeat=m):
        in_frontier = [q for q, r in enumerate(combo) if r >= lo]
        if in_frontier[:1] == [pos]:
            cells = [encode([rows[r][j] for r in combo], n) for j in range(width)]
            out.append((combo, cells))
    return out


ENUMERATOR_CASES = [(2, 3, 4, 3), (3, 2, 5, 2), (1, 1, 3, 2), (4, 1, 6, 1), (3, 4, 0, 2)]


@pytest.mark.parametrize("chunk", [None, 1, 5])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_combinations_match_product(dtype, chunk, monkeypatch):
    """Every frontier split (lo = 0 and an empty frontier included) at every
    position, in batches of the default size, of one cell and of five."""
    if chunk is not None:
        monkeypatch.setattr(kernels, "FIRST_CHUNK", chunk)
        monkeypatch.setattr(kernels, "CHUNK", chunk)
    cases = ENUMERATOR_CASES + ([(300, 2, 4, 2)] if dtype == np.int64 else [])
    rng = random.Random(5)
    for n, width, count, m in cases:
        listed = [[rng.randrange(n) for _ in range(width)] for _ in range(count)]
        rows = np.array(listed, dtype=dtype).reshape(count, width)
        for lo in range(count + 1):
            for pos in range(m):
                batches = list(kernels.combinations(rows, n, m, lo, pos))
                got = [(tuple(int(a[c]) for a in args), cells[c].tolist())
                       for args, cells in batches for c in range(len(cells))]
                assert got == product_reference(listed, n, m, lo, pos)
                if chunk is not None:
                    assert all(len(cells) == max(1, chunk // width) for _, cells in batches[:-1])


def test_row_keys_are_codes_when_they_fit_and_bytes_otherwise():
    rng = random.Random(2)
    rows = np.array([[rng.randrange(3) for _ in range(5)] for _ in range(40)], dtype=np.uint8)
    keys = kernels.row_keys(rows, 3)
    assert keys.dtype == np.int64 and keys.tolist() == [encode(r, 3) for r in rows.tolist()]
    assert kernels.tuple_rows(keys, 3, 5).tolist() == rows.tolist()
    wide = np.array([[rng.randrange(2) for _ in range(64)] for _ in range(40)], dtype=np.uint8)
    keys = kernels.row_keys(wide, 2)
    assert keys.dtype.kind == "V" and [k.tobytes() for k in keys] == [r.tobytes() for r in wide]


def _unique_inputs():
    rng = np.random.default_rng(3)
    return [
        np.zeros(0, dtype=np.int64),
        np.full(7, 4, dtype=np.int64),
        rng.integers(0, 5, 50),
        rng.integers(-10**12, 10**12, 3227),
        rng.integers(0, 3, 40).astype(np.uint8),
    ]


def test_unique_matches_numpy():
    for values in _unique_inputs():
        got = kernels.unique(values)
        assert got.dtype == values.dtype and got.tolist() == np.unique(values).tolist()


def _first_seen_reference(values):
    _, first = np.unique(values, return_index=True)
    first.sort()
    return values[first], first


@pytest.mark.parametrize("keys", ["int64", "void"])
def test_first_seen_matches_stable_unique(keys):
    rng = random.Random(6)
    cases = _unique_inputs()
    if keys == "void":
        # 70-entry rows over 256 values do not fit an int64 code
        cases = [kernels.row_keys(np.array([[rng.randrange(v) for _ in range(70)]
                                            for _ in range(count)],
                                           dtype=np.uint8).reshape(count, 70), 256)
                 for count, v in ((0, 2), (9, 1), (60, 2), (400, 256))]
        assert all(c.dtype.kind == "V" for c in cases)
    for values in cases:
        got, first = kernels._first_seen(values)
        expected, expected_first = _first_seen_reference(values)
        assert first.tolist() == expected_first.tolist()
        assert got.tobytes() == expected.tobytes() and got.dtype == values.dtype

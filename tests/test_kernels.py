"""Closure kernels against an independent python closure."""

import itertools
import math
import random
import tracemalloc

import numpy as np
import pytest

from finalg import core, kernels
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
    """Binary and ternary operations together, so terms mix arities."""
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


CHUNKS = [None, 1, 5]  # default batch sizes, one cell, five cells


def set_chunk(monkeypatch, chunk):
    """Batches of `chunk` cells (an int, or a (FIRST_CHUNK, CHUNK) pair);
    None keeps the default sizes."""
    if chunk is not None:
        first, most = chunk if isinstance(chunk, tuple) else (chunk, chunk)
        monkeypatch.setattr(kernels, "FIRST_CHUNK", first)
        monkeypatch.setattr(kernels, "CHUNK", most)


def term_closure_sequence(alg, k, seeds):
    rows = kernels.tuple_rows(seeds, alg.size, k)
    return [(tuple(row.tolist()), term) for row, term in core.term_closure(alg, rows)]


def check_term_closure(chunk, guard=None):
    """Every yielded term, evaluated on the seeds' columns, gives its row;
    the rows are the closure; the distinct seeds come first as the variables
    of their first positions, and every other term applies an operation to
    terms yielded before it; the sequence is the default batch sizes' on
    the mask path at every size, and on the set path (`guard` 0)."""
    cases = list(random_seed_cases(random.Random(11)))
    defaults = [term_closure_sequence(alg, k, seeds + seeds[:1]) for alg, k, seeds in cases]
    with pytest.MonkeyPatch.context() as mp:
        set_chunk(mp, chunk)
        if guard is not None:
            mp.setattr(core, "DEFAULT_TABLE_GUARD", guard)
        for (alg, k, seeds), default in zip(cases, defaults, strict=True):
            n = alg.size
            ops = [(op.arity, op.table) for op in alg.operations]
            seeds = seeds + seeds[:1]  # a repeated seed is dropped
            got = term_closure_sequence(alg, k, seeds)
            assert got == default
            rows = [row for row, _ in got]
            assert sorted(encode(row, n) for row in rows) == python_closure(ops, n, k, seeds)
            columns = list(zip(*(decode(s, n, k) for s in seeds)))
            for row, term in got:
                assert tuple(core.eval_term(alg, term, col) for col in columns) == row
            distinct = list(dict.fromkeys(seeds))
            assert [term for _, term in got[: len(distinct)]] == \
                [core.Var(seeds.index(s)) for s in distinct]
            earlier = {id(term) for _, term in got[: len(distinct)]}
            for _, term in got[len(distinct):]:
                assert isinstance(term, core.App)
                assert all(id(child) in earlier for child in term.children)
                earlier.add(id(term))


def check_constant_detection(chunk):
    """The constant-stopping closure of each single code of z3_affine at
    k = 3 hits a constant exactly when the full closure holds one, with the
    default batch sizes' verdicts at every size (the hit code and the
    partial mask may move with the batch boundaries)."""
    alg = z3_affine()
    flat, offsets, arities = pack(alg)
    n, k = alg.size, 3

    def verdicts():
        return [kernels.closure(flat, offsets, arities, n, k, [code], True)[1] == -1
                for code in range(n**k)]

    defaults = verdicts()
    with pytest.MonkeyPatch.context() as mp:
        set_chunk(mp, chunk)
        assert verdicts() == defaults
        for code in range(n**k):
            members = kernels.closure_members(flat, offsets, arities, n, k, [code])
            consts = [c for c in members
                      if len(set((int(c) // n**j) % n for j in range(k))) == 1]
            _, found = kernels.closure(flat, offsets, arities, n, k, [code],
                                       stop_at_constant=True)
            assert (found != -1) == bool(consts)
            if found != -1:
                assert found in members


def test_term_closure_terms_rebuild_every_row():
    check_term_closure(None)


def test_constant_detection_matches_full_closure():
    check_constant_detection(None)


@pytest.mark.parametrize("chunk", [1, 5])
def test_closures_do_not_depend_on_batch_boundaries(chunk):
    check_constant_detection(chunk)
    check_term_closure(chunk)


@pytest.mark.parametrize("chunk", CHUNKS)
def test_term_closure_set_path_matches_mask_path(chunk):
    check_term_closure(chunk, guard=0)


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


def check_batch_shapes(lengths, count, width, m, lo, pos):
    """Batch i holds at most max(1, chunk // width) combinations, with chunk
    FIRST_CHUNK * 2**i up to CHUNK, and is either whole rows of the last
    argument (whole leading settings) or a slice of the last argument under
    one leading setting."""
    sizes = (lo,) * pos + (count - lo,) + (count,) * (m - 1 - pos)
    span = sizes[-1]
    start, chunk = 0, kernels.FIRST_CHUNK
    for size in lengths:
        assert 0 < size <= max(1, chunk // width)
        whole_rows = start % span == 0 and size % span == 0
        assert whole_rows or start // span == (start + size - 1) // span
        start, chunk = start + size, min(2 * chunk, kernels.CHUNK)
    assert start == math.prod(sizes)


ENUMERATOR_CASES = [(2, 3, 4, 3), (3, 2, 5, 2), (1, 1, 3, 2), (4, 1, 6, 1), (3, 4, 0, 2)]


@pytest.mark.parametrize("chunk", CHUNKS + [pytest.param((2, 16), id="2-16")])
@pytest.mark.parametrize("dtype", [np.uint8, np.int64])
def test_combinations_match_product(dtype, chunk, monkeypatch):
    """Every frontier split (lo = 0 and an empty frontier included) at every
    position, in batches of the default size, of one cell, of five, and
    doubling from two cells to 16."""
    set_chunk(monkeypatch, chunk)
    cases = ENUMERATOR_CASES + ([(300, 2, 4, 2)] if dtype == np.int64 else [])
    rng = random.Random(5)
    for n, width, count, m in cases:
        listed = [[rng.randrange(n) for _ in range(width)] for _ in range(count)]
        rows = np.array(listed, dtype=dtype).reshape(count, width)
        for lo in range(count + 1):
            for pos in range(m):
                batches = list(kernels.combinations(rows, n, m, lo, pos))
                got = []
                for args, cells in batches:
                    decoded = args(np.arange(len(cells)))
                    assert len(decoded) == m
                    got += [(tuple(int(a[c]) for a in decoded), cells[c].tolist())
                            for c in range(len(cells))]
                assert got == product_reference(listed, n, m, lo, pos)
                check_batch_shapes([len(cells) for _, cells in batches],
                                   count, width, m, lo, pos)


@pytest.mark.parametrize("chunk, count, lo, pos, expected", [
    # a budget of 2 pairs of 2-entry rows slices a 4-row last argument in two
    (5, 4, 0, 0, [2] * 8),
    # a 5-row last argument in the fewest slices of at most 4 pairs, evened
    # out, so that no short remainder batch follows each full one
    (8, 5, 3, 0, [3, 2] * 2),
    # a 1-row last argument: 2 leading settings per batch
    (5, 4, 3, 1, [2, 1]),
    # budgets of 1, 2, 4, 8, 8 pairs: slices until a whole 4-row last
    # argument fits, then as many leading settings as fit
    ((2, 16), 4, 0, 0, [1, 2, 1, 8, 4]),
    # the default budgets of 512, 1,024 and 2,048 pairs over 2-entry rows
    (None, 48, 0, 0, [480, 1008, 816]),
])
def test_batch_schedules(chunk, count, lo, pos, expected, monkeypatch):
    """Exact batch sizes of pairs of 2-entry rows."""
    set_chunk(monkeypatch, chunk)
    rows = np.zeros((count, 2), dtype=np.uint8)
    assert [len(cells) for _, cells in kernels.combinations(rows, 2, 2, lo, pos)] == expected


@pytest.mark.parametrize("chunk", [1, 5])
def test_no_batch_exceeds_the_chunk(chunk, monkeypatch):
    """A last argument wider than a batch is sliced: no yielded array holds
    more than max(CHUNK, width) cells, and the kernel allocates nothing the
    size of an int64 copy of the 3,000-row matrix."""
    monkeypatch.setattr(kernels, "FIRST_CHUNK", chunk)
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    rng = np.random.default_rng(8)
    # one frontier row first (slices of the last argument), then last (whole
    # rows of it under many leading settings); for m = 1, slices of every row
    for width, m, lo, pos in [(1, 2, 2999, 0), (3, 2, 2999, 1), (2, 1, 0, 0)]:
        rows = rng.integers(0, 3, size=(3000, width), dtype=np.uint8)
        bound = max(kernels.CHUNK, width)
        tracemalloc.start()
        try:
            for args, cells in kernels.combinations(rows, 3, m, lo, pos):
                assert cells.size <= bound
                assert all(a.size <= bound for a in args(np.arange(len(cells))))
                del args, cells
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * rows.size


def test_args_decode_random_positions():
    rng = random.Random(9)
    for n, width, count, m in ENUMERATOR_CASES + [(3, 3, 7, 3)]:
        listed = [[rng.randrange(n) for _ in range(width)] for _ in range(count)]
        rows = np.array(listed, dtype=np.uint8).reshape(count, width)
        for lo in range(count + 1):
            for pos in range(m):
                expected = [combo for combo, _ in product_reference(listed, n, m, lo, pos)]
                start = 0
                for args, cells in kernels.combinations(rows, n, m, lo, pos):
                    at = np.array([rng.randrange(len(cells)) for _ in range(5)])
                    got = list(zip(*(a.tolist() for a in args(at))))
                    assert got == [expected[start + c] for c in at.tolist()]
                    one = int(at[0])  # one position, as `core.clone_iter` asks
                    assert tuple(int(a) for a in args(one)) == expected[start + one]
                    start += len(cells)
                assert start == len(expected)


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

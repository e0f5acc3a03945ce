"""`core.clone_iter` against a pure-Python copy of its one-combination-at-a-time loop."""

import itertools
import random

import pytest

from finalg import catalog, core, kernels
from finalg.core import DEFAULT_TABLE_GUARD, App, Var, algebra, clone_iter


def reference_clone_iter(alg, max_arity, max_tables):
    """The clone scan evaluated one argument combination at a time.

    Per arity: the projections, then rounds; a round applies each operation,
    at each position `pos`, to every combination whose first argument among
    the previous round's tables [lo, hi) sits at `pos`, in
    `itertools.product` order.  The first combination giving a new table
    supplies its witness term.
    """
    n = alg.size
    count = 0
    for m in range(1, max_arity + 1):
        N = n**m
        if N > DEFAULT_TABLE_GUARD:
            return
        seen = {}
        order = []
        for i in range(m):
            key = tuple((c // n ** (m - 1 - i)) % n for c in range(N))
            if key not in seen:
                seen[key] = Var(i)
                order.append(key)
                count += 1
                yield m, key, seen[key]
                if count >= max_tables:
                    return
        lo = 0
        while lo < len(order):
            hi = len(order)
            for op in alg.operations:
                q = op.arity
                for pos in range(q):
                    ranges = [
                        range(lo) if p < pos else range(lo, hi) if p == pos else range(hi)
                        for p in range(q)
                    ]
                    for combo in itertools.product(*ranges):
                        args = [order[ci] for ci in combo]
                        key = []
                        for cell in range(N):
                            idx = 0
                            for a in args:
                                idx = idx * n + a[cell]
                            key.append(op.table[idx])
                        key = tuple(key)
                        if key not in seen:
                            seen[key] = App(op.name, tuple(seen[order[ci]] for ci in combo))
                            order.append(key)
                            count += 1
                            yield m, key, seen[key]
                            if count >= max_tables:
                                return
            lo = hi
    yield 0, None, None


def sequence(gen):
    return [(m, None if key is None else tuple(key), repr(term)) for m, key, term in gen]


def random_algebra(rng, size, arities, idempotent=False):
    """Random operations of the given arities, with the diagonal pinned when
    `idempotent`."""
    ops = {}
    for i, arity in enumerate(arities):
        table = [rng.randrange(size) for _ in range(size**arity)]
        if idempotent:
            for a in range(size):
                table[core.encode_tuple((a,) * arity, size)] = a
        ops[f"f{i}"] = (arity, lambda *xs, t=table: t[core.encode_tuple(xs, size)])
    return algebra(size, ops)


def random_cases(seed, count):
    """(algebra, max_arity, max_tables) with 2 or 3 elements and mixed arities."""
    rng = random.Random(seed)
    for _ in range(count):
        size = rng.choice((2, 3))
        arities = [rng.randint(1, 3) for _ in range(rng.randint(1, 3))]
        alg = random_algebra(rng, size, arities, idempotent=rng.random() < 0.5)
        yield alg, (4 if size == 2 else 3), rng.randint(20, 120)


@pytest.mark.parametrize("name", sorted(catalog.NAMED))
def test_clone_iter_matches_reference_on_catalog(name):
    alg = catalog.NAMED[name]()
    max_arity = 4 if alg.size <= 2 else 3
    assert sequence(clone_iter(alg, max_arity, 150)) == \
        sequence(reference_clone_iter(alg, max_arity, 150))


def test_clone_iter_matches_reference_on_random_algebras():
    for alg, max_arity, max_tables in random_cases(7, 30):
        assert sequence(clone_iter(alg, max_arity, max_tables)) == \
            sequence(reference_clone_iter(alg, max_arity, max_tables))


@pytest.mark.parametrize("chunk", [1, 7, 40])
def test_clone_iter_chunk_edges(chunk, monkeypatch):
    """Batches of one, a few and tens of cells split every block."""
    monkeypatch.setattr(kernels, "FIRST_CHUNK", chunk)
    monkeypatch.setattr(kernels, "CHUNK", chunk)
    algs = [(catalog.rock_paper_scissors(), 3, 60), (catalog.boolean_majority(), 3, 100)]
    algs += list(random_cases(11, 6))
    for alg, max_arity, max_tables in algs:
        assert sequence(clone_iter(alg, max_arity, max_tables)) == \
            sequence(reference_clone_iter(alg, max_arity, max_tables))


def test_clone_iter_every_cut_off():
    """max_tables = t yields the first t tables (at least one), then stops
    without the sentinel unless the fixpoint came within the budget."""
    rng = random.Random(3)
    cases = [(catalog.boolean_majority(), 3), (catalog.three_chain_meet(), 3),
             (catalog.rock_paper_scissors(), 3), (random_algebra(rng, 2, [2, 1]), 2),
             (random_algebra(rng, 3, [2]), 2)]
    for alg, max_arity in cases:
        full = sequence(reference_clone_iter(alg, max_arity, 10**6))
        assert full[-1] == (0, None, "None")
        tables = full[:-1]
        for t in range(len(tables) + 2):
            expected = tables[:max(t, 1)] + (full[-1:] if t > len(tables) else [])
            assert sequence(clone_iter(alg, max_arity, t)) == expected


def test_clone_iter_wide_universe():
    """Above 256 elements the table matrix holds int64 rows."""
    n = 257
    alg = algebra(n, {"s": (1, lambda x: (x + 1) % n), "p": (2, lambda x, y: y)})
    got = sequence(clone_iter(alg, 2, 100))
    assert len(got) == 100
    assert got == sequence(reference_clone_iter(alg, 2, 100))

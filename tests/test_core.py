"""Algebras, terms, clones, congruences, and the universal generator term."""

import itertools
import random
import tracemalloc

import pytest

from finalg import core
from finalg.catalog import (
    boolean_affine,
    boolean_majority,
    boolean_meet,
    one_element,
    projections_only,
    rock_paper_scissors,
    three_chain_meet,
    z3_affine,
)
from finalg.core import (
    App,
    Congruence,
    Var,
    algebra,
    clone_iter,
    congruences,
    construct_universal_generator_term,
    decode_tuple,
    encode_tuple,
    eval_term,
    eval_term_grid,
    generate_subuniverse,
    is_cyclic_table,
    is_simple,
    is_taylor_term,
    is_wnu_op,
    power,
    product,
    quotient,
    quotient_map_is_homomorphism,
    star_compose,
    term_arity,
    term_size,
    term_table,
    term_vars,
)
from finalg.errors import InvalidInput

MEET = App("meet", (Var(0), Var(1)))
AFF = App("aff", (Var(0), Var(1), Var(2)))
MAJ = App("maj", (Var(0), Var(1), Var(2)))


def random_algebra(rng, size, ops):
    """Random idempotent algebra: diagonal entries pinned, rest arbitrary."""
    built = {}
    for i, arity in enumerate(ops):
        table = [rng.randrange(size) for _ in range(size**arity)]
        step = (size**arity - 1) // (size - 1) if size > 1 else 1
        for a in range(size):
            table[a * step] = a
        built[f"f{i}"] = (arity, table)
    return algebra(size, built)


# ---------------------------------------------------------------------------
# evaluation and star composition


def test_eval_projection():
    alg = boolean_meet()
    for args in itertools.product(range(2), repeat=3):
        assert eval_term(alg, Var(0), args) == args[0]


def test_eval_meet_against_table_lookup():
    alg = boolean_meet()
    table = alg.op("meet").table
    for x, y in itertools.product(range(2), repeat=2):
        assert eval_term(alg, MEET, (x, y)) == table[x * 2 + y]
    assert eval_term(alg, MEET, (1, 0)) == 0


def test_eval_affine_against_mod2():
    alg = boolean_affine()
    for args in itertools.product(range(2), repeat=3):
        assert eval_term(alg, AFF, args) == sum(args) % 2
    assert eval_term(alg, AFF, (1, 1, 0)) == 0


def test_eval_term_grid_matches_eval_term_on_shared_dags():
    """Repeated children, subterms shared at several depths, and star
    compositions: grids dropped after their last parent stay correct."""
    rng = random.Random(17)
    x, y, z = Var(0), Var(1), Var(2)
    for _ in range(12):
        size = rng.randint(2, 3)
        alg = random_algebra(rng, size, [2, 3])
        f = App("f0", (x, x))
        g = App("f1", (f, f, y))
        h = App("f0", (g, App("f1", (z, g, f))))
        for t in (f, g, h, star_compose(h, g), star_compose(star_compose(f, g), h)):
            domains = [rng.sample(range(size), rng.randint(1, size))
                       for _ in range(term_arity(t))]
            expected = [eval_term(alg, t, args) for args in itertools.product(*domains)]
            assert eval_term_grid(alg, t, domains).tolist() == expected


def test_eval_term_grid_drops_grids_after_their_last_use():
    """A 40-deep chain keeps a handful of grids alive, not one per node."""
    alg = boolean_majority()
    k = 15
    t = Var(0)
    for i in range(40):
        t = App("maj", (t, Var(i % k), Var((i + 7) % k)))
    tracemalloc.start()
    try:
        grid = eval_term_grid(alg, t, [range(2)] * k)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * grid.nbytes  # 121 grids without the release
    rng = random.Random(5)
    for code in rng.sample(range(2**k), 50):
        assert grid[code] == eval_term(alg, t, decode_tuple(code, 2, k))


def test_eval_term_grid_builds_one_grid_per_variable(monkeypatch):
    """Equal variables built separately share one memoised grid."""
    alg = boolean_majority()
    k = 15
    t = Var(0)
    for i in range(40):
        t = App("maj", (t, Var(i % k), Var((i + 7) % k)))
    built = []
    var_grid = core._var_grid

    def counted(*args):
        built.append(args[1])
        return var_grid(*args)

    monkeypatch.setattr(core, "_var_grid", counted)
    eval_term_grid(alg, t, [range(2)] * k)
    assert sorted(built) == list(range(k))  # 81 grids when keyed by node identity
    # a bare variable still comes back as a full, writable grid
    grid = eval_term_grid(alg, Var(3), [range(2), range(3), range(2), range(3)])
    assert grid.tolist() == [c % 3 for c in range(36)]
    assert grid.flags.writeable


def test_eval_errors():
    alg = boolean_meet()
    with pytest.raises(InvalidInput):
        eval_term(alg, App("nope", (Var(0), Var(1))), (0, 0))
    with pytest.raises(InvalidInput):
        eval_term(alg, Var(2), (0, 0))


def test_star_arity_law():
    rng = random.Random(3)
    alg = boolean_meet()
    pool = [Var(0), MEET, App("meet", (MEET, Var(2))), App("meet", (Var(1), Var(0)))]
    for _ in range(30):
        t1, t2 = rng.choice(pool), rng.choice(pool)
        assert term_arity(star_compose(t1, t2)) == term_arity(t1) * term_arity(t2)


def test_star_with_projection_is_identity():
    t = App("meet", (Var(0), Var(1)))
    assert star_compose(Var(0), t) == t
    assert star_compose(t, Var(0)) == t


def test_star_meet_meet_is_four_way_meet():
    alg = boolean_meet()
    st = star_compose(MEET, MEET)
    assert term_arity(st) == 4
    for args in itertools.product(range(2), repeat=4):
        assert eval_term(alg, st, args) == min(args)


def test_star_diagonal_laws():
    # blockwise-constant arguments return the outer value, repeated blocks
    # the inner value, for idempotent terms
    for alg, t1, t2 in (
        (boolean_meet(), MEET, MEET),
        (boolean_affine(), AFF, AFF),
        (z3_affine(), App("mal", (Var(0), Var(1), Var(2))), App("mal", (Var(1), Var(0), Var(2)))),
    ):
        k = term_arity(t1)
        l = term_arity(t2)
        st = star_compose(t1, t2)
        for args in itertools.product(range(alg.size), repeat=k):
            blockwise = tuple(a for a in args for _ in range(l))
            assert eval_term(alg, st, blockwise) == eval_term(alg, t1, args)
        for args in itertools.product(range(alg.size), repeat=l):
            repeated = args * k
            assert eval_term(alg, st, repeated) == eval_term(alg, t2, args)


# ---------------------------------------------------------------------------
# generation


def test_generate_subuniverse_examples():
    assert generate_subuniverse(boolean_meet(), [1]) == {1}
    assert generate_subuniverse(boolean_meet(), [0, 1]) == {0, 1}
    assert generate_subuniverse(three_chain_meet(), [1, 2]) == {1, 2}
    assert generate_subuniverse(boolean_meet(), []) == frozenset()


def test_generate_subuniverse_properties():
    rng = random.Random(11)
    for _ in range(25):
        alg = random_algebra(rng, rng.randint(2, 4), [rng.randint(1, 3)])
        seed = set(rng.sample(range(alg.size), rng.randint(1, alg.size)))
        closed = generate_subuniverse(alg, seed)
        assert seed <= closed
        assert generate_subuniverse(alg, closed) == closed
        bigger = seed | {rng.randrange(alg.size)}
        assert closed <= generate_subuniverse(alg, bigger)


def test_term_closure_terms_reproduce_elements():
    alg = z3_affine()
    members = list(core.term_closure(alg, [[0], [1]]))
    assert [int(row[0]) for row, _ in members] == [0, 1, 2]
    t = members[2][1]
    assert set(term_vars(t)) <= {0, 1}
    assert eval_term(alg, t, (0, 1)) == 2
    # one DAG node per row used
    assert term_size(t) <= len(members)


def test_product_and_power():
    alg = boolean_meet()
    p3 = power(alg, 3)
    assert p3.size == 8
    single = product([alg])
    assert single.size == alg.size
    assert single.operations[0].table == alg.operations[0].table
    p2 = power(alg, 2)
    # coordinatewise oracle: meet((0,1),(1,1)) == (0,1)
    a = encode_tuple((0, 1), 2)
    b = encode_tuple((1, 1), 2)
    out = p2.op("meet").table[a * 4 + b]
    assert decode_tuple(out, 2, 2) == (0, 1)
    for x, y in itertools.product(range(4), repeat=2):
        xt, yt = decode_tuple(x, 2, 2), decode_tuple(y, 2, 2)
        expected = tuple(min(a, b) for a, b in zip(xt, yt))
        assert decode_tuple(p2.op("meet").table[x * 4 + y], 2, 2) == expected


def test_product_signature_mismatch():
    with pytest.raises(InvalidInput):
        product([boolean_meet(), boolean_majority()])


# ---------------------------------------------------------------------------
# clone generation


def brute_binary_clone(alg):
    """Independent fixpoint over arity-2 tables, no budgets or ordering."""
    n = alg.size
    tables = {tuple((i // n) % n for i in range(n * n)),
              tuple(i % n for i in range(n * n))}
    changed = True
    while changed:
        changed = False
        for op in alg.operations:
            for combo in itertools.product(sorted(tables), repeat=op.arity):
                new = []
                for i in range(n * n):
                    idx = 0
                    for g in combo:
                        idx = idx * n + g[i]
                    new.append(op.table[idx])
                new = tuple(new)
                if new not in tables:
                    tables.add(new)
                    changed = True
    return tables


def clone_tables(alg, max_arity, max_tables):
    """({arity: {table as a tuple: witness term}}, complete) from `clone_iter`."""
    by_arity, complete = {}, False
    for m, table, term in clone_iter(alg, max_arity, max_tables):
        if m == 0:
            complete = True
        else:
            by_arity.setdefault(m, {})[tuple(table.tolist())] = term
    return by_arity, complete


def test_clone_projections_only():
    tables, complete = clone_tables(projections_only(), 2, 1000)
    assert complete
    assert set(tables[2]) == {(0, 0, 1, 1), (0, 1, 0, 1)}


def test_clone_boolean_meet_binary():
    tables, complete = clone_tables(boolean_meet(), 2, 1000)
    assert complete
    assert set(tables[2]) == brute_binary_clone(boolean_meet())
    assert (0, 0, 0, 1) in tables[2]  # the meet itself
    assert set(tables[1]) == {(0, 1)}


def test_clone_arity_one_idempotent_is_identity():
    for alg in (boolean_meet(), boolean_majority(), z3_affine()):
        tables, _ = clone_tables(alg, 1, 1000)
        assert set(tables[1]) == {tuple(range(alg.size))}


def test_clone_witness_terms_reproduce_tables():
    for alg in (boolean_meet(), boolean_majority(), rock_paper_scissors()):
        tables, _ = clone_tables(alg, 3, 500)
        for m, layer in tables.items():
            for table, term in layer.items():
                assert tuple(int(v) for v in term_table(alg, term, m)) == table


def test_clone_budget_truncation_flagged():
    tables, complete = clone_tables(boolean_majority(), 3, 3)
    assert not complete
    assert sum(map(len, tables.values())) == 3


# ---------------------------------------------------------------------------
# congruences and quotients


def brute_partitions(n):
    """All set partitions of range(n), independently of the RGS enumerator."""
    if n == 0:
        yield []
        return
    for rest in brute_partitions(n - 1):
        elem = n - 1
        for i in range(len(rest)):
            yield rest[:i] + [rest[i] + [elem]] + rest[i + 1:]
        yield rest + [[elem]]


def is_congruence_oracle(alg, classes):
    ids = {}
    for i, cls in enumerate(classes):
        for a in cls:
            ids[a] = i
    for op in alg.operations:
        for xs in itertools.product(range(alg.size), repeat=op.arity):
            for ys in itertools.product(range(alg.size), repeat=op.arity):
                if all(ids[x] == ids[y] for x, y in zip(xs, ys)):
                    vx = op.apply(alg.size, xs)
                    vy = op.apply(alg.size, ys)
                    if ids[vx] != ids[vy]:
                        return False
    return True


def test_two_element_algebras_are_simple():
    assert is_simple(boolean_meet())
    assert is_simple(boolean_majority())
    assert is_simple(boolean_affine())


def test_three_chain_congruence():
    found = {tuple(sorted(tuple(sorted(c)) for c in cg.classes()))
             for cg in congruences(three_chain_meet())}
    assert ((0, 1), (2,)) in found


def test_congruences_match_brute_force_scan():
    rng = random.Random(5)
    algs = [three_chain_meet(), z3_affine(), boolean_majority()]
    algs += [random_algebra(rng, rng.randint(2, 4), [2]) for _ in range(5)]
    for alg in algs:
        mine = {tuple(sorted(tuple(sorted(c)) for c in cg.classes()))
                for cg in congruences(alg)}
        brute = {
            tuple(sorted(tuple(sorted(c)) for c in classes))
            for classes in brute_partitions(alg.size)
            if is_congruence_oracle(alg, classes)
        }
        assert mine == brute


def test_quotient_examples():
    chain = three_chain_meet()
    same = quotient(chain, Congruence.diagonal(3))
    assert same.size == 3 and same.operations[0].table == chain.operations[0].table
    collapsed = quotient(chain, Congruence.full(3))
    assert collapsed.size == 1
    half = quotient(chain, Congruence.from_classes(3, [[0, 1], [2]]))
    assert half.size == 2
    # blocks 0={0,1}, 1={2}: meet acts as the two-element semilattice
    assert half.operations[0].table == (0, 0, 0, 1)
    assert quotient_map_is_homomorphism(chain, Congruence.from_classes(3, [[0, 1], [2]]))


def test_quotient_rejects_non_congruence():
    with pytest.raises(InvalidInput):
        quotient(three_chain_meet(), Congruence.from_classes(3, [[0, 2], [1]]))


# ---------------------------------------------------------------------------
# identities and special operations


def test_majority_is_cyclic_op():
    op = boolean_majority().op("maj")
    # oracle: full symmetry check over all 8 inputs
    for args in itertools.product(range(2), repeat=3):
        shifted = (args[1], args[2], args[0])
        assert op.apply(2, args) == op.apply(2, shifted)
    assert is_cyclic_table(op.array, op.arity, 2)
    assert not is_cyclic_table(projections_only().op("p0").array, 2, 2)


def test_wnu():
    assert is_wnu_op(boolean_majority().op("maj"), 2)
    assert is_wnu_op(boolean_affine().op("aff"), 2)
    assert not is_wnu_op(projections_only().op("p0"), 2)


def test_affine_taylor_witnesses():
    alg = boolean_affine()
    witnesses = is_taylor_term(alg, AFF)
    assert witnesses is not None and len(witnesses) == 3
    for j, (left, right) in enumerate(witnesses):
        assert left[j] == 0 and right[j] == 1
        # each witness is a genuine two-variable identity
        for x, y in itertools.product(range(2), repeat=2):
            largs = tuple(y if p else x for p in left)
            rargs = tuple(y if p else x for p in right)
            assert eval_term(alg, AFF, largs) == eval_term(alg, AFF, rargs)


def test_projection_is_not_taylor():
    alg = projections_only()
    t = App("p0", (Var(0), Var(1)))
    assert is_taylor_term(alg, t) is None


# ---------------------------------------------------------------------------
# universal generator term


def test_universal_generator_one_element():
    gen = construct_universal_generator_term(one_element())
    assert gen.arity == 1


def test_universal_generator_boolean_meet():
    alg = boolean_meet()
    gen = construct_universal_generator_term(alg)
    B = frozenset({0, 1})
    attained = {eval_term(alg, gen.term, gen.assignments[(B, b)]) for b in (0, 1)}
    assert attained == {0, 1}


def test_universal_generator_covers_all_pairs():
    for alg in (three_chain_meet(), z3_affine(), rock_paper_scissors()):
        gen = construct_universal_generator_term(alg)
        for mask in range(1, 2**alg.size):
            B = frozenset(a for a in range(alg.size) if mask >> a & 1)
            for b in generate_subuniverse(alg, B):
                args = gen.assignments[(B, b)]
                assert set(args) <= B
                assert eval_term(alg, gen.term, args) == b

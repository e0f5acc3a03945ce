"""Absorption witnesses, reports, the spreading construction, and the
Absorption Theorem with its corollaries."""

import itertools
import random

import numpy as np
import pytest

from finalg import absorption, catalog
from finalg.absorption import (
    CELLS_CACHE_SIZE,
    REPORT_CACHE_SIZE,
    SearchBudget,
    absorption_report,
    absorption_theorem_check,
    check_absorption,
    check_absorption_table,
    construct_spreading_term,
    find_absorption_witness,
    find_first_proper_absorbing,
    enumerate_subuniverses,
    is_invariant_pair_relation,
    pinned_value_set,
    transitivity_compose,
    AbsorptionWitness,
)
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
    ARITY_CAP,
    App,
    Var,
    algebra,
    clone_iter,
    encode_tuple,
    eval_term,
    generate_subuniverse,
    product,
    star_compose,
    term_arity,
)
from finalg.cyclic import block_algebra
from finalg.errors import BudgetExceeded, InvalidInput, TheoremViolation
from finalg.relations import (
    Relation,
    is_linked,
    is_subdirect,
    plus_neighborhood,
)

MEET = App("meet", (Var(0), Var(1)))
MAJ = App("maj", (Var(0), Var(1), Var(2)))
AFF = App("aff", (Var(0), Var(1), Var(2)))


def test_check_absorption_examples():
    meet = boolean_meet()
    assert check_absorption(meet, {0, 1}, MEET)  # B = A always absorbs
    assert check_absorption(meet, {0}, MEET)
    assert not check_absorption(meet, {1}, MEET)  # meet(0,1) = 0 escapes
    with pytest.raises(InvalidInput):
        # 1 - 0 + 1 = 2, so {0,1} is not a subuniverse of the affine algebra
        check_absorption(z3_affine(), {0, 1}, Var(0))


def absorbs_by_coordinates(table, arity, B, size):
    """For every coordinate j: argument j anywhere, the others in B, value in B."""
    for j in range(arity):
        domains = [sorted(B)] * arity
        domains[j] = range(size)
        for args in itertools.product(*domains):
            if table[encode_tuple(args, size)] not in B:
                return False
    return True


def test_check_absorption_table_matches_per_coordinate_definition():
    rng = random.Random(13)
    verdicts = []
    for _ in range(400):
        size = rng.randint(1, 4)
        arity = rng.randint(1, 4)
        B = frozenset(a for a in range(size) if rng.random() < 0.6)
        # entries mostly in B, so that both verdicts occur
        table = np.array([
            rng.choice(sorted(B)) if B and rng.random() < 0.95 else rng.randrange(size)
            for _ in range(size**arity)
        ])
        got = check_absorption_table(table, arity, B, size)
        assert got == absorbs_by_coordinates(table, arity, B, size)
        verdicts.append(got)
    assert 50 < sum(verdicts) < 350


def _hit(cached, *args) -> bool:
    """Call a cached function: was the call a cache hit?"""
    hits = cached.cache_info().hits
    cached(*args)
    return cached.cache_info().hits == hits + 1


def test_report_caches_are_bounded_lru():
    caches = (absorption._report, absorption._first_proper)
    for cache in caches:
        cache.cache_clear()
    maj = boolean_majority()
    budgets = [SearchBudget(max_tables=100 + i) for i in range(REPORT_CACHE_SIZE + 3)]
    for b in budgets:
        assert absorption_report(maj, b) is absorption_report(maj, b)
        assert find_first_proper_absorbing(maj, b) is find_first_proper_absorbing(maj, b)
    for cache in caches:
        assert cache.cache_info().currsize == REPORT_CACHE_SIZE
        # hits in insertion order keep budgets[3] the least recent
        assert all(_hit(cache, maj, b) for b in budgets[3:])
    # a hit makes an entry the most recent, so the next one out goes first
    absorption_report(maj, budgets[3])
    absorption_report(maj, SearchBudget(max_tables=1))
    assert _hit(absorption._report, maj, budgets[3])
    assert not _hit(absorption._report, maj, budgets[4])
    # evicted entries are rebuilt: each of these calls misses
    for cache in caches:
        assert not any(_hit(cache, maj, b) for b in budgets[:3])
        assert cache.cache_info().currsize == REPORT_CACHE_SIZE


def test_cell_cache_is_bounded_lru():
    cells = absorption._absorption_cells
    cells.cache_clear()
    size = 8
    keys = [(arity, frozenset(a for a in range(size) if mask >> a & 1), size)
            for arity in (1, 2) for mask in range(1, 2**size)]
    assert len(keys) > CELLS_CACHE_SIZE
    table = np.zeros(size**2, dtype=np.int64)
    for arity, B, _ in keys:
        expected = absorbs_by_coordinates(table, arity, B, size)
        assert check_absorption_table(table, arity, B, size) == expected
    # every key was built once, and only the most recent ones are kept
    info = cells.cache_info()
    assert (info.hits, info.misses, info.currsize) == (0, len(keys), CELLS_CACHE_SIZE)
    assert all(_hit(cells, *k) for k in keys[-CELLS_CACHE_SIZE:])
    # an evicted key is rebuilt with the same verdict
    arity, B, _ = keys[0]
    assert check_absorption_table(table, arity, B, size) == \
        absorbs_by_coordinates(table, arity, B, size)
    assert cells.cache_info().misses == len(keys) + 1
    assert _hit(cells, *keys[0]) and not _hit(cells, *keys[-CELLS_CACHE_SIZE])


def test_find_witness_examples():
    maj = boolean_majority()
    w = find_absorption_witness(maj, {0, 1})
    assert w is not None and w.subuniverse == {0, 1}
    w = find_absorption_witness(maj, {0})
    assert w is not None
    assert eval_term(maj, w.term, (0, 0, 1)) == 0
    aff = boolean_affine()
    assert find_absorption_witness(aff, {0}) is None  # x+0+0 = x escapes


def test_absorption_report_examples():
    aff = boolean_affine()
    rep = absorption_report(aff)
    assert rep.proper_absorbing == []
    assert rep.minimal_absorbing == [frozenset({0, 1})]
    assert rep.complete

    meet = boolean_meet()
    rep = absorption_report(meet)
    assert [sorted(w.subuniverse) for w in rep.proper_absorbing] == [[0]]
    assert rep.minimal_absorbing == [frozenset({0})]

    rep = absorption_report(one_element())
    assert rep.proper_absorbing == []
    assert rep.minimal_absorbing == [frozenset({0})]


def test_report_witnesses_reverify():
    for alg in (boolean_meet(), boolean_majority(), three_majority(), three_chain_meet()):
        rep = absorption_report(alg)
        for w in rep.proper_absorbing:
            assert check_absorption(alg, w.subuniverse, w.term)
        for m in rep.minimal_absorbing:
            smaller = [w.subuniverse for w in rep.proper_absorbing
                       if w.subuniverse < m]
            assert not smaller


def test_transitivity_compose_chain():
    chain = three_chain_meet()
    # {0} absorbs the subalgebra {0,1} and {0,1} absorbs the chain, both via meet
    w_cb = AbsorptionWitness(frozenset({0}), MEET, 2)
    w_ba = AbsorptionWitness(frozenset({0, 1}), MEET, 2)
    assert check_absorption(chain, {0, 1}, MEET)
    composed = transitivity_compose(chain, w_cb, w_ba)
    assert composed.subuniverse == {0}
    assert term_arity(composed.term) == 4
    assert check_absorption(chain, {0}, composed.term)


def test_transitivity_trivial_case():
    meet = boolean_meet()
    w = AbsorptionWitness(frozenset({0, 1}), MEET, 2)
    composed = transitivity_compose(meet, w, w)
    assert composed.subuniverse == {0, 1}


def test_intersection_of_absorbing_is_absorbing():
    # dual discriminator: {0,1} and {1,2} absorb; their intersection {1} must too
    alg = three_majority()
    rep = absorption_report(alg)
    w01 = rep.witness_for({0, 1})
    w12 = rep.witness_for({1, 2})
    assert w01 is not None and w12 is not None
    w = find_absorption_witness(alg, {1})
    assert w is not None
    assert check_absorption(alg, {1}, w.term)


def test_lemma_neighborhood_transfer():
    # closed + subdirect r moves subuniverses and absorbing sets across sides
    rng = random.Random(6)
    for alg in (boolean_meet(), boolean_majority()):
        n = alg.size
        pairs = list(itertools.product(range(n), repeat=2))
        for _ in range(40):
            chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
            r = Relation.binary(n, n, chosen)
            if not is_invariant_pair_relation(alg, alg, r):
                continue
            for sub in enumerate_subuniverses(alg):
                plus = plus_neighborhood(r, sub)
                if plus:
                    assert generate_subuniverse(alg, plus) == plus
            if not is_subdirect(r):
                continue
            rep = absorption_report(alg)
            for w in rep.proper_absorbing:
                plus = plus_neighborhood(r, w.subuniverse)
                assert check_absorption(alg, plus, w.term)


def test_spreading_term_one_element():
    s = construct_spreading_term(one_element(), Var(0))
    assert s.arity == 1


def test_spreading_term_affine_immediate():
    aff = boolean_affine()
    s = construct_spreading_term(aff, AFF)
    assert s.stages == 0
    for b in range(2):
        for i in range(s.arity):
            assert pinned_value_set(aff, s.term, b, i) == {0, 1}


def test_spreading_term_rps_iterates():
    rps = rock_paper_scissors()
    t = App("rps", (Var(0), Var(1)))
    budget = SearchBudget(max_arity=3, max_tables=400)
    s = construct_spreading_term(rps, t, budget)
    assert s.stages >= 1
    full = frozenset(range(3))
    for b in range(3):
        for i in range(s.arity):
            assert pinned_value_set(rps, s.term, b, i) == full


def test_spreading_term_majority_precondition():
    with pytest.raises(InvalidInput):
        construct_spreading_term(boolean_majority(), MAJ)


def all_invariant_binary(alg):
    n = alg.size
    pairs = list(itertools.product(range(n), repeat=2))
    out = []
    for mask in range(1, 2 ** len(pairs)):
        chosen = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
        r = Relation.binary(n, n, chosen)
        if is_invariant_pair_relation(alg, alg, r):
            out.append(r)
    return out


def test_affine_has_no_proper_linked_subdirect_invariant_relation():
    # hence the Absorption Theorem forces every such relation to be full
    aff = boolean_affine()
    for r in all_invariant_binary(aff):
        if len(r.tuples) == 4:
            continue
        assert not (is_subdirect(r) and is_linked(r))


def test_absorption_theorem_examples():
    meet = boolean_meet()
    r = Relation.binary(2, 2, [(0, 0), (0, 1), (1, 1)])
    verdict = absorption_theorem_check(meet, meet, r)
    assert verdict.kind in ("absorption_in_a", "absorption_in_b")
    assert verdict.witness.subuniverse == {0}
    assert check_absorption(meet, {0}, verdict.witness.term)

    verdict = absorption_theorem_check(meet, meet, Relation.full((2, 2)))
    assert verdict.kind == "full"


def test_absorption_theorem_precondition_errors():
    meet = boolean_meet()
    with pytest.raises(InvalidInput):
        absorption_theorem_check(meet, meet, Relation.binary(2, 2, [(0, 0), (1, 1)]))
    with pytest.raises(InvalidInput):
        absorption_theorem_check(meet, meet, Relation.binary(2, 2, [(0, 0), (0, 1)]))
    with pytest.raises(InvalidInput):
        # meet(1,x) = x keeps {(0,1),(1,0)} out of the invariant relations
        absorption_theorem_check(meet, meet, Relation.binary(2, 2, [(0, 1), (1, 0)]))


def test_absorbing_subuniverse_of_linked_relation_is_linked():
    # absorbing subuniverses of a linked relation stay linked
    for alg in (boolean_meet(), boolean_majority()):
        for r in all_invariant_binary(alg):
            if not (is_subdirect(r) and is_linked(r)):
                continue
            # r as a subalgebra of the square, its elements the sorted pairs
            pairs = sorted(r.tuples)
            ralg = block_algebra(product([alg, alg]), [a * alg.size + b for a, b in pairs])
            rep = absorption_report(ralg, SearchBudget(max_arity=3, max_tables=200))
            for w in rep.proper_absorbing:
                sub = Relation.binary(alg.size, alg.size,
                                      [pairs[i] for i in sorted(w.subuniverse)])
                assert is_linked(sub)


def test_minimal_product_properties():
    # minimal absorbing sets meet linked relations in full blocks
    for alg in (boolean_meet(), boolean_majority(), three_majority()):
        rep = absorption_report(alg)
        minimal = rep.minimal_absorbing
        for r in all_invariant_binary(alg):
            if not (is_subdirect(r) and is_linked(r)):
                continue
            for C in minimal:
                for D in minimal:
                    inter = {(a, b) for a, b in r.tuples if a in C and b in D}
                    if not inter:
                        continue
                    sub = Relation.binary(alg.size, alg.size, inter)
                    # (ii) subdirect in C x D
                    assert {a for a, _ in inter} == set(C)
                    assert {b for _, b in inter} == set(D)
                    # (iii) full product on C x D when linked
                    assert inter == set(itertools.product(sorted(C), sorted(D)))
            for C in minimal:
                # (iv) some minimal D with C x D inside r
                hit = False
                for D in minimal:
                    if set(itertools.product(sorted(C), sorted(D))) <= r.tuples:
                        hit = True
                        break
                assert hit


def test_chains_reroute_through_minimal_sets():
    # linking chains reroute through minimal absorbing elements: restricted
    # to the union of the minimal absorbing sets, r is still linked, and
    # every element of that union keeps a pair on the left
    for alg in (boolean_meet(), boolean_majority(), three_majority()):
        inside = set().union(*absorption_report(alg).minimal_absorbing)
        for r in all_invariant_binary(alg):
            if not (is_subdirect(r) and is_linked(r)):
                continue
            restricted = Relation.binary(
                alg.size, alg.size,
                [(a, b) for a, b in r.tuples if a in inside and b in inside])
            assert is_linked(restricted)
            assert {a for a, _ in restricted.tuples} == inside


def test_first_witness_is_deterministic_and_sound():
    for alg in (boolean_meet(), boolean_majority(), three_majority()):
        w1, complete1 = find_first_proper_absorbing(alg)
        w2, _ = find_first_proper_absorbing(alg)
        assert w1 == w2
        if w1 is not None:
            assert check_absorption(alg, w1.subuniverse, w1.term)
    w, complete = find_first_proper_absorbing(z3_affine())
    assert w is None and complete


# ---------------------------------------------------------------------------
# the merged candidate search against the three loops it replaced


def _reference_find_absorption_witness(alg, B, budget):
    B = frozenset(B)
    if B == frozenset(range(alg.size)):
        t = (
            App(alg.operations[0].name,
                tuple(Var(i) for i in range(alg.operations[0].arity)))
            if alg.operations
            else Var(0)
        )
        return AbsorptionWitness(B, t, term_arity(t))
    for op in alg.operations:
        if check_absorption_table(op.array, op.arity, B, alg.size):
            t = App(op.name, tuple(Var(i) for i in range(op.arity)))
            return AbsorptionWitness(B, t, op.arity)
    for m, key, witness in clone_iter(alg, budget.max_arity, budget.max_tables):
        if m == 0:
            break
        if check_absorption_table(np.array(key, dtype=np.int64), m, B, alg.size):
            return AbsorptionWitness(B, witness, m)
    return None


def _reference_absorption_report(alg, budget):
    """(proper_absorbing, minimal_absorbing, complete), with one star round."""
    subs = enumerate_subuniverses(alg)
    full = frozenset(range(alg.size))
    proper = [B for B in subs if B != full]
    witnesses = {}

    for op in alg.operations:
        for B in proper:
            if B in witnesses:
                continue
            if check_absorption_table(op.array, op.arity, B, alg.size):
                t = App(op.name, tuple(Var(i) for i in range(op.arity)))
                witnesses[B] = AbsorptionWitness(B, t, op.arity)

    clone_complete = False
    if len(witnesses) < len(proper):
        for m, key, witness in clone_iter(alg, budget.max_arity, budget.max_tables):
            if m == 0:
                clone_complete = True
                break
            if len(witnesses) == len(proper):
                break
            arr = np.array(key, dtype=np.int64)
            for B in proper:
                if B in witnesses:
                    continue
                if check_absorption_table(arr, m, B, alg.size):
                    witnesses[B] = AbsorptionWitness(B, witness, m)
    if len(witnesses) == len(proper):
        clone_complete = True

    for _ in range(1):
        if len(witnesses) == len(proper):
            break
        terms = [w.term for _, w in sorted(witnesses.items(), key=lambda kv: (len(kv[0]), sorted(kv[0])))]
        for B in proper:
            if B in witnesses:
                continue
            for t1, t2 in itertools.product(terms, repeat=2):
                cand = star_compose(t1, t2)
                if term_arity(cand) > ARITY_CAP:
                    continue
                try:
                    if check_absorption(alg, B, cand):
                        witnesses[B] = AbsorptionWitness(B, cand, term_arity(cand))
                        break
                except BudgetExceeded:
                    continue

    found = [witnesses[B] for B in proper if B in witnesses]
    absorbing_sets = [w.subuniverse for w in found] + [full]
    minimal = [
        S for S in absorbing_sets
        if not any(T < S for T in absorbing_sets)
    ]
    minimal.sort(key=lambda s: (len(s), sorted(s)))
    return found, minimal, clone_complete


def _reference_find_first_proper_absorbing(alg, budget):
    subs = enumerate_subuniverses(alg)
    full = frozenset(range(alg.size))
    proper = [B for B in subs if B != full]
    result = None
    for op in alg.operations:
        for B in proper:
            if check_absorption_table(op.array, op.arity, B, alg.size):
                t = App(op.name, tuple(Var(i) for i in range(op.arity)))
                result = (AbsorptionWitness(B, t, op.arity), True)
                break
        if result:
            break
    complete = True
    if result is None:
        for m, tab, witness in clone_iter(alg, budget.max_arity, budget.max_tables):
            if m == 0:
                break
            arr = np.array(tab, dtype=np.int64)
            for B in proper:
                if check_absorption_table(arr, m, B, alg.size):
                    result = (AbsorptionWitness(B, witness, m), True)
                    break
            if result:
                break
        else:
            complete = False  # budget-truncated before the fixpoint sentinel
    if result is None:
        result = (None, complete)
    return result


def _random_idempotent(rng, size):
    """One or two idempotent operations of arity 2 or 3 with random tables."""
    ops = {}
    for i in range(rng.randint(1, 2)):
        arity = rng.choice((2, 3))
        table = [rng.randrange(size) for _ in range(size**arity)]
        for a in range(size):
            table[encode_tuple((a,) * arity, size)] = a
        ops[f"f{i}"] = (arity, lambda *xs, t=table: t[encode_tuple(xs, size)])
    return algebra(size, ops)


def _search_cases():
    """(algebra, budget): the idempotent catalog and seeded random idempotent
    algebras, at several clone cut-offs."""
    algs = [make() for _, make in sorted(catalog.NAMED.items())]
    rng = random.Random(11)
    algs += [_random_idempotent(rng, size) for size in (2, 3, 4) for _ in range(12)]
    for alg in algs:
        if not alg.is_idempotent():
            continue
        max_arity = 3 if alg.size <= 3 else 2
        for max_tables in (3, 10, 60, 400):
            yield alg, SearchBudget(max_arity=max_arity, max_tables=max_tables)


def test_candidate_search_matches_reference_loops():
    for alg, budget in _search_cases():
        rep = absorption_report(alg, budget)
        assert (rep.proper_absorbing, rep.minimal_absorbing, rep.complete) == \
            _reference_absorption_report(alg, budget)
        first = find_first_proper_absorbing(alg, budget)
        if enumerate_subuniverses(alg) != [frozenset(range(alg.size))]:
            assert first == _reference_find_first_proper_absorbing(alg, budget)
        for B in enumerate_subuniverses(alg):
            assert find_absorption_witness(alg, B, budget) == \
                _reference_find_absorption_witness(alg, B, budget)


def test_first_absorbing_without_proper_subuniverses_is_complete():
    # nothing to look for: the search is settled before drawing a candidate
    alg = one_element()
    budget = SearchBudget(max_tables=3)
    assert find_first_proper_absorbing(alg, budget) == (None, True)
    assert _reference_find_first_proper_absorbing(alg, budget) == (None, False)


# ---------------------------------------------------------------------------
# the star stage of the report, read off the factors' tables

# {0,1,3} is absorbed by the binary t = f(f(x,y), f(y,x)) and {0,3} only by
# t*t among the candidates of a two-arity, ten-table budget
STAR_TABLE = (0, 3, 3, 0, 3, 1, 2, 0, 2, 3, 2, 3, 0, 1, 1, 3)
STAR_BUDGET = SearchBudget(max_arity=2, max_tables=10)


def _star_algebra():
    return algebra(4, {"f": (2, lambda x, y: STAR_TABLE[4 * x + y])})


@pytest.fixture
def fresh_reports():
    # reports made under a patched guard must not outlive the test
    absorption._report.cache_clear()
    yield
    absorption._report.cache_clear()


def test_star_stage_finds_composed_witness(fresh_reports):
    alg = _star_algebra()
    rep = absorption_report(alg, STAR_BUDGET)
    assert find_absorption_witness(alg, {0, 3}, STAR_BUDGET) is None
    t = rep.witness_for({0, 1, 3}).term
    w = rep.witness_for({0, 3})
    assert w.arity == 4 and w.term == star_compose(t, t)
    assert check_absorption(alg, {0, 3}, w.term)
    assert (rep.proper_absorbing, rep.minimal_absorbing, rep.complete) == \
        _reference_absorption_report(alg, STAR_BUDGET)


def test_absorption_cells_with_a_free_set():
    rng = random.Random(4)
    for _ in range(60):
        size, arity = rng.randint(1, 4), rng.randint(1, 3)
        B = frozenset(rng.sample(range(size), rng.randint(1, size)))
        free = tuple(sorted(rng.sample(range(size), rng.randint(1, size))))
        expected = {
            encode_tuple(args, size)
            for j in range(arity)
            for args in itertools.product(*[free if q == j else sorted(B) for q in range(arity)])
        }
        cells, in_b = absorption._absorption_cells(arity, B, size, free)
        assert cells.tolist() == sorted(expected)
        assert in_b.tolist() == [a in B for a in range(size)]


def test_star_stage_keeps_the_case_guard(fresh_reports, monkeypatch):
    # t*t on {0,3} needs |B|**3 * n = 32 cases per coordinate
    alg = _star_algebra()
    monkeypatch.setattr(absorption, "DEFAULT_TABLE_GUARD", 31)
    assert absorption_report(alg, STAR_BUDGET).witness_for({0, 3}) is None
    absorption._report.cache_clear()
    monkeypatch.setattr(absorption, "DEFAULT_TABLE_GUARD", 32)
    assert absorption_report(alg, STAR_BUDGET).witness_for({0, 3}) is not None


def test_star_stage_keeps_the_arity_cap(fresh_reports, monkeypatch):
    alg = _star_algebra()
    monkeypatch.setattr(absorption, "ARITY_CAP", 3)
    rep = absorption_report(alg, STAR_BUDGET)
    assert rep.witness_for({0, 3}) is None
    assert rep.witness_for({0, 1, 3}) is not None


def test_star_stage_is_exact_on_tables_with_a_dummy_coordinate():
    # a search table may have more coordinates than its term has variables;
    # the star check on such a table agrees with the composed term
    rng = random.Random(5)
    for size in (2, 3):
        for _ in range(8):
            alg = _random_idempotent(rng, size)
            full = frozenset(range(size))
            for op in alg.operations:
                term = App(op.name, tuple(Var(i) for i in range(op.arity)))
                composed = star_compose(term, term)
                grid = np.expand_dims(op.array.reshape((size,) * op.arity),
                                      rng.randrange(op.arity + 1))
                padded = np.broadcast_to(grid, (size,) * (op.arity + 1)).ravel()
                for B in enumerate_subuniverses(alg):
                    witnesses = {full: AbsorptionWitness(full, term, op.arity + 1)}
                    absorption._add_star_witnesses(alg, [B, full], witnesses, {full: padded})
                    assert (B in witnesses) == check_absorption(alg, B, composed)


def test_star_stage_hit_is_reverified(fresh_reports, monkeypatch):
    monkeypatch.setattr(absorption, "check_absorption", lambda *args, **kwargs: False)
    with pytest.raises(TheoremViolation):
        absorption_report(_star_algebra(), STAR_BUDGET)

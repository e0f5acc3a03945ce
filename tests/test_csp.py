"""Homomorphisms, cores, polymorphisms, pp formulas, and the classifier."""

import hashlib
import itertools
import json
import random
import time

import numpy as np
import pytest

from finalg import csp, kernels
from finalg.cli import main
from finalg.core import OperationTable, decode_tuple, encode_tuple, orbit_representatives
from finalg.csp import (
    Atom,
    CSPSearch,
    PPFormula,
    brute_pp_formula,
    classify_template,
    compute_core,
    digraph_structure,
    eval_pp_formula,
    find_cyclic_polymorphism,
    find_homomorphism,
    generated_subpower,
    idempotent_polymorphisms,
    is_polymorphism,
    p_cycle_relation,
    polymorphism_algebra,
    structure,
    structure_digraph,
    verify_homomorphism,
)
from finalg.cyclic import has_cyclic_term, next_prime_above
from finalg.digraph import Digraph, classify_undirected
from finalg.errors import BudgetExceeded, InvalidInput, TheoremViolation
from finalg.relations import Relation, contains_constant, is_cyclic_relation, shift_orbit
from finalg.suites import brute_force_homomorphism


def k(n):
    return digraph_structure(
        Digraph.symmetric(n, [(i, j) for i in range(n) for j in range(i + 1, n)])
    )


def cycle_structure(n):
    return digraph_structure(Digraph.symmetric(n, [(i, (i + 1) % n) for i in range(n)]))


def test_hom_examples():
    edge = digraph_structure(Digraph.build(2, [(0, 1)]))
    loop = digraph_structure(Digraph.build(1, [(0, 0)]))
    assert find_homomorphism(edge, loop) == (0, 0)
    assert find_homomorphism(cycle_structure(5), k(2)) is None
    k3 = k(3)
    hom = find_homomorphism(k3, k3)
    assert hom is not None and sorted(hom) == [0, 1, 2]


def test_hom_signature_mismatch():
    with pytest.raises(InvalidInput):
        find_homomorphism(k(2), structure(2, {"F": [(0, 1)]}))


def test_hom_against_brute_force_samples():
    rng = random.Random(23)
    from finalg.suites import _random_instance, _random_template
    for _ in range(120):
        template = _random_template(rng)
        instance = _random_instance(rng, template)
        fast = find_homomorphism(instance, template)
        brute = brute_force_homomorphism(instance, template)
        assert (fast is None) == (brute is None)


def test_homomorphisms_are_reverified_atom_by_atom(monkeypatch):
    c5, k3 = cycle_structure(5), k(3)
    hom = find_homomorphism(c5, k3)
    assert verify_homomorphism(c5, k3, hom)
    assert verify_homomorphism(c5, k3, dict(enumerate(hom)))
    bad = (0, 1, 0, 1, 1)  # the last edge of C5 maps to a loop
    assert not verify_homomorphism(c5, k3, bad)

    class Search:
        def first(self):
            return bad

    monkeypatch.setattr(csp, "_hom_search", lambda x, a: Search())
    with pytest.raises(TheoremViolation):
        find_homomorphism(c5, k3)


def test_core_examples():
    assert compute_core(k(3)).size == 3
    path = digraph_structure(Digraph.symmetric(3, [(0, 1), (1, 2)]))
    core = compute_core(path)
    assert core.size == 2
    assert core.relations[0][1].tuples == {(0, 1), (1, 0)}
    looped = digraph_structure(Digraph.build(3, [(0, 0), (0, 1), (1, 2)]))
    core = compute_core(looped)
    assert core.size == 1
    assert core.relations[0][1].tuples == {(0, 0)}


def test_core_idempotent_and_guard(monkeypatch):
    for a in (k(3), cycle_structure(5), digraph_structure(Digraph.cycle(4))):
        core = compute_core(a)
        again = compute_core(core)
        assert again.size == core.size
    monkeypatch.setattr(csp, "CORE_GUARD", 2)
    with pytest.raises(BudgetExceeded):
        compute_core(k(3))


def test_unary_idempotent_polymorphisms_are_identity():
    for a in (k(3), cycle_structure(4)):
        assert [op.table for op in idempotent_polymorphisms(a, 1)] == [
            tuple(range(a.size))
        ]


def test_k2_ternary_includes_majority():
    polys = idempotent_polymorphisms(k(2), 3)
    tables = {op.table for op in polys}
    assert (0, 0, 0, 1, 0, 1, 1, 1) in tables  # boolean majority
    for op in polys:
        assert is_polymorphism(k(2), op)


def test_k3_binary_polymorphisms_are_projections():
    # independent oracle: scan all 3^9 idempotent tables with pruning off
    polys = idempotent_polymorphisms(k(3), 2)
    tables = {op.table for op in polys}
    brute = set()
    edges = k(3).relations[0][1].tuples
    for table in itertools.product(range(3), repeat=9):
        if table[0] != 0 or table[4] != 1 or table[8] != 2:
            continue
        ok = True
        for t1, t2 in itertools.product(sorted(edges), repeat=2):
            if (table[t1[0] * 3 + t2[0]], table[t1[1] * 3 + t2[1]]) not in edges:
                ok = False
                break
        if ok:
            brute.add(table)
    assert tables == brute
    assert tables == {
        tuple((i // 3) % 3 for i in range(9)),
        tuple(i % 3 for i in range(9)),
    }


def test_cyclic_polymorphism_k2():
    op = find_cyclic_polymorphism(k(2), 3)
    assert op is not None
    assert op.table == (0, 0, 0, 1, 0, 1, 1, 1)


def test_cyclic_polymorphism_k3_absent():
    assert find_cyclic_polymorphism(k(3), 5) is None


def test_cyclic_polymorphism_one_element():
    one = digraph_structure(Digraph.build(1, [(0, 0)]))
    op = find_cyclic_polymorphism(one, 2)
    assert op is not None


def test_cyclic_polymorphism_budget_raises():
    with pytest.raises(BudgetExceeded):
        find_cyclic_polymorphism(k(2), 3, node_budget=1)


def test_cyclic_polymorphism_needs_arity_two():
    # a unary table is never cyclic (`is_cyclic_table`), so p = 1 is refused
    # as input rather than reported as a solver fault
    with pytest.raises(InvalidInput):
        find_cyclic_polymorphism(k(2), 1)


def test_orbit_representatives_match_a_rotation_loop():
    for n in range(1, 5):
        for p in range(1, 8):
            index = {}
            reps = []
            for code in range(n**p):
                t = decode_tuple(code, n, p)
                least = min(encode_tuple(t[i:] + t[:i], n) for i in range(p))
                if least == code:
                    index[code] = len(reps)
                    reps.append(code)
                else:
                    index[code] = index[least]
            got_reps, got_index = orbit_representatives(n, p)
            assert got_reps.tolist() == reps
            assert got_index.tolist() == [index[c] for c in range(n**p)]


TT5 = (5, [(i, j) for i in range(5) for j in range(5) if i < j])


def test_tt5_combo_guard_raises_before_any_search(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("work before the combo guard")

    monkeypatch.setattr(csp, "CSPSearch", refuse)
    monkeypatch.setattr(csp, "_compat_constraints", refuse)
    monkeypatch.setattr(csp, "orbit_representatives", refuse)
    a = structure(TT5[0], {"E": TT5[1]})
    with pytest.raises(BudgetExceeded) as exc:
        find_cyclic_polymorphism(a, 7)
    assert str(exc.value) == "10000000 tuple combinations for 'E' exceed the combo guard"


def test_pp_formula_examples():
    k3 = k(3)
    single = PPFormula(2, (0, 1), (Atom("rel", (0, 1), name="E"),))
    assert eval_pp_formula(k3, single).tuples == k3.relations[0][1].tuples
    diag = PPFormula(2, (0, 1), (Atom("eq", (0, 1)),))
    assert eval_pp_formula(k3, diag).tuples == {(a, a) for a in range(3)}
    walk2 = PPFormula(
        3, (0, 2), (Atom("rel", (0, 1), name="E"), Atom("rel", (1, 2), name="E"))
    )
    assert eval_pp_formula(k3, walk2).tuples == set(
        itertools.product(range(3), repeat=2)
    )
    pinned = PPFormula(2, (0,), (Atom("rel", (0, 1), name="E"), Atom("one", (1,), element=2)))
    assert eval_pp_formula(k3, pinned).tuples == {(0,), (1,)}


def test_pp_formula_matches_brute_force():
    rng = random.Random(31)
    k3 = k(3)
    c4 = cycle_structure(4)
    for a in (k3, c4):
        for _ in range(60):
            nvars = rng.randint(1, 6)
            atoms = []
            for _ in range(rng.randint(1, 4)):
                kind = rng.choice(["rel", "eq", "one"])
                if kind == "rel":
                    atoms.append(Atom("rel", (rng.randrange(nvars), rng.randrange(nvars)),
                                      name="E"))
                elif kind == "eq":
                    atoms.append(Atom("eq", (rng.randrange(nvars), rng.randrange(nvars))))
                else:
                    atoms.append(Atom("one", (rng.randrange(nvars),),
                                      element=rng.randrange(a.size)))
            free = tuple(sorted(rng.sample(range(nvars), rng.randint(1, nvars))))
            f = PPFormula(nvars, free, tuple(atoms))
            assert eval_pp_formula(a, f).tuples == brute_pp_formula(a, f).tuples


def test_pp_formula_validates_every_atom():
    # an empty first atom settles the relation, but a malformed later atom
    # is still an error
    k3 = k(3)
    never = Atom("rel", (0, 0), name="E")  # K3 has no loop
    for bad in (Atom("rel", (0,), name="E"), Atom("rel", (0, 1), name="F"),
                Atom("one", (1,), element=3)):
        with pytest.raises(InvalidInput):
            eval_pp_formula(k3, PPFormula(2, (0,), (never, bad)))
    assert not eval_pp_formula(k3, PPFormula(2, (0,), (never,))).tuples


def test_p_cycle_relation():
    k3g = Digraph.symmetric(3, [(0, 1), (1, 2), (0, 2)])
    rel, formula = p_cycle_relation(k3g, 5)
    assert rel.tuples
    assert is_cyclic_relation(rel)
    assert contains_constant(rel) is None
    assert eval_pp_formula(digraph_structure(k3g), formula).tuples == rel.tuples

    looped = Digraph.build(2, [(0, 0), (0, 1), (1, 0)])
    rel, _ = p_cycle_relation(looped, 3)
    assert contains_constant(rel) == 0

    rel, _ = p_cycle_relation(Digraph.cycle(3), 5)
    assert not rel.tuples  # no closed walk of length 5 in a 3-cycle


def test_classify_k3():
    verdict = classify_template(k(3))
    assert verdict.outcome == "NPComplete"
    assert verdict.prime == 5
    w = verdict.witness_relation
    assert w is not None and w.tuples
    assert is_cyclic_relation(w)
    assert contains_constant(w) is None
    assert eval_pp_formula(compute_core(k(3)), verdict.witness_formula).tuples == w.tuples


def test_classify_bounds_the_closed_walk_shortcut():
    # K7 at p = 11 has 7 * 6**10 closed-walk candidates, above the cell guard,
    # so the shortcut is skipped and the 7**11-cell search answers at once
    start = time.perf_counter()
    verdict = classify_template(k(7))
    assert verdict.outcome == "Inconclusive" and verdict.prime == 11
    assert time.perf_counter() - start < 1.0
    # K4 at p = 5 has 4 * 3**4 = 324 p-walks
    assert classify_template(k(4), cell_guard=324).outcome == "NPComplete"
    assert classify_template(k(4), cell_guard=323).outcome == "Inconclusive"


def test_classify_reverifies_the_closed_walk_witness(monkeypatch):
    # a closed-walk relation that its own pp formula does not define is a bug
    real = csp.p_cycle_relation

    def wrong(g, p, name="E"):
        rel, formula = real(g, p, name)
        return Relation(p, rel.sizes, rel.tuples - {min(rel.tuples)}), formula

    monkeypatch.setattr(csp, "p_cycle_relation", wrong)
    with pytest.raises(TheoremViolation):
        classify_template(k(3))


def test_classify_digraph_template_with_renamed_relation():
    adj = structure(3, {"adj": [(i, j) for i in range(3) for j in range(3) if i != j]})
    verdict = classify_template(adj)
    assert verdict.outcome == "NPComplete"
    core = compute_core(adj)
    assert eval_pp_formula(core, verdict.witness_formula).tuples == \
        verdict.witness_relation.tuples


def test_classify_tractable_cases():
    verdict = classify_template(k(2))
    assert verdict.outcome == "ConjecturedTractable"
    assert verdict.witness_table is not None
    assert is_polymorphism(compute_core(k(2)), verdict.witness_table)
    one = digraph_structure(Digraph.build(1, [(0, 0)]))
    assert classify_template(one).outcome == "ConjecturedTractable"


ONE_IN_THREE = [(0, 0, 1), (0, 1, 0), (1, 0, 0)]
POSITIVE_NAE3 = [t for t in itertools.product(range(2), repeat=3) if len(set(t)) > 1]


@pytest.mark.parametrize("tuples", [ONE_IN_THREE, POSITIVE_NAE3],
                         ids=["one-in-three", "positive-nae3"])
def test_classify_extracts_a_constant_free_witness(tuples):
    # a ternary template has no closed-walk shortcut: the witness relation
    # comes from the extraction's projections after the cyclic refutation at p = 3
    verdict = classify_template(structure(2, {"R": tuples}))
    assert (verdict.outcome, verdict.prime, verdict.reason) == ("NPComplete", 3, "")
    w = verdict.witness_relation
    assert w.tuples == frozenset(ONE_IN_THREE)
    assert w.tuples and is_cyclic_relation(w)
    assert contains_constant(w) is None


def test_classify_extracts_its_witness_under_its_own_cell_guard(monkeypatch):
    # the witness extraction of 1-in-3 builds a 2**3-cell seed matrix; a module
    # guard below it must not apply where classify_template was given its own
    template = structure(2, {"R": ONE_IN_THREE})
    monkeypatch.setattr(csp, "CELL_GUARD", 7)
    verdict = classify_template(template, cell_guard=10**6)
    assert (verdict.outcome, verdict.reason) == ("NPComplete", "")
    assert verdict.witness_relation.tuples == frozenset(ONE_IN_THREE)
    with pytest.raises(BudgetExceeded):
        generated_subpower(template, ONE_IN_THREE, 3)
    guards = []
    idempotent_search = csp._idempotent_search

    def recording(a, m, cell_guard, node_budget, cyclic):
        guards.append(cell_guard)
        return idempotent_search(a, m, cell_guard, node_budget, cyclic)

    monkeypatch.setattr(csp, "_idempotent_search", recording)
    assert classify_template(template, cell_guard=12345).witness_relation == verdict.witness_relation
    # the cyclic search and the extraction's one search of width p
    assert guards == [12345, 12345]


def test_classify_gives_the_extraction_the_whole_node_budget(monkeypatch):
    # the first orbit of 1-in-3 is the witness, and its projection takes 5
    # nodes of the one search of width 3, whatever the core and cyclic
    # searches spent before it; a budget of 4 stops it at its fifth node
    spent = []
    projection = csp._projection

    def recording(search, cells, n, stop=None):
        try:
            return projection(search, cells, n, stop)
        finally:
            spent.append(search.nodes)

    monkeypatch.setattr(csp, "_projection", recording)
    template = structure(2, {"R": ONE_IN_THREE})
    verdict = classify_template(template, node_budget=5)
    assert (verdict.outcome, verdict.reason) == ("NPComplete", "")
    assert verdict.witness_relation.tuples == frozenset(ONE_IN_THREE)
    assert spent == [5]
    verdict = classify_template(template, node_budget=4)
    assert (verdict.outcome, verdict.witness_relation, verdict.reason) == (
        "NPComplete", None, "cyclic refutation exhaustive; no witness extracted in budget")
    assert spent == [5, 5]


def test_first_gives_each_call_the_whole_node_budget():
    # three free variables: a pinned first solution takes 3 nodes, an
    # unpinned one 4
    search = CSPSearch(3, [0b11] * 3, [], node_budget=3)
    assert search.first([0b01, 0b11, 0b11]) == (0, 0, 0)
    assert search.first([0b10, 0b11, 0b11]) == (1, 0, 0)
    assert search.nodes == 3
    with pytest.raises(BudgetExceeded):
        search.first()


def test_a_deep_search_needs_no_python_recursion():
    # 1,500 free variables branch one level each: the first solution sits
    # 1,500 levels deep, past Python's default recursion limit
    search = CSPSearch(1500, [0b11] * 1500, [])
    assert search.first() == (0,) * 1500
    assert search.nodes == 1501


@pytest.mark.parametrize("tuples", [ONE_IN_THREE, POSITIVE_NAE3],
                         ids=["one-in-three", "positive-nae3"])
def test_classify_builds_each_polymorphism_search_once(monkeypatch, tuples):
    # one search for the core's retraction round, the cyclic search and the
    # extraction's one search of width p, whose projections are the subpowers
    builds = []
    build = CSPSearch.__post_init__

    def counting(self):
        builds.append(self.nvars)
        build(self)

    monkeypatch.setattr(CSPSearch, "__post_init__", counting)
    verdict = classify_template(structure(2, {"R": tuples}))
    assert verdict.witness_relation.tuples == frozenset(ONE_IN_THREE)
    assert builds == [2, 4, 8]


def test_classifier_agrees_with_undirected_up_to_five_vertices():
    for n in range(1, 6):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Digraph.symmetric(n, edges)
            undirected = classify_undirected(g)
            template = classify_template(digraph_structure(g))
            if template.outcome == "ConjecturedTractable":
                assert undirected == "PolynomialTime"
            else:
                assert template.outcome == "NPComplete"
                assert undirected == "NPComplete"


def test_consistency_bridge_with_cyclic_decision():
    # the classifier verdict matches the cyclic-term decision on the algebra
    # of idempotent polymorphisms for small digraph templates
    cases = [
        k(2),
        k(3),
        digraph_structure(Digraph.build(1, [(0, 0)])),
        cycle_structure(4),
    ]
    for a in cases:
        core = compute_core(a)
        verdict = classify_template(a)
        alg = polymorphism_algebra(core, max_arity=3)
        decision = has_cyclic_term(alg, verdict.prime)
        if verdict.outcome == "ConjecturedTractable":
            assert decision.has_cyclic_term
        else:
            assert not decision.has_cyclic_term


def test_generated_subpower_is_invariant_and_contains_seeds():
    k3 = k(3)
    seeds = [(0, 1, 0, 1, 2)]
    rel = generated_subpower(k3, seeds, 5)
    assert (0, 1, 0, 1, 2) in rel.tuples
    for op in idempotent_polymorphisms(k3, 2):
        for t1, t2 in itertools.product(sorted(rel.tuples), repeat=2):
            image = tuple(op.table[t1[i] * 3 + t2[i]] for i in range(5))
            assert image in rel.tuples


# the definition the projections meet: one pinned `first()` question per tuple


def _pinned_relation(search, cells, n):
    """The tuples t over n values such that `search` has a solution with
    variable cells[j] = t_j for every j, asked one tuple at a time."""
    out = set()
    for t in itertools.product(range(n), repeat=len(cells)):
        domains = list(search.domains)
        for c, v in zip(cells, t):
            domains[c] &= 1 << v
        if all(domains) and search.first(domains) is not None:
            out.add(t)
    return Relation(len(cells), (n,) * len(cells), frozenset(out))


def _pinned_subpower(a, seeds, p):
    seeds = sorted(set(seeds))
    cells = [encode_tuple([s[j] for s in seeds], a.size) for j in range(p)]
    search, _ = csp._idempotent_search(a, len(seeds), csp.CELL_GUARD, csp.NODE_GUARD,
                                       cyclic=False)
    return _pinned_relation(search, cells, a.size)


def _pinned_witness(core, p):
    """The first orbit's pinned subpower, in code order, that has no constant
    tuple and is cyclic."""
    for code in orbit_representatives(core.size, p)[0].tolist():
        t = decode_tuple(code, core.size, p)
        if len(set(t)) > 1:
            rel = _pinned_subpower(core, shift_orbit(t), p)
            if contains_constant(rel) is None and is_cyclic_relation(rel):
                return rel
    return None


# a 5-vertex digraph whose 4-vertex core has cycles of lengths 3 and 4 but
# no closed 5-walk, so only the extraction gives its witness
CORE4 = digraph_structure(Digraph.build(5, [(0, 4), (1, 0), (2, 4), (3, 0), (3, 1),
                                            (3, 2), (4, 1), (4, 3)]))


@pytest.mark.parametrize("template", [structure(2, {"R": ONE_IN_THREE}),
                                      structure(2, {"R": POSITIVE_NAE3}), CORE4],
                         ids=["one-in-three", "positive-nae3", "core4"])
def test_extraction_matches_pinned_questions(template):
    core = compute_core(template)
    p = next_prime_above(core.size)
    assert find_cyclic_polymorphism(core, p) is None
    witness = csp._extract_constant_free_witness(core, p, csp.CELL_GUARD, csp.NODE_GUARD)
    assert witness is not None and witness == _pinned_witness(core, p)
    assert classify_template(template).witness_relation == witness
    for code in orbit_representatives(core.size, p)[0].tolist()[:3]:
        seeds = shift_orbit(decode_tuple(code, core.size, p))
        assert generated_subpower(core, seeds, p) == _pinned_subpower(core, seeds, p)


def test_extraction_skips_an_orbit_whose_subpower_has_a_constant(monkeypatch):
    # 1-in-3's orbits in code order are those of (0, 0, 1) and (0, 1, 1); a
    # constant added to a projection makes the extraction move on
    projection = csp._projection
    spoiled = []

    def spoiling(search, cells, n, stop=None):
        rel = projection(search, cells, n, stop)
        if len(spoiled) < limit:
            spoiled.append(rel)
            return Relation(rel.arity, rel.sizes, rel.tuples | {(0,) * rel.arity})
        return rel

    monkeypatch.setattr(csp, "_projection", spoiling)
    core = structure(2, {"R": ONE_IN_THREE})
    limit = 1
    two_in_three = {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert csp._extract_constant_free_witness(core, 3, csp.CELL_GUARD, csp.NODE_GUARD).tuples \
        == two_in_three
    assert spoiled[0].tuples == frozenset(ONE_IN_THREE)
    limit = 3
    assert csp._extract_constant_free_witness(core, 3, csp.CELL_GUARD, csp.NODE_GUARD) is None
    assert spoiled[2].tuples == two_in_three


def test_extraction_charges_every_orbit_to_one_node_budget(monkeypatch):
    # with the first orbit of 1-in-3 spoiled by a constant, the witness is
    # the second orbit's projection; it gets only the nodes the first left
    projection = csp._projection
    spent = []

    def spoiling(search, cells, n, stop=None):
        rel = projection(search, cells, n, stop)
        spent.append(search.nodes)
        if len(spent) == 1:
            return Relation(rel.arity, rel.sizes, rel.tuples | {(0,) * rel.arity})
        return rel

    monkeypatch.setattr(csp, "_projection", spoiling)
    core = structure(2, {"R": ONE_IN_THREE})
    two_in_three = {(0, 1, 1), (1, 0, 1), (1, 1, 0)}
    assert csp._extract_constant_free_witness(core, 3, csp.CELL_GUARD, csp.NODE_GUARD).tuples \
        == two_in_three
    first, second = spent
    budget = first + second
    spent.clear()
    assert csp._extract_constant_free_witness(core, 3, csp.CELL_GUARD, budget).tuples \
        == two_in_three
    assert spent == [first, second]
    spent.clear()
    # each orbit alone fits in budget - 1 nodes; the two together do not
    assert max(first, second) <= budget - 1
    assert csp._extract_constant_free_witness(core, 3, csp.CELL_GUARD, budget - 1) is None
    assert spent == [first]


def test_extraction_stops_a_projection_at_a_constant_of_its_subpower():
    # K3 lifted over the blocks {0, 1} | {2} | {3}, with the block equivalence
    # and the singletons: an NP-complete core that allows every idempotent
    # operation on {0, 1}, so the subpower of its first orbit, that of
    # (0, 0, 0, 0, 1), is {0, 1}^5 with its constants
    block = [0, 0, 1, 2]
    core = structure(4, {
        "E": [(a, b) for a in range(4) for b in range(4) if block[a] != block[b]],
        "B": [(a, b) for a in range(4) for b in range(4) if block[a] == block[b]],
        **{f"S{v}": [(v,)] for v in range(4)},
    })
    assert compute_core(core).size == 4 and find_cyclic_polymorphism(core, 5) is None
    search, _ = csp._idempotent_search(core, 5, csp.CELL_GUARD, 1000, cyclic=False)
    orbit = sorted(shift_orbit((0, 0, 0, 0, 1)))
    cells = [encode_tuple([s[j] for s in orbit], 4) for j in range(5)]
    # the first tuple is (0, ..., 0), after 515 nodes; the whole projection,
    # all 32 tuples, takes 16,351
    assert csp._projection(search, cells, 4, stop=csp._is_constant).tuples == {(0,) * 5}
    assert search.nodes == 515
    with pytest.raises(BudgetExceeded):
        csp._projection(search, cells, 4)


def test_generated_subpower_matches_pinned_questions_on_k3_seeds():
    # the first seed set repeats two columns, so its projection lists a cell twice
    for seeds, p in (([(0, 1, 0, 1, 2)], 5), ([(0, 1, 2), (1, 2, 0)], 3),
                     ([(0, 1, 0), (2, 2, 1)], 3)):
        assert generated_subpower(k(3), seeds, p) == _pinned_subpower(k(3), seeds, p)


# ---------------------------------------------------------------------------
# the solver against brute force


def _random_csp(rng):
    n = rng.randint(1, 3)
    nvars = rng.randint(1, 6)
    domains = []
    for _ in range(nvars):
        kind = rng.random()
        if kind < 0.1:
            domains.append(set())
        elif kind < 0.3:
            domains.append({rng.randrange(n)})
        else:
            domains.append({a for a in range(n) if rng.random() < 0.8})
    constraints = []
    for _ in range(rng.randint(0, 6)):
        arity = rng.randint(1, 3)
        # scopes may repeat a variable, and relations may be empty
        scope = tuple(rng.randrange(nvars) for _ in range(arity))
        allowed = frozenset(t for t in itertools.product(range(n), repeat=arity)
                            if rng.random() < 0.6)
        constraints.append((scope, allowed))
    return n, nvars, domains, constraints


def _groups(constraints, by_relation=False):
    """`(scope, allowed)` pairs as `CSPSearch` groups: one per scope, or with
    `by_relation` one per relation and arity, holding all its scopes."""
    if not by_relation:
        return [([scope], allowed) for scope, allowed in constraints]
    groups = {}
    for scope, allowed in constraints:
        groups.setdefault((len(scope), allowed), []).append(scope)
    return [(scopes, allowed) for (_, allowed), scopes in groups.items()]


def _masks(domains):
    """Domains given as sets, as `CSPSearch` masks (bit v for value v)."""
    return [sum(1 << v for v in d) for d in domains]


def _brute_solutions(n, nvars, domains, constraints):
    return {
        a for a in itertools.product(range(n), repeat=nvars)
        if all(a[v] in domains[v] for v in range(nvars))
        and all(tuple(a[v] for v in scope) in allowed for scope, allowed in constraints)
    }


def test_solver_matches_brute_force_on_random_csps():
    rng = random.Random(7)
    satisfiable = 0
    for _ in range(600):
        n, nvars, domains, constraints = _random_csp(rng)
        search = CSPSearch(nvars, _masks(domains), _groups(constraints))
        found = list(search.solutions())
        assert len(found) == len(set(found))
        assert set(found) == _brute_solutions(n, nvars, domains, constraints)
        assert CSPSearch(nvars, _masks(domains), _groups(constraints)).first() == \
            (found[0] if found else None)
        # pinned domains passed per call, as the core and subpower searches do
        pinned = [set(d) for d in domains]
        pinned[0] &= {0}
        assert set(search.solutions(_masks(pinned))) == \
            _brute_solutions(n, nvars, pinned, constraints)
        satisfiable += bool(found)
        # the same sequence and node count as the reference propagation
        _assert_same_search(nvars, domains, constraints)
        _assert_same_search(nvars, domains, constraints, pinned)
    assert 100 < satisfiable < 500


# ---------------------------------------------------------------------------
# the solver against a reference search: table-constraint GAC on every
# constraint, as the solver propagated before binary constraints became arcs


class _ReferenceSearch:
    def __init__(self, nvars, domains, constraints):
        self.nvars = nvars
        self.domains = domains
        self.constraints = constraints
        self.node_budget = csp.NODE_GUARD
        self.__post_init__()

    def __post_init__(self):
        normed = {}
        for scope, allowed in self.constraints:
            scope, allowed = csp._normalize(scope, allowed)
            key = scope
            if key in normed:
                normed[key] = normed[key] & allowed
            else:
                normed[key] = allowed
        self.constraints = sorted(normed.items())
        self.touching = [[] for _ in range(self.nvars)]
        tables = {}
        self._tables = []
        for ci, (scope, allowed) in enumerate(self.constraints):
            for v in scope:
                self.touching[v].append(ci)
            key = (len(scope), allowed)  # an empty relation does not show its arity
            if key not in tables:
                tables[key] = csp._columns(allowed, len(scope))
            self._tables.append((scope, tables[key]))
        self.nodes = 0

    def _revise(self, domains, queue):
        """Generalized arc consistency to fixpoint; False on a wipeout.

        The live rows of a constraint are the AND over its positions of the
        rows holding a value still in that variable's domain; a value stays
        while some live row holds it.
        """
        queued = set(queue)
        tables = self._tables
        while queue:
            ci = queue.pop()
            queued.discard(ci)
            scope, columns = tables[ci]
            live = -1
            for v, (rows, _) in zip(scope, columns):
                live &= rows[domains[v]]
            for v, (_, values) in zip(scope, columns):
                # live rows hold only values still in the domain
                kept = values[live]
                if kept == domains[v]:
                    continue
                if not kept:
                    return False
                domains[v] = kept
                for cj in self.touching[v]:
                    if cj != ci and cj not in queued:
                        queue.append(cj)
                        queued.add(cj)
        return True

    def solutions(self, domains=None):
        """Yield assignments in deterministic order."""
        masks = [sum(1 << v for v in d)
                 for d in (self.domains if domains is None else domains)]
        if not self._revise(masks, list(range(len(self.constraints)))):
            return
        yield from self._branch(masks)

    def _branch(self, domains):
        self.nodes += 1
        if self.nodes > self.node_budget:
            raise csp._Exhausted
        sizes = [d.bit_count() for d in domains]
        unassigned = [(c, v) for v, c in enumerate(sizes) if c > 1]
        if not unassigned:
            if all(domains):
                yield tuple(d.bit_length() - 1 for d in domains)
            return
        var = min(unassigned)[1]
        rest = domains[var]
        while rest:
            bit = rest & -rest
            rest ^= bit
            child = list(domains)
            child[var] = bit
            if self._revise(child, list(self.touching[var])):
                yield from self._branch(child)


def _assert_same_search(nvars, domains, constraints, pinned=None, limit=None,
                        by_relation=False):
    """The solver and the reference yield the same first `limit` solutions
    (all when None) after the same number of nodes."""
    search = CSPSearch(nvars, _masks(domains), _groups(constraints, by_relation))
    reference = _ReferenceSearch(nvars, domains, constraints)
    assert sorted(search.constraints) == reference.constraints
    masks = None if pinned is None else _masks(pinned)
    found = list(itertools.islice(search.solutions(masks), limit))
    assert found == list(itertools.islice(reference.solutions(pinned), limit))
    assert search.nodes == reference.nodes
    return found


def _assert_same_projection(rng, nvars, domains, constraints, pinned=None,
                            by_relation=False):
    """`solutions(cells=...)` yields one solution per distinct tuple of the
    cells' values, and those tuples are the projections of the reference's
    full enumeration onto a random list of cells; with every variable in
    index order as the cells, it is the reference's sequence and node count."""
    search = CSPSearch(nvars, _masks(domains), _groups(constraints, by_relation))
    reference = _ReferenceSearch(nvars, domains, constraints)
    masks = None if pinned is None else _masks(pinned)
    full = list(reference.solutions(pinned))
    cells = rng.sample(range(nvars), rng.randint(1, nvars))
    found = list(search.solutions(masks, cells))
    projected = [tuple(sol[c] for c in cells) for sol in found]
    assert set(found) <= set(full)
    assert len(projected) == len(set(projected))
    assert set(projected) == {tuple(sol[c] for c in cells) for sol in full}
    search.nodes = 0
    assert list(search.solutions(masks, range(nvars))) == full
    assert search.nodes == reference.nodes


def test_projection_matches_reference_enumeration():
    rng = random.Random(43)
    for _ in range(600):
        n, nvars, domains, constraints = _random_csp(rng)
        _assert_same_projection(rng, nvars, domains, constraints)
        pinned = [set(d) for d in domains]
        pinned[rng.randrange(nvars)] &= {rng.randrange(n)}
        _assert_same_projection(rng, nvars, domains, constraints, pinned)
    for _ in range(100):
        n, nvars, domains, constraints = _random_shared_domain_csp(rng)
        _assert_same_projection(rng, nvars, domains, constraints, by_relation=True)


def _random_relation(rng, n, arity):
    kind = rng.random()
    if kind < 0.04:
        return frozenset()
    if kind < 0.14:
        return frozenset(itertools.product(range(n), repeat=arity))
    density = rng.uniform(0.4, 0.95)
    return frozenset(t for t in itertools.product(range(n), repeat=arity)
                     if rng.random() < density)


def _random_domains(rng, n, nvars):
    domains = []
    for _ in range(nvars):
        kind = rng.random()
        if kind < 0.02:
            domains.append(set())
        elif kind < 0.15:
            domains.append({rng.randrange(n)})
        else:
            domains.append({a for a in range(n) if rng.random() < 0.85} or {0})
    return domains


def _random_binary_csp(rng):
    n = rng.randint(1, 5)
    nvars = rng.randint(2, 10)
    constraints = []
    for _ in range(rng.randint(1, 2 * nvars)):
        x, y = rng.sample(range(nvars), 2)
        rel = _random_relation(rng, n, 2)
        constraints.append(((x, y), rel))
        if rng.random() < 0.3:  # the same pair in the other direction
            constraints.append(((y, x), _random_relation(rng, n, 2)))
    return n, nvars, _random_domains(rng, n, nvars), constraints


def test_solver_matches_reference_on_binary_csps():
    rng = random.Random(13)
    satisfiable = 0
    for _ in range(300):
        n, nvars, domains, constraints = _random_binary_csp(rng)
        found = _assert_same_search(nvars, domains, constraints, limit=50)
        satisfiable += bool(found)
        # a pinned variable, as the pinned polymorphism searches pass
        pinned = [set(d) for d in domains]
        pinned[rng.randrange(nvars)] &= {rng.randrange(n)}
        _assert_same_search(nvars, domains, constraints, pinned, limit=50)
    assert 60 < satisfiable < 240


def test_solver_matches_reference_on_mixed_csps():
    rng = random.Random(17)
    satisfiable = 0
    for _ in range(300):
        n = rng.randint(1, 4)
        nvars = rng.randint(3, 9)
        constraints = []
        for _ in range(rng.randint(1, 2 * nvars)):
            arity = rng.choice((1, 2, 2, 3, 3))
            # scopes may repeat a variable, so ternary ones can become binary
            scope = tuple(rng.randrange(nvars) for _ in range(arity))
            constraints.append((scope, _random_relation(rng, n, arity)))
        domains = _random_domains(rng, n, nvars)
        found = _assert_same_search(nvars, domains, constraints, limit=50)
        satisfiable += bool(found)
    assert 60 < satisfiable < 240


# ---------------------------------------------------------------------------
# the calm start and the grouped arcs against the reference


def _random_shared_domain_csp(rng):
    """Variables with one shared domain, and constraints drawn from a few
    relations; a symmetric binary relation is given on each scope both
    ways, and scopes may repeat a variable."""
    n = rng.randint(1, 4)
    nvars = rng.randint(2, 9)
    shared = {a for a in range(n) if rng.random() < 0.8} or {n - 1}
    relations = []
    for _ in range(rng.randint(1, 3)):
        arity = rng.choice((1, 2, 2, 2, 3))
        rel = _random_relation(rng, n, arity)
        symmetric = arity == 2 and rng.random() < 0.5
        if symmetric:
            rel = rel | {(y, x) for x, y in rel}
        relations.append((arity, rel, symmetric))
    constraints = []
    for _ in range(rng.randint(1, 2 * nvars)):
        arity, rel, symmetric = rng.choice(relations)
        scope = tuple(rng.randrange(nvars) for _ in range(arity))
        constraints.append((scope, rel))
        if symmetric:
            constraints.append((scope[::-1], rel))
    return n, nvars, [set(shared) for _ in range(nvars)], constraints


def test_calm_start_matches_reference_on_shared_domains():
    rng = random.Random(41)
    calm = satisfiable = 0
    for _ in range(300):
        n, nvars, domains, constraints = _random_shared_domain_csp(rng)
        search = CSPSearch(nvars, _masks(domains), _groups(constraints, by_relation=True))
        calm += search._calm is not None
        found = _assert_same_search(nvars, domains, constraints, limit=50, by_relation=True)
        satisfiable += bool(found)
        # pinned within the shared domain: propagation starts at the
        # restless variables and the pinned one
        pinned = [set(d) for d in domains]
        pinned[rng.randrange(nvars)] &= {rng.randrange(n)}
        _assert_same_search(nvars, domains, constraints, pinned, limit=50, by_relation=True)
        # a value outside the shared domain: propagation starts everywhere
        wider = [set(d) for d in domains]
        wider[rng.randrange(nvars)].add(n)
        _assert_same_search(nvars, domains, constraints, wider, limit=50, by_relation=True)
    assert calm > 200
    assert 60 < satisfiable < 240


def test_calm_start_prunes_a_relation_not_arc_consistent_at_the_shared_mask():
    # {(0, 1)} leaves x only 0 and y only 1, and the colouring arc from y
    # then leaves z 0 and 2, all before the first branch
    k3 = frozenset((i, j) for i in range(3) for j in range(3) if i != j)
    constraints = [((0, 1), frozenset({(0, 1)})), ((1, 2), k3)]
    domains = [{0, 1, 2}] * 3
    found = _assert_same_search(3, domains, constraints, by_relation=True)
    assert found == [(0, 1, 0), (0, 1, 2)]
    search = CSPSearch(3, _masks(domains), _groups(constraints, by_relation=True))
    assert search._calm == 0b111
    assert search.first() == (0, 1, 0)
    assert search.nodes == 2
    assert search.first([0b111, 0b111, 0b010]) is None
    assert search.nodes == 0


def test_a_symmetric_relation_given_both_ways_adds_each_head_once():
    k3 = frozenset((i, j) for i in range(3) for j in range(3) if i != j)
    edges = [(0, 1), (1, 2), (2, 0), (2, 3)]
    constraints = [(e, k3) for e in edges] + [(e[::-1], k3) for e in edges]
    domains = [{0, 1, 2}] * 4
    search = CSPSearch(4, _masks(domains), _groups(constraints, by_relation=True))
    assert len(search.constraints) == 8
    [(image, heads)] = search._arcs[2]
    assert heads == {0, 1, 3}
    assert search._restless == set()
    _assert_same_search(4, domains, constraints, by_relation=True)
    _assert_same_search(4, domains, constraints, [{1}, {0, 1, 2}, {0, 2}, {0, 1, 2}],
                        by_relation=True)


# ---------------------------------------------------------------------------
# edge cases of the packed table lookup


@pytest.mark.parametrize("memo_limit", [csp.MEMO_LIMIT, 8])
def test_packed_lookup_past_the_memo_limit(monkeypatch, memo_limit):
    # 3 positions of 5 bits: 2**15 keys, more than the memo holds; a small
    # limit makes most lookups go unmemoised
    monkeypatch.setattr(csp, "MEMO_LIMIT", memo_limit)
    rng = random.Random(19)
    n = 5
    assert csp._Table(frozenset({(4, 4, 4)}), 3).width == n
    assert 2 ** (3 * n) > csp.MEMO_LIMIT
    for _ in range(40):
        nvars = rng.randint(3, 8)
        rel = frozenset(t for t in itertools.product(range(n), repeat=3)
                        if rng.random() < 0.3)
        constraints = [(tuple(rng.sample(range(nvars), 3)), rel)
                       for _ in range(rng.randint(1, 2 * nvars))]
        _assert_same_search(nvars, _random_domains(rng, n, nvars), constraints, limit=30)


def test_packed_lookup_prunes_values_above_every_allowed_one():
    # the tables allow only 0 and 1; values 2 and 3 in a domain fail every
    # row, whether the domain is the search's own or pinned per call
    rng = random.Random(23)
    for _ in range(120):
        nvars = rng.randint(3, 6)
        constraints = [(tuple(rng.sample(range(nvars), 3)),
                        _random_relation(rng, 2, 3)) for _ in range(rng.randint(1, 4))]
        if rng.random() < 0.5:  # a variable with arcs as well
            constraints.append((tuple(rng.sample(range(nvars), 2)),
                                _random_relation(rng, 4, 2)))
        domains = [{a for a in range(4) if rng.random() < 0.7} for _ in range(nvars)]
        _assert_same_search(nvars, domains, constraints)
        pinned = [set(d) for d in domains]
        pinned[rng.randrange(nvars)] = rng.choice([{2}, {3}, {1, 3}, {0, 2, 3}])
        _assert_same_search(nvars, domains, constraints, pinned)
    # a domain with no value below the width has no solution and no node
    search = CSPSearch(3, [0b11] * 3, [([(0, 1, 2)], frozenset({(0, 1, 0), (1, 0, 1)}))])
    assert list(search.solutions([0b1000, 0b11, 0b11])) == []
    assert search.nodes == 0


def test_packed_lookup_with_a_column_missing_a_value():
    # column 1 never holds 1, below the width of 3
    rel = frozenset(t for t in itertools.product(range(3), repeat=3) if t[1] != 1)
    assert csp._Table(rel, 3).width == 3
    rng = random.Random(29)
    for _ in range(60):
        nvars = rng.randint(3, 7)
        constraints = [(tuple(rng.sample(range(nvars), 3)),
                        rel if rng.random() < 0.6 else _random_relation(rng, 3, 3))
                       for _ in range(rng.randint(1, nvars))]
        domains = _random_domains(rng, 3, nvars)
        _assert_same_search(nvars, domains, constraints, limit=30)
        pinned = [set(d) for d in domains]
        pinned[rng.randrange(nvars)] = {1}
        _assert_same_search(nvars, domains, constraints, pinned, limit=30)


def test_is_polymorphism_checks_every_combination(monkeypatch):
    # tiny chunks make the combinations span many chunks
    monkeypatch.setattr(kernels, "FIRST_CHUNK", 5)
    monkeypatch.setattr(kernels, "CHUNK", 5)
    rng = random.Random(11)
    for _ in range(150):
        n = rng.randint(1, 3)
        arity = rng.randint(1, 3)
        tuples = [t for t in itertools.product(range(n), repeat=arity) if rng.random() < 0.5]
        a = structure(n, {"R": tuples})
        m = rng.randint(1, 3)
        op = OperationTable("f", m, tuple(rng.randrange(n) for _ in range(n**m)))
        rel = a.relations[0][1].tuples
        brute = all(
            tuple(op.apply(n, [t[j] for t in combo]) for j in range(a.relations[0][1].arity))
            in rel
            for combo in itertools.product(sorted(rel), repeat=m)
        )
        assert is_polymorphism(a, op) == brute


def test_an_empty_relation_adds_no_compatibility_constraints():
    f = [(0, 1), (1, 0), (0, 0)]
    with_empty = csp._compat_constraints(structure(2, {"E": [], "F": f}), 2)
    assert with_empty == csp._compat_constraints(structure(2, {"F": f}), 2)
    assert sum(len(scopes) for scopes, _ in with_empty) == 9


def _reference_compat_scopes(a, m, var_of=None):
    out = []
    for _, rel in a.relations:
        if not rel.tuples:
            continue
        rows = csp._relation_rows(rel)
        cells = np.concatenate([c for _, c in kernels.combinations(rows, a.size, m)])
        scopes = np.unique(cells if var_of is None else var_of[cells], axis=0)
        out.extend(map(tuple, scopes.tolist()))
    return out


def _compat_scopes(a, m, var_of=None):
    return [scope for scopes, _ in csp._compat_constraints(a, m, var_of) for scope in scopes]


def test_distinct_scopes_match_np_unique():
    rng = np.random.default_rng(31)
    for trial in range(200):
        # every third matrix has entries whose codes overflow int64
        width = int(rng.integers(2 if trial % 3 == 0 else 1, 9))
        high = 2**40 if trial % 3 == 0 else int(rng.integers(1, 60))
        scopes = rng.integers(0, high, size=(int(rng.integers(1, 80)), width), dtype=np.int64)
        if trial % 3 == 0:
            assert kernels.row_keys(scopes, int(scopes.max()) + 1).dtype != np.int64
        got = csp._distinct_scopes(scopes)
        assert got.tolist() == np.unique(scopes, axis=0).tolist()


def test_compat_constraints_match_np_unique():
    rng = random.Random(37)
    for _ in range(60):
        n = rng.randint(1, 3)
        rels = {}
        for name in ("R", "S")[: rng.randint(1, 2)]:
            arity = rng.randint(1, 3)
            rels[name] = [t for t in itertools.product(range(n), repeat=arity)
                          if rng.random() < 0.5]
        a = structure(n, rels)
        m = rng.randint(1, 3)
        expected = _reference_compat_scopes(a, m)
        assert _compat_scopes(a, m) == expected
        reps, var_of = orbit_representatives(n, m)
        expected = _reference_compat_scopes(a, m, var_of)
        assert _compat_scopes(a, m, var_of) == expected
    # 8-ary scopes over the 2**8 cells of A^8: codes in radix 256 overflow int64
    a = structure(2, {"R": [(0,) * 8, (1,) * 8, (0, 1) * 4, (1, 0, 0, 1) * 2]})
    cells = np.concatenate([c for _, c in kernels.combinations(
        csp._relation_rows(a.relations[0][1]), 2, 8)])
    assert kernels.row_keys(cells, 256).dtype != np.int64
    assert _compat_scopes(a, 8) == _reference_compat_scopes(a, 8)


# sha256 of the `--json` output of `csp solve` on planted instances and of
# `csp classify` on templates whose polymorphism searches are large
K3_EDGES = [(i, j) for i in range(3) for j in range(3) if i != j]
NAE3 = [t for t in itertools.product(range(2), repeat=3) if len(set(t)) == 2]


def _planted_instance(seed, relation, values, nvars, ncons, symmetric):
    rng = random.Random(seed)
    plant = [rng.randrange(values) for _ in range(nvars)]
    arity = len(relation[0])
    scopes = set()
    while len(scopes) < ncons:
        scope = tuple(rng.sample(range(nvars), arity))
        if tuple(plant[v] for v in scope) in relation:
            scopes.add(scope)
    tuples = sorted(scopes | {s[::-1] for s in scopes} if symmetric else scopes)

    def template(size, ts):
        return {"size": size, "relations": [
            {"name": "R", "arity": arity, "tuples": [list(t) for t in ts]}]}

    return {"template": template(values, relation), "structure": template(nvars, tuples)}


PLANTED = {
    "3col-60-200": (1, K3_EDGES, 3, 60, 200, True),
    "3col-40-110": (2, K3_EDGES, 3, 40, 110, True),
    "nae3-40-150": (3, NAE3, 2, 40, 150, False),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_solver_matches_reference_on_planted_instances(name):
    instance = _planted_instance(*PLANTED[name])
    (relation,) = instance["template"]["relations"]
    (scopes,) = instance["structure"]["relations"]
    allowed = frozenset(map(tuple, relation["tuples"]))
    constraints = [(tuple(scope), allowed) for scope in scopes["tuples"]]
    nvars = instance["structure"]["size"]
    domains = [set(range(instance["template"]["size"])) for _ in range(nvars)]
    assert _assert_same_search(nvars, domains, constraints, limit=20)


SOLVE_SHA256 = {
    "3col-60-200": "c2ffbadef88fbbdf179063feb084fa79c0f8df42dc24732b6391b5c2c68b8cc9",
    "3col-40-110": "fcd0e466b910d17432cdc5969299473e1a62cc34aa6b7807bf1133322db63b95",
    "nae3-40-150": "3a2ee5c48c2ad41de1e951a8f9fa6ba67af852bd976ca2138330b6cb66843d0f",
}

TEMPLATES = {
    "lin-z3": (3, [t for t in itertools.product(range(3), repeat=3) if sum(t) % 3 == 1]),
    "TT4": (4, [(i, j) for i in range(4) for j in range(4) if i < j]),
    "C4": (4, [(i, (i + 1) % 4) for i in range(4)]),
}
CLASSIFY_SHA256 = {
    "lin-z3": "27e0fffcb9d5bbd3240599cdbda3cd3fa3741523572d8d476850065fe45dda98",
    "TT4": "5ad43ffcecdcf0f3feacd3c242ce84ba20549577656b921c47a8250b906ffba4",
    "C4": "b09bd81508bdb67a8ff8f2b58dfb5d399956955ac11db1b4a91ee18bc72a071a",
}


def _cli_sha256(capsys, argv):
    code = main(["--json"] + argv)
    out = capsys.readouterr().out
    return code, hashlib.sha256(out.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_solve_output_is_byte_identical(name, tmp_path, capsys):
    path = tmp_path / "instance.json"
    path.write_text(json.dumps(_planted_instance(*PLANTED[name])))
    assert _cli_sha256(capsys, ["csp", "solve", str(path)]) == (0, SOLVE_SHA256[name])


def _template_file(tmp_path, n, tuples):
    path = tmp_path / "template.json"
    path.write_text(json.dumps({"size": n, "relations": [
        {"name": "E", "arity": len(tuples[0]), "tuples": [list(t) for t in tuples]}]}))
    return str(path)


@pytest.mark.parametrize("name", sorted(TEMPLATES))
def test_classify_output_is_byte_identical(name, tmp_path, capsys):
    path = _template_file(tmp_path, *TEMPLATES[name])
    assert _cli_sha256(capsys, ["csp", "classify", path]) == (0, CLASSIFY_SHA256[name])


def test_classify_tt5_output_is_byte_identical(tmp_path, capsys):
    # Inconclusive at the combo guard, with the guard's message as the reason
    path = _template_file(tmp_path, *TT5)
    assert _cli_sha256(capsys, ["csp", "classify", path]) == \
        (3, "218f2d1c9331eb5a6a87a8c92c1eb1f7f2e01e34b1655381d01732a682f6cef5")


def test_pp_formula_with_every_variable_free_matches_brute_force():
    """Closed-walk formulas (and one whose free variables are permuted) read
    their relation off the search's solutions."""
    for a, p in ((k(3), 5), (k(4), 5), (cycle_structure(4), 4), (cycle_structure(4), 5)):
        _, formula = p_cycle_relation(structure_digraph(a), p)
        assert eval_pp_formula(a, formula).tuples == brute_pp_formula(a, formula).tuples
    permuted = PPFormula(4, (2, 0, 3, 1), (Atom("rel", (0, 1), name="E"),
                                           Atom("rel", (1, 2), name="E"),
                                           Atom("one", (3,), element=1)))
    expected = brute_pp_formula(k(3), permuted).tuples
    assert expected and eval_pp_formula(k(3), permuted).tuples == expected


def test_pp_formula_enumeration_keeps_the_node_budget(monkeypatch):
    monkeypatch.setattr(csp, "NODE_GUARD", 3)
    _, formula = p_cycle_relation(structure_digraph(k(3)), 5)
    with pytest.raises(BudgetExceeded, match="solver exceeded 3 nodes"):
        eval_pp_formula(k(3), formula)

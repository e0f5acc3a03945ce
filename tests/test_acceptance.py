"""Acceptance criteria: one test per criterion, at the stated tolerances.

Each test prints a single PASS line with its wall time (visible under -s);
a failed assertion or a budget overrun is the corresponding FAIL.
"""

import random
import time

from finalg.absorption import SearchBudget, absorption_theorem_check, check_absorption
from finalg.catalog import (
    boolean_affine,
    boolean_majority,
    suite_taylor_algebras,
)
from finalg.core import is_cyclic_table, term_table
from finalg.cyclic import (
    arity_spectrum,
    find_cyclic_term,
    has_cyclic_term,
    smallest_cyclic_prime_check,
)
from finalg.csp import digraph_structure, find_homomorphism, p_cycle_relation
from finalg.digraph import (
    Digraph,
    classify_smooth_digraph,
    classify_undirected,
    solve_circle_csp,
)
from finalg.relations import contains_constant, is_cyclic_relation, is_linked, is_subdirect
from finalg.suites import (
    all_one_op_two_element_algebras,
    brute_force_has_cyclic,
    brute_force_homomorphism,
    invariant_binary_relations,
    loop_theorem_suite,
    _random_circle_union,
    _random_digraph,
    _random_instance,
    _random_template,
)


def _report(num, name, t0, limit):
    elapsed = time.time() - t0
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s (limit {limit}s)"
    print(f"[criterion {num}] {name}: PASS ({elapsed:.1f}s < {limit}s)")


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    algebras = all_one_op_two_element_algebras(max_arity=3)
    assert 60 <= len(algebras) <= 80  # "~60" after dedup by table
    mismatches = []
    for alg in algebras:
        decided = has_cyclic_term(alg, 3).has_cyclic_term
        brute = brute_force_has_cyclic(alg, 3)
        if decided != brute:
            mismatches.append(alg.operations[0].table)
    assert not mismatches, f"decision/oracle mismatches: {mismatches}"
    _report(1, f"decision vs clone-search oracle over {len(algebras)} algebras", t0, 60)


def test_criterion_2_prime_arity_theorem():
    t0 = time.time()
    failures = []
    for name, alg in suite_taylor_algebras().items():
        p, decision = smallest_cyclic_prime_check(alg)
        expected_p = 3 if alg.size == 2 else 5
        if p != expected_p or not decision.has_cyclic_term:
            failures.append((name, p, decision.has_cyclic_term))
    assert not failures, failures
    _report(2, "prime-arity cyclic terms on the Taylor suite", t0, 120)


def test_criterion_3_absorption_theorem_exhaustive():
    t0 = time.time()
    budget = SearchBudget(max_arity=4)
    cases = 0
    for name, alg in suite_taylor_algebras().items():
        n = alg.size
        full = n * n
        for rel in invariant_binary_relations(alg):
            if not is_subdirect(rel) or not is_linked(rel):
                continue
            verdict = absorption_theorem_check(alg, alg, rel, budget)
            cases += 1
            if len(rel.tuples) == full:
                assert verdict.kind == "full", f"{name}: full relation misjudged"
            else:
                assert verdict.kind in ("absorption_in_a", "absorption_in_b"), (
                    f"{name}: verdict {verdict.kind} on {rel.sorted_tuples()}"
                )
                w = verdict.witness
                assert check_absorption(alg, w.subuniverse, w.term), (
                    f"{name}: witness failed re-verification"
                )
    assert cases > 0
    _report(3, f"absorption theorem on {cases} exhaustively enumerated relations", t0, 300)


def test_criterion_4_loop_theorem():
    t0 = time.time()
    report = loop_theorem_suite(seed=1)
    assert report.instances >= 200
    assert not report.violations, report.violations[:5]
    assert report.passes == report.instances
    _report(4, f"loop theorem on {report.instances} closed random digraphs", t0, 120)


def brute_bipartite(n, sym_edges):
    undirected = {(u, v) for u, v in sym_edges if u < v}
    for mask in range(2**n):
        if all((mask >> u & 1) != (mask >> v & 1) for u, v in undirected):
            return True
    return False


def test_criterion_5_dichotomy_classifiers():
    t0 = time.time()
    k3 = Digraph.symmetric(3, [(0, 1), (1, 2), (0, 2)])
    assert classify_undirected(k3) == "NPComplete"
    rel, _ = p_cycle_relation(k3, 5)
    assert rel.tuples and is_cyclic_relation(rel) and contains_constant(rel) is None

    # Hell-Nesetril on every loopless graph up to 6 vertices: bipartite
    # graphs are tractable, the rest NP-complete
    verdicts = {"PolynomialTime": 0, "NPComplete": 0}
    for n in range(1, 7):
        pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
        for mask in range(2 ** len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            g = Digraph.symmetric(n, edges)
            expected = "PolynomialTime" if brute_bipartite(n, g.edges) else "NPComplete"
            verdicts[expected] += 1
            assert classify_undirected(g) == expected, sorted(g.edges)
    assert min(verdicts.values()) > 1000

    for k in range(1, 7):
        assert classify_smooth_digraph(Digraph.cycle(k)) == "PolynomialTime", k
    _report(5, f"classifiers: K3, {verdicts['PolynomialTime']} bipartite and "
            f"{verdicts['NPComplete']} non-bipartite graphs, directed cycles", t0, 60)


def test_criterion_6_constructive_synthesis():
    t0 = time.time()
    for alg in (boolean_majority(), boolean_affine()):
        result = find_cyclic_term(alg, 3)
        table = term_table(alg, result.term, 3)
        assert is_cyclic_table(table, 3, alg.size)
        history = result.measure_history
        assert all(a < b for a, b in zip(history, history[1:])), history
    _report(6, "cyclic term synthesis with strictly increasing measure", t0, 10)


def test_criterion_7_spectrum_multiplicativity():
    t0 = time.time()
    spectrum = arity_spectrum(boolean_majority(), 9).members
    assert 3 in spectrum and 9 in spectrum
    violations = []
    for m in range(2, 10):
        for n in range(2, 10):
            if m * n > 9:
                continue
            if ((m in spectrum) and (n in spectrum)) != ((m * n) in spectrum):
                violations.append((m, n))
    assert not violations, violations
    _report(7, f"spectrum multiplicativity over {sorted(spectrum)}", t0, 60)


def test_criterion_8_solver_oracles():
    t0 = time.time()
    rng = random.Random(1)
    for _ in range(500):
        template = _random_template(rng)
        instance = _random_instance(rng, template)
        assert instance.size <= 6 and template.size <= 3
        fast = find_homomorphism(instance, template)
        brute = brute_force_homomorphism(instance, template)
        assert (fast is None) == (brute is None)
    for _ in range(200):
        template = _random_circle_union(rng)
        instance = _random_digraph(rng)
        fast = solve_circle_csp(instance, template)
        brute = brute_force_homomorphism(
            digraph_structure(instance), digraph_structure(template)
        )
        assert (fast is None) == (brute is None)
    _report(8, "homomorphism and circle solvers vs exhaustive search", t0, 60)

"""Smooth digraphs: components, algebraic length, loops, and classifiers."""

import itertools
import math
import random

import pytest

from finalg.absorption import SearchBudget
from finalg.catalog import boolean_majority, projections_only
from finalg.core import power
from finalg.digraph import (
    BACKWARD,
    FORWARD,
    Digraph,
    OrientedPath,
    algebraic_length,
    classify_smooth_digraph,
    classify_undirected,
    digraph_algebraic_length,
    find_loop_smooth_taylor,
    is_circle,
    is_disjoint_union_of_circles,
    path_image,
    smooth_part,
    solve_circle_csp,
    weak_components,
)
from finalg.errors import InvalidInput
from finalg.relations import is_subuniverse_of_power


def closed_walk_lengths(g, max_len):
    """Oracle: algebraic lengths of closed oriented walks up to max_len edges."""
    lengths = set()
    for start in range(g.vertices):
        frontier = {(start, 0)}
        for _ in range(max_len):
            nxt = set()
            for v, al in frontier:
                for w in g.succ[v]:
                    nxt.add((w, al + 1))
                for w in g.pred[v]:
                    nxt.add((w, al - 1))
            for v, al in nxt:
                if v == start and al > 0:
                    lengths.add(al)
            frontier = nxt
    return lengths


def test_smooth_part_examples():
    g = Digraph.build(3, [(0, 1), (1, 2), (2, 2)])
    assert smooth_part(g, range(3)) == {2}
    c3 = Digraph.cycle(3)
    assert smooth_part(c3, range(3)) == {0, 1, 2}
    dag = Digraph.build(3, [(0, 1), (1, 2)])
    assert smooth_part(dag, range(3)) == frozenset()


def test_components():
    g = Digraph.build(4, [(0, 1), (2, 3)])
    assert len(weak_components(g)) == 2
    path = Digraph.build(3, [(0, 1), (1, 2)])
    assert len(weak_components(path)) == 1


def test_algebraic_length_examples():
    loop = Digraph.build(1, [(0, 0)])
    assert algebraic_length(loop, [0]) == 1
    c3 = Digraph.cycle(3)
    assert algebraic_length(c3, range(3)) == 3
    two = Digraph.build(2, [(0, 1), (1, 0)])
    assert algebraic_length(two, range(2)) == 2
    dag = Digraph.build(3, [(0, 1), (1, 2)])
    assert algebraic_length(dag, range(3)) is None


def test_algebraic_length_matches_walk_gcd():
    rng = random.Random(12)
    for _ in range(60):
        n = rng.randint(1, 5)
        pairs = list(itertools.product(range(n), repeat=2))
        g = Digraph.build(n, rng.sample(pairs, rng.randint(0, min(8, len(pairs)))))
        for comp in weak_components(g):
            d = algebraic_length(g, comp)
            walked = closed_walk_lengths(g.induced(comp), 2 * g.vertices)
            walked = {al for al in walked if al > 0}
            if d is None:
                assert not walked
            else:
                assert walked, f"potential gcd {d} but no closed walks"
                assert math.gcd(*walked) == d if len(walked) > 1 else min(walked) % d == 0
                assert min(walked) >= d


def test_path_image():
    g = Digraph.build(3, [(0, 1), (2, 1)])
    assert path_image(g, {0}, OrientedPath(())) == {0}
    assert path_image(g, {0}, OrientedPath((FORWARD, BACKWARD))) == {0, 2}


def test_smooth_reachability_by_any_same_length_path():
    # on smooth digraphs a forward-k connection transfers to every path of
    # algebraic length k (first reachability property)
    rng = random.Random(8)
    paths = [
        OrientedPath(p)
        for L in range(1, 6)
        for p in itertools.product((FORWARD, BACKWARD), repeat=L)
    ]
    for _ in range(25):
        n = rng.randint(2, 5)
        pairs = list(itertools.product(range(n), repeat=2))
        g = Digraph.build(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        if not g.is_smooth():
            continue
        for k in range(1, 4):
            reach = {
                (a, b)
                for a in range(n)
                for b in path_image(g, {a}, OrientedPath((FORWARD,) * k))
            }
            for p in paths:
                if p.algebraic_length != k or len(p.steps) > 8:
                    continue
                for a, b in reach:
                    assert b in path_image(g, {a}, p)


def test_forward_closed_subset_contains_cycle():
    # third reachability property: H inside its own forward image
    rng = random.Random(15)
    for _ in range(40):
        n = rng.randint(2, 5)
        pairs = list(itertools.product(range(n), repeat=2))
        g = Digraph.build(n, rng.sample(pairs, rng.randint(1, len(pairs))))
        for mask in range(1, 2**n):
            H = {v for v in range(n) if mask >> v & 1}
            grown = path_image(g, H, OrientedPath((FORWARD,)))
            if H <= grown or H <= path_image(g, H, OrientedPath((BACKWARD,))):
                assert smooth_part(g, H)


def test_find_loop_full_square_over_majority():
    maj = boolean_majority()
    full = Digraph.build(2, [(0, 0), (0, 1), (1, 0), (1, 1)])
    report = find_loop_smooth_taylor(full, maj)
    assert (report.vertex, report.vertex) in full.edges
    assert report.minimal_set is not None
    assert report.minimal_vertex in report.minimal_set
    assert (report.minimal_vertex, report.minimal_vertex) in full.edges


def test_find_loop_requires_taylor():
    g = Digraph.build(2, [(0, 1), (1, 0)])
    with pytest.raises(InvalidInput):
        find_loop_smooth_taylor(g, projections_only())


def test_find_loop_requires_premises():
    maj = boolean_majority()
    with pytest.raises(InvalidInput):
        find_loop_smooth_taylor(Digraph.build(2, [(0, 1)]), maj)  # not smooth
    with pytest.raises(InvalidInput):
        # smooth, invariant, but algebraic length 2
        find_loop_smooth_taylor(Digraph.build(2, [(0, 1), (1, 0)]), maj)


def test_loop_theorem_on_invariant_squares():
    # every smooth invariant digraph of algebraic length one over the square
    # of the majority algebra carries a loop
    base = boolean_majority()
    maj2 = power(base, 2)
    rng = random.Random(3)
    pairs = list(itertools.product(range(4), repeat=2))
    from finalg import kernels
    # edge pairs over the 4-element square are 4-digit base-2 codes
    flat, offsets, arities = base.packed
    for _ in range(60):
        chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
        codes = sorted(a * 4 + b for a, b in chosen)
        members = kernels.closure_members(flat, offsets, arities, 2, 4, codes)
        g = Digraph.build(4, [divmod(int(c), 4) for c in members])
        assert is_subuniverse_of_power(maj2, g.edge_relation())
        if not g.is_smooth():
            continue
        if not any(algebraic_length(g, c) == 1 for c in weak_components(g)):
            continue
        report = find_loop_smooth_taylor(g, maj2, SearchBudget(max_tables=500))
        assert (report.vertex, report.vertex) in g.edges


def test_smooth_part_preserves_closure_and_absorption():
    # over an invariant digraph, the smooth part of a subuniverse is a
    # subuniverse, and of an absorbing set absorbs with the same term
    from finalg.absorption import absorption_report, check_absorption
    from finalg.core import generate_subuniverse
    from finalg.absorption import enumerate_subuniverses
    rng = random.Random(27)
    for alg in (boolean_majority(),):
        n = alg.size
        pairs = list(itertools.product(range(n), repeat=2))
        from finalg import kernels
        flat, offsets, arities = alg.packed
        for _ in range(40):
            chosen = rng.sample(pairs, rng.randint(1, len(pairs)))
            codes = sorted(a * n + b for a, b in chosen)
            members = kernels.closure_members(flat, offsets, arities, n, 2, codes)
            g = Digraph.build(n, [divmod(int(c), n) for c in members])
            for B in enumerate_subuniverses(alg):
                part = smooth_part(g, B)
                if part:
                    assert generate_subuniverse(alg, part) == part
            for w in absorption_report(alg).proper_absorbing:
                part = smooth_part(g, w.subuniverse)
                if part:
                    assert check_absorption(alg, part, w.term)


def test_circles():
    assert is_circle(Digraph.cycle(3), range(3))
    assert is_circle(Digraph.build(1, [(0, 0)]), [0])
    chord = Digraph.build(3, [(0, 1), (1, 2), (2, 0), (0, 2)])
    assert not is_circle(chord, range(3))
    two_circles = Digraph.build(5, [(0, 1), (1, 0), (2, 3), (3, 4), (4, 2)])
    assert is_disjoint_union_of_circles(two_circles)
    assert not is_disjoint_union_of_circles(chord)


def test_classify_smooth():
    assert classify_smooth_digraph(Digraph.cycle(3)) == "PolynomialTime"
    k3 = Digraph.symmetric(3, [(0, 1), (1, 2), (0, 2)])
    assert classify_smooth_digraph(k3) == "NPComplete"
    assert classify_smooth_digraph(Digraph.build(1, [(0, 0)])) == "PolynomialTime"
    with pytest.raises(InvalidInput):
        classify_smooth_digraph(Digraph.build(2, [(0, 1)]))


def test_classify_undirected():
    k3 = Digraph.symmetric(3, [(0, 1), (1, 2), (0, 2)])
    assert classify_undirected(k3) == "NPComplete"
    edge = Digraph.symmetric(2, [(0, 1)])
    assert classify_undirected(edge) == "PolynomialTime"
    c4 = Digraph.symmetric(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    assert classify_undirected(c4) == "PolynomialTime"
    looped = Digraph.build(1, [(0, 0)])
    assert classify_undirected(looped) == "PolynomialTime"
    with pytest.raises(InvalidInput):
        classify_undirected(Digraph.build(2, [(0, 1)]))


def test_classify_verdicts_isomorphism_invariant():
    rng = random.Random(19)
    for _ in range(15):
        n = rng.randint(2, 5)
        base_edges = {tuple(sorted((rng.randrange(n), rng.randrange(n))))
                      for _ in range(rng.randint(1, 6))}
        base_edges = {(u, v) for u, v in base_edges if u != v}
        if not base_edges:
            continue
        g = Digraph.symmetric(n, base_edges)
        perm = list(range(n))
        rng.shuffle(perm)
        h = Digraph.build(n, [(perm[u], perm[v]) for u, v in g.edges])
        assert classify_undirected(g) == classify_undirected(h)


def test_solve_circle_examples():
    c3 = Digraph.cycle(3)
    assert solve_circle_csp(Digraph.cycle(6), c3) is not None
    assert solve_circle_csp(Digraph.cycle(4), c3) is None
    lone = Digraph.build(1, [])
    assert solve_circle_csp(lone, c3) is not None
    with pytest.raises(InvalidInput):
        solve_circle_csp(c3, Digraph.symmetric(3, [(0, 1), (1, 2), (0, 2)]))


def test_digraph_algebraic_length_is_component_minimum():
    g = Digraph.build(5, [(0, 0), (1, 2), (2, 3), (3, 1)])
    assert digraph_algebraic_length(g) == 1
    g = Digraph.build(3, [(1, 2), (2, 1)])
    assert digraph_algebraic_length(g) == 2

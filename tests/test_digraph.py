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


# ---------------------------------------------------------------------------
# the one potential traversal against the four traversals it replaced


def _reference_weak_components(g):
    comp = [-1] * g.vertices
    out = []
    for start in range(g.vertices):
        if comp[start] != -1:
            continue
        cid = len(out)
        queue = [start]
        comp[start] = cid
        members = [start]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in g.succ[v] + g.pred[v]:
                if comp[w] == -1:
                    comp[w] = cid
                    members.append(w)
                    queue.append(w)
        out.append(frozenset(members))
    return out


def _reference_potentials(g, comp):
    root = min(comp)
    pot = {root: 0}
    queue = [root]
    qi = 0
    while qi < len(queue):
        v = queue[qi]
        qi += 1
        for w in g.succ[v]:
            if w in comp and w not in pot:
                pot[w] = pot[v] + 1
                queue.append(w)
        for w in g.pred[v]:
            if w in comp and w not in pot:
                pot[w] = pot[v] - 1
                queue.append(w)
    if set(pot) != comp:
        raise InvalidInput("vertex set is not a single weak component")
    return pot


def _reference_algebraic_length(g, component):
    comp = set(component)
    if not comp:
        raise InvalidInput("empty component")
    pot = _reference_potentials(g, comp)
    d = 0
    for u, v in sorted(g.edges):
        if u in comp and v in comp:
            d = math.gcd(d, abs(pot[u] + 1 - pot[v]))
    return d if d > 0 else None


def _reference_digraph_algebraic_length(g):
    lengths = [_reference_algebraic_length(g, c) for c in _reference_weak_components(g)]
    return min((d for d in lengths if d is not None), default=None)


def _reference_is_circle(g, component):
    comp = sorted(set(component))
    edges = [(u, v) for u, v in g.edges if u in set(comp) and v in set(comp)]
    if len(edges) != len(comp):
        return False
    succ = {}
    for u, v in edges:
        if u in succ:
            return False
        succ[u] = v
    if set(succ) != set(comp):
        return False
    cur = comp[0]
    for _ in range(len(comp)):
        cur = succ[cur]
    if cur != comp[0]:
        return False
    seen = {comp[0]}
    cur = succ[comp[0]]
    while cur not in seen:
        seen.add(cur)
        cur = succ[cur]
    return len(seen) == len(comp)


def _reference_is_disjoint_union_of_circles(g):
    return all(_reference_is_circle(g, c) for c in _reference_weak_components(g))


def _reference_classify_undirected(g):
    if not g.is_symmetric():
        raise InvalidInput("undirected classifier requires a symmetric edge set")
    if g.loops():
        return "PolynomialTime"
    color = [-1] * g.vertices
    for start in range(g.vertices):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        qi = 0
        while qi < len(queue):
            v = queue[qi]
            qi += 1
            for w in g.succ[v]:
                if color[w] == -1:
                    color[w] = 1 - color[v]
                    queue.append(w)
                elif color[w] == color[v]:
                    return "NPComplete"
    return "PolynomialTime"


def _reference_solve_circle_csp(instance, template):
    if not _reference_is_disjoint_union_of_circles(template):
        raise InvalidInput("template is not a disjoint union of circles")
    circles = []
    for comp in _reference_weak_components(template):
        order = [min(comp)]
        succ = {u: v for u, v in template.edges if u in comp}
        while len(order) < len(comp):
            order.append(succ[order[-1]])
        circles.append(order)
    circles.sort(key=len)
    mapping = [-1] * instance.vertices
    for comp in _reference_weak_components(instance):
        d = _reference_algebraic_length(instance, comp)
        target = next((c for c in circles if d is None or d % len(c) == 0), None)
        if target is None:
            return None
        pot = _reference_potentials(instance, comp)
        for v in comp:
            mapping[v] = target[pot[v] % len(target)]
    return tuple(mapping)


def _outcome(fn, *args):
    try:
        return fn(*args)
    except InvalidInput as exc:
        return f"InvalidInput: {exc}"


# disjoint unions of circles, with their vertices renamed off the cycle
# order: a 2-circle beside a 3-circle, and a 4-circle
CIRCLE_TEMPLATES = (
    Digraph.build(5, [(0, 3), (3, 0), (1, 4), (4, 2), (2, 1)]),
    Digraph.build(4, [(0, 2), (2, 1), (1, 3), (3, 0)]),
)
# instances for a circle-union digraph drawn as the template
CIRCLE_INSTANCES = (
    Digraph.build(1, []),
    Digraph.cycle(6),
    Digraph.build(4, [(0, 1), (2, 1), (2, 3), (3, 3)]),
    Digraph.build(5, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 3)]),
)


def assert_matches_reference(g):
    """Every digraph question the potential forest answers, against the
    traversals it replaced, on g and each nonempty vertex subset of it."""
    n = g.vertices
    assert weak_components(g) == _reference_weak_components(g)
    assert digraph_algebraic_length(g) == _reference_digraph_algebraic_length(g)
    for mask in range(1, 2**n):
        subset = [v for v in range(n) if mask >> v & 1]
        assert _outcome(algebraic_length, g, subset) == \
            _outcome(_reference_algebraic_length, g, subset), (sorted(g.edges), subset)
        assert is_circle(g, subset) == _reference_is_circle(g, subset), (sorted(g.edges), subset)
    circles = is_disjoint_union_of_circles(g)
    assert circles == _reference_is_disjoint_union_of_circles(g)
    if g.is_symmetric():
        assert classify_undirected(g) == _reference_classify_undirected(g)
    for template in CIRCLE_TEMPLATES:
        assert solve_circle_csp(g, template) == _reference_solve_circle_csp(g, template)
    if circles:
        for instance in CIRCLE_INSTANCES:
            assert solve_circle_csp(instance, g) == _reference_solve_circle_csp(instance, g)


def all_digraphs(n):
    pairs = list(itertools.product(range(n), repeat=2))
    for mask in range(2 ** len(pairs)):
        yield Digraph.build(n, [pairs[i] for i in range(len(pairs)) if mask >> i & 1])


def check_all_digraphs(max_n):
    """The reference comparison on every digraph on 1..max_n vertices; CI
    runs it at max_n = 4 (66,066 digraphs)."""
    count = 0
    for n in range(1, max_n + 1):
        for g in all_digraphs(n):
            assert_matches_reference(g)
            count += 1
    return count


def test_forest_matches_reference_on_all_digraphs_up_to_three_vertices():
    assert check_all_digraphs(3) == 2 + 16 + 512


def test_forest_matches_reference_on_random_digraphs():
    rng = random.Random(27)
    symmetric = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        if rng.random() < 0.3:
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            g = Digraph.symmetric(n, rng.sample(pairs, rng.randint(0, len(pairs))))
            symmetric += 1
        else:
            pairs = list(itertools.product(range(n), repeat=2))
            g = Digraph.build(n, rng.sample(pairs, rng.randint(0, min(12, len(pairs)))))
        assert_matches_reference(g)
    assert symmetric > 50


def test_vertex_sets_outside_the_graph_are_refused():
    # vertex 2 carries a loop: a negative index used to read it
    g = Digraph.build(3, [(0, 1), (2, 2)])
    for bad in ([-1], [5], [0, 3]):
        with pytest.raises(InvalidInput, match="vertex out of range"):
            algebraic_length(g, bad)
        with pytest.raises(InvalidInput, match="vertex out of range"):
            is_circle(g, bad)
    with pytest.raises(InvalidInput, match="empty component"):
        algebraic_length(g, [])
    assert not is_circle(g, [])
    assert is_circle(g, [2]) and algebraic_length(g, [2]) == 1

"""The numpy brute-force homomorphism oracle against the pure-Python loop it
replaced: the same first map in product order, on the oracle suite's own
instance streams and on hand-made edge cases."""

import itertools
import random

import pytest

from finalg import suites
from finalg.csp import RelationalStructure, digraph_structure, find_homomorphism, structure
from finalg.errors import InvalidInput
from finalg.relations import Relation
from finalg.suites import brute_force_homomorphism


def _reference_brute_force(x: RelationalStructure, a: RelationalStructure):
    for mapping in itertools.product(range(a.size), repeat=x.size):
        ok = True
        for (name, rx), (_, ra) in zip(x.relations, a.relations):
            for t in rx.tuples:
                if tuple(mapping[v] for v in t) not in ra.tuples:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return mapping
    return None


def _oracle_streams(seed, hom_count, circle_count):
    """The first instances of `oracles_suite`'s hom and circle streams,
    drawn from the same `random.Random(seed)` in the same order."""
    rng = random.Random(seed)
    pairs = []
    for i in range(500):
        template = suites._random_template(rng)
        instance = suites._random_instance(rng, template)
        if i < hom_count:
            pairs.append((instance, template))
    for _ in range(circle_count):
        template = suites._random_circle_union(rng)
        instance = suites._random_digraph(rng)
        pairs.append((digraph_structure(instance), digraph_structure(template)))
    return pairs


def _assert_same(x, a):
    expected = _reference_brute_force(x, a)
    got = brute_force_homomorphism(x, a)
    assert got == expected, (x, a)
    if got is not None:
        assert type(got) is tuple and all(type(v) is int for v in got)
    return got


# The reference loop takes about 2 s per million maps; the one instance above
# this (seed 105, 12**6 maps, unsatisfiable) is checked against the solver.
REFERENCE_MAPS = 10**6


@pytest.mark.parametrize("seed", [1, 7, 105])
def test_oracle_streams_match_reference(seed):
    found = []
    for x, a in _oracle_streams(seed, 150, 60):
        if a.size ** x.size <= REFERENCE_MAPS:
            found.append(_assert_same(x, a))
        else:
            assert (brute_force_homomorphism(x, a) is None) == (find_homomorphism(x, a) is None)
    assert any(f is None for f in found) and any(f is not None for f in found)


def _unary(size, name, values):
    return (name, Relation(1, (size,), frozenset((v,) for v in values)))


def _rel(size, name, arity, tuples):
    return (name, Relation(arity, (size,) * arity, frozenset(map(tuple, tuples))))


EDGE_CASES = {
    "empty X": (
        RelationalStructure(0, (_rel(0, "E", 2, []),)),
        structure(2, {"E": [(0, 1)]}),
    ),
    "one-element A, satisfiable": (
        structure(3, {"E": [(0, 1), (1, 2)]}),
        structure(1, {"E": [(0, 0)]}),
    ),
    "one-element A, unsatisfiable": (
        structure(3, {"E": [(0, 1), (1, 2)]}),
        RelationalStructure(1, (_rel(1, "E", 2, []),)),
    ),
    "empty relation of A": (
        RelationalStructure(3, (_rel(3, "E", 2, [(0, 2)]), _unary(3, "U", [1]))),
        RelationalStructure(2, (_rel(2, "E", 2, [(1, 0)]), _unary(2, "U", []))),
    ),
    "empty relation of X": (
        RelationalStructure(3, (_rel(3, "E", 2, []), _unary(3, "U", [2]))),
        RelationalStructure(2, (_rel(2, "E", 2, [(1, 0)]), _unary(2, "U", [1]))),
    ),
    "unary and ternary": (
        RelationalStructure(4, (
            _unary(4, "U", [0, 3]),
            _rel(4, "T", 3, [(0, 1, 2), (1, 2, 3), (3, 0, 1)]),
        )),
        RelationalStructure(3, (
            _unary(3, "U", [2]),
            _rel(3, "T", 3, [(a, b, c) for a, b, c in itertools.product(range(3), repeat=3)
                             if (a + b + c) % 3 == 1]),
        )),
    ),
    "repeated variable": (
        structure(3, {"E": [(1, 1), (0, 1), (2, 0)]}),
        structure(3, {"E": [(0, 1), (1, 2), (2, 2), (2, 0)]}),
    ),
    "repeated variable, unsatisfiable": (
        structure(2, {"E": [(0, 0), (0, 1)]}),
        structure(3, {"E": [(0, 1), (1, 2), (2, 0)]}),
    ),
    "ternary with repeats": (
        RelationalStructure(3, (_rel(3, "T", 3, [(0, 0, 1), (1, 2, 1), (2, 2, 2)]),)),
        RelationalStructure(2, (_rel(2, "T", 3, [(1, 1, 0), (0, 1, 0), (0, 0, 0)]),)),
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_CASES))
def test_edge_cases_match_reference(name):
    _assert_same(*EDGE_CASES[name])


def test_edge_case_answers():
    assert brute_force_homomorphism(*EDGE_CASES["empty X"]) == ()
    assert brute_force_homomorphism(*EDGE_CASES["one-element A, satisfiable"]) == (0, 0, 0)
    assert brute_force_homomorphism(*EDGE_CASES["one-element A, unsatisfiable"]) is None
    assert brute_force_homomorphism(*EDGE_CASES["empty relation of A"]) is None
    assert brute_force_homomorphism(*EDGE_CASES["empty relation of X"]) == (0, 0, 1)
    assert brute_force_homomorphism(*EDGE_CASES["repeated variable"]) == (1, 2, 0)
    assert brute_force_homomorphism(*EDGE_CASES["repeated variable, unsatisfiable"]) is None


@pytest.mark.parametrize("chunk", [1, 3])
def test_small_chunks_match_reference(monkeypatch, chunk):
    monkeypatch.setattr(suites, "ORACLE_CHUNK", chunk)
    for x, a in list(EDGE_CASES.values()) + _oracle_streams(1, 40, 15):
        _assert_same(x, a)


def test_late_first_map_crosses_chunks():
    # the only map, the last of 7**5, lies in the ninth chunk of 64 * 2**i maps
    path = structure(5, {"E": [(i, i + 1) for i in range(4)]})
    target = structure(7, {"E": [(6, 6)]})
    assert _assert_same(path, target) == (6,) * 5


def test_signature_mismatch():
    binary = structure(2, {"E": [(0, 1)]})
    unary = RelationalStructure(2, (_unary(2, "E", [0, 1]),))
    renamed = structure(2, {"F": [(0, 1)]})
    for x, a in ((binary, unary), (unary, binary), (binary, renamed)):
        with pytest.raises(InvalidInput):
            brute_force_homomorphism(x, a)


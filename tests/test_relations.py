"""Relations: subdirectness, composition, neighborhoods, linkedness, shifts."""

import random

import pytest

from finalg.catalog import boolean_meet, boolean_majority
from finalg.errors import InvalidInput
from finalg.relations import (
    Relation,
    compose,
    contains_constant,
    cyclic_shift,
    is_cyclic_relation,
    is_linked,
    is_subdirect,
    is_subuniverse_of_power,
    iterate,
    plus_neighborhood,
    shift_orbit,
)


def rel(pairs, na=2, nb=2):
    return Relation.binary(na, nb, pairs)


def test_is_subdirect():
    assert is_subdirect(rel([(0, 0), (1, 1)]))
    assert not is_subdirect(rel([(0, 0), (0, 1)]))
    assert is_subdirect(Relation.full((2, 2)))


def test_compose_identity_and_disjoint():
    r = rel([(0, 1), (1, 0)])
    assert compose(Relation.identity(2), r).tuples == r.tuples
    assert iterate(r, 2).tuples == Relation.identity(2).tuples
    s = rel([(0, 0)])
    t = rel([(1, 1)])
    assert compose(t, s).tuples == frozenset()


def test_compose_matches_pair_enumeration():
    rng = random.Random(2)
    for _ in range(40):
        na, nb, nc = (rng.randint(1, 4) for _ in range(3))
        r = Relation.binary(na, nb, {(rng.randrange(na), rng.randrange(nb))
                                     for _ in range(rng.randint(0, 6))})
        s = Relation.binary(nb, nc, {(rng.randrange(nb), rng.randrange(nc))
                                     for _ in range(rng.randint(0, 6))})
        expected = {
            (a, c)
            for a in range(na)
            for c in range(nc)
            if any((a, b) in r.tuples and (b, c) in s.tuples for b in range(nb))
        }
        assert compose(s, r).tuples == frozenset(expected)


def test_compose_associative():
    rng = random.Random(9)
    for _ in range(30):
        sizes = [rng.randint(1, 4) for _ in range(4)]
        rels = [
            Relation.binary(sizes[i], sizes[i + 1],
                            {(rng.randrange(sizes[i]), rng.randrange(sizes[i + 1]))
                             for _ in range(rng.randint(0, 5))})
            for i in range(3)
        ]
        r, s, t = rels
        left = compose(t, compose(s, r))
        right = compose(compose(t, s), r)
        assert left.tuples == right.tuples


def test_neighborhoods():
    r = rel([(0, 0), (0, 1), (1, 1)])
    assert plus_neighborhood(r, set()) == frozenset()
    assert plus_neighborhood(r, {0}) == {0, 1}


def test_neighborhood_monotonicity_and_subdirect_image():
    rng = random.Random(4)
    for _ in range(30):
        na, nb = rng.randint(1, 5), rng.randint(1, 5)
        pairs = {(rng.randrange(na), rng.randrange(nb)) for _ in range(rng.randint(1, 10))}
        r = Relation.binary(na, nb, pairs)
        x = set(rng.sample(range(na), rng.randint(0, na)))
        y = x | {rng.randrange(na)}
        assert plus_neighborhood(r, x) <= plus_neighborhood(r, y)
        if is_subdirect(r):
            assert plus_neighborhood(r, range(na)) == frozenset(range(nb))


def union_find_linked(r):
    """Independent oracle: union-find over the bipartite vertex set."""
    parent = {}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in r.tuples:
        for node in (("L", a), ("R", b)):
            parent.setdefault(node, node)
        ra, rb = find(("L", a)), find(("R", b))
        parent[ra] = rb
    roots = {find(node) for node in parent}
    return len(parent) > 0 and len(roots) == 1


def test_is_linked_examples():
    assert is_linked(rel([(0, 0), (0, 1), (1, 1)]))
    assert not is_linked(rel([(0, 0), (1, 1)]))
    assert is_linked(Relation.full((3, 2)))
    assert not is_linked(rel([]))


def test_is_linked_matches_union_find():
    rng = random.Random(13)
    for _ in range(200):
        na, nb = rng.randint(1, 6), rng.randint(1, 6)
        pairs = {(rng.randrange(na), rng.randrange(nb))
                 for _ in range(rng.randint(0, 12))}
        r = Relation.binary(na, nb, pairs)
        assert is_linked(r) == union_find_linked(r)


def test_cyclic_shift_and_orbits():
    assert cyclic_shift((0, 1, 2)) == (1, 2, 0)
    assert shift_orbit((1, 1, 1)) == {(1, 1, 1)}
    orbit = shift_orbit((0, 1, 1))
    assert orbit == {(0, 1, 1), (1, 1, 0), (1, 0, 1)}
    r = Relation(3, (2, 2, 2), frozenset(orbit))
    assert is_cyclic_relation(r)
    assert contains_constant(r) is None
    full = Relation.full((2, 2, 2))
    assert is_cyclic_relation(full)
    assert contains_constant(full) == 0


def test_shift_orbit_closure_property():
    rng = random.Random(17)
    for _ in range(40):
        k = rng.randint(2, 5)
        t = tuple(rng.randrange(3) for _ in range(k))
        orbit = shift_orbit(t)
        for member in orbit:
            assert shift_orbit(member) == orbit
        cur = t
        for _ in range(k):
            cur = cyclic_shift(cur)
        assert cur == t


def test_is_subuniverse_of_power():
    meet = boolean_meet()
    assert is_subuniverse_of_power(meet, Relation.identity(2))
    assert is_subuniverse_of_power(meet, rel([(0, 1)]))
    assert not is_subuniverse_of_power(meet, rel([(0, 1), (1, 0)]))
    maj = boolean_majority()
    assert is_subuniverse_of_power(maj, rel([(0, 1), (1, 0)]))


def test_relation_validation():
    with pytest.raises(InvalidInput):
        Relation(2, (2, 2), frozenset({(0, 2)}))
    with pytest.raises(InvalidInput):
        Relation(2, (2,), frozenset())
    with pytest.raises(InvalidInput):
        compose(rel([(0, 0)], 2, 2), Relation.binary(2, 3, [(0, 0)]))

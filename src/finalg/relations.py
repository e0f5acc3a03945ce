"""Explicit finitary relations: subdirectness, composition, neighborhoods,
linkedness, and cyclic shifts.

Binary relations additionally carry a bit-matrix view (one int bitmask per
row) used by composition, neighborhoods and linkedness, which dominate the
binary-relation workload.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from . import kernels
from .core import FiniteAlgebra, decode_tuple, encode_tuple
from .errors import InvalidInput


def _ints_in_bounds(tuples, arity: int, sizes: tuple[int, ...]) -> bool:
    """Are the tuples all of the arity, with exact int entries in [0, n)
    over equal sizes n?  Each test is one pass at C speed; False sends a
    relation to the per-tuple checks."""
    entries = itertools.chain.from_iterable
    try:
        if len(set(sizes)) != 1 or not set(map(len, tuples)) <= {arity}:
            return False
        if not set(map(type, entries(tuples))) <= {int}:
            return False
    except TypeError:  # an entry that is no tuple
        return False
    values = set(entries(tuples))
    return not values or (min(values) >= 0 and max(values) < sizes[0])


@dataclass(frozen=True)
class Relation:
    arity: int
    sizes: tuple[int, ...]
    tuples: frozenset[tuple[int, ...]]

    def __post_init__(self):
        if self.arity < 1 or len(self.sizes) != self.arity:
            raise InvalidInput("relation arity/sizes mismatch")
        if _ints_in_bounds(self.tuples, self.arity, self.sizes):
            return
        # the first offender, if any, in the tuples' own order
        for t in self.tuples:
            if len(t) != self.arity:
                raise InvalidInput(f"tuple {t} has wrong arity")
            if any(not (0 <= a < s) for a, s in zip(t, self.sizes)):
                raise InvalidInput(f"tuple {t} out of bounds")

    @staticmethod
    def binary(size_a: int, size_b: int, pairs) -> "Relation":
        return Relation(2, (size_a, size_b), frozenset((a, b) for a, b in pairs))

    @staticmethod
    def full(sizes) -> "Relation":
        sizes = tuple(sizes)
        return Relation(
            len(sizes), sizes, frozenset(itertools.product(*(range(s) for s in sizes)))
        )

    @staticmethod
    def identity(n: int) -> "Relation":
        return Relation(2, (n, n), frozenset((a, a) for a in range(n)))

    def sorted_tuples(self) -> list[tuple[int, ...]]:
        return sorted(self.tuples)

    def project(self, coord: int) -> set[int]:
        return {t[coord] for t in self.tuples}

    @cached_property
    def rows(self) -> tuple[int, ...]:
        """Bitmask of second coordinates per first coordinate (binary only)."""
        self._require_binary()
        out = [0] * self.sizes[0]
        for a, b in self.tuples:
            out[a] |= 1 << b
        return tuple(out)

    @cached_property
    def cols(self) -> tuple[int, ...]:
        self._require_binary()
        out = [0] * self.sizes[1]
        for a, b in self.tuples:
            out[b] |= 1 << a
        return tuple(out)

    def _require_binary(self):
        if self.arity != 2:
            raise InvalidInput("binary relation required")


def is_subdirect(r: Relation) -> bool:
    """Every coordinate projection is the whole factor universe."""
    return all(len(r.project(i)) == r.sizes[i] for i in range(r.arity))


def _image(masks, within: int) -> int:
    """OR of masks[i] over the set bits i of `within`."""
    out = 0
    for i, mask in enumerate(masks):
        if within >> i & 1:
            out |= mask
    return out


def compose(s: Relation, r: Relation) -> Relation:
    """S o R = {(a,c) : exists b, (a,b) in R and (b,c) in S}."""
    s._require_binary()
    r._require_binary()
    if r.sizes[1] != s.sizes[0]:
        raise InvalidInput("middle universes do not match")
    pairs = []
    for a in range(r.sizes[0]):
        out = _image(s.rows, r.rows[a])
        for c in range(s.sizes[1]):
            if out >> c & 1:
                pairs.append((a, c))
    return Relation.binary(r.sizes[0], s.sizes[1], pairs)


def iterate(r: Relation, m: int) -> Relation:
    if m < 1:
        raise InvalidInput("iteration count must be >= 1")
    out = r
    for _ in range(m - 1):
        out = compose(r, out)
    return out


def plus_neighborhood(r: Relation, X) -> frozenset[int]:
    """X^{+R}: everything R-reachable from X on the left."""
    r._require_binary()
    out = 0
    for a in X:
        out |= r.rows[a]
    return frozenset(b for b in range(r.sizes[1]) if out >> b & 1)


# ---------------------------------------------------------------------------
# linkedness


def is_linked(r: Relation) -> bool:
    """One component after deleting isolated vertices; empty relations are not linked.

    One breadth-first sweep of the bipartite graph from the least left
    vertex with a pair, a frontier of left and of right vertices at a time;
    every right vertex with a pair is next to a left one, so the relation is
    linked when the sweep reaches every left vertex with a pair.
    """
    occupied = 0
    for a, mask in enumerate(r.rows):
        if mask:
            occupied |= 1 << a
    reached = frontier = occupied & -occupied
    right = 0
    while frontier:
        fresh = _image(r.rows, frontier) & ~right
        right |= fresh
        frontier = _image(r.cols, fresh) & ~reached
        reached |= frontier
    return bool(occupied) and reached == occupied


# ---------------------------------------------------------------------------
# cyclic shifts and invariance


def cyclic_shift(t: tuple[int, ...]) -> tuple[int, ...]:
    return t[1:] + t[:1]


def shift_orbit(t: tuple[int, ...]) -> frozenset[tuple[int, ...]]:
    out = set()
    cur = t
    while cur not in out:
        out.add(cur)
        cur = cyclic_shift(cur)
    return frozenset(out)


def is_cyclic_relation(r: Relation) -> bool:
    """Closure of the tuple set under one left shift."""
    if len(set(r.sizes)) != 1:
        raise InvalidInput("cyclic relations need one shared universe")
    return all(cyclic_shift(t) in r.tuples for t in r.tuples)


def contains_constant(r: Relation):
    """A witness element a with (a,..,a) in r, or None."""
    for t in r.sorted_tuples():
        if len(set(t)) == 1:
            return t[0]
    return None


def is_subuniverse_of_power(alg: FiniteAlgebra, r: Relation) -> bool:
    """The tuple set is closed under every basic operation applied coordinatewise."""
    if any(s != alg.size for s in r.sizes):
        raise InvalidInput("relation coordinates must live on the algebra's universe")
    if not r.tuples:
        return True
    codes = sorted(encode_tuple(t, alg.size) for t in r.tuples)
    flat, offsets, arities = alg.packed
    return kernels.is_closed(flat, offsets, arities, alg.size, r.arity, codes)


def relation_from_codes(codes, n: int, k: int) -> Relation:
    return Relation(k, (n,) * k, frozenset(decode_tuple(int(c), n, k) for c in codes))

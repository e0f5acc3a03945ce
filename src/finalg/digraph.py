"""Smooth digraphs: components, oriented paths, algebraic length,
loop-finding under compatible Taylor algebras, and the smooth classifier.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .core import FiniteAlgebra, require_taylor
from .errors import InvalidInput, TheoremViolation
from .relations import Relation, is_subuniverse_of_power
from .absorption import SearchBudget, absorption_report

FORWARD = 1
BACKWARD = -1


@dataclass(frozen=True)
class Digraph:
    vertices: int
    edges: frozenset[tuple[int, int]]

    def __post_init__(self):
        if self.vertices < 0:
            raise InvalidInput(f"negative vertex count {self.vertices}")
        for u, v in self.edges:
            if not (0 <= u < self.vertices and 0 <= v < self.vertices):
                raise InvalidInput(f"edge ({u},{v}) out of bounds")

    @staticmethod
    def build(vertices: int, edges) -> "Digraph":
        return Digraph(vertices, frozenset((u, v) for u, v in edges))

    @staticmethod
    def cycle(k: int) -> "Digraph":
        return Digraph.build(k, [(i, (i + 1) % k) for i in range(k)])

    @staticmethod
    def symmetric(vertices: int, undirected_edges) -> "Digraph":
        out = set()
        for u, v in undirected_edges:
            out.add((u, v))
            out.add((v, u))
        return Digraph.build(vertices, out)

    @cached_property
    def succ(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.vertices)]
        for u, v in sorted(self.edges):
            out[u].append(v)
        return tuple(tuple(x) for x in out)

    @cached_property
    def pred(self) -> tuple[tuple[int, ...], ...]:
        out = [[] for _ in range(self.vertices)]
        for u, v in sorted(self.edges):
            out[v].append(u)
        return tuple(tuple(x) for x in out)

    def edge_relation(self) -> Relation:
        return Relation.binary(self.vertices, self.vertices, self.edges)

    def is_smooth(self) -> bool:
        return all(self.succ[v] and self.pred[v] for v in range(self.vertices))

    def is_symmetric(self) -> bool:
        return all((v, u) in self.edges for u, v in self.edges)

    def loops(self) -> list[int]:
        return sorted(v for v in range(self.vertices) if (v, v) in self.edges)

    def induced(self, within) -> "Digraph":
        within = set(within)
        return Digraph(
            self.vertices,
            frozenset((u, v) for u, v in self.edges if u in within and v in within),
        )


@dataclass(frozen=True)
class OrientedPath:
    """A sequence of +1 (forward) / -1 (backward) edge directions."""

    steps: tuple[int, ...]

    def __post_init__(self):
        if any(s not in (FORWARD, BACKWARD) for s in self.steps):
            raise InvalidInput("path steps must be +1 or -1")

    @property
    def algebraic_length(self) -> int:
        return sum(self.steps)

    def __add__(self, other: "OrientedPath") -> "OrientedPath":
        return OrientedPath(self.steps + other.steps)


def smooth_part(g: Digraph, within) -> frozenset[int]:
    """Greatest subset whose induced subgraph has no sources or sinks."""
    cur = set(within)
    if any(not (0 <= v < g.vertices) for v in cur):
        raise InvalidInput("vertex out of range")
    while True:
        nxt = {
            v
            for v in cur
            if any(w in cur for w in g.succ[v]) and any(w in cur for w in g.pred[v])
        }
        if nxt == cur:
            return frozenset(cur)
        cur = nxt


def _forest(g: Digraph, within) -> tuple[list[frozenset[int]], dict[int, int]]:
    """One breadth-first pass over the subgraph induced on `within`.

    Returns its weak components, in order of least vertex, and each vertex's
    potential: the algebraic length of the tree path from the least vertex of
    its component, successors visited before predecessors.
    """
    within = set(within)
    if any(not (0 <= v < g.vertices) for v in within):
        raise InvalidInput("vertex out of range")
    comps, pot = [], {}
    for root in sorted(within):
        if root in pot:
            continue
        pot[root] = 0
        queue = [root]
        for v in queue:  # the queue grows while it is read
            for step, nbrs in ((FORWARD, g.succ[v]), (BACKWARD, g.pred[v])):
                for w in nbrs:
                    if w in within and w not in pot:
                        pot[w] = pot[v] + step
                        queue.append(w)
        comps.append(frozenset(queue))
    return comps, pot


def _length(g: Digraph, comp: frozenset[int], pot: dict[int, int]) -> int | None:
    """gcd of the discrepancies |pot(u)+1-pot(v)| over the component's edges;
    None when every closed walk in it has algebraic length zero."""
    d = 0
    for u, v in g.edges:
        if u in comp and v in comp:
            d = math.gcd(d, abs(pot[u] + 1 - pot[v]))
    return d or None


def weak_components(g: Digraph) -> list[frozenset[int]]:
    return _forest(g, range(g.vertices))[0]


def algebraic_length(g: Digraph, component) -> int | None:
    """Minimal positive algebraic length of a closed walk in the component,
    read off its spanning-tree potentials; None means every closed walk has
    algebraic length zero."""
    comps, pot = _forest(g, component)
    if not comps:
        raise InvalidInput("empty component")
    if len(comps) > 1:
        raise InvalidInput("vertex set is not a single weak component")
    return _length(g, comps[0], pot)


def component_lengths(g: Digraph) -> list[tuple[frozenset[int], int | None]]:
    """Each weak component, in order of least vertex, with its algebraic
    length, all read off one forest."""
    comps, pot = _forest(g, range(g.vertices))
    return [(c, _length(g, c, pot)) for c in comps]


def digraph_algebraic_length(g: Digraph) -> int | None:
    """Minimum of the component lengths; None when all are infinite."""
    return min(filter(None, (d for _, d in component_lengths(g))), default=None)


def path_image(g: Digraph, start, p: OrientedPath) -> frozenset[int]:
    """Set of endpoints of p-shaped walks starting in `start`."""
    cur = set(start)
    for step in p.steps:
        nxt = set()
        for v in cur:
            nxt.update(g.succ[v] if step == FORWARD else g.pred[v])
        cur = nxt
    return frozenset(cur)


# ---------------------------------------------------------------------------
# loop theorem


@dataclass
class LoopReport:
    vertex: int
    minimal_set: frozenset | None
    minimal_vertex: int | None


def find_loop_smooth_taylor(g: Digraph, alg: FiniteAlgebra,
                            budget: SearchBudget | None = None) -> LoopReport:
    """A loop vertex guaranteed by smoothness + algebraic length 1 + Taylor.

    When some absorbing subuniverse sits inside a component of algebraic
    length one, a loop inside a minimal absorbing subuniverse is also
    reported.  Absence of any loop on verified input is an implementation
    bug, surfaced as a theorem violation.
    """
    budget = budget or SearchBudget()
    if g.vertices != alg.size:
        raise InvalidInput("vertex set must be the algebra's universe")
    if not g.is_smooth():
        raise InvalidInput("digraph is not smooth")
    comps, pot = _forest(g, range(g.vertices))
    length_one = [c for c in comps if _length(g, c, pot) == 1]
    if not length_one:
        raise InvalidInput("no weak component of algebraic length 1")
    if not is_subuniverse_of_power(alg, g.edge_relation()):
        raise InvalidInput("edge set is not invariant under the algebra")
    require_taylor(alg)

    loops = g.loops()
    if not loops:
        raise TheoremViolation("smooth + algebraic length 1 + Taylor digraph has no loop")
    report = absorption_report(alg, budget)
    side_sets = [
        S
        for S in ([w.subuniverse for w in report.proper_absorbing]
                  + [frozenset(range(alg.size))])
        if any(S <= c for c in length_one)
    ]
    if side_sets:
        for J in report.minimal_absorbing:
            inside = sorted(v for v in loops if v in J)
            if inside:
                return LoopReport(loops[0], J, inside[0])
        raise TheoremViolation(
            "no loop inside any minimal absorbing subuniverse despite the side condition"
        )
    return LoopReport(loops[0], None, None)


# ---------------------------------------------------------------------------
# circles and the smooth classifier


def is_circle(g: Digraph, component) -> bool:
    """One directed cycle visiting each component vertex once, no chords.

    A weakly connected graph with as many edges as vertices has one cycle in
    its underlying multigraph, of algebraic length |forward - backward|; that
    is the vertex count only for a directed cycle through every vertex.
    """
    comps, pot = _forest(g, component)
    if len(comps) != 1:
        return False
    comp = comps[0]
    edges = sum(1 for u, v in g.edges if u in comp and v in comp)
    return edges == len(comp) and _length(g, comp, pot) == len(comp)


def is_disjoint_union_of_circles(g: Digraph) -> bool:
    return all(is_circle(g, c) for c in weak_components(g))


def classify_smooth_digraph(g: Digraph) -> str:
    """Dichotomy verdict for a smooth digraph via its core's components."""
    from .csp import compute_core, digraph_structure, structure_digraph

    if not g.is_smooth():
        raise InvalidInput("classifier requires a smooth digraph")
    core = compute_core(digraph_structure(g))
    core_g = structure_digraph(core)
    if is_disjoint_union_of_circles(core_g):
        return "PolynomialTime"
    return "NPComplete"


def classify_undirected(g: Digraph) -> str:
    """Bipartite undirected graphs are tractable, the rest NP-complete.

    Each symmetric edge pair has discrepancies 0 and 2 and an odd cycle an
    odd one, so a loopless graph is bipartite iff no component has algebraic
    length 1.
    """
    if not g.is_symmetric():
        raise InvalidInput("undirected classifier requires a symmetric edge set")
    if g.loops() or digraph_algebraic_length(g) != 1:
        return "PolynomialTime"
    return "NPComplete"


def solve_circle_csp(instance: Digraph, template: Digraph):
    """Homomorphism into a disjoint union of circles, or None.

    A weak component maps onto a circle of length L iff its algebraic length
    is divisible by L (no closed walk of positive algebraic length meaning no
    constraint); the map is reconstructed from potentials mod L.  A circle's
    own potentials mod L number its vertices along the cycle from the least.
    """
    if not is_disjoint_union_of_circles(template):
        raise InvalidInput("template is not a disjoint union of circles")
    comps, pot = _forest(template, range(template.vertices))
    circles = []
    for comp in comps:
        order = [0] * len(comp)
        for v in comp:
            order[pot[v] % len(comp)] = v
        circles.append(order)
    circles.sort(key=len)

    mapping = [-1] * instance.vertices
    comps, pot = _forest(instance, range(instance.vertices))
    for comp in comps:
        d = _length(instance, comp, pot)
        target = None
        for circle in circles:
            L = len(circle)
            if d is None or d % L == 0:
                target = circle
                break
        if target is None:
            return None
        L = len(target)
        for v in comp:
            mapping[v] = target[pot[v] % L]
    for u, v in instance.edges:
        if (mapping[u], mapping[v]) not in template.edges:
            raise TheoremViolation("reconstructed circle homomorphism failed to verify")
    return tuple(mapping)

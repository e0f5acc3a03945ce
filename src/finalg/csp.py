"""Relational structures, homomorphism search, cores, polymorphisms,
pp-formula evaluation, and the template classifier.

One backtracking solver (generalized arc consistency, minimum-remaining-values
variable order, ascending value order) backs every search; polymorphism
searches are homomorphism problems from categorical powers with pinned cells.
"""

from __future__ import annotations

import itertools
import operator
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import kernels
from .core import (
    FiniteAlgebra,
    OperationTable,
    decode_tuple,
    encode_tuple,
    is_cyclic_table,
    orbit_representatives,
)
from .cyclic import next_prime_above
from .digraph import Digraph
from .errors import BudgetExceeded, InvalidInput, TheoremViolation
from .relations import Relation, contains_constant, is_cyclic_relation, shift_orbit

CELL_GUARD = 10**6
COMBO_GUARD = 500_000
NODE_GUARD = 5_000_000
CORE_GUARD = 8


@dataclass(frozen=True)
class RelationalStructure:
    size: int
    relations: tuple[tuple[str, Relation], ...]

    def __post_init__(self):
        if self.size < 0:
            raise InvalidInput(f"negative universe size {self.size}")
        names = [name for name, _ in self.relations]
        if len(set(names)) != len(names):
            raise InvalidInput("relation names must be unique")
        for name, rel in self.relations:
            if any(s != self.size for s in rel.sizes):
                raise InvalidInput(f"relation {name!r} is not over the universe")

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((name, rel.arity) for name, rel in self.relations)

    def relation(self, name: str) -> Relation:
        for nm, rel in self.relations:
            if nm == name:
                return rel
        raise InvalidInput(f"unknown relation {name!r}")


def structure(size: int, relations: dict[str, list]) -> RelationalStructure:
    rels = []
    for name, tuples in relations.items():
        tuples = [tuple(t) for t in tuples]
        arity = len(tuples[0]) if tuples else 2
        rels.append((name, Relation(arity, (size,) * arity, frozenset(tuples))))
    return RelationalStructure(size, tuple(rels))


def digraph_structure(g: Digraph) -> RelationalStructure:
    return RelationalStructure(
        g.vertices, (("E", Relation.binary(g.vertices, g.vertices, g.edges)),)
    )


def structure_digraph(a: RelationalStructure) -> Digraph:
    if len(a.relations) != 1 or a.relations[0][1].arity != 2:
        raise InvalidInput("structure is not a digraph")
    return Digraph(a.size, frozenset(a.relations[0][1].tuples))


# ---------------------------------------------------------------------------
# the solver


class _Exhausted(Exception):
    pass


def _normalize(scope, allowed):
    """Collapse repeated scope variables, filtering inconsistent tuples."""
    distinct = []
    first_pos = {}
    for i, v in enumerate(scope):
        if v not in first_pos:
            first_pos[v] = i
            distinct.append(v)
    kept = []
    for t in allowed:
        if all(t[i] == t[first_pos[v]] for i, v in enumerate(scope)):
            kept.append(tuple(t[first_pos[v]] for v in distinct))
    return tuple(distinct), frozenset(kept)


MEMO_LIMIT = 1 << 12


class _Union(dict):
    """OR of `parts[i]` over the set bits i of a key (missing parts are 0),
    memoised for up to `MEMO_LIMIT` keys."""

    def __init__(self, parts: list[int]):
        super().__init__()
        self.parts = parts

    def __missing__(self, key: int) -> int:
        out = 0
        rest = key
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            if i < len(self.parts):
                out |= self.parts[i]
        if len(self) < MEMO_LIMIT:
            self[key] = out
        return out


def _images(allowed) -> tuple:
    """The two arcs of a binary constraint (x, y) with these allowed pairs.

    `forward[d]` is the mask of the y-values paired with some x-value in the
    domain mask d, and `backward[d]` the mask of the x-values paired with
    some y-value in d.  A relation equal to its converse gets one image for
    both.
    """
    size = 1 + max((max(t) for t in allowed), default=-1)
    forward, backward = [0] * size, [0] * size
    for x, y in allowed:
        forward[x] |= 1 << y
        backward[y] |= 1 << x
    if forward == backward:
        image = _Union(forward)
        return image, image
    return _Union(forward), _Union(backward)


def _columns(allowed, arity: int) -> tuple:
    """Support masks of a table constraint, one pair per scope position.

    Row r of `allowed` is bit r of a row mask.  At position i, `rows[d]` is
    the mask of the rows whose entry there is in the domain mask d, and
    `values[live]` is the domain mask of the entries there of the rows in
    `live`.
    """
    allowed = list(allowed)
    out = []
    for i in range(arity):
        rows = [0] * (1 + max((t[i] for t in allowed), default=-1))
        for r, t in enumerate(allowed):
            rows[t[i]] |= 1 << r
        out.append((_Union(rows), _Union([1 << t[i] for t in allowed])))
    return tuple(out)


class _Table(dict):
    """Generalized arc consistency of one table constraint, as a lookup on
    packed domain masks, memoised for up to `MEMO_LIMIT` keys.

    A key packs the domain masks of a scope into one int, `width` bits per
    position with the first position highest, where `width` is one more than
    the largest allowed value.  Its value packs, the same way, the masks of
    the values that some live row holds, or is 0 when no row is live.  The
    live rows are the AND over the positions of the rows (`_columns`) whose
    entry there is in that position's mask.
    """

    def __init__(self, allowed, arity: int):
        super().__init__()
        self.width = 1 + max(itertools.chain.from_iterable(allowed), default=-1)
        self.columns = _columns(allowed, arity)

    def __missing__(self, key: int) -> int:
        width = self.width
        full = (1 << width) - 1
        shift = width * len(self.columns)
        live = -1
        for rows, _ in self.columns:
            shift -= width
            live &= rows[key >> shift & full]
        out = 0
        if live:
            for _, values in self.columns:
                out = out << width | values[live]
        if len(self) < MEMO_LIMIT:
            self[key] = out
        return out


def _repeats(scopes, arity: int) -> bool:
    """Does some scope of this arity repeat a variable?  One comparison of
    two whole columns per pair of positions."""
    if arity == 2:
        return any(itertools.starmap(operator.eq, scopes))
    columns = list(zip(*scopes))
    return any(any(map(operator.eq, columns[i], columns[j]))
               for i, j in itertools.combinations(range(arity), 2))


def _merge(merged: dict, over: dict, scopes: dict, allowed: frozenset) -> None:
    """Add constraints on these scopes, of one arity and each on distinct
    variables, to `merged` (scope -> allowed), intersecting the relation of
    a scope already there.  `over[(arity, allowed)]` holds the scopes whose
    merged relation is `allowed`."""
    arity = len(next(iter(scopes)))
    for scope in merged.keys() & scopes.keys():
        del scopes[scope]
        old = merged[scope]
        del over[arity, old][scope]
        both = merged[scope] = old & allowed
        over.setdefault((arity, both), {})[scope] = None
    if scopes:
        merged.update(dict.fromkeys(scopes, allowed))
        over.setdefault((arity, allowed), {}).update(scopes)


@dataclass
class CSPSearch:
    """Backtracking over bitset domains with generalized arc consistency.

    A domain is an int mask whose bit v is set while value v is possible;
    callers pass masks and receive solutions as tuples.  Constraints come in
    groups `(scopes, allowed)`, one relation with all its scopes, which have
    the relation's arity.  A scope that repeats a variable is collapsed to its
    distinct variables, and constraints on the same scope are merged;
    `constraints` lists the merged `(scope, allowed)` pairs, in no set
    order.  Each merged relation is compiled once for all its scopes.  A
    binary one on two distinct variables becomes arc groups `(image, heads)`:
    popping a variable x looks its domain up once in the memoised image and
    ANDs the result into each head, the distinct variables the relation
    links x to.  A relation equal to its converse has one image for both
    directions, so a scope given both ways adds each head once.  Every
    other relation is a `_Table`, revised by one lookup of each scope's
    packed domain masks.  A variable in a table's scope keeps only values
    below the table's width, which every value above the largest allowed
    one fails anyway, so the packed fields never overlap.

    When every variable's default mask (its domain within those bounds) is
    the same mask D, the build records the variables with an arc group or a
    table that is not arc consistent when all of its variables hold D.  A
    `solutions` call whose masks all lie within D starts propagation from
    those variables and the ones whose mask differs from D: revising any
    other variable changes nothing, since every mask is within D.  Any other
    call starts from every variable.  Generalized arc consistency has one
    fixpoint, whatever the order and the start of the revisions, so the
    domains after every propagation, the minimum-remaining-values choices,
    the node counts and the order of the solutions are those of revising
    every constraint from every variable.
    """

    nvars: int
    domains: list[int]  # one mask per variable
    groups: list  # (scopes, allowed frozenset)
    node_budget: int = NODE_GUARD

    def __post_init__(self):
        merged = {}
        over = {}
        for scopes, allowed in self.groups:
            allowed = frozenset(allowed)
            scopes = dict.fromkeys(scopes)
            if not scopes:
                continue
            arity = len(next(iter(scopes)))
            if _repeats(scopes, arity):
                for scope in [s for s in scopes if len(set(s)) < arity]:
                    del scopes[scope]
                    scope, kept = _normalize(scope, allowed)
                    _merge(merged, over, {scope: None}, kept)
                if not scopes:
                    continue
            _merge(merged, over, scopes, allowed)
        self.constraints = list(merged.items())
        nvars = self.nvars
        # arcs[x]: (image, heads) with dom[y] &= image[dom[x]] for each head y
        self._arcs = arcs = [[] for _ in range(nvars)]
        # tables[x]: (scope, width, table) of the table constraints over x
        self._tables = tables = [[] for _ in range(nvars)]
        # bounds[x]: the values below the width of every table over x
        self._bounds = bounds = [-1] * nvars
        arc_groups = []  # (image, {tail: its heads})
        table_groups = []  # (table, arity, its scopes)
        for (arity, allowed), scopes in over.items():
            if not scopes:
                continue
            if arity != 2:
                table = _Table(allowed, arity)
                below = (1 << table.width) - 1
                for scope in scopes:
                    entry = (scope, table.width, table)
                    for v in scope:
                        tables[v].append(entry)
                        bounds[v] &= below
                table_groups.append((table, arity, scopes))
                continue
            forward, backward = _images(allowed)
            ahead = defaultdict(set)  # x: the heads y of its forward arcs
            behind = ahead if backward is forward else defaultdict(set)
            for x, y in scopes:
                ahead[x].add(y)
                behind[y].add(x)
            directions = [(forward, ahead)]
            if behind is not ahead:
                directions.append((backward, behind))
            for image, heads_of in directions:
                for x, heads in heads_of.items():
                    arcs[x].append((image, heads))
                arc_groups.append((image, heads_of))
        defaults = [g & b for g, b in zip(self.domains, bounds)]
        # the default mask shared by every variable, or None
        self._calm = calm = defaults[0] if defaults and \
            defaults.count(defaults[0]) == nvars else None
        self._restless = restless = set()
        if calm is not None:
            for image, tails in arc_groups:
                if image[calm] & calm != calm:
                    restless.update(tails)
            for table, arity, scopes in table_groups:
                key = 0
                for _ in range(arity):
                    key = key << table.width | calm
                if table[key] != key:
                    restless.update(itertools.chain.from_iterable(scopes))
        self.nodes = 0

    def _revise(self, domains, queue):
        """Generalized arc consistency to fixpoint; False on a wipeout.

        `queue` holds the variables whose domains changed.  Popping x
        revises every constraint over x: each arc group looks x's domain up
        once and keeps, in each head, the values with a support in it, and a
        table constraint looks up its scope's packed domain masks; a result
        equal to the key changes nothing, and 0 is a wipeout.  A domain that
        shrinks queues its variable.
        """
        arcs, tables = self._arcs, self._tables
        pending = set(queue)
        while queue:
            x = queue.pop()
            pending.discard(x)
            dom = domains[x]
            for image, heads in arcs[x]:
                support = image[dom]
                for y in heads:
                    old = domains[y]
                    new = old & support
                    if new == old:
                        continue
                    if not new:
                        return False
                    domains[y] = new
                    if y not in pending:
                        queue.append(y)
                        pending.add(y)
            for scope, width, table in tables[x]:
                key = 0
                for v in scope:
                    key = key << width | domains[v]
                kept = table[key]
                if kept == key:
                    continue
                if not kept:
                    return False
                full = (1 << width) - 1
                for v in reversed(scope):
                    new = kept & full
                    kept >>= width
                    if new != domains[v]:
                        domains[v] = new
                        if v not in pending:
                            queue.append(v)
                            pending.add(v)
        return True

    def solutions(self, domains=None, cells=None):
        """Yield assignments in deterministic order.

        With `cells`, a sequence of variables, yield one solution per distinct
        tuple of their values: the search branches on the cells first and,
        once a solution is found, moves on to the next cell values.
        """
        given = self.domains if domains is None else domains
        masks = [m & b for m, b in zip(given, self._bounds)]
        if any(g and not m for g, m in zip(given, masks)):
            return  # a table leaves this domain no value
        calm = self._calm
        if calm is not None and all(m | calm == calm for m in masks):
            restless = self._restless
            queue = [v for v, m in enumerate(masks) if m != calm or v in restless]
        else:
            queue = list(range(self.nvars))
        if not self._revise(masks, queue):
            return
        yield from self._branch(masks, cells)

    def _branch(self, domains, cells=None):
        """Depth-first search from propagated domains, one node per visit.

        The stack holds one frame `[var, untried value bits, parent
        domains]` per branching node on the current path, so the depth of
        the search costs no Python recursion.  Values are tried in
        ascending order.  With `cells`, a sequence of variables, the choice
        is among the cells while one is unassigned, so every cell frame lies
        below every other frame; after a solution the frames above the
        deepest cell frame are dropped, and the next solution has other cell
        values.
        """
        stack = []
        while True:
            self.nodes += 1
            if self.nodes > self.node_budget:
                raise _Exhausted
            # minimum remaining values: the first variable of the fewest values above 1
            sizes = list(map(int.bit_count, domains))
            fewest = min(filter((1).__lt__, sizes), default=0)
            if fewest:
                var = sizes.index(fewest)
                if cells is not None:
                    held = [sizes[c] for c in cells]
                    least = min(filter((1).__lt__, held), default=0)
                    if least:
                        var = cells[held.index(least)]
                stack.append([var, domains[var], domains])
            elif all(domains):
                yield tuple(d.bit_length() - 1 for d in domains)
                if cells is not None:
                    while stack and stack[-1][0] not in cells:
                        stack.pop()
            # the next child: the least untried value of the deepest frame
            # that has one and survives propagation
            while True:
                if not stack:
                    return
                frame = stack[-1]
                var, rest, parent = frame
                if not rest:
                    stack.pop()
                    continue
                bit = rest & -rest
                frame[1] = rest ^ bit
                domains = list(parent)
                domains[var] = bit
                if self._revise(domains, [var]):
                    break

    def first(self, domains=None):
        """The first solution, or None; each call gets the whole node budget."""
        return next(self._budgeted(domains), None)

    def _budgeted(self, domains=None, cells=None):
        """Yield the solutions of `solutions`, in one enumeration that gets
        the whole node budget from its first step on."""
        self.nodes = 0
        try:
            yield from self.solutions(domains, cells)
        except _Exhausted:
            raise BudgetExceeded(
                f"solver exceeded {self.node_budget} nodes"
            ) from None


# ---------------------------------------------------------------------------
# homomorphisms and cores


def _hom_search(x: RelationalStructure, a: RelationalStructure) -> CSPSearch:
    if x.signature() != a.signature():
        raise InvalidInput("signature mismatch")
    if x.size * a.size > CELL_GUARD:
        raise BudgetExceeded(
            f"{x.size} variables over {a.size} values exceed the cell guard {CELL_GUARD}"
        )
    groups = [(rx.tuples, ra.tuples)
              for (_, rx), (_, ra) in zip(x.relations, a.relations)]
    return CSPSearch(x.size, [(1 << a.size) - 1] * x.size, groups, NODE_GUARD)


def verify_homomorphism(x: RelationalStructure, a: RelationalStructure, mapping) -> bool:
    """Does `mapping` send every tuple of every relation of x into a?"""
    image = mapping.__getitem__
    for (name, rx), (_, ra) in zip(x.relations, a.relations):
        allowed = ra.tuples
        if rx.arity == 2:
            for u, v in rx.tuples:
                if (mapping[u], mapping[v]) not in allowed:
                    return False
        elif rx.arity == 3:
            for u, v, w in rx.tuples:
                if (mapping[u], mapping[v], mapping[w]) not in allowed:
                    return False
        else:
            for t in rx.tuples:
                if tuple(map(image, t)) not in allowed:
                    return False
    return True


def find_homomorphism(x: RelationalStructure, a: RelationalStructure):
    """Backtracking with arc-consistency; the result is re-verified atom-by-atom."""
    sol = _hom_search(x, a).first()
    if sol is None:
        return None
    if not verify_homomorphism(x, a, sol):
        raise TheoremViolation("solver returned a non-homomorphism")
    return sol


def _induced(a: RelationalStructure, kept: list[int]) -> RelationalStructure:
    pos = {v: i for i, v in enumerate(kept)}
    rels = []
    for name, rel in a.relations:
        tuples = [
            tuple(pos[x] for x in t) for t in rel.tuples if all(x in pos for x in t)
        ]
        rels.append((name, Relation(rel.arity, (len(kept),) * rel.arity,
                                    frozenset(tuples))))
    return RelationalStructure(len(kept), tuple(rels))


def compute_core(a: RelationalStructure) -> RelationalStructure:
    """Retract along non-surjective endomorphisms until all are bijective."""
    if a.size > CORE_GUARD:
        raise BudgetExceeded(f"core computation guarded at n<={CORE_GUARD} (got {a.size})")
    current = a
    while True:
        search = _hom_search(current, current)
        full = (1 << current.size) - 1
        for missing in range(current.size):
            found = search.first([full ^ 1 << missing] * current.size)
            if found is not None:
                break
        else:
            return current
        current = _induced(current, sorted(set(found)))


# ---------------------------------------------------------------------------
# polymorphisms


def _relation_rows(rel: Relation) -> np.ndarray:
    return np.array(sorted(rel.tuples), dtype=np.int64).reshape(len(rel.tuples), rel.arity)


def is_polymorphism(a: RelationalStructure, op: OperationTable) -> bool:
    """Exact check over every combination of relation tuples: the cells of
    each batch of `kernels.combinations` must map to rows of the relation."""
    for name, rel in a.relations:
        rows = _relation_rows(rel)
        members = kernels.row_keys(rows, a.size)
        for _, cells in kernels.combinations(rows, a.size, op.arity):
            if not np.isin(kernels.row_keys(op.array[cells], a.size), members).all():
                return False
    return True


def _check_combos(a: RelationalStructure, m: int) -> None:
    for name, rel in a.relations:
        combos = len(rel.tuples) ** m
        if combos > COMBO_GUARD:
            raise BudgetExceeded(
                f"{combos} tuple combinations for {name!r} exceed the combo guard"
            )


def _distinct_scopes(scopes: np.ndarray) -> np.ndarray:
    """The distinct rows of a nonempty scope matrix in lexicographic order,
    as `np.unique(scopes, axis=0)` gives them, without importing `numpy.ma`.

    Rows are deduplicated on their mixed-radix codes in radix 1 + max entry;
    where those would overflow int64, on the bytes of the big-endian rows,
    which compare as the rows do.
    """
    radix, width = int(scopes.max()) + 1, scopes.shape[1]
    keys = kernels.row_keys(scopes, radix)
    if keys.dtype == np.int64:
        return kernels.tuple_rows(kernels.unique(keys), radix, width)
    keys = kernels.row_keys(scopes.astype(">i8"), radix)
    return kernels.unique(keys).view(">i8").reshape(-1, width)


def _compat_constraints(a: RelationalStructure, m: int, var_of=None):
    """Indicator constraints: columns of m relation tuples must map into the relation.

    One `CSPSearch` group `(scopes, allowed)` per nonempty relation of `a`.
    `var_of[c]` is the search variable of cell c of A^m (cell c itself when
    None); repeated scopes are dropped, as the solver would merge them.
    """
    groups = []
    for name, rel in a.relations:
        if not rel.tuples:
            continue  # no combinations, so no constraints
        rows = _relation_rows(rel)
        cells = np.concatenate([c for _, c in kernels.combinations(rows, a.size, m)])
        scopes = _distinct_scopes(cells if var_of is None else var_of[cells])
        groups.append((list(map(tuple, scopes.tolist())), rel.tuples))
    return groups


def _idempotent_search(a: RelationalStructure, m: int, cell_guard: int,
                       node_budget: int, cyclic: bool):
    """The search for idempotent arity-m polymorphisms of `a`, a hom search
    from the m-th power with every constant cell pinned to its value.

    Returns the search and its `var_of`: the variable of each cell of A^m,
    which is the cell itself, or with `cyclic` its shift-orbit
    representative, so that cyclicity is built into the encoding.  Both
    guards are checked before any other work.
    """
    n = a.size
    if n**m > cell_guard:
        raise BudgetExceeded(f"{n}^{m} cells exceed the guard")
    _check_combos(a, m)
    if cyclic:
        reps, var_of = orbit_representatives(n, m)
        nvars = len(reps)
    else:
        nvars = n**m
        var_of = np.arange(nvars)
    domains = [(1 << n) - 1] * nvars
    for v, c in enumerate(var_of[kernels.constant_codes(n, m)].tolist()):
        domains[c] = 1 << v
    groups = _compat_constraints(a, m, var_of)
    return CSPSearch(nvars, domains, groups, node_budget), var_of


def idempotent_polymorphisms(a: RelationalStructure, m: int) -> list[OperationTable]:
    """All idempotent arity-m polymorphisms, as a hom search from the m-th power."""
    search, _ = _idempotent_search(a, m, CELL_GUARD, NODE_GUARD, cyclic=False)
    out = [OperationTable(f"poly{m}_{i}", m, sol) for i, sol in enumerate(search._budgeted())]
    for op in out:
        if not is_polymorphism(a, op):
            raise TheoremViolation("enumerated table is not a polymorphism")
    return out


def polymorphism_algebra(a: RelationalStructure, max_arity: int = 3) -> FiniteAlgebra:
    """The algebra of idempotent polymorphisms up to an arity bound."""
    ops = []
    for m in range(1, max_arity + 1):
        for op in idempotent_polymorphisms(a, m):
            ops.append(OperationTable(f"f{len(ops)}", m, op.table))
    return FiniteAlgebra(a.size, tuple(ops))


def find_cyclic_polymorphism(a: RelationalStructure, p: int,
                             cell_guard: int = CELL_GUARD,
                             node_budget: int = NODE_GUARD):
    """An idempotent cyclic arity-p polymorphism, or None after exhaustion.

    Search variables are shift-orbit representatives of argument tuples; a
    budget overrun raises instead of returning None.
    """
    if p < 2:
        raise InvalidInput("cyclic polymorphisms have arity at least 2")
    n = a.size
    search, var_of = _idempotent_search(a, p, cell_guard, node_budget, cyclic=True)
    sol = search.first()
    if sol is None:
        return None
    table = np.array(sol, dtype=np.int64)[var_of]
    if not is_cyclic_table(table, p, n):
        raise TheoremViolation("cyclic search produced a non-cyclic table")
    op = OperationTable(f"cyc{p}", p, tuple(table.tolist()))
    if not is_polymorphism(a, op):
        raise TheoremViolation("cyclic search produced an incompatible table")
    return op


# ---------------------------------------------------------------------------
# pp formulas


@dataclass(frozen=True)
class Atom:
    kind: str  # "rel" | "eq" | "one"
    scope: tuple[int, ...]
    name: str | None = None
    element: int | None = None


@dataclass(frozen=True)
class PPFormula:
    """Conjunction of atoms with existential quantification over non-free variables."""

    nvars: int
    free: tuple[int, ...]
    atoms: tuple[Atom, ...]

    def __post_init__(self):
        for atom in self.atoms:
            if any(not (0 <= v < self.nvars) for v in atom.scope):
                raise InvalidInput("atom scope out of range")
            if atom.kind == "eq" and len(atom.scope) != 2:
                raise InvalidInput("equality atoms are binary")
            if atom.kind == "one" and (len(atom.scope) != 1 or atom.element is None):
                raise InvalidInput("singleton atoms are unary with an element")
        if not self.free:
            raise InvalidInput("pp formulas need at least one free variable")
        if any(not (0 <= v < self.nvars) for v in self.free):
            raise InvalidInput("free variable out of range")


def _atom_tuples(a: RelationalStructure, atom: Atom) -> frozenset:
    if atom.kind == "rel":
        rel = a.relation(atom.name)
        if rel.arity != len(atom.scope):
            raise InvalidInput(f"atom scope does not match arity of {atom.name!r}")
        return rel.tuples
    if atom.kind == "eq":
        return frozenset((v, v) for v in range(a.size))
    if atom.kind == "one":
        if not (0 <= atom.element < a.size):
            raise InvalidInput("singleton element out of universe")
        return frozenset({(atom.element,)})
    raise InvalidInput(f"unknown atom kind {atom.kind!r}")


def _projection(search: CSPSearch, cells, n: int, stop=None) -> Relation:
    """The tuples over n values that `search`'s solutions take on `cells`,
    one solution per tuple, in one enumeration that shares one node budget.

    With `stop`, a predicate on tuples, the enumeration ends at the first
    tuple it accepts, which is kept.
    """
    tuples = set()
    for sol in search._budgeted(cells=cells):
        t = tuple(sol[c] for c in cells)
        tuples.add(t)
        if stop is not None and stop(t):
            break
    p = len(cells)
    return Relation(p, (n,) * p, frozenset(tuples))


def eval_pp_formula(a: RelationalStructure, f: PPFormula) -> Relation:
    """One search over the formula's variables, one constraint per atom: the
    relation is its solutions projected onto the free variables."""
    groups = [([atom.scope], _atom_tuples(a, atom)) for atom in f.atoms]
    search = CSPSearch(f.nvars, [(1 << a.size) - 1] * f.nvars, groups, NODE_GUARD)
    return _projection(search, f.free, a.size)


def brute_pp_formula(a: RelationalStructure, f: PPFormula) -> Relation:
    """Assignment enumeration oracle for pp evaluation (exponential)."""
    out = set()
    for assign in itertools.product(range(a.size), repeat=f.nvars):
        ok = True
        for atom in f.atoms:
            vals = tuple(assign[v] for v in atom.scope)
            if vals not in _atom_tuples(a, atom):
                ok = False
                break
        if ok:
            out.add(tuple(assign[v] for v in f.free))
    return Relation(len(f.free), (a.size,) * len(f.free), frozenset(out))


def _walk_count(g: Digraph, length: int) -> int:
    """Walks of `length` edges, 1^T A^length 1 over the adjacency matrix A."""
    counts = [1] * g.vertices
    for _ in range(length):
        counts = [sum(counts[w] for w in g.succ[v]) for v in range(g.vertices)]
    return sum(counts)


def p_cycle_relation(g: Digraph, p: int,
                     relation_name: str = "E") -> tuple[Relation, PPFormula]:
    """Closed p-walks of a digraph, with their defining pp formula."""
    if p < 2:
        raise InvalidInput("cycle relation needs arity >= 2")
    tuples = set()
    stack = [(v, (v,)) for v in range(g.vertices)]
    while stack:
        v, walk = stack.pop()
        if len(walk) == p:
            if walk[0] in g.succ[v]:
                tuples.add(walk)
            continue
        for w in g.succ[v]:
            stack.append((w, walk + (w,)))
    rel = Relation(p, (g.vertices,) * p, frozenset(tuples))
    if not is_cyclic_relation(rel):
        raise TheoremViolation("closed-walk relation is not cyclic")
    atoms = tuple(
        Atom("rel", (i, (i + 1) % p), name=relation_name) for i in range(p)
    )
    formula = PPFormula(p, tuple(range(p)), atoms)
    return rel, formula


# ---------------------------------------------------------------------------
# generated subpowers


def generated_subpower(a: RelationalStructure, seeds, p: int) -> Relation:
    """The least pp-definable (invariant) p-ary relation containing the seeds.

    A tuple is a member iff some idempotent polymorphism maps column j of
    the seed matrix to entry j of the tuple: the relation is the projection
    of the polymorphism search onto those columns' cells.  Exact but
    exponential, for desk-scale universes only.
    """
    seeds = sorted(set(tuple(s) for s in seeds))
    if not seeds:
        raise InvalidInput("empty seed set")
    cells = [encode_tuple([s[j] for s in seeds], a.size) for j in range(p)]
    search, _ = _idempotent_search(a, len(seeds), CELL_GUARD, NODE_GUARD, cyclic=False)
    return _projection(search, cells, a.size)


# ---------------------------------------------------------------------------
# the template classifier


@dataclass
class TemplateVerdict:
    outcome: str  # "NPComplete" | "ConjecturedTractable" | "Inconclusive"
    prime: int
    core_size: int
    witness_table: OperationTable | None = None
    witness_relation: Relation | None = None
    witness_formula: PPFormula | None = None
    reason: str = ""


def classify_template(a: RelationalStructure,
                      cell_guard: int = CELL_GUARD,
                      node_budget: int = NODE_GUARD) -> TemplateVerdict:
    """Dichotomy verdict for the core of a template at the smallest safe prime.

    A found cyclic polymorphism is only conjectured tractable; exhaustive
    refutation is NP-complete with a constant-free cyclic witness relation
    where one is extractable; budget exhaustion is reported honestly.
    """
    core = compute_core(a)
    p = next_prime_above(core.size)

    # cheap witness first: for a loopless digraph template a nonempty closed
    # p-walk relation is constant-free, cyclic and pp-defined, which settles
    # NP-completeness (and rules out a cyclic polymorphism) without a search;
    # it enumerates every p-walk, so it runs only when they fit the cell guard
    if len(core.relations) == 1 and core.relations[0][1].arity == 2:
        g = structure_digraph(core)
        if not g.loops() and _walk_count(g, p - 1) <= cell_guard:
            cand, cand_formula = p_cycle_relation(g, p, core.relations[0][0])
            if cand.tuples:
                if eval_pp_formula(core, cand_formula).tuples != cand.tuples:
                    raise TheoremViolation("closed-walk relation differs from its pp formula")
                return TemplateVerdict("NPComplete", p, core.size,
                                       witness_relation=cand,
                                       witness_formula=cand_formula)

    try:
        op = find_cyclic_polymorphism(core, p, cell_guard, node_budget)
    except BudgetExceeded as exc:
        return TemplateVerdict("Inconclusive", p, core.size, reason=str(exc))
    if op is not None:
        return TemplateVerdict("ConjecturedTractable", p, core.size,
                               witness_table=op)
    rel = _extract_constant_free_witness(core, p, cell_guard, node_budget)
    return TemplateVerdict("NPComplete", p, core.size,
                           witness_relation=rel,
                           reason="" if rel is not None else
                           "cyclic refutation exhaustive; no witness extracted in budget")


def _is_constant(t: tuple) -> bool:
    return len(set(t)) == 1


def _extract_constant_free_witness(core, p, cell_guard, node_budget):
    """The first constant-free generated subpower of a non-constant shift
    orbit, in code order, None on budget.

    p is prime, so every such orbit has p tuples, and one search of width p
    serves them all; the projections share one node budget, each getting
    what the orbits before it left.  A subpower with a constant is no
    witness, so its projection stops at the first constant tuple and leaves
    the nodes it did not spend to the orbits after it.
    """
    n = core.size
    try:
        search, _ = _idempotent_search(core, p, cell_guard, node_budget, cyclic=False)
        for code in orbit_representatives(n, p)[0].tolist():
            t = decode_tuple(code, n, p)
            if _is_constant(t):
                continue
            # the orbit is sorted and distinct: generated_subpower's seeds
            orbit = sorted(shift_orbit(t))
            cells = [encode_tuple([s[j] for s in orbit], n) for j in range(p)]
            rel = _projection(search, cells, n, stop=_is_constant)
            search.node_budget -= search.nodes
            if contains_constant(rel) is None and is_cyclic_relation(rel):
                return rel
    except BudgetExceeded:
        return None
    return None

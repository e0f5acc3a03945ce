"""Finite algebras, terms, and the basic constructions every module consumes.

A finite algebra lives on the universe {0..n-1} and stores each basic
operation as a dense row-major table: the entry for arguments (a_0..a_{m-1})
sits at index sum a_i * n**(m-1-i).  Terms are immutable trees (shared
subtrees make them DAGs for free) over the operation symbols.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import kernels
from .errors import BudgetExceeded, InvalidInput, TheoremViolation

DEFAULT_TABLE_GUARD = 4_000_000  # max entries of any materialized table
DEFAULT_CLONE_ARITY = 4
DEFAULT_CLONE_TABLES = 200_000
CONGRUENCE_SIZE_GUARD = 12
ARITY_CAP = 4096  # formal positions of constructed terms
TAYLOR_SEARCH_TABLES = 5_000  # clone tables find_taylor_term tries for alg analyze


# ---------------------------------------------------------------------------
# operation tables and algebras


@dataclass(frozen=True)
class OperationTable:
    """A named dense operation table over {0..n-1}."""

    name: str
    arity: int
    table: tuple[int, ...]

    @cached_property
    def array(self) -> np.ndarray:
        return np.array(self.table, dtype=np.int64)

    def validate(self, size: int) -> None:
        if self.arity < 1:
            raise InvalidInput(f"operation {self.name!r}: arity must be positive")
        # 2**arity <= size**arity bounds the arity before the power is taken
        if (size > 1 and self.arity > len(self.table).bit_length()) \
                or len(self.table) != size**self.arity:
            raise InvalidInput(
                f"operation {self.name!r}: table length {len(self.table)} != {size}^{self.arity}"
            )
        if any(not (0 <= v < size) for v in self.table):
            raise InvalidInput(f"operation {self.name!r}: table entry out of range")

    def is_idempotent(self, size: int) -> bool:
        diagonal = kernels.constant_codes(size, self.arity).tolist()
        return all(self.table[c] == a for a, c in enumerate(diagonal))

    def apply(self, size: int, args) -> int:
        return self.table[encode_tuple(args, size)]


def op_from_function(name: str, arity: int, size: int, fn) -> OperationTable:
    """Tabulate a python function into an OperationTable."""
    table = tuple(
        fn(*args) for args in itertools.product(range(size), repeat=arity)
    )
    op = OperationTable(name, arity, table)
    op.validate(size)
    return op


@dataclass(frozen=True)
class FiniteAlgebra:
    """A finite universe {0..size-1} with an ordered tuple of named operations."""

    size: int
    operations: tuple[OperationTable, ...]

    def __post_init__(self):
        if self.size < 1:
            raise InvalidInput("universe must be nonempty")
        names = [op.name for op in self.operations]
        if len(set(names)) != len(names):
            raise InvalidInput("operation names must be unique")
        for op in self.operations:
            op.validate(self.size)

    def op(self, name: str) -> OperationTable:
        for op in self.operations:
            if op.name == name:
                return op
        raise InvalidInput(f"unknown operation symbol {name!r}")

    def signature(self) -> tuple[tuple[str, int], ...]:
        return tuple((op.name, op.arity) for op in self.operations)

    def is_idempotent(self) -> bool:
        return all(op.is_idempotent(self.size) for op in self.operations)

    def require_idempotent(self) -> None:
        if not self.is_idempotent():
            raise InvalidInput("algebra is not idempotent")

    @cached_property
    def packed(self):
        return kernels.pack_tables([(op.arity, op.table) for op in self.operations])


def algebra(size: int, ops: dict[str, tuple[int, object]]) -> FiniteAlgebra:
    """Build an algebra from {name: (arity, python function or table)}."""
    built = []
    for name, (arity, fn) in ops.items():
        if callable(fn):
            built.append(op_from_function(name, arity, size, fn))
        else:
            op = OperationTable(name, arity, tuple(fn))
            op.validate(size)
            built.append(op)
    return FiniteAlgebra(size, tuple(built))


# ---------------------------------------------------------------------------
# terms


@dataclass(frozen=True)
class Var:
    index: int


@dataclass(frozen=True)
class App:
    symbol: str
    children: tuple["Term", ...]


Term = Var | App


def _dag_nodes(t: Term):
    """Each distinct node of t (by identity) once, in depth-first stack order."""
    stack = [t]
    visited: set[int] = set()
    while stack:
        node = stack.pop()
        if id(node) in visited:
            continue
        visited.add(id(node))
        yield node
        if isinstance(node, App):
            stack.extend(node.children)


def term_vars(t: Term) -> list[int]:
    """Distinct variable indices of t, ascending."""
    return sorted({node.index for node in _dag_nodes(t) if isinstance(node, Var)})


def term_size(t: Term) -> int:
    """Number of distinct DAG nodes."""
    return sum(1 for _ in _dag_nodes(t))


def substitute(t: Term, mapping: dict[int, Term]) -> Term:
    """Replace variables by terms; shares rewritten subtrees."""
    memo: dict[int, Term] = {}

    def rec(node: Term) -> Term:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Var):
            out = mapping.get(node.index, node)
        else:
            out = App(node.symbol, tuple(rec(c) for c in node.children))
        memo[id(node)] = out
        return out

    return rec(t)


def renumber_dense(t: Term) -> Term:
    """Renumber variables to 0..d-1 preserving order."""
    vs = term_vars(t)
    if vs == list(range(len(vs))):
        return t
    return substitute(t, {v: Var(i) for i, v in enumerate(vs)})


def term_arity(t: Term) -> int:
    """1 + max variable index after dense renumbering."""
    return max(1, len(term_vars(t)))


def star_compose(t1: Term, t2: Term) -> Term:
    """kl-ary composition: t1 applied to k blocks of t2 over disjoint variables."""
    t1 = renumber_dense(t1)
    t2 = renumber_dense(t2)
    k = term_arity(t1)
    l = term_arity(t2)
    blocks = {
        i: substitute(t2, {j: Var(i * l + j) for j in range(l)}) for i in range(k)
    }
    return substitute(t1, blocks)


def check_symbols(alg: FiniteAlgebra, t: Term) -> None:
    for node in _dag_nodes(t):
        if isinstance(node, App):
            op = alg.op(node.symbol)
            if op.arity != len(node.children):
                raise InvalidInput(
                    f"symbol {node.symbol!r} applied to {len(node.children)} "
                    f"arguments, declared arity {op.arity}"
                )


def eval_term(alg: FiniteAlgebra, t: Term, args: tuple[int, ...]) -> int:
    """Value of the term operation at one argument tuple."""
    check_symbols(alg, t)
    memo: dict[int, int] = {}

    def rec(node: Term) -> int:
        got = memo.get(id(node))
        if got is not None:
            return got
        if isinstance(node, Var):
            if node.index >= len(args):
                raise InvalidInput(
                    f"variable x{node.index} out of range for {len(args)} arguments"
                )
            out = args[node.index]
        else:
            op = alg.op(node.symbol)
            idx = 0
            for c in node.children:
                idx = idx * alg.size + rec(c)
            out = op.table[idx]
        memo[id(node)] = out
        return out

    return rec(t)


def _var_grid(dom: np.ndarray, i: int, ndim: int) -> np.ndarray:
    """The grid of variable x_i: its domain as a view along axis i, which
    broadcasts against the full grid without being materialised."""
    shape = [1] * ndim
    shape[i] = dom.size
    return dom.reshape(shape)


def eval_term_grid(alg: FiniteAlgebra, t: Term, domains: list) -> np.ndarray:
    """Values of t over the cartesian product of per-position domains.

    Row-major: position 0 is most significant.  Memoized per DAG node and
    per variable, so star-composed terms evaluate in O(nodes * grid); a
    node's grid is dropped once its last parent has used it.
    """
    check_symbols(alg, t)
    doms = [np.asarray(d, dtype=np.int64) for d in domains]
    sizes = [d.size for d in doms]
    total = 1
    for s in sizes:
        total *= s
    if total > DEFAULT_TABLE_GUARD:
        raise BudgetExceeded(f"evaluation grid of {total} entries exceeds table guard")
    # uses[key]: parent-child edges into a node not yet evaluated.  Equal
    # variables share one key (negative, so it never meets an `id`).
    uses: dict[int, int] = {}
    stack = [t]
    while stack:
        node = stack.pop()
        if isinstance(node, App):
            for c in node.children:
                key = ~c.index if isinstance(c, Var) else id(c)
                if key not in uses:
                    uses[key] = 0
                    stack.append(c)
                uses[key] += 1
    memo: dict[int, np.ndarray] = {}

    def use(node: Term) -> np.ndarray:
        key = ~node.index if isinstance(node, Var) else id(node)
        out = memo.get(key)
        if out is None:
            out = memo[key] = grid(node)
        uses[key] -= 1
        if not uses[key]:
            del memo[key]
        return out

    def grid(node: Term) -> np.ndarray:
        if isinstance(node, Var):
            i = node.index
            if i >= len(doms):
                raise InvalidInput(
                    f"variable x{i} out of range for {len(doms)} grid positions"
                )
            return _var_grid(doms[i], i, len(doms))
        # allocated after the first child, so a deep first child does
        # not hold one index array per level of the recursion
        first, *rest = node.children
        lead = use(first)
        idx = np.empty(sizes, dtype=np.int64)
        idx[...] = lead
        for c in rest:
            idx *= alg.size
            idx += use(c)
        return alg.op(node.symbol).array[idx]

    out = grid(t)
    if isinstance(t, Var):
        out = np.broadcast_to(out, sizes).copy()
    return out.reshape(-1)


def term_table(alg: FiniteAlgebra, t: Term, arity: int) -> np.ndarray:
    """Dense table of t viewed as an arity-ary operation."""
    return eval_term_grid(alg, t, [range(alg.size)] * arity)


# ---------------------------------------------------------------------------
# generation and products


def generate_subuniverse(alg: FiniteAlgebra, seed) -> frozenset[int]:
    """Least superset of seed closed under all basic operations."""
    seed = sorted(set(seed))
    if not seed:
        return frozenset()
    if any(not (0 <= a < alg.size) for a in seed):
        raise InvalidInput("seed element out of universe")
    flat, offsets, arities = alg.packed
    members = kernels.closure_members(flat, offsets, arities, alg.size, 1, seed)
    return frozenset(int(a) for a in members)


def term_closure(alg: FiniteAlgebra, seeds):
    """Yield (row, term) for each member of the subpower that the member rows
    `seeds` generate, in discovery order: t(seed column j) is entry j of the
    row.

    The distinct seeds come first, in the order given, each as Var(its first
    position).  Then come each round's new rows (`kernels._frontier_batches`),
    in the order of their first combination, each as App(op, the terms of
    its argument rows), so a term used twice is shared.  Every row is a row
    of one matrix that doubles when full, and a yielded row is never written
    again.  New rows are found with a mask over the n**width codes when that
    many fit DEFAULT_TABLE_GUARD, and with a set of `kernels.row_keys`
    above it.
    """
    n = alg.size
    dtype = kernels.row_dtype(n)
    ops = [(op.arity, op.array.astype(dtype)) for op in alg.operations]
    rows = np.asarray(seeds, dtype=dtype)
    space = n ** rows.shape[1]
    if space <= DEFAULT_TABLE_GUARD:
        member = np.zeros(space, dtype=np.bool_)

        def fresh(keys):
            at = np.flatnonzero(~member[keys])
            at = at[kernels._first_seen(keys[at])[1]]
            member[keys[at]] = True
            return at
    else:
        seen: set = set()

        def fresh(keys):
            keys, first = kernels._first_seen(keys)
            at = []
            for key, c in zip(keys.tolist(), first.tolist()):
                if key not in seen:
                    seen.add(key)
                    at.append(c)
            return np.array(at, dtype=np.int64)

    at = fresh(kernels.row_keys(rows, n))
    rows = rows[at]
    terms: list[Term] = [Var(i) for i in at.tolist()]
    for row, term in zip(rows, terms):
        yield row, term
    lo = 0
    while lo < len(terms) < space:
        hi = len(terms)
        for oi, args, out in kernels._frontier_batches(ops, rows[:hi], n, lo):
            at = fresh(kernels.row_keys(out, n))
            if not at.size:
                continue
            count = len(terms)
            while count + at.size > len(rows):
                rows = np.concatenate([rows, np.empty_like(rows)])
            rows[count : count + at.size] = out[at]
            name = alg.operations[oi].name
            for parents in zip(*(a.tolist() for a in args(at))):
                terms.append(App(name, tuple(terms[r] for r in parents)))
                yield rows[len(terms) - 1], terms[-1]
            if len(terms) == space:
                return
        lo = hi


def product(algs: list[FiniteAlgebra]) -> FiniteAlgebra:
    """Direct product; elements are mixed-radix codes, most significant first."""
    if not algs:
        raise InvalidInput("empty product")
    sig = algs[0].signature()
    for a in algs[1:]:
        if a.signature() != sig:
            raise InvalidInput("signature mismatch in product")
    sizes = [a.size for a in algs]
    N = math.prod(sizes)
    # the digit of factor f in argument q sits on axis q*F + f, over the F
    # factors with more than one element (the others only have the digit 0)
    owners = [f for f, s in enumerate(sizes) if s > 1]
    ops = []
    for oi, (name, m) in enumerate(sig):
        if N**m > DEFAULT_TABLE_GUARD:
            raise BudgetExceeded(
                f"product table for {name!r} needs {N**m} entries (> guard); "
                "use the coded-tuple operations instead of materializing"
            )
        axes = [owners[i % len(owners)] for i in range(m * len(owners))]
        values = [a.operations[oi].array.reshape([a.size if g == f else 1 for g in axes])
                  for f, a in enumerate(algs)]
        out = np.ravel_multi_index(np.broadcast_arrays(*values), sizes)
        ops.append(OperationTable(name, m, tuple(out.ravel().tolist())))
    return FiniteAlgebra(N, tuple(ops))


def power(alg: FiniteAlgebra, m: int) -> FiniteAlgebra:
    if m < 1:
        raise InvalidInput("power exponent must be positive")
    return product([alg] * m)


def encode_tuple(t, n: int) -> int:
    code = 0
    for a in t:
        code = code * n + a
    return code


def decode_tuple(code: int, n: int, k: int) -> tuple[int, ...]:
    out = [0] * k
    for j in range(k - 1, -1, -1):
        out[j] = code % n
        code //= n
    return tuple(out)


# ---------------------------------------------------------------------------
# clone generation


def clone_iter(alg: FiniteAlgebra, max_arity: int, max_tables: int):
    """Yield (arity, table, witness term): per arity, the `term_closure` of
    the projections, the m rows of A^(A^m) that read each argument.

    Tables come in that closure's order, each with the term of its first
    combination, as a row of the arity's matrix (`kernels.row_dtype`
    entries).  Ends early once max_tables have been yielded; the trailing
    sentinel (0, None, None) marks a completed fixpoint.
    """
    n = alg.size
    count = 0
    for m in range(1, max_arity + 1):
        if n**m > DEFAULT_TABLE_GUARD:
            return
        for table, term in term_closure(alg, kernels.tuple_rows(np.arange(n**m), n, m).T):
            count += 1
            yield m, table, term
            if count >= max_tables:
                return
    yield 0, None, None


def candidate_iter(alg: FiniteAlgebra, max_arity: int, max_tables: int):
    """Yield (arity, table, term): each basic operation applied to
    x0..x(arity-1), then every `clone_iter` table, then the sentinel
    (0, None, None) once the clone reaches its fixpoint."""
    for op in alg.operations:
        yield op.arity, op.array, App(op.name, tuple(Var(i) for i in range(op.arity)))
    yield from clone_iter(alg, max_arity, max_tables)


# ---------------------------------------------------------------------------
# congruences and quotients


@dataclass(frozen=True)
class Congruence:
    """A partition of {0..n-1} stored as a block-index array in RGS form."""

    blocks: tuple[int, ...]

    @staticmethod
    def from_classes(n: int, classes) -> "Congruence":
        ids = [-1] * n
        for i, cls in enumerate(classes):
            for a in cls:
                ids[a] = i
        if any(v < 0 for v in ids):
            raise InvalidInput("classes do not cover the universe")
        return Congruence(_canonical_rgs(tuple(ids)))

    @staticmethod
    def diagonal(n: int) -> "Congruence":
        return Congruence(tuple(range(n)))

    @staticmethod
    def full(n: int) -> "Congruence":
        return Congruence((0,) * n)

    @property
    def size(self) -> int:
        return len(self.blocks)

    @property
    def block_count(self) -> int:
        return max(self.blocks) + 1 if self.blocks else 0

    def classes(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in range(self.block_count)]
        for a, b in enumerate(self.blocks):
            out[b].append(a)
        return out

    def refines(self, other: "Congruence") -> bool:
        """Every block of self lies inside a block of other."""
        rep: dict[int, int] = {}
        for a in range(len(self.blocks)):
            mine = self.blocks[a]
            if mine in rep:
                if other.blocks[a] != rep[mine]:
                    return False
            else:
                rep[mine] = other.blocks[a]
        return True


def _canonical_rgs(ids: tuple[int, ...]) -> tuple[int, ...]:
    remap: dict[int, int] = {}
    out = []
    for v in ids:
        if v not in remap:
            remap[v] = len(remap)
        out.append(remap[v])
    return tuple(out)


def _partitions_rgs(n: int):
    """All partitions of {0..n-1} as restricted growth strings."""
    a = [0] * n
    b = [1] * n  # b[i] = 1 + max(a[:i])
    while True:
        yield tuple(a)
        i = n - 1
        while i > 0 and a[i] == b[i]:
            i -= 1
        if i == 0:
            return
        a[i] += 1
        for j in range(i + 1, n):
            a[j] = 0
            b[j] = max(b[i], a[i] + 1) if j == i + 1 else max(b[j - 1], a[j - 1] + 1)


def is_congruence(alg: FiniteAlgebra, part: Congruence) -> bool:
    """Closure of the block relation under all operations, single-coordinate form."""
    if len(part.blocks) != alg.size:
        raise InvalidInput("partition size mismatch")
    n = alg.size
    related = [
        [b for b in range(n) if part.blocks[a] == part.blocks[b]] for a in range(n)
    ]
    for op in alg.operations:
        m = op.arity
        for args in itertools.product(range(n), repeat=m):
            idx = 0
            for a in args:
                idx = idx * n + a
            va = op.table[idx]
            for j in range(m):
                for b in related[args[j]]:
                    if b == args[j]:
                        continue
                    jdx = 0
                    for q in range(m):
                        jdx = jdx * n + (b if q == j else args[q])
                    if part.blocks[op.table[jdx]] != part.blocks[va]:
                        return False
    return True


def congruences(alg: FiniteAlgebra) -> list[Congruence]:
    """All congruences, by restricted-growth-string partition enumeration."""
    if alg.size > CONGRUENCE_SIZE_GUARD:
        raise BudgetExceeded(
            f"congruence enumeration guarded at n<={CONGRUENCE_SIZE_GUARD} (got {alg.size})"
        )
    out = []
    for rgs in _partitions_rgs(alg.size):
        cand = Congruence(rgs)
        if is_congruence(alg, cand):
            out.append(cand)
    return out


def is_simple(alg: FiniteAlgebra) -> bool:
    """Only the diagonal and the full relation are congruences."""
    allowed = {Congruence.diagonal(alg.size).blocks, Congruence.full(alg.size).blocks}
    return all(c.blocks in allowed for c in congruences(alg))


def quotient(alg: FiniteAlgebra, c: Congruence) -> FiniteAlgebra:
    """Factor algebra on the blocks, read at the least element of each block;
    representative-independence is checked."""
    if len(c.blocks) != alg.size:
        raise InvalidInput("congruence size mismatch")
    reps = [cls[0] for cls in c.classes()]
    blocks = np.array(c.blocks, dtype=np.int64)
    ops = []
    for op in alg.operations:
        grid = blocks[op.array].reshape((alg.size,) * op.arity)
        table = grid[np.ix_(*[reps] * op.arity)]
        # every argument tuple must give the block its blocks' least elements give
        if not np.array_equal(grid, table[np.ix_(*[blocks] * op.arity)]):
            raise InvalidInput(
                f"representative-dependent result for {op.name!r}: "
                "the partition is not a congruence"
            )
        ops.append(OperationTable(op.name, op.arity, tuple(table.ravel().tolist())))
    return FiniteAlgebra(len(reps), tuple(ops))


def block_algebra(alg: FiniteAlgebra, block: list[int]) -> FiniteAlgebra:
    """Restriction to a block that is a subuniverse, renamed to 0..|block|-1."""
    block = sorted(block)
    pos = np.full(alg.size, -1, dtype=np.int64)
    pos[block] = np.arange(len(block))
    ops = []
    for op in alg.operations:
        grid = op.array.reshape((alg.size,) * op.arity)[np.ix_(*[block] * op.arity)]
        table = pos[grid].ravel()
        if (table < 0).any():
            raise InvalidInput(f"block {block} is not a subuniverse")
        ops.append(OperationTable(op.name, op.arity, tuple(table.tolist())))
    return FiniteAlgebra(len(block), tuple(ops))


def quotient_map_is_homomorphism(alg: FiniteAlgebra, c: Congruence) -> bool:
    """Entry-wise check that the natural projection commutes with every table."""
    q = quotient(alg, c)
    for op, qop in zip(alg.operations, q.operations):
        for args in itertools.product(range(alg.size), repeat=op.arity):
            idx = 0
            for a in args:
                idx = idx * alg.size + a
            jdx = 0
            for a in args:
                jdx = jdx * q.size + c.blocks[a]
            if c.blocks[op.table[idx]] != qop.table[jdx]:
                return False
    return True


# ---------------------------------------------------------------------------
# identities and special terms


def shift_index_permutation(n: int, k: int) -> np.ndarray:
    """Permutation of codes induced by one left cyclic shift of coordinates."""
    idx = np.arange(n**k, dtype=np.int64)
    return (idx % (n ** (k - 1))) * n + idx // (n ** (k - 1))


def orbit_representatives(n: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """Shift-orbit representatives of the codes of A^k.

    Returns `(reps, index)`: `reps` holds the least code of each orbit in
    code order, and `index[c]` is the position in `reps` of code c's orbit.
    """
    perm = shift_index_permutation(n, k)
    least = np.arange(n**k, dtype=np.int64)
    shifted = least
    for _ in range(k - 1):
        shifted = perm[shifted]
        np.minimum(least, shifted, out=least)
    reps = np.flatnonzero(least == np.arange(n**k))
    return reps, np.searchsorted(reps, least)


def is_cyclic_table(table: np.ndarray, arity: int, size: int) -> bool:
    if arity < 2:
        return False
    if table[kernels.constant_codes(size, arity)].tolist() != list(range(size)):
        return False
    perm = shift_index_permutation(size, arity)
    return bool(np.array_equal(table, table[perm]))


def is_wnu_op(op: OperationTable, size: int) -> bool:
    """Idempotent and symmetric across all one-odd-argument patterns."""
    if op.arity < 2 or not op.is_idempotent(size):
        return False
    binary = _pattern_tables(op.array, op.arity, size, np.eye(op.arity, dtype=np.int64))
    return bool((binary == binary[0]).all())


def _pattern_tables(table, arity: int, size: int, patterns) -> np.ndarray:
    """The binary operations of {x,y}-patterns, one (size, size) table each.

    A pattern is a row of 0s (x) and 1s (y); its table at (x, y) reads the
    arity-ary table at code x * sum_{p=0} w + y * sum_{p=1} w, where w are
    the mixed-radix weights of the argument positions.
    """
    pats = np.asarray(patterns, dtype=np.int64).reshape(-1, arity)
    ys = kernels.row_keys(pats, size)[:, None, None]
    xs = kernels.row_keys(1 - pats, size)[:, None, None]
    a = np.arange(size, dtype=np.int64)
    return np.asarray(table)[xs * a[:, None] + ys * a]


def taylor_witnesses_for_table(table: np.ndarray, arity: int, size: int):
    """Per-coordinate identity witnesses making the table a Taylor operation.

    For coordinate j the witness is a pair of {x,y}-patterns (0 for x, 1 for
    y) with x at j on the left and y at j on the right, such that both
    substituted binary functions coincide.  Returns None when idempotency or
    some coordinate fails.  The 2**arity patterns and their tables
    (2**arity * size**2 entries) are bounded by DEFAULT_TABLE_GUARD.
    """
    table = np.asarray(table)
    if table[kernels.constant_codes(size, arity)].tolist() != list(range(size)):
        return None
    if 2**arity * size * size > DEFAULT_TABLE_GUARD:
        raise BudgetExceeded(f"Taylor pattern scan of arity {arity} exceeds table guard")
    pats = list(itertools.product((0, 1), repeat=arity))
    binary = _pattern_tables(table, arity, size, pats).reshape(len(pats), size * size)
    keys = kernels.row_keys(binary, size).tolist()
    witnesses = []
    for j in range(arity):
        # the first right pattern of each binary table, then the first left
        # pattern whose table has one
        rights = {}
        for pat, key in zip(pats, keys):
            if pat[j] == 1:
                rights.setdefault(key, pat)
        found = next(((pat, rights[key]) for pat, key in zip(pats, keys)
                      if pat[j] == 0 and key in rights), None)
        if found is None:
            return None
        witnesses.append(found)
    return witnesses


def is_taylor_term(alg: FiniteAlgebra, t: Term):
    """Witness list per coordinate, or None when t is not a Taylor term."""
    t = renumber_dense(t)
    k = term_arity(t)
    return taylor_witnesses_for_table(term_table(alg, t, k), k, alg.size)


def find_taylor_term(alg: FiniteAlgebra):
    """First clone member that is a Taylor operation, as (term, witnesses).

    None at once when `taylor_split` finds a split, since then no Taylor
    term exists; a two-generated subuniverse too large to split leaves the
    question to the clone search.
    """
    try:
        split = taylor_split(alg)
    except BudgetExceeded:
        split = None
    if split is not None:
        return None
    for m, table, term in candidate_iter(alg, DEFAULT_CLONE_ARITY, TAYLOR_SEARCH_TABLES):
        if m == 0:
            break
        try:
            w = taylor_witnesses_for_table(table, m, alg.size)
        except BudgetExceeded:
            continue  # a basic operation too wide to scan
        if w is not None:
            return term, w
    return None


def _projection_part(alg: FiniteAlgebra, block: list[int]) -> frozenset | None:
    """The first part X of the subuniverse `block`, holding its least
    element, on whose blocks X | block - X every operation acts as a
    projection; None when there is none.  Parts are tried as bit masks over
    the positions in `block`, ascending.

    Operation f acts as projection j iff f(x) and x_j lie in one block for
    every argument tuple x; so a partition passes iff it keeps every pair
    (f(x), x_j) in one block, for some j per operation.
    """
    sub = block_algebra(alg, block)
    k = sub.size
    masks = np.arange(1, 2**k - 1, 2, dtype=np.int64)
    bits = (masks[:, None] >> np.arange(k)) & 1
    alive = np.ones(masks.size, dtype=bool)
    for op in sub.operations:
        coords = kernels.tuple_rows(np.arange(k**op.arity), k, op.arity).astype(np.int64)
        passes = np.zeros(masks.size, dtype=bool)
        for j in range(op.arity):
            pairs = np.flatnonzero(np.bincount(op.array * k + coords[:, j], minlength=k * k))
            passes |= (bits[:, pairs // k] == bits[:, pairs % k]).all(axis=1)
        alive &= passes
    found = masks[alive].tolist()
    if not found:
        return None
    return frozenset(a for i, a in enumerate(block) if found[0] >> i & 1)


def _is_projection(op: OperationTable) -> bool:
    """A 2-element operation equal to one of its argument positions."""
    args = kernels.tuple_rows(np.arange(2**op.arity), 2, op.arity)
    return bool((args == op.array[:, None]).all(axis=0).any())


def _verify_split(alg: FiniteAlgebra, S: frozenset, X: frozenset) -> None:
    """Re-check a split on the restriction to S and its congruence X | S - X:
    every quotient operation is a projection, and the natural map is a
    homomorphism.  A failure is a bug."""
    block = sorted(S)
    try:
        sub = block_algebra(alg, block)
        c = Congruence.from_classes(len(block), [
            [i for i, a in enumerate(block) if (a in X) == side] for side in (True, False)])
        ok = quotient_map_is_homomorphism(sub, c) and all(
            _is_projection(op) for op in quotient(sub, c).operations)
    except InvalidInput:  # S is no subuniverse, or X | S - X no congruence
        ok = False
    if not ok:
        raise TheoremViolation(f"split {_show(X)} | {_show(S - X)} failed to verify")


def _show(s) -> str:
    return "{" + ",".join(map(str, sorted(s))) + "}"


@functools.lru_cache
def taylor_split(alg: FiniteAlgebra):
    """A subuniverse S and a part X of it on whose blocks X | S - X every
    operation acts as a projection, as (S, X); None when there is none.

    A split maps the subalgebra on S onto a 2-element algebra of
    projections, where no Taylor identity holds, so an algebra with a split
    has no Taylor term; an idempotent finite algebra without one is Taylor
    (Bulatov-Jeavons 2001; Freese-Valeriote 2009).  A split separating a in
    X from b outside X also splits Sg(a, b), so only the two-generated
    subuniverses are tried, each with every 2-block partition, up to
    CONGRUENCE_SIZE_GUARD elements.  Every split is re-verified before it
    is returned.  Cached per algebra; algebras are immutable.
    """
    tried = set()
    for a, b in itertools.combinations(range(alg.size), 2):
        S = generate_subuniverse(alg, (a, b))
        if S in tried:
            continue
        tried.add(S)
        if len(S) > CONGRUENCE_SIZE_GUARD:
            raise BudgetExceeded(
                f"Taylor test guarded at two-generated subuniverses of at most "
                f"{CONGRUENCE_SIZE_GUARD} elements (Sg({a},{b}) has {len(S)})"
            )
        X = _projection_part(alg, sorted(S))
        if X is not None:
            _verify_split(alg, S, X)
            return S, X
    return None


def require_taylor(alg: FiniteAlgebra, name: str = "the algebra") -> None:
    """The Taylor hypothesis of the paper's theorems: idempotent, and no
    `taylor_split`; InvalidInput names the split."""
    alg.require_idempotent()
    split = taylor_split(alg)
    if split is not None:
        S, X = split
        raise InvalidInput(
            f"{name} is not Taylor: {_show(S)} splits into {_show(X)} | {_show(S - X)}, "
            "where every operation is a projection"
        )


# ---------------------------------------------------------------------------
# the universal generator term


@dataclass
class UniversalGeneratorTerm:
    """A single term realizing every generated element from its generating set.

    assignments maps (frozenset B, b) to an argument tuple over B whose
    evaluation is b, for every b generated by B.  factors are the star
    components in composition order (outermost first).
    """

    term: Term
    arity: int
    factors: tuple[Term, ...] = (Var(0),)
    assignments: dict[tuple[frozenset, int], tuple[int, ...]] = field(repr=False, default_factory=dict)


def construct_universal_generator_term(alg: FiniteAlgebra) -> UniversalGeneratorTerm:
    """Star-compose per-(B, b) witness terms into one term covering all subsets."""
    alg.require_idempotent()
    n = alg.size
    factors = []  # (B frozenset, b, term, local args)
    for mask in range(1, 2**n):
        seeds = [a for a in range(n) if mask >> a & 1]
        members = [(int(row[0]), t) for row, t in term_closure(alg, np.array(seeds)[:, None])]
        # the seeds come first; every other member in element order
        for b, t in sorted(members[len(seeds):], key=lambda member: member[0]):
            args = tuple(seeds[i] for i in term_vars(t))
            factors.append((frozenset(seeds), b, renumber_dense(t), args))

    if not factors:
        term = Var(0)
        arity = 1
        factor_terms: tuple[Term, ...] = (Var(0),)
    else:
        term = factors[0][2]
        arities = [term_arity(term)]
        for _, _, t, _ in factors[1:]:
            arities.append(term_arity(t))
            term = star_compose(term, t)
        arity = 1
        for a in arities:
            arity *= a
            if arity > ARITY_CAP:
                raise BudgetExceeded(
                    f"universal generator term arity exceeds cap {ARITY_CAP}"
                )
        factor_terms = tuple(renumber_dense(t) for _, _, t, _ in factors)

    gen = UniversalGeneratorTerm(term, arity, factor_terms)

    # argument tuple realizing factor fi: position p takes the factor-local
    # argument selected by p's fi-th mixed-radix digit; all other factors
    # collapse by idempotency (the two diagonal laws)
    if factors:
        arities = [term_arity(t) for _, _, t, _ in factors]
        strides = [1] * len(factors)
        for i in range(len(factors) - 2, -1, -1):
            strides[i] = strides[i + 1] * arities[i + 1]
        for fi, (B, b, t, local) in enumerate(factors):
            args = tuple(
                local[(p // strides[fi]) % arities[fi]] for p in range(arity)
            )
            if eval_term(alg, gen.term, args) != b:
                raise TheoremViolation(
                    f"universal generator tuple for ({set(B)}, {b}) failed to verify"
                )
            gen.assignments[(B, b)] = args

    # every b in B is realized by the constant tuple (idempotency)
    for mask in range(1, 2**n):
        B = frozenset(a for a in range(n) if mask >> a & 1)
        for b in sorted(B):
            args = (b,) * arity
            if eval_term(alg, gen.term, args) != b:
                raise TheoremViolation(
                    f"universal generator tuple for ({set(B)}, {b}) failed to verify"
                )
            gen.assignments[(B, b)] = args
    return gen

"""One combination enumerator, and the fixpoint closures built on it.

Every construction of the package is made by one step: apply an m-ary
operation coordinatewise to m tuples of a power.  A set of tuples is a
member-row matrix, one row per tuple, with uint8 entries for n <= 256 and
int64 above (`row_dtype`).  `combinations` enumerates m-row combinations of
such a matrix and gives each its cells: cell (c, j) is the code in A^m of
column j of combination c, the index at which an m-ary table is read.  Three
layers run on it:

- the closures here, over tuples of A^k: subuniverses, invariance checks and
  the cyclic-term decision;
- `core.term_closure`, the one closure that builds terms, behind clone
  enumeration (over the tables of the m-ary clone, each a row of n**m
  entries), cyclic synthesis and the universal generator term;
- `csp.is_polymorphism` and the compatibility constraints, over the tuples
  of a relation.

Tuples are coded in mixed radix, most significant coordinate first:
code = sum a_j * n**(k-1-j) (`row_keys` encodes rows, `tuple_rows` decodes
codes).  The same coding indexes every operation table, so `constant_codes`,
the codes of the constant tuples, is the one diagonal of the package: an
operation is idempotent when its table reads a at the a-th of them.  Every
closure runs the same semi-naive rounds (`_frontier_batches`): each round
applies every operation to every argument combination with at least one
argument among the rows found in the previous round.

- `closure` returns the member mask.  With `stop_at_constant` it stops at
  the first batch that makes a code in a `good` mask (by default the
  constant tuples); the cyclic decision passes the constants plus every
  orbit verified so far.
- `is_closed` asks whether a set of codes is a subuniverse of the power:
  the closure stops at its first code outside the set.

Batches are counted in cells: the first holds FIRST_CHUNK, so a closure that
stops at its first good code stops cheaply, and each later one of a block
doubles up to CHUNK.  A batch's cells are one broadcast add over the last
argument, and its argument rows are decoded only for the combinations a
caller keeps.  Every n**k mask is bounded by SPACE_LIMIT, which sits
far above the guards of the calling layers.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BudgetExceeded

SPACE_LIMIT = 1 << 30  # codes in one n**k mask, about 1 GiB as booleans
FIRST_CHUNK, CHUNK = 1 << 10, 1 << 16  # cells per batch of combinations


def pack_tables(ops):
    """Pack (arity, flat table) pairs into (flat, offsets, arities) arrays."""
    arities = np.array([a for a, _ in ops], dtype=np.int64)
    offsets = np.zeros(len(ops), dtype=np.int64)
    pos = 0
    chunks = []
    for i, (_, table) in enumerate(ops):
        offsets[i] = pos
        arr = np.asarray(table, dtype=np.int64)
        chunks.append(arr)
        pos += arr.size
    flat = np.concatenate(chunks) if chunks else np.zeros(0, dtype=np.int64)
    return flat, offsets, arities


def constant_codes(n: int, k: int) -> np.ndarray:
    """Codes of the constant tuples (a, ..., a), ascending in a: the
    diagonal of A^k, at a step of 1 + n + ... + n**(k-1)."""
    step = (n**k - 1) // (n - 1) if n > 1 else k
    return np.arange(0, n * step, step, dtype=np.int64)


def _space(n: int, k: int) -> int:
    N = n**k
    if N > SPACE_LIMIT:
        raise BudgetExceeded(f"tuple space {n}^{k} exceeds the kernel limit {SPACE_LIMIT}")
    return N


def row_dtype(n: int):
    """Entry type of member rows over an n-element universe."""
    return np.uint8 if n <= 256 else np.int64


def tuple_rows(codes, n: int, k: int) -> np.ndarray:
    """Member rows of coded k-tuples, one row per code."""
    pw = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    return (np.asarray(codes, dtype=np.int64)[:, None] // pw % n).astype(row_dtype(n))


def row_keys(rows: np.ndarray, n: int) -> np.ndarray:
    """One comparable key per row: its int64 mixed-radix code when n**width
    fits, and the row's bytes otherwise."""
    width = rows.shape[1]
    if n ** min(width, 64) < 1 << 63:  # n**width fits, without the big power
        return rows @ n ** np.arange(width - 1, -1, -1, dtype=np.int64)
    rows = np.ascontiguousarray(rows)
    return rows.view(np.dtype((np.void, rows.itemsize * width))).ravel()


def _run_starts(ordered: np.ndarray) -> np.ndarray:
    """Mask of the first entry of each run of equal values in a sorted array."""
    starts = np.ones(ordered.size, dtype=np.bool_)
    starts[1:] = ordered[1:] != ordered[:-1]
    return starts


def unique(values) -> np.ndarray:
    """Sorted distinct values of a 1-D array, as `np.unique` gives them.

    `np.unique` imports `numpy.ma` on its first call, which costs a fresh
    process several milliseconds; a sort and a neighbour mask do not.
    """
    values = np.sort(values)
    return values[_run_starts(values)]


def _first_seen(values):
    """Distinct values in order of first occurrence, and where each occurs.

    An unstable sort groups equal values; the least index of each group is
    its first occurrence.
    """
    order = np.argsort(values)
    first = np.minimum.reduceat(order, np.flatnonzero(_run_starts(values[order])))
    first.sort()
    return values[first], first


def combinations(rows: np.ndarray, n: int, m: int, lo: int = 0, pos: int = 0):
    """Batches of m-row combinations of a member-row matrix, with their cells.

    A combination takes its argument at position `pos` from the frontier
    rows [lo, len(rows)), earlier arguments from [0, lo) and later ones from
    every row, so a combination with an argument in the frontier is made
    once, at the position of its first such argument; lo = 0 (with pos = 0)
    gives every combination.  Combinations come in lexicographic order of
    their argument rows.  A batch holds at most max(1, chunk // width)
    combinations, with chunk FIRST_CHUNK at first and doubling up to CHUNK:
    g settings of the leading m - 1 arguments with every row of the last
    argument when a whole row fits, else a slice of the last argument under
    one leading setting, its rest cut into the fewest slices of about equal
    size.  Yields (args, cells): cells[c, j] =
    sum_q rows[a_q, j] * n**(m-1-q) for the c-th combination (a_0, ...,
    a_{m-1}) of the batch, one broadcast add of the scaled leading rows and
    the last argument's rows; args(at) decodes only the combinations at batch
    positions `at`, as the m arrays of their argument rows (m rows for one
    position).
    """
    count, width = rows.shape
    sizes = (lo,) * pos + (count - lo,) + (count,) * (m - 1 - pos)
    lead_sizes, span = sizes[:-1], sizes[-1]
    leads = math.prod(lead_sizes)
    if not leads or not span:
        return
    last_start = lo if pos == m - 1 else 0
    last = rows[last_start:]
    if span * width <= CHUNK:
        last = last.astype(np.int64)
    t = s = 0  # the next leading setting, and the next row of the last argument under it
    chunk = FIRST_CHUNK
    while t < leads:
        size = max(1, chunk // width)
        chunk = min(2 * chunk, CHUNK)
        if s == 0 and size >= span:
            g, w = min(size // span, leads - t), span
        else:
            rest = span - s  # in the fewest slices of at most `size`, evened out
            g, w = 1, -(-rest // -(-rest // size))
        lead = list(np.unravel_index(np.arange(t, t + g), lead_sizes)) if m > 1 else []
        if pos < m - 1:
            lead[pos] += lo
        scaled = rows[lead[0]].astype(np.int64) if lead else np.zeros((1, width), np.int64)
        for r in lead[1:]:
            scaled *= n
            scaled += rows[r]
        scaled *= n
        cells = (scaled[:, None, :] + last[None, s : s + w]).reshape(g * w, width)

        def args(at, lead=lead, s=s, w=w):
            setting = at // w
            return [r[setting] for r in lead] + [last_start + s + at % w]

        yield args, cells
        s += w
        if s == span:
            t, s = t + g, 0


def _frontier_batches(ops, rows, n, lo):
    """Apply every operation to every combination with an argument in the
    frontier rows [lo, len(rows)).

    `ops` lists (arity, table) pairs.  Per (operation, frontier position) the
    combinations come from `combinations`, in lexicographic order of their
    argument rows.  Yields (operation index, argument rows, result rows) per
    batch.
    """
    for oi, (m, table) in enumerate(ops):
        for pos in range(m):
            for args, cells in combinations(rows, n, m, lo, pos):
                yield oi, args, table[cells]


def _tables(flat, offsets, arities, n):
    return [(int(m), flat[o : o + n ** int(m)]) for o, m in zip(offsets, arities)]


def closure(flat, offsets, arities, n, k, seeds, stop_at_constant=False, *, good=None):
    """Close seed codes under the packed operations.

    Returns (member mask over n**k codes, hit code or -1).  With
    stop_at_constant the closure stops at the first batch that makes a code
    in `good` (a mask over n**k codes, by default the constant tuples) and
    returns the least such code of that batch; the mask may then be partial.
    Which code, and how much of the mask, depend on the batch boundaries;
    whether the hit is -1 does not, and it is all the callers read.
    """
    N = _space(n, k)
    member = np.zeros(N, dtype=np.bool_)
    codes = unique(np.asarray(seeds, dtype=np.int64))
    member[codes] = True
    if stop_at_constant:
        if good is None:
            good = np.zeros(N, dtype=np.bool_)
            good[constant_codes(n, k)] = True
        hit = codes[good[codes]]
        if hit.size:
            return member, int(hit[0])
    ops = _tables(flat, offsets, arities, n)
    rows = tuple_rows(codes, n, k)
    count = len(codes)
    lo = 0
    while lo < count < N:
        hi = count
        fresh = []
        for _, _, results in _frontier_batches(ops, rows, n, lo):
            out = row_keys(results, n)
            new = unique(out[~member[out]])
            if not new.size:
                continue
            member[new] = True
            fresh.append(new)
            if stop_at_constant:
                hit = new[good[new]]
                if hit.size:
                    return member, int(hit[0])
            count += new.size
            if count == N:
                break
        if fresh:
            rows = np.concatenate([rows, tuple_rows(np.concatenate(fresh), n, k)])
        lo = hi
    return member, -1


def closure_members(flat, offsets, arities, n, k, seeds):
    """Sorted member codes of the full closure."""
    member, _ = closure(flat, offsets, arities, n, k, seeds)
    return np.flatnonzero(member)


def is_closed(flat, offsets, arities, n, k, codes) -> bool:
    """Is the set of codes closed under the packed operations?"""
    outside = np.ones(_space(n, k), dtype=np.bool_)
    outside[np.asarray(codes, dtype=np.int64)] = False
    _, hit = closure(flat, offsets, arities, n, k, codes, True, good=outside)
    return hit == -1

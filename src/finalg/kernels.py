"""Fixpoint-closure kernels over coded tuples.

Elements of a k-th power of an n-element universe are coded in mixed radix,
most significant coordinate first: code = sum a_j * n**(k-1-j).  Closing a
set of codes under dense operation tables applied coordinatewise is the hot
inner loop of the whole package (subuniverse generation, invariance checks,
cyclic-term decisions and synthesis).

Both closures run the same semi-naive numpy rounds (`_frontier_batches`):
each round applies every operation to every argument combination with at
least one argument among the codes found in the previous round.

- `closure` returns the member mask.  With `stop_at_constant` it stops at
  the first code in a `good` mask (by default the constant tuples); the
  cyclic decision passes the constants plus every orbit verified so far.
- `closure_provenance` runs the full closure and records, for each code in
  discovery order, the operation and the argument rows that first produced
  it, so a witness term can be rebuilt for any member.

Every n**k mask is bounded by SPACE_LIMIT, which sits far above the guards
of the calling layers.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded

SPACE_LIMIT = 1 << 30  # codes in one n**k mask, about 1 GiB as booleans
# argument combinations per numpy batch: small batches first, so a closure
# that stops at a good code stops early, doubling up to the largest
_FIRST_CHUNK, _CHUNK = 1 << 10, 1 << 18


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
    """Codes of the constant tuples (a, ..., a), ascending in a."""
    return np.arange(n, dtype=np.int64) * sum(n**j for j in range(k))


def _space(n: int, k: int) -> int:
    N = n**k
    if N > SPACE_LIMIT:
        raise BudgetExceeded(f"tuple space {n}^{k} exceeds the kernel limit {SPACE_LIMIT}")
    return N


def _digits(codes, n: int, pw) -> np.ndarray:
    """Decoded coordinates, one row per coordinate and one column per code."""
    return (codes[None, :] // pw[:, None]) % n


def _first_seen(values):
    """Distinct values in order of first occurrence, and where each occurs."""
    _, first = np.unique(values, return_index=True)
    first.sort()
    return values[first], first


def _frontier_batches(flat, offsets, arities, n, digits, lo, hi, pw):
    """Apply every operation to every combination with an argument in [lo, hi).

    `digits` holds the decoded codes found so far, one column per code.
    Each combination is made once, classified by its first argument in the
    frontier rows [lo, hi): earlier positions range over [0, lo), later ones
    over [0, hi).  Per (operation, frontier position) the combinations come
    in lexicographic order of their argument rows.  Yields (operation index,
    argument rows, result codes) per batch of combinations.
    """
    for oi in range(len(arities)):
        m = int(arities[oi])
        table = flat[offsets[oi] : offsets[oi] + n**m]
        for pos in range(m):
            sizes = [lo] * pos + [hi - lo] + [hi] * (m - 1 - pos)
            total = 1
            for s in sizes:
                total *= s
            if total == 0:
                continue
            strides = np.ones(m, dtype=np.int64)
            for q in range(m - 2, -1, -1):
                strides[q] = strides[q + 1] * sizes[q + 1]
            start, chunk = 0, _FIRST_CHUNK
            while start < total:
                flat_ix = np.arange(start, min(start + chunk, total), dtype=np.int64)
                start, chunk = start + chunk, min(2 * chunk, _CHUNK)
                rows = []
                for q in range(m):
                    r = (flat_ix // strides[q]) % sizes[q]
                    rows.append(r + lo if q == pos else r)
                out = np.zeros(flat_ix.size, dtype=np.int64)
                for d, p in zip(digits, pw):
                    t = d[rows[0]]
                    for r in rows[1:]:
                        t = t * n + d[r]
                    out += table[t] * p
                yield oi, rows, out


def closure(flat, offsets, arities, n, k, seeds, stop_at_constant=False, *, good=None):
    """Close seed codes under the packed operations.

    Returns (member mask over n**k codes, hit code or -1).  With
    stop_at_constant the closure stops at the first code in `good` (a mask
    over n**k codes, by default the constant tuples) and returns it; the
    mask may then be partial.
    """
    N = _space(n, k)
    pw = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    member = np.zeros(N, dtype=np.bool_)
    codes = np.unique(np.asarray(seeds, dtype=np.int64))
    member[codes] = True
    if stop_at_constant:
        if good is None:
            good = np.zeros(N, dtype=np.bool_)
            good[constant_codes(n, k)] = True
        hit = codes[good[codes]]
        if hit.size:
            return member, int(hit[0])
    digits = _digits(codes, n, pw)
    count = len(codes)
    lo = 0
    while lo < count < N:
        hi = count
        fresh = []
        for _, _, out in _frontier_batches(flat, offsets, arities, n, digits, lo, hi, pw):
            new = np.unique(out[~member[out]])
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
            added = np.concatenate(fresh)
            digits = np.concatenate([digits, _digits(added, n, pw)], axis=1)
        lo = hi
    return member, -1


def closure_members(flat, offsets, arities, n, k, seeds):
    """Sorted member codes of the full closure."""
    member, _ = closure(flat, offsets, arities, n, k, seeds)
    return np.flatnonzero(member)


def closure_provenance(flat, offsets, arities, n, k, seeds):
    """Full closure that records how each code was first produced.

    Returns (codes, ops, parents).  `codes` lists the members in discovery
    order: the seeds first, in the order given with repeats dropped, then
    each round's new codes in the order their first combination was made.
    For a seed ops[i] is -1; otherwise code i is operation ops[i] applied
    coordinatewise to the members at rows parents[i, :arity] (padding -1).
    """
    N = _space(n, k)
    pw = n ** np.arange(k - 1, -1, -1, dtype=np.int64)
    codes = [_first_seen(np.asarray(seeds, dtype=np.int64))[0]]
    count = len(codes[0])
    ops = [np.full(count, -1, dtype=np.int64)]
    parents = [np.full((count, int(arities.max(initial=0))), -1, dtype=np.int64)]
    member = np.zeros(N, dtype=np.bool_)
    member[codes[0]] = True
    digits = _digits(codes[0], n, pw)
    lo = 0
    while lo < count < N:
        hi = count
        for oi, rows, out in _frontier_batches(flat, offsets, arities, n, digits, lo, hi, pw):
            at = np.flatnonzero(~member[out])
            if not at.size:
                continue
            new, first = _first_seen(out[at])
            at = at[first]
            member[new] = True
            codes.append(new)
            ops.append(np.full(new.size, oi, dtype=np.int64))
            block = np.full((new.size, parents[0].shape[1]), -1, dtype=np.int64)
            for q, r in enumerate(rows):
                block[:, q] = r[at]
            parents.append(block)
            count += new.size
            if count == N:
                break
        digits = _digits(np.concatenate(codes), n, pw)
        lo = hi
    return np.concatenate(codes), np.concatenate(ops), np.concatenate(parents)

"""Reference answers and output checks, independent of the program's code.

Pure Python over plain tables: an orbit closure for cyclic-term decisions,
a term evaluator for synthesized and absorption witness terms, and
tuple-by-tuple checks of polymorphisms and homomorphisms.  None of this runs
inside a timed section.
"""

from __future__ import annotations

import itertools


def _shift(t: tuple) -> tuple:
    return t[1:] + t[:1]


def orbit(t: tuple) -> list:
    out = [t]
    cur = _shift(t)
    while cur != t:
        out.append(cur)
        cur = _shift(cur)
    return out


def _apply(n: int, table, args: list) -> tuple:
    out = []
    for j in range(len(args[0])):
        idx = 0
        for a in args:
            idx = idx * n + a[j]
        out.append(table[idx])
    return tuple(out)


def closure_reaches(n: int, ops: dict, seeds: list, stop) -> bool:
    """Close `seeds` under the coordinatewise operations; True once `stop(t)` holds."""
    members = set(seeds)
    order = list(seeds)
    if any(stop(t) for t in order):
        return True
    lo = 0
    while lo < len(order):
        hi = len(order)
        for arity, table in ops.values():
            # every combination with at least one argument from the newest layer
            for pos in range(arity):
                ranges = [
                    range(lo) if q < pos else range(lo, hi) if q == pos else range(hi)
                    for q in range(arity)
                ]
                for combo in itertools.product(*ranges):
                    val = _apply(n, table, [order[i] for i in combo])
                    if val not in members:
                        if stop(val):
                            return True
                        members.add(val)
                        order.append(val)
        lo = hi
    return False


def _is_constant(t: tuple) -> bool:
    return len(set(t)) == 1


def orbit_generates_constant(n: int, ops: dict, t: tuple) -> bool:
    return closure_reaches(n, ops, orbit(t), _is_constant)


def has_cyclic_term(n: int, ops: dict, k: int) -> bool:
    """Every cyclic subuniverse of A^k generated by one orbit holds a constant.

    An orbit is also good once its closure reaches a tuple whose orbit is
    already known to be good, since that orbit's closure lies inside.
    """
    good = set()
    for t in itertools.product(range(n), repeat=k):
        if t in good or _is_constant(t):
            continue
        if closure_reaches(n, ops, orbit(t), lambda u: _is_constant(u) or u in good):
            good.update(orbit(t))
        else:
            return False
    return True


# ---------------------------------------------------------------------------
# terms


def eval_term(n: int, ops: dict, term, points: list) -> list:
    """Values of a term given as CLI JSON at each point (a tuple of elements).

    Equal subterms are evaluated once, so a term serialised as a tree but
    shared as a DAG costs its DAG size.
    """
    memo: dict = {}

    def intern(node):
        if node[0] == "var":
            return ("var", int(node[1]))
        if node[0] == "app":
            return ("app", node[1], tuple(intern(c) for c in node[2]))
        raise ValueError(f"bad term node {node!r}")

    def rec(node):
        got = memo.get(node)
        if got is not None:
            return got
        if node[0] == "var":
            out = [p[node[1]] for p in points]
        else:
            arity, table = ops[node[1]]
            if len(node[2]) != arity:
                raise ValueError(f"{node[1]} applied to {len(node[2])} arguments")
            cols = [rec(c) for c in node[2]]
            out = []
            for i in range(len(points)):
                idx = 0
                for col in cols:
                    idx = idx * n + col[i]
                out.append(table[idx])
        memo[node] = out
        return out

    return rec(intern(term))


def term_arity(term) -> int:
    if term[0] == "var":
        return int(term[1]) + 1
    return max((term_arity(c) for c in term[2]), default=0)


def is_cyclic_term(n: int, ops: dict, term, k: int) -> bool:
    if term_arity(term) > k:
        return False
    points = list(itertools.product(range(n), repeat=k))
    values = dict(zip(points, eval_term(n, ops, term, points)))
    return all(values[p] == values[_shift(p)] for p in points)


def absorbs(n: int, ops: dict, term, arity: int, B) -> bool:
    """t(b, ..., a, ..., b) lies in B for every position of the a."""
    B = sorted(B)
    points = set()
    for i in range(arity):
        for rest in itertools.product(B, repeat=arity - 1):
            for a in range(n):
                points.add(rest[:i] + (a,) + rest[i:])
    points = sorted(points)
    inside = set(B)
    return all(v in inside for v in eval_term(n, ops, term, points))


# ---------------------------------------------------------------------------
# relational structures


def is_cyclic_polymorphism(n: int, relations: dict, table: list, p: int) -> bool:
    for t in itertools.product(range(n), repeat=p):
        idx = 0
        for x in t:
            idx = idx * n + x
        sidx = 0
        for x in _shift(t):
            sidx = sidx * n + x
        if table[idx] != table[sidx]:
            return False
    for tuples in relations.values():
        allowed = {tuple(t) for t in tuples}
        width = len(tuples[0])
        for rows in itertools.product(tuples, repeat=p):
            image = []
            for j in range(width):
                idx = 0
                for r in rows:
                    idx = idx * n + r[j]
                image.append(table[idx])
            if tuple(image) not in allowed:
                return False
    return True


def is_homomorphism(structure: dict, template: dict, mapping: list) -> bool:
    if len(mapping) != structure["size"]:
        return False
    allowed = {r["name"]: {tuple(t) for t in r["tuples"]} for r in template["relations"]}
    for rel in structure["relations"]:
        for t in rel["tuples"]:
            if tuple(mapping[v] for v in t) not in allowed[rel["name"]]:
                return False
    return True

"""JSON encodings for algebras, terms, relations, digraphs, and templates."""

from __future__ import annotations

import itertools
from json.encoder import INFINITY as _INF, encode_basestring_ascii as _string

from .core import App, FiniteAlgebra, OperationTable, Term, Var
from .digraph import Digraph
from .csp import RelationalStructure
from .errors import InvalidInput
from .relations import Relation

# what indexing and int() raise on JSON of the wrong shape or type
_MALFORMED = (IndexError, KeyError, OverflowError, TypeError, ValueError)
_SCALARS = {True: "true", False: "false", None: "null"}


def _int_tuples(rows) -> frozenset:
    """The rows of a relation's JSON as a set of int tuples.

    Rows of exact ints are taken as they are; anything else (bools, floats,
    strings, unhashable or malformed rows) goes through `int()`, which
    converts it or raises.
    """
    try:
        tuples = frozenset(map(tuple, rows))
    except TypeError:
        tuples = None
    if tuples is None or not set(map(type, itertools.chain.from_iterable(tuples))) <= {int}:
        tuples = frozenset(tuple(int(v) for v in t) for t in rows)
    return tuples


def _float(x: float) -> str:
    if x != x:
        return "NaN"
    if x == _INF:
        return "Infinity"
    if x == -_INF:
        return "-Infinity"
    return float.__repr__(x)


def _key(key) -> str:
    """A dict key as `json` writes it, before quoting."""
    if isinstance(key, str):
        return key
    if isinstance(key, float):
        return _float(key)
    if key is True or key is False or key is None:
        return _SCALARS[key]
    if isinstance(key, int):
        return int.__repr__(key)
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(obj, out: list, pad: str) -> None:
    """Append the pieces of `obj` at the indentation `pad` ("\n" and two
    spaces a level) to `out`."""
    if isinstance(obj, str):
        out.append(_string(obj))
    elif obj is True or obj is False or obj is None:
        out.append(_SCALARS[obj])
    elif isinstance(obj, int):
        out.append(int.__repr__(obj))
    elif isinstance(obj, float):
        out.append(_float(obj))
    elif isinstance(obj, (list, tuple)):
        if not obj:
            out.append("[]")
            return
        inner = pad + "  "
        if {*map(type, obj)} == {int}:
            out.append("[" + inner + ("," + inner).join(map(int.__repr__, obj)) + pad + "]")
            return
        sep = "[" + inner
        for item in obj:
            if type(item) is str:  # the tags and symbols of a term
                out.append(sep + _string(item))
            else:
                out.append(sep)
                _write(item, out, inner)
            sep = "," + inner
        out.append(pad + "]")
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = pad + "  "
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            out.append(sep + _string(_key(key)) + ": ")
            _write(value, out, inner)
            sep = "," + inner
        out.append(pad + "}")
    else:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dumps(obj) -> str:
    """`json.dumps(obj, sort_keys=True, indent=2) + "\n"`, byte for byte.

    With `indent`, `json` gives up its C encoder for a pure-Python one; this
    writer quotes strings with the C `encode_basestring_ascii` and writes a
    list of plain ints with one join.
    """
    out: list = []
    _write(obj, out, "\n")
    out.append("\n")
    return "".join(out)


def algebra_to_json(alg: FiniteAlgebra) -> dict:
    return {
        "size": alg.size,
        "operations": [
            {"name": op.name, "arity": op.arity, "table": list(op.table)}
            for op in alg.operations
        ],
    }


def algebra_from_json(data: dict) -> FiniteAlgebra:
    try:
        ops = tuple(
            OperationTable(o["name"], int(o["arity"]), tuple(int(v) for v in o["table"]))
            for o in data["operations"]
        )
        return FiniteAlgebra(int(data["size"]), ops)
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed algebra JSON: {exc}") from exc


def term_to_json(t: Term):
    if isinstance(t, Var):
        return ["var", t.index]
    return ["app", t.symbol, [term_to_json(c) for c in t.children]]


def term_from_json(data) -> Term:
    try:
        tag = data[0]
        if tag == "var":
            return Var(int(data[1]))
        if tag == "app":
            return App(data[1], tuple(term_from_json(c) for c in data[2]))
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed term JSON: {exc}") from exc
    raise InvalidInput(f"malformed term JSON: unknown tag {tag!r}")


def relation_to_json(r: Relation) -> dict:
    return {
        "arity": r.arity,
        "sizes": list(r.sizes),
        "tuples": [list(t) for t in r.sorted_tuples()],
    }


def relation_from_json(data: dict) -> Relation:
    try:
        return Relation(
            int(data["arity"]),
            tuple(int(s) for s in data["sizes"]),
            _int_tuples(data["tuples"]),
        )
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed relation JSON: {exc}") from exc


def digraph_to_json(g: Digraph) -> dict:
    return {
        "vertices": g.vertices,
        "edges": [list(e) for e in sorted(g.edges)],
    }


def digraph_from_json(data: dict) -> Digraph:
    try:
        return Digraph.build(
            int(data["vertices"]), [(int(u), int(v)) for u, v in data["edges"]]
        )
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed digraph JSON: {exc}") from exc


def template_to_json(a: RelationalStructure) -> dict:
    return {
        "size": a.size,
        "relations": [
            {"name": name, "arity": rel.arity,
             "tuples": [list(t) for t in rel.sorted_tuples()]}
            for name, rel in a.relations
        ],
    }


def template_from_json(data: dict) -> RelationalStructure:
    try:
        rels = tuple(
            (
                r["name"],
                Relation(
                    int(r["arity"]),
                    (int(data["size"]),) * int(r["arity"]),
                    _int_tuples(r["tuples"]),
                ),
            )
            for r in data["relations"]
        )
        return RelationalStructure(int(data["size"]), rels)
    except _MALFORMED as exc:
        raise InvalidInput(f"malformed template JSON: {exc}") from exc

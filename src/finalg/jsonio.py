"""JSON encodings for algebras, terms, relations, digraphs, and templates."""

from __future__ import annotations

import itertools
import json

from .core import App, FiniteAlgebra, OperationTable, Term, Var
from .digraph import Digraph
from .csp import RelationalStructure
from .errors import InvalidInput
from .relations import Relation

# what indexing and int() raise on JSON of the wrong shape or type
_MALFORMED = (IndexError, KeyError, OverflowError, TypeError, ValueError)


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


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


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

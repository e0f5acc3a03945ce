"""Reach: every public function or class of `src/finalg`, and every public
member of its classes, is driven by the program, or is listed here with the
reason it stays.

A name counts as driven when the package refers to it outside its own
definition, as a bare name or as `module.name`, or when the benchmark's span
tracer (`perfbench/spans.py`) wraps it.  A member (method, property or
dataclass field) counts as driven when some module of the package reads it
as `.name`.  `__init__.py` only re-exports, so its references do not count.
A new orphan, or a name left orphaned by a refactor, fails here until it is
driven, deleted, or listed with a reason.
"""

import ast
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "finalg"
SPANS = ROOT / "perfbench" / "spans.py"

UNDRIVEN = {
    # the paper's statements, checked by tests until a suite drives them
    "absorption.construct_spreading_term": "the spreading-term construction of the paper",
    "absorption.transitivity_compose": "the paper states that absorption is transitive",
    "core.is_wnu_op": "weak near-unanimity (Maroti-McKenzie), to check synthesised tables",
    "core.is_simple": "simplicity, the structural Taylor test's congruence question",
    "cyclic.check_block_quotient_lemma": "the paper's block-quotient lemma",
    "cyclic.check_congruence_tower": "the paper's congruence-tower lemma",
    "cyclic.check_spectrum_multiplicativity": "the paper's arity-spectrum lemma",
    "csp.polymorphism_algebra": "the polymorphism algebra, the paper's central object; "
                                "the classifier is checked against it",
    "relations.iterate": "walk powers E^k, the walk-power witnesses of the classifier",
    "relations.plus_neighborhood": "the neighbourhood-transfer lemma",
    "digraph.path_image": "the reachability lemmas of smooth digraphs",
    "digraph.algebraic_length": "the algebraic length of one given component; "
                                "graph alg-length reads every component off one forest",
    # oracles and builders of the tests and the CI steps
    "csp.brute_pp_formula": "the assignment-enumeration oracle of pp evaluation",
    "csp.generated_subpower": "the paper's generated subpower; the witness extraction "
                              "reads the same projection",
    "csp.structure": "builds templates from tuple lists",
    "jsonio.algebra_to_json": "writes the algebra files the CI steps read",
    "jsonio.digraph_to_json": "writes digraph files",
    "jsonio.template_to_json": "writes template files",
    "jsonio.relation_from_json": "reads back what relation_to_json writes",
    "jsonio.term_from_json": "reads back what term_to_json writes",
    "core.is_taylor_term": "decides a given term; the tests check found terms with it",
}

UNREAD_MEMBERS = {
    # read only by tests
    "core.OperationTable.apply": "one table lookup, the tests' pointwise oracle",
    "csp.TemplateVerdict.witness_formula": "the pp-formula of an NP-complete verdict",
    "digraph.Digraph.cycle": "builds the directed cycles of the tests and CI steps",
    "digraph.Digraph.symmetric": "builds the undirected graphs of the tests and CI steps",
    "digraph.Digraph.induced": "the component subgraphs of the closed-walk oracle",
    "digraph.OrientedPath.algebraic_length": "the path's net length, a lemma of the paper",
    "absorption.AbsorptionReport.witness_for": "looks up one subuniverse's witness",
    "absorption.SpreadingTerm.stages": "the number of spreading stages the paper bounds",
    "relations.Relation.identity": "the equality relation of the composition tests",
}


def _wrapped() -> set:
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return {f"{mod}.{attr}" for mod, attr, *_ in spans.WRAPPED + spans.WRAPPED_GENERATORS}


def _scan() -> tuple:
    """({public name: its module}, the names the package uses outside
    their own definitions)."""
    modules = {path.stem: ast.parse(path.read_text(encoding="utf-8"))
               for path in sorted(SRC.glob("*.py")) if path.name != "__init__.py"}
    defined = {}
    used = set()  # (module, name, the top-level definition the use sits in)
    for module, tree in modules.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)) and not owner.startswith("_"):
                defined[owner] = module
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    used.add((module, node.id, owner))
                elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                        and node.value.id in modules:
                    used.add((module, node.attr, owner))
    driven = {name for module, name, owner in used
              if name in defined and (module, owner) != (defined[name], name)}
    return defined, driven


def test_every_public_name_is_driven_or_listed():
    defined, driven = _scan()
    # the scan sees an imported name (absorption and core call
    # candidate_iter), a `module.name` use (core calls kernels.row_keys), a
    # class named in an annotation only (path_image's OrientedPath), and a
    # caller that drives its callee though nothing drives the caller
    # (iterate calls compose)
    assert {"candidate_iter", "row_keys", "OrientedPath", "compose"} <= driven
    undriven = {f"{module}.{name}" for name, module in defined.items() if name not in driven}
    assert undriven - _wrapped() == set(UNDRIVEN)


def _members() -> tuple:
    """({module.Class.member: member} of public classes, the attribute names
    the package reads)."""
    members = {}
    read = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top in tree.body:
            if isinstance(top, ast.ClassDef) and not top.name.startswith("_"):
                for node in top.body:
                    if isinstance(node, ast.FunctionDef):
                        name = node.name
                    elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                        name = node.target.id
                    else:
                        continue
                    if not name.startswith("_"):
                        members[f"{path.stem}.{top.name}.{name}"] = name
        read |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    return members, read


def test_every_public_member_is_read_or_listed():
    members, read = _members()
    # a method (Congruence.refines), a property (FiniteAlgebra.packed) and a
    # dataclass field (CyclicDecision.counterexample)
    assert {"core.Congruence.refines", "core.FiniteAlgebra.packed",
            "cyclic.CyclicDecision.counterexample"} <= set(members)
    unread = {key for key, name in members.items() if name not in read}
    assert unread == set(UNREAD_MEMBERS)

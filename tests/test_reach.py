"""Reach: every public function or class of `src/finalg` is driven by the
program, or is listed here with the reason it stays.

A name counts as driven when the package refers to it outside its own
definition, as a bare name or as `module.name`, or when the benchmark's span
tracer (`perfbench/spans.py`) wraps it.  `__init__.py` only re-exports, so
its references do not count.  A new orphan, or a name left orphaned by a
refactor, fails here until it is driven, deleted, or listed with a reason.
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

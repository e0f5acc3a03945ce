"""Bound parameters: a function takes a guard or budget as a parameter only
where a CLI flag or a `SearchBudget` reaches it, or where the value chooses
what is built.  Every other bound is a module constant, read where it is
enforced; a test that needs a smaller one monkeypatches that constant."""

import importlib
import inspect
import re

MODULES = ("core", "kernels", "absorption", "cyclic", "csp", "digraph", "relations", "suites")
BOUND_NAME = re.compile(r"guard|budget|cap$|^max_|instances")

ALLOWED = {
    # the SearchBudget threading
    "absorption.find_absorption_witness.budget",
    "absorption.absorption_report.budget",
    "absorption.find_first_proper_absorbing.budget",
    "absorption.construct_spreading_term.budget",
    "absorption.absorption_theorem_check.budget",
    "digraph.find_loop_smooth_taylor.budget",
    "suites.run_suite.budget",
    "suites.absorption_theorem_suite.budget",
    "suites.loop_theorem_suite.budget",
    # --guard-tuples
    "cyclic.has_cyclic_term.guard",
    "cyclic.find_cyclic_term.guard",
    "cyclic.smallest_cyclic_prime_check.guard",
    "cyclic.arity_spectrum.guard",
    "csp.classify_template.cell_guard",
    "csp.find_cyclic_polymorphism.cell_guard",
    # --budget-tables as the solver node budget of csp classify
    "csp.classify_template.node_budget",
    "csp.find_cyclic_polymorphism.node_budget",
    # what is built, not how far a search may go
    "csp.polymorphism_algebra.max_arity",
    "suites.all_one_op_two_element_algebras.max_arity",
}


def _bound_parameters() -> set:
    found = set()
    for name in MODULES:
        module = importlib.import_module(f"finalg.{name}")
        for attr, fn in vars(module).items():
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            for param in inspect.signature(fn).parameters.values():
                if param.default is not param.empty and BOUND_NAME.search(param.name):
                    found.add(f"{name}.{attr}.{param.name}")
    return found


def test_bound_parameters_are_the_allowlist():
    assert _bound_parameters() == ALLOWED
    assert len(ALLOWED) == 19


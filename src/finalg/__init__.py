"""finalg: finite idempotent algebras, absorption, cyclic terms, and CSP
template classification, with brute-force oracles at desk scale."""

__version__ = "0.1.0"

from .core import (
    App,
    Congruence,
    FiniteAlgebra,
    OperationTable,
    Term,
    Var,
    algebra,
    congruences,
    eval_term,
    generate_subuniverse,
    is_simple,
    power,
    product,
    quotient,
    star_compose,
)
from .relations import Relation
from .absorption import (
    AbsorptionReport,
    AbsorptionWitness,
    SearchBudget,
    absorption_report,
    absorption_theorem_check,
    check_absorption,
    find_absorption_witness,
)
from .cyclic import (
    CyclicDecision,
    arity_spectrum,
    find_cyclic_term,
    has_cyclic_term,
    smallest_cyclic_prime_check,
)
from .digraph import Digraph, OrientedPath, classify_smooth_digraph, classify_undirected
from .csp import (
    PPFormula,
    RelationalStructure,
    classify_template,
    compute_core,
    find_cyclic_polymorphism,
    find_homomorphism,
    idempotent_polymorphisms,
)

__all__ = [
    "App",
    "AbsorptionReport",
    "AbsorptionWitness",
    "Congruence",
    "CyclicDecision",
    "Digraph",
    "FiniteAlgebra",
    "OperationTable",
    "OrientedPath",
    "PPFormula",
    "Relation",
    "RelationalStructure",
    "SearchBudget",
    "Term",
    "Var",
    "algebra",
    "absorption_report",
    "absorption_theorem_check",
    "arity_spectrum",
    "check_absorption",
    "classify_smooth_digraph",
    "classify_template",
    "classify_undirected",
    "compute_core",
    "congruences",
    "eval_term",
    "find_absorption_witness",
    "find_cyclic_polymorphism",
    "find_cyclic_term",
    "find_homomorphism",
    "generate_subuniverse",
    "has_cyclic_term",
    "idempotent_polymorphisms",
    "is_simple",
    "power",
    "product",
    "quotient",
    "smallest_cyclic_prime_check",
    "star_compose",
]

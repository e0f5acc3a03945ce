"""Command-line entry point.

Every command renders one result object; --json emits it verbatim and the
human output is a plain rendering of the same data.  Exit codes: 0 done,
2 invalid input, 3 budget exceeded / inconclusive, 4 theorem violation.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import __version__, jsonio
from .absorption import SearchBudget, absorption_report
from .core import (
    CONGRUENCE_SIZE_GUARD,
    DEFAULT_CLONE_ARITY,
    DEFAULT_CLONE_TABLES,
    clone_iter,
    congruences,
    find_taylor_term,
)
from .cyclic import (
    TUPLE_SPACE_GUARD,
    arity_spectrum,
    find_cyclic_term,
    has_cyclic_term,
    smallest_cyclic_prime_check,
)
from .digraph import (
    classify_smooth_digraph,
    classify_undirected,
    component_lengths,
    find_loop_smooth_taylor,
    smooth_part,
)
from .csp import classify_template, find_homomorphism
from .errors import BudgetExceeded, InvalidInput, TheoremViolation
from .suites import SUITE_NAMES, run_suite

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4


def _load(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError as exc:
        raise InvalidInput(f"input file not found: {path}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"{path} is not valid JSON: {exc}") from exc
    except (OSError, ValueError) as exc:  # a directory, a null byte in the path
        raise InvalidInput(f"cannot read {path!r}: {exc}") from exc


def _budget(args) -> SearchBudget:
    return SearchBudget(max_arity=args.budget_arity, max_tables=args.budget_tables)


def _config(args) -> dict:
    return {
        "version": __version__,
        "seed": args.seed,
        "budgets": {
            "arity": args.budget_arity,
            "tables": args.budget_tables,
            "tuples": args.guard_tuples,
        },
    }


def _compact(obj) -> bool:
    if not isinstance(obj, (dict, list)):
        return True
    if isinstance(obj, list):
        return all(
            not isinstance(v, dict)
            and (not isinstance(v, list) or all(not isinstance(w, (dict, list)) for w in v))
            for v in obj
        )
    return False


def _render(obj, indent: int = 0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(obj, dict):
        for k in sorted(obj):
            v = obj[k]
            if _compact(v):
                lines.append(f"{pad}{k}: {json.dumps(v, sort_keys=True)}")
            else:
                lines.append(f"{pad}{k}:")
                lines.extend(_render(v, indent + 1))
    elif isinstance(obj, list):
        for v in obj:
            if _compact(v):
                lines.append(f"{pad}- {json.dumps(v, sort_keys=True)}")
            else:
                lines.extend(_render(v, indent + 1))
    else:
        lines.append(f"{pad}{json.dumps(obj, sort_keys=True)}")
    return lines


def _emit(args, result: dict) -> None:
    payload = {"config": _config(args), "result": result}
    if args.json:
        sys.stdout.write(jsonio.dumps(payload))
    else:
        if not args.quiet:
            sys.stdout.write("\n".join(_render(payload)) + "\n")
        else:
            sys.stdout.write("\n".join(_render(result)) + "\n")


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_alg_analyze(args) -> tuple[int, dict]:
    alg = jsonio.algebra_from_json(_load(args.file))
    taylor = find_taylor_term(alg) if alg.is_idempotent() else None
    congs = congruences(alg) if alg.size <= CONGRUENCE_SIZE_GUARD else None
    return EXIT_OK, {
        "size": alg.size,
        "operations": [op.name for op in alg.operations],
        "idempotent": alg.is_idempotent(),
        "congruence_count": len(congs) if congs is not None else None,
        # the diagonal and the full relation are always congruences
        "simple": len(congs) <= 2 if congs is not None else None,
        "taylor_term": jsonio.term_to_json(taylor[0]) if taylor else None,
    }


def _cmd_alg_clone(args) -> tuple[int, dict]:
    alg = jsonio.algebra_from_json(_load(args.file))
    counts: dict[int, int] = {}
    complete = False
    for m, _, _ in clone_iter(alg, args.budget_arity, args.budget_tables):
        if m == 0:  # the sentinel of a clone that reached its fixpoint
            complete = True
            break
        counts[m] = counts.get(m, 0) + 1
    return EXIT_OK, {
        "arity_counts": {str(m): c for m, c in sorted(counts.items())},
        "total": sum(counts.values()),
        "complete": complete,
    }


def _cmd_alg_absorb(args) -> tuple[int, dict]:
    alg = jsonio.algebra_from_json(_load(args.file))
    report = absorption_report(alg, _budget(args))
    return EXIT_OK, {
        "proper_absorbing": [
            {
                "subuniverse": sorted(w.subuniverse),
                "term": jsonio.term_to_json(w.term),
                "arity": w.arity,
            }
            for w in report.proper_absorbing
        ],
        "minimal_absorbing": [sorted(s) for s in report.minimal_absorbing],
        "complete": report.complete,
    }


def _cmd_alg_cyclic(args) -> tuple[int, dict]:
    alg = jsonio.algebra_from_json(_load(args.file))
    if args.spectrum is not None:
        spec = arity_spectrum(alg, args.spectrum, args.guard_tuples)
        return EXIT_OK, {
            "tested": list(spec.tested),
            "members": sorted(spec.members),
        }
    if args.prime_check:
        p, decision = smallest_cyclic_prime_check(alg, args.guard_tuples)
        return EXIT_OK, {
            "prime": p,
            "arity": decision.arity,
            "has_cyclic_term": decision.has_cyclic_term,
            "counterexample": decision.counterexample,
        }
    if args.arity is None:
        raise InvalidInput("choose one of --arity, --prime-check, --spectrum")
    decision = has_cyclic_term(alg, args.arity, args.guard_tuples)
    result = {
        "arity": decision.arity,
        "has_cyclic_term": decision.has_cyclic_term,
        "counterexample": list(decision.counterexample)
        if decision.counterexample
        else None,
        "method": "decision",
    }
    if args.find_term and decision.has_cyclic_term:
        synth = find_cyclic_term(alg, args.arity, guard=args.guard_tuples,
                                 decision=decision)
        result["term"] = jsonio.term_to_json(synth.term)
        result["measure_history"] = synth.measure_history
        result["method"] = "synthesis"
    return EXIT_OK, result


def _cmd_graph_classify(args) -> tuple[int, dict]:
    g = jsonio.digraph_from_json(_load(args.file))
    mode = args.mode
    if mode == "auto":
        mode = "undirected" if g.is_symmetric() else "smooth"
    if mode == "undirected":
        verdict = classify_undirected(g)
    else:
        verdict = classify_smooth_digraph(g)
    return EXIT_OK, {"mode": mode, "verdict": verdict}


def _cmd_graph_smooth_part(args) -> tuple[int, dict]:
    g = jsonio.digraph_from_json(_load(args.file))
    within = range(g.vertices) if args.within is None else args.within
    return EXIT_OK, {"smooth_part": sorted(smooth_part(g, within))}


def _cmd_graph_alg_length(args) -> tuple[int, dict]:
    g = jsonio.digraph_from_json(_load(args.file))
    comps = component_lengths(g)
    return EXIT_OK, {
        "components": [{"vertices": sorted(comp), "algebraic_length": d}
                       for comp, d in comps],
        "digraph_algebraic_length": min(filter(None, (d for _, d in comps)), default=None),
    }


def _cmd_graph_loop_check(args) -> tuple[int, dict]:
    g = jsonio.digraph_from_json(_load(args.file))
    alg = jsonio.algebra_from_json(_load(args.algebra))
    report = find_loop_smooth_taylor(g, alg, _budget(args))
    return EXIT_OK, {
        "loop_vertex": report.vertex,
        "minimal_absorbing_set": sorted(report.minimal_set)
        if report.minimal_set is not None
        else None,
        "loop_in_minimal": report.minimal_vertex,
    }


def _cmd_csp_solve(args) -> tuple[int, dict]:
    data = _load(args.file)
    if not isinstance(data, dict) or "template" not in data or "structure" not in data:
        raise InvalidInput('instance JSON needs "template" and "structure"')
    template = data["template"]
    if isinstance(template, str):
        template = _load(template)
    a = jsonio.template_from_json(template)
    x = jsonio.template_from_json(data["structure"])
    mapping = find_homomorphism(x, a)
    return EXIT_OK, {
        "homomorphism": list(mapping) if mapping is not None else None,
        "satisfiable": mapping is not None,
    }


def _cmd_csp_classify(args) -> tuple[int, dict]:
    a = jsonio.template_from_json(_load(args.file))
    verdict = classify_template(a, cell_guard=args.guard_tuples,
                                node_budget=args.budget_tables)
    result = {
        "outcome": verdict.outcome,
        "prime": verdict.prime,
        "core_size": verdict.core_size,
        "witness_polymorphism": list(verdict.witness_table.table)
        if verdict.witness_table
        else None,
        "witness_relation": jsonio.relation_to_json(verdict.witness_relation)
        if verdict.witness_relation
        else None,
        "reason": verdict.reason,
    }
    code = EXIT_BUDGET if verdict.outcome == "Inconclusive" else EXIT_OK
    return code, result


def _cmd_verify(args) -> tuple[int, dict]:
    report = run_suite(args.suite, args.seed, _budget(args))
    return (EXIT_OK if report.ok else EXIT_VIOLATION), report.to_json()


# ---------------------------------------------------------------------------
# parser


DEFAULTS = {
    "json": False,
    "quiet": False,
    "seed": 1,
    "budget_arity": DEFAULT_CLONE_ARITY,
    "budget_tables": DEFAULT_CLONE_TABLES,
    "guard_tuples": TUPLE_SPACE_GUARD,
}


def _common_flags() -> argparse.ArgumentParser:
    # SUPPRESS defaults let the flags appear before or after the subcommand
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--json", action="store_true", default=argparse.SUPPRESS,
                        help="machine-readable output")
    common.add_argument("--quiet", action="store_true", default=argparse.SUPPRESS,
                        help="omit the config header")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for sampled suites")
    common.add_argument("--budget-arity", type=int, default=argparse.SUPPRESS,
                        help="clone search arity limit")
    common.add_argument("--budget-tables", type=int, default=argparse.SUPPRESS,
                        help="clone search table limit; csp classify also "
                        "uses it as the solver's node budget")
    common.add_argument("--guard-tuples", type=int, default=argparse.SUPPRESS,
                        help="tuple-space guard for orbit scans; csp classify "
                        "also uses it as the cell guard of its cyclic search "
                        "and witness extraction")
    return common


def build_parser() -> argparse.ArgumentParser:
    common = _common_flags()
    parser = argparse.ArgumentParser(
        prog="finalg",
        description="Finite idempotent algebras, absorption, cyclic terms, "
        "and CSP template classification.",
        parents=[common],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    alg = sub.add_parser("alg", help="finite algebra operations")
    alg_sub = alg.add_subparsers(dest="subcommand", required=True)
    p = alg_sub.add_parser("analyze", parents=[common],
                           help="idempotency, congruences, Taylor witness")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_alg_analyze)
    p = alg_sub.add_parser("clone", parents=[common],
                           help="clone table counts per arity")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_alg_clone)
    p = alg_sub.add_parser("absorb", parents=[common],
                           help="absorption report with witnesses")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_alg_absorb)
    p = alg_sub.add_parser("cyclic", parents=[common], help="cyclic term decisions")
    p.add_argument("file")
    p.add_argument("--arity", type=int)
    p.add_argument("--prime-check", action="store_true")
    p.add_argument("--spectrum", type=int)
    p.add_argument("--find-term", action="store_true")
    p.set_defaults(handler=_cmd_alg_cyclic)

    graph = sub.add_parser("graph", help="digraph operations")
    graph_sub = graph.add_subparsers(dest="subcommand", required=True)
    p = graph_sub.add_parser("classify", parents=[common],
                             help="dichotomy verdict for a digraph")
    p.add_argument("file")
    p.add_argument("--mode", choices=("auto", "undirected", "smooth"), default="auto")
    p.set_defaults(handler=_cmd_graph_classify)
    p = graph_sub.add_parser("smooth-part", parents=[common],
                             help="largest induced smooth subgraph")
    p.add_argument("file")
    p.add_argument("--within", type=int, nargs="*", default=None)
    p.set_defaults(handler=_cmd_graph_smooth_part)
    p = graph_sub.add_parser("alg-length", parents=[common],
                             help="per-component algebraic lengths")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_graph_alg_length)
    p = graph_sub.add_parser("loop-check", parents=[common],
                             help="loop guaranteed by the loop theorem")
    p.add_argument("file")
    p.add_argument("algebra")
    p.set_defaults(handler=_cmd_graph_loop_check)

    csp = sub.add_parser("csp", help="CSP solving and classification")
    csp_sub = csp.add_subparsers(dest="subcommand", required=True)
    p = csp_sub.add_parser("solve", parents=[common],
                           help="homomorphism search for an instance")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_csp_solve)
    p = csp_sub.add_parser("classify", parents=[common],
                           help="template dichotomy verdict")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_csp_classify)

    p = sub.add_parser("verify", parents=[common], help="run a named theorem suite")
    p.add_argument("suite", choices=SUITE_NAMES)
    p.set_defaults(handler=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on the first call and shared by later ones: parsing
    fills a fresh namespace and leaves the parser unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv, namespace=argparse.Namespace(**DEFAULTS))
    try:
        code, result = args.handler(args)
    except InvalidInput as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_INVALID
    except BudgetExceeded as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except TheoremViolation as exc:
        sys.stderr.write(f"THEOREM VIOLATION (implementation bug): {exc}\n")
        return EXIT_VIOLATION
    _emit(args, result)
    return code


if __name__ == "__main__":
    sys.exit(main())

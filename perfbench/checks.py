"""Verdict checks for one task's CLI output against the reference answers.

`check(task, result)` returns ("decided" | "undecided" | "failed", note).
A task fails when the CLI raised, exited 2 or 4, or gave a verdict that
disagrees with the reference.  Exit 3, `complete: false` or an Inconclusive
verdict is undecided.
"""

from __future__ import annotations

import json

import reference

EXIT_OK, EXIT_BUDGET = 0, 3


class Checker:
    """Caches reference answers, which repeat across passes and inputs."""

    def __init__(self):
        self._cyclic: dict = {}
        self._seen: dict = {}

    def check(self, task, result: dict) -> tuple[str, str]:
        key = (task.id, result["code"], result["stdout"])
        if key not in self._seen:
            self._seen[key] = self._check(task, result)
        return self._seen[key]

    def _check(self, task, result: dict) -> tuple[str, str]:
        code = result["code"]
        if code not in (EXIT_OK, EXIT_BUDGET):
            detail = result["stderr"].strip().splitlines()
            return "failed", f"exit {code}: {detail[-1] if detail else ''}"
        try:
            out = json.loads(result["stdout"])["result"]
        except (ValueError, KeyError, TypeError) as exc:
            return "failed", f"unreadable output: {exc}"
        try:
            wrong = getattr(self, "_" + task.kind.replace("-", "_"))(task.expect, out)
        except (KeyError, IndexError, TypeError, ValueError) as exc:
            return "failed", f"malformed result: {exc!r}"
        if wrong:
            return "failed", wrong
        if code == EXIT_BUDGET or out.get("complete") is False \
                or out.get("outcome") == "Inconclusive":
            detail = out.get("reason") or f"complete={out.get('complete')}"
            return "undecided", f"exit {code}, {detail}"
        return "decided", ""

    def _cyclic_truth(self, e: dict) -> bool:
        if e["verdict"] is not None:
            return e["verdict"]
        key = (e["n"], json.dumps(e["ops"], sort_keys=True), e["k"])
        if key not in self._cyclic:
            self._cyclic[key] = reference.has_cyclic_term(e["n"], e["ops"], e["k"])
        return self._cyclic[key]

    def _cyclic_decide(self, e: dict, out: dict) -> str:
        if out["arity"] != e["k"]:
            return f"arity {out['arity']} != {e['k']}"
        truth = self._cyclic_truth(e)
        if out["has_cyclic_term"] != truth:
            return f"has_cyclic_term {out['has_cyclic_term']}, reference {truth}"
        if not truth:
            counter = tuple(out["counterexample"])
            if len(counter) != e["k"] or not all(0 <= v < e["n"] for v in counter):
                return f"counterexample {counter} is not a {e['k']}-tuple"
            if reference.orbit_generates_constant(e["n"], e["ops"], counter):
                return f"orbit of counterexample {counter} generates a constant"
        return ""

    def _cyclic_term(self, e: dict, out: dict) -> str:
        wrong = self._cyclic_decide(e, out)
        if wrong or not out["has_cyclic_term"]:
            return wrong
        history = out["measure_history"]
        if any(a >= b for a, b in zip(history, history[1:])) \
                or history[-1] != e["n"] ** e["k"]:
            return f"measure history {history} does not climb to {e['n']}^{e['k']}"
        if not reference.is_cyclic_term(e["n"], e["ops"], out["term"], e["k"]):
            return "synthesized term is not rotation invariant"
        return ""

    def _clone(self, e: dict, out: dict) -> str:
        if out["arity_counts"] != e["arity_counts"] or out["complete"] is not True:
            return f"clone counts {out['arity_counts']} complete={out['complete']}"
        if out["total"] != sum(e["arity_counts"].values()):
            return f"clone total {out['total']}"
        return ""

    def _absorb(self, e: dict, out: dict) -> str:
        for w in out["proper_absorbing"]:
            if not reference.absorbs(e["n"], e["ops"], w["term"], w["arity"], w["subuniverse"]) \
                    or reference.term_arity(w["term"]) > w["arity"]:
                return f"witness for {w['subuniverse']} does not absorb"
        if e["proper"] is None or out["complete"] is not True:
            return ""
        proper = sorted(sorted(w["subuniverse"]) for w in out["proper_absorbing"])
        if proper != sorted(e["proper"]) or out["minimal_absorbing"] != e["minimal"]:
            return f"absorbing {proper}, minimal {out['minimal_absorbing']}"
        return ""

    def _classify(self, e: dict, out: dict) -> str:
        outcome = out["outcome"]
        if outcome == "Inconclusive":
            return ""
        if outcome != e["outcome"] or out["core_size"] != e["n"]:
            return f"{outcome} with core size {out['core_size']}, reference {e['outcome']}"
        p = out["prime"]
        if outcome == "ConjecturedTractable":
            table = out["witness_polymorphism"]
            if len(table) != e["n"] ** p or \
                    not reference.is_cyclic_polymorphism(e["n"], e["relations"], table, p):
                return f"witness is not a cyclic polymorphism of arity {p}"
        elif out["witness_relation"] is not None:
            tuples = {tuple(t) for t in out["witness_relation"]["tuples"]}
            if not tuples or any(len(set(t)) == 1 for t in tuples) \
                    or any(t[1:] + t[:1] not in tuples for t in tuples):
                return "witness relation is empty, has a constant, or is not cyclic"
        return ""

    def _solve(self, e: dict, out: dict) -> str:
        if out["satisfiable"] is not True:
            return "planted instance reported unsatisfiable"
        if not reference.is_homomorphism(e["structure"], e["template"], out["homomorphism"]):
            return "returned map is not a homomorphism"
        return ""

    def _verify(self, e: dict, out: dict) -> str:
        if out["ok"] is not True or out["violations"] or out["passes"] != out["instances"]:
            return f"suite not ok: {out['violations'][:3]}"
        return ""

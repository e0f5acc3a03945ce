"""Span tracing around the program's public functions, and per-layer metrics.

`install` wraps each function in `WRAPPED` and rebinds every module-level
name in `finalg` that refers to it, so `from .core import clone_iter` in
another module is traced as well.  A span is
`[id, parent, task, name, start, end, counts]`; spans stay in memory until
the pass ends.  No file of the program changes.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from collections import defaultdict

_clock = time.perf_counter


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.stack: list = []
        self.task = None

    def open(self, name: str) -> list:
        span = [len(self.spans), self.stack[-1][0] if self.stack else -1,
                self.task, name, _clock(), 0.0, None]
        self.spans.append(span)
        self.stack.append(span)
        return span

    def close(self, span: list, counts: dict | None = None) -> None:
        span[5] = _clock()
        self.stack.pop()
        if counts:
            span[6] = counts


def _closure_counts(args, kwargs, result):
    n, k = args[3], args[4]
    stop = args[6] if len(args) > 6 else kwargs.get("stop_at_constant", False)
    return {"tuples": int(result[0].sum()), "space": n**k, "stop": int(bool(stop))}


def _synth_counts(args, kwargs, result):
    from finalg.core import term_size

    return {"rounds": len(result.measure_history), "term_nodes": term_size(result.term)}


def _grid_counts(args, kwargs, result):
    return {"cells": int(result.size)}


def _report_counts(args, kwargs, result):
    return {"witnesses": len(result.proper_absorbing)}


def _witness_counts(args, kwargs, result):
    return {"witnesses": int(result is not None)}


def _dumps_counts(args, kwargs, result):
    return {"bytes": len(result.encode())}


def _build_counts(args, kwargs, result):
    return {"constraints": len(args[0].constraints)}


# (module, attribute, span name, counts from (args, kwargs, result))
WRAPPED = (
    ("kernels", "closure", "kernels.closure", _closure_counts),
    ("cyclic", "has_cyclic_term", "cyclic.decide", None),
    ("cyclic", "find_cyclic_term", "cyclic.synth", _synth_counts),
    ("core", "eval_term_grid", "core.term_grid", _grid_counts),
    ("core", "generate_subuniverse", "core.subuniverse", None),
    ("core", "find_taylor_term", "core.taylor", None),
    ("absorption", "absorption_report", "absorption.report", _report_counts),
    ("absorption", "find_absorption_witness", "absorption.witness", _witness_counts),
    ("absorption", "check_absorption_table", "absorption.candidate", None),
    ("absorption", "absorption_theorem_check", "absorption.theorem", None),
    ("relations", "is_subuniverse_of_power", "relations.invariance", None),
    ("relations", "is_linked", "relations.linked", None),
    ("digraph", "find_loop_smooth_taylor", "digraph.loop", None),
    ("digraph", "is_circle", "digraph.circle", None),
    ("digraph", "solve_circle_csp", "digraph.circle", None),
    ("csp", "compute_core", "csp.core", None),
    ("csp", "classify_template", "csp.classify", None),
    ("csp", "find_homomorphism", "csp.hom", None),
    ("jsonio", "algebra_from_json", "jsonio.load", None),
    ("jsonio", "template_from_json", "jsonio.load", None),
    ("jsonio", "dumps", "jsonio.dumps", _dumps_counts),
    ("cli", "main", "cli", None),
    ("suites", "run_suite", "suites", None),
)


def _clone_counts(args, before, item):
    # the trailing sentinel (0, None, None) is not a table
    return {"tables": int(item is not None and item[0] != 0)}


def _nodes_before(args):
    return args[0].nodes


def _nodes_counts(args, before, item):
    """Solver nodes `CSPSearch.solutions` spent in one step."""
    return {"nodes": args[0].nodes - before}


# generators: each next() is one span
# (module, attribute, span name, counts from (args, mark, item), mark from args)
WRAPPED_GENERATORS = (
    ("core", "clone_iter", "core.clone", _clone_counts, None),
)


def _wrap(tracer: Tracer, fn, name: str, counts_fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            tracer.close(span)
            raise
        tracer.close(span, counts_fn(args, kwargs, result) if counts_fn else None)
        return result

    return wrapper


def _wrap_generator(tracer: Tracer, fn, name: str, counts_fn, mark_fn):
    """Each next() of the generator is one span.

    The span's counts are `counts_fn(args, mark, item)`, where `mark` is
    `mark_fn(args)` taken as the span opens, and `item` is None when the
    generator ended or raised.
    """

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        gen = fn(*args, **kwargs)
        try:
            while True:
                mark = mark_fn(args) if mark_fn else None
                span = tracer.open(name)
                try:
                    item = next(gen)
                except StopIteration:
                    tracer.close(span, counts_fn(args, mark, None))
                    return
                except BaseException:
                    tracer.close(span, counts_fn(args, mark, None))
                    raise
                tracer.close(span, counts_fn(args, mark, item))
                yield item
        finally:
            gen.close()

    return wrapper


def _rebind(original, replacement) -> None:
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "finalg" or mod_name.startswith("finalg.")):
            continue
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)


def install(tracer: Tracer) -> None:
    """Wrap the traced functions; call after `finalg.cli` is imported."""
    mods = {name: importlib.import_module(f"finalg.{name}")
            for name in {m for m, *_ in WRAPPED + WRAPPED_GENERATORS}}
    for mod, attr, name, counts_fn in WRAPPED:
        original = getattr(mods[mod], attr)
        _rebind(original, _wrap(tracer, original, name, counts_fn))
    for mod, attr, name, counts_fn, mark_fn in WRAPPED_GENERATORS:
        original = getattr(mods[mod], attr)
        _rebind(original, _wrap_generator(tracer, original, name, counts_fn, mark_fn))
    search = importlib.import_module("finalg.csp").CSPSearch
    search.__post_init__ = _wrap(tracer, search.__post_init__, "csp.build", _build_counts)
    search.solutions = _wrap_generator(tracer, search.solutions, "csp.propagate",
                                       _nodes_counts, _nodes_before)


# ---------------------------------------------------------------------------
# aggregation


def layer_metrics(spans: list) -> dict:
    """Per-layer totals from one pass's spans (setup and overhead excluded).

    `.s` is the time inside a layer's outermost spans, `self_s` subtracts the
    time covered by direct child spans, and counts sum the span counts.
    """
    by_id = {s[0]: s for s in spans}
    child_time = defaultdict(float)
    for s in spans:
        if s[1] >= 0:
            child_time[s[1]] += s[5] - s[4]
    calls = defaultdict(int)
    total = defaultdict(float)
    self_time = defaultdict(float)
    counts = defaultdict(int)
    orbits = orbit_tuples = 0
    for s in spans:
        sid, parent, _task, name, start, end, cnt = s
        calls[name] += 1
        self_time[name] += (end - start) - child_time[sid]
        p = parent
        while p >= 0 and by_id[p][3] != name:
            p = by_id[p][1]
        if p < 0:
            total[name] += end - start
        if cnt:
            for key, value in cnt.items():
                counts[f"{name}.{key}"] += value
            if name == "kernels.closure" and cnt["stop"] and parent >= 0 \
                    and by_id[parent][3] == "cyclic.decide":
                orbits += 1
                orbit_tuples += cnt["tuples"]
    return {
        "kernels.closure.calls": calls["kernels.closure"],
        "kernels.closure.s": total["kernels.closure"],
        "kernels.closure.tuples": counts["kernels.closure.tuples"],
        "kernels.closure.space": counts["kernels.closure.space"],
        "cyclic.decide.calls": calls["cyclic.decide"],
        "cyclic.decide.self_s": self_time["cyclic.decide"],
        "cyclic.orbits_scanned": orbits,
        "cyclic.tuples_per_orbit": orbit_tuples / orbits if orbits else 0.0,
        "cyclic.synth.self_s": self_time["cyclic.synth"],
        "cyclic.synth.rounds": counts["cyclic.synth.rounds"],
        "cyclic.synth.term_nodes": counts["cyclic.synth.term_nodes"],
        "core.clone.tables": counts["core.clone.tables"],
        "core.clone.s": total["core.clone"],
        "core.term_grid.calls": calls["core.term_grid"],
        "core.term_grid.cells": counts["core.term_grid.cells"],
        "core.term_grid.s": total["core.term_grid"],
        "core.subuniverse.calls": calls["core.subuniverse"],
        "core.taylor.s": total["core.taylor"],
        "absorption.report.calls": calls["absorption.report"],
        "absorption.report.self_s": self_time["absorption.report"],
        "absorption.candidates": calls["absorption.candidate"],
        "absorption.witnesses": counts["absorption.report.witnesses"]
        + counts["absorption.witness.witnesses"],
        "absorption.theorem.s": total["absorption.theorem"],
        "relations.invariance.calls": calls["relations.invariance"],
        "relations.invariance.s": total["relations.invariance"],
        "relations.linked.s": total["relations.linked"],
        "digraph.loop.s": total["digraph.loop"],
        "digraph.circle.s": total["digraph.circle"],
        "csp.searches": calls["csp.build"],
        "csp.constraints": counts["csp.build.constraints"],
        "csp.nodes": counts["csp.propagate.nodes"],
        "csp.build.s": total["csp.build"],
        "csp.propagate.s": total["csp.propagate"],
        "csp.core.s": total["csp.core"],
        "csp.classify.self_s": self_time["csp.classify"],
        "csp.hom.calls": calls["csp.hom"],
        "csp.hom.s": total["csp.hom"],
        "jsonio.load.s": total["jsonio.load"],
        "jsonio.dumps.s": total["jsonio.dumps"],
        "jsonio.dumps.bytes": counts["jsonio.dumps.bytes"],
        "cli.self_s": self_time["cli"],
        "suites.self_s": self_time["suites"],
        "trace.spans": len(spans),
    }

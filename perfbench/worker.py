"""Run a list of tasks in a fresh interpreter.

Usage: python3 perfbench/worker.py TASKS.json RESULT.json [--trace]

Imports `finalg.cli` (timed), then runs each task as one in-process
`finalg.cli.main(argv)` call with stdout and stderr captured, one task at a
time.  Writes per-task times, exit codes and outputs, the wall time of the
task loop and the process's peak RSS to RESULT.json; with --trace also every
span.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import sys
import time
import traceback


def main(argv: list) -> int:
    tasks_path, result_path = argv[0], argv[1]
    traced = "--trace" in argv[2:]
    with open(tasks_path, encoding="utf-8") as fh:
        tasks = json.load(fh)

    t0 = time.perf_counter()
    import finalg.cli

    import_s = time.perf_counter() - t0

    tracer = None
    if traced:
        import spans  # this script's directory is first on sys.path

        tracer = spans.Tracer()
        spans.install(tracer)

    results = []
    pass_start = time.perf_counter()
    for task in tasks:
        out, err = io.StringIO(), io.StringIO()
        if tracer is not None:
            tracer.task = task["id"]
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = finalg.cli.main(task["argv"])
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 2
        except Exception:
            code = "raised"
            err.write(traceback.format_exc())
        seconds = time.perf_counter() - start
        results.append({"id": task["id"], "seconds": seconds, "code": code,
                        "stdout": out.getvalue(), "stderr": err.getvalue()[-2000:]})
    pass_s = time.perf_counter() - pass_start

    report = {
        "import_s": import_s,
        "pass_s": pass_s,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "tasks": results,
    }
    if tracer is not None:
        report["spans"] = tracer.spans
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

"""finalg benchmark: closed-loop CLI workloads with end-to-end and per-layer metrics.

Usage, from the root of a checkout (no install needed, `src` is put on
PYTHONPATH for the worker processes):

    python3 perfbench/run.py --workload cyclic|search|verify --seed N \
        --seconds S --trace 0|1

Set-up writes the workload's inputs from the seed, three times, and reports
the median time plus the median cold import of `finalg.cli` in the worker
processes.  A pass runs the whole task list, one `finalg.cli.main(argv)` call
at a time, split over a few fresh interpreters that run one after another
(perfbench/worker.py), so the program's caches start cold as they do for a
CLI user.  A run makes at least MIN_PASSES passes, and more while another
one fits in S seconds.  With --trace 1 the run makes one untraced and one
traced pass and reports the per-layer metrics.  Every verdict is checked against reference answers
computed outside the timed code.  Metric names and units come from
BENCHMARK.json.  The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
SETUP_REPEATS = 3
WORKERS_PER_PASS = 3
MIN_PASSES = 2
RUN_LIMIT_S = 170.0  # a run must end within 180 s

sys.path.insert(0, HERE)

import checks  # noqa: E402
import inputs  # noqa: E402
import spans  # noqa: E402


def metric_units(trace: bool) -> dict:
    """Name -> unit of the metrics a run reports, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(argv: list, timeout: float) -> subprocess.CompletedProcess:
    proc = subprocess.run([sys.executable, *argv], cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{argv[0]} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc


def write_inputs(workload: str, seed: int, work: str) -> tuple[list, float]:
    """Generate the inputs several times; return the tasks and the median time."""
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        tasks = inputs.write_inputs(workload, seed, os.path.join(work, "inputs"))
        times.append(time.perf_counter() - start)
    return tasks, statistics.median(times)


def run_pass(tasks: list, work: str, traced: bool, deadline: float) -> dict:
    """One pass over the tasks, dealt round-robin to fresh worker processes.

    The workers run one after another, so one task runs at a time.  Several
    processes per pass average out how fast each new process happens to run
    small tasks, which varies by several percent between processes.
    """
    chunks = [tasks[i::WORKERS_PER_PASS] for i in range(min(WORKERS_PER_PASS, len(tasks)))]
    reports = []
    for i, chunk in enumerate(chunks):
        tasks_file = os.path.join(work, f"tasks{i}.json")
        result_file = os.path.join(work, f"result{i}.json")
        with open(tasks_file, "w", encoding="utf-8") as fh:
            json.dump([{"id": t.id, "argv": t.argv} for t in chunk], fh)
        argv = [os.path.join(HERE, "worker.py"), tasks_file, result_file]
        run_child(argv + (["--trace"] if traced else []),
                  timeout=max(10.0, deadline - time.perf_counter()))
        with open(result_file, encoding="utf-8") as fh:
            reports.append(json.load(fh))
        os.remove(result_file)
    by_id = {r["id"]: r for report in reports for r in report["tasks"]}
    merged = {
        "import_s": [r["import_s"] for r in reports],
        "pass_s": sum(r["pass_s"] for r in reports),
        "peak_rss_kb": max(r["peak_rss_kb"] for r in reports),
        "tasks": [by_id[t.id] for t in tasks],
    }
    if traced:
        merged["spans"] = []
        for report in reports:
            offset = len(merged["spans"])
            for span in report["spans"]:
                span[0] += offset
                if span[1] >= 0:
                    span[1] += offset
                merged["spans"].append(span)
    return merged


def percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def environment(seed: int) -> dict:
    import numpy

    try:
        import numba  # noqa: F401

        numba_ok = True
    except ImportError:
        numba_ok = False
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba_imports": numba_ok,
        "nproc": os.cpu_count(),
        "seed": seed,
    }


def grade(tasks: list, passes: list) -> tuple[dict, list]:
    """Check every task of every pass; returns status counts and notes."""
    checker = checks.Checker()
    counts = {"decided": 0, "undecided": 0, "failed": 0}
    notes = []
    for report in passes:
        for task, result in zip(tasks, report["tasks"]):
            status, note = checker.check(task, result)
            counts[status] += 1
            if status != "decided" and (task.id, status, note) not in notes:
                notes.append((task.id, status, note))
    return counts, notes


def end_to_end(passes: list, counts: dict, setup_s: float) -> dict:
    attempted = sum(counts.values())
    per_pass = [[r["seconds"] for r in p["tasks"]] for p in passes]
    return {
        "run_s": statistics.median(p["pass_s"] for p in passes),
        "task_p50_s": statistics.median(statistics.median(t) for t in per_pass),
        "task_p90_s": statistics.median(percentile(t, 90) for t in per_pass),
        "decided_share": counts["decided"] / attempted,
        "peak_rss_mb": statistics.median(p["peak_rss_kb"] for p in passes) / 1024,
        "output_kb": statistics.median(
            sum(len(r["stdout"].encode()) for r in p["tasks"]) for p in passes) / 1024,
        "setup_s": setup_s,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=inputs.WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=34.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "finalg", "cli.py")):
        sys.stderr.write(f"error: no finalg sources under {SRC}; run from a checkout\n")
        return 2
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    work = os.path.join(WORK, f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    os.chdir(ROOT)
    try:
        tasks, inputs_s = write_inputs(args.workload, args.seed, work)
        passes = []
        window_start = time.perf_counter()
        while True:
            passes.append(run_pass(tasks, work, False, deadline))
            elapsed = time.perf_counter() - window_start
            if args.trace or len(passes) >= MIN_PASSES \
                    and elapsed * (len(passes) + 1) / len(passes) > args.seconds:
                break
        traced = run_pass(tasks, work, True, deadline) if args.trace else None
    finally:
        shutil.rmtree(work, ignore_errors=True)

    graded = passes + ([traced] if traced else [])
    counts, notes = grade(tasks, graded)
    attempted = sum(counts.values())
    env = environment(args.seed)
    print(f"env: {json.dumps(env, sort_keys=True)}")
    print(f"workload {args.workload}: {len(tasks)} tasks per pass, "
          f"{len(passes)} untraced pass(es){', 1 traced' if traced else ''}; "
          f"closed loop, one client, one task at a time")
    for task_id, status, note in notes:
        print(f"  {status}: {task_id}: {note}")
    print(f"  failed_share = {counts['failed'] / attempted:.4f} share "
          f"({counts['failed']} of {attempted})")
    print("  pass seconds " + " ".join(f"{p['pass_s']:.3f}" for p in passes))

    import_s = statistics.median(s for p in passes for s in p["import_s"])
    if traced:
        span_list = traced.pop("spans")
        with open(os.path.join(WORK, f"spans-{args.workload}-s{args.seed}.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(span_list, fh)
        metrics = spans.layer_metrics(span_list)
        metrics["setup.import_s"] = import_s
        metrics["setup.inputs_s"] = inputs_s
        metrics["trace.overhead"] = traced["pass_s"] / passes[0]["pass_s"]
    else:
        metrics = end_to_end(passes, counts, import_s + inputs_s)
    units = metric_units(bool(args.trace))
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(units))} "
                           "differ from BENCHMARK.json")
    for name in units:
        print(f"  {name} = {metrics[name]:.6g} {units[name]}")
    print(f"  elapsed {time.perf_counter() - began:.1f} s")
    print(json.dumps({
        "correct": counts["failed"] == 0,
        "attempted": attempted,
        "failed": counts["failed"],
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""One workload in one single-threaded process: set up, run, check, record.

Run by ``run.py``; writes a JSON record to ``--record``.  Modes:
  --setup-only   build the inputs, record when they were ready, exit;
  (default)      closed loop, one client: passes over the task list until
                 --seconds have elapsed, the first pass always whole;
  --one-pass     exactly one pass (used for the tracing-overhead baseline);
  --trace        one pass with the per-layer tracer installed.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import numpy as np


REFERENCE_NOMINAL_S = 0.004
REFERENCE_MATRIX = np.arange(64 * 64, dtype=np.int64).reshape(64, 64) % 7


def reference_seconds() -> float:
    """Time of a fixed kernel of the benchmark's own code, mixing interpreted
    integer arithmetic and small numpy products like the library does.  It
    takes about REFERENCE_NOMINAL_S on a quiet core of a 2-vCPU x86-64 VM."""
    start = time.perf_counter()
    acc = 0
    for i in range(4000):
        acc += (i * i) % 7
    for _ in range(20):
        (REFERENCE_MATRIX @ REFERENCE_MATRIX) % 7
    return time.perf_counter() - start


PROCESS_REFERENCE_NOMINAL_S = 0.1


def process_reference_seconds() -> float:
    """Time to start a fresh interpreter that imports numpy: the reference for
    CLI tasks, whose cost is mostly process start and imports."""
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import numpy"], check=True)
    return time.perf_counter() - start


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--record", required=True)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--one-pass", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workdir = Path(args.workdir)
    workdir.mkdir(parents=True, exist_ok=True)

    import beilinson  # noqa: F401  (set-up includes the package import)
    import tracer as tracing
    import workloads

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install_constructor_counter()
    tasks = workloads.build(args.workload, args.seed, workdir,
                            cli_prefix=_cli_prefix(workdir, args.trace))
    ready = time.monotonic()
    record: dict = {"ready": ready}
    if args.setup_only:
        _write(args.record, record)
        return 0

    setup_constructions = 0
    if tracer is not None:
        setup_constructions = tracer.counts["fpmatrix_new"]
        tracer.install()

    latencies = {t.label: [] for t in tasks}
    speed = {t.label: [] for t in tasks}
    if args.workload == "cli":
        reference, nominal = process_reference_seconds, PROCESS_REFERENCE_NOMINAL_S
    else:
        reference, nominal = reference_seconds, REFERENCE_NOMINAL_S
    texts: dict[str, list] = {t.label: [] for t in tasks}
    first: dict[str, object] = {}
    errors: dict[str, str] = {}
    single = args.one_pass or args.trace
    deadline = time.perf_counter() + args.seconds
    pass_times = []
    before = reference() if not single else 0.0
    while True:
        pass_start = time.perf_counter()
        for task in tasks:
            if pass_times and time.perf_counter() >= deadline:
                break
            t0 = time.perf_counter()
            try:
                obj = task.run()
            except Exception as exc:  # a raising task is a failed task, not a crash
                latencies[task.label].append(time.perf_counter() - t0)
                texts[task.label].append(None)
                errors.setdefault(task.label, f"raised {type(exc).__name__}: {exc}")
                continue
            latencies[task.label].append(time.perf_counter() - t0)
            if not single:
                # the reference timed after this task is also the one before the next
                after = reference()
                speed[task.label].append(2 * nominal / (before + after))
                before = after
            if not pass_times:
                first[task.label] = obj
            texts[task.label].append(task.render(obj))
        pass_times.append(time.perf_counter() - pass_start)
        if single or time.perf_counter() >= deadline:
            break

    if tracer is not None:
        tracer.uninstall()
        record["trace_state"] = tracer.state()
        record["trace_missing"] = tracer.missing
        record["setup_constructions"] = setup_constructions
        if args.workload == "cli":
            record["cli_stats"] = _collect_cli_stats(workdir)

    record.update(_check(tasks, first, texts, errors))
    if args.workload == "cli":
        rss_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    record.update({
        "pass_times_s": pass_times,
        "latencies": latencies,
        "speed": speed,
        "digests": {label: hashlib.sha256(json.dumps(v).encode()).hexdigest()
                    for label, v in texts.items()},
        "peak_rss_mb": rss_kb / 1024.0,
        "numpy": np.__version__,
    })
    _write(args.record, record)
    return 0


def _check(tasks, first, texts, errors) -> dict:
    """Failures per execution, expectation sources and verdict shares."""
    failures = {}
    sources: dict[str, int] = {}
    attempted = failed = 0
    false_verdicts = full_sweeps = 0
    for task in tasks:
        runs = texts[task.label]
        attempted += len(runs)
        sources[task.source] = sources.get(task.source, 0) + 1
        if task.label in errors:
            reason = errors[task.label]
        else:
            obj = first[task.label]
            try:
                reason = task.check(obj, first)
            except Exception as exc:  # a result the check cannot read is wrong
                reason = f"check raised {type(exc).__name__}: {exc}"
            if reason is None:
                false_verdicts += task.verdict(obj) is False
                full_sweeps += task.full_sweep(obj) is True
        if reason is not None:
            failures[task.label] = reason
            failed += len(runs)
        else:
            mismatched = sum(text != runs[0] for text in runs)
            if mismatched:
                failures[task.label] = f"{mismatched} passes differ from the first"
                failed += mismatched
    return {
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "checked_by": sources,
        "task_count": len(tasks),
        "false_verdict_share": false_verdicts / len(tasks),
        "full_sweep_share": full_sweeps / len(tasks),
    }


def _cli_prefix(workdir: Path, trace: bool):
    here = Path(__file__).resolve().parent
    if not trace:
        return lambda: [sys.executable, "-m", "beilinson.cli"]
    stats = workdir / "cli_stats"
    stats.mkdir(exist_ok=True)
    counter = itertools.count()
    return lambda: [sys.executable, str(here / "clitrace.py"),
                    str(stats / f"{next(counter):05d}.json")]


def _collect_cli_stats(workdir: Path) -> list[dict]:
    return [json.loads(p.read_text()) for p in sorted((workdir / "cli_stats").glob("*.json"))]


def _write(path: str, record: dict) -> None:
    Path(path).write_text(json.dumps(record))


if __name__ == "__main__":
    sys.exit(main())

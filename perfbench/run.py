"""Benchmark of the beilinson package: four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (the package is loaded from
``src/``; nothing is installed).  Workloads, each a closed loop with one
client in its own single-threaded process:

  point_sweep  definition-route sweeps over the 400 points of P^3(F_7)
  hom_route    homological checks, Hom systems and isomorphism searches
  orbit_walk   Auslander-Reiten translates, widths and classification
  cli          fresh-process CLI subcommands on stored JSON inputs

--trace 0 is the plain run.  It times ``SETUP_RUNS`` set-ups (process start
to inputs ready; the median is reported) and then passes over the
workload's task list until S seconds have elapsed, the first pass always
whole.

Task times are scaled to a fixed host speed.  On a shared 2-vCPU virtual
machine the speed of a core swings by up to 1.8x in phases of seconds to
minutes, which would swamp any change to the program.  So the benchmark
pins itself and every process it starts to one core and times a fixed
reference of its own code (``worker.py``) before the first task and after
every task: a small compute kernel, or for the cli workload a fresh
interpreter that imports numpy.  A task's time is multiplied by nominal
reference time over the mean of the references just before and after it.
The reference never calls the library, so the scaling is the same for
every commit.

A task's latency is the median of its scaled times over the passes;
tasks_per_s is the task count over the sum of task latencies, task_p50_ms
the median task latency and task_tail_ms the highest percentile with at
least ten tasks beyond it.  setup_s, the median over the set-ups, is scaled
by the fresh-interpreter reference timed right before each set-up.  The
unscaled task figures are printed in the details line; peak_rss_mb is not
scaled.

--trace 1 runs one untraced pass and two traced passes, each in a fresh
process, and reports the per-layer metrics of ``tracer.py``.  It checks that
traced results equal the plain ones byte for byte and that every count
repeats exactly in both traced passes; the overhead is the mean traced pass
time minus the plain pass time.

Every task result is checked (see ``workloads.py``).  Human-readable lines
come first; the last line is the JSON result.  Without the package sources
the benchmark exits with status 2 and prints no result.
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
from pathlib import Path

import worker

HERE = Path(__file__).resolve().parent
SETUP_RUNS = 9
CHILD_TIMEOUT_S = 170
WORKLOADS = ("point_sweep", "hom_route", "orbit_walk", "cli")
UNITS = {"tasks_per_s": "1/s", "task_p50_ms": "ms", "task_tail_ms": "ms", "setup_s": "s",
         "peak_rss_mb": "MB"}


class BenchError(RuntimeError):
    pass


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "beilinson" / "__init__.py").is_file():
        print("perfbench: src/beilinson not found; run from the root of a source checkout",
              file=sys.stderr)
        return 2
    # one core for this process and every process it starts, so that each
    # reference is timed where the work it scales runs
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    workdir = root / ".perfbench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        runner = Runner(root, workdir, args)
        result, details = runner.traced() if args.trace else runner.plain()
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    for name, m in result["metrics"].items():
        print(f"{args.workload:12s} {name:44s} {m['value']:>16.6g} {m['unit']}")
    print("details " + json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


class Runner:
    def __init__(self, root: Path, workdir: Path, args):
        self.root, self.workdir, self.args = root, workdir, args
        self.env = dict(os.environ)
        self.env.update({
            "PYTHONPATH": os.pathsep.join(
                filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])),
            "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1",
            "PYTHONHASHSEED": "0",
        })
        self.children = 0

    def spawn(self, *flags: str) -> tuple[dict, float]:
        """Run one worker to completion; returns its record and spawn time."""
        self.children += 1
        record = self.workdir / f"record{self.children}.json"
        cmd = [sys.executable, str(HERE / "worker.py"), "--workload", self.args.workload,
               "--seed", str(self.args.seed), "--seconds", str(self.args.seconds),
               "--workdir", str(self.workdir / f"w{self.children}"), "--record", str(record),
               *flags]
        spawned = time.monotonic()
        proc = subprocess.Popen(cmd, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        try:
            out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.communicate()
            raise BenchError(f"worker {' '.join(flags)} exceeded {CHILD_TIMEOUT_S} s")
        if proc.returncode != 0 or not record.exists():
            raise BenchError(f"worker failed with status {proc.returncode}:\n{err[-4000:]}")
        return json.loads(record.read_text()), spawned

    def plain(self):
        setups = []
        for k in range(SETUP_RUNS):
            speed = worker.PROCESS_REFERENCE_NOMINAL_S / worker.process_reference_seconds()
            rec, spawned = self.spawn() if k == SETUP_RUNS - 1 else self.spawn("--setup-only")
            setups.append((rec["ready"] - spawned) * speed)
        per_task = sorted(
            statistics.median(t * s for t, s in zip(rec["latencies"][label], rec["speed"][label]))
            for label in rec["latencies"])
        raw = sorted(statistics.median(v) for v in rec["latencies"].values())
        tail_ms, tail_pct = tail(per_task)
        metrics = {
            "tasks_per_s": len(per_task) / sum(per_task),
            "task_p50_ms": 1000 * statistics.median(per_task),
            "task_tail_ms": 1000 * tail_ms,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": rec["peak_rss_mb"],
        }
        details = self.details(rec)
        details.update({
            "pass_times_s": rec["pass_times_s"],
            "unscaled": {"tasks_per_s": len(raw) / sum(raw),
                         "task_p50_ms": 1000 * statistics.median(raw),
                         "task_tail_ms": 1000 * tail(raw)[0]},
            "task_tail_percentile": tail_pct, "task_latency_samples": len(per_task),
            "setup_samples_s": setups,
        })
        result = self.result(rec, {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()})
        return result, details

    def traced(self):
        import tracer as tracing

        plain, _ = self.spawn("--one-pass")
        runs = [self.spawn("--trace")[0] for _ in range(2)]
        problems = []
        for k, rec in enumerate(runs, 1):
            if rec["digests"] != plain["digests"]:
                differ = [label for label, d in rec["digests"].items()
                          if plain["digests"].get(label) != d]
                problems.append(f"traced pass {k} results differ from the plain pass: {differ[:5]}")
        layer = [self.layer_metrics(rec, tracing) for rec in runs]
        repeat = [name for name in layer[0]
                  if not tracing.is_timing(name) and layer[0][name] != layer[1][name]]
        if repeat:
            problems.append(f"counts differ between the two traced passes: {repeat[:8]}")
        metrics = {name: statistics.mean(m[name] for m in layer) for name in layer[0]}
        plain_s = plain["pass_times_s"][0]
        traced_s = statistics.mean(rec["pass_times_s"][0] for rec in runs)
        metrics["trace.overhead_s"] = traced_s - plain_s
        metrics["trace.overhead_frac"] = metrics["trace.overhead_s"] / plain_s
        details = self.details(runs[0])
        details.update({
            "plain_pass_s": plain_s, "traced_pass_s": [rec["pass_times_s"][0] for rec in runs],
            "trace_problems": problems, "not_traced": runs[0]["trace_missing"],
        })
        result = self.result(runs[0], {k: {"value": metrics[k], "unit": tracing.unit(k)}
                                       for k in tracing.metric_names()})
        result["correct"] = not problems and all(r["failed"] == 0 for r in [plain] + runs)
        return result, details

    def layer_metrics(self, rec: dict, tracing) -> dict:
        states = [rec["trace_state"]] + [s["state"] for s in rec.get("cli_stats", [])]
        out = tracing.metrics(tracing.merge(states), rec["setup_constructions"])
        stats = rec.get("cli_stats", [])
        out["cli.import_s"] = statistics.median([s["import_s"] for s in stats]) if stats else 0.0
        for sub in tracing.CLI_SUBCOMMANDS:
            walls = [s["main_s"] for s in stats if s["subcommand"] == sub]
            out[f"cli.{sub}.wall_s"] = statistics.median(walls) if walls else 0.0
        return out

    def result(self, rec: dict, metrics: dict) -> dict:
        return {"correct": rec["failed"] == 0, "attempted": rec["attempted"],
                "failed": rec["failed"], "metrics": metrics}

    def details(self, rec: dict) -> dict:
        path = HERE / "baseline.json"
        baseline = json.loads(path.read_text()) if path.exists() else {}
        return {
            "workload": self.args.workload, "seed": self.args.seed,
            "failed_frac": rec["failed"] / rec["attempted"], "failures": rec["failures"],
            "checked_by": rec["checked_by"], "tasks_per_pass": rec["task_count"],
            "false_verdict_share": rec["false_verdict_share"],
            "full_sweep_share": rec["full_sweep_share"],
            "load": "closed loop, one client, jobs=1",
            "wait_time": "not applicable: one client and jobs=1, so no task waits for another",
            "environment": {
                "python": platform.python_version(), "numpy": rec["numpy"],
                "nproc": os.cpu_count(), "machine": platform.machine(),
                "threads": "OMP/OPENBLAS/MKL_NUM_THREADS=1",
            },
            "seed_commit_baseline": baseline.get(self.args.workload),
        }


def tail(sorted_values: list[float]) -> tuple[float, float]:
    """Value and percentile of the highest order statistic with ten values
    beyond it; the maximum when there are ten values or fewer."""
    n = len(sorted_values)
    if n <= 10:
        return sorted_values[-1], 100.0
    return sorted_values[n - 11], 100.0 * (n - 10) / n


if __name__ == "__main__":
    sys.exit(main())

"""relicert benchmark: drives the `relicert` CLI on fixed workloads and
checks every result.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is imported from ./src).  With
--trace 0 the run measures end-to-end metrics with tracing off; with
--trace 1 it runs a fixed amount of the same work twice, untraced and
traced, and reports per-layer metrics plus the tracing overhead.  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

A full record of the run (provenance, per-call timings, check failures and,
when traced, the spans) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np

import layertrace
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_SAMPLES = 10
MAX_CALLS = 1000
WORKER_TIMEOUT_S = 150.0
# BLAS is pinned to one thread: the package's matrices are tiny and the
# CLI runs with --jobs 1, so extra BLAS threads only add noise
BLAS_THREADS = "1"

END_TO_END_UNITS = {
    "setup_s": "s",
    "units_per_s": "1/s",
    "peak_rss_mb": "MB",
    "passed_frac": "fraction",
    "certified_frac": "fraction",
    "radius_tightness": "fraction",
}

IMPORT_PROBE = (
    "import time; t0 = time.perf_counter(); import relicert.cli; "
    "print(repr(time.perf_counter() - t0))"
)


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    return env


def import_times(samples: int) -> list[float]:
    """Wall times for fresh interpreters to import relicert.cli."""
    times = []
    for _ in range(samples):
        out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], env=child_env(),
                             capture_output=True, text=True, timeout=60, check=True)
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return times


def run_worker(plan: workloads.Plan, work: Path, tag: str, *, seconds: float = 0.0,
               fixed: int | None = None, trace: bool = False, pass_offset: int = 0,
               extras: bool = True) -> dict:
    """Run a plan in a fresh interpreter: exactly `fixed` calls when given,
    otherwise calls until `seconds` are spent."""
    spec = {
        "src": str(SRC),
        "calls": plan.calls,
        "seconds": seconds,
        "min_calls": plan.min_calls if fixed is None else fixed,
        "max_calls": MAX_CALLS if fixed is None else fixed,
        "extras": plan.extras if extras else [],
        "reruns": plan.reruns if extras else 0,
        "pass_offset": pass_offset,
        "trace": trace,
    }
    plan_path, out_path = work / f"plan-{tag}.json", work / f"worker-{tag}.json"
    plan_path.write_text(json.dumps(spec), encoding="utf-8")
    with open(work / f"stderr-{tag}.txt", "w", encoding="utf-8") as err:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), str(plan_path), str(out_path)],
            env=child_env(), cwd=str(ROOT), stdout=subprocess.DEVNULL, stderr=err,
            timeout=WORKER_TIMEOUT_S,
        )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}; see {work}/stderr-{tag}.txt")
    return json.loads(out_path.read_text(encoding="utf-8"))


def units_per_s(plan: workloads.Plan, records: list) -> float:
    """Units of one pass over the plan's calls divided by the sum of each
    call's median time; with one call this is its median rate."""
    by_call: dict = {}
    for r in records:
        by_call.setdefault(r["index"], []).append(r["seconds"])
    units = sum(plan.calls[i]["units"] for i in by_call)
    return units / sum(statistics.median(t) for t in by_call.values())


def provenance(args) -> dict:
    def git_revision():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=str(ROOT), capture_output=True,
                                 text=True, timeout=10)
        except (OSError, subprocess.SubprocessError):
            return None
        return out.stdout.strip() or None if out.returncode == 0 else None

    digest = hashlib.sha256()
    for path in sorted((SRC / "relicert").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_revision": git_revision(),
        "source_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
    }


def run(args) -> tuple[dict, dict]:
    wl = workloads.WORKLOADS[args.workload]
    work = RESULTS / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        plan = wl.prepare(work, args.seed, args.scale)
        ev = workloads.Evaluation()
        record = {}
        if not args.trace:
            # set-up is sampled before and after the timed work, so one slow
            # spell of the machine does not cover every sample; the first
            # import only compiles bytecode and is dropped
            import_times(1)
            setup = import_times(SETUP_SAMPLES // 2)
            result = run_worker(plan, work, "timed", seconds=args.seconds)
            setup += import_times(SETUP_SAMPLES - SETUP_SAMPLES // 2)
            workloads.evaluate(wl, plan, result, ev)
            metrics = {
                "setup_s": statistics.median(setup),
                "units_per_s": units_per_s(plan, result["records"]),
                "peak_rss_mb": result["peak_rss_mb"],
                "passed_frac": ev.passed_units / ev.units if ev.units else 0.0,
                "certified_frac": ev.certified_units / ev.units if ev.units else 0.0,
                "radius_tightness": workloads.radius_tightness(ev),
            }
            metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
            record["calls"] = result["records"]
        else:
            plain = run_worker(plan, work, "untraced", fixed=plan.trace_calls)
            traced = run_worker(plan, work, "traced", fixed=plan.trace_calls, trace=True,
                                pass_offset=100, extras=False)
            workloads.evaluate(wl, plan, plain, ev)
            workloads.evaluate(wl, plan, {**traced, "extras": plain["extras"]}, ev)
            # per call: traced time / untraced time - 1, over the same calls
            ratios = [t["seconds"] / u["seconds"] for t, u in zip(traced["records"], plain["records"])]
            layers = dict(traced["layers"])
            layers["trace.overhead_frac"] = statistics.median(ratios) - 1.0
            units = {**{k: v[0] for k, v in layertrace.PER_LAYER.items()},
                     "trace.overhead_frac": "fraction"}
            metrics = {k: {"value": v, "unit": units[k]} for k, v in layers.items()}
            record["calls"] = {"untraced": plain["records"], "traced": traced["records"]}
            record["missing_targets"] = traced["missing"]
            spans_path = RESULTS / f"{args.workload}-seed{args.seed}-spans.json"
            spans_path.write_text(json.dumps({"fields": ["name", "start", "end", "parent", "run"],
                                              "spans": traced["spans"]}), encoding="utf-8")
            record["spans_file"] = spans_path.name
        summary = {
            "correct": ev.failed_ops == 0,
            "attempted": ev.ops,
            "failed": ev.failed_ops,
            "metrics": metrics,
        }
        record.update({
            "provenance": provenance(args),
            "summary": summary,
            "units_attempted": ev.units,
            "units_passed": ev.passed_units,
            "failures": ev.failures,
        })
        return summary, record
    finally:
        shutil.rmtree(work, ignore_errors=True)


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="input sizes; 'tiny' is for the benchmark's own smoke tests")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "relicert" / "cli.py").is_file():
        print(f"error: no relicert source under {SRC}", file=sys.stderr)
        return 2
    summary, record = run(args)
    RESULTS.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (RESULTS / name).write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())

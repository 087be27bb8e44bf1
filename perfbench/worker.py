"""Runs a plan of relicert CLI calls in one fresh interpreter and times them.

Usage: python3 worker.py PLAN.json RESULT.json

The plan names the package source directory, the list of calls (argv and
work units each) to cycle through until the time budget is spent, the
untimed calls to make afterwards (extra calls, and reruns of
the fastest timed calls to check determinism), and whether to trace.  A
call's argv may hold the placeholder "{pass}", replaced by the repetition
index plus `pass_offset`, so repeated passes write separate artifacts.
Every call runs through `relicert.cli.main`; its exit code or exception is
recorded, never raised.
"""

from __future__ import annotations

import json
import resource
import sys
import time


def _run_one(main, call: dict, index: int, rep: int, tracer) -> dict:
    argv = [a.replace("{pass}", str(rep)) for a in call["argv"]]
    error = None
    code = None
    if tracer is not None:
        tracer.run_id += 1
        span = tracer.open("cli.main")
    t0 = time.perf_counter()
    try:
        code = main(argv)
    except Exception as exc:  # recorded as a failed operation
        error = f"{type(exc).__name__}: {exc}"
    seconds = time.perf_counter() - t0
    if tracer is not None:
        tracer.close(span)
    return {"index": index, "pass": rep, "seconds": seconds, "exit": code, "error": error}


def run_plan(plan: dict) -> dict:
    sys.path.insert(0, plan["src"])
    from relicert.cli import main

    tracer = None
    if plan["trace"]:
        import layertrace

        tracer = layertrace.Tracer()
        tracer.install()
    calls = plan["calls"]
    offset = plan.get("pass_offset", 0)
    records = []
    last: dict = {}  # call index -> seconds its previous run took
    start = time.perf_counter()
    k = 0
    while k < plan["max_calls"]:
        index, rep = k % len(calls), k // len(calls)
        # past the minimum, start a call only if its previous run would
        # still end within the time budget
        if k >= plan["min_calls"] and (
            time.perf_counter() - start + last.get(index, 0.0) >= plan["seconds"]
        ):
            break
        records.append(_run_one(main, calls[index], index, rep + offset, tracer))
        last[index] = records[-1]["seconds"]
        k += 1
    if tracer is not None:
        tracer.uninstall()
    extras = [_run_one(main, call, i, 0, None) for i, call in enumerate(plan.get("extras", []))]
    # rerun the fastest distinct calls (untimed) to check determinism
    reruns = []
    done = [r for r in records if r["pass"] == offset and r["error"] is None]
    for r in sorted(done, key=lambda r: r["seconds"])[: plan.get("reruns", 0)]:
        reruns.append(_run_one(main, calls[r["index"]], r["index"], offset + 1, None))
    out = {
        "records": records,
        "extras": extras,
        "reruns": reruns,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        out["layers"] = layertrace.layer_metrics(tracer.spans, tracer.counts, tracer.missing)
        out["missing"] = tracer.missing
        out["spans"] = tracer.spans
    return out


def main() -> int:
    with open(sys.argv[1], "r", encoding="utf-8") as f:
        plan = json.load(f)
    out = run_plan(plan)
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())

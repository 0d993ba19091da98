"""rsdlab benchmark: times the ``rsdlab`` CLI on one workload and checks its
outputs against computations made apart from the program.

    python3 bench/run.py --workload coverage-line6 --seed 1 --seconds 25 --trace 0

Run from the root of a checkout.  The program runs in child processes
(``bench/worker.py``) that import rsdlab from ``src/``; this process only
orchestrates, checks outputs (``bench/checks.py``, which may use scipy) and
prints the result, so neither the checks nor scipy count toward ``setup_s``
or ``peak_rss_mb``.  The last line of standard output is one JSON object:
end-to-end metrics with ``--trace 0``, per-layer metrics with ``--trace 1``.
Full results and spans go to ``bench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import traceback

from checks import CHECKS, CheckFailed
from tracing import STAGES
from workloads import NAMES

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
SETUP_REPEATS = 7  # fresh processes timed per run; setup_s is their median
# The calibrations' times on a quiet 2-core host (Python 3.11): figures read
# as seconds at that speed.
REFERENCE_CAL_S = 0.008  # worker.calibrate
REFERENCE_IMPORTS_S = 0.035  # worker.calibrate_imports
CHILD_TIMEOUT_S = 150


def child(mode: str, args, workdir: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter; returns its JSON result."""
    cmd = [sys.executable, os.path.join(BENCH, "worker.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed), "--workdir", workdir,
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"worker {mode} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def at_reference(seconds: float, cal: list[float], reference: float = REFERENCE_CAL_S) -> float:
    """``seconds`` rescaled by the calibrations taken around the timing, to
    what it would read while the calibration takes ``reference``."""
    return seconds * reference / statistics.fmean(cal)


def pass_seconds(passes: list[dict]) -> float:
    """One pass: each invocation at reference speed, median over the passes."""
    columns = zip(*[[at_reference(t, p["cal"][i:i + 2]) for i, t in enumerate(p["times"])]
                    for p in passes])
    return sum(statistics.median(column) for column in columns)


def layer_figures(traced: list[dict], replay: list[dict]) -> dict:
    """Median over traced passes (and replay repeats) of each layer figure,
    times at reference speed."""
    per_pass = []
    for p in traced:
        scale = REFERENCE_CAL_S / statistics.fmean(p["cal"])
        per_pass.append({k: v * scale if unit_of(k) in ("s", "us") else v for k, v in p["layers"].items()})
    figures = {k: statistics.median(d[k] for d in per_pass) for k in per_pass[0]}
    for stage in STAGES:
        figures[stage] = statistics.median(
            at_reference(r["stages"][stage], r["cal"]) for r in replay) if replay else 0.0
    return figures


def check_replay(args, workdir: str, replay: list[dict]) -> None:
    """The replayed run means must be the estimator's own: the median of
    the 24 runs for coverage-line6, the single run for large-instance."""
    if args.workload == "coverage-line6":
        with open(os.path.join(workdir, "coverage.csv"), encoding="utf-8") as fh:
            estimate = float(fh.read().splitlines()[1].split(",")[2])
        got = statistics.median(replay[0]["means"])
    elif args.workload == "large-instance":
        with open(os.path.join(workdir, "line.estimate.json"), encoding="utf-8") as fh:
            estimate = json.load(fh)["run_values"][0]
        got = replay[0]["means"][0]
    else:
        return
    if got != estimate:
        raise CheckFailed(f"replayed stages give {got!r}, the estimator gave {estimate!r}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "rsdlab", "cli.py")):
        print(f"error: no rsdlab sources under {ROOT}/src", file=sys.stderr)
        return 2

    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(OUT, f"work-{tag}-{os.getpid()}")
    try:
        setups = []
        for i in range(SETUP_REPEATS):
            scratch = f"{workdir}-setup{i}"
            setups.append(child("setup", args, scratch))
            shutil.rmtree(scratch)
        run = child("run", args, workdir)

        problems = [] if run["outputs_repeat"] else ["outputs differ between passes"]
        try:
            CHECKS[args.workload](workdir, args.seed)
            if args.trace:
                check_replay(args, workdir, run["replay"])
        except Exception as exc:  # a malformed output fails the check, not the run
            problems.append(f"{type(exc).__name__}: {exc}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    untraced = pass_seconds(run["passes"])
    if args.trace:
        metrics = layer_figures(run["traced_passes"], run["replay"])
        metrics["trace.overhead_s"] = pass_seconds(run["traced_passes"]) - untraced
        with open(os.path.join(OUT, f"trace-{args.workload}-seed{args.seed}.json"), "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "span_fields": ["name", "start_ns", "end_ns", "parent", "count"],
                       "spans": run["spans"]}, fh)
    else:
        metrics = {
            "pass_s": untraced,
            "setup_s": statistics.median(at_reference(s["setup_s"], s["setup_cal"], REFERENCE_IMPORTS_S)
                                         for s in setups),
            "peak_rss_mb": run["peak_rss_mb"],
        }
    result = {"correct": not problems, "attempted": run["attempted"], "failed": run["failed"],
              "metrics": {name: {"value": value, "unit": unit_of(name)} for name, value in metrics.items()}}
    detail = dict(result, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  problems=problems, errors=run["errors"],
                  raw_pass_min_s=sum(min(c) for c in zip(*(p["times"] for p in run["passes"]))),
                  raw_setup_s=[s["setup_s"] for s in setups],
                  setup_cal=[s["setup_cal"] for s in setups],
                  passes=[{k: p[k] for k in ("times", "cal")} for p in run["passes"]],
                  traced_passes=run.get("traced_passes"), replay=run.get("replay"))
    with open(os.path.join(OUT, f"result-{tag}.json"), "w") as fh:
        json.dump(detail, fh, indent=1)
    for problem in problems + run["errors"]:
        print(problem, file=sys.stderr)
    print(json.dumps(result))
    return 0


def unit_of(name: str) -> str:
    suffix = name.rsplit("_", 1)[-1]
    return {"s": "s", "us": "us", "mb": "MB", "ratio": "ratio"}.get(suffix, "count")


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)

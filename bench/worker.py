"""The process that runs the program: it imports rsdlab from the checkout's
``src/``, prepares a workload's input files, and times whole passes of the
workload's CLI invocations, one invocation at a time, all in this process.

    python3 bench/worker.py setup --workload W --seed N --workdir DIR
    python3 bench/worker.py run --workload W --seed N --workdir DIR --seconds S --trace 0|1

``bench/run.py`` starts it and turns its raw timings into metrics; the last
line of its standard output is one JSON object.  Nothing but the standard
library and rsdlab is imported here, so the peak resident memory of this
process is the program's.

Every timing comes with calibration times taken next to it: the seconds a
fixed loop of the benchmark's own (``calibrate``) takes just before and just
after, or for the setup, the seconds some fixed imports take just after
(``calibrate_imports``).  The host has slow phases that slow all Python code
alike, so run.py divides each timing by its calibration to get a figure that
repeats.
"""

import os
import sys
import time


def main() -> int:
    # Setup time runs from before the first rsdlab import to the last input file.
    started = time.perf_counter()
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    sys.path.insert(0, src)
    import rsdlab.cli as cli

    if not os.path.realpath(cli.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"error: rsdlab was not imported from {src}", file=sys.stderr)
        return 2
    args = parse_args(sys.argv[1:])
    from workloads import build

    workload = build(args.workload, args.seed, args.workdir)
    prepare(cli, workload)
    setup_s = time.perf_counter() - started

    import json

    if args.mode == "setup":
        # The calibration imports more modules; the run process must not hold them.
        result = {"setup_s": setup_s, "setup_cal": [calibrate_imports()]}
    else:
        result = timed_passes(cli, workload, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


def parse_args(argv):
    import argparse

    parser = argparse.ArgumentParser(prog="worker.py")
    parser.add_argument("mode", choices=("setup", "run"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def calibrate() -> float:
    """Seconds taken by a fixed loop of 64-bit integer mixing, list swaps and
    Fraction sums: the machine's current speed for code like rsdlab's."""
    from fractions import Fraction

    started = time.perf_counter()
    z = 0
    total = Fraction(0)
    items = list(range(8))
    for i in range(3000):
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9 + i) & 0xFFFFFFFFFFFFFFFF
        j = (z * 8) >> 64
        items[j], items[7] = items[7], items[j]
        total += Fraction(i, 7)
    return time.perf_counter() - started


# Pure-Python standard-library modules that neither rsdlab nor numpy or scipy
# import, so that they are still unloaded when the setup has finished.
CALIBRATION_IMPORTS = ("email.parser", "http.client", "xml.dom.minidom", "tarfile",
                       "optparse", "plistlib", "configparser", "mailbox")


def calibrate_imports() -> float:
    """Seconds taken to import CALIBRATION_IMPORTS: the machine's current
    speed for work like the setup's, which is mostly imports and file writes.
    Python code alone slows more in the host's slow phases than imports do."""
    import importlib

    started = time.perf_counter()
    for name in CALIBRATION_IMPORTS:
        importlib.import_module(name)
    return time.perf_counter() - started


def prepare(cli, workload) -> None:
    """Write the workload's input files through ``rsdlab gen`` (and the
    library, for the matrix-form copy of a point-based metric file)."""
    import io
    from contextlib import redirect_stdout

    from rsdlab.core import AssignmentInstance
    from rsdlab.instance_io import load_instance, save_instance

    os.makedirs(workload.workdir, exist_ok=True)
    for spec in workload.inputs:
        if spec.copy_of is not None:
            points = load_instance(spec.copy_of)
            save_instance(AssignmentInstance.from_costs(points.costs), spec.path)
            continue
        with redirect_stdout(io.StringIO()):
            code = cli.main(["gen", "--family", spec.family, "--n", str(spec.n),
                             "--seed", str(workload.seed), "--out", spec.path])
        if code != 0:
            raise RuntimeError(f"rsdlab gen failed for {spec.path}")


def one_pass(cli, invocations) -> dict:
    """Run each invocation once.  Returns its seconds, the calibrations around
    it (``cal[i]`` before invocation i, ``cal[i + 1]`` after), the sha256 of
    its exit status and output files, and failure messages."""
    import gc
    import hashlib
    import io
    from contextlib import redirect_stderr, redirect_stdout

    times, cal, digests, errors = [], [], [], []
    for inv in invocations:
        for path in inv.outputs:
            if os.path.exists(path):
                os.remove(path)
        gc.collect()
        cal.append(calibrate())
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            started = time.perf_counter()
            try:
                code = cli.main(list(inv.argv))
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback is a failed invocation, not a crashed benchmark
                code = f"{type(exc).__name__}: {exc}"
            times.append(time.perf_counter() - started)
        digest = hashlib.sha256(repr(code).encode())
        for path in inv.outputs:
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    digest.update(fh.read())
            else:
                digest.update(b"<missing>")
        digests.append(digest.hexdigest())
        if code != 0:
            errors.append(f"{inv.argv[0]}: exit {code!r}: {err.getvalue().strip()[-300:]}")
    cal.append(calibrate())
    return {"times": times, "cal": cal, "digests": digests, "errors": errors}


def timed_passes(cli, workload, seconds, trace) -> dict:
    """Whole passes while the next one fits in ``seconds`` (at least two).
    With tracing, untraced and traced passes alternate in whole pairs, in
    the order plain-traced, traced-plain, ..., so warm-up and drift fall on
    both kinds alike."""
    started = time.perf_counter()
    passes = {"plain": [], "traced": []}
    if trace:
        from tracing import Tracer, layer_totals

        tracer = Tracer()
    rounds = 0
    while True:
        round_started = time.perf_counter()
        kinds = ("plain", "traced")[::-1 if rounds % 2 else 1] if trace else ("plain",)
        for kind in kinds:
            if kind == "traced":
                first, sd_calls = len(tracer.spans), tracer.sampler_sd_calls
                with tracer.installed():
                    done = one_pass(cli, workload.invocations)
                done["layers"] = layer_totals(tracer.spans[first:], first,
                                              tracer.sampler_sd_calls - sd_calls)
            else:
                done = one_pass(cli, workload.invocations)
            passes[kind].append(done)
        rounds += 1
        now = time.perf_counter()
        if rounds >= 2 and now + (now - round_started) - started > seconds:
            break
    every = passes["plain"] + passes["traced"]
    result = {
        "passes": passes["plain"],
        "outputs_repeat": len({tuple(p["digests"]) for p in every}) == 1,
        "attempted": sum(len(p["times"]) for p in every),
        "failed": sum(len(p["errors"]) for p in every),
        "errors": [e for p in every for e in p["errors"]][:10],
    }
    if trace:
        result["traced_passes"] = passes["traced"]
        result["spans"] = tracer.spans
        result["replay"] = replay(workload)
    else:
        import resource

        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return result


def replay(workload, repeats: int = 3) -> list[dict]:
    """Per-sample stage times on the workload's own sampled instance and
    seeds, ``repeats`` times, each with its calibrations; none for a workload
    that does not sample."""
    import workloads as w
    from tracing import replay_samples

    from rsdlab.instance_io import load_instance
    from rsdlab.rng import derive_seed

    if workload.name == "coverage-line6":
        seed, runs, k = derive_seed(workload.seed, 0), w.COVERAGE_RUNS, w.COVERAGE_K
    elif workload.name == "large-instance":
        seed, runs, k = workload.seed, 1, w.ESTIMATE_K
    else:
        return []
    instance = load_instance(workload.inputs[0].path)
    out = []
    for _ in range(repeats):
        before = calibrate()
        stages, means = replay_samples(instance, seed, runs, k)
        out.append({"stages": stages, "means": means, "cal": [before, calibrate()]})
    return out


if __name__ == "__main__":
    sys.exit(main())

"""The benchmark's workloads: the input files each one builds from its seed,
and the CLI invocations that make up one pass.

This module imports nothing from rsdlab, so the process that checks outputs
reads the same definitions as the process that runs the program.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

# Criterion-9 median-of-means plan on the n=6 line: eps 0.5 and delta 0.2
# give k=3456 samples per run and lambda=24 runs.
COVERAGE_N = 6
COVERAGE_EPS = "0.5"
COVERAGE_DELTA = "0.2"
COVERAGE_K = 3456
COVERAGE_RUNS = 24
COVERAGE_TRIALS = 1

EXACT_N = 9
REDUCE_N = 8

# At n=20 the O(n^4) four-point scan in validate takes about 1 s per load,
# three loads per pass, so it dominates a pass of about 4 s.
LINE_N = 20
VALUE_N = 80
ESTIMATE_K = 5000

NAMES = ("coverage-line6", "exact-oracle", "large-instance")


@dataclass(frozen=True)
class Input:
    """One input file: ``rsdlab gen`` output, or the matrix-form copy of
    another metric file when ``family`` is None."""

    path: str
    family: str | None
    n: int
    copy_of: str | None = None


@dataclass(frozen=True)
class Invocation:
    """One CLI call and the files it writes; ``outputs`` are removed before
    and hashed after every pass."""

    argv: tuple[str, ...]
    outputs: tuple[str, ...]


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    workdir: str
    inputs: tuple[Input, ...]
    invocations: tuple[Invocation, ...]


def build(name: str, seed: int, workdir: str) -> Workload:
    """Inputs and invocations of workload ``name`` for ``seed`` in ``workdir``."""

    def f(base: str) -> str:
        return os.path.join(workdir, base)

    def call(*argv: str, out: str, sidecar: bool = False) -> Invocation:
        outputs = (f(out), f(out) + ".decode.json") if sidecar else (f(out),)
        return Invocation(argv=tuple(argv) + ("--out", f(out)), outputs=outputs)

    if name == "coverage-line6":
        inputs = (Input(f("line6.json"), "worst-case-metric-line", COVERAGE_N),)
        invocations = (
            call("coverage", "--in", f("line6.json"), "--objective", "cost",
                 "--method", "cost-median-of-means", "--eps", COVERAGE_EPS,
                 "--delta", COVERAGE_DELTA, "--trials", str(COVERAGE_TRIALS),
                 "--seed", str(seed), "--workers", "1", out="coverage.csv"),
        )
    elif name == "exact-oracle":
        inputs = (
            Input(f("value9.json"), "random-value", EXACT_N),
            Input(f("line9.json"), "random-metric-line", EXACT_N),
            Input(f("abstract9.json"), "random-abstract", EXACT_N),
            Input(f("bernoulli9.json"), "bernoulli-welfare", EXACT_N),
            Input(f("abstract8.json"), "random-abstract", REDUCE_N),
        )
        invocations = (
            call("exact", "--in", f("value9.json"), "--objective", "welfare", out="value9.exact.json"),
            call("exact", "--in", f("line9.json"), "--objective", "cost", out="line9.exact.json"),
            call("exact", "--in", f("abstract9.json"), out="abstract9.exact.json"),
            call("exact", "--in", f("bernoulli9.json"), "--objective", "welfare", out="bernoulli9.exact.json"),
            call("reduce", "--in", f("abstract8.json"), "--setting", "value", out="reduce-value.json", sidecar=True),
            call("reduce", "--in", f("abstract8.json"), "--setting", "metric", out="reduce-metric.json", sidecar=True),
        )
    elif name == "large-instance":
        inputs = (
            Input(f("line.json"), "random-metric-line", LINE_N),
            Input(f("line-matrix.json"), None, LINE_N, copy_of=f("line.json")),
            Input(f("value.json"), "random-value", VALUE_N),
        )
        invocations = (
            call("opt", "--in", f("line.json"), "--objective", "cost", out="line.opt.json"),
            call("opt", "--in", f("line-matrix.json"), "--objective", "cost", out="line-matrix.opt.json"),
            call("estimate", "--in", f("line.json"), "--objective", "cost", "--k", str(ESTIMATE_K),
                 "--seed", str(seed), "--workers", "1", out="line.estimate.json"),
            call("opt", "--in", f("value.json"), "--objective", "welfare", out="value.opt.json"),
        )
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
    return Workload(name, seed, workdir, inputs, invocations)

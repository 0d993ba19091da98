"""Command-line surface.

Subcommands: ``gen`` (write family instances), ``exact`` (exact lottery and
moments over all orderings), ``opt`` (optimal matching), ``estimate`` (sampling
estimators), ``bounds`` (sample-size plans and windows), ``reduce``
(bit-encoding round trip), ``coverage`` (empirical failure rates, CSV).

Exit codes: 0 on success, 1 when input data fails validation, a file
cannot be read or written, or a requested computation is refused, 2 on
usage errors.  ``exact``, ``reduce`` and ``coverage`` take ``--oracle-cap``,
the only setting of the enumeration cap (default
:data:`rsdlab.exact.DEFAULT_ORACLE_CAP`).  Where the cap applies (``exact``,
``reduce``, and ``coverage`` without ``--reference``), an n above it is
refused before the instance is validated, and a cap above the default warns
on stderr once it is.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from contextlib import contextmanager
from fractions import Fraction

from . import __version__
from .bounds import Method, sample_size, welfare_lower_bound_window
from .core import SETTING_METRIC, SETTING_VALUE, Objective, exact_str, validate
from .coverage import coverage_csv, run_coverage, write_coverage_csv
from .estimate import estimate_median_of_means
from .exact import DEFAULT_ORACLE_CAP, check_cap, enumerate_rsd
from .families import Family, FamilySpec, generate
from .instance_io import InstanceFormatError, load_instance, parse_literal, save_instance, write_json
from .optimal import solve_opt
from .reduction import build_artifact, round_trip_matches


# validate lists at most one four-point violation per cell, n^2 in all; the
# report names the first ones and counts the rest.
MAX_REPORTED_VIOLATIONS = 20


def fmt_rational(x: Fraction) -> str:
    """Exact fraction next to a 17-significant-digit decimal, or the fraction
    alone when it is beyond the double range."""
    try:
        return f"{exact_str(x)} ({float(x):.17g})"
    except OverflowError:
        return exact_str(x)


_JSON_INT_DIGITS = 4300
"""Most digits written as a JSON number: Python's default int-to-str limit,
so ``json`` reads the number back under it."""


def _json_int(v: int) -> int | str:
    """``v``, or its decimal string past :data:`_JSON_INT_DIGITS` digits."""
    return v if abs(v) < 10**_JSON_INT_DIGITS else exact_str(v)


def _cap_flag(text: str) -> int:
    """``--oracle-cap``: a positive integer, or a usage error (exit 2)."""
    try:
        cap = int(text)
    except ValueError:
        cap = 0
    if cap < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {text!r}")
    return cap


def _load_validated(path, cap: int | None = None):
    """The instance in ``path``, or :class:`ValueError`.  Given a ``cap``, an
    n above it is refused before validation, and a cap above the default
    warns on stderr after it."""
    try:
        instance = load_instance(path)
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from exc
    except (InstanceFormatError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValueError(f"malformed instance file {path}: {exc}") from exc
    if cap is not None:
        check_cap(instance.n, cap)
    problems = validate(instance)
    if problems:
        shown = problems[:MAX_REPORTED_VIOLATIONS]
        lines = "".join(f"\n  - {v.message}" for v in shown)
        if len(problems) > len(shown):
            lines += f"\n  … and {len(problems) - len(shown)} more ({len(problems)} violations)"
        raise ValueError(f"instance file {path} failed validation:{lines}")
    if cap is not None and cap > DEFAULT_ORACLE_CAP:
        print(f"warning: enumeration cap raised to {cap}; the cost grows exponentially in n", file=sys.stderr)
    return instance


@contextmanager
def _writing(path):
    """Turn a failed write of ``path`` into a :class:`ValueError`."""
    try:
        yield
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc}") from exc


def _write_json(path, payload) -> None:
    with _writing(path):
        write_json(path, payload)


def cmd_gen(args) -> int:
    spec = FamilySpec(family=Family(args.family), n=args.n, seed=args.seed)
    instance = generate(spec)
    with _writing(args.out):
        save_instance(instance, args.out)
    print(f"wrote {instance.setting} instance with n={instance.n} to {args.out}")
    return 0


def cmd_exact(args) -> int:
    instance = _load_validated(args.infile, args.oracle_cap)
    objective = Objective(args.objective) if args.objective else None
    summary = enumerate_rsd(instance, objective, cap=args.oracle_cap)
    print(f"orderings enumerated: {summary.order_count}")
    if summary.mean is not None:
        print(f"mean: {fmt_rational(summary.mean)}")
        print(f"second moment: {fmt_rational(summary.second_moment)}")
        print(f"variance: {fmt_rational(summary.variance)}")
    print("lottery (rows = agents):")
    for row in summary.lottery:
        print("  " + "  ".join(str(p) for p in row))
    if args.out:
        payload = {
            "n": summary.n,
            "objective": objective.value if objective else None,
            "order_count": summary.order_count,
            "counts": [list(row) for row in summary.counts],
            "lottery": [[str(p) for p in row] for row in summary.lottery],
            "mean": exact_str(summary.mean) if summary.mean is not None else None,
            "second_moment": exact_str(summary.second_moment) if summary.second_moment is not None else None,
            "variance": exact_str(summary.variance) if summary.variance is not None else None,
        }
        _write_json(args.out, payload)
    return 0


def cmd_opt(args) -> int:
    instance = _load_validated(args.infile)
    objective = Objective(args.objective)
    result = solve_opt(instance, objective)
    print(f"optimal {objective.value}: {fmt_rational(result.objective_value)}")
    print("matching (agent -> item): " + ", ".join(
        f"{i + 1}->{g}" for i, g in enumerate(result.matching.assign)
    ))
    if args.out:
        _write_json(args.out, {
            "objective": objective.value,
            "optimal_value": exact_str(result.objective_value),
            "matching": list(result.matching.assign),
        })
    return 0


def cmd_estimate(args) -> int:
    instance = _load_validated(args.infile)
    objective = Objective(args.objective)
    report = estimate_median_of_means(instance, objective, args.k, args.lam, args.seed)
    print(f"estimate: {report.estimate!r}")
    print(f"k={report.k} runs={report.runs} seed={report.seed} objective={objective.value}")
    print("run values: " + ", ".join(repr(v) for v in report.run_values))
    print(f"wall time: {report.wall_time:.3f}s")
    if args.out:
        _write_json(args.out, {
            "estimate": report.estimate,
            "k": report.k,
            "runs": report.runs,
            "seed": report.seed,
            "objective": objective.value,
            "run_values": list(report.run_values),
        })
    return 0


def cmd_bounds(args) -> int:
    eps = parse_literal(args.eps, "--eps")
    delta = parse_literal(args.delta, "--delta")
    if args.method == "welfare-lower-window":
        window = welfare_lower_bound_window(args.n, eps, delta)
        print(f"k_lo: {fmt_rational(window.k_lo)}")
        print(f"k_hi: {window.k_hi!r}")
        print(f"applicable: {window.applicable}" + (f" ({window.reason})" if window.reason else ""))
        if args.out:
            _write_json(args.out, {
                "n": args.n, "eps": exact_str(eps), "delta": exact_str(delta),
                "k_lo": exact_str(window.k_lo), "k_hi": window.k_hi,
                "applicable": window.applicable, "reason": window.reason,
            })
        return 0
    method = Method(args.method)
    plan = sample_size(method, args.n, eps, delta)
    print(f"method: {method.value}")
    print(f"n={plan.n} eps={exact_str(plan.eps)} delta={exact_str(plan.delta)}")
    print(f"k: {exact_str(plan.k)}")
    if plan.runs is not None:
        print(f"runs (lambda): {plan.runs}")
    if args.out:
        _write_json(args.out, {
            "method": method.value,
            "n": plan.n,
            "eps": exact_str(plan.eps),
            "delta": exact_str(plan.delta),
            "k": _json_int(plan.k),
            "lambda": plan.runs,
        })
    return 0


def cmd_reduce(args) -> int:
    source = _load_validated(args.infile, args.oracle_cap)
    artifact = build_artifact(source, args.setting, cap=args.oracle_cap)
    matches = round_trip_matches(artifact)
    print(f"block bits q: {artifact.block_bits}")
    print(f"scaled total: {exact_str(artifact.scaled_total)}")
    print("decoded counts (rows = agents, columns = preference ranks):")
    for row in artifact.counts:
        print("  " + "  ".join(str(c) for c in row))
    if artifact.top_block is not None:
        print(f"top block: {artifact.top_block}")
    print(f"round trip vs enumeration: {'PASS' if matches else 'FAIL'}")
    if args.out:
        with _writing(args.out):
            save_instance(artifact.built, args.out)
        print(f"wrote built {args.setting} instance to {args.out}")
        sidecar = {
            "setting": args.setting,
            "block_bits": artifact.block_bits,
            "scaled_total": exact_str(artifact.scaled_total),
            "counts": [list(row) for row in artifact.counts],
            "top_block": exact_str(artifact.top_block) if artifact.top_block is not None else None,
            "lottery": [[str(p) for p in row] for row in artifact.lottery],
            "round_trip": "pass" if matches else "fail",
        }
        _write_json(str(args.out) + ".decode.json", sidecar)
    return 0 if matches else 1


def cmd_coverage(args) -> int:
    # without a reference, the cap on the enumeration that finds one comes before validation
    instance = _load_validated(args.infile, None if args.reference else args.oracle_cap)
    objective = Objective(args.objective)
    eps = parse_literal(args.eps, "--eps")
    delta = parse_literal(args.delta, "--delta")
    plan = sample_size(Method(args.method), instance.n, eps, delta)
    if args.k is not None or args.lam is not None:
        # explicit k/lambda override the formula values
        plan = dataclasses.replace(
            plan,
            k=args.k if args.k is not None else plan.k,
            runs=args.lam if args.lam is not None else plan.runs,
        )
    reference = parse_literal(args.reference, "--reference") if args.reference else None
    report = run_coverage(
        instance, objective, plan,
        trials=args.trials,
        master_seed=args.seed,
        reference=reference,
        oracle_cap=args.oracle_cap,
    )
    print(f"method: {report.method}  k={report.k}  runs={report.runs}")
    print(f"reference: {fmt_rational(report.reference)} [{report.reference_provenance}]")
    print(f"trials: {report.trials}  failures: {report.failures}")
    print(f"empirical failure rate: {fmt_rational(report.empirical_rate)}  target delta: {exact_str(report.delta)}")
    if args.out:
        with _writing(args.out):
            write_coverage_csv(report, args.out)
        print(f"wrote per-trial CSV to {args.out}")
    else:
        sys.stdout.write(coverage_csv(report))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rsdlab",
        description="Exact evaluation and statistical estimation of random serial dictatorship",
    )
    parser.add_argument("--version", action="version", version=f"rsdlab {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="write a family instance file")
    p.add_argument("--family", required=True, choices=[f.value for f in Family])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("exact", help="exact lottery and moments over all orderings")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--objective", choices=[o.value for o in Objective])
    p.add_argument("--out")
    p.add_argument("--oracle-cap", type=_cap_flag, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("opt", help="optimal matching value")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--objective", required=True, choices=[o.value for o in Objective])
    p.add_argument("--out")
    p.set_defaults(fn=cmd_opt)

    p = sub.add_parser("estimate", help="sampling estimators")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--objective", required=True, choices=[o.value for o in Objective])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--lambda", dest="lam", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    # --workers (here and under coverage) is parsed and never read: sampling
    # runs in one thread, but the benchmark's workloads still pass
    # `--workers 1`.  Drop both declarations (so the flag exits 2) once they
    # no longer do.
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_estimate)

    p = sub.add_parser("bounds", help="sample-size plans and windows")
    p.add_argument(
        "--method", required=True,
        choices=[m.value for m in Method] + ["welfare-lower-window"],
    )
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--out")
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("reduce", help="bit-encoding round trip from an abstract instance")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--setting", required=True, choices=[SETTING_VALUE, SETTING_METRIC])
    p.add_argument("--out")
    p.add_argument("--oracle-cap", type=_cap_flag, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(fn=cmd_reduce)

    p = sub.add_parser("coverage", help="empirical failure-rate experiment")
    p.add_argument("--in", dest="infile", required=True)
    p.add_argument("--objective", required=True, choices=[o.value for o in Objective])
    p.add_argument("--method", required=True, choices=[m.value for m in Method])
    p.add_argument("--eps", required=True)
    p.add_argument("--delta", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--lambda", dest="lam", type=int, default=None)
    p.add_argument("--reference", default=None)
    p.add_argument("--workers", type=int, help=argparse.SUPPRESS)
    p.add_argument("--out")
    p.add_argument("--oracle-cap", type=_cap_flag, default=DEFAULT_ORACLE_CAP)
    p.set_defaults(fn=cmd_coverage)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())

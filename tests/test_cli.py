import contextlib
import io
import json
import math
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import rsdlab
from conftest import int_digit_limit
from rsdlab import (
    Method,
    bounds,
    loads_instance,
    random_abstract,
    random_value,
    save_instance,
    worst_case_metric_line,
)
from rsdlab.cli import main
from rsdlab.families import MAX_N, Family
from rsdlab.instance_io import MAX_EXPONENT, MAX_LITERAL_LENGTH


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_then_exact_pipeline(tmp_path, capsys):
    path = tmp_path / "bernoulli5.json"
    code, out, _ = run_cli(capsys, "gen", "--family", "bernoulli-welfare", "--n", "5", "--out", str(path))
    assert code == 0
    inst = loads_instance(path.read_text())
    assert inst.n == 5

    code, out, _ = run_cli(capsys, "exact", "--in", str(path), "--objective", "welfare")
    assert code == 0
    assert "mean: 1/5" in out


def test_exact_writes_machine_readable_summary(tmp_path, capsys):
    path = tmp_path / "inst.json"
    out_path = tmp_path / "summary.json"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "3", "--out", str(path))
    code, _, _ = run_cli(
        capsys, "exact", "--in", str(path), "--objective", "cost", "--out", str(out_path)
    )
    assert code == 0
    payload = json.loads(out_path.read_text())
    assert payload["mean"] == "11/3"
    assert payload["order_count"] == 6


def test_opt_subcommand(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "6", "--out", str(path))
    code, out, _ = run_cli(capsys, "opt", "--in", str(path), "--objective", "cost")
    assert code == 0
    assert "optimal cost: 2 (2" in out


def _indented(*lines):
    return "".join(line + "\n" for line in lines).encode()


@pytest.mark.parametrize("family, n, objective, written", [
    ("random-metric-line", "5", "cost", _indented(
        "{", '  "objective": "cost",', '  "optimal_value": "1022",', '  "matching": [',
        "    3,", "    1,", "    4,", "    5,", "    2", "  ]", "}")),
    ("random-value", "4", "welfare", _indented(
        "{", '  "objective": "welfare",', '  "optimal_value": "2893357/1000000",', '  "matching": [',
        "    3,", "    1,", "    4,", "    2", "  ]", "}")),
])
def test_opt_writes_its_json_byte_for_byte(tmp_path, capsys, family, n, objective, written):
    path, out_path = tmp_path / "inst.json", tmp_path / "opt.json"
    run_cli(capsys, "gen", "--family", family, "--n", n, "--seed", "1", "--out", str(path))
    assert run_cli(capsys, "opt", "--in", str(path), "--objective", objective, "--out", str(out_path))[0] == 0
    assert out_path.read_bytes() == written


def test_bounds_worked_example(tmp_path, capsys):
    out_path = tmp_path / "plan.json"
    code, out, _ = run_cli(
        capsys, "bounds", "--method", "welfare-bernstein",
        "--n", "10", "--eps", "0.5", "--delta", "0.1", "--out", str(out_path),
    )
    assert code == 0
    assert "k: 320" in out
    assert json.loads(out_path.read_text())["k"] == 320


def test_bounds_prints_and_writes_the_runs_of_a_median_of_means_plan(tmp_path, capsys):
    out_path = tmp_path / "plan.json"
    code, out, _ = run_cli(capsys, "bounds", "--method", "cost-median-of-means",
                           "--n", "10", "--eps", "0.5", "--delta", "0.1", "--out", str(out_path))
    assert code == 0
    assert out.splitlines()[-2:] == ["k: 16000", "runs (lambda): 32"]
    assert json.loads(out_path.read_text())["lambda"] == 32


def test_bounds_window_mode(capsys):
    code, out, _ = run_cli(
        capsys, "bounds", "--method", "welfare-lower-window",
        "--n", "10", "--eps", "0.5", "--delta", "0.1",
    )
    assert code == 0
    assert "applicable: False" in out


def test_bounds_window_mode_refuses_one_agent(capsys):
    code, out, err = run_cli(
        capsys, "bounds", "--method", "welfare-lower-window",
        "--n", "1", "--eps", "0.5", "--delta", "0.1",
    )
    assert (code, out, err) == (1, "", "error: n must be at least 2\n")


def test_estimate_subcommand_deterministic(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "4", "--out", str(path))
    out_a = tmp_path / "a.json"
    out_b = tmp_path / "b.json"
    base = ["estimate", "--in", str(path), "--objective", "cost",
            "--k", "500", "--lambda", "4", "--seed", "42"]
    assert run_cli(capsys, *base, "--out", str(out_a))[0] == 0
    assert run_cli(capsys, *base, "--workers", "4", "--out", str(out_b))[0] == 0
    assert out_a.read_text() == out_b.read_text()


def test_reduce_round_trip(tmp_path, capsys):
    src = tmp_path / "abstract.json"
    src.write_text('{"n": 2, "setting": "abstract", "rankings": [[1, 2], [1, 2]]}')
    built_path = tmp_path / "built.json"
    code, out, _ = run_cli(
        capsys, "reduce", "--in", str(src), "--setting", "metric", "--out", str(built_path)
    )
    assert code == 0
    assert "scaled total: 1109" in out
    assert "top block: 4" in out
    assert "round trip vs enumeration: PASS" in out
    built = loads_instance(built_path.read_text())
    assert built.cost(2, 2) == Fraction(320)
    sidecar = json.loads((tmp_path / "built.json.decode.json").read_text())
    assert sidecar["round_trip"] == "pass"


def test_coverage_writes_reproducible_csv(tmp_path, capsys):
    path = tmp_path / "inst.json"
    run_cli(capsys, "gen", "--family", "bernoulli-welfare", "--n", "5", "--out", str(path))
    csv_a = tmp_path / "a.csv"
    csv_b = tmp_path / "b.csv"
    base = ["coverage", "--in", str(path), "--objective", "welfare",
            "--method", "welfare-bernstein", "--eps", "0.5", "--delta", "0.2",
            "--trials", "20", "--seed", "7"]
    assert run_cli(capsys, *base, "--out", str(csv_a))[0] == 0
    assert run_cli(capsys, *base, "--workers", "2", "--out", str(csv_b))[0] == 0
    assert csv_a.read_bytes() == csv_b.read_bytes()
    lines = csv_a.read_text().strip().split("\n")
    assert lines[0].startswith("trial_index,seed,estimate")
    assert len(lines) == 21


def test_invalid_instance_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"n": 2, "setting": "metric", "costs": [[1, 10], [1, 1]]}')
    code, _, err = run_cli(capsys, "exact", "--in", str(path), "--objective", "cost")
    assert code == 1
    assert err == f"error: instance file {path} failed validation:\n  - c[1][2]=10 exceeds c[1][1]+c[2][1]+c[2][2]\n"


def test_malformed_json_exits_one(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"n": 2, "setting": ')
    code, _, err = run_cli(capsys, "exact", "--in", str(path))
    assert code == 1
    assert "malformed" in err


def test_zero_denominator_exits_one(tmp_path, capsys):
    matrix = tmp_path / "matrix.json"
    matrix.write_text('{"n": 2, "setting": "metric", "costs": [[0, 1], ["1/0", 0]]}')
    points = tmp_path / "points.json"
    points.write_text('{"n": 2, "setting": "metric", "agent_points": [0, "1/0"], "item_points": [0, 1]}')
    for path, field in ((matrix, "costs[2][1]"), (points, "agent_points[2]")):
        for argv in (["exact"], ["opt", "--objective", "cost"], ["estimate", "--objective", "cost", "--k", "10"]):
            code, _, err = run_cli(capsys, argv[0], "--in", str(path), *argv[1:])
            assert code == 1
            assert err.startswith(f"error: malformed instance file {path}: {field}: '1/0' has a zero denominator")


def test_missing_file_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "opt", "--in", str(tmp_path / "nope.json"), "--objective", "cost")
    assert code == 1


def test_reading_a_directory_exits_one(tmp_path, capsys):
    code, out, err = run_cli(capsys, "exact", "--in", str(tmp_path))
    assert (code, out) == (1, "")
    assert err.startswith(f"error: cannot read {tmp_path}: [Errno 21] Is a directory")


def test_writing_over_a_directory_exits_one(tmp_path, capsys):
    path = tmp_path / "line4.json"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "4", "--out", str(path))
    code, _, err = run_cli(capsys, "estimate", "--in", str(path), "--objective", "cost", "--k", "10",
                           "--out", str(tmp_path))
    assert code == 1
    assert err.startswith(f"error: cannot write {tmp_path}: [Errno 21] Is a directory")


@pytest.mark.parametrize("argv", [
    ("gen", "--family", "bernoulli-welfare", "--n", "3"),
    ("exact", "--in", "{inst}"),
    ("coverage", "--in", "{inst}", "--objective", "cost", "--method", "cost-median-of-means",
     "--eps", "0.5", "--delta", "0.2", "--trials", "1", "--k", "10", "--lambda", "1"),
])
def test_writing_into_a_missing_directory_exits_one(tmp_path, capsys, argv):
    inst = tmp_path / "line4.json"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "4", "--out", str(inst))
    argv = [a.format(inst=inst) for a in argv]
    out = tmp_path / "missing" / "x.json"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    assert err.startswith(f"error: cannot write {out}: [Errno 2] No such file or directory")


def test_gen_refuses_n_past_the_bound(tmp_path, capsys):
    path = tmp_path / "big.json"
    code, out, err = run_cli(capsys, "gen", "--family", "random-value", "--n", str(MAX_N + 1), "--out", str(path))
    assert (code, out, err) == (1, "", f"error: n must be between 1 and {MAX_N}\n")
    assert not path.exists()


def test_deeply_nested_json_exits_one(tmp_path, capsys):
    path = tmp_path / "nested.json"
    path.write_text("[" * 100_000)
    for argv in (["exact"], ["opt", "--objective", "cost"], ["estimate", "--objective", "cost", "--k", "10"]):
        code, _, err = run_cli(capsys, argv[0], "--in", str(path), *argv[1:])
        assert code == 1
        assert err == f"error: malformed instance file {path}: JSON nested too deeply to parse\n"


def test_unknown_flag_exits_two(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "--method", "welfare-bernstein", "--n", "4",
              "--eps", "0.5", "--delta", "0.1", "--frobnicate"])
    assert exc.value.code == 2


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["transmogrify"])
    assert exc.value.code == 2


@pytest.mark.parametrize("value", ["4", "abc", ""])
@pytest.mark.parametrize("command", ["exact", "reduce"])
def test_the_oracle_cap_variable_changes_nothing(tmp_path, capsys, monkeypatch, value, command):
    # RSDLAB_ORACLE_CAP once set the cap; --oracle-cap is the only setting now
    path, out = tmp_path / "abstract5.json", tmp_path / "out.json"
    run_cli(capsys, "gen", "--family", "random-abstract", "--n", "5", "--out", str(path))
    argv = [command, "--in", str(path), "--out", str(out), *(["--setting", "value"] if command == "reduce" else [])]

    def outputs():
        result = run_cli(capsys, *argv), {p.name: p.read_bytes() for p in tmp_path.glob("out.json*")}
        for p in tmp_path.glob("out.json*"):
            p.unlink()
        return result

    monkeypatch.delenv("RSDLAB_ORACLE_CAP", raising=False)
    unset = outputs()
    monkeypatch.setenv("RSDLAB_ORACLE_CAP", value)
    assert outputs() == unset
    assert unset[0][0] == 0 and unset[1]


def test_raised_oracle_cap_warns_and_runs(tmp_path, capsys):
    path = tmp_path / "value12.json"
    run_cli(capsys, "gen", "--family", "random-value", "--n", "12", "--seed", "1", "--out", str(path))
    code, out, err = run_cli(capsys, "exact", "--in", str(path), "--objective", "welfare", "--oracle-cap", "12")
    assert code == 0
    assert "orderings enumerated: 479001600" in out
    assert "warning: enumeration cap raised to 12" in err


@pytest.mark.parametrize("command", ["exact", "reduce"])
def test_n_above_the_oracle_cap_is_refused_before_validation(tmp_path, capsys, monkeypatch, command):
    path = tmp_path / "abstract6.json"
    run_cli(capsys, "gen", "--family", "random-abstract", "--n", "6", "--out", str(path))

    def refused(_):
        raise AssertionError("validate ran")

    monkeypatch.setattr("rsdlab.cli.validate", refused)
    argv = [command, "--in", str(path), "--oracle-cap", "5", *(["--setting", "value"] if command == "reduce" else [])]
    assert run_cli(capsys, *argv) == (1, "", (
        "error: exact enumeration over 6! orderings refused: n=6 exceeds the cap of 5 "
        "(raise the cap explicitly to accept a cost exponential in n)\n"))


def test_coverage_without_a_reference_refuses_n_above_the_oracle_cap_before_validation(tmp_path, capsys, monkeypatch):
    path = tmp_path / "line6.json"
    run_cli(capsys, "gen", "--family", "random-metric-line", "--n", "6", "--out", str(path))
    argv = ["coverage", "--in", str(path), "--objective", "cost", "--method", "cost-median-of-means",
            "--eps", "0.5", "--delta", "0.2", "--trials", "1", "--k", "10", "--oracle-cap", "5"]
    validated = []

    def refused(instance):
        raise AssertionError("validate ran")

    monkeypatch.setattr("rsdlab.cli.validate", refused)
    assert run_cli(capsys, *argv) == (1, "", (
        "error: exact enumeration over 6! orderings refused: n=6 exceeds the cap of 5 "
        "(raise the cap explicitly to accept a cost exponential in n)\n"))
    # a supplied reference needs no enumeration, so the cap does not apply and the file is validated
    monkeypatch.setattr("rsdlab.cli.validate", lambda instance: validated.append(instance.n) or [])
    assert run_cli(capsys, *argv, "--reference", "100")[0] == 0
    assert validated == [6]


def test_coverage_refuses_a_negative_reference_before_sampling(tmp_path, capsys, monkeypatch):
    path = tmp_path / "line4.json"
    run_cli(capsys, "gen", "--family", "random-metric-line", "--n", "4", "--out", str(path))

    def sampled(*args):
        raise AssertionError("the estimator ran")

    monkeypatch.setattr("rsdlab.coverage.estimate_median_of_means", sampled)
    assert run_cli(capsys, "coverage", "--in", str(path), "--objective", "cost", "--method", "cost-chebyshev",
                   "--eps", "0.01", "--delta", "0.01", "--trials", "1", "--reference", "-1") == (
        1, "", "error: reference must be non-negative, got -1\n")


@pytest.mark.parametrize("cap, warning", [
    ([], ""), (["--oracle-cap", "11"], "warning: enumeration cap raised to 11; the cost grows exponentially in n\n"),
], ids=["default-cap", "raised-cap"])
def test_reduce_refuses_a_source_that_is_not_abstract(tmp_path, capsys, cap, warning):
    # the library's refusal, after validation and, under a raised cap, its warning
    path = tmp_path / "value3.json"
    run_cli(capsys, "gen", "--family", "random-value", "--n", "3", "--out", str(path))
    assert run_cli(capsys, "reduce", "--in", str(path), "--setting", "value", *cap) == (
        1, "", warning + "error: reduce expects an abstract instance (rankings only)\n")


def test_a_raised_oracle_cap_warns_only_where_it_applies(tmp_path, capsys):
    path = tmp_path / "line5.json"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "5", "--out", str(path))
    argv = ["coverage", "--in", str(path), "--objective", "cost", "--method", "cost-median-of-means",
            "--eps", "0.5", "--delta", "0.2", "--trials", "1", "--k", "10", "--oracle-cap", "11"]
    # the reference comes from an enumeration under the cap
    code, _, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "warning: enumeration cap raised to 11; the cost grows exponentially in n\n")
    # a supplied reference needs no enumeration
    assert run_cli(capsys, *argv, "--reference", "7")[::2] == (0, "")


def test_sampling_a_payoff_beyond_float_range_exits_one(tmp_path, capsys):
    # the metric reduction of an n=9 instance has costs near 2**1539
    src = tmp_path / "abstract9.json"
    built = tmp_path / "b9.json"
    run_cli(capsys, "gen", "--family", "random-abstract", "--n", "9", "--seed", "4", "--out", str(src))
    code, out, _ = run_cli(capsys, "reduce", "--in", str(src), "--setting", "metric", "--out", str(built))
    assert code == 0
    assert "round trip vs enumeration: PASS" in out
    for argv in (
        ["estimate", "--in", str(built), "--objective", "cost", "--k", "10"],
        ["coverage", "--in", str(built), "--objective", "cost", "--method", "cost-median-of-means",
         "--eps", "0.5", "--delta", "0.2", "--trials", "1", "--k", "10", "--lambda", "1"],
    ):
        code, _, err = run_cli(capsys, *argv)
        assert code == 1
        assert err.startswith("error: payoffs reach about 2**1539")
        assert "rsdlab exact" in err


def test_exact_and_opt_print_values_beyond_float_range(tmp_path, capsys):
    # metric reductions: the n=8 one has moments beyond 2**1024, the n=9 one
    # costs near 2**1539
    for n in (8, 9):
        src = tmp_path / f"abstract{n}.json"
        built = tmp_path / f"b{n}.json"
        run_cli(capsys, "gen", "--family", "random-abstract", "--n", str(n), "--seed", "4", "--out", str(src))
        assert run_cli(capsys, "reduce", "--in", str(src), "--setting", "metric", "--out", str(built))[0] == 0
        code, out, _ = run_cli(capsys, "opt", "--in", str(built), "--objective", "cost")
        assert code == 0
        assert out.startswith("optimal cost: ")
    code, out, _ = run_cli(capsys, "exact", "--in", str(tmp_path / "b8.json"), "--objective", "cost")
    assert code == 0
    summary = dict(line.split(": ", 1) for line in out.splitlines()[1:4])
    assert Fraction(summary["mean"]) > 2**1024
    assert Fraction(summary["second moment"]) > 2**2048


@pytest.mark.parametrize("argv", [
    ("estimate", "--k", "10", "--lambda", "0"),
    ("estimate", "--k", "10", "--lambda", "-5"),
    ("coverage", "--method", "cost-median-of-means", "--eps", "0.5", "--delta", "0.2",
     "--trials", "1", "--k", "10", "--lambda", "0"),
])
def test_fewer_than_one_run_exits_one(tmp_path, capsys, argv):
    path = tmp_path / "line4.json"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "4", "--out", str(path))
    code, out, err = run_cli(capsys, argv[0], "--in", str(path), "--objective", "cost", *argv[1:])
    assert code == 1
    assert out == ""
    assert err == "error: k and runs must be at least 1\n"


def test_number_flags_take_exponents_up_to_the_bound(capsys):
    # the literal parses; the range check after it is what refuses eps = 10**4300
    bounds = ("bounds", "--method", "welfare-bernstein", "--n", "10")
    code, _, err = run_cli(capsys, *bounds, "--eps", "1e4300", "--delta", "0.1")
    assert (code, err) == (1, "error: eps must lie in (0, 1]\n")
    code, _, err = run_cli(capsys, *bounds, "--eps", "0.5", "--delta", "1E+4300")
    assert (code, err) == (1, "error: delta must lie in (0, 1]\n")
    # a delta below the double range still gets a plan
    code, out, _ = run_cli(capsys, *bounds, "--eps", "0.5", "--delta", "1e-400")
    assert code == 0
    assert "k: " in out


def test_literals_at_the_exponent_bound_print(tmp_path, capsys):
    # 10**4300 has one digit more than Python's int-to-str limit
    big = "1" + "0" * 4300
    plan = tmp_path / "plan.json"
    code, out, err = run_cli(
        capsys, "bounds", "--method", "welfare-bernstein", "--n", "10",
        "--eps", "0.5", "--delta", "1e-4300", "--out", str(plan),
    )
    assert (code, err) == (0, "")
    assert f"n=10 eps=1/2 delta=1/{big}\n" in out
    assert json.loads(plan.read_text())["delta"] == f"1/{big}"
    # at the other end, a planned k of 8604 digits is printed and written as a string
    code, out, err = run_cli(
        capsys, "bounds", "--method", "cost-single-run", "--n", "10",
        "--eps", "1e-4300", "--delta", "0.5", "--out", str(plan),
    )
    assert (code, err) == (0, "")
    k = "3" + "0" * 8603
    assert f"eps=1/{big} " in out and f"k: {k}\n" in out
    assert json.loads(plan.read_text())["k"] == k
    code, out, err = run_cli(
        capsys, "bounds", "--method", "welfare-lower-window", "--n", "10",
        "--eps", "0.5", "--delta", "1E+4300", "--out", str(plan),
    )
    assert (code, err) == (0, "")
    assert json.loads(plan.read_text())["delta"] == big
    path = tmp_path / "line4.json"
    csv = tmp_path / "coverage.csv"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "4", "--out", str(path))
    for reference, text in (("1e4300", big), ("1e-4300", f"1/{big}")):
        code, out, err = run_cli(
            capsys, "coverage", "--in", str(path), "--objective", "cost", "--method", "cost-single-run",
            "--eps", "0.5", "--delta", "0.2", "--trials", "2", "--k", "10", "--reference", reference,
            "--out", str(csv),
        )
        assert (code, err) == (0, "")
        assert out.splitlines()[1].startswith(f"reference: {text} ")
        assert [row.split(",")[3] for row in csv.read_text().splitlines()[1:]] == [text, text]


@pytest.mark.parametrize("eps,digits,kind", [("1e-2148", 4300, int), ("3e-2149", 4301, str)])
def test_bounds_json_writes_k_as_a_number_up_to_the_digit_limit(tmp_path, capsys, eps, digits, kind):
    # json reads and writes ints of up to 4300 digits, Python's default
    # int-to-str limit; a longer k is written as its decimal string, like the
    # other exact fields, and a lower limit (640 is the least) writes the same
    # bytes and prints the same k
    written = []
    for limit in (4300, 640):
        plan = tmp_path / f"plan{limit}.json"
        with int_digit_limit(limit):
            code, out, err = run_cli(
                capsys, "bounds", "--method", "cost-single-run", "--n", "10",
                "--eps", eps, "--delta", "0.5", "--out", str(plan),
            )
        assert (code, err) == (0, "")
        printed = out.split("k: ")[1].split("\n")[0]
        assert len(printed) == digits
        written.append(plan.read_bytes())
    assert written[0] == written[1]
    with int_digit_limit(4300):
        k = json.loads(written[0])["k"]
        assert type(k) is kind
        assert str(k) == printed


@pytest.mark.parametrize("eps,delta,code,message", [
    ("0.5", "1e-400", 0, "applicable: True\n"),
    ("0.5", "4e-324", 0, "applicable: True\n"),
    ("0.5", "1e-4300", 0, "applicable: True\n"),
    ("0.5", "1e4300", 0, "applicable: False (delta must be below e^-27)\n"),
    ("1e-200", "0.1", 1, "error: k_hi = n ln(1/delta) / (9 eps^2) exceeds the floating-point range (2**1024)\n"),
    ("1e-154", "1e-20", 1, "error: k_hi = n ln(1/delta) / (9 eps^2) exceeds the floating-point range (2**1024)\n"),
])
def test_lower_window_outside_the_double_range(capsys, eps, delta, code, message):
    got, out, err = run_cli(
        capsys, "bounds", "--method", "welfare-lower-window", "--n", "10", "--eps", eps, "--delta", delta,
    )
    assert got == code
    assert (out if code == 0 else err).endswith(message)
    if code == 0:
        assert err == ""
        ln_inverse = math.log(Fraction(delta).denominator) - math.log(Fraction(delta).numerator)
        k_hi = float(out.split("k_hi: ")[1].split()[0])
        assert k_hi == pytest.approx(10 / (9 * 0.25) * ln_inverse)


def test_sampling_commands_do_not_import_numpy(tmp_path):
    script = (
        "import sys\n"
        "from rsdlab.cli import main\n"
        "path = sys.argv[1]\n"
        "assert main(['gen', '--family', 'worst-case-metric-line', '--n', '6', '--out', path]) == 0\n"
        "assert main(['estimate', '--in', path, '--objective', 'cost', '--k', '3000', '--lambda', '2']) == 0\n"
        "assert main(['coverage', '--in', path, '--objective', 'cost', '--method', 'cost-single-run',\n"
        "             '--eps', '0.5', '--delta', '0.2', '--trials', '2', '--k', '100']) == 0\n"
        "print('numpy' in sys.modules)\n"
    )
    src = str(Path(rsdlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    result = subprocess.run(
        [sys.executable, "-c", script, str(tmp_path / "line6.json")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.splitlines()[-1] == "False"


@pytest.mark.parametrize("flag,literal", [
    ("--eps", "1e4301"),
    ("--eps", "1e-4301"),
    ("--delta", "0.1E+4301"),
    ("--delta", "1e-" + "9" * 50),
    ("--reference", "1e4301"),
    ("--reference", "2.5e" + "1" * 50),
])
def test_number_flags_refuse_exponents_past_the_bound(tmp_path, capsys, flag, literal):
    # refused on the text: none of these literals is ever turned into a number
    path = tmp_path / "line4.json"
    run_cli(capsys, "gen", "--family", "worst-case-metric-line", "--n", "4", "--out", str(path))
    values = {"--eps": "0.5", "--delta": "0.2", "--reference": "1", flag: literal}
    code, out, err = run_cli(
        capsys, "coverage", "--in", str(path), "--objective", "cost", "--method", "cost-single-run",
        "--trials", "1", "--k", "10", *(x for item in values.items() for x in item),
    )
    assert code == 1
    assert out == ""
    assert err == f"error: {flag}: decimal exponent beyond ±4300\n"


def test_validation_report_names_the_first_violations_and_counts_the_rest(tmp_path, capsys):
    from random import Random

    from rsdlab import AssignmentInstance, save_instance, validate
    from rsdlab.cli import MAX_REPORTED_VIOLATIONS

    rng = Random(1)
    inst = AssignmentInstance.from_costs([[rng.choice((0, 1, 100)) for _ in range(60)] for _ in range(60)])
    problems = validate(inst)
    assert len(problems) > 100 * MAX_REPORTED_VIOLATIONS
    path = tmp_path / "bad.json"
    save_instance(inst, path)
    code, _, err = run_cli(capsys, "opt", "--in", str(path), "--objective", "cost")
    assert code == 1
    assert err.splitlines() == [
        f"error: instance file {path} failed validation:",
        *(f"  - {v.message}" for v in problems[:MAX_REPORTED_VIOLATIONS]),
        f"  … and {len(problems) - MAX_REPORTED_VIOLATIONS} more ({len(problems)} violations)",
    ]



def test_validation_report_cuts_a_long_value(tmp_path, capsys):
    path = tmp_path / "long.json"
    value = "-" + "1" * 5000
    path.write_text(json.dumps({"n": 1, "setting": "value", "values": [[value]]}))
    code, out, err = run_cli(capsys, "opt", "--in", str(path), "--objective", "welfare")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: instance file {path} failed validation:",
        f"  - negative value {value[:40]}… (5001 characters) at agent 1, item 1",
    ]


def test_a_huge_declared_n_fails_validation_without_a_traceback(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"n": 1000000000000000000, "setting": "abstract", "rankings": [[1]]}')
    code, out, err = run_cli(capsys, "opt", "--in", str(path), "--objective", "cost")
    assert (code, out) == (1, "")
    assert err.splitlines() == [
        f"error: instance file {path} failed validation:",
        "  - expected 1000000000000000000 rankings",
        "  - ranking of agent 1 is not a permutation of 1..1000000000000000000",
    ]
    # exact refuses an n above its cap before validating
    code, out, err = run_cli(capsys, "exact", "--in", str(path))
    assert (code, out) == (1, "")
    assert err.startswith("error: exact enumeration over 1000000000000000000! orderings refused")


def test_bounds_plans_up_to_its_max_n_and_refuses_past_it(capsys):
    argv = ("bounds", "--method", "cost-bernstein", "--eps", "0.5", "--delta", "0.1", "--n")
    code, out, err = run_cli(capsys, *argv, str(bounds.MAX_N))
    assert (code, err) == (0, "")
    # k grows as 2^n: about 0.3 digits per agent
    assert len(out.split("k: ")[1].split("\n")[0]) > 30_000
    for n in (bounds.MAX_N + 1, 3_000_000, 10**12):
        code, out, err = run_cli(capsys, *argv, str(n))
        assert (code, out, err) == (1, "", f"error: n must be between 1 and {bounds.MAX_N}\n")


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_reduce_at_n_twelve_decodes_every_row_to_n_factorial(tmp_path, capsys, setting):
    path = tmp_path / "abstract12.json"
    run_cli(capsys, "gen", "--family", "random-abstract", "--n", "12", "--seed", "2", "--out", str(path))
    code, out, err = run_cli(capsys, "reduce", "--in", str(path), "--setting", setting, "--oracle-cap", "12")
    assert code == 0
    assert "warning: enumeration cap raised to 12" in err
    lines = out.splitlines()
    start = lines.index("decoded counts (rows = agents, columns = preference ranks):") + 1
    rows = [[int(c) for c in line.split()] for line in lines[start:start + 12]]
    assert [sum(row) for row in rows] == [math.factorial(12)] * 12
    assert lines[-1] == "round trip vs enumeration: PASS"


@pytest.mark.parametrize("setting", ["value", "metric"])
def test_reduce_prints_and_writes_totals_past_the_int_string_limit(tmp_path, capsys, monkeypatch, setting):
    # the n=18 DP is replaced by uniform counts (17! per cell), so only the
    # encoding, the decoding and the output path run
    import rsdlab.reduction
    from rsdlab import build_reduction, random_abstract
    from rsdlab.core import exact_str
    from rsdlab.exact import ExactSummary

    n, fact = 18, math.factorial(18)
    cell = fact // n

    def uniform_dp(instance, objective=None, cap=10):
        assert objective is None and cap == n
        return ExactSummary(n, None, fact, ((cell,) * n,) * n, ((Fraction(1, n),) * n,) * n, None, None, None)

    monkeypatch.setattr(rsdlab.reduction, "enumerate_rsd", uniform_dp)
    source, built_path = tmp_path / "abstract18.json", tmp_path / "built18.json"
    run_cli(capsys, "gen", "--family", "random-abstract", "--n", "18", "--seed", "1", "--out", str(source))
    code, out, err = run_cli(capsys, "reduce", "--in", str(source), "--setting", setting,
                             "--oracle-cap", "18", "--out", str(built_path))
    assert code == 0
    built = build_reduction(random_abstract(18, 1), setting)
    total = cell * sum(int(x) for row in built.payoff_matrix() for x in row)
    assert len(exact_str(total)) > 5000
    assert f"scaled total: {exact_str(total)}\n" in out
    assert "round trip vs enumeration: PASS" in out
    assert loads_instance(built_path.read_text()) == built
    sidecar = json.loads(Path(str(built_path) + ".decode.json").read_text())
    assert sidecar["scaled_total"] == exact_str(total)
    assert sidecar["counts"] == [[cell] * n] * n
    assert sidecar["round_trip"] == "pass"


@pytest.mark.parametrize("cap", ["0", "-3", "abc"])
def test_oracle_cap_flag_below_one_is_a_usage_error(tmp_path, capsys, cap):
    path = tmp_path / "abstract4.json"
    run_cli(capsys, "gen", "--family", "random-abstract", "--n", "4", "--out", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["reduce", "--in", str(path), "--setting", "value", "--oracle-cap", cap])
    assert exc.value.code == 2
    assert f"argument --oracle-cap: must be a positive integer, got '{cap}'" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ("exact",), ("opt", "--objective", "cost"), ("reduce", "--setting", "value"),
])
def test_non_utf8_instance_file_is_named_as_malformed(tmp_path, capsys, argv):
    path = tmp_path / "bad.json"
    path.write_bytes(b"\xff\xfe{}")
    code, out, err = run_cli(capsys, argv[0], "--in", str(path), *argv[1:])
    assert (code, out) == (1, "")
    assert err.startswith(f"error: malformed instance file {path}: 'utf-8' codec can't decode byte 0xff")


# Literals at and one past the length and exponent bounds, past the
# int-to-str digit limit, and plainly malformed ones.
_LITERALS = [
    "1" * MAX_LITERAL_LENGTH, "1" * (MAX_LITERAL_LENGTH + 1),
    "0." + "5" * (MAX_LITERAL_LENGTH - 2), "0." + "5" * (MAX_LITERAL_LENGTH - 1),
    f"1e{MAX_EXPONENT}", f"1e{MAX_EXPONENT + 1}", f"2.5E-{MAX_EXPONENT}", f"2.5E-{MAX_EXPONENT + 1}",
    "1" * 5000 + "/3", "1/0", "-1", "0", "0.5", "3", "x", "",
]
# A literal as a JSON string, or bare: a JSON number, or malformed JSON.
_ENTRY = st.one_of(
    st.sampled_from(_LITERALS).map(json.dumps),
    st.sampled_from(_LITERALS),
    st.sampled_from(["true", "null", "[]", "{}", "1.5e3", "-0", "NaN"]),
)


def _json_array(element):
    return st.lists(element, max_size=3).map(lambda xs: "[" + ", ".join(xs) + "]")


_FIELD = st.tuples(
    st.sampled_from(["values", "costs", "agent_points", "item_points", "rankings"]),
    st.one_of(_ENTRY, _json_array(_ENTRY), _json_array(_json_array(_ENTRY))),
)
_DOCUMENT = st.builds(
    lambda n, setting, fields: "{" + ", ".join(
        [f'"n": {n}', f'"setting": {setting}'] + [f'"{key}": {value}' for key, value in fields]) + "}",
    st.one_of(st.integers(-1, 3).map(str), st.sampled_from(['"2"', "true", "1.5", "null"])),
    st.sampled_from(['"value"', '"metric"', '"abstract"', '"euclidean"', "3"]),
    st.lists(_FIELD, max_size=3),
)
_SMALL = st.sampled_from(["0", "1", "2", "7", '"0.5"', '"1/3"', '"2.25"'])


@st.composite
def _well_shaped_document(draw):
    """An instance document of the right shape for its setting, with small
    valid entries and at most one drawn from ``_ENTRY``."""
    n = draw(st.integers(1, 3))
    kind = draw(st.sampled_from(["values", "costs", "points", "rankings"]))
    if kind == "rankings":
        rows = [list(draw(st.permutations(range(1, n + 1)))) for _ in range(n)]
        return json.dumps({"n": n, "setting": "abstract", "rankings": rows})
    size = 2 * n if kind == "points" else n * n
    cells = draw(st.lists(_SMALL, min_size=size, max_size=size))
    if draw(st.booleans()):
        cells[draw(st.integers(0, size - 1))] = draw(_ENTRY)
    rows = ["[" + ", ".join(cells[i:i + n]) + "]" for i in range(0, size, n)]
    if kind == "points":
        fields = f'"agent_points": {rows[0]}, "item_points": {rows[1]}'
    else:
        fields = f'"{kind}": [{", ".join(rows)}]'
    setting = "value" if kind == "values" else "metric"
    return f'{{"n": {n}, "setting": "{setting}", {fields}}}'


_INSTANCE_FILE = st.one_of(
    _well_shaped_document().map(str.encode),
    _DOCUMENT.map(str.encode),
    st.sampled_from(["", "[]", "3", '"x"', "null", "{}", "[[[", '{"n": 1']).map(str.encode),
    _DOCUMENT.map(lambda text: text.encode("utf-16")),
    st.binary(max_size=20).map(lambda raw: b"\xff" + raw),
)
_SAMPLING = ("--eps", "0.5", "--delta", "0.2", "--trials", "1", "--k", "2", "--lambda", "1")
_READS_AN_INSTANCE = [
    ("exact",), ("exact", "--objective", "welfare"), ("exact", "--objective", "cost"),
    ("opt", "--objective", "welfare"), ("opt", "--objective", "cost"),
    ("estimate", "--objective", "welfare", "--k", "3"), ("estimate", "--objective", "cost", "--k", "3"),
    ("reduce", "--setting", "value"), ("reduce", "--setting", "metric"),
    ("coverage", "--objective", "welfare", "--method", "welfare-hoeffding", *_SAMPLING),
    ("coverage", "--objective", "cost", "--method", "cost-median-of-means", *_SAMPLING),
]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(content=_INSTANCE_FILE, argv=st.sampled_from(_READS_AN_INSTANCE))
def test_malformed_instance_files_exit_with_a_message_never_a_traceback(content, argv):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "instance.json")
        with open(path, "wb") as fh:
            fh.write(content)
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([argv[0], "--in", path, *argv[1:]])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code != 0:
        assert err.getvalue().strip()


# Flag values at and past their bounds, and plain valid ones, so that about
# half the sampling invocations get as far as sampling.  None of them is
# large work: sampling always gets an explicit small k, lambda and trial count.
_NUMBER_FLAG = st.one_of(st.sampled_from(["0.5", "0.2", "1/3"]), st.sampled_from([
    "0", "1", "-0.5", "1.5", "1/0", "x", "", "4e-324", "1e-400",
    f"1e{MAX_EXPONENT}", f"1e{MAX_EXPONENT + 1}", f"1e-{MAX_EXPONENT}", f"1e-{MAX_EXPONENT + 1}",
    "1" * MAX_LITERAL_LENGTH, "1" * (MAX_LITERAL_LENGTH + 1),
]))
_SEED = st.integers(-1000, 1000).map(str)
_ORACLE_CAP = st.one_of(
    st.sampled_from(["", "0", "-3", "2", "4", "12", " 5 ", "1e3", "٣", "9" * 30]),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\x00"), max_size=8),
)


def _optional(flag, values):
    return st.one_of(st.just([]), values.map(lambda v: [flag, v]))


@st.composite
def _flag_invocation(draw):
    """argv for one subcommand with drawn flag values; ``{dir}`` stands for a
    directory holding ``line4.json``, ``value3.json`` and ``abstract4.json``."""
    command = draw(st.sampled_from(["gen", "bounds", "estimate", "coverage", "exact", "reduce"]))
    # mostly an objective that the instance supports
    name, objective = draw(st.sampled_from([
        ("line4", "cost"), ("value3", "welfare"), ("line4", "cost"), ("value3", "welfare"),
        ("line4", "welfare"), ("abstract4", "cost"),
    ]))
    inst, objective = f"{{dir}}/{name}.json", ["--objective", objective]
    sampling = ["--k", str(draw(st.integers(-3, 40))), "--lambda", str(draw(st.integers(-2, 4))),
                "--seed", draw(_SEED), *draw(_optional("--workers", st.integers().map(str)))]
    out = draw(_optional("--out", st.just("{dir}/out")))
    if command == "gen":
        n = draw(st.sampled_from([-1, 0, 1, 2, 3, MAX_N + 1, MAX_N + 2]))
        argv = ["--family", draw(st.sampled_from([f.value for f in Family])), "--n", str(n),
                "--seed", draw(_SEED), "--out", "{dir}/out"]
    elif command == "bounds":
        n = draw(st.sampled_from([-1, 0, 1, 2, 7, bounds.MAX_N, bounds.MAX_N + 1]))
        method = draw(st.sampled_from([m.value for m in Method] + ["welfare-lower-window"]))
        argv = ["--method", method, "--n", str(n), "--eps", draw(_NUMBER_FLAG),
                "--delta", draw(_NUMBER_FLAG), *out]
    elif command == "estimate":
        argv = ["--in", inst, *objective, *sampling, *out]
    elif command == "coverage":
        method = draw(st.sampled_from([m.value for m in Method]))
        argv = ["--in", inst, *objective, "--method", method, "--eps", draw(_NUMBER_FLAG),
                "--delta", draw(_NUMBER_FLAG), "--trials", str(draw(st.integers(-2, 3))), *sampling,
                *draw(_optional("--reference", _NUMBER_FLAG)), *out]
    elif command == "exact":
        argv = ["--in", inst, *draw(st.sampled_from([[], objective])), *out]
    else:
        inst = draw(st.sampled_from(["{dir}/abstract4.json", "{dir}/abstract4.json", inst]))
        argv = ["--in", inst, "--setting", draw(st.sampled_from(["value", "metric"])), *out]
    if command in ("coverage", "exact", "reduce"):
        argv += draw(_optional("--oracle-cap", _ORACLE_CAP))
    return [command, *argv]


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(invocation=_flag_invocation())
# gen at its bound: about 0.7 s, the cheapest family there
@example(invocation=["gen", "--family", "random-abstract", "--n", str(MAX_N), "--out", "{dir}/out"])
def test_flag_values_exit_with_a_message_never_a_traceback(invocation):
    with tempfile.TemporaryDirectory() as tmp:
        save_instance(worst_case_metric_line(4), os.path.join(tmp, "line4.json"))
        save_instance(random_value(3, 1), os.path.join(tmp, "value3.json"))
        save_instance(random_abstract(4, 1), os.path.join(tmp, "abstract4.json"))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main([arg.replace("{dir}", tmp) for arg in invocation])
            except SystemExit as exc:
                code = exc.code
    assert code in (0, 1, 2)
    if code != 0:
        assert err.getvalue().strip()

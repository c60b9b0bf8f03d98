"""CLI tests: output formats, exit codes, determinism, a quiet stderr, cold start."""

import csv
import importlib
import json
import math
import os
import subprocess
import sys
import warnings

import numpy as np
import pytest

from circumlib import SolverConfig, circumcenter
from circumlib.cli import CSV_COLUMNS, _solver_config, build_parser, main

cli_mod = importlib.import_module("circumlib.cli")
solvers_mod = importlib.import_module("circumlib.solvers")


def write_points(path, pts):
    path.write_text(json.dumps({"dim": len(pts[0]), "points": pts}) + "\n")


def write_two_lines(path, z=(1.25, 2.5)):
    """The x-axis and the diagonal of R^2, which meet at the origin."""
    doc = {
        "dim": 2,
        "subspaces": [
            {"base": [0, 0], "span": [[1, 0]]},
            {"base": [0, 0], "span": [[1, 1]]},
        ],
        "z": list(z),
    }
    path.write_text(json.dumps(doc) + "\n")


def write_three_planes(path):
    """The three coordinate planes of R^3, which meet at the origin."""
    spans = ([[1, 0, 0], [0, 1, 0]], [[1, 0, 0], [0, 0, 1]], [[0, 1, 0], [0, 0, 1]])
    doc = {
        "dim": 3,
        "subspaces": [{"base": [0, 0, 0], "span": span} for span in spans],
        "z": [1, 2, 3],
    }
    path.write_text(json.dumps(doc) + "\n")


def gen_problem(tmp_path, name="p.json", n=8, dims="3,3", cf=0.5, seed=1):
    path = tmp_path / name
    rc = main(
        ["gen", "--n", str(n), "--dims", dims, "--cf", str(cf),
         "--seed", str(seed), "-o", str(path)]
    )
    assert rc == 0
    return path


def summary_dict(out):
    fields = {}
    for line in out.strip().splitlines():
        key, _, val = line.partition(" ")
        fields[key] = val
    return fields


# cc


def test_cc_square(tmp_path, capsys):
    path = tmp_path / "square.json"
    write_points(path, [[0, 0], [4, 0], [0, 4], [4, 4]])
    assert main(["cc", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "center 2 2"
    assert out[1] == "radius 2.8284271247461903"


def test_cc_output_roundtrips_to_bits(tmp_path, capsys):
    pts = [[0.0, 0.0], [1.0, 0.0], [0.3, 1.7]]
    path = tmp_path / "tri.json"
    write_points(path, pts)
    expected = circumcenter(pts)
    assert main(["cc", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    center = [float(tok) for tok in out[0].split()[1:]]
    radius = float(out[1].split()[1])
    assert center == list(expected.center)
    assert radius == expected.radius
    # Squared lengths beyond float range: the center (1e200, 1e200) keeps
    # its bits, and 17 digits print them.
    write_points(path, [[0, 0], [2e200, 0], [0, 2e200]])
    assert main(["cc", str(path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "center 9.9999999999999997e+199 9.9999999999999997e+199"


def test_cc_collinear_empty(tmp_path, capsys):
    path = tmp_path / "col.json"
    write_points(path, [[0, 0], [1, 0], [2, 0]])
    assert main(["cc", str(path)]) == 0
    assert capsys.readouterr().out.strip() == "EMPTY"


def test_flag_defaults_are_the_config_defaults():
    # The flags take their defaults from the config, so an edit cannot fork them.
    parser = build_parser()
    for argv in (["solve", "f", "--method", "cdrm"], ["bench", "f"]):
        assert _solver_config(parser.parse_args(argv)) == SolverConfig()


@pytest.mark.parametrize(
    "argv, message",
    [
        (
            ["solve", "p.json", "--method", "cdrm", "--step-tol", "nan"],
            "step_tol must be positive",
        ),
    ],
    ids=["solve-step-tol"],
)
def test_nan_tolerance_exit_one(tmp_path, capsys, monkeypatch, argv, message):
    monkeypatch.chdir(tmp_path)
    gen_problem(tmp_path)
    capsys.readouterr()
    assert main(argv) == 1
    assert capsys.readouterr() == ("", f"error: {message}\n")


@pytest.mark.parametrize("command", ["solve", "bench", "gen"])
def test_unwritable_output_exit_one(tmp_path, capsys, monkeypatch, command):
    path = str(gen_problem(tmp_path))
    out = str(tmp_path / "none" / "out")
    argv = {
        "solve": ["solve", path, "--method", "cdrm", "--csv", out],
        "bench": ["bench", path, "--csv", out],
        "gen": ["gen", "--n", "8", "--dims", "3,3", "--cf", "0.5", "--seed", "1", "-o", out],
    }[command]
    runs = []
    monkeypatch.setattr("circumlib.cli.run", lambda *a: runs.append(a))
    capsys.readouterr()
    assert main(argv) == 1
    # The output is opened before any method runs, so nothing is reported.
    captured = capsys.readouterr()
    assert captured.out == "" and runs == []
    [line] = captured.err.splitlines()
    assert line.startswith("error: ") and repr(out) in line


@pytest.mark.parametrize(
    "argv, method",
    [
        (["solve", "three.json", "--method", "dr"], "dr"),
        (["bench", "three.json", "--methods", "crm,cdrm"], "cdrm"),
    ],
    ids=["solve-dr", "bench-crm-cdrm"],
)
def test_method_rejecting_the_sets_exit_one(tmp_path, capsys, monkeypatch, argv, method):
    # Every requested method is checked against the problem's sets before
    # the output is opened or any method runs.
    monkeypatch.chdir(tmp_path)
    write_three_planes(tmp_path / "three.json")
    (tmp_path / "keep.csv").write_text("keep\n")
    runs = []
    monkeypatch.setattr("circumlib.cli.run", lambda *a: runs.append(a))
    assert main([*argv, "--csv", "keep.csv"]) == 1
    assert capsys.readouterr() == ("", f"error: {method} handles exactly two sets\n")
    assert runs == []
    assert (tmp_path / "keep.csv").read_bytes() == b"keep\n"


def test_cc_missing_file(tmp_path, capsys):
    assert main(["cc", str(tmp_path / "nope.json")]) == 1
    assert "error:" in capsys.readouterr().err


def test_cc_bad_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text('{"dim": 2,,}\n')
    assert main(["cc", str(path)]) == 1
    assert "line 1 column" in capsys.readouterr().err


@pytest.mark.parametrize("entry", ["1e400", "1" + "0" * 400], ids=["1e400", "int400"])
def test_cc_non_finite_entry_exit_one(tmp_path, capsys, entry):
    path = tmp_path / "big.json"
    path.write_text('{"dim": 2, "points": [[0, 0], [1, 0], [0, %s]]}\n' % entry)
    assert main(["cc", str(path)]) == 1
    err = capsys.readouterr().err
    assert err == "error: points[2][1] is not a finite number\n"


def test_boolean_dim_exit_one(tmp_path, capsys):
    path = tmp_path / "bool.json"
    path.write_text('{"dim": true, "points": [[0], [2]]}\n')
    assert main(["cc", str(path)]) == 1
    assert "'dim' must be a positive integer" in capsys.readouterr().err


# gen


def test_gen_deterministic_and_valid(tmp_path, capsys):
    # An odd n reads a whole Box-Muller pair at the end of each frame row
    # and of z.
    for n, dims, seed in ((8, "3,3", 7), (21, "4,5", 3)):
        a = gen_problem(tmp_path, "a.json", n=n, dims=dims, seed=seed)
        b = gen_problem(tmp_path, "b.json", n=n, dims=dims, seed=seed)
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()
        # generated file passes validation end to end
        assert main(["solve", str(a), "--method", "map", "--max-iter", "5"]) == 0
        capsys.readouterr()


def test_gen_reports_path(tmp_path, capsys):
    path = gen_problem(tmp_path)
    assert f"wrote {path}" in capsys.readouterr().out


def test_gen_slash_dims(tmp_path, capsys):
    path = tmp_path / "p.json"
    rc = main(["gen", "--n", "6", "--dims", "2/2", "--cf", "0.3",
               "--seed", "3", "-o", str(path)])
    assert rc == 0
    capsys.readouterr()
    doc = json.loads(path.read_text())
    assert len(doc["subspaces"][0]["span"]) == 2


def test_gen_bad_dims(tmp_path, capsys):
    rc = main(["gen", "--n", "6", "--dims", "2", "--cf", "0.3",
               "--seed", "3", "-o", str(tmp_path / "p.json")])
    assert rc == 1
    assert "--dims" in capsys.readouterr().err


def test_gen_infeasible(tmp_path, capsys):
    rc = main(["gen", "--n", "3", "--dims", "2,2", "--cf", "0.3",
               "--seed", "3", "-o", str(tmp_path / "p.json")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


# solve


def test_solve_summary_fields(tmp_path, capsys):
    path = gen_problem(tmp_path)
    capsys.readouterr()
    assert main(["solve", str(path), "--method", "cdrm"]) == 0
    fields = summary_dict(capsys.readouterr().out)
    assert fields["method"] == "cdrm"
    assert fields["reason"] == "step_tol"
    assert int(fields["iterations"]) >= 1
    assert float(fields["final_dist"]) <= 1e-8
    assert float(fields["final_residual"]) <= 1e-8
    assert float(fields["cf"]) == pytest.approx(0.5, abs=1e-8)
    assert "rate" in fields


def test_solve_rate_na_on_finite_convergence(tmp_path, capsys):
    path = tmp_path / "lines.json"
    write_two_lines(path)
    assert main(["solve", str(path), "--method", "cdrm"]) == 0
    fields = summary_dict(capsys.readouterr().out)
    assert fields["rate"] == "n/a"


def test_solve_csv_schema(tmp_path, capsys):
    # One row per iteration plus the start, every number finite.
    path = gen_problem(tmp_path)
    out_csv = tmp_path / "trace.csv"
    for method in ("cdrm", "map"):
        assert main(["solve", str(path), "--method", method, "--csv", str(out_csv)]) == 0
        fields = summary_dict(capsys.readouterr().out)
        with open(out_csv, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == CSV_COLUMNS
        body = rows[1:]
        assert len(body) == int(fields["iterations"]) + 1 >= 2
        assert [r[0] for r in body] == [str(k) for k in range(len(body))]
        assert body[0][1] == "0.0"
        for r in body:
            assert all(math.isfinite(float(c)) for c in r[1:4])
            assert r[4] == method


def test_solve_csv_rerun_identical(tmp_path, capsys):
    path = gen_problem(tmp_path)
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert main(["solve", str(path), "--method", "crm", "--csv", str(a)]) == 0
    assert main(["solve", str(path), "--method", "crm", "--csv", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_solve_init_variants(tmp_path, capsys):
    path = gen_problem(tmp_path)
    for init in ("z", "project-first", "project-sum"):
        assert main(["solve", str(path), "--method", "cdrm", "--init", init]) == 0
        fields = summary_dict(capsys.readouterr().out)
        assert float(fields["final_dist"]) <= 1e-7


def test_solve_unreadable_problem(tmp_path, capsys):
    assert main(["solve", str(tmp_path / "nope.json"), "--method", "cdrm"]) == 1
    assert "error:" in capsys.readouterr().err


def test_solve_no_intersection_exit_one(tmp_path, capsys):
    doc = {
        "dim": 2,
        "subspaces": [
            {"base": [0, 0], "span": [[1, 0]]},
            {"base": [0, 1], "span": [[1, 0]]},
        ],
        "z": [1, 1],
    }
    path = tmp_path / "p.json"
    path.write_text(json.dumps(doc))
    assert main(["solve", str(path), "--method", "cdrm"]) == 1
    assert "share no point" in capsys.readouterr().err


def test_solve_degenerate_run_exit_zero(tmp_path, capsys):
    # From z = (1e300, 1e300) only the reflection points' squared
    # distances overflow: cdrm and crm take them at working scale and
    # reach the solution, the origin, exactly, with no numpy warning.
    path = tmp_path / "far.json"
    write_two_lines(path, z=(1e300, 1e300))
    for method in ("cdrm", "crm"):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["solve", str(path), "--method", method]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        fields = summary_dict(captured.out)
        assert (fields["reason"], fields["final_dist"]) == ("step_tol", "0")
    # From z = (1e308, 1e308) the first reflection overflows, so the
    # circumcenter of the reflection points is Empty: the run ends with a
    # reason, and the CSV holds the start row.
    write_two_lines(path, z=(1e308, 1e308))
    out_csv = tmp_path / "trace.csv"
    assert main(["solve", str(path), "--method", "cdrm", "--csv", str(out_csv)]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    fields = summary_dict(captured.out)
    assert fields["reason"] == "degenerate"
    assert fields["iterations"] == "0"
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert [r[:3] + r[4:] for r in rows[1:]] == [["0", "0.0", "1e+308", "cdrm"]]


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_failed_request_keeps_the_csv_file(tmp_path, capsys, monkeypatch, command):
    # The start z = (-1.7e308, 1.7e308) is 2.4e308 from the solution at
    # the origin, so its dist overflows and run raises ValueError after
    # the CSV file is opened: exit 1, the file as it was, and no numpy
    # warning.
    monkeypatch.chdir(tmp_path)
    write_two_lines(tmp_path / "neg.json", z=(-1.7e308, 1.7e308))
    (tmp_path / "keep.csv").write_text("keep\n")
    argv = {
        "solve": ["solve", "neg.json", "--method", "cdrm"],
        "bench": ["bench", "neg.json", "--methods", "cdrm,dr"],
    }[command]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([*argv, "--init", "z", "--csv", "keep.csv"]) == 1
    message = "error: the starting point's shadow or distance overflows\n"
    assert capsys.readouterr() == ("", message)
    assert (tmp_path / "keep.csv").read_bytes() == b"keep\n"


def test_csv_replaces_a_longer_file(tmp_path, capsys):
    path = gen_problem(tmp_path)
    fresh, old = tmp_path / "fresh.csv", tmp_path / "old.csv"
    old.write_text("x" * 100_000 + "\n")
    for out in (fresh, old):
        assert main(["solve", str(path), "--method", "map", "--csv", str(out)]) == 0
    assert old.read_bytes() == fresh.read_bytes()
    # A file that cannot be truncated, such as the null device, is
    # written as it always was.
    assert main(["solve", str(path), "--method", "map", "--csv", os.devnull]) == 0
    assert main(["bench", str(path), "--csv", os.devnull]) == 0


# bench


def test_bench_all_methods_combined_csv(tmp_path, capsys):
    path = gen_problem(tmp_path)
    out_csv = tmp_path / "bench.csv"
    capsys.readouterr()
    assert main(["bench", str(path), "--csv", str(out_csv), "--max-iter", "200"]) == 0
    err = capsys.readouterr().err
    for m in ("cdrm", "crm", "dr", "map"):
        assert f"{m}:" in err
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert {r[4] for r in rows[1:]} == {"cdrm", "crm", "dr", "map"}


def test_bench_reports_every_method_past_an_overflow(tmp_path, capsys):
    # From z = (1e308, 1e308) cdrm and crm end degenerate and dr
    # non_finite at their start; bench goes on to the next method each
    # time and writes every run's rows, with no numpy warning.
    path = tmp_path / "far.json"
    write_two_lines(path, z=(1e308, 1e308))
    out_csv = tmp_path / "bench.csv"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bench", str(path), "--csv", str(out_csv)]) == 0
    err = capsys.readouterr().err
    assert err.count("(degenerate)") == 2 and "dr: 0 iterations (non_finite)" in err
    with open(out_csv, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == CSV_COLUMNS
    assert [r[4] for r in rows[1:4]] == ["cdrm", "crm", "dr"]
    assert {r[4] for r in rows[4:]} == {"map"}
    # From z = (-5e307, 3), z - base overflows in the projection onto the
    # x-axis through (1.5e308, 0). It is taken again at working scale, so
    # each method reaches the solution (0, 0) exactly in one step and
    # stops on the next, with a finite residual in every row.
    doc = {
        "dim": 2,
        "subspaces": [
            {"base": [1.5e308, 0], "span": [[1, 0]]},
            {"base": [0, 0], "span": [[0, 1]]},
        ],
        "z": [-5e307, 3],
    }
    path.write_text(json.dumps(doc) + "\n")
    methods = ["cdrm", "crm", "map"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["bench", str(path), "--init", "z", "--methods", ",".join(methods)]) == 0
    captured = capsys.readouterr()
    assert [line.partition(", rate")[0] for line in captured.err.splitlines()] == [
        f"{m}: 2 iterations (step_tol), final_dist 0" for m in methods
    ]
    rows = list(csv.DictReader(captured.out.splitlines()))
    assert all(math.isfinite(float(r["residual"])) for r in rows)


def test_bench_subset_to_stdout(tmp_path, capsys):
    path = gen_problem(tmp_path)
    capsys.readouterr()
    assert main(["bench", str(path), "--methods", "cdrm,map"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0] == CSV_COLUMNS
    assert {r[4] for r in rows[1:]} == {"cdrm", "map"}
    assert "cdrm:" in captured.err and "map:" in captured.err


def test_bench_default_methods_take_the_sets(tmp_path, capsys):
    path = tmp_path / "three.json"
    write_three_planes(path)
    assert main(["bench", str(path)]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(captured.out.splitlines()))
    assert rows[0] == CSV_COLUMNS
    assert {r[4] for r in rows[1:]} == {"crm", "map"}
    assert "crm:" in captured.err and "map:" in captured.err
    assert "cdrm" not in captured.err and "dr:" not in captured.err


def measured_sets(trace):
    # dr's residual skips the first set, on which its shadow lies.
    return len(trace.sets) - (trace.method.value == "dr")


def test_bench_takes_each_residual_once(tmp_path, capsys, monkeypatch):
    # Without --csv, bench writes its CSV to stdout. A run takes no
    # distance to a set and the progress line reads no residual; each
    # trace's residual column takes one distance per measured point and
    # set, the first set left out for dr.
    path = gen_problem(tmp_path)
    calls, traces = [], []

    def counted(s, x, inner=solvers_mod._distance):
        calls.append(s)
        return inner(s, x)

    def progress(problem, trace, inner=cli_mod._print_progress):
        taken = len(calls)
        assert taken == sum(len(t.dists) * measured_sets(t) for t in traces)
        inner(problem, trace)
        assert len(calls) == taken
        traces.append(trace)

    monkeypatch.setattr(solvers_mod, "_distance", counted)
    monkeypatch.setattr(cli_mod, "_print_progress", progress)
    capsys.readouterr()
    assert main(["bench", str(path)]) == 0
    assert [t.method.value for t in traces] == ["cdrm", "crm", "dr", "map"]
    assert len(calls) == sum(len(t.dists) * measured_sets(t) for t in traces)
    rows = list(csv.reader(capsys.readouterr().out.splitlines()))
    assert [float(r[3]) for r in rows[1:]] == [r for t in traces for r in t.residuals]


@pytest.mark.parametrize("method", ["cdrm", "dr", "map"])
def test_solve_without_csv_takes_only_the_final_residual(
    tmp_path, capsys, monkeypatch, method
):
    # With no CSV output no row is built, so solve takes the distances
    # of the final measured point alone, for its summary line.
    path = gen_problem(tmp_path)
    calls, traces = [], []

    def counted(s, x, inner=solvers_mod._distance):
        calls.append(x)
        return inner(s, x)

    def summary(problem, trace, inner=cli_mod._print_summary):
        traces.append(trace)
        inner(problem, trace)

    monkeypatch.setattr(solvers_mod, "_distance", counted)
    monkeypatch.setattr(cli_mod, "_print_summary", summary)
    capsys.readouterr()
    assert main(["solve", str(path), "--method", method]) == 0
    (trace,) = traces
    assert trace.num_steps > 2
    assert len(calls) == measured_sets(trace)
    assert all(x is trace.final for x in calls)
    fields = summary_dict(capsys.readouterr().out)
    assert float(fields["final_residual"]) == trace.residuals[-1]


@pytest.mark.parametrize("method", ["cdrm", "dr", "map"])
def test_solve_with_csv_takes_each_residual_once(tmp_path, capsys, monkeypatch, method):
    # The summary reads the final residual before the rows read every
    # one; the rows reuse it, so each measured point's distances to the
    # sets are taken once.
    path = gen_problem(tmp_path)
    out = tmp_path / "r.csv"
    calls, traces = [], []

    def counted(s, x, inner=solvers_mod._distance):
        calls.append(x)
        return inner(s, x)

    def summary(problem, trace, inner=cli_mod._print_summary):
        traces.append(trace)
        inner(problem, trace)

    monkeypatch.setattr(solvers_mod, "_distance", counted)
    monkeypatch.setattr(cli_mod, "_print_summary", summary)
    capsys.readouterr()
    assert main(["solve", str(path), "--method", method, "--csv", str(out)]) == 0
    (trace,) = traces
    assert trace.num_steps > 2
    assert len(calls) == len(trace.dists) * measured_sets(trace)
    fields = summary_dict(capsys.readouterr().out)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(trace.dists)
    assert float(fields["final_residual"]) == float(rows[-1]["residual"])


def test_bench_unknown_method(tmp_path, capsys):
    path = gen_problem(tmp_path)
    capsys.readouterr()
    assert main(["bench", str(path), "--methods", "xyz"]) == 1
    assert "error:" in capsys.readouterr().err


def test_bench_empty_methods(tmp_path, capsys):
    path = gen_problem(tmp_path)
    capsys.readouterr()
    assert main(["bench", str(path), "--methods", " , "]) == 1
    assert "no methods" in capsys.readouterr().err


# stderr


def test_solve_stderr_is_empty(tmp_path, capsys):
    path = gen_problem(tmp_path)
    capsys.readouterr()
    res = subprocess.run(
        [sys.executable, "-m", "circumlib.cli", "solve", str(path), "--method", "cdrm"],
        capture_output=True,
        text=True,
    )
    assert res.returncode == 0
    assert res.stderr == ""
    assert summary_dict(res.stdout)["method"] == "cdrm"
    # A failed request exits 1 with one error line and nothing on stdout.
    res = subprocess.run(
        [sys.executable, "-m", "circumlib.cli", "cc", str(tmp_path / "missing.json")],
        capture_output=True,
        text=True,
    )
    assert (res.returncode, res.stdout) == (1, "")
    [line] = res.stderr.splitlines()
    assert line.startswith("error: ")


# cold start


@pytest.mark.parametrize("module", ["scipy", "logging"])
def test_import_does_not_load(module):
    # scipy.linalg alone used to cost about 350 ms of every CLI start,
    # logging about 3 ms.
    code = f"import sys, circumlib.cli; print({module!r} in sys.modules)"
    res = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True
    )
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "False"

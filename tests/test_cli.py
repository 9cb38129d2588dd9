"""End-to-end tests of the command-line interface: exit codes, output
formats, CSV/JSON value parity, and the dimension-list grammar."""

import csv
import io
import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from rwmscaling.asymptotics import mixing_from_spec, solve_aots
from rwmscaling.cli import UsageError, main, parse_dims
from rwmscaling.elliptical import (EllipticalSpec, elliptical_aos,
                                   parse_eigenvalue_rule)
from rwmscaling.engine import get_marginal_table
from rwmscaling.targets import build_example_target, parse_target_spec

README = Path(__file__).resolve().parents[1] / "README.md"


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _parse_csv(text):
    comments = [ln[2:] for ln in text.splitlines() if ln.startswith("# ")]
    body = [ln for ln in text.splitlines() if not ln.startswith("#")]
    rows = list(csv.reader(io.StringIO("\n".join(body))))
    header, data = rows[0], rows[1:]
    return comments, header, data


def test_version_and_help_exit_zero(capsys):
    assert main(["--version"]) == 0
    out = capsys.readouterr().out
    assert "rwmscale" in out


def test_parse_dims_grammar():
    assert parse_dims("1,2,5") == [1, 2, 5]
    assert parse_dims("1:100:log3") == [1, 10, 100]
    assert parse_dims("2:6:lin3") == [2, 4, 6]
    with pytest.raises(UsageError):
        parse_dims("5,2")
    with pytest.raises(UsageError):
        parse_dims("0,3")
    with pytest.raises(UsageError):
        parse_dims("1:5")
    with pytest.raises(UsageError):
        parse_dims("1:5:quad4")
    with pytest.raises(UsageError):
        parse_dims("")


def test_curve_csv_json_parity(capsys):
    argv = ["curve", "gaussian", "gaussian", "--dim", "2",
            "--lambda-min", "0.5", "--lambda-max", "5", "--points", "7"]
    code, out_csv, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    comments, header, data = _parse_csv(out_csv)
    assert header == ["lambda", "ear", "esjd"]
    assert len(data) == 7
    assert any("target=gaussian" in c for c in comments)

    code, out_json, _ = _run(capsys, argv + ["--format", "json"])
    assert code == 0
    payload = json.loads(out_json)
    assert payload["comments"] == comments
    assert len(payload["rows"]) == 7
    for row_csv, row_json in zip(data, payload["rows"]):
        for col, text in zip(header, row_csv):
            assert float(text) == row_json[col]  # exact, not approximate


def test_curve_usage_errors_exit_2(capsys):
    base = ["curve", "gaussian", "gaussian", "--dim", "2"]
    code, _, err = _run(capsys, base + ["--lambda-min", "1", "--lambda-max", "1"])
    assert code == 2 and "error" in err
    code, _, _ = _run(capsys, base + ["--lambda-min", "-1", "--lambda-max", "2"])
    assert code == 2
    code, _, _ = _run(capsys, base + ["--lambda-min", "0.5", "--lambda-max", "2",
                                      "--points", "1"])
    assert code == 2


def test_unknown_target_exits_2(capsys):
    code, _, err = _run(capsys, ["curve", "nosuch", "gaussian", "--dim", "2",
                                 "--lambda-min", "0.5", "--lambda-max", "2"])
    assert code == 2 and "error" in err


def test_missing_required_flag_exits_2(capsys):
    assert main(["curve", "gaussian", "gaussian"]) == 2
    capsys.readouterr()


def test_optimize_recovers_known_optimum(capsys):
    code, out, _ = _run(capsys, ["optimize", "gaussian", "gaussian",
                                 "--dim", "1", "--grid", "128"])
    assert code == 0
    _, header, data = _parse_csv(out)
    assert header == ["lambda_hat", "ear_hat", "esjd_hat", "n_local_maxima"]
    row = dict(zip(header, data[0]))
    assert float(row["lambda_hat"]) == pytest.approx(2.4264, rel=1e-3)
    assert float(row["ear_hat"]) == pytest.approx(0.43886, abs=1e-4)
    assert int(float(row["n_local_maxima"])) == 1


def test_optimize_half_range_exits_2(capsys):
    code, _, err = _run(capsys, ["optimize", "gaussian", "gaussian",
                                 "--dim", "1", "--lambda-min", "0.5"])
    assert code == 2 and "both" in err


def test_optimize_boundary_argmax_exits_3(capsys):
    code, _, err = _run(capsys, ["optimize", "gaussian", "gaussian",
                                 "--dim", "2", "--lambda-min", "40",
                                 "--lambda-max", "400", "--grid", "64"])
    assert code == 3 and "numerical failure" in err


def test_lognormal_at_large_d_optimizes_on_a_certified_table(capsys):
    code, out, err = _run(capsys, ["optimize", "lognormal", "gaussian",
                                   "--dim", "300"])
    assert code == 0 and err == ""
    _, header, data = _parse_csv(out)
    assert float(dict(zip(header, data[0]))["ear_hat"]) == pytest.approx(
        0.02456, abs=1e-5)
    assert get_marginal_table(parse_target_spec("lognormal", 300)).certified


@pytest.mark.parametrize("argv", [
    ["curve", "mixture:p=1/d", "gaussian", "--dim", "100",
     "--lambda-min", "5", "--lambda-max", "50", "--points", "4"],
    ["optimize", "mixture:p=1/d", "gaussian", "--dim", "100"],
    ["sweep", "mixture:p=1/d", "gaussian", "--dims", "100"],
])
def test_uncertified_table_warns_on_stderr(capsys, argv):
    # This mixture's W table ends at a certificate of 3.3e-9, above its 3e-9.
    code, out, err = _run(capsys, argv)
    assert code == 0 and "warning" not in out
    assert err.startswith("warning: ") and "certificate" in err


def test_sweep_json_rows_and_limit_comment(capsys):
    code, out, _ = _run(capsys, ["sweep", "gaussian", "gaussian",
                                 "--dims", "1,2,5", "--grid", "128",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert [r["d"] for r in payload["rows"]] == [1, 2, 5]
    for r in payload["rows"]:
        assert set(r) == {"d", "lambda_hat", "ear_hat", "esjd_hat",
                          "corollary4_lambda"}
        assert r["lambda_hat"] == pytest.approx(r["corollary4_lambda"], rel=0.06)
    assert any("limit_aoa=0.2338101613" in c for c in payload["comments"])


def test_sweep_bad_dims_exits_2(capsys):
    code, _, _ = _run(capsys, ["sweep", "gaussian", "gaussian", "--dims", "5,2"])
    assert code == 2


@pytest.mark.parametrize("dims", ["2:5:lin", "2:5:logx", "a:5:lin3", "2:5.5:lin3"])
def test_malformed_dimension_range_names_the_grammar(capsys, dims):
    with pytest.raises(UsageError, match="a:b:linN or a:b:logN"):
        parse_dims(dims)
    code, out, err = _run(capsys, ["sweep", "gaussian", "gaussian", "--dims", dims])
    assert code == 2 and out == ""
    assert err == f"error: bad dimension range {dims!r}; want a:b:linN or a:b:logN\n"


def test_malformed_dimension_list_names_the_grammar():
    with pytest.raises(UsageError, match="want a,b,c or a:b:linN / a:b:logN"):
        parse_dims("2,x")


@pytest.mark.parametrize("argv", [
    ["curve", "gaussian", "gaussian", "--dim", "2", "--lambda-min", "0.5",
     "--lambda-max", "inf", "--points", "4"],
    ["optimize", "gaussian", "gaussian", "--dim", "2", "--lambda-min", "0.5",
     "--lambda-max", "inf"],
    ["curve", "gaussian", "gaussian", "--dim", "2", "--lambda-min", "nan",
     "--lambda-max", "2", "--points", "4"],
])
def test_non_finite_scale_bounds_are_usage_errors(capsys, argv):
    code, out, err = _run(capsys, argv)
    bad = "--lambda-max" if "inf" in argv else "--lambda-min"
    assert code == 2 and out == ""
    assert err.startswith(f"error: {bad} must be finite")


@pytest.mark.parametrize("command", ["optimize gaussian gaussian --dim 1",
                                     "asymptotic --mixing halfnormal"])
def test_readme_quick_start_shows_the_printed_rows(capsys, command):
    # The README shows a command's header and rows as "# " lines under it.
    lines = README.read_text(encoding="utf-8").splitlines()
    shown = []
    for line in lines[lines.index(f"rwmscale {command}") + 1:]:
        if not line.startswith("# "):
            break
        shown.append(line[2:])
    code, out, _ = _run(capsys, command.split())
    assert code == 0 and len(shown) == 2
    assert [ln for ln in out.splitlines() if not ln.startswith("#")] == shown


def test_asymptotic_point_mass(capsys):
    code, out, _ = _run(capsys, ["asymptotic", "--mixing", "point:1"])
    assert code == 0
    _, header, data = _parse_csv(out)
    assert header == ["mu_hat", "aoa"]
    assert float(data[0][0]) == pytest.approx(1.190601248, rel=1e-9)
    assert float(data[0][1]) == pytest.approx(0.2338101613, rel=1e-9)


def test_asymptotic_no_finite_optimum(capsys):
    code, out, _ = _run(capsys, ["asymptotic", "--mixing", "pareto:1.5"])
    assert code == 0
    comments, _, data = _parse_csv(out)
    assert data[0][0] == "inf"
    assert float(data[0][1]) == 0.0
    assert any("no finite optimum" in c for c in comments)

    code, out, _ = _run(capsys, ["asymptotic", "--mixing", "pareto:1.5",
                                 "--format", "json"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0]["mu_hat"] is None  # JSON has no inf
    assert any("no finite optimum" in c for c in payload["comments"])


def test_asymptotic_seed_seeds_the_from_target_draws(capsys):
    argv = ["asymptotic", "--mixing", "from-target:gaussian:50"]
    _, out_default, _ = _run(capsys, argv)
    code, out, _ = _run(capsys, argv + ["--seed", "5"])
    assert code == 0 and out != out_default
    opt = solve_aots(mixing_from_spec("from-target:gaussian:50", seed=5))
    _, _, data = _parse_csv(out)
    assert data == [[f"{opt.mu_hat:.10g}", f"{opt.aoa:.10g}"]]


@pytest.mark.parametrize("argv", [
    ["curve", "gaussian", "gaussian", "--dim", "2", "--lambda-min", "0.5",
     "--lambda-max", "2"],
    ["optimize", "gaussian", "gaussian", "--dim", "2"],
    ["sweep", "gaussian", "gaussian", "--dims", "2,4"],
    ["elliptical", "--rule", "iota", "--dims", "4,8,16"],
])
def test_seed_is_rejected_where_nothing_is_drawn(capsys, argv):
    code, out, err = _run(capsys, argv + ["--seed", "1"])
    assert code == 2 and out == "" and "--seed" in err


def test_asymptotic_bad_mixing_exits_2(capsys):
    code, _, _ = _run(capsys, ["asymptotic", "--mixing", "nonsense"])
    assert code == 2


@pytest.mark.parametrize("argv", [
    ["asymptotic", "--mixing", "atoms:1@1,inf@1"],
    ["asymptotic", "--mixing", "point:inf"],
    ["asymptotic", "--mixing", "point:nan"],
    ["asymptotic", "--mixing", "atoms:1@nan"],
    ["asymptotic", "--mixing", "pareto:inf"],
    ["elliptical", "--rule", "iota", "--dims", "8,32,128", "--mu-hat", "nan"],
    ["simulate", "gaussian", "gaussian", "--dim", "2", "--lambda", "0"],
    ["sweep", "gaussian", "gaussian", "--dims", "2.5,4"],
], ids=" ".join)
def test_non_finite_or_non_positive_input_exits_2(capsys, argv):
    # Record warnings rather than raise them, so that a NaN or inf that
    # reaches the numerics shows even where an error handler would absorb it.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(capsys, argv)
    assert [w.message for w in caught] == []
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_elliptical_satisfied_and_violated(capsys):
    base = ["elliptical", "--dims", "4,8,16", "--core", "radial-gaussian",
            "--proposal", "gaussian"]
    code, out, err = _run(capsys, base + ["--rule", "iota"])
    assert code == 0
    comments, header, data = _parse_csv(out)
    assert header == ["d", "eccentricity_ratio", "aos_lambda"]
    assert any("satisfied" in c for c in comments)
    assert err == ""
    ratios = [float(r[1]) for r in data]
    assert ratios[2] < ratios[0]

    code, out, err = _run(capsys, base + ["--rule", "spike:1"])
    assert code == 0
    comments, _, _ = _parse_csv(out)
    assert any("violated" in c for c in comments)
    assert "violated" in err


def test_elliptical_needs_three_dims(capsys):
    code, _, _ = _run(capsys, ["elliptical", "--rule", "iota", "--dims", "4,8"])
    assert code == 2


def test_elliptical_mu_hat_override(capsys):
    code, out, _ = _run(capsys, ["elliptical", "--rule", "iota",
                                 "--dims", "4,8,16", "--mu-hat", "1.19"])
    assert code == 0
    comments, _, data = _parse_csv(out)
    assert "mu_hat=1.19" in comments
    for d_text, _, lam_text in data:
        d = int(d_text)
        core = build_example_target("gaussian", d)
        spec = EllipticalSpec(d=d, eigenvalues=tuple(parse_eigenvalue_rule("iota", d)),
                              spherical_core=core, proposal_core=core)
        assert lam_text == f"{elliptical_aos(spec, 1.19):.10g}"


def test_elliptical_core_without_shell_constant_exits_2(tmp_path, capsys):
    r = np.linspace(1e-3, 30.0, 600)
    path = tmp_path / "halfnormal.tsv"
    path.write_text("\n".join(f"{a} {-0.5 * a * a}" for a in r))
    code, out, err = _run(capsys, ["elliptical", "--rule", "iota",
                                   "--dims", "4,8,16", "--core", f"custom:{path}",
                                   "--mu-hat", "1.19"])
    assert code == 2 and out == ""
    assert err.startswith("error:") and "shell constants" in err


@pytest.mark.parametrize("argv", [
    ["elliptical", "--rule", "const:inf", "--dims", "8,32,128"],
    ["simulate", "gaussian", "gaussian", "--dim", "3", "--lambda", "1",
     "--iters", "2000", "--eigenvalues", "spike:inf"],
])
def test_infinite_eigenvalues_exit_2(capsys, argv):
    code, out, err = _run(capsys, argv)
    assert code == 2 and out == ""
    assert err.startswith("error:") and "finite and positive" in err


def test_simulate_json_record_and_determinism(capsys):
    argv = ["simulate", "gaussian", "gaussian", "--dim", "2",
            "--lambda", "1.0", "--iters", "2000", "--seed", "7"]
    code, out1, _ = _run(capsys, argv)
    assert code == 0
    record = json.loads(out1)
    assert list(record) == ["target", "proposal", "d", "lambda", "n_iters",
                            "seed", "accept_rate", "accept_se", "esjd",
                            "esjd_se"]
    assert 0.0 <= record["accept_rate"] <= 1.0
    code, out2, _ = _run(capsys, argv)
    assert out2 == out1

    code, out_csv, _ = _run(capsys, argv + ["--format", "csv"])
    assert code == 0
    _, header, data = _parse_csv(out_csv)
    assert header == list(record)
    for col, text in zip(header, data[0]):
        if col in ("target", "proposal"):
            assert text == record[col]
        else:
            assert float(text) == record[col]


def test_simulate_elliptical_target(capsys):
    code, out, _ = _run(capsys, ["simulate", "gaussian", "gaussian",
                                 "--dim", "2", "--lambda", "0.8",
                                 "--iters", "1000", "--seed", "1",
                                 "--eigenvalues", "const:2"])
    assert code == 0
    record = json.loads(out)
    assert record["target"].startswith("elliptical(")


def test_json_integer_fields_are_integers(capsys):
    # 1 == 1.0 in Python, so compare types: "d": 2 must not print as 2.0.
    _, out, _ = _run(capsys, ["simulate", "gaussian", "gaussian", "--dim", "2",
                              "--lambda", "1.0", "--iters", "2000", "--seed", "7"])
    record = json.loads(out)
    assert [type(record[k]) for k in ("d", "n_iters", "seed")] == [int] * 3
    assert type(record["lambda"]) is float
    _, out, _ = _run(capsys, ["elliptical", "--rule", "iota", "--dims", "8,32,128",
                              "--format", "json"])
    rows = json.loads(out)["rows"]
    assert [row["d"] for row in rows] == [8, 32, 128]
    assert {type(row["d"]) for row in rows} == {int}
    _, out, _ = _run(capsys, ["optimize", "gaussian", "gaussian", "--dim", "1",
                              "--format", "json"])
    row = json.loads(out)["rows"][0]
    assert type(row["n_local_maxima"]) is int
    assert type(row["lambda_hat"]) is float


def test_out_file_and_gnuplot_hint(tmp_path, capsys):
    path = tmp_path / "curve.csv"
    code, out, err = _run(capsys, ["curve", "gaussian", "gaussian",
                                   "--dim", "2", "--lambda-min", "0.5",
                                   "--lambda-max", "2", "--points", "5",
                                   "--out", str(path), "--gnuplot-hint"])
    assert code == 0
    assert out == ""
    assert "gnuplot" in err and str(path) in err
    text = path.read_text()
    assert text.startswith("# target=gaussian")
    assert "lambda,ear,esjd" in text


def test_out_unwritable_exits_2(tmp_path, capsys):
    bad = tmp_path / "missing-dir" / "x.csv"
    code, _, err = _run(capsys, ["curve", "gaussian", "gaussian", "--dim", "2",
                                 "--lambda-min", "0.5", "--lambda-max", "2",
                                 "--points", "5", "--out", str(bad)])
    assert code == 2 and "error" in err

"""Spec-file parsing, report serialization, CLI subcommands and exit codes."""

import json
import math
import os

import numpy as np
import pytest
from scipy.linalg import expm

from volcalc.cli import main
from volcalc.report import ReportTable
from volcalc.semigroup import CONTOUR_TOL, CONTOUR_VERTEX, default_quadrature, discretize
from volcalc.specfile import (
    SpecFileError,
    corpus_dir,
    corpus_names,
    load_corpus,
    load_operator_spec,
)
from volcalc.validate import run_acceptance

FLAT_1D = os.path.join(corpus_dir(), "flat_laplacian_1d.json")
FLAT_2D = os.path.join(corpus_dir(), "flat_laplacian_2d.json")
COSINE = os.path.join(corpus_dir(), "cosine_potential.json")
METRIC_1D = os.path.join(corpus_dir(), "perturbed_metric.json")


# ---------------------------------------------------------------------------
# spec files
# ---------------------------------------------------------------------------


def test_bundled_corpus_loads():
    corpus = load_corpus()
    assert set(corpus_names()) == {
        "cosine_potential", "drift_shift", "flat_laplacian_1d",
        "flat_laplacian_2d", "perturbed_metric",
    }
    for name, op in corpus.items():
        assert op.name == name
        assert op.dim in (1, 2)


def test_specfile_missing_keys():
    with pytest.raises(SpecFileError, match="dim"):
        load_operator_spec({"g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0}]})
    with pytest.raises(SpecFileError, match="'g'"):
        load_operator_spec({"dim": 1})


def test_specfile_reality_enforced():
    doc = {"dim": 1,
           "g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0}],
           "V": [{"freq": [1], "re": 1.0}]}  # e^{ix} alone is not real
    with pytest.raises(SpecFileError, match="real"):
        load_operator_spec(doc)


def test_specfile_non_real_metric_names_key_g():
    doc = {"dim": 1,
           "g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0},
                 {"i": 0, "j": 0, "freq": [1], "re": 0.3}]}  # 1 + 0.3 e^{ix}
    with pytest.raises(SpecFileError, match="^key 'g': metric coefficients must be real"):
        load_operator_spec(doc)


def test_specfile_metric_symmetry_and_positivity():
    doc = {"dim": 2,
           "g": [{"i": 0, "j": 0, "freq": [0, 0], "re": 1.0},
                 {"i": 1, "j": 1, "freq": [0, 0], "re": 1.0},
                 {"i": 0, "j": 1, "freq": [0, 0], "re": 0.3},
                 {"i": 1, "j": 0, "freq": [0, 0], "re": 0.1}]}
    with pytest.raises(SpecFileError, match="differ"):
        load_operator_spec(doc)
    doc = {"dim": 1, "g": [{"i": 0, "j": 0, "freq": [0], "re": -1.0}]}
    with pytest.raises(SpecFileError, match="'g'"):
        load_operator_spec(doc)


def test_specfile_mirror_fills_triangle():
    doc = {"dim": 2,
           "g": [{"i": 0, "j": 0, "freq": [0, 0], "re": 2.0},
                 {"i": 1, "j": 1, "freq": [0, 0], "re": 1.0},
                 {"i": 0, "j": 1, "freq": [0, 0], "re": 0.25}]}
    op = load_operator_spec(doc)
    m = op.metric.matrix_at((0.0, 0.0))
    assert m[0, 1] == m[1, 0] == 0.25


def _cosine_spec(**keys):
    """V = cos x on the flat line, with `keys` replacing top-level keys."""
    doc = {"dim": 1, "g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0}],
           "V": [{"freq": [1], "re": 0.5}, {"freq": [-1], "re": 0.5}]}
    return {**doc, **keys}


@pytest.mark.parametrize("keys, named", [
    ({"V": [{"freq": [1.5], "re": 0.5}, {"freq": [-1.5], "re": 0.5}]}, "'V'"),
    ({"dim": 1.9}, "'dim'"),
    ({"dim": float("inf")}, "'dim'"),
    ({"g": [{"i": 0.7, "j": 0, "freq": [0], "re": 1.0}]}, "'g'"),
    ({"g": [{"i": 0, "j": 0, "freq": ["0"], "re": 1.0}]}, "'g[0][0]'"),
    # JSON booleans: True == 1, so the integrality checks alone pass them
    ({"dim": True}, "'dim'"),
    ({"g": [{"i": False, "j": 0, "freq": [0], "re": 1.0}]}, "'g'"),
    ({"g": [{"i": 0, "j": False, "freq": [0], "re": 1.0}]}, "'g'"),
    ({"V": [{"freq": [True], "re": 0.5}, {"freq": [-1], "re": 0.5}]}, "'V'"),
    ({"V": [{"freq": [1], "re": True}, {"freq": [-1], "re": 1.0}]}, "'V'"),
    ({"V": [{"freq": [0], "re": 1.0, "im": False}]}, "'V'"),
], ids=["freq_1.5", "dim_1.9", "dim_inf", "index_0.7", "freq_string", "dim_true",
        "i_false", "j_false", "freq_true", "re_true", "im_false"])
def test_specfile_refuses_non_integral_numbers(keys, named, tmp_path, capsys):
    # int() would truncate 1.5 to 1 and parse "0": the value is refused instead
    path = tmp_path / "op.json"
    path.write_text(json.dumps(_cosine_spec(**keys)))
    with pytest.raises(SpecFileError) as err:
        load_operator_spec(str(path))
    assert named in str(err.value)
    assert main(["parametrix", "--op", str(path)]) == 2
    assert named in capsys.readouterr().err


def test_specfile_accepts_integral_floats():
    op = load_operator_spec(_cosine_spec(
        dim=1.0, g=[{"i": 0.0, "j": 0, "freq": [0.0], "re": 1.0}],
        V=[{"freq": [1.0], "re": 0.5}, {"freq": [-1], "re": 0.5}]))
    ref = load_operator_spec(_cosine_spec())
    assert op.dim == 1 and op.metric == ref.metric and op.potential == ref.potential


# ---------------------------------------------------------------------------
# report tables
# ---------------------------------------------------------------------------


def test_report_pass_flag_follows_tolerance():
    t = ReportTable("t")
    row = t.add("ok", error=1e-9, tolerance=1e-8)
    assert row.passed
    row = t.add("bad", error=2e-8, tolerance=1e-8)
    assert not row.passed
    assert not t.all_passed


def test_report_serialization_fixed_format(tmp_path):
    t = ReportTable("demo")
    t.add("quantity a", symbolic=0.28209479177387814, numeric=0.2820943307,
          error=4.6e-07, tolerance=1e-3)
    json_text = t.to_json()
    assert '"0.28209479177387814"' not in json_text  # floats are bare numbers
    assert "0.28209479177387814" in json_text
    parsed = json.loads(json_text)
    assert parsed["rows"][0]["pass"] is True
    csv_text = t.to_csv()
    assert csv_text.splitlines()[0] == "quantity,symbolic,numeric,error,tolerance,pass"


def test_report_json_non_finite_round_trip():
    t = ReportTable("non-finite")
    t.add("ratio", numeric=math.inf, error=math.inf, tolerance=1e-5)
    t.add("defect", symbolic=-math.inf, numeric=math.nan)
    t.add("finite", numeric=0.5, error=-0.25, tolerance=0.0)
    rows = json.loads(t.to_json())["rows"]
    assert [r["numeric"] for r in rows] == ["inf", "nan", 0.5]
    assert rows[0]["error"] == "inf" and rows[1]["symbolic"] == "-inf"
    assert rows[2]["error"] == -0.25 and not rows[0]["pass"]


def test_cli_out_json_escapes_control_characters(tmp_path, capsys):
    doc = {"dim": 1, "name": "tab\there", "g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0}]}
    spec = tmp_path / "op.json"
    spec.write_text(json.dumps(doc))
    out = tmp_path / "out.json"
    assert main(["parametrix", "--op", str(spec), "--depth", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["title"] == "parametrix of d/dt + tab\there, depth 2"


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------


def test_cli_missing_file_exit_2(capsys):
    code = main(["parametrix", "--op", "does_not_exist.json"])
    assert code == 2
    assert "cannot read operator spec" in capsys.readouterr().err


def test_cli_unknown_subcommand_exit_2(capsys):
    code = main(["frobnicate"])
    assert code == 2


def test_cli_parametrix_runs(capsys):
    code = main(["parametrix", "--op", FLAT_1D, "--depth", "3"])
    assert code == 0
    out = capsys.readouterr().out
    assert "degree -2" in out


def test_cli_heat_coeffs_flat(capsys):
    code = main(["heat-coeffs", "--op", FLAT_1D, "--J", "4", "--validate"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.282095" in out


def test_cli_semigroup_identity(capsys):
    code = main(["semigroup", "--op", FLAT_1D, "--modes", "16",
                 "--t", "0.3", "0.7", "1.0", "--check", "semigroup"])
    assert code == 0
    assert "PASS" in capsys.readouterr().out


def test_cli_semigroup_bad_times(capsys):
    code = main(["semigroup", "--op", FLAT_1D, "--t", "0.3", "0.5", "1.0",
                 "--check", "semigroup"])
    assert code == 2


def test_cli_causality_grid_parse(capsys):
    code = main(["causality", "--op", FLAT_1D, "--depth", "2",
                 "--grid", "4096,200"])
    assert code == 0
    code = main(["causality", "--op", FLAT_1D, "--grid", "nonsense"])
    assert code == 2


def test_cli_deform(capsys):
    code = main(["deform", "--op", COSINE, "--lambda", "2", "--hbar", "1", "0"])
    assert code == 0


@pytest.mark.parametrize("name, lam, code", [
    ("drift_shift", "0.3", 0),
    ("flat_laplacian_2d", "0.7", 0),
    ("drift_shift", "1e200", 2),
    ("drift_shift", "1e-200", 2),
], ids=["rounding_1d", "rounding_2d", "power_overflows", "power_underflows"])
def test_cli_deform_lambda(name, lam, code, capsys):
    op = os.path.join(corpus_dir(), name + ".json")
    assert main(["deform", "--op", op, "--lambda", lam]) == code
    if code == 2:
        assert "normal float" in capsys.readouterr().err


def test_cli_validate_subset_and_determinism(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["validate", "--only", "10", "11", "--out", str(out1)]) == 0
    assert main(["validate", "--only", "10", "11", "--out", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    text = capsys.readouterr().out
    assert "PASS criterion 10" in text
    out3 = tmp_path / "c.csv"
    assert main(["validate", "--only", "11", "--out", str(out3)]) == 0
    assert out3.read_text().startswith("quantity,")


@pytest.mark.parametrize("doc", [
    {"dim": 1, "g": [{"i": 0, "j": 0, "freq": [0], "re": float("nan")}]},
    {"dim": 1, "g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0}],
     "V": [{"freq": [0], "re": float("inf")}]},
], ids=["nan_metric", "infinite_potential"])
def test_cli_non_finite_spec_exit_2(doc, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))  # writes the bare NaN / Infinity tokens
    assert main(["heat-coeffs", "--op", str(path), "--J", "2"]) == 2
    assert "non-finite" in capsys.readouterr().err


def test_cli_validate_out_byte_identical(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    main(["validate", "--only", "1", "2", "--out", str(out1)])
    main(["validate", "--only", "1", "2", "--out", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


@pytest.mark.parametrize("argv", [
    ["heat-coeffs", "--J", "9"],
    ["heat-coeffs", "--J", "-1"],
    ["semigroup", "--modes", "3"],
    ["parametrix", "--depth", "-1"],
    ["deform", "--hbar", "1.5"],
    ["semigroup", "--t", "0"],
    ["semigroup", "--modes", "8", "--t", "inf"],
    # e^t * eps reaches CONTOUR_TOL at t = 17.62 (the error is 9e-6 at t = 30
    # on perturbed_metric), and 1 at t = 36.04
    ["semigroup", "--modes", "8", "--t", "25"],
    ["semigroup", "--modes", "8", "--t", "40"],
    ["semigroup", "--modes", "8", "--t", "800"],
    # the reach 40/t overflows
    ["semigroup", "--modes", "8", "--t", "1e-320"],
    ["deform", "--lambda", "nan"],
    ["causality", "--grid", "4096,inf"],
    ["causality", "--grid", "4096,nan"],
    ["causality", "--grid", "4096,1e300"],
    ["causality", "--grid", "4096,1e-310"],
    ["causality", "--depth", "2", "--grid", "4096,1e60"],
], ids=["J_above_8", "J_negative", "modes_below_4", "depth_negative", "hbar_above_1",
        "t_zero", "t_infinite", "t_past_contour_tolerance", "t_past_contour_bound",
        "t_far_past_contour_bound", "t_reach_overflows",
        "lambda_nan", "tau_max_infinite", "tau_max_nan", "tau_max_huge",
        "tau_step_subnormal", "tau_grid_too_coarse"])
def test_cli_out_of_range_argument_exit_2(argv, capsys):
    assert main(argv + ["--op", FLAT_1D]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv, message", [
    (["semigroup", "--check", "semigroup", "--t", "0.3", "0.7", "1.1"],
     "error: --check semigroup needs t1 t2 t3 with t1 + t2 = t3\n"),
    (["causality", "--grid", "4096"],
     "error: bad --grid '4096'; expected NTAU,TAUMAX\n"),
    (["causality", "--grid", "4096,1e-310"],
     "error: tau step 2*tau_max/n_tau = 4.88e-314 is not a normal float\n"),
    (["causality", "--grid", "32,200"],
     "error: need 64 <= n_tau <= 2^20 and a finite tau_max > 0\n"),
], ids=["semigroup_times", "grid_format", "grid_subnormal_step", "grid_too_few_samples"])
def test_cli_input_error_message_exit_2(argv, message, capsys):
    assert main(argv + ["--op", FLAT_1D]) == 2
    captured = capsys.readouterr()
    assert captured.err == message and captured.out == ""


def _aliased_metric(freq, amplitude):
    # g11 = 1 + 2 Re(amplitude e^{i freq x})
    return {"name": f"aliased_{freq}", "dim": 1,
            "g": [{"i": 0, "j": 0, "freq": [0], "re": 1.0},
                  {"i": 0, "j": 0, "freq": [freq], "re": amplitude.real, "im": amplitude.imag},
                  {"i": 0, "j": 0, "freq": [-freq], "re": amplitude.real,
                   "im": -amplitude.imag}]}


@pytest.mark.parametrize("doc, message", [
    # 1 + 1.05 sin 64x reads min_eig 1.0 on a 64-point grid
    (_aliased_metric(64, -0.525j),
     "error: key 'g': metric frequency 64 needs a 512-point grid; at most 128 resolve it\n"),
    # 1 + 1.05 cos(16x + pi/4) reads 0.258 on 64 points, -0.050 on 128
    (_aliased_metric(16, 0.525 * np.exp(1j * np.pi / 4)),
     "error: key 'g': min eigenvalue -5.000e-02 below floor 1.0e-08\n"),
], ids=["sin_64x", "cos_16x"])
def test_cli_metric_negative_between_grid_points_exit_2(doc, message, tmp_path, capsys):
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    for argv in (["heat-coeffs", "--J", "2"], ["parametrix", "--depth", "2"]):
        assert main(argv + ["--op", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.err == message and captured.out == ""


def test_cli_parametrix_depth_that_overflows_exit_2(tmp_path, capsys):
    # V = 2e200 cos x: the depth-4 piece would carry V^2 = 4e400
    doc = {"dim": 1, "g": [{"i": 0, "j": 0, "freq": [0], "re": 1}],
           "V": [{"freq": [1], "re": 1e200}, {"freq": [-1], "re": 1e200}]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    assert main(["parametrix", "--op", str(path), "--depth", "3"]) == 0
    capsys.readouterr()
    for command in ("parametrix", "causality"):
        assert main([command, "--op", str(path), "--depth", "4"]) == 2
        captured = capsys.readouterr()
        assert captured.err == "error: parametrix depth 4: its coefficients overflow floats\n"


def _report(path):
    return {r["quantity"]: r for r in json.loads(path.read_text())["rows"]}


def test_cli_semigroup_contraction_rows(tmp_path, capsys):
    # ||E(t)||_2 of the contour heat against the dense exponential
    path = tmp_path / "contraction.json"
    assert main(["semigroup", "--op", METRIC_1D, "--modes", "8", "--check", "contraction",
                 "--out", str(path)]) == 0
    rows = _report(path)
    Q = discretize(load_operator_spec(METRIC_1D), 8).matrix
    for t in (0.3, 0.7, 1.0):
        row = rows[f"||E({t})||_2"]
        assert abs(row["numeric"] - np.linalg.norm(expm(-t * Q), 2)) <= CONTOUR_TOL
        assert row["error"] == row["numeric"] - 1.0 and row["pass"] is True


def test_cli_semigroup_hy_rows(tmp_path, capsys):
    # flat Laplacian, eigenvalues k^2: exp(-Q_lam) has eigenvalues
    # exp(-lam k^2 / (lam + k^2)), so each error is a maximum over k
    path = tmp_path / "hy.json"
    assert main(["semigroup", "--op", FLAT_1D, "--modes", "8", "--check", "hy",
                 "--out", str(path)]) == 0
    k2 = np.arange(-8, 9) ** 2.0
    errs = [np.max(np.abs(np.exp(-lam * k2 / (lam + k2)) - np.exp(-k2)))
            for lam in (10.0, 1e2, 1e3, 1e4)]
    rows = _report(path)
    assert rows["approximant errors over lam = 10..1e4"]["numeric"] == \
        "; ".join(f"{e:.3e}" for e in errs)
    last = rows["approximant error at lam = 1e4"]
    assert abs(last["numeric"] - errs[-1]) <= 1e-12 and last["pass"] is True


def test_cli_semigroup_resolvent_row(tmp_path, capsys):
    # flat Laplacian: ||(Q - lam)^-1||_2 = 1 / min_k |k^2 - lam|
    path = tmp_path / "resolvent.json"
    assert main(["semigroup", "--op", FLAT_1D, "--modes", "8", "--check", "resolvent",
                 "--out", str(path)]) == 0
    s = np.linspace(0.3, 30.0, 25)
    lams = CONTOUR_VERTEX + np.concatenate([s * (1 + 1j), s * (1 - 1j)])
    k2 = np.arange(-8, 9) ** 2.0
    expect = max((1 + abs(lam.imag)) / np.min(np.abs(k2 - lam)) for lam in lams)
    row = _report(path)["max ||(Q - lam)^-1|| (1 + |Im lam|) on the contour"]
    assert abs(row["numeric"] - expect) <= 1e-14 * expect and row["pass"] is True


def test_cli_contraction_of_negative_operator_exit_2(tmp_path, capsys):
    # V = -3 + cos x: the Hermitian part has eigenvalue -3.5
    doc = {"dim": 1, "g": [{"i": 0, "j": 0, "freq": [0], "re": 1}],
           "V": [{"freq": [0], "re": -3}, {"freq": [1], "re": 0.5},
                 {"freq": [-1], "re": 0.5}]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    assert main(["semigroup", "--op", str(path), "--check", "contraction"]) == 2
    assert "nonnegative" in capsys.readouterr().err


def test_cli_semigroup_spectrum_outside_the_contour_exit_2(tmp_path, capsys):
    # V = -3 cos x: least eigenvalue -1.84, outside the wedge the contour
    # encloses, where the semigroup row used to pass on a wrong heat matrix
    doc = {"dim": 1, "g": [{"i": 0, "j": 0, "freq": [0], "re": 1}],
           "V": [{"freq": [1], "re": -1.5}, {"freq": [-1], "re": -1.5}]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    for check in ("semigroup", "reference"):
        argv = ["semigroup", "--op", str(path), "--modes", "16",
                "--t", "0.3", "0.7", "1.0", "--check", check]
        assert main(argv) == 2
        assert "outside the wedge" in capsys.readouterr().err


@pytest.mark.parametrize("check", ["semigroup", "contraction", "hy", "resolvent",
                                   "reference"])
def test_cli_semigroup_above_dense_mode_limit_exit_2(check, tmp_path, capsys):
    # 81^2 = 6561 modes: the constant operator is stored as its diagonal, but
    # every check needs a dense matrix; the variable one is refused at once
    cosine_2d = {"dim": 2, "g": [{"i": 0, "j": 0, "freq": [0, 0], "re": 1},
                                 {"i": 1, "j": 1, "freq": [0, 0], "re": 1}],
                 "V": [{"freq": [1, 0], "re": 0.5}, {"freq": [-1, 0], "re": 0.5}]}
    path = tmp_path / "op.json"
    path.write_text(json.dumps(cosine_2d))
    for op in (FLAT_2D, str(path)):
        assert main(["semigroup", "--op", op, "--modes", "40", "--check", check]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: 6561 Galerkin modes need a dense") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["parametrix", "--op", FLAT_1D, "--depth", "2"],
    ["validate", "--only", "10"],
], ids=["parametrix", "validate"])
def test_cli_unwritable_out_exit_2(argv, tmp_path, capsys):
    out = tmp_path / "missing" / "x.json"
    assert main(argv + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith(f"error: cannot write {out}")
    assert "wrote" not in captured.out and not out.exists()


def test_cli_validate_malformed_corpus_exit_2(tmp_path, capsys):
    (tmp_path / "bad.json").write_text(json.dumps({"dim": 3}))
    assert main(["validate", "--corpus", str(tmp_path), "--only", "11"]) == 2
    assert "'dim'" in capsys.readouterr().err


def test_cli_validate_missing_corpus_exit_2(tmp_path, capsys):
    missing = tmp_path / "no_such_dir"
    assert main(["validate", "--corpus", str(missing), "--only", "11"]) == 2
    assert capsys.readouterr().err.startswith("error: cannot read corpus directory")


@pytest.mark.parametrize("argv", [
    ["parametrix"],
    ["heat-coeffs"],
    ["causality", "--grid", "4096,200"],
    ["deform"],
    ["semigroup", "--modes", "8"],
], ids=lambda argv: argv[0])
def test_cli_out_byte_identical(argv, tmp_path, capsys):
    runs = []
    for name in ("a.json", "b.json"):
        path = tmp_path / name
        assert main(argv + ["--op", COSINE, "--out", str(path)]) == 0
        runs.append(path.read_bytes())
    assert runs[0] == runs[1]


def test_cli_heat_coeffs_fit_diagnostic_rows(tmp_path, capsys):
    path = tmp_path / "heat.json"
    assert main(["heat-coeffs", "--op", FLAT_1D, "--J", "2", "--validate",
                 "--out", str(path)]) == 0
    rows = {r["quantity"]: r for r in json.loads(path.read_text())["rows"]}
    for name in ("fit residual", "fit design condition"):
        assert rows[name]["pass"] is True
        assert rows[name]["tolerance"] is None
        assert rows[name]["numeric"] >= 0.0


def test_cli_heat_coeffs_projection_rows(tmp_path, capsys):
    # variable metric: two diagnostic rows bound the grid projection
    path = tmp_path / "heat.json"
    assert main(["heat-coeffs", "--op", METRIC_1D, "--J", "4", "--out", str(path)]) == 0
    rows = {r["quantity"]: r for r in json.loads(path.read_text())["rows"]}
    for name in ("grid tail max|c_k| at max|k_i| >= 48 (128 points)",
                 "grid 64 vs 128 points max coefficient difference"):
        assert rows[name]["pass"] is True
        assert rows[name]["tolerance"] is None
        assert 0.0 <= rows[name]["numeric"] <= 1e-13
    # constant metric: q_j are exact, so no grid rows
    path = tmp_path / "flat.json"
    assert main(["heat-coeffs", "--op", COSINE, "--J", "4", "--out", str(path)]) == 0
    assert not any(r["quantity"].startswith("grid")
                   for r in json.loads(path.read_text())["rows"])


def test_cli_semigroup_contour_node_rows(tmp_path, capsys):
    path = tmp_path / "semigroup.json"
    assert main(["semigroup", "--op", FLAT_1D, "--modes", "8", "--t", "0.3", "1.0",
                 "--out", str(path)]) == 0
    rows = {r["quantity"]: r for r in json.loads(path.read_text())["rows"]}
    for t in (0.3, 1.0):
        row = rows[f"contour nodes per ray t={t}"]
        assert row["numeric"] == len(default_quadrature(t).nodes(t)[0])
        assert row["pass"] is True and row["tolerance"] is None


def test_cli_validate_fit_diagnostic_rows(tmp_path, capsys):
    path = tmp_path / "validate.json"
    assert main(["validate", "--only", "1", "--out", str(path)]) == 0
    rows = {r["quantity"]: r for r in json.loads(path.read_text())["rows"]}
    for name in ("fit residual", "fit design condition"):
        assert rows[name]["pass"] is True
        assert rows[name]["tolerance"] is None
        assert rows[name]["numeric"] >= 0.0


@pytest.mark.parametrize("name", corpus_names())
def test_cli_heat_coeffs_validate_passes_on_corpus(name, capsys):
    path = os.path.join(corpus_dir(), f"{name}.json")
    assert main(["heat-coeffs", "--op", path, "--J", "4", "--validate"]) == 0


def _rows(path):
    return {r["quantity"]: r["numeric"] for r in json.loads(path.read_text())["rows"]}


def test_cli_semigroup_contour_matches_criterion_4(tmp_path, capsys):
    path = tmp_path / "semigroup.json"
    assert main(["semigroup", "--op", FLAT_1D, "--modes", "16", "--t", "0.3", "0.7", "1.0",
                 "--out", str(path)]) == 0
    cli = {q: v for q, v in _rows(path).items() if q.startswith("contour nodes")}
    table, _ = run_acceptance(numbers=[4])
    crit = {r.quantity: r.numeric for r in table.rows if r.quantity.startswith("contour nodes")}
    assert len(cli) == 3 and cli == crit


def test_cli_causality_matches_criterion_6(tmp_path, capsys):
    table, _ = run_acceptance(numbers=[6])
    crit = {r.quantity: r.numeric for r in table.rows}
    for name in corpus_names():
        path = tmp_path / f"{name}.json"
        assert main(["causality", "--op", os.path.join(corpus_dir(), f"{name}.json"),
                     "--depth", "4", "--out", str(path)]) == 0
        assert max(_rows(path).values()) == crit[f"max piece ratio {name}"]

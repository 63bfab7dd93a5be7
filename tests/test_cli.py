"""Spec-file parsing, report serialization, CLI subcommands and exit codes."""

import json
import os

import pytest

from volcalc.cli import main
from volcalc.report import ReportTable
from volcalc.semigroup import default_quadrature
from volcalc.specfile import (
    SpecFileError,
    corpus_dir,
    corpus_names,
    load_corpus,
    load_operator_spec,
)
from volcalc.validate import run_acceptance

FLAT_1D = os.path.join(corpus_dir(), "flat_laplacian_1d.json")
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
    ["deform", "--lambda", "nan"],
    ["causality", "--grid", "4096,inf"],
    ["causality", "--grid", "4096,nan"],
], ids=["J_above_8", "J_negative", "modes_below_4", "depth_negative", "hbar_above_1",
        "t_zero", "t_infinite", "lambda_nan", "tau_max_infinite", "tau_max_nan"])
def test_cli_out_of_range_argument_exit_2(argv, capsys):
    assert main(argv + ["--op", FLAT_1D]) == 2
    assert capsys.readouterr().err.startswith("error: ")


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

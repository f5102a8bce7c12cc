"""Tests for the command-line front end: tables, figures, manifests,
determinism and the exit-code contract."""

import json
import math

import pytest

from ringosc import verification
from ringosc.cli import FIGURES, FigureDataset, RunManifest, main, render_csv, run
from ringosc.errors import UsageError


def read_rows(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [line.split(",") for line in lines[1:]]
    return header, rows


# ---------------------------------------------------------------- spectrum


def test_spectrum_oscillator_ladder(tmp_path):
    out = tmp_path / "table.csv"
    rc = main(
        ["spectrum", "--a2", "0", "--a3", "0", "--n-max", "2", "--ell-max", "2", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_rows(out)
    e_col = header.index("E_over_xi")
    energies = sorted({float(r[e_col]) for r in rows})
    assert energies == [3.0, 5.0, 7.0, 9.0, 11.0, 13.0, 15.0]


def test_spectrum_default_ground_row_lambda(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["spectrum", "--n-max", "1", "--ell-max", "1", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    first = dict(zip(header, rows[0]))
    assert first["s"] == "0" and first["m"] == "0"
    assert float(first["Lambda"]) == 1.0
    assert float(first["L"]) == 0.5


def test_spectrum_single_ground_row(tmp_path):
    out = tmp_path / "table.csv"
    assert main(["spectrum", "--n-max", "0", "--ell-max", "0", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert len(rows) == 1
    assert float(rows[0][header.index("E_over_xi")]) == 3.0
    assert rows[0][header.index("degeneracy")] == "1"


def test_spectrum_case_table(tmp_path):
    out = tmp_path / "osc.csv"
    rc = main(["spectrum", "--case", "oscillator", "--n-max", "0", "--ell-max", "0", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    assert float(rows[0][header.index("E_over_xi")]) == 5.0  # ell = [Lambda + s] = 1


# --------------------------------------------------------------- partition


def test_partition_1d_method_columns(tmp_path):
    out = tmp_path / "z.csv"
    rc = main(
        [
            "partition",
            "--mode",
            "1d",
            "--alpha",
            "1",
            "--methods",
            "direct,em,em-paper,exact",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header, rows = read_rows(out)
    row = dict(zip(header, rows[0]))
    assert float(row["Z_exact"]) == pytest.approx(1.5819767068693265, rel=1e-15)
    assert float(row["Z_em"]) == pytest.approx(1.5819444444444444, rel=1e-15)
    assert float(row["Z_em_paper"]) == pytest.approx(1.5831481481481481, rel=1e-15)
    assert "rd_direct_exact" in header


def test_partition_3d_em_row(tmp_path):
    out = tmp_path / "z3.csv"
    assert main(["partition", "--alpha", "1", "--methods", "em", "--out", str(out)]) == 0
    header, rows = read_rows(out)
    assert header == ["alpha_bar", "Z_em"]  # single method: no diff columns
    assert len(rows) == 1
    assert float(rows[0][1]) == pytest.approx(79.0 / 45.0, rel=1e-15)


def test_partition_requires_alpha():
    rc = main(["partition", "--alpha", "", "--methods", "direct"])
    assert rc == 2


# ------------------------------------------------------------------- sweep


def test_sweep_figure_f4(tmp_path, capsys):
    out = tmp_path / "f4.csv"
    rc = main(
        ["sweep", "--figure", "f4", "--alpha-min", "0.5", "--alpha-max", "100", "--points", "500", "--out", str(out)]
    )
    assert rc == 0
    dataset = FigureDataset.from_csv("F4_specific_heat", out.read_text())
    assert dataset.columns == ("alpha_bar", "C_bar")
    assert abs(dataset.rows[-1][1] - 3.0) / 3.0 < 1e-2
    err = capsys.readouterr().err
    assert "no first-order transition signature" in err


def test_sweep_figure_f5_one_dimensional_panel(tmp_path):
    out = tmp_path / "f5.csv"
    rc = main(
        ["sweep", "--figure", "f5", "--alpha-min", "0.5", "--alpha-max", "100", "--points", "300", "--out", str(out)]
    )
    assert rc == 0
    header, rows = read_rows(out)
    assert header == ["alpha_bar", "F_bar", "U_bar", "S_bar", "C_bar"]
    assert abs(float(rows[-1][4]) - 1.0) < 1e-2  # 1d specific-heat limit


def test_sweep_coarse_lin_grid_reports_no_jump(tmp_path, capsys):
    # the first step of this grid has one neighbour while C saturates; judged
    # against it alone, its ratio read 15.8 and the smooth curve was flagged
    out = tmp_path / "f1.csv"
    rc = main(
        ["sweep", "--figure", "f1", "--alpha-min", "0.6519616701961058", "--alpha-max", "177.95875539849249",
         "--points", "179", "--spacing", "lin", "--out", str(out)]
    )
    assert rc == 0
    err = capsys.readouterr().err
    assert "no first-order transition signature" in err
    assert "max jump ratio 0.998 " in err


def test_sweep_single_point_skips_summary(tmp_path, capsys):
    out = tmp_path / "one.csv"
    rc = main(["sweep", "--alpha-min", "2", "--alpha-max", "2", "--points", "1", "--out", str(out)])
    assert rc == 0
    header, rows = read_rows(out)
    assert len(rows) == 1
    assert "skipped" in capsys.readouterr().err


# ----------------------------------------------------- datasets, manifests


def test_figure_dataset_validation():
    with pytest.raises(UsageError):
        FigureDataset("F4_specific_heat", ("alpha_bar", "F_bar"), ())
    with pytest.raises(UsageError):
        FigureDataset("F4_specific_heat", ("alpha_bar", "C_bar"), ((2.0, 1.0), (1.0, 1.0)))
    with pytest.raises(UsageError):
        FigureDataset("F9", ("alpha_bar", "C_bar"), ())


def test_csv_round_trip_exact():
    rows = tuple((float(a), math.sin(a) / 7.0) for a in range(1, 6))
    dataset = FigureDataset("F1_free_energy", FIGURES["f1"][1], rows)
    again = FigureDataset.from_csv("F1_free_energy", dataset.to_csv())
    assert again == dataset


def test_manifest_round_trip():
    manifest = RunManifest(
        subcommand="sweep",
        alpha_min=0.5,
        alpha_max=math.pi * 31.0,
        points=123,
        figure="f2",
        alphas=(1.0, 2.5),
    )
    assert RunManifest.from_dict(manifest.to_dict()) == manifest


def test_manifest_rejects_unknown_fields():
    with pytest.raises(UsageError):
        RunManifest.from_dict({"subcommand": "sweep", "bogus": 1})


def test_manifest_run_matches_flag_run(tmp_path):
    flag_out = tmp_path / "flags.csv"
    man_out = tmp_path / "manifest.csv"
    args = ["sweep", "--alpha-min", "1", "--alpha-max", "50", "--points", "40", "--figure", "f1"]
    assert main(args + ["--out", str(flag_out)]) == 0
    manifest = RunManifest(
        subcommand="sweep", alpha_min=1.0, alpha_max=50.0, points=40, figure="f1", out=str(man_out)
    )
    manifest_path = tmp_path / "run.json"
    manifest.save(str(manifest_path))
    assert main(["--manifest", str(manifest_path)]) == 0
    assert flag_out.read_bytes() == man_out.read_bytes()


def test_identical_manifests_are_byte_identical(tmp_path):
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    base = dict(subcommand="partition", mode="1d", alphas=(0.7, 1.0, 3.0), methods=("direct", "exact"))
    assert run(RunManifest(out=str(out_a), **base)) == 0
    assert run(RunManifest(out=str(out_b), **base)) == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_json_output_carries_manifest_meta(tmp_path):
    out = tmp_path / "z.json"
    manifest = RunManifest(subcommand="partition", alphas=(1.0,), methods=("em",), format="json", out=str(out))
    assert run(manifest) == 0
    payload = json.loads(out.read_text())
    assert payload["meta"] == manifest.to_dict()
    assert payload["columns"] == ["alpha_bar", "Z_em"]
    assert payload["rows"][0][1] == pytest.approx(79.0 / 45.0, rel=1e-15)


def test_render_csv_uses_lf_and_17_digits():
    text = render_csv(("a", "b"), ((1, 1.0 / 3.0),))
    assert "\r" not in text
    assert text.endswith("\n")
    value = text.strip().split("\n")[1].split(",")[1]
    assert float(value) == 1.0 / 3.0


# -------------------------------------------------------------- exit codes


def test_exit_code_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--spacing", "diagonal"])
    assert excinfo.value.code == 2


def test_exit_code_usage_error_from_manifest():
    assert main(["partition", "--mode", "3d", "--alpha", "1", "--methods", "exact"]) == 2


def test_exit_code_domain_error():
    assert main(["sweep", "--alpha-min", "-1", "--alpha-max", "10", "--points", "5"]) == 3


def test_exit_code_io_error(tmp_path):
    missing_dir = tmp_path / "no" / "such" / "dir" / "out.csv"
    assert main(["spectrum", "--out", str(missing_dir)]) == 4


@pytest.mark.parametrize(
    "fields, code",
    [
        ({"subcommand": "sweep", "figure": "f9"}, 2),
        ({"subcommand": "spectrum", "format": "xml"}, 2),
        ({"subcommand": "spectrum", "n_max": -1}, 3),
        ({"subcommand": "spectrum", "ell_max": -1}, 3),
        ({"subcommand": "partition", "alphas": ["x"]}, 2),
        ({"subcommand": "sweep", "points": "10"}, 2),
        ({"subcommand": "sweep", "points": 2.5}, 2),
        ({"subcommand": "sweep", "alpha_min": "1"}, 2),
        ({"figure": "f1"}, 2),
    ],
)
def test_bad_manifest_field_exit_code(tmp_path, capsys, fields, code):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(fields))
    assert main(["--manifest", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


@pytest.mark.parametrize(
    "text, message",
    [
        ("[1, 2]", "a manifest must be a JSON object, got list"),
        ('{"subcommand": ', "is not valid JSON"),
    ],
)
def test_manifest_that_is_no_json_object_is_usage_error(tmp_path, capsys, text, message):
    path = tmp_path / "run.json"
    path.write_text(text)
    assert main(["--manifest", str(path)]) == 2
    err = capsys.readouterr().err
    assert message in err
    assert "Traceback" not in err


def test_negative_n_max_flag_is_domain_error(capsys):
    assert main(["spectrum", "--n-max", "-1"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err


def test_no_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 2


# ----------------------------------------------------------------- verify


def test_verify_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failed" in out
    assert "[INFO]" in out  # the 1d variant gap is reported, not failed
    assert "-alpha^3/5400" in out


def test_verify_detects_perturbed_closed_form():
    # a small multiplicative error in the closed form must trip the
    # closed-form-vs-direct-sum comparison
    result = verification.check_em3d_vs_direct(em3d_fn=lambda a: 1.001 * (1.0 / 3.0 + a ** 3 / 4.0 * (1 + (2 / a) * (1 + 1 / a)) + (1 / (20 * a)) * (3 + (2 / (3 * a)) * (1 - 1 / (3 * a)))))
    assert not result.passed

"""Tests for the command-line front end: tables, figures, manifests,
determinism and the exit-code contract."""

import json
import math
import pkgutil
import re
from pathlib import Path

import pytest

import ringosc
from ringosc import partition, spectrum, verification
from ringosc.cli import _CHOICES, FIGURES, SPECTRUM_ROWS_MAX, RunManifest, build_parser, main, render_csv, run
from ringosc.errors import UsageError
from ringosc.thermo import POINTS_MAX, SweepSpec


def read_rows(path):
    return parse_csv(path.read_text())


def parse_csv(text):
    lines = text.strip().split("\n")
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


def test_partition_zero_z_against_a_nonzero_reference(capsys):
    # the order that takes Z_exact as the reference of a zero Z_em stays defined
    assert main(["partition", "--alpha", "0.1616001310052524", "--methods", "em,exact"]) == 0
    assert capsys.readouterr() == ("alpha_bar,Z_em,Z_exact,rd_em_exact\n0.16160013100525239,0,1.0000168708421993,-1\n", "")



def test_subnormal_alpha_runs_print_no_warning(capsys):
    # below alpha ~ 1e-308, -c/alpha overflows to -inf, whose term is 0: the values
    # were right, but numpy printed a RuntimeWarning for it on stderr
    assert main(["partition", "--alpha", "1e-320", "--methods", "direct"]) == 0
    assert capsys.readouterr() == ("alpha_bar,Z_direct\n9.9998886718268301e-321,1\n", "")
    assert main(["sweep", "--mode", "1d", "--alpha-min", "1e-320", "--alpha-max", "1e-300", "--points", "3"]) == 0
    out, err = capsys.readouterr()
    assert out.splitlines()[1:] == [f"{a},-0,0,0,0" for a in ("9.9998886718268301e-321", "9.9999443357594983e-311",
                                                               "1e-300")]
    assert err.startswith("summary: ") and err.count("\n") == 1

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
    header, rows = read_rows(out)
    assert header == ["alpha_bar", "C_bar"]
    alphas = [float(r[0]) for r in rows]
    assert len(alphas) == 500 and all(b > a for a, b in zip(alphas, alphas[1:]))
    assert abs(float(rows[-1][1]) - 3.0) / 3.0 < 1e-2
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


# -------------------------------------------------------- csv, manifests


def test_csv_round_trip_exact():
    columns = FIGURES["f1"]
    rows = tuple((float(a), math.sin(a) / 7.0) for a in range(1, 6))
    header, cells = parse_csv(render_csv(columns, rows))
    assert tuple(header) == columns
    assert tuple(tuple(float(cell) for cell in row) for row in cells) == rows


def test_manifest_round_trip():
    # a sweep reads no alphas, so the list fields round-trip in a partition manifest
    sweep = RunManifest(subcommand="sweep", alpha_min=0.5, alpha_max=math.pi * 31.0, points=123, figure="f2")
    partition = RunManifest(subcommand="partition", mode="1d", alphas=(1.0, 2.5), methods=("em", "exact"))
    for manifest in (sweep, partition):
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
    manifest_path.write_text(json.dumps(manifest.to_dict()))
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
    assert main(["sweep", "--spacing", "diagonal"]) == 2


def test_exit_code_usage_error_from_manifest():
    assert main(["partition", "--mode", "3d", "--alpha", "1", "--methods", "exact,bogus"]) == 2


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
        # partition takes the 'paper' variant through the 'em-paper' method alone
        ({"subcommand": "partition", "mode": "1d", "alphas": [1], "methods": ["em"], "variant": "paper"}, 2),
        ({"subcommand": "partition", "mode": "3d", "alphas": [1], "methods": ["em"], "variant": "paper"}, 2),
        # the 'paper' variant exists for the 1d Euler-Maclaurin form only
        ({"subcommand": "sweep", "mode": "3d", "z_method": "em", "variant": "paper"}, 2),
        ({"subcommand": "sweep", "mode": "1d", "z_method": "direct", "variant": "paper"}, 2),
        ({"subcommand": "sweep", "figure": "f5", "variant": "paper"}, 2),
        ({"subcommand": "sweep", "variant": "magic"}, 2),
        # every choice field is checked against the tuple its flag offers
        ({"subcommand": "spectrum", "ell_mode": "reel"}, 2),
        ({"subcommand": "spectrum", "case": "a4_only"}, 2),
        ({"subcommand": "spectrum", "mode": "2d"}, 2),
        ({"subcommand": "sweep", "spacing": "cubic"}, 2),
        ({"subcommand": "sweep", "z_method": "magic"}, 2),
        # an input that partition does not read, and a saved manifest that names
        # a retired field (the Euler-Maclaurin order, the direct-sum cutoff)
        ({"subcommand": "partition", "mode": "3d", "alphas": [1], "methods": ["direct"], "variant": "paper"}, 2),
        ({"subcommand": "partition", "mode": "1d", "alphas": [1], "methods": ["exact"], "em_order": 5}, 2),
        ({"subcommand": "partition", "mode": "1d", "alphas": [1], "methods": ["em-paper"], "em_order": 2}, 2),
        # couplings that the level ladder of Z does not depend on
        ({"subcommand": "partition", "alphas": [1], "a2": 3}, 2),
        ({"subcommand": "partition", "alphas": [1], "methods": ["em"], "a3": 0.5}, 2),
        ({"subcommand": "sweep", "a3": 0.5}, 2),
        # inputs that the run would ignore
        ({"subcommand": "partition", "alphas": [1], "methods": ["direct"], "cutoff": None}, 2),
        ({"subcommand": "spectrum", "case": "oscillator", "ell_mode": "real"}, 2),
        ({"subcommand": "spectrum", "mode": "1d"}, 2),
        ({"subcommand": "sweep", "alphas": [1.0, 2.5]}, 2),
        ({"subcommand": "partition", "alphas": [1], "points": 5}, 2),
        ({"subcommand": "verify", "points": 5}, 2),
        ({"subcommand": "sweep", "figure": "f1", "mode": "1d"}, 2),
        ({"subcommand": "tabulate"}, 2),
        ({"subcommand": "sweep", "mode": "2d"}, 2),
        ({"subcommand": "partition", "alphas": [1], "methods": ["em", "bogus"]}, 2),
        # partition and sweep read no potential parameter, even one outside its domain
        ({"subcommand": "partition", "alphas": [1], "a1": -5, "methods": ["em"]}, 2),
        ({"subcommand": "sweep", "points": 2, "mass": -1, "hbar": 0}, 2),
        # potential parameters outside their domain, and a2 or a3 whose formulas overflow
        ({"subcommand": "spectrum", "m": -1}, 3),
        ({"subcommand": "spectrum", "case": "a2_only", "m": -1}, 3),
        ({"subcommand": "spectrum", "a3": 1e200}, 3),
        # inputs that the run would ignore: no method, a method twice, and the
        # alpha_max of a one-point grid
        ({"subcommand": "partition", "alphas": [1], "methods": []}, 2),
        ({"subcommand": "partition", "alphas": [1], "methods": ["direct", "em", "direct"]}, 2),
        ({"subcommand": "sweep", "points": 1, "alpha_min": 1, "alpha_max": 2}, 2),
        ({"subcommand": "sweep", "points": 1}, 2),
    ],
)
def test_bad_manifest_field_exit_code(tmp_path, capsys, fields, code):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(fields))
    assert main(["--manifest", str(path)]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    assert captured.err.count("\n") == 1


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


@pytest.mark.parametrize(
    "argv,message",
    [
        (["sweep", "--alpha-max", "1e300"], "error: need 0 < alpha_min <= alpha_max <= 1e+100, got [0.5, 1e+300]\n"),
        (["sweep", "--alpha-max", "1e300", "--z-method", "em"],
         "error: need 0 < alpha_min <= alpha_max <= 1e+100, got [0.5, 1e+300]\n"),
        (["sweep", "--alpha-max", "inf"], "error: need 0 < alpha_min <= alpha_max <= 1e+100, got [0.5, inf]\n"),
        (["partition", "--alpha", "1e120", "--methods", "em"], "error: alpha_bar must be > 0 and at most 1e+100, got 1e+120\n"),
        (["partition", "--alpha", "1e120", "--methods", "direct"],
         "error: alpha_bar must be > 0 and at most 1e+100, got 1e+120\n"),
        # 2 M a^2/hbar^2 = 2e308 passes the float range; Lambda and L were printed as inf
        (["spectrum", "--mass", "1e308", "--a2", "1"],
         "error: 2 M a^2 / hbar^2 overflows a float at mass=1e+308, a2=1.0, a3=0.0, hbar=1.0\n"),
        (["spectrum", "--mass", "1e308", "--a3", "1"],
         "error: 2 M a^2 / hbar^2 overflows a float at mass=1e+308, a2=0.0, a3=1.0, hbar=1.0\n"),
        # past the largest cutoff the direct sum takes, refused before any work
        *((["partition", "--mode", mode, "--alpha", alpha, "--methods", "direct"],
           f"error: the {mode} direct sum takes alpha_bar at most {bound}, got {float(alpha)}\n")
          for mode, bound in (("3d", "1.638e+06"), ("1d", "1.445e+06")) for alpha in ("2e16", "1e17", "1e20", "1e100")),
        # a2^2, a3^2 or hbar^2 alone leaves the float range (was a raw OverflowError or ZeroDivisionError)
        (["spectrum", "--a2", "1e160", "--n-max", "0"],
         "error: 2 M a^2 / hbar^2 overflows a float at mass=1.0, a2=1e+160, a3=0.0, hbar=1.0\n"),
        (["spectrum", "--a3", "1e200"],
         "error: 2 M a^2 / hbar^2 overflows a float at mass=1.0, a2=0.0, a3=1e+200, hbar=1.0\n"),
        (["spectrum", "--hbar", "1e-200", "--a2", "1"],
         "error: 2 M a^2 / hbar^2 overflows a float at mass=1.0, a2=1.0, a3=0.0, hbar=1e-200\n"),
        # outside the range where an Euler-Maclaurin form's C is positive, refused before any
        # point runs (the first printed C = -18.24 at alpha 0.2 with exit 0)
        (["sweep", "--z-method", "em", "--alpha-min", "0.2", "--alpha-max", "1", "--points", "5"],
         "error: the 3d 'derived' Euler-Maclaurin form takes alpha_bar in [0.3632, 1e+100], where its C is "
         "positive; got alpha_bar=0.2\n"),
        (["sweep", "--mode", "1d", "--z-method", "em", "--alpha-min", "0.25"],
         "error: the 1d 'derived' Euler-Maclaurin form takes alpha_bar in [0.2582, 1e+100], where its C is "
         "positive; got alpha_bar=0.25\n"),
        (["sweep", "--mode", "1d", "--z-method", "em", "--variant", "paper", "--alpha-max", "70"],
         "error: the 1d 'paper' Euler-Maclaurin form takes alpha_bar in [0.1216, 26.75], where its C is "
         "positive; got alpha_bar=70.0\n"),
        # past the largest m, L leaves the float range (a raw OverflowError from m = 1.34e154)
        *((["spectrum", *case, "--m", str(10**155)],
           f"error: m must be at most 3e+153, where L stays finite; got m={10**155}\n")
          for case in ((), ("--case", "oscillator"))),
        # past the most points or rows a run builds (a sweep of 1e15 points ended in
        # numpy's _ArrayMemoryError traceback, exit 1)
        *((["sweep", "--points", str(points)], f"error: points must be in [1, {POINTS_MAX}], got {points}\n")
          for points in (POINTS_MAX + 1, 10**15)),
        (["spectrum", "--n-max", str(SPECTRUM_ROWS_MAX + 1)],
         f"error: a spectrum table has at most {SPECTRUM_ROWS_MAX} rows, (n_max + 1)(ell_max + 1); "
         f"got n_max={SPECTRUM_ROWS_MAX + 1}, ell_max=3\n"),
        (["spectrum", "--n-max", str(SPECTRUM_ROWS_MAX), "--ell-max", "0", "--case", "a2_only"],
         f"error: a spectrum table has at most {SPECTRUM_ROWS_MAX} rows, (n_max + 1)(ell_max + 1); "
         f"got n_max={SPECTRUM_ROWS_MAX}, ell_max=0\n"),
        # Z_em is exactly 0 there, the reference of rd_exact_em (was a ZeroDivisionError traceback, exit 1)
        *((["partition", "--mode", mode, "--alpha", alpha, "--methods", "exact,em"],
           f"error: Z of method 'em' is 0 at alpha_bar={alpha}, so no relative difference can take it as the "
           "reference\n")
          for mode, alpha in (("3d", "0.1616001310052524"), ("1d", "0.09874090625690714"))),
    ],
)
def test_input_past_a_stated_bound_is_domain_error(capsys, argv, message):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == message


def test_largest_table_and_grid_are_accepted():
    RunManifest("spectrum", n_max=SPECTRUM_ROWS_MAX - 1, ell_max=0)
    RunManifest("spectrum", n_max=0, ell_max=SPECTRUM_ROWS_MAX - 1)
    assert len(SweepSpec.from_grid(1.0, 2.0, POINTS_MAX).alphas) == POINTS_MAX


@pytest.mark.parametrize(
    "argv",
    [
        # xi over- or underflows (these exited 3), or only hbar a1 does; a case
        # level E/xi is a pure number, so no xi is formed
        ["--a1", "1e300", "--mass", "1e-300", "--hbar", "1e300"],
        ["--hbar", "1e-200", "--a1", "1e-200"],
        ["--hbar", "1e200", "--a1", "1e200", "--mass", "1e300"],
    ],
)
def test_case_levels_form_no_xi(capsys, argv):
    assert main(["spectrum", "--case", "oscillator", "--n-max", "0", "--ell-max", "0", *argv]) == 0
    assert capsys.readouterr() == ("N,s,m,E_over_xi\n0,0,0,5\n", "")


@pytest.mark.parametrize(
    "argv",
    [
        # a power of alpha leaves the float range: a float division by one
        # that underflowed to 0 was a raw ZeroDivisionError, and a partition
        # Z alone would print -inf or inf
        ["partition", "--alpha", "1e-107", "--methods", "em"],
        ["partition", "--alpha", "1e-200", "--methods", "exact,em"],
        ["partition", "--mode", "1d", "--alpha", "1e-107", "--methods", "em"],
        ["partition", "--mode", "1d", "--alpha", "5e-324", "--methods", "em-paper"],
        # the array evaluation printed rows of nan and exited 0
        ["sweep", "--z-method", "em", "--alpha-min", "1e-200", "--alpha-max", "1e-199", "--points", "2"],
        ["sweep", "--z-method", "em", "--mode", "1d", "--variant", "paper", "--alpha-min", "1e-300",
         "--alpha-max", "1e-299", "--points", "2"],
        # a one-point sweep, the CLI's thermo_point
        ["sweep", "--z-method", "em", "--alpha-min", "1e-107", "--alpha-max", "1e-107", "--points", "1"],
        ["sweep", "--z-method", "em", "--alpha-min", "1e-200", "--alpha-max", "1e-200", "--points", "1"],
    ],
)
def test_em_value_past_the_float_range_is_domain_error(capsys, argv):
    assert main(argv) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert re.fullmatch(r"error: [^\n]*alpha(_bar)?=[^\n]*\n", captured.err), captured.err
    assert "Error" not in captured.err


@pytest.mark.parametrize(
    "argv",
    [
        # a2 = a3 = 0 gives strengths of exactly 0, though hbar^2 leaves the float range
        # (--hbar 1e-200 was a raw ZeroDivisionError, --hbar 1e200 a raw OverflowError)
        ["spectrum", "--hbar", "1e-200"],
        ["spectrum", "--hbar", "1e200"],
        # 2 M a2^2 / hbar^2 = 2e-400 underflows to 0
        ["spectrum", "--hbar", "1e200", "--a2", "1"],
    ],
)
def test_zero_coupling_strength_prints_the_default_spectrum(capsys, argv):
    assert main(["spectrum"]) == 0
    default = capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr() == default


def test_flag_choices_are_the_manifest_choices():
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "subcommand"]
    checked = set()
    for sub in subparsers.choices.values():
        for action in sub._actions:
            if action.choices is not None:
                assert tuple(action.choices) == _CHOICES[action.dest]
                checked.add(action.dest)
    assert checked == set(_CHOICES)


def test_readme_flag_table_lists_the_flags_of_each_subcommand():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1].split("\n## ", 1)[0]
    table = dict(re.findall(r"^\| `(\w+)` *\| (.*) \|$", section, re.MULTILINE))
    (subparsers,) = [a for a in build_parser()._actions if a.dest == "subcommand"]
    assert set(table) == set(subparsers.choices)
    for name, sub in subparsers.choices.items():
        flags = [flag for action in sub._actions if action.dest != "help" for flag in action.option_strings]
        assert re.findall(r"--[\w-]+", table[name]) == flags, name


def test_readme_module_table_lists_the_modules_of_the_package():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Layout", 1)[1].split("\n## ", 1)[0]
    table = re.findall(r"^\| `([\w.]+)` \|", section, re.MULTILINE)
    modules = ["ringosc"] + [info.name for info in pkgutil.iter_modules(ringosc.__path__, "ringosc.")]
    assert sorted(table) == sorted(modules)


CLAIM_STATUSES = ("reproduced", "not reproduced", "settled", "contradicted")


def _ticked(cell):
    """The backticked items of a ledger cell, which holds some or says none."""
    items = re.findall(r"`([^`]*)`", cell)
    assert items or cell == "none", cell
    return items


def test_readme_claims_ledger_names_golden_runs_and_verify_lines():
    root = Path(__file__).resolve().parents[1]
    golden = root / "tests" / "golden"
    readme = (root / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Claims of the abstract", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (?!claim |---)(.*) \|$", section, re.MULTILINE)
    runs = json.loads((golden / "runs.json").read_text(encoding="utf-8"))
    cases = {" ".join(["ringosc", *run["argv"]]): name for name, run in runs.items()}
    verify_lines = (golden / "verify.txt").read_text(encoding="utf-8").splitlines()
    assert len(rows) == 8
    for row in rows:
        claim, commands, files, lines, status = row.split(" | ")
        commands = _ticked(commands)
        assert all(command in cases for command in commands), row
        # each golden file is the output of one of the row's commands
        names = {cases[command] for command in commands}
        for file in _ticked(files):
            path = root / file
            assert path.parent == golden and path.stem in names and path.is_file(), file
        for line in _ticked(lines):
            assert any(text.startswith(f"{line}: measured=") for text in verify_lines), line
        assert status.startswith(CLAIM_STATUSES), row


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--mode", "1d"],
        ["sweep", "--methods", "em"],
        ["partition", "--alpha", "1", "--points", "5"],
        ["partition", "--mode", "1d", "--alpha", "1", "--methods", "em", "--variant", "paper"],
        ["verify", "--format", "json"],
        # retired: the Euler-Maclaurin form has one order and the direct sum one truncation
        ["partition", "--alpha", "1", "--em-order", "3"],
        ["partition", "--alpha", "1", "--methods", "direct", "--cutoff", "5"],
        # argparse does not quote an unrecognized argument, so its line break is escaped
        ["spectrum", "--methods", "direct\nem"],
        # retired: the level ladder of Z does not depend on the potential
        ["partition", "--alpha", "1", "--a1", "7"],
        ["sweep", "--hbar", "0.1"],
    ],
)
def test_flag_a_subcommand_does_not_read_is_usage_error(capsys, argv):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments" in err
    assert err.startswith("usage error: ") and err.count("\n") == 1 and err.endswith("\n")


@pytest.mark.parametrize(
    "argv, message",
    [
        # no method printed a bare alpha_bar column
        (["partition", "--alpha", "1", "--methods", ","],
         "manifest field 'methods' must name at least one method, each once; got ()"),
        # a repeated method printed Z_direct twice and an rd_direct_direct column of zeros
        (["partition", "--alpha", "1", "--methods", "direct,direct"],
         "manifest field 'methods' must name at least one method, each once; got ('direct', 'direct')"),
        # a grid of one point printed alpha_min alone and dropped alpha_max
        (["sweep", "--points", "1", "--alpha-min", "1", "--alpha-max", "2"],
         "a grid of 1 point is alpha_min alone, so alpha_max must equal it; got alpha_min=1.0, alpha_max=2.0"),
    ],
)
def test_input_the_run_would_ignore_is_usage_error(capsys, argv, message):
    assert main(argv) == 2
    assert capsys.readouterr() == ("", f"usage error: {message}\n")


def test_no_subcommand_is_usage_error(capsys):
    assert main([]) == 2
    assert capsys.readouterr().err == "usage error: ringosc: a subcommand or --manifest is required\n"


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["partition", "--help"])
    assert excinfo.value.code == 0
    assert "--alpha" in capsys.readouterr().out


# ----------------------------------------------------------------- verify


def test_verify_passes(capsys):
    rc = main(["verify"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "0 failed" in out
    assert "[INFO]" in out  # the 1d variant gap is reported, not failed
    assert "-alpha^3/5400" in out


def test_verify_reports_a_failed_check_and_exits_1(monkeypatch, capsys):
    # one wrong brute-force count fails the degeneracy check, and only it
    monkeypatch.setattr(spectrum, "degeneracy_sum", lambda n_prime: (1 + n_prime) ** 2 + 1)
    rc = main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 1
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        "[FAIL] degeneracy: brute-force sum equals (1 + n')^2 for n' <= 50: measured=1.000e+00 tol=0.000e+00"]
    assert lines[-1].endswith(" checks, 1 failed")


def test_verify_detects_perturbed_closed_form(monkeypatch):
    # a small multiplicative error in the closed form must trip the
    # closed-form-vs-direct-sum comparison
    em = partition.partition_em
    monkeypatch.setattr(partition, "partition_em", lambda *args: partition.PartitionValue(1.001 * em(*args).Z, "em"))
    assert not verification.check_em3d_vs_direct().passed

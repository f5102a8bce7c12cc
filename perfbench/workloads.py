"""The three workloads: inputs made from a seed, one pass of operations,
and the check of every output against the oracles.

An operation is one call of a public entry point: one ``ringosc`` process
for ``cli_figures``, one library call (a whole sweep, one grid of
wavefunction values) for the other two.  Each operation carries its own
check, which returns None when the output is right, the id of a named
fault from FAULTS when it fails in exactly that known way, and any other
string when the output is wrong.  Operations of a named fault take inputs
that do not depend on the seed, so every pass fails the same ones.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import oracles

DEFAULT_SEED = 1608
WORKLOADS = ("cli_figures", "thermo_wide", "spectrum_states")
RESULTS_DIR = os.path.join("perfbench", "results")

FAULTS = {
    "F-underflow": "thermo_point takes ln Z as log(Z) after Z has rounded to 1, so F_bar == -0.0 "
    "below alpha ~ 0.054 (3d) and F, S lose digits up to alpha ~ 0.2",
    "convergence": "thermo_point raises ConvergenceError for alpha >= 5e6 although F, U, S, C are finite",
    "radial-cancellation": "radial_wavefunction cancels in its alternating 1F1 sum for n >~ 40 "
    "and overflows y**mu for ell = 200",
}

# what the ``ringosc`` console script runs, so nothing has to be installed
LAUNCHER = "import sys; from ringosc.cli import main; sys.exit(main())"


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[tuple], "str | None"]
    meta: dict = field(default_factory=dict)


def run_op(op: Op) -> tuple:
    try:
        return ("ok", op.call())
    except Exception as exc:  # an operation's failure is data for its check
        return ("raised", type(exc).__name__, str(exc))


def classify(ops, results) -> tuple[int, list]:
    """(failed, problems) of one pass; problems are unexpected outputs."""
    failed, problems = 0, []
    for op, res in zip(ops, results):
        verdict = op.check(res)
        if verdict in FAULTS:
            failed += 1
        elif verdict is not None:
            problems.append(f"{op.name}: {verdict}")
    return failed, problems


def build(workload: str, seed: int) -> list[Op]:
    make = {"cli_figures": cli_figures, "thermo_wide": thermo_wide, "spectrum_states": spectrum_states}[workload]
    return make(random.Random(f"{workload}:{seed}"))


def decade_grid(rng: random.Random, lo_exp: float, hi_exp: float, per_decade: int) -> list[float]:
    """Strictly increasing alphas, per_decade jittered points in each decade."""
    count = round((hi_exp - lo_exp) * per_decade)
    step = (hi_exp - lo_exp) / count
    return [10.0 ** (lo_exp + step * (i + rng.random())) for i in range(count)]


def rel(a: float, b: float) -> float:
    if a == b:
        return 0.0
    return abs(a - b) / abs(b) if b != 0.0 else math.inf


def compare(got: dict, want: dict, rtol: dict) -> str | None:
    for key, tol in rtol.items():
        if not rel(got[key], want[key]) <= tol:
            return f"{key}={got[key]!r} vs oracle {want[key]!r}"
    return None


def thermal_properties(points, cap: float) -> str | None:
    """U = F + alpha S, C >= 0 and C -> cap (3 in 3d, 1 in 1d) at high alpha."""
    for pt in points:
        a, f, u, s, c = pt["alpha_bar"], pt["F_bar"], pt["U_bar"], pt["S_bar"], pt["C_bar"]
        if abs(u - (f + a * s)) > 1e-9 * max(1.0, abs(u)):
            return f"U != F + alpha S at alpha={a}"
        if not c >= 0.0:
            return f"C < 0 at alpha={a}"
        if a >= 1e3 and abs(c - cap) > 1e-5:
            return f"C={c} not near {cap} at alpha={a}"
    return None


# ---------------------------------------------------------------- thermo_wide

# a fixed grid reaching into the underflow region; the seed does not touch it
LOW_GRID = (0.01, 1e4, 200)
DIRECT_HIGH_ALPHAS = (("3d", 5e6), ("3d", 2e7), ("3d", 1e8), ("1d", 1e7), ("1d", 1e8))
RTOL_DIRECT = {"Z": 1e-13, "F_bar": 1e-11, "U_bar": 1e-11, "S_bar": 1e-11, "C_bar": 1e-11}
RTOL_CENTRAL = {"Z": 1e-12, "F_bar": 1e-11, "U_bar": 1e-7, "S_bar": 1e-7, "C_bar": 1e-3}
RTOL_EM = {"Z": 1e-13, "F_bar": 1e-10, "U_bar": 1e-10, "S_bar": 1e-10, "C_bar": 1e-10}
CAP = {"3d": 3.0, "1d": 1.0}


def _point_dict(pt) -> dict:
    return {k: getattr(pt, k) for k in ("alpha_bar", "Z", "F_bar", "U_bar", "S_bar", "C_bar")}


def _check_sweep(mode, oracle, rtol, low_fault=False):
    def check(res):
        if res[0] != "ok":
            return f"raised {res[1]}: {res[2]}"
        points = [_point_dict(pt) for pt in res[1].points]
        wrong = [(pt["alpha_bar"], bad) for pt in points if (bad := compare(pt, oracle(pt["alpha_bar"], mode), rtol))]
        if low_fault and wrong and all(a < 0.2 and bad.startswith(("F_bar", "S_bar")) for a, bad in wrong):
            return "F-underflow"
        if wrong:
            return f"{len(wrong)} points off, first at alpha={wrong[0][0]}: {wrong[0][1]}"
        if not all(res[1].monotonicity.values()):
            return f"monotonicity flags {res[1].monotonicity}"
        return thermal_properties(points, CAP[mode])

    return check


def _check_point(mode, oracle, rtol, fault=None):
    def check(res):
        if res[0] == "raised":
            return fault if fault and res[1] == "ConvergenceError" else f"raised {res[1]}: {res[2]}"
        pt = _point_dict(res[1])
        return compare(pt, oracle(pt["alpha_bar"], mode), rtol) or thermal_properties([pt], CAP[mode])

    return check


def _expect_domain_error(res):
    return None if res[0] == "raised" and res[1] == "DomainError" else f"expected DomainError, got {res[:2]}"


def _check_continuity(res):
    if res[0] != "ok":
        return f"raised {res[1]}: {res[2]}"
    return None if res[1].passed else f"jump signature reported: {res[1]}"


def thermo_wide(rng: random.Random) -> list[Op]:
    import numpy as np
    from ringosc import thermo

    def sweep_op(name, alphas, mode, check, z_method="direct", scheme="analytic"):
        spec = thermo.SweepSpec(tuple(alphas), mode=mode, z_method=z_method, derivative_scheme=scheme)
        meta = {"alphas": spec.alphas, "mode": mode, "z_method": z_method, "scheme": scheme}
        return Op(name, lambda: thermo.sweep(spec), check, meta)

    def point_op(name, alpha, mode, check, z_method="direct"):
        meta = {"alphas": (alpha,), "mode": mode, "z_method": z_method, "scheme": "analytic"}
        return Op(name, lambda: thermo.thermo_point(alpha, mode=mode, z_method=z_method), check, meta)

    ops = []
    low = tuple(float(a) for a in np.geomspace(*LOW_GRID))
    for mode in ("3d", "1d"):
        ops.append(sweep_op(f"sweep.direct.{mode}.low", low, mode,
                            _check_sweep(mode, oracles.thermal_exact, RTOL_DIRECT, low_fault=True)))
    for mode in ("3d", "1d"):
        ops.append(sweep_op(f"sweep.direct.{mode}", decade_grid(rng, -0.6, 4.0, 16), mode,
                            _check_sweep(mode, oracles.thermal_exact, RTOL_DIRECT)))
        # C from second differences carries ~1e-6 rounding noise, so the C flag only
        # holds where C still rises faster than that (3d: alpha < ~6)
        ops.append(sweep_op(f"sweep.central_difference.{mode}", decade_grid(rng, -0.6, 0.8, 20), mode,
                            _check_sweep(mode, oracles.thermal_exact, RTOL_CENTRAL), scheme="central_difference"))
        ops.append(sweep_op(f"sweep.em.{mode}", decade_grid(rng, 0.0, 4.0, 30), mode,
                            _check_sweep(mode, oracles.thermal_em, RTOL_EM), z_method="em"))
        for a in decade_grid(rng, math.log10(5e6), 8.0, 2):
            ops.append(point_op(f"point.em.{mode}.{a:.3g}", a, mode,
                                _check_point(mode, oracles.thermal_em, RTOL_EM), z_method="em"))
    # a dense grid, as the jump scan wants
    scan_spec = thermo.SweepSpec(tuple(decade_grid(rng, -0.5, 3.0, 40)))
    ops.append(Op("continuity_scan.3d", lambda: thermo.continuity_scan(scan_spec, jump_threshold=10.0),
                  _check_continuity, {"alphas": scan_spec.alphas, "mode": "3d", "z_method": "direct",
                                      "scheme": "analytic"}))
    # the 3d closed form is <= 0 below alpha ~ 0.16, where it must refuse
    a_neg = 10.0 ** rng.uniform(-1.3, -0.85)
    ops.append(Op("point.em.3d.negative_z", lambda: thermo.thermo_point(a_neg, z_method="em"), _expect_domain_error))
    for mode, a in DIRECT_HIGH_ALPHAS:
        ops.append(point_op(f"point.direct.{mode}.{a:.0e}", a, mode,
                            _check_point(mode, oracles.thermal_exact, RTOL_DIRECT, fault="convergence")))
    return ops


# ------------------------------------------------------------ spectrum_states

RADIAL_FAULT_STATES = ((40, 0.0, 3.0), (80, 0.0, 5.0), (150, 0.0, 5.0), (0, 200.0, 100.0))
WF_RTOL = 1e-9  # of the largest |value| on the state's grid


def _check_grid(oracle_values):
    def check(res):
        if res[0] != "ok":
            return f"raised {res[1]}: {res[2]}"
        want = oracle_values()
        err = max(abs(g - w) for g, w in zip(res[1], want)) / max(abs(w) for w in want)
        return None if err <= WF_RTOL else f"scaled error {err:.3e}"

    return check


def _check_value(want, rtol):
    return lambda res: None if res[0] == "ok" and rel(res[1], want) <= rtol else f"{res[1:]} vs {want!r}"


def _check_radial_fault(n, ell, r):
    def check(res):
        if res[0] == "raised":
            return "radial-cancellation" if res[1] == "OverflowError" else f"raised {res[1]}: {res[2]}"
        want = oracles.radial_function(n, ell, r)
        return None if abs(res[1] - want) <= WF_RTOL * abs(want) else "radial-cancellation"

    return check


def spectrum_states(rng: random.Random) -> list[Op]:
    from ringosc import spectrum

    unit = spectrum.PotentialParams(a1=1.0)
    ops = []
    for _ in range(2000):
        n, ell = rng.randrange(0, 200), rng.choice((float(rng.randrange(0, 13)), rng.uniform(0.0, 12.0)))
        ops.append(Op(f"radial_root.{n}.{ell:.4g}", lambda n=n, ell=ell: spectrum.radial_energy_from_quantization(
            n, ell), _check_value(oracles.ladder(n, ell), 1e-10), {"n": n, "ell": ell}))

    def coupling():
        return spectrum.PotentialParams(a1=1.0, a2=rng.uniform(0.0, 2.5), a3=rng.uniform(0.0, 2.5))

    for _ in range(2000):
        p, s, m = coupling(), rng.randrange(0, 13), rng.randrange(0, 7)
        ops.append(Op(f"angular_root.{s}.{m}", lambda p=p, s=s, m=m: spectrum.angular_constant_from_quantization(
            p, s, m), _check_value(oracles.angular_constants(p.a2, p.a3, s, m)[1], 1e-10), {"p": p, "s": s, "m": m}))

    # wavefunction cost grows with n and s, so every seed gets the same mix of them
    r_grid = [5.0 * (k + rng.random()) / 100 for k in range(100)]
    for i in range(44):
        n, ell = i % 11, rng.uniform(0.0, 6.0)
        ops.append(Op(f"radial_wf.{n}.{ell:.4g}",
                      lambda n=n, ell=ell: [spectrum.radial_wavefunction(unit, n, ell, r) for r in r_grid],
                      _check_grid(lambda n=n, ell=ell: [oracles.radial_function(n, ell, r) for r in r_grid])))

    theta_grid = [math.pi * (k + rng.random()) / 100 for k in range(100)]
    sols = []
    for i in range(39):
        p, s, m = coupling(), i % 13, rng.randrange(0, 5)
        sol = spectrum.angular_solution(p, s, m)
        lam, big_l = oracles.angular_constants(p.a2, p.a3, s, m)
        sols.append((sol, lam, big_l))

        def check_solution(res, lam=lam, big_l=big_l):
            if res[0] == "ok" and rel(res[1].Lambda, lam) <= 1e-14 and rel(res[1].L, big_l) <= 1e-14:
                return None if res[1].ell_eff == res[1].L + 0.5 else f"ell_eff {res[1]}"
            return f"{res[1:]} vs Lambda={lam!r}, L={big_l!r}"

        ops.append(Op(f"angular_solution.{s}.{m}", lambda p=p, s=s, m=m: spectrum.angular_solution(p, s, m),
                      check_solution))
        ops.append(Op(f"angular_wf.{s}.{m}", lambda sol=sol: [spectrum.angular_wavefunction(sol, t) for t in theta_grid],
                      _check_grid(lambda s=s, lam=lam: [oracles.angular_function(s, lam, t) for t in theta_grid])))

    r_coarse, t_coarse = r_grid[::4], theta_grid[::4]
    for i, (sol, lam, big_l) in enumerate(sols[:21]):
        n, phi = i % 7, rng.uniform(0.0, 2.0 * math.pi)

        def want(n=n, sol=sol, lam=lam, big_l=big_l, phi=phi):
            radial = [oracles.radial_function(n, big_l + 0.5, r) for r in r_coarse]
            angular = [oracles.angular_function(sol.s, lam, t) for t in t_coarse]
            phase = cmath.exp(-1j * sol.m * phi)
            return [f * g * phase for f in radial for g in angular]

        ops.append(Op(f"total_wf.{n}.{sol.s}.{sol.m}", lambda n=n, sol=sol, phi=phi: [
            spectrum.total_wavefunction(unit, n, sol, r, t, phi) for r in r_coarse for t in t_coarse], _check_grid(want)))

    for n, ell, r in RADIAL_FAULT_STATES:
        ops.append(Op(f"radial_wf.fault.{n}.{ell:g}.{r:g}", lambda n=n, ell=ell, r=r: spectrum.radial_wavefunction(
            unit, n, ell, r), _check_radial_fault(n, ell, r)))
    return ops


# ---------------------------------------------------------------- cli_figures

FIGURE_COLUMNS = {
    "f1": ("alpha_bar", "F_bar"),
    "f2": ("alpha_bar", "U_bar"),
    "f3": ("alpha_bar", "S_bar"),
    "f4": ("alpha_bar", "C_bar"),
    "f5": ("alpha_bar", "F_bar", "U_bar", "S_bar", "C_bar"),
}


def cli_args(manifest: dict) -> list[str]:
    """The flags a shell user types for a manifest."""

    def text(value):
        if isinstance(value, (list, tuple)):
            return ",".join(text(v) for v in value)
        return repr(value) if isinstance(value, float) else str(value)

    args = [manifest["subcommand"]]
    for key, value in manifest.items():
        if key != "subcommand":
            args += ["--alpha" if key == "alphas" else "--" + key.replace("_", "-"), text(value)]
    return args


def launch(args: list[str]) -> tuple:
    """One cold ``ringosc`` process; (exit code, stdout, stderr)."""
    proc = subprocess.run([sys.executable, "-c", LAUNCHER, *args], capture_output=True, timeout=120)
    return proc.returncode, proc.stdout, proc.stderr


def _table(stdout: bytes) -> tuple[list, list]:
    lines = list(csv.reader(io.StringIO(stdout.decode())))
    return lines[0], lines[1:]


def _cli_ok(res) -> str | None:
    if res[0] != "ok":
        return f"launch raised {res[1]}: {res[2]}"
    code, _, err = res[1]
    if code != 0 or b"Traceback" in err:
        return f"exit {code}: {err.decode()[-300:]}"
    return None


def _check_figure(m, res):
    if bad := _cli_ok(res):
        return bad
    _, out, err = res[1]
    header, rows = _table(out)
    mode = "1d" if m["figure"] == "f5" else "3d"
    if tuple(header) != FIGURE_COLUMNS[m["figure"]] or len(rows) != m["points"]:
        return f"header {header}, {len(rows)} rows"
    alphas = [float(row[0]) for row in rows]
    if rel(alphas[0], m["alpha_min"]) > 1e-15 or rel(alphas[-1], m["alpha_max"]) > 1e-12:
        return f"alpha grid runs from {alphas[0]} to {alphas[-1]}"
    if any(b <= a for a, b in zip(alphas, alphas[1:])):
        return "alpha grid not increasing"
    for row in rows:
        want = oracles.thermal_exact(float(row[0]), mode)
        for name, cell in zip(header[1:], row[1:]):
            if rel(float(cell), want[name]) > RTOL_DIRECT[name]:
                return f"{name} at alpha={row[0]}: {cell} vs oracle {want[name]!r}"
    text = err.decode()
    if "=False" in text or "no first-order transition signature" not in text:
        return f"stderr summary: {text.strip()}"
    return None


def _check_partition(m, res):
    if bad := _cli_ok(res):
        return bad
    header, rows = _table(res[1][1])
    methods, alphas = m["methods"], m["alphas"]
    names = [x.replace("-", "_") for x in methods]
    pairs = [(i, j) for i in range(len(methods)) for j in range(i + 1, len(methods))]
    expected = ["alpha_bar"] + [f"Z_{x}" for x in names] + [f"rd_{names[i]}_{names[j]}" for i, j in pairs]
    if header != expected or len(rows) != len(alphas):
        return f"header {header}, {len(rows)} rows"
    for a, row in zip(alphas, rows):
        vals = [float(c) for c in row]
        if vals[0] != a:
            return f"alpha {vals[0]} != {a}"
        zs = vals[1:1 + len(methods)]
        for method, z in zip(methods, zs):
            if method in ("direct", "exact"):
                want = oracles.thermal_exact(a, m["mode"])["Z"]
                if rel(z, want) > 2e-14:
                    return f"Z_{method}({a}) = {z} vs oracle {want}"
            else:
                want, scale = oracles.em_value(a, m["mode"], "paper" if method == "em-paper" else "derived")
                if abs(z - want) > 1e-14 * scale:
                    return f"Z_{method}({a}) = {z} vs rational form {want}"
        for (i, j), got in zip(pairs, vals[1 + len(methods):]):
            if got != (zs[i] - zs[j]) / zs[j]:
                return f"relative difference column {i},{j} at alpha={a}"
    return None


def _check_spectrum(m, res):
    if bad := _cli_ok(res):
        return bad
    header, rows = _table(res[1][1])
    if len(rows) != (m["n_max"] + 1) * (m["ell_max"] + 1):
        return f"{len(rows)} rows"
    for row in rows:
        n, ell = int(row[0]), int(row[1])
        lam, big_l = oracles.angular_constants(m["a2"], m["a3"], ell, m["m"])
        n_prime = 2 * n + ell
        want = [n, ell, ell, m["m"], lam, big_l, big_l + 0.5, oracles.ladder(n, ell), n_prime, (1 + n_prime) ** 2]
        if row[10] != "ok" or any(rel(float(g), w) > 1e-14 for g, w in zip(row[:10], want)):
            return f"row {row} vs {want}"
    return None


def _check_case(m, res):
    if bad := _cli_ok(res):
        return bad
    header, rows = _table(res[1][1])
    want = [(big_n, s, m["m"], oracles.case_energy_over_xi(m["case"], m["a2"], m["a3"], big_n, s, m["m"]))
            for big_n in range(m["n_max"] + 1) for s in range(m["ell_max"] + 1)]
    got = [(int(r[0]), int(r[1]), int(r[2]), float(r[3])) for r in rows]
    if header != ["N", "s", "m", "E_over_xi"] or len(got) != len(want):
        return f"header {header}, {len(got)} rows"
    for g, w in zip(got, want):
        if g[:3] != w[:3] or rel(g[3], w[3]) > 1e-14:
            return f"row {g} vs {w}"
    return None


def _check_json(m, res):
    if bad := _cli_ok(res):
        return bad
    payload = json.loads(res[1][1])
    if any(payload["meta"][k] != v for k, v in m.items()):
        return f"meta {payload['meta']} does not echo the manifest"
    columns = payload["columns"]
    if columns != ["alpha_bar", "F_bar", "U_bar", "S_bar", "C_bar"] or len(payload["rows"]) != m["points"]:
        return f"columns {columns}, {len(payload['rows'])} rows"
    points = [dict(zip(columns, row)) for row in payload["rows"]]
    for pt in points:
        if bad := compare(pt, oracles.thermal_em(pt["alpha_bar"], m["mode"]), {k: RTOL_EM[k] for k in columns[1:]}):
            return bad
    return thermal_properties(points, CAP[m["mode"]])


def _check_verify(res):
    if bad := _cli_ok(res):
        return bad
    out = res[1][1].decode()
    if "[FAIL]" in out or not out.rstrip().endswith(" 0 failed"):
        return f"verify output: {out[-300:]}"
    return None


def cli_figures(rng: random.Random) -> list[Op]:
    manifests = []
    for fig in FIGURE_COLUMNS:
        manifests.append(("sweep." + fig, {
            "subcommand": "sweep", "figure": fig, "alpha_min": 10.0 ** rng.uniform(-0.5, 0.0),
            "alpha_max": 10.0 ** rng.uniform(1.7, 2.5), "points": rng.randrange(150, 401),
            "spacing": "log"}, _check_figure))
    for mode, methods in (("1d", ["direct", "em", "em-paper", "exact"]), ("3d", ["direct", "em"])):
        # the largest direct sum sets the peak memory, so its alpha stays fixed
        manifests.append(("partition." + mode, {
            "subcommand": "partition", "mode": mode, "alphas": decade_grid(rng, -1.0, 3.0, 1) + [1e4],
            "methods": methods}, _check_partition))
    manifests.append(("spectrum", {
        "subcommand": "spectrum", "a1": rng.uniform(0.5, 2.0), "a2": rng.uniform(0.2, 2.0),
        "a3": rng.uniform(0.2, 2.0), "n_max": rng.randrange(3, 9), "ell_max": rng.randrange(3, 9),
        "m": rng.randrange(0, 4)}, _check_spectrum))
    case = rng.choice(("a2_only", "a3_only", "oscillator"))
    manifests.append(("spectrum.case", {
        "subcommand": "spectrum", "case": case, "a2": rng.uniform(0.2, 2.0) if case == "a2_only" else 0.0,
        "a3": rng.uniform(0.2, 2.0) if case == "a3_only" else 0.0, "n_max": rng.randrange(2, 7),
        "ell_max": rng.randrange(2, 7), "m": rng.randrange(0, 4)}, _check_case))
    ops = [Op("cli." + name, lambda m=m: launch(cli_args(m)), lambda res, m=m, check=check: check(m, res),
              {"manifest": m}) for name, m, check in manifests]

    json_manifest = {"subcommand": "sweep", "mode": "1d", "z_method": "em", "format": "json",
                     "alpha_min": 10.0 ** rng.uniform(0.0, 0.5), "alpha_max": 10.0 ** rng.uniform(2.5, 3.5),
                     "points": rng.randrange(100, 301), "spacing": "log"}
    os.makedirs(RESULTS_DIR, exist_ok=True)
    path = os.path.join(RESULTS_DIR, "cli-manifest.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(json_manifest, handle)
    ops.append(Op("cli.manifest.json", lambda: launch(["--manifest", path]),
                  lambda res: _check_json(json_manifest, res), {"manifest": json_manifest}))
    ops.append(Op("cli.verify", lambda: launch(["verify"]), _check_verify))
    return ops

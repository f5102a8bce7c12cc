"""The traced run: spans around every public function of each ringosc
layer, wrapped from here, plus the probes that give the per-layer metrics.

A span is (name, start, end, parent).  Spans stay in memory until the run
ends and are then written out with the self time of each layer, where a
span's self time is its duration minus the durations of its child spans.
Spans named ``bench.*`` are the benchmark's own: one per pass and one per
operation.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import io
import json
import re
import statistics
import subprocess
import sys
import time
from array import array

import workloads

LAYERS = ("cli", "verification", "thermo", "partition", "spectrum", "nu_solver", "specfun")
# helpers evaluated on every residual call of a root find: wrapping them
# would add about 40 spans per root and drown the rest of the trace
UNWRAPPED = {"derive", "quantization_residual", "radial_problem", "angular_problem"}
IMPORT_MODULES = {"import.numpy_s": "numpy", "import.ringosc_s": "ringosc",
                  "import.ringosc_cli_s": "ringosc.cli", "import.scipy_integrate_s": "scipy.integrate"}
COLD_CLI = {"cli.spectrum_s": "cli.spectrum", "cli.partition_s": "cli.partition.1d",
            "cli.sweep_s": "cli.sweep.f1", "cli.verify_s": "cli.verify"}
POINT_PROBES = {"thermo.point_us.alpha_1e0": (1.0, 200), "thermo.point_us.alpha_1e2": (1e2, 50),
                "thermo.point_us.alpha_1e4": (1e4, 10)}
REPEATS = 3
MOMENT_ARRAYS = 6  # float64 arrays of the term count alive at once in one moment sum


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id, self.parent = array("i"), array("i")
        self.start, self.end = array("d"), array("d")
        self._stack = [-1]
        self._patches = []

    def _open(self, name: str) -> int:
        nid = self._ids.setdefault(name, len(self._ids))
        if nid == len(self.names):
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1])
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = self._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return traced

    def wrap_layers(self) -> None:
        """Replace each layer's public functions, wherever a ringosc module holds them."""
        modules = [importlib.import_module(f"ringosc.{layer}") for layer in LAYERS]
        traced = {}
        for layer, module in zip(LAYERS, modules):
            for attr, fn in vars(module).items():
                if inspect.isfunction(fn) and fn.__module__ == module.__name__ and not attr.startswith("_") \
                        and attr not in UNWRAPPED:
                    traced[fn] = self.wrap(f"{layer}.{attr}", fn)
        for module in modules + [importlib.import_module("ringosc")]:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in traced:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, traced[value])

    def unwrap_layers(self) -> None:
        for module, attr, value in reversed(self._patches):
            setattr(module, attr, value)
        self._patches.clear()

    # ------------------------------------------------------------ analysis

    def index(self) -> dict[str, list[int]]:
        by_name: dict[str, list[int]] = {}
        for i, nid in enumerate(self.name_id):
            by_name.setdefault(self.names[nid], []).append(i)
        return by_name

    def duration(self, i: int) -> float:
        return self.end[i] - self.start[i]

    def self_times(self) -> dict[str, float]:
        child = [0.0] * len(self.start)
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += self.duration(i)
        layers: dict[str, float] = {}
        for i, nid in enumerate(self.name_id):
            layer = self.names[nid].split(".")[0]
            layers[layer] = layers.get(layer, 0.0) + self.duration(i) - child[i]
        return layers

    def write(self, path: str, extra: dict) -> None:
        t0 = self.start[0] if self.start else 0.0
        payload = dict(extra, names=self.names, spans={
            "name": list(self.name_id), "parent": list(self.parent),
            "start_ns": [round((t - t0) * 1e9) for t in self.start],
            "end_ns": [round((t - t0) * 1e9) for t in self.end]})
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            json.dump(payload, handle)


def run_pass(tracer: Tracer, workload: str, ops) -> list:
    """One pass, with a span for the pass and one for each operation."""
    with tracer.span(f"bench.{workload}.pass"):
        results = []
        for op in ops:
            with tracer.span(f"bench.{workload}.{op.name}"):
                results.append(workloads.run_op(op))
    return results


# ---------------------------------------------------------------- probes


def import_times() -> dict:
    """Cumulative import times from ``python -X importtime`` in fresh interpreters."""
    samples: dict[str, list] = {k: [] for k in IMPORT_MODULES}
    for _ in range(REPEATS):
        err = subprocess.run([sys.executable, "-X", "importtime", "-c", "import ringosc.cli"],
                             capture_output=True, text=True, check=True, timeout=120).stderr
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
            if m:
                cumulative.setdefault(m.group(2), int(m.group(1)) * 1e-6)
        for key, module in IMPORT_MODULES.items():
            samples[key].append(cumulative[module])
    return {k: statistics.median(v) for k, v in samples.items()}


def probe(tracer: Tracer, seed: int, done: set) -> dict:
    """Trace what the workload run did not cover and return every per-layer metric.

    ``done`` names the workloads whose traced passes are already recorded.
    """
    from ringosc import cli, partition, thermo, verification

    results = {}
    for workload in ("thermo_wide", "spectrum_states"):
        ops = workloads.build(workload, seed)
        results[workload] = (ops, [workloads.run_op(op) for op in ops])  # warm-up
        if workload not in done:
            run_pass(tracer, workload, ops)

    cli_ops = {op.name: op for op in workloads.build("cli_figures", seed)}
    for _ in range(REPEATS):
        for name in COLD_CLI.values():
            with tracer.span(f"bench.cli_figures.{name}"):
                workloads.run_op(cli_ops[name])
    out_bytes = 0
    manifests = [op.meta["manifest"] for op in cli_ops.values() if "manifest" in op.meta]
    for _ in range(REPEATS):
        out, err = io.StringIO(), io.StringIO()
        with tracer.span("bench.cli.run_pass"), contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            for m in manifests:
                cli.run(cli.RunManifest.from_dict(m))
        out_bytes = len(out.getvalue().encode())

    for name in ("run_all", "check_wavefunctions", "check_figure_shapes", "check_thermo_identities"):
        getattr(verification, name)()

    for key, (alpha, count) in POINT_PROBES.items():
        for _ in range(count):
            with tracer.span(f"bench.{key}"):
                thermo.thermo_point(alpha)
    direct_grids = [op.meta for op in results["thermo_wide"][0] if op.name in ("sweep.direct.3d", "sweep.direct.1d")]
    for _ in range(REPEATS):
        with tracer.span("bench.partition_direct"):
            for meta in direct_grids:
                for a in meta["alphas"]:
                    partition.partition_direct(partition.PartitionSpec(meta["mode"], a))

    by_name = tracer.index()

    def durations(name):
        return [tracer.duration(i) for i in by_name.get(name, ())]

    def median(name, scale=1.0):
        return statistics.median(durations(name)) * scale

    def per_pass(pass_name, prefix, exclude=None):
        """Median over passes of the summed durations of spans named prefix* inside each pass."""
        inner = [(tracer.start[i], tracer.duration(i)) for n, ids in by_name.items()
                 if n.startswith(prefix) and not (exclude and exclude in n) for i in ids]
        sums = []
        for p in by_name[pass_name]:
            lo, hi = tracer.start[p], tracer.end[p]
            sums.append(sum(d for s, d in inner if lo <= s <= hi))
        return statistics.median(sums)

    metrics = import_times()
    metrics.update({key: median(f"bench.cli_figures.{name}") for key, name in COLD_CLI.items()})
    metrics["cli.run_compute_s"] = median("bench.cli.run_pass")
    metrics["cli.render_csv_s"] = per_pass("bench.cli.run_pass", "cli.render_csv")
    metrics["cli.output_bytes"] = out_bytes
    for name in ("run_all", "check_wavefunctions", "check_figure_shapes", "check_thermo_identities"):
        metrics[f"verification.{name}_s"] = median(f"verification.{name}")

    tw = "bench.thermo_wide."
    metrics["thermo.sweep_direct_3d_s"] = median(tw + "sweep.direct.3d")
    metrics["thermo.sweep_direct_1d_s"] = median(tw + "sweep.direct.1d")
    metrics["thermo.sweep_em_s"] = median(tw + "sweep.em.3d")
    metrics["thermo.sweep_central_difference_s"] = median(tw + "sweep.central_difference.3d")
    metrics.update({key: median(f"bench.{key}", 1e6) for key in POINT_PROBES})
    metrics["thermo.continuity_scan_s"] = median(tw + "continuity_scan.3d")
    ops, res = results["thermo_wide"]
    returned = [r[1] for r in res if r[0] == "ok"]
    metrics["thermo.points"] = sum(len(v.points) if isinstance(v, thermo.SweepResult) else isinstance(v, thermo.ThermoPoint)
                                   for v in returned)
    metrics["partition.direct_s"] = median("bench.partition_direct")
    metrics["partition.suggested_cutoff_us"] = median("partition.suggested_cutoff", 1e6)
    metrics.update(_term_counts(ops))

    metrics["spectrum.radial_root_us"] = median("spectrum.radial_energy_from_quantization", 1e6)
    metrics["spectrum.angular_root_us"] = median("spectrum.angular_constant_from_quantization", 1e6)
    metrics["nu_solver.residual_evals_per_root"] = _residual_evals(results["spectrum_states"][0])
    ss = "bench.spectrum_states."
    metrics["spectrum.radial_wf_grid_s"] = per_pass(ss + "pass", ss + "radial_wf.", exclude=".fault.")
    metrics["spectrum.angular_wf_grid_s"] = per_pass(ss + "pass", ss + "angular_wf.")
    metrics["spectrum.total_wf_grid_s"] = per_pass(ss + "pass", ss + "total_wf.")
    metrics["specfun.hyp1f1_us"] = median("specfun.hyp1f1_terminating", 1e6)
    metrics["specfun.jacobi_us"] = median("specfun.jacobi_poly", 1e6)
    metrics["specfun.gamma_ratio_us"] = median("specfun.gamma_ratio_prefactor", 1e6)
    return metrics


def _term_counts(ops) -> dict:
    """Terms the direct-route Boltzmann sums of one thermo_wide pass take (computed)."""
    from ringosc import ConvergenceError, partition

    direct = moment = biggest = 0
    for op in ops:
        meta = op.meta
        if meta.get("z_method") != "direct":
            continue
        for a in meta["alphas"]:
            try:
                n0 = partition.suggested_cutoff(meta["mode"], a)
            except ConvergenceError:
                continue
            direct += n0 + 1
            if meta["scheme"] == "analytic":
                terms = n0 + n0 // 2 + 51
                moment += terms
            else:  # three sums at a cutoff frozen at alpha + eta
                terms = partition.suggested_cutoff(meta["mode"], a * (1 + 1e-5)) + 1
                moment += 3 * terms
            biggest = max(biggest, terms)
    return {"partition.direct_terms": direct, "partition.moment_terms": moment,
            "partition.moment_bytes_computed": MOMENT_ARRAYS * 8 * biggest}


def _residual_evals(ops) -> float:
    """Mean residual evaluations per root, from a counting residual passed to solve_bracketed."""
    from ringosc import nu_solver, spectrum

    calls = roots = 0
    for op in ops:
        meta = op.meta
        # the same template problems and brackets as spectrum's root finds
        if "n" in meta:
            s, hi = meta["n"], 8.0 * (meta["n"] + meta["ell"] + 2.0)
            problem = lambda e, ell=meta["ell"]: spectrum.radial_problem(ell, e)  # noqa: E731
        elif "s" in meta:
            s, hi = meta["s"], 8.0 * (meta["s"] + 2.0) ** 2
            problem = lambda q, p=meta["p"], m=meta["m"]: spectrum.angular_problem(p, m, q)  # noqa: E731
        else:
            continue

        def residual(x, problem=problem, s=s):
            nonlocal calls
            calls += 1
            return nu_solver.quantization_residual(nu_solver.derive(problem(x)), s)

        nu_solver.solve_bracketed(residual, 0.0, hi)
        roots += 1
    return calls / roots

"""The benchmark (``perfbench/run.py``) still runs against the library.

Its traced run (``--trace 1``) takes medians over the spans of named
library functions and reads the import time of ``scipy.integrate`` in a
fresh ``import ringosc.cli``; a renamed or removed function, or an import
made lazy, would end that run in an error.  The benchmark's own ``Tracer``
is used here as it is, wrapped around the same layers.  Its in-process
workloads call the library directly, so a changed signature would turn
their operations into failures; they run here once, with their checks.
"""

import contextlib
import inspect
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

# the operations of each in-process workload that fail by a named fault
# (workloads.FAULTS) at the default seed
KNOWN_FAILED = {"thermo_wide": 2, "spectrum_states": 0}

# the library spans of which the probe takes a median
MEDIAN_SPANS = {
    "verification.run_all",
    "verification.check_wavefunctions",
    "verification.check_figure_shapes",
    "verification.check_thermo_identities",
    "partition.suggested_cutoff",
    "spectrum.radial_energy_from_quantization",
    "spectrum.angular_constant_from_quantization",
    "specfun.hyp1f1_terminating",
    "specfun.jacobi_poly",
    "specfun.gamma_ratio_prefactor",
}


@contextlib.contextmanager
def benchmark_modules():
    """perfbench's modules, imported without writing bytecode into perfbench/."""
    path, dont_write = str(ROOT / "perfbench"), sys.dont_write_bytecode
    sys.path.insert(0, path)
    sys.dont_write_bytecode = True
    try:
        import tracing
        import workloads

        yield tracing, workloads
    finally:
        sys.path.remove(path)
        sys.dont_write_bytecode = dont_write


def test_median_spans_are_the_ones_the_probe_reads():
    with benchmark_modules() as (tracing, _):
        source = inspect.getsource(tracing.probe)
    layers = "|".join(tracing.LAYERS)
    literal = set(re.findall(rf'median\("((?:{layers})\.\w+)"', source))
    assert literal <= MEDIAN_SPANS
    verification_spans = {name for name in MEDIAN_SPANS if name.startswith("verification.")}
    assert literal | verification_spans == MEDIAN_SPANS


def test_traced_run_records_every_span_the_probe_reads():
    from ringosc import partition, verification

    with benchmark_modules() as (tracing, workloads):
        ops = workloads.build("spectrum_states", workloads.DEFAULT_SEED)
        tracer = tracing.Tracer()
        tracer.wrap_layers()
        try:
            for op in ops:
                workloads.run_op(op)
            partition.partition_direct(partition.PartitionSpec(partition.THREE_D, 10.0))
            # as the probe does: through the module, whose attributes the
            # tracer replaced; ALL_CHECKS holds the functions from before
            for name in ("run_all", "check_wavefunctions", "check_figure_shapes", "check_thermo_identities"):
                getattr(verification, name)()
        finally:
            tracer.unwrap_layers()
    assert MEDIAN_SPANS - set(tracer.names) == set()


def test_cli_import_loads_scipy_integrate():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, ringosc.cli; print('scipy.integrate' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
    assert out.returncode == 0, out.stderr
    assert out.stdout == "True\n"


@pytest.mark.parametrize("workload", KNOWN_FAILED)
def test_in_process_workload_passes_its_checks(workload):
    with benchmark_modules() as (_, workloads):
        ops = workloads.build(workload, workloads.DEFAULT_SEED)
        failed, problems = workloads.classify(ops, [workloads.run_op(op) for op in ops])
    assert problems == []
    assert failed <= KNOWN_FAILED[workload], f"{failed} of {len(ops)} operations failed by a named fault"


def test_benchmark_root_finds_cost_three_evaluations_each():
    # nu_solver.residual_evals_per_root of the traced run, over the
    # benchmark's own brackets: every root is one affine secant solve
    with benchmark_modules() as (tracing, workloads):
        ops = workloads.build("spectrum_states", workloads.DEFAULT_SEED)
        assert tracing._residual_evals(ops) == 3.0

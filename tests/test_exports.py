"""Every name a ringosc module lists in ``__all__`` exists, and importing the
package or its spectral layer loads nothing else."""

import importlib
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import ringosc

SRC = str(Path(ringosc.__file__).resolve().parents[1])
MODULES = [info.name for info in pkgutil.iter_modules(ringosc.__path__, "ringosc.")]


def test_every_module_is_found():
    assert {"ringosc.cli", "ringosc.partition", "ringosc.thermo"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    module = importlib.import_module(name)
    missing = [attr for attr in getattr(module, "__all__", ()) if not hasattr(module, attr)]
    assert missing == []


def test_spectral_layer_loads_no_numpy():
    # the package holds only the error classes, so the layers a caller does not import stay unloaded;
    # the spectral layer's records are plain slotted classes, so it loads no dataclasses (nor the inspect they pull in)
    code = (
        "import sys, ringosc\n"
        "assert sorted(m for m in sys.modules if m.startswith('ringosc')) == ['ringosc', 'ringosc.errors']\n"
        "import ringosc.spectrum, ringosc.nu_solver, ringosc.specfun\n"
        "for name in ('numpy', 'dataclasses', 'inspect'):\n"
        "    assert name not in sys.modules, name\n"
        "from ringosc import ConvergenceError, partition\n"
        "assert ConvergenceError is ringosc.errors.ConvergenceError and partition.__name__ == 'ringosc.partition'\n"
    )
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([SRC, os.environ.get("PYTHONPATH", "")])}
    run = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr

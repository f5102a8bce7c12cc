"""Golden outputs of the command line.

Each run below pins three things: the bytes written to stdout (CSV or
JSON, in ``golden/<name>.<format>``, or the text report of ``verify`` in
``golden/verify.txt``), the text on stderr and the exit code
(both in ``golden/runs.json``, next to the run's arguments).  A change that
must not alter output is checked against these files byte for byte.

After an intended change of output, such as a last-ulp move, rewrite the
files with

    python tests/test_golden.py --update

and list the change in CHANGES.md.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

if __name__ == "__main__":  # as a script, import ringosc from this checkout
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from ringosc.cli import main

GOLDEN = Path(__file__).parent / "golden"
RUNS = GOLDEN / "runs.json"

ALPHAS = "0.2,0.5,1,2,3.5,5,10,20,50,100,300,1000"

CASES = {
    "spectrum_default": ["spectrum"],
    "spectrum_real": ["spectrum", "--ell-mode", "real", "--a2", "0.7", "--a3", "0.4", "--m", "1"],
    "spectrum_case_a2_only": ["spectrum", "--case", "a2_only", "--a2", "1.3", "--m", "1"],
    "spectrum_case_a3_only": ["spectrum", "--case", "a3_only", "--a3", "0.9", "--m", "2"],
    "spectrum_case_oscillator": ["spectrum", "--case", "oscillator", "--m", "1", "--a1", "2.5"],
    "partition_1d": ["partition", "--mode", "1d", "--alpha", ALPHAS, "--methods", "direct,em,em-paper,exact"],
    "partition_3d": ["partition", "--mode", "3d", "--alpha", ALPHAS, "--methods", "direct,em"],
    "sweep_f1": ["sweep", "--figure", "f1", "--points", "40"],
    "sweep_f2": ["sweep", "--figure", "f2", "--points", "40"],
    "sweep_f3": ["sweep", "--figure", "f3", "--points", "40"],
    # 100 points is the smallest grid that also runs the jump scan
    "sweep_f4": ["sweep", "--figure", "f4", "--points", "100"],
    "sweep_f5": ["sweep", "--figure", "f5", "--points", "40"],
    # alpha 0.3 lies below the range of the 3d Euler-Maclaurin form: exit 3
    "sweep_em": ["sweep", "--z-method", "em", "--alpha-min", "0.3", "--points", "40"],
    "sweep_em_inside": ["sweep", "--z-method", "em", "--alpha-min", "0.5", "--points", "40"],
    "sweep_json": ["sweep", "--mode", "1d", "--z-method", "em", "--format", "json", "--alpha-min", "1",
                   "--alpha-max", "1000", "--points", "40"],
    "verify": ["verify"],
}


def run_case(argv):
    """(stdout, stderr, exit code) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return out.getvalue(), err.getvalue(), code


def output_path(name):
    """The golden file of a run's stdout, named for its format; verify's
    report is plain text."""
    argv = CASES[name]
    if argv[0] == "verify":
        fmt = "txt"
    else:
        fmt = argv[argv.index("--format") + 1] if "--format" in argv else "csv"
    return GOLDEN / f"{name}.{fmt}"


def update():
    GOLDEN.mkdir(exist_ok=True)
    runs = {}
    for name, argv in CASES.items():
        stdout, stderr, code = run_case(argv)
        output_path(name).write_bytes(stdout.encode())
        runs[name] = {"argv": argv, "exit_code": code, "stderr": stderr}
    RUNS.write_text(json.dumps(runs, indent=2, sort_keys=True) + "\n", encoding="utf-8")


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_output(name):
    expected = json.loads(RUNS.read_text(encoding="utf-8"))[name]
    stdout, stderr, code = run_case(CASES[name])
    assert expected["argv"] == CASES[name]
    assert code == expected["exit_code"]
    assert stderr == expected["stderr"]
    assert stdout.encode() == output_path(name).read_bytes()


def test_golden_directory_holds_only_current_cases():
    files = {path.name for path in GOLDEN.iterdir()}
    assert files == {RUNS.name} | {output_path(name).name for name in CASES}
    assert set(json.loads(RUNS.read_text(encoding="utf-8"))) == set(CASES)


if __name__ == "__main__":
    if sys.argv[1:] != ["--update"]:
        sys.exit("usage: python tests/test_golden.py --update")
    update()

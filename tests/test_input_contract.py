"""Fuzz test of the input contract of the command line.

Any manifest for ``spectrum``, ``partition`` or ``sweep`` (or for an
unknown subcommand) must end in a documented exit code, 0, 2, 3 or 4;
a failed run writes exactly one line on stderr and no traceback; and a
repeated run prints the same bytes.  Each field of a drawn manifest is
absent, valid, of the wrong type, out of range, NaN or off its choices.
The same manifests, written as the flags that ``build_parser`` makes,
must meet the same contract.

Valid values stay where a run is quick: at most 60 sweep points, alphas
in [1e-3, 1e3] and n_max and ell_max at most 6.  Out-of-range values
include those past each stated bound: the most sweep points, the most
rows of a level table and the largest m.
"""

import contextlib
import io
import json
import math

from hypothesis import given, settings
from hypothesis import strategies as st

from ringosc.cli import _CHOICES, PARTITION_METHODS, SPECTRUM_ROWS_MAX, SUBCOMMAND_FIELDS, build_parser, main
from ringosc.spectrum import QUANTUM_NUMBER_MAX
from ringosc.thermo import POINTS_MAX

POSITIVE = st.one_of(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False), st.integers(1, 10))
NON_NEGATIVE = st.one_of(st.floats(min_value=0.0, allow_infinity=False), st.integers(0, 10))
NOT_POSITIVE = st.one_of(st.floats(max_value=0.0), st.integers(-10, 0))
NEGATIVE_OR_INFINITE = st.one_of(st.floats(max_value=-1e-300), st.integers(-10, -1), st.just(math.inf))
ALPHA = st.one_of(st.floats(min_value=1e-3, max_value=1e3), st.integers(1, 1000))
SMALL = st.integers(0, 6)
OUTSIDE_TABLE_BOUND = st.one_of(st.integers(max_value=-1), st.integers(min_value=SPECTRUM_ROWS_MAX))

# per field: (valid values, values outside its domain); choice fields are
# filled in from the choices their flags offer
DOMAINS = {
    "a1": (POSITIVE, NOT_POSITIVE),
    "a2": (NON_NEGATIVE, NEGATIVE_OR_INFINITE),
    "a3": (NON_NEGATIVE, NEGATIVE_OR_INFINITE),
    "mass": (POSITIVE, NOT_POSITIVE),
    "hbar": (POSITIVE, NOT_POSITIVE),
    "n_max": (SMALL, OUTSIDE_TABLE_BOUND),
    "ell_max": (SMALL, OUTSIDE_TABLE_BOUND),
    "m": (st.one_of(SMALL, st.integers(min_value=0)),
          st.one_of(st.integers(max_value=-1), st.integers(min_value=int(QUANTUM_NUMBER_MAX) + 1))),
    "alphas": (st.lists(ALPHA, max_size=4), st.lists(st.one_of(ALPHA, NOT_POSITIVE), min_size=1, max_size=3)),
    "methods": (st.lists(st.sampled_from(PARTITION_METHODS), max_size=4), st.lists(st.text(max_size=4), max_size=2)),
    "alpha_min": (ALPHA, NOT_POSITIVE),
    "alpha_max": (ALPHA, NOT_POSITIVE),
    "points": (st.integers(1, 60), st.one_of(st.integers(max_value=0), st.integers(min_value=POINTS_MAX + 1))),
}
for name, choices in _CHOICES.items():
    valid = st.sampled_from(choices)
    DOMAINS[name] = (st.one_of(valid, st.none()) if name in ("case", "figure") else valid, st.text(max_size=5))

WRONG_TYPE = st.one_of(
    st.text(max_size=3), st.booleans(), st.none(), st.just(2.5), st.just({}), st.lists(st.text(max_size=2), max_size=2)
)
VALUES = {name: st.one_of(valid, bad, st.just(math.nan), WRONG_TYPE) for name, (valid, bad) in DOMAINS.items()}


@st.composite
def manifests(draw):
    """A valid manifest of one subcommand, with up to two fields then drawn
    from any kind of value, each perhaps one its subcommand does not read."""
    subcommand = draw(st.sampled_from(("spectrum", "partition", "sweep", "tabulate")))
    reads = SUBCOMMAND_FIELDS.get(subcommand, ())
    valid = {name: DOMAINS[name][0] for name in reads if name in DOMAINS}
    # an empty list of alphas stands for an absent one
    required = {"alphas": valid.pop("alphas")} if "alphas" in valid else {}
    manifest = {"subcommand": subcommand}
    manifest.update(draw(st.fixed_dictionaries(required, optional=valid)))
    for name in draw(st.lists(st.sampled_from(sorted(VALUES)), max_size=2)):
        manifest[name] = draw(VALUES[name])
    return manifest


def _flags():
    """The flag of each field, as ``build_parser`` names it."""
    (subparsers,) = [action for action in build_parser()._actions if action.dest == "subcommand"]
    return {action.dest: action.option_strings[0] for sub in subparsers.choices.values() for action in sub._actions}


FLAGS = _flags()


def flag_text(value):
    """What a shell user types for a value: a list comma-joined, a float by its repr."""
    if isinstance(value, (list, tuple)):
        return ",".join(flag_text(v) for v in value)
    return repr(value) if isinstance(value, float) else str(value)


def as_argv(manifest):
    """The manifest as flags; a None value is an absent flag."""
    argv = [manifest["subcommand"]]
    for name, value in manifest.items():
        if name != "subcommand" and value is not None:
            argv += [FLAGS[name], flag_text(value)]
    return argv


def run_main(argv):
    """(exit code, stdout, stderr) of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_contract(argv):
    code, out, err = run_main(argv)
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err
    if code != 0:
        assert err.count("\n") == 1 and err.endswith("\n")
    assert run_main(argv) == (code, out, err)


@settings(max_examples=200, deadline=None)
@given(manifest=manifests())
def test_any_manifest_meets_the_exit_code_contract(tmp_path_factory, manifest):
    path = tmp_path_factory.getbasetemp() / "fuzz-run.json"
    path.write_text(json.dumps(manifest))
    assert_contract(["--manifest", str(path)])


@settings(max_examples=200, deadline=None)
@given(manifest=manifests())
def test_any_argv_meets_the_exit_code_contract(manifest):
    assert_contract(as_argv(manifest))

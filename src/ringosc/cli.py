"""Command-line front end.

Subcommands: ``spectrum`` (level tables), ``partition`` (method
comparison at chosen temperatures), ``sweep`` (figure-ready temperature
sweeps) and ``verify`` (the cross-check suite).  Output is CSV or JSON,
deterministic byte for byte: reals carry 17 significant digits, rows are
emitted in grid order, and no timestamps enter the data.  A run can be
described either by flags or by a JSON manifest (``--manifest PATH``)
that round-trips losslessly.

Exit codes: 0 success, 1 failed verification, 2 usage error,
3 domain/convergence error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import itertools
import json
import sys
from dataclasses import dataclass

from . import verification
from .errors import ConvergenceError, DomainError, UsageError
from .partition import (
    MODES,
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    VARIANT_PAPER,
    VARIANTS,
    PartitionSpec,
    partition_closed_form,
    partition_direct,
    partition_em,
)
from .spectrum import (
    SPECIAL_CASES,
    PotentialParams,
    angular_solution,
    degeneracy,
    energy_over_xi,
    energy_over_xi_special_case,
)
from .thermo import SPACINGS, Z_METHODS, SweepSpec, scan_jumps, sweep

__all__ = ["RunManifest", "FIGURES", "SPECTRUM_ROWS_MAX", "main", "run"]

# the columns of each figure: free energy, mean energy, entropy and specific
# heat of the 3d ladder, then the four-column panel of the 1d ladder
FIGURES = {
    "f1": ("alpha_bar", "F_bar"),
    "f2": ("alpha_bar", "U_bar"),
    "f3": ("alpha_bar", "S_bar"),
    "f4": ("alpha_bar", "C_bar"),
    "f5": ("alpha_bar", "F_bar", "U_bar", "S_bar", "C_bar"),
}

# each method of partition and its route to Z at (mode, alpha); 'exact' is the geometric closed form
PARTITION_ROUTES = {
    "direct": lambda mode, alpha: partition_direct(PartitionSpec(mode, alpha)),
    "em": partition_em,
    "em-paper": lambda mode, alpha: partition_em(mode, alpha, VARIANT_PAPER),
    "exact": partition_closed_form,
}
PARTITION_METHODS = tuple(PARTITION_ROUTES)
SPECTRUM_ROWS_MAX = 10 ** 5  # the most rows a level table of spectrum may have
FORMATS = ("csv", "json")
ELL_MODES = ("integer", "real")

# the values each choice field of RunManifest accepts; the flags offer the same
_CHOICES = {
    "mode": MODES,
    "format": FORMATS,
    "ell_mode": ELL_MODES,
    "case": SPECIAL_CASES,
    "variant": VARIANTS,
    "spacing": SPACINGS,
    "z_method": Z_METHODS,
    "figure": tuple(FIGURES),
}

# the fields each subcommand reads, in the order of its flags; every other
# field of its manifest must keep its default
_OUTPUT = ("format", "out")
SUBCOMMAND_FIELDS = {
    "spectrum": ("a1", "a2", "a3", "mass", "hbar") + _OUTPUT + ("n_max", "ell_max", "m", "ell_mode", "case"),
    "partition": ("mode",) + _OUTPUT + ("alphas", "methods"),
    "sweep": ("mode",) + _OUTPUT + ("alpha_min", "alpha_max", "points", "spacing", "z_method", "variant", "figure"),
    "verify": (),
}

# per annotation of RunManifest: the JSON types a manifest value may have
# (bool is an int subclass but never a valid number here), the JSON types of
# a list's items, and what converts the text of a flag or of one list item
_FIELD_TYPES = {
    "float": ((int, float), None, float),
    "int": ((int,), None, int),
    "str": ((str,), None, str),
    "str | None": ((str, type(None)), None, str),
    "tuple[float, ...]": ((tuple, list), (int, float), float),
    "tuple[str, ...]": ((tuple, list), (str,), str),
}


def _is_a(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunManifest:
    """Complete, serializable description of one CLI run.

    Identical manifests produce byte-identical outputs; the manifest is
    what lands in the JSON ``meta`` field.  Each field is one input, and
    ``build_parser`` makes its flag from it: the default, the type and the
    choices are declared here alone.  A field that the subcommand does not
    read (``SUBCOMMAND_FIELDS``) must keep its default.
    """

    subcommand: str
    mode: str = THREE_D
    format: str = "csv"
    out: str | None = None
    # spectrum; the level ladder of partition and sweep does not depend on the potential
    a1: float = 1.0
    a2: float = 0.0
    a3: float = 0.0
    mass: float = 1.0
    hbar: float = 1.0
    n_max: int = 3
    ell_max: int = 3
    m: int = 0
    ell_mode: str = "integer"
    case: str | None = None
    # partition
    alphas: tuple[float, ...] = ()
    methods: tuple[str, ...] = ("direct", "em")
    # sweep
    alpha_min: float = 0.5
    alpha_max: float = 100.0
    points: int = 200
    spacing: str = "log"
    z_method: str = "direct"
    variant: str = VARIANT_DERIVED
    figure: str | None = None

    def __post_init__(self):
        fields = dataclasses.fields(self)
        for field in fields:
            value = getattr(self, field.name)
            types, item_types, convert = _FIELD_TYPES[field.type]
            if not _is_a(value, types) or (item_types and not all(_is_a(v, item_types) for v in value)):
                raise UsageError(f"manifest field {field.name!r} must be of type {field.type}, got {value!r}")
            if item_types:
                object.__setattr__(self, field.name, tuple(convert(v) for v in value))
        if self.subcommand not in SUBCOMMAND_FIELDS:
            raise UsageError(f"unknown subcommand {self.subcommand!r}; expected one of {tuple(SUBCOMMAND_FIELDS)}")
        # each input the run would ignore, with the condition under which it does
        unread = {f.name: "" for f in fields[1:] if f.name not in SUBCOMMAND_FIELDS[self.subcommand]}
        if self.figure is not None:
            unread.setdefault("mode", " when 'figure' is given, which fixes the ladder")
        if self.case is not None:
            unread.setdefault("ell_mode", " when 'case' is given")
        for field in fields:
            value = getattr(self, field.name)
            if field.name in unread and value != field.default:
                raise UsageError(
                    f"{self.subcommand} does not read manifest field {field.name!r}{unread[field.name]}; got {value!r}"
                )
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value is not None and value not in choices:  # None: no case, no figure
                raise UsageError(f"manifest field {name!r} must be one of {choices}, got {value!r}")
        if any(method not in PARTITION_METHODS for method in self.methods):
            raise UsageError(f"manifest field 'methods' must hold items of {PARTITION_METHODS}, got {self.methods!r}")
        # an empty list would print alpha_bar alone, and a repeated method its column twice
        if not self.methods or len(set(self.methods)) < len(self.methods):
            raise UsageError(f"manifest field 'methods' must name at least one method, each once; got {self.methods!r}")
        if self.points == 1 and self.alpha_max != self.alpha_min:
            raise UsageError(f"a grid of 1 point is alpha_min alone, so alpha_max must equal it; "
                             f"got alpha_min={self.alpha_min!r}, alpha_max={self.alpha_max!r}")
        if min(self.n_max, self.ell_max, self.m) < 0:
            raise DomainError(f"n_max, ell_max and m must be >= 0, got {self.n_max}, {self.ell_max} and {self.m}")
        if (self.n_max + 1) * (self.ell_max + 1) > SPECTRUM_ROWS_MAX:
            raise DomainError(f"a spectrum table has at most {SPECTRUM_ROWS_MAX} rows, (n_max + 1)(ell_max + 1); "
                              f"got n_max={self.n_max}, ell_max={self.ell_max}")

    def to_dict(self) -> dict:
        d = dataclasses.asdict(self)
        d["alphas"] = list(self.alphas)
        d["methods"] = list(self.methods)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "RunManifest":
        if not isinstance(data, dict):
            raise UsageError(f"a manifest must be a JSON object, got {type(data).__name__}")
        known = {f.name for f in dataclasses.fields(cls)}
        unknown = set(data) - known
        if unknown:
            raise UsageError(f"unknown manifest fields: {sorted(unknown)}")
        if "subcommand" not in data:
            raise UsageError("manifest field 'subcommand' is required")
        return cls(**data)

    @classmethod
    def load(cls, path: str) -> "RunManifest":
        with open(path, "r", encoding="utf-8") as handle:
            try:
                data = json.load(handle)
            except json.JSONDecodeError as exc:
                raise UsageError(f"manifest {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(data)


def _fmt_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, int):  # a bool too
        return str(value)
    return f"{float(value):.17g}"


def render_csv(columns, rows) -> str:
    lines = [",".join(columns)]
    lines.extend(",".join(_fmt_cell(cell) for cell in row) for row in rows)
    return "\n".join(lines) + "\n"


def render_json(columns, rows, meta) -> str:
    payload = {
        "columns": list(columns),
        "rows": [list(row) for row in rows],
        "meta": meta,
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def _emit(manifest: RunManifest, columns, rows) -> None:
    if manifest.format == "json":
        text = render_json(columns, rows, manifest.to_dict())
    else:
        text = render_csv(columns, rows)
    if manifest.out is None:
        sys.stdout.write(text)
    else:
        with open(manifest.out, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)


def cmd_spectrum(manifest: RunManifest) -> int:
    """level table"""
    p = PotentialParams(a1=manifest.a1, a2=manifest.a2, a3=manifest.a3, mass=manifest.mass, hbar=manifest.hbar)
    if manifest.case is not None:
        columns = ("N", "s", "m", "E_over_xi")
        rows = []
        for big_n in range(manifest.n_max + 1):
            for s in range(manifest.ell_max + 1):
                rows.append((big_n, s, manifest.m, energy_over_xi_special_case(p, manifest.case, big_n, s, manifest.m)))
        _emit(manifest, columns, rows)
        return 0

    columns = (
        "n",
        "ell",
        "s",
        "m",
        "Lambda",
        "L",
        "ell_eff",
        "E_over_xi",
        "n_prime",
        "degeneracy",
        "status",
    )
    real = manifest.ell_mode == "real"
    rows = []
    for n in range(manifest.n_max + 1):
        for ell in range(manifest.ell_max + 1):
            sol = angular_solution(p, s=ell, m=manifest.m)
            # n' = 2n + ell and its degeneracy belong to the integer ladder only
            e = energy_over_xi(n, sol.ell_eff if real else ell)
            n_prime, deg = ("", "") if real else (2 * n + ell, degeneracy(2 * n + ell))
            rows.append((n, ell, sol.s, sol.m, sol.Lambda, sol.L, sol.ell_eff, e, n_prime, deg, "ok"))
    _emit(manifest, columns, rows)
    return 0


def cmd_partition(manifest: RunManifest) -> int:
    """partition-function comparison"""
    if not manifest.alphas:
        raise UsageError("partition requires at least one --alpha value")
    names = [m.replace("-", "_") for m in manifest.methods]
    pairs = tuple(itertools.combinations(range(len(names)), 2))
    columns = ["alpha_bar"] + [f"Z_{name}" for name in names] + [f"rd_{names[i]}_{names[j]}" for i, j in pairs]
    rows = []
    for alpha in manifest.alphas:
        values = [PARTITION_ROUTES[m](manifest.mode, alpha).Z for m in manifest.methods]
        for _, j in pairs:
            if values[j] == 0.0:
                raise DomainError(f"Z of method '{manifest.methods[j]}' is 0 at alpha_bar={alpha}, "
                                  f"so no relative difference can take it as the reference")
        rows.append(tuple([alpha] + values + [(values[i] - values[j]) / values[j] for i, j in pairs]))
    _emit(manifest, tuple(columns), rows)
    return 0


def cmd_sweep(manifest: RunManifest) -> int:
    """temperature sweep / figure data"""
    mode = manifest.mode
    if manifest.figure is not None:
        columns = FIGURES[manifest.figure]
        mode = ONE_D if manifest.figure == "f5" else THREE_D
    else:
        columns = ("alpha_bar", "F_bar", "U_bar", "S_bar", "C_bar")
    spec = SweepSpec.from_grid(
        manifest.alpha_min,
        manifest.alpha_max,
        manifest.points,
        manifest.spacing,
        mode=mode,
        z_method=manifest.z_method,
        variant=manifest.variant,
    )
    result = sweep(spec)
    rows = tuple(tuple(getattr(pt, name) for name in columns) for pt in result.points)
    _emit(manifest, columns, rows)

    if len(result.points) < 2:
        print("summary: single-point grid, skipped", file=sys.stderr)
        return 0
    flags = ", ".join(f"{k}={v}" for k, v in result.monotonicity.items())
    print(f"summary: {flags}", file=sys.stderr)
    # the jump scan is a dense-grid diagnostic; on coarse grids the discrete
    # slopes differ through curvature alone and the ratio is meaningless
    if len(result.points) >= 100:
        scan = scan_jumps(spec.alphas, [pt.C_bar for pt in result.points])
        verdict = "no first-order transition signature" if scan.passed else "JUMP DETECTED"
        print(
            f"continuity: max jump ratio {scan.max_ratio:.3f} at alpha={scan.alpha_at_max:.6g} -> {verdict}",
            file=sys.stderr,
        )
    return 0


def cmd_verify(manifest: RunManifest) -> int:
    """run the cross-check suite"""
    results = verification.run_all()
    failed = 0
    for res in results:
        if res.informational:
            tag = "INFO"
        elif res.passed:
            tag = "PASS"
        else:
            tag = "FAIL"
            failed += 1
        line = f"[{tag}] {res.name}: measured={res.measured:.3e} tol={res.tolerance:.3e}"
        if res.info:
            line += f" | {res.info}"
        print(line)
    print(f"{len(results)} checks, {failed} failed")
    return 1 if failed else 0


def _flag_type(annotation: str):
    """What turns the text of a flag into a value of the annotated field."""
    _, item_types, convert = _FIELD_TYPES[annotation]
    if not item_types:
        return convert

    def comma_list(text):
        return tuple(convert(part.strip()) for part in text.split(",") if part.strip())

    return comma_list


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are ``UsageError``s, so that ``main``
    reports a bad flag in one line like any other usage error; its
    subparsers are of the same class."""

    def error(self, message):
        # argparse quotes each value it names but an unrecognized argument,
        # so a line break in one is escaped to keep the message on one line
        raise UsageError(f"{self.prog}: {message}".replace("\r", "\\r").replace("\n", "\\n"))


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ringosc", description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", help="JSON run manifest; replaces all other flags")
    sub = parser.add_subparsers(dest="subcommand")
    fields = {field.name: field for field in dataclasses.fields(RunManifest)}
    for subcommand, names in SUBCOMMAND_FIELDS.items():
        sp = sub.add_parser(subcommand, help=_COMMANDS[subcommand].__doc__)
        for name in names:
            # alphas, the one required input, is named for a single value
            flag = "--alpha" if name == "alphas" else "--" + name.replace("_", "-")
            sp.add_argument(flag, dest=name, type=_flag_type(fields[name].type), default=fields[name].default,
                            choices=_CHOICES.get(name), required=name == "alphas")
    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    return RunManifest(args.subcommand, **{name: getattr(args, name) for name in SUBCOMMAND_FIELDS[args.subcommand]})


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "partition": cmd_partition,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def run(manifest: RunManifest) -> int:
    return _COMMANDS[manifest.subcommand](manifest)


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.manifest is not None:
            manifest = RunManifest.load(args.manifest)
        elif args.subcommand is None:
            parser.error("a subcommand or --manifest is required")
        else:
            manifest = manifest_from_args(args)
        return run(manifest)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except (DomainError, ConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

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
import json
import sys
from dataclasses import dataclass

from . import verification
from .errors import ConvergenceError, DomainError, SweepError, UsageError
from .partition import (
    MODES,
    ONE_D,
    THREE_D,
    VARIANT_DERIVED,
    VARIANT_PAPER,
    VARIANTS,
    PartitionSpec,
    partition_closed_form_1d,
    partition_direct,
    partition_em,
)
from .spectrum import SPECIAL_CASES, PotentialParams, angular_solution, energy_special_case, level
from .thermo import SPACINGS, Z_METHODS, SweepSpec, continuity_scan, sweep

__all__ = ["RunManifest", "FIGURES", "main", "run"]

# the columns of each figure: free energy, mean energy, entropy and specific
# heat of the 3d ladder, then the four-column panel of the 1d ladder
FIGURES = {
    "f1": ("alpha_bar", "F_bar"),
    "f2": ("alpha_bar", "U_bar"),
    "f3": ("alpha_bar", "S_bar"),
    "f4": ("alpha_bar", "C_bar"),
    "f5": ("alpha_bar", "F_bar", "U_bar", "S_bar", "C_bar"),
}

PARTITION_METHODS = ("direct", "em", "em-paper", "exact")
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

# the JSON types each annotation of RunManifest accepts; bool is an int
# subclass but never a valid number here
_FIELD_TYPES = {
    "float": (int, float),
    "int": (int,),
    "str": (str,),
    "str | None": (str, type(None)),
    "int | None": (int, type(None)),
    "tuple": (tuple, list),
}


def _is_a(value, types) -> bool:
    return isinstance(value, types) and not isinstance(value, bool)


@dataclass(frozen=True)
class RunManifest:
    """Complete, serializable description of one CLI run.

    Identical manifests produce byte-identical outputs; the manifest is
    what lands in the JSON ``meta`` field.
    """

    subcommand: str
    a1: float = 1.0
    a2: float = 0.0
    a3: float = 0.0
    mass: float = 1.0
    hbar: float = 1.0
    mode: str = THREE_D
    format: str = "csv"
    out: str | None = None
    # spectrum
    n_max: int = 3
    ell_max: int = 3
    m: int = 0
    ell_mode: str = "integer"
    case: str | None = None
    # partition
    alphas: tuple = ()
    methods: tuple = ("direct", "em")
    cutoff: int | None = None
    em_order: int = 2
    variant: str = VARIANT_DERIVED
    # sweep
    alpha_min: float = 0.5
    alpha_max: float = 100.0
    points: int = 200
    spacing: str = "log"
    z_method: str = "direct"
    figure: str | None = None

    def __post_init__(self):
        for field in dataclasses.fields(self):
            value = getattr(self, field.name)
            if not _is_a(value, _FIELD_TYPES[field.type]):
                raise UsageError(f"manifest field {field.name!r} must be of type {field.type}, got {value!r}")
        if not all(_is_a(a, (int, float)) for a in self.alphas):
            raise UsageError(f"manifest field 'alphas' must hold numbers, got {list(self.alphas)!r}")
        if not all(_is_a(m, (str,)) for m in self.methods):
            raise UsageError(f"manifest field 'methods' must hold strings, got {list(self.methods)!r}")
        object.__setattr__(self, "alphas", tuple(float(a) for a in self.alphas))
        object.__setattr__(self, "methods", tuple(self.methods))
        for name, choices in _CHOICES.items():
            value = getattr(self, name)
            if value is not None and value not in choices:  # None: no case, no figure
                raise UsageError(f"manifest field {name!r} must be one of {choices}, got {value!r}")
        if self.n_max < 0 or self.ell_max < 0:
            raise DomainError(f"n_max and ell_max must be >= 0, got {self.n_max} and {self.ell_max}")

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

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(self.to_dict(), handle, sort_keys=True, indent=2)
            handle.write("\n")


def _fmt_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, str):
        return value
    if isinstance(value, bool):
        return str(value)
    if isinstance(value, int):
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


def _params(manifest: RunManifest) -> PotentialParams:
    return PotentialParams(a1=manifest.a1, a2=manifest.a2, a3=manifest.a3, mass=manifest.mass, hbar=manifest.hbar)


def cmd_spectrum(manifest: RunManifest) -> int:
    p = _params(manifest)
    if manifest.case is not None:
        columns = ("N", "s", "m", "E_over_xi")
        rows = []
        for big_n in range(manifest.n_max + 1):
            for s in range(manifest.ell_max + 1):
                e = energy_special_case(p, manifest.case, big_n, s, manifest.m) / p.xi
                rows.append((big_n, s, manifest.m, e))
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
    rows = []
    for n in range(manifest.n_max + 1):
        for ell in range(manifest.ell_max + 1):
            try:
                sol = angular_solution(p, s=ell, m=manifest.m)
            except DomainError:
                rows.append((n, ell, ell, manifest.m, "", "", "", "", "", "", "no-angular-solution"))
                continue
            if manifest.ell_mode == "real":
                e = 4.0 * n + 2.0 * sol.ell_eff + 3.0
                rows.append((n, ell, sol.s, sol.m, sol.Lambda, sol.L, sol.ell_eff, e, "", "", "ok"))
            else:
                lv = level(n, ell)
                rows.append(
                    (n, ell, sol.s, sol.m, sol.Lambda, sol.L, sol.ell_eff, lv.e_over_xi, lv.n_prime, lv.degeneracy, "ok")
                )
    _emit(manifest, columns, rows)
    return 0


def _reject_couplings(manifest: RunManifest) -> None:
    # the level ladder 4n + 2 ell + 3 of Z runs over integer ell, whatever a2 and a3
    if manifest.a2 != 0.0 or manifest.a3 != 0.0:
        raise UsageError(
            f"{manifest.subcommand} takes only a2 = a3 = 0, since its level ladder does not depend on them; "
            f"got a2={manifest.a2}, a3={manifest.a3}"
        )


def _partition_value(method: str, manifest: RunManifest, alpha: float):
    spec = PartitionSpec(
        mode=manifest.mode,
        alpha_bar=alpha,
        cutoff=manifest.cutoff,
        em_order=manifest.em_order,
        variant=manifest.variant,
    )
    if method == "direct":
        return partition_direct(spec)
    if method == "em":
        return partition_em(spec)
    if method == "em-paper":
        # the alternate form exists for the 1d ladder at order 2 only
        return partition_em(dataclasses.replace(spec, em_order=2, variant=VARIANT_PAPER))
    if method == "exact":
        if manifest.mode != ONE_D:
            raise UsageError("method 'exact' (geometric closed form) applies to the 1d ladder only")
        return partition_closed_form_1d(alpha)
    raise UsageError(f"unknown partition method {method!r}; expected one of {PARTITION_METHODS}")


def cmd_partition(manifest: RunManifest) -> int:
    if not manifest.alphas:
        raise UsageError("partition requires at least one --alpha value")
    _reject_couplings(manifest)
    methods = tuple(manifest.methods)
    if "em" not in methods and (manifest.em_order != 2 or manifest.variant != VARIANT_DERIVED):
        raise UsageError("em_order and variant only apply to the 'em' method, and methods does not list it")
    columns = ["alpha_bar"] + [f"Z_{m.replace('-', '_')}" for m in methods]
    if len(methods) > 1:
        for i in range(len(methods)):
            for j in range(i + 1, len(methods)):
                columns.append(f"rd_{methods[i].replace('-', '_')}_{methods[j].replace('-', '_')}")
    rows = []
    for alpha in manifest.alphas:
        values = [_partition_value(m, manifest, alpha).Z for m in methods]
        row = [alpha] + values
        if len(methods) > 1:
            for i in range(len(methods)):
                for j in range(i + 1, len(methods)):
                    row.append((values[i] - values[j]) / values[j])
        rows.append(tuple(row))
    _emit(manifest, tuple(columns), rows)
    return 0


def cmd_sweep(manifest: RunManifest) -> int:
    _reject_couplings(manifest)
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
        scan = continuity_scan(spec, jump_threshold=10.0, points=result.points)
        verdict = "no first-order transition signature" if scan.passed else "JUMP DETECTED"
        print(
            f"continuity: max jump ratio {scan.max_ratio:.3f} at alpha={scan.alpha_at_max:.6g} -> {verdict}",
            file=sys.stderr,
        )
    return 0


def cmd_verify(manifest: RunManifest) -> int:
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


def _parse_alpha_list(text: str):
    try:
        return tuple(float(part) for part in text.split(",") if part)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad alpha list {text!r}") from exc


def _parse_methods(text: str):
    methods = tuple(part.strip() for part in text.split(",") if part.strip())
    for m in methods:
        if m not in PARTITION_METHODS:
            raise argparse.ArgumentTypeError(f"unknown method {m!r}; pick from {PARTITION_METHODS}")
    return methods


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ringosc", description=__doc__.split("\n\n")[0])
    parser.add_argument("--manifest", help="JSON run manifest; replaces all other flags")
    sub = parser.add_subparsers(dest="subcommand")

    def add_shared(sp):
        sp.add_argument("--a1", type=float, default=1.0)
        sp.add_argument("--a2", type=float, default=0.0)
        sp.add_argument("--a3", type=float, default=0.0)
        sp.add_argument("--mass", type=float, default=1.0)
        sp.add_argument("--hbar", type=float, default=1.0)
        sp.add_argument("--mode", choices=MODES, default=THREE_D)
        sp.add_argument("--format", choices=FORMATS, default="csv")
        sp.add_argument("--out", default=None)

    sp = sub.add_parser("spectrum", help="level table")
    add_shared(sp)
    sp.add_argument("--n-max", type=int, default=3)
    sp.add_argument("--ell-max", type=int, default=3)
    sp.add_argument("--m", type=int, default=0)
    sp.add_argument("--ell-mode", choices=ELL_MODES, default="integer")
    sp.add_argument("--case", choices=SPECIAL_CASES, default=None)

    sp = sub.add_parser("partition", help="partition-function comparison")
    add_shared(sp)
    sp.add_argument("--alpha", type=_parse_alpha_list, required=True, metavar="A[,A...]")
    sp.add_argument("--methods", type=_parse_methods, default=("direct", "em"), metavar="LIST")
    sp.add_argument("--cutoff", type=int, default=None)
    sp.add_argument("--em-order", type=int, default=2)
    sp.add_argument("--variant", choices=VARIANTS, default=VARIANT_DERIVED)

    sp = sub.add_parser("sweep", help="temperature sweep / figure data")
    add_shared(sp)
    sp.add_argument("--alpha-min", type=float, default=0.5)
    sp.add_argument("--alpha-max", type=float, default=100.0)
    sp.add_argument("--points", type=int, default=200)
    sp.add_argument("--spacing", choices=SPACINGS, default="log")
    sp.add_argument("--z-method", choices=Z_METHODS, default="direct")
    sp.add_argument("--variant", choices=VARIANTS, default=VARIANT_DERIVED)
    sp.add_argument("--figure", choices=tuple(FIGURES), default=None)

    sp = sub.add_parser("verify", help="run the cross-check suite")

    return parser


def manifest_from_args(args: argparse.Namespace) -> RunManifest:
    common = {}
    for name in ("a1", "a2", "a3", "mass", "hbar", "mode", "format", "out"):
        if hasattr(args, name):
            common[name] = getattr(args, name)
    if args.subcommand == "spectrum":
        return RunManifest(
            subcommand="spectrum",
            n_max=args.n_max,
            ell_max=args.ell_max,
            m=args.m,
            ell_mode=args.ell_mode,
            case=args.case,
            **common,
        )
    if args.subcommand == "partition":
        return RunManifest(
            subcommand="partition",
            alphas=args.alpha,
            methods=args.methods,
            cutoff=args.cutoff,
            em_order=args.em_order,
            variant=args.variant,
            **common,
        )
    if args.subcommand == "sweep":
        return RunManifest(
            subcommand="sweep",
            alpha_min=args.alpha_min,
            alpha_max=args.alpha_max,
            points=args.points,
            spacing=args.spacing,
            z_method=args.z_method,
            variant=args.variant,
            figure=args.figure,
            **common,
        )
    return RunManifest(subcommand="verify")


_COMMANDS = {
    "spectrum": cmd_spectrum,
    "partition": cmd_partition,
    "sweep": cmd_sweep,
    "verify": cmd_verify,
}


def run(manifest: RunManifest) -> int:
    if manifest.subcommand not in _COMMANDS:
        raise UsageError(f"unknown subcommand {manifest.subcommand!r}")
    return _COMMANDS[manifest.subcommand](manifest)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
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
    except (DomainError, ConvergenceError, SweepError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front door.

Objects come in as JSON files (Blaschke products as {"zeros": [[re, im], ...]},
series as {"min_n": -M, "coeffs": [[re, im], ...]}), results go to stdout or
--out.  Exit codes: 0 success, 1 usage / malformed input, 2 math-layer error;
`verify` exits with the number of failed relations (clipped at 250).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

import numpy as np

from .blaschke import (
    BlaschkeProduct,
    build_branches,
    evaluate,
    j0,
    make_blaschke,
    preimages,
)
from .circlefun import CircleGrid, fourier_coeffs, series_from_json
from .config import RunConfig
from .errors import MATH_ERRORS
from .model_space import basis_series, canonical_basis
from .operators import (
    cuntz_family_matrices,
    gamma_b_matrix,
    master_isometry_matrix,
    mult_operator,
    transfer_matrix,
)
from .rochberg import decompose
from .transfer import from_series, outer_symbol, transfer_apply
from .verify import reports_to_json, verify_all

USAGE_EXIT = 1
MATH_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        sys.exit(USAGE_EXIT)


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}")


class UsageError(Exception):
    pass


def _load_blaschke(path: str) -> BlaschkeProduct:
    text = _read(path)
    try:
        zeros = [complex(re, im) for re, im in json.loads(text)["zeros"]]
    except (KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed Blaschke JSON in {path}: {exc}")
    # range errors (|a| >= 1, NaN) are math errors, raised outside the parse guard
    return make_blaschke(zeros)


def _load_series(path: str):
    text = _read(path)
    try:
        return series_from_json(text)
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        raise UsageError(f"malformed series JSON in {path}: {exc}")


def _emit(text: str, out: str | None):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {out}: {exc}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _config(args) -> RunConfig:
    return RunConfig(
        grid_size=args.grid,
        mode_window=args.modes,
        tol_operator=args.tol,
        seed=args.seed,
    )


def _check_format(args):
    """csv is a table of grid samples or matrix entries: only transfer, outer and matrix have one."""
    if args.format != "csv":
        return
    name = args.command
    if name == "matrix" and args.which == "cuntz":
        name = "matrix --which cuntz"  # a family of matrices, not one table
    elif name in ("transfer", "outer", "matrix"):
        return
    raise UsageError(f"csv output is not available for {name}")


def _pair(z: complex) -> list:
    return [z.real, z.imag]


def cmd_describe(args) -> int:
    b = _load_blaschke(args.blaschke)
    bs = build_branches(b)
    grid = CircleGrid(args.grid)
    j0v = j0(b, grid.angles)
    summary = {
        "degree": b.degree,
        "zeros": [_pair(complex(z)) for z in b.zeros],
        "b0": _pair(evaluate(b, 0.0)),
        "b1": _pair(evaluate(b, 1.0)),
        "theta0": bs.theta0,
        "arc_endpoints": [float(t) for t in bs.arc_endpoints],
        "j0_min": float(j0v.min()),
        "j0_max": float(j0v.max()),
    }
    _emit(json.dumps(summary, sort_keys=True, indent=1), args.out)
    return 0


def cmd_preimages(args) -> int:
    b = _load_blaschke(args.blaschke)
    if not np.isfinite(args.angle):  # before np.exp, which warns on inf
        raise ValueError(f"preimages require a finite z, got angle {args.angle}")
    bs = build_branches(b)
    pts = preimages(bs, complex(np.exp(1j * args.angle)))
    _emit(json.dumps({"preimages": [_pair(p) for p in pts]}, sort_keys=True), args.out)
    return 0


def cmd_transfer(args) -> int:
    b = _load_blaschke(args.blaschke)
    bs = build_branches(b)
    grid = CircleGrid(args.grid)
    (out,) = transfer_apply(bs, from_series(_load_series(args.series)), grid)
    if args.format == "csv":
        _emit(out.to_csv(), args.out)
    else:
        _emit(fourier_coeffs(out, args.modes).to_json(), args.out)
    return 0


def cmd_outer(args) -> int:
    b = _load_blaschke(args.blaschke)
    bs = build_branches(b)
    grid = CircleGrid(args.grid)
    o = outer_symbol(bs, grid, args.power)
    if args.format == "csv":
        _emit(o.boundary.to_csv(), args.out)
    else:
        _emit(fourier_coeffs(o.boundary, args.modes).to_json(), args.out)
    return 0


def cmd_basis(args) -> int:
    b = _load_blaschke(args.blaschke)
    grid = CircleGrid(args.grid)
    series = basis_series(canonical_basis(b), grid, args.modes)
    _emit(json.dumps([json.loads(s.to_json()) for s in series]), args.out)
    return 0


def cmd_matrix(args) -> int:
    b = _load_blaschke(args.blaschke)
    bs = build_branches(b)
    grid = CircleGrid(args.grid)
    m = args.modes
    which = args.which
    if which == "gamma":
        op = gamma_b_matrix(bs, m, grid)
    elif which == "cb":
        op = master_isometry_matrix(bs, m, grid)
    elif which == "transfer":
        op = transfer_matrix(bs, m, grid)
    elif which == "cuntz":
        ops = cuntz_family_matrices(bs, canonical_basis(b), m, grid)
        _emit(json.dumps([json.loads(o.to_json()) for o in ops]), args.out)
        return 0
    elif which.startswith("mult:"):
        op = mult_operator(_load_series(which[5:]), m)
    else:
        raise UsageError(f"unknown matrix kind {which!r}")
    if args.format == "csv":
        _emit(op.to_csv("re") + "\n" + op.to_csv("im"), args.out)
    else:
        _emit(op.to_json(), args.out)
    return 0


def cmd_decompose(args) -> int:
    b = _load_blaschke(args.blaschke)
    bs = build_branches(b)
    grid = CircleGrid(args.grid)
    dec = decompose(bs, canonical_basis(b), _load_series(args.series), grid)
    _emit(json.dumps(dec.to_json_dict(), sort_keys=True), args.out)
    return 0


def cmd_verify(args) -> int:
    b = _load_blaschke(args.blaschke)
    reports = verify_all(b, _config(args))
    _emit(reports_to_json(reports), args.out)
    failures = sum(1 for r in reports if not r.passed)
    return min(failures, 250)


@functools.cache
def build_parser() -> _Parser:
    """The argument parser, built once per process: parse_args keeps no state between calls.

    Subcommands carry no handler: main dispatches to the module's cmd_<name>
    at call time, so a rebound cmd_<name> takes effect in a process whose
    parser is already built.
    """
    p = _Parser(prog="blaschkeops", description=__doc__)
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--grid", type=int, default=4096, help="circle grid size (power of two, at least 4)")
        sp.add_argument("--modes", type=int, default=64, help="Fourier mode window")
        sp.add_argument("--tol", type=float, default=1e-6, help="operator-identity tolerance")
        sp.add_argument("--seed", type=int, default=0, help="seed for randomized checks")
        sp.add_argument("--out", default=None, help="output path (default stdout)")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("describe", help="summarize a Blaschke product")
    sp.add_argument("blaschke")
    common(sp)

    sp = sub.add_parser("preimages", help="circle preimages of e^{i angle}")
    sp.add_argument("blaschke")
    sp.add_argument("--angle", type=float, required=True, help="target angle in radians")
    common(sp)

    sp = sub.add_parser("transfer", help="apply the transfer operator to a series")
    sp.add_argument("blaschke")
    sp.add_argument("series")
    common(sp)

    sp = sub.add_parser("outer", help="outer power J^p of the boundary symbol")
    sp.add_argument("blaschke")
    sp.add_argument("--power", type=float, default=1.0)
    common(sp)

    sp = sub.add_parser("basis", help="canonical model-space basis as Fourier series")
    sp.add_argument("blaschke")
    common(sp)

    sp = sub.add_parser("matrix", help="truncated operator matrices")
    sp.add_argument("blaschke")
    sp.add_argument("--which", required=True, help="gamma | cb | cuntz | transfer | mult:SERIES.json")
    common(sp)

    sp = sub.add_parser("decompose", help="Rochberg decomposition of a series")
    sp.add_argument("blaschke")
    sp.add_argument("series")
    common(sp)

    sp = sub.add_parser("verify", help="run the certification suite; exit = failure count")
    sp.add_argument("blaschke")
    common(sp)
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _config(args)  # one rule for --grid, --modes and --tol on every command
        _check_format(args)
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return USAGE_EXIT
    except MATH_ERRORS as exc:
        sys.stderr.write(f"math error: {exc}\n")
        return MATH_EXIT


if __name__ == "__main__":
    sys.exit(main())

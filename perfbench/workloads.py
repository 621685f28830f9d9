"""The benchmark's workloads: inputs made from a seed, their items, and output checks.

A workload's `tasks()` lists its items in order, each as a label and a call
that runs it; a pass runs every item once. An item is one product's
`verify_all` or one CLI command. Every item reports how many operations it
attempted (16 relations, or one command), how many relations were reported
uncertified (`pass: false`), and what failed the benchmark's own output check
(a CLI command with a nonzero exit among them). Only the timed call is inside
an item's time; serialising and checking its output are not.
"""

from __future__ import annotations

import functools
import importlib.util
import json
import math
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from blaschkeops import RELATIONS, RunConfig, cli, make_blaschke, verify_all
from blaschkeops.verify import reports_to_json

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("perfbench_oracles", ROOT / "tests" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)

#: the certification zoo of scripts/run_verify.py, plus {0.8}, which keeps the
#: known truncation defect in view (6 of its 16 relations fail at defaults)
ZOO = {
    "z^2": [0, 0],
    "z^3": [0, 0, 0],
    "single 0.5": [0.5],
    "zero at origin": [0, 0.5],
    "two mixed": [0.5, -0.3j],
    "three mixed": [0.5, -0.3j, 0.2 + 0.4j],
    "single 0.8": [0.8],
}

SIX_ZEROS = [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j]

CLI_GRID = 8192
CLI_PRODUCTS = 12
CLI_MAX_RADIUS = 0.7
#: one product of each degree 2..8, then 2..6; the seed shuffles them and draws
#: the zeros, so a pass does the same amount of work whatever the seed
CLI_DEGREES = [2 + k % 7 for k in range(CLI_PRODUCTS)]
CLI_COMMANDS = ("describe", "preimages", "outer", "transfer", "decompose", "matrix")

#: the library's pointwise tolerance, fixed here so that the check cannot loosen with it
TOL_FUNCTION = 1e-8
PREIMAGE_TOL = 1e-10
#: preimage targets keep this far (radians) from the branch point b(1)
BRANCH_MARGIN = 1e-3


@dataclass
class Item:
    label: str
    start: float  # perf_counter() at the start and the end of the timed call
    end: float
    attempted: int
    uncertified: int = 0  # relations reported with pass: false
    check_failures: list = field(default_factory=list)
    payload: str | None = None  # the certified bytes of a verify item
    certified_columns: int = 0
    paused: float = 0.0  # time the runner spent on reference points during the call

    @property
    def seconds(self) -> float:
        return self.end - self.start - self.paused

    @property
    def broken(self) -> int:
        """Operations that raised, exited nonzero or failed the output check."""
        return min(self.attempted, len(self.check_failures))

    @property
    def failed(self) -> int:
        """Failed operations: broken ones plus relations reported uncertified."""
        return min(self.attempted, self.uncertified + len(self.check_failures))


def _timed(fn, *args):
    t0 = time.perf_counter()
    out = fn(*args)
    return out, t0, time.perf_counter()


# -- verify workloads ---------------------------------------------------------------


def _interior_columns(relation: str, inner: int) -> int:
    # covariance_H2 is checked on the analytic block [0, inner]; the others on [-inner, inner]
    return inner + 1 if relation == "covariance_H2" else 2 * inner + 1


def check_reports(reports: list) -> tuple[list, int, int]:
    """Output check of one verify_all run: (failures, uncertified relations, certified columns)."""
    failures = []
    names = [r.relation for r in reports]
    if names != list(RELATIONS):
        failures.append(f"relations {names} differ from RELATIONS")
    uncertified = certified = 0
    for r in reports:
        residual, tol = r.residual, r.tolerance
        if not isinstance(residual, float) or math.isnan(residual):
            failures.append(f"{r.relation}: residual {residual!r} is not a number")
            continue
        if not isinstance(tol, float) or not 0.0 < tol < math.inf:
            failures.append(f"{r.relation}: tolerance {tol!r} is not a positive number")
            continue
        if r.passed != (residual < tol):
            failures.append(f"{r.relation}: pass={r.passed} contradicts residual {residual:.3e} < {tol:.0e}")
        uncertified += not r.passed
        if "excluded_columns" in r.params:
            total = _interior_columns(r.relation, r.params["interior"])
            certified += total - len(r.params["excluded_columns"])
    return failures, uncertified, certified


class VerifyWorkload:
    """`verify_all` on a fixed list of products; the seed drives the randomized checks."""

    def __init__(self, products: dict, config: RunConfig):
        self.products = {label: make_blaschke(zeros) for label, zeros in products.items()}
        self.config = config

    def tasks(self) -> list:
        return [(label, functools.partial(self._run, label, b)) for label, b in self.products.items()]

    def _run(self, label: str, b) -> Item:
        try:
            reports, t0, t1 = _timed(verify_all, b, self.config)
        except Exception:  # a crash is a failed item, not a crashed benchmark
            return Item(label, math.nan, math.nan, len(RELATIONS), check_failures=[traceback.format_exc()])
        failures, uncertified, certified = check_reports(reports)
        return Item(label, t0, t1, len(RELATIONS), uncertified, failures, reports_to_json(reports), certified)


# -- CLI workload ----------------------------------------------------------------------


def _random_zeros(rng: np.random.Generator, degree: int) -> list:
    radius = CLI_MAX_RADIUS * np.sqrt(rng.uniform(0.0, 1.0, degree))  # uniform on the disc
    return list(radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, degree)))


def _random_analytic_series(rng: np.random.Generator, degree: int = 16) -> dict:
    coeffs = np.zeros(2 * degree + 1, dtype=complex)
    coeffs[degree:] = rng.standard_normal(degree + 1) + 1j * rng.standard_normal(degree + 1)
    coeffs /= np.sum(np.abs(coeffs))
    return {"min_n": -degree, "coeffs": [[c.real, c.imag] for c in coeffs]}


def _preimage_angle(rng: np.random.Generator, zeros: list) -> float:
    branch = float(np.angle(oracles.blaschke_value(zeros, 1.0)))
    while True:
        angle = float(rng.uniform(-np.pi, np.pi))
        gap = abs(np.angle(np.exp(1j * (angle - branch))))
        if gap > BRANCH_MARGIN:
            return angle


class CliWorkload:
    """Six CLI commands per seeded random product, each called in-process through `cli.main`.

    Every command reads its product from JSON and builds its own branch system,
    as separate invocations do, so no per-product cache carries over.
    """

    def __init__(self, seed: int, workdir: Path):
        rng = np.random.default_rng(seed)
        workdir.mkdir(parents=True, exist_ok=True)
        self.workdir = workdir
        self.products = []
        for k, degree in enumerate(rng.permutation(CLI_DEGREES)):
            zeros = _random_zeros(rng, int(degree))
            bpath, spath = workdir / f"b{k}.json", workdir / f"s{k}.json"
            bpath.write_text(json.dumps({"zeros": [[z.real, z.imag] for z in zeros]}))
            spath.write_text(json.dumps(_random_analytic_series(rng)))
            angle = _preimage_angle(rng, zeros)
            b, s, grid = str(bpath), str(spath), ["--grid", str(CLI_GRID)]
            commands = {
                "describe": ["describe", b, *grid],
                "preimages": ["preimages", b, "--angle", repr(angle), *grid],
                "outer": ["outer", b, "--power", "-0.5", *grid],
                "transfer": ["transfer", b, s, *grid],
                "decompose": ["decompose", b, s, *grid],
                "matrix": ["matrix", b, "--which", "transfer", *grid],
            }
            self.products.append((k, zeros, angle, commands))

    def _check(self, command: str, zeros: list, angle: float, text: str) -> list:
        out = json.loads(text)
        if command == "describe" and out["degree"] != len(zeros):
            return [f"describe: degree {out['degree']} != {len(zeros)}"]
        if command == "preimages":
            got = np.array([complex(re, im) for re, im in out["preimages"]])
            want = oracles.preimage_roots(zeros, np.exp(1j * angle))
            dist = np.abs(got[:, None] - want[None, :])
            worst = max(dist.min(axis=0).max(), dist.min(axis=1).max())
            if got.size != want.size or not worst <= PREIMAGE_TOL:
                return [f"preimages: {got.size} points, distance {worst:.3e} to the oracle roots"]
        if command == "decompose":
            worst = max(out["residual"], *out["membership"])
            if not worst < TOL_FUNCTION:
                return [f"decompose: residual/membership {worst:.3e} >= {TOL_FUNCTION:.0e}"]
        return []

    def tasks(self) -> list:
        return [(f"p{k}:{command}", functools.partial(self._run, f"p{k}:{command}", k, zeros, angle, command, argv))
                for k, zeros, angle, commands in self.products for command, argv in commands.items()]

    def _run(self, label: str, k: int, zeros: list, angle: float, command: str, argv: list) -> Item:
        out_path = self.workdir / f"out{k}_{command}.json"
        out_path.unlink(missing_ok=True)
        try:
            code, t0, t1 = _timed(cli.main, [*argv, "--out", str(out_path)])
            if code == 0:
                failures = self._check(command, zeros, angle, out_path.read_text())
            else:
                failures = [f"{label}: exit code {code}"]
        except Exception:  # a crash is a failed item, not a crashed benchmark
            t0 = t1 = math.nan
            failures = [traceback.format_exc()]
        return Item(label, t0, t1, 1, check_failures=failures)


def run_pass(workload, tracer=None) -> list:
    """Every item of the workload once, in order; a tracer, if given, learns which item runs."""
    items = []
    for label, task in workload.tasks():
        if tracer is not None:
            tracer.item = label
        items.append(task())
    return items


WORKLOADS = ("verify_zoo", "verify_six_w128", "cli_calculus")


def make(name: str, seed: int, workdir: Path):
    """Generate the inputs of one workload; this is the timed part of set-up."""
    if name == "verify_zoo":
        return VerifyWorkload(ZOO, RunConfig(grid_size=4096, mode_window=64, seed=seed))
    if name == "verify_six_w128":
        return VerifyWorkload({"six zeros": SIX_ZEROS}, RunConfig(grid_size=4096, mode_window=128, seed=seed))
    if name == "cli_calculus":
        return CliWorkload(seed, workdir)
    raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")

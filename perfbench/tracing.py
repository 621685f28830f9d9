"""Spans around the calls into each blaschkeops layer, recorded from the benchmark's side.

`installed(tracer)` wraps the functions named in TRACED. Each wrapper is
rebound in every blaschkeops module that imported the function by name:
`verify` imports `compose`, and `operators` calls its own `compose`, so
patching one module alone would leave inner calls unseen. Three methods are
wrapped on their classes, and the entries of the relation dispatch table are
wrapped so that each relation gets its own span.

A span is [name, start, end, parent span index, item]. Spans stay in memory
and are written out once, when the run ends. Self time is a span's duration
minus the durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

from workloads import CLI_COMMANDS

BUILDERS = (
    "gamma_b_matrix",
    "master_isometry_matrix",
    "master_isometry_matrix_direct",
    "cuntz_family_matrices",
    "weighted_composition_matrix",
    "transfer_matrix",
)

TRACED = {
    "blaschke": ("build_branches", "BranchSystem.theta_inv", "BranchSystem.theta", "evaluate", "j0"),
    "circlefun": ("outer_function", "OuterFunction.eval", "fourier_coeffs", "synthesize"),
    "transfer": ("grid_fibre", "outer_symbol", "transfer_apply", "module_gram_deviation"),
    "model_space": ("validate_basis", "linking_unitary", "linking_reconstruction_deviation"),
    "operators": BUILDERS + ("compose", "operator_norm", "pair_power_gram", "interior_residual"),
    "rochberg": ("decompose", "reconstruct"),
    "verify": ("verify_solution1",),
    "cli": ("main",) + tuple(f"cmd_{c}" for c in CLI_COMMANDS),
}


def span_name(module: str, attr: str) -> str:
    return f"cli.{attr[4:]}" if attr.startswith("cmd_") else f"{module}.{attr}"


def _size(args, kwargs, index: int, key: str) -> int:
    return int(np.size(args[index] if len(args) > index else kwargs[key]))


class Tracer:
    def __init__(self):
        self.spans: list = []
        self.item = None  # label of the item being run; the runner sets it
        self.counts: Counter = Counter()
        self.keys: defaultdict = defaultdict(set)
        self._stack: list = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = getattr(self, "_note_" + name.replace(".", "_"), None)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.item]
            spans.append(span)
            stack.append(index)
            outcome = None
            span[1] = perf_counter()
            try:
                outcome = fn(*args, **kwargs)
                return outcome
            except Exception as exc:
                outcome = exc
                raise
            finally:
                span[2] = perf_counter()
                stack.pop()
                if note is not None:
                    note(span, args, kwargs, outcome)

        return traced

    # counts taken at the layer boundaries --------------------------------------

    def _note_blaschke_BranchSystem_theta_inv(self, span, args, kwargs, outcome):
        self.counts["theta_inv.points"] += _size(args, kwargs, 1, "s")

    def _note_blaschke_BranchSystem_theta(self, span, args, kwargs, outcome):
        points = _size(args, kwargs, 1, "t")
        self.counts["theta.points"] += points
        if span[3] >= 0 and self.spans[span[3]][0] == "blaschke.BranchSystem.theta_inv":
            self.counts["theta.points_under_inv"] += points

    def _note_circlefun_OuterFunction_eval(self, span, args, kwargs, outcome):
        self.counts["outer_eval.points"] += _size(args, kwargs, 1, "z")

    def _note_per_grid(self, name, args, kwargs):
        bs = args[0] if args else kwargs["bs"]
        grid = args[1] if len(args) > 1 else kwargs["grid"]
        # the item stands for the branch system: each verify_all or CLI command builds one
        self.keys[name].add((self.item, bs.owner.zeros, grid.size))

    def _note_transfer_grid_fibre(self, span, args, kwargs, outcome):
        self._note_per_grid("grid_fibre", args, kwargs)

    def _note_transfer_outer_symbol(self, span, args, kwargs, outcome):
        self._note_per_grid("outer_symbol", args, kwargs)

    def _note_operators_interior_residual(self, span, args, kwargs, outcome):
        a = args[0] if args else kwargs["a"]
        inner = args[2] if len(args) > 2 else kwargs["inner"]
        lo = 0 if a.space == "H2" else -inner
        columns = min(inner, a.col_modes[1]) - max(lo, a.col_modes[0]) + 1
        self.counts["interior.columns"] += columns
        if isinstance(outcome, tuple):  # a raise means that no column was certified
            self.counts["interior.certified"] += columns - len(outcome[1])


@contextmanager
def installed(tracer: Tracer):
    """Route the calls named in TRACED, and every relation, through the tracer's spans."""
    package = [m for n, m in sys.modules.items() if n == "blaschkeops" or n.startswith("blaschkeops.")]
    undo = []
    try:
        for module_name, attrs in TRACED.items():
            module = importlib.import_module(f"blaschkeops.{module_name}")
            for attr in attrs:
                name = span_name(module_name, attr)
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(module, cls_name)
                    original = cls.__dict__[method]
                    setattr(cls, method, tracer.wrap(name, original))
                    undo.append((cls, method, original))
                    continue
                original = getattr(module, attr)
                wrapped = tracer.wrap(name, original)
                for mod in package:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapped)
                            undo.append((mod, key, original))
        table = importlib.import_module("blaschkeops.verify")._RELATION_FUNCS
        for relation, fn in list(table.items()):
            table[relation] = tracer.wrap(f"verify.{relation}", fn)
            undo.append((table, relation, fn))
        yield tracer
    finally:
        for owner, key, original in reversed(undo):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)


def span_stats(spans: list) -> dict:
    """Per span name: calls, inclusive seconds and self seconds."""
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    stats = defaultdict(lambda: {"calls": 0, "s": 0.0, "self_s": 0.0})
    for index, (name, start, end, _, _) in enumerate(spans):
        entry = stats[name]
        entry["calls"] += 1
        entry["s"] += end - start
        entry["self_s"] += end - start - child[index]
    return stats


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, relations) -> dict:
    """The per-layer metrics of one traced pass: name -> (value, unit)."""
    st = span_stats(tracer.spans)
    c = tracer.counts
    out = {}

    def put(name, stat, unit="s"):
        out[f"{name}.{stat}"] = (st[name][stat] if name in st else 0, "count" if stat == "calls" else unit)

    put("blaschke.build_branches", "calls")
    put("blaschke.build_branches", "self_s")
    out["blaschke.BranchSystem.theta_inv.points"] = (c["theta_inv.points"], "count")
    put("blaschke.BranchSystem.theta_inv", "self_s")
    out["blaschke.BranchSystem.theta_inv.lift_evals_per_point"] = (
        _ratio(c["theta.points_under_inv"], c["theta_inv.points"]), "ratio")
    out["blaschke.BranchSystem.theta.points"] = (c["theta.points"], "count")
    put("blaschke.BranchSystem.theta", "self_s")
    put("blaschke.evaluate", "self_s")
    put("blaschke.j0", "self_s")

    put("circlefun.outer_function", "calls")
    put("circlefun.outer_function", "self_s")
    out["circlefun.OuterFunction.eval.points"] = (c["outer_eval.points"], "count")
    put("circlefun.OuterFunction.eval", "self_s")
    put("circlefun.fourier_coeffs", "self_s")
    put("circlefun.synthesize", "self_s")

    for fn in ("grid_fibre", "outer_symbol"):
        put(f"transfer.{fn}", "calls")
        out[f"transfer.{fn}.reuse"] = (_ratio(st[f"transfer.{fn}"]["calls"], len(tracer.keys[fn])), "ratio")
    put("transfer.grid_fibre", "self_s")
    put("transfer.transfer_apply", "self_s")
    put("transfer.module_gram_deviation", "self_s")

    for fn in TRACED["model_space"]:
        put(f"model_space.{fn}", "self_s")

    for fn in BUILDERS + ("compose", "operator_norm", "pair_power_gram"):
        put(f"operators.{fn}", "calls")
        put(f"operators.{fn}", "self_s")
    put("operators.interior_residual", "calls")
    out["operators.certified_ratio"] = (_ratio(c["interior.certified"], c["interior.columns"]), "ratio")

    put("rochberg.decompose", "self_s")
    put("rochberg.reconstruct", "self_s")

    for relation in relations:
        put(f"verify.{relation}", "s")
    put("verify.verify_solution1", "self_s")

    for command in CLI_COMMANDS:
        put(f"cli.{command}", "s")
    cli_names = ["cli.main"] + [f"cli.{c}" for c in CLI_COMMANDS]
    out["cli.self_s"] = (sum(st[n]["self_s"] for n in cli_names if n in st), "s")
    return out


_LIBRARY_SPANS = {span_name(m, a) for m, attrs in TRACED.items() if m != "cli" for a in attrs}

#: spans each workload must record; a name missing from the trace means a
#: rebinding was missed, which would otherwise read as a layer doing no work
REQUIRED = {
    "verify_zoo": _LIBRARY_SPANS,
    "verify_six_w128": _LIBRARY_SPANS,
    "cli_calculus": {
        "cli.main", *(f"cli.{c}" for c in CLI_COMMANDS),
        "blaschke.build_branches", "blaschke.BranchSystem.theta_inv", "blaschke.BranchSystem.theta",
        "blaschke.evaluate", "blaschke.j0",
        "circlefun.outer_function", "circlefun.fourier_coeffs", "circlefun.synthesize",
        "transfer.grid_fibre", "transfer.outer_symbol", "transfer.transfer_apply",
        "model_space.validate_basis", "operators.transfer_matrix",
        "rochberg.decompose", "rochberg.reconstruct",
    },
}


def missing_spans(tracer: Tracer, workload: str, relations) -> list:
    required = set(REQUIRED[workload])
    if workload.startswith("verify"):
        required |= {f"verify.{r}" for r in relations}
    seen = {span[0] for span in tracer.spans}
    return sorted(required - seen)

"""Orchestrated certification of the operator identities.

Each relation is checked numerically at a stated tolerance and reported with
its residual and the truncation parameters that certify it (window, interior
block, tail threshold, excluded columns).  Pass/fail policy lives here and
only here; the math modules report numbers.

Every relation also has at least one negative control exercised by the test
suite (non-unitary rotation, b(0) != 0 isometry claim, non-orthonormal module
family): a verifier that cannot fail certifies nothing.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .blaschke import BlaschkeProduct, build_branches, evaluate, j0
from .circlefun import (
    BoundaryFunction,
    CircleGrid,
    FourierSeries,
    exponential,
    fourier_coeffs,
    synthesize,
)
from .config import RunConfig
from .errors import MATH_ERRORS
from .model_space import (
    canonical_basis,
    induced_module_basis,
    linking_reconstruction_deviation,
    linking_unitary,
    pointwise_unitarity_deviation,
)
from .operators import (
    TruncatedOperator,
    adjoint,
    block,
    compose,
    cuntz_family_matrices,
    gamma_b_matrix,
    identity_operator,
    interior_residual,
    master_isometry_matrix,
    master_isometry_matrix_direct,
    mult_operator,
    operator_norm,
    pair_power_gram,
    restrict_to_h2,
    toeplitz_operator,
    transfer_matrix,
    uncertified_modes,
    weighted_composition_matrix,
)
from .rochberg import decompose
from .transfer import (
    ModuleVector,
    arcs_basis,
    expansion_deviation,
    expansion_points,
    fibre_power_means,
    from_series,
    gram_deviation,
    gram_functions,
    grid_fibre,
    module_gram_deviation,
    outer_symbol,
    product_vector,
    transfer_apply,
)

RELATIONS = (
    "cuntz_orthogonality",
    "cuntz_completeness",
    "covariance_L2",
    "covariance_H2",
    "implements_transfer",
    "master_isometry",
    "h2_reduction",
    "transfer_h2_invariance",
    "left_inverse",
    "isometry_criterion",
    "norm_formula",
    "module_onb",
    "arcs_onb",
    "linking_unitary",
    "rochberg_roundtrip",
    "solution1_equivalence",
)


@dataclass(frozen=True)
class VerificationReport:
    relation: str
    residual: float
    tolerance: float
    passed: bool
    params: dict

    def to_dict(self) -> dict:
        return {
            "relation": self.relation,
            "residual": self.residual,
            "grid": self.params.get("grid"),
            "tolerance": self.tolerance,
            "pass": self.passed,
            "params": self.params,
        }


def _report(relation: str, residual: float, tol: float, params: dict) -> VerificationReport:
    residual = float(residual)
    return VerificationReport(relation, residual, float(tol), bool(residual < tol), params)


def reports_to_json(reports: list) -> str:
    return json.dumps([r.to_dict() for r in reports], sort_keys=True, indent=1)


class _Context:
    """Per-run lazy cache of the shared objects (matrices, bases, symbols)."""

    def __init__(self, b: BlaschkeProduct, config: RunConfig, interior: int | None = None):
        self.b = b
        self.config = config
        self.grid = CircleGrid(config.grid_size)
        self.window = config.mode_window
        self.interior = config.interior if interior is None else interior
        self.rng = np.random.default_rng(config.seed)
        self.bs = build_branches(b)

    def base_params(self) -> dict:
        return {
            "zeros": [[z.real, z.imag] for z in map(complex, self.b.zeros)],
            "grid": self.grid.size,
            "window": self.window,
            "interior": self.interior,
            "eps_tail": self.config.eps_tail,
        }

    # shared ingredients ----------------------------------------------------

    @cached_property
    def basis(self):
        return canonical_basis(self.b)

    @cached_property
    def module_basis(self):
        return induced_module_basis(self.bs, self.basis, self.grid)

    @cached_property
    def cuntz(self):
        return cuntz_family_matrices(self.bs, self.basis, self.window, self.grid)

    @cached_property
    def c_matrix(self):
        return master_isometry_matrix(self.bs, self.window, self.grid)

    @cached_property
    def c_direct(self):
        return master_isometry_matrix_direct(self.bs, self.window, self.grid)

    @cached_property
    def gamma(self):
        return gamma_b_matrix(self.bs, self.window, self.grid)

    @cached_property
    def transfer_op(self):
        return transfer_matrix(self.bs, self.window, self.grid)

    @cached_property
    def b_series(self):
        return fourier_coeffs(BoundaryFunction(self.grid, evaluate(self.b, self.grid.points)), self.window)

    def mult_symbol(self, phi: FourierSeries) -> TruncatedOperator:
        return mult_operator(phi, self.window)

    def transfer_symbol(self, phi: FourierSeries) -> TruncatedOperator:
        lphi = transfer_apply(self.bs, from_series(phi), self.grid)
        return mult_operator(fourier_coeffs(lphi, self.window), self.window)

    def random_symbol(self, window: int = 8) -> FourierSeries:
        c = self.rng.standard_normal(2 * window + 1) + 1j * self.rng.standard_normal(2 * window + 1)
        return FourierSeries(c / np.sum(np.abs(c)))


# -- relation checks ----------------------------------------------------------


def _rel_cuntz_orthogonality(ctx: _Context):
    s = ctx.cuntz
    worst, excluded = 0.0, []
    zero = TruncatedOperator(
        np.zeros_like(s[0].matrix), s[0].row_modes, s[0].col_modes, "L2", np.zeros(s[0].matrix.shape[1])
    )
    eye = identity_operator(ctx.window)
    for i, si in enumerate(s):
        for j, sj in enumerate(s):
            target = eye if i == j else zero
            r, excl = interior_residual(
                compose(adjoint(si), sj), target, ctx.interior,
                eps_tail=ctx.config.eps_tail, tail_sources=[si, sj],
            )
            worst = max(worst, r)
            excluded = sorted(set(excluded) | set(excl))
    return worst, {"excluded_columns": excluded}


def _rel_cuntz_completeness(ctx: _Context):
    s = ctx.cuntz
    total = None
    for si in s:
        p = compose(si, adjoint(si))
        total = p.matrix if total is None else total + p.matrix
    op = TruncatedOperator(total, s[0].row_modes, s[0].col_modes, "L2", np.full(total.shape[1], np.inf))
    r, excl = interior_residual(
        op, identity_operator(ctx.window), ctx.interior,
        eps_tail=ctx.config.eps_tail, tail_sources=list(s),
    )
    return r, {"excluded_columns": excl}


def _successor_tails(op: TruncatedOperator) -> TruncatedOperator:
    """A tail source only: column n carries the measured tail of op's column n + 1.

    Column n + 1 of S_i is v_i b^{n+1}, the column both sides of the covariance
    relation reproduce at n.  The last column has no successor in op and
    carries inf, "not certified".  The matrix is op's own, not the shifted one.
    """
    return replace(op, column_tail=np.append(op.column_tail[1:], np.inf))


def _rel_covariance_l2(ctx: _Context):
    pe1 = ctx.mult_symbol(exponential(1, ctx.window))
    pb = ctx.mult_symbol(ctx.b_series)
    worst, excluded = 0.0, []
    for si in ctx.cuntz:
        # column n is certified by the tails of S_i at n and n + 1
        r, excl = interior_residual(
            compose(si, pe1), compose(pb, si), ctx.interior,
            eps_tail=ctx.config.eps_tail, tail_sources=[si, _successor_tails(si)],
        )
        worst = max(worst, r)
        excluded = sorted(set(excluded) | set(excl))
    return worst, {"excluded_columns": excluded}


def _rel_covariance_h2(ctx: _Context):
    te1 = toeplitz_operator(exponential(1, ctx.window), ctx.window)
    tb = toeplitz_operator(ctx.b_series, ctx.window)
    worst, excluded = 0.0, []
    for si in ctx.cuntz:
        ri = restrict_to_h2(si)
        r, excl = interior_residual(
            compose(ri, te1), compose(tb, ri), ctx.interior,
            eps_tail=ctx.config.eps_tail, tail_sources=[ri, _successor_tails(ri)],
        )
        worst = max(worst, r)
        excluded = sorted(set(excluded) | set(excl))
    return worst, {"excluded_columns": excluded}


def _rel_implements_transfer(ctx: _Context):
    c = ctx.c_matrix
    jh = outer_symbol(ctx.bs, ctx.grid, 0.5).boundary.values
    symbols = [exponential(0, 2), exponential(1, 2), exponential(2, 2), ctx.random_symbol()]
    worst, excluded = 0.0, []
    for phi in symbols:
        lhs = compose(adjoint(c), compose(ctx.mult_symbol(phi), c))
        rhs = ctx.transfer_symbol(phi)
        # sharp certificate: the middle product pi(phi) C_b sampled directly
        phivals = synthesize(phi, ctx.grid.points, analytic=False)
        middle = weighted_composition_matrix(ctx.bs, phivals * jh, ctx.window, ctx.grid)
        r, excl = interior_residual(
            lhs, rhs, ctx.interior, eps_tail=ctx.config.eps_tail,
            tail_sources=[ctx.c_direct, middle],
        )
        worst = max(worst, r)
        excluded = sorted(set(excluded) | set(excl))
    return worst, {"symbols": ["e_0", "e_1", "e_2", "random(window=8)"], "excluded_columns": excluded}


def _rel_master_isometry(ctx: _Context):
    c = ctx.c_matrix
    r, excl = interior_residual(
        compose(adjoint(c), c), identity_operator(ctx.window), ctx.interior,
        eps_tail=ctx.config.eps_tail, tail_sources=[ctx.c_direct],
    )
    cross, excl2 = interior_residual(
        c, ctx.c_direct, ctx.interior, eps_tail=ctx.config.eps_tail, tail_sources=[ctx.c_direct]
    )
    return max(r, cross), {
        "isometry_defect": r,
        "construction_agreement": cross,
        "excluded_columns": sorted(set(excl) | set(excl2)),
    }


def _rel_h2_reduction(ctx: _Context):
    c = ctx.c_direct
    m, inner = ctx.window, ctx.interior
    bad = uncertified_modes([c], ctx.config.eps_tail)
    lower = block(c, (-m, -1), (0, inner))  # analytic columns leaking downward
    upper = block(c, (0, m), (-inner, -1))  # co-analytic columns leaking upward
    worst = 0.0
    excluded = []
    for blk in (lower, upper):
        cols = blk.col_mode_array
        mask = np.array([n in bad for n in cols])
        vals = np.abs(blk.matrix).max(axis=0)
        vals[mask] = 0.0
        worst = max(worst, float(vals.max()))
        excluded.extend(int(n) for n in cols[mask])
    return worst, {"excluded_columns": sorted(set(excluded))}


def _rel_transfer_h2_invariance(ctx: _Context):
    means = fibre_power_means(grid_fibre(ctx.bs, ctx.grid), 32)
    win = ctx.grid.size // 4
    worst = 0.0
    for vals in means[32:]:  # n = 0..32
        s = fourier_coeffs(BoundaryFunction(ctx.grid, vals), win)
        worst = max(worst, s.negative_energy())
    return worst, {"modes": "0..32", "coefficient_window": win}


def _rel_left_inverse(ctx: _Context):
    eye = identity_operator(ctx.window)
    r1, excl1 = interior_residual(
        compose(ctx.transfer_op, ctx.gamma), eye, ctx.interior,
        eps_tail=ctx.config.eps_tail, tail_sources=[ctx.transfer_op, ctx.gamma],
    )
    j0inv = fourier_coeffs(
        BoundaryFunction(ctx.grid, (1.0 / j0(ctx.b, ctx.grid.angles)).astype(complex)), ctx.window
    )
    pj0inv = ctx.mult_symbol(j0inv)
    r2, excl2 = interior_residual(
        compose(ctx.transfer_op, pj0inv), adjoint(ctx.gamma), ctx.interior,
        eps_tail=ctx.config.eps_tail, tail_sources=[ctx.transfer_op, pj0inv],
    )
    return max(r1, r2), {
        "left_inverse_defect": r1,
        "adjoint_identity_defect": r2,
        "excluded_columns": sorted(set(excl1) | set(excl2)),
    }


def _rel_isometry_criterion(ctx: _Context):
    gram = compose(adjoint(ctx.gamma), ctx.gamma)
    b0 = evaluate(ctx.b, 0.0)
    dev, excl = interior_residual(
        gram, identity_operator(ctx.window), ctx.interior,
        eps_tail=ctx.config.eps_tail, tail_sources=[ctx.gamma],
    )
    # (Gamma e_1, Gamma e_0) = (b, 1) = b(0), isometric or not
    entry_defect = abs(gram.entry(0, 1) - b0)
    residual = max(entry_defect, abs(dev - abs(b0)))
    return residual, {
        "b0": [b0.real, b0.imag],
        "gram_deviation": dev,
        "is_isometry": bool(dev < ctx.config.tol_operator),
        "excluded_columns": excl,
    }


def _rel_norm_formula(ctx: _Context, m_list=(32, 64, 128)):
    jm_half = outer_symbol(ctx.bs, ctx.grid, -0.5)
    # target: sup L(|m|^2) = sup of J0^{-1} over the preimage fibre
    fib = grid_fibre(ctx.bs, ctx.grid)
    lm2 = (1.0 / j0(ctx.b, np.angle(fib))).mean(axis=0)
    target = float(np.sqrt(lm2.max()))
    norms = []
    for m in m_list:
        sym = fourier_coeffs(jm_half.boundary, m)
        c = ctx.c_matrix if m == ctx.window else master_isometry_matrix(ctx.bs, m, ctx.grid)
        t = compose(mult_operator(sym, m), c)
        norms.append(operator_norm(t))
    drops = max(0.0, float(np.max(-np.diff(norms)))) if len(norms) > 1 else 0.0
    rel_err = abs(norms[-1] - target) / target
    return rel_err + (drops if drops > 1e-12 else 0.0), {
        "windows": list(m_list),
        "norms": [float(x) for x in norms],
        "target": target,
        "monotonicity_defect": drops,
    }


def _rel_module_onb(ctx: _Context):
    dev = module_gram_deviation(ctx.bs, ctx.module_basis, ctx.grid)
    return dev, {"family": "canonical v_i * J^{-1/2}"}


def _rel_arcs_onb(ctx: _Context):
    dev = module_gram_deviation(ctx.bs, arcs_basis(ctx.bs), ctx.grid)
    return dev, {"family": "sqrt(N) arc indicators"}


def _rel_linking_unitary(ctx: _Context):
    arcs = arcs_basis(ctx.bs)
    u = linking_unitary(ctx.bs, ctx.module_basis, arcs, ctx.grid)
    r1 = pointwise_unitarity_deviation(u)
    r2 = linking_reconstruction_deviation(ctx.bs, ctx.module_basis, arcs, ctx.grid)
    return max(r1, r2), {"unitarity_defect": r1, "reconstruction_defect": r2}


def _rel_rochberg_roundtrip(ctx: _Context):
    coeffs = np.zeros(33, dtype=complex)
    coeffs[16:] = ctx.rng.standard_normal(17) + 1j * ctx.rng.standard_normal(17)
    f = FourierSeries(coeffs / np.sum(np.abs(coeffs)))
    dec = decompose(ctx.bs, ctx.basis, f, ctx.grid, check_basis=False)
    residual = max(dec.residual, max(dec.membership))
    return residual, {
        "input_degree": 16,
        "reconstruction_error": dec.residual,
        "max_negative_energy": float(max(dec.membership)),
    }


def _rel_solution1(ctx: _Context):
    rep = verify_solution1(ctx.bs, ctx.module_basis, ctx.config, interior=ctx.interior)
    return rep.residual, rep.params


_RELATION_FUNCS = {
    "cuntz_orthogonality": _rel_cuntz_orthogonality,
    "cuntz_completeness": _rel_cuntz_completeness,
    "covariance_L2": _rel_covariance_l2,
    "covariance_H2": _rel_covariance_h2,
    "implements_transfer": _rel_implements_transfer,
    "master_isometry": _rel_master_isometry,
    "h2_reduction": _rel_h2_reduction,
    "transfer_h2_invariance": _rel_transfer_h2_invariance,
    "left_inverse": _rel_left_inverse,
    "isometry_criterion": _rel_isometry_criterion,
    "norm_formula": _rel_norm_formula,
    "module_onb": _rel_module_onb,
    "arcs_onb": _rel_arcs_onb,
    "linking_unitary": _rel_linking_unitary,
    "rochberg_roundtrip": _rel_rochberg_roundtrip,
    "solution1_equivalence": _rel_solution1,
}

#: relations judged at the pointwise (tol_function) tolerance
_FUNCTION_LEVEL = {"transfer_h2_invariance", "module_onb", "rochberg_roundtrip"}


def _tolerance_for(relation: str, config: RunConfig) -> float:
    if relation == "norm_formula":
        return 0.05
    if relation in _FUNCTION_LEVEL:
        return config.tol_function
    return config.tol_operator


def verify_all(b: BlaschkeProduct, config: RunConfig | None = None) -> list:
    """Run every relation; failures are collected, not fatal; order is fixed."""
    config = config or RunConfig()
    ctx = _Context(b, config)
    reports = []
    for name in RELATIONS:
        try:
            residual, params = _RELATION_FUNCS[name](ctx)
            params = {**ctx.base_params(), **params}
            reports.append(_report(name, residual, _tolerance_for(name, config), params))
        except MATH_ERRORS as exc:  # collected, not fatal; a programming bug propagates
            reports.append(
                VerificationReport(
                    relation=name,
                    residual=float("inf"),
                    tolerance=_tolerance_for(name, config),
                    passed=False,
                    params={**ctx.base_params(), "error": f"{type(exc).__name__}: {exc}"},
                )
            )
    return reports


def verify_relation(
    b: BlaschkeProduct, relation: str, config: RunConfig, interior: int | None = None
) -> VerificationReport:
    if relation not in _RELATION_FUNCS:
        raise ValueError(f"unknown relation {relation!r}; choose from {RELATIONS}")
    ctx = _Context(b, config, interior=interior)
    residual, params = _RELATION_FUNCS[relation](ctx)
    return _report(relation, residual, _tolerance_for(relation, config), {**ctx.base_params(), **params})


# -- solutions of the covariance equation -------------------------------------


def verify_solution1(
    bs,
    family: list,
    config: RunConfig | None = None,
    *,
    interior: int | None = None,
) -> VerificationReport:
    """Certify (or refute) that S_i = pi(m_i) C_b solves the covariance problem.

    For an orthonormal family all four residuals are small.  For a family that
    fails the module Gram check, the orthogonality and completeness failures
    mirror the Gram failure while the structural identity
    S_i* S_j = pi(<m_i, m_j>) still holds: that identity is the theorem.
    """
    config = config or RunConfig()
    grid = CircleGrid(config.grid_size)
    inner = config.interior if interior is None else interior
    n = len(family)

    gram = gram_functions(bs, family, grid)  # <m_i, m_j> on the grid
    gram_dev = gram_deviation(gram)
    onb = bool(gram_dev < config.tol_operator)

    j_half = outer_symbol(bs, grid, 0.5)
    j_half_vec = ModuleVector(label="J^1/2", func=lambda z: j_half.eval(np.asarray(z, dtype=complex)))
    # (S_j e_n, S_i e_m) = mu[i, j, n - m + 2*inner]: S_i* S_j is Toeplitz in n - m
    mu = pair_power_gram(bs, [product_vector(m, j_half_vec) for m in family], inner)
    target = np.zeros(mu.shape)
    target[np.arange(n), np.arange(n), 2 * inner] = 1.0
    orth = float(np.max(np.abs(mu - target)))
    # S_i* S_j = pi(<m_i, m_j>): the moments reversed are the symbol's coefficients
    consistency = 0.0
    for i in range(n):
        for j in range(n):
            sym = fourier_coeffs(BoundaryFunction(grid, gram[i, j]), 2 * inner)
            consistency = max(consistency, float(np.max(np.abs(mu[i, j, ::-1] - sym.coeffs))))

    # completeness through the action on band-limited test vectors
    rng = np.random.default_rng(config.seed)
    rnd = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    tests = [exponential(0, 8), exponential(1, 8), FourierSeries(rnd / np.sum(np.abs(rnd)))]
    # the module expansion with a_i = m_i J^{1/2} at z and w_i = conj(m_i) J^{-1/2}
    # on the fibre of b(z): the branch mean of w_i f is (S_i^* f) o b
    z, fib = expansion_points(bs, grid, sorted({e for m in family for e in m.exceptions}))
    jm_fib = 1.0 / j_half.eval(fib)
    w_fib = [np.conj(m.evaluate(fib)) * jm_fib for m in family]
    m_z = [m.evaluate(z) * j_half.eval(z) for m in family]
    completeness = expansion_deviation(
        m_z, w_fib, ((synthesize(s, fib, analytic=False), synthesize(s, z, analytic=False)) for s in tests)
    )

    residual = max(gram_dev, orth, consistency, completeness)
    params = {
        "family": [m.label for m in family],
        "gram_deviation": gram_dev,
        "orthogonality_residual": orth,
        "consistency_residual": consistency,
        "completeness_residual": completeness,
        "family_is_onb": onb,
        "grid": grid.size,
        "interior": inner,
    }
    return _report("solution1_equivalence", residual, config.tol_operator, params)


# -- convergence ---------------------------------------------------------------


def convergence_study(
    b: BlaschkeProduct,
    relation: str,
    m_list=(32, 64, 128),
    config: RunConfig | None = None,
) -> list:
    """Residual of one relation as the window grows, on proportional interior blocks.

    Tail-based column exclusion is disabled here: the study exists to watch the
    raw truncation error decrease, which exclusion would mask.  The interior
    block scales as M/4 so the certified fraction stays fixed across windows.
    """
    config = config or RunConfig()
    rows = []
    for m in m_list:
        cfg = replace(config, mode_window=int(m), eps_tail=float("inf"))
        rep = verify_relation(b, relation, cfg, interior=max(1, int(m) // 4))
        rows.append((int(m), rep.residual))
    return rows


def convergence_csv(rows: list) -> str:
    return "window,residual\n" + "\n".join(f"{m},{r!r}" for m, r in rows) + "\n"

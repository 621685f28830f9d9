"""Orchestrated certification of the operator identities.

Each relation is checked numerically at a stated tolerance and reported with
its residual and the truncation parameters that certify it (window, interior
block, tail threshold, excluded columns).  The tolerances live here; three
rules in the math modules raise on their own, and so fail what reads them:
model_space.validate_basis (VALIDATION_TOL; the covariance pair), the linking pair
(MODULE_GRAM_TOL; grid and midstep fibre rows in their arcs) and operators.excluded_mask (no certified column).

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
    fourier_window,
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
    excluded_mask,
    gamma_b_matrix,
    identity_operator,
    interior_residual,
    master_isometry_matrix,
    master_isometry_matrix_direct,
    mult_operator,
    operator_norm,
    orthonormality_defect,
    pair_power_gram,
    restrict_to_h2,
    transfer_matrix,
)
from .rochberg import decompose
from .transfer import (
    ModuleFamily,
    arc_of,
    arcs_basis,
    expansion_sweep,
    fibre_power_means,
    from_series,
    gram_deviation,
    module_gram,
    module_gram_deviation,
    nudged_fibre,
    outer_symbol,
    transfer_apply,
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
    """One run's settings and the objects tied to its bases, each built once on first use.

    The module Gram and expansion sweep memos are keyed by the family object, so the
    bases are held here, one object per run; the arcs checks read only arc labels.
    Every other shared input (fibre, J^p, Gamma_b, the direct C_b) is memoised by its builder.
    """

    def __init__(self, b: BlaschkeProduct, config: RunConfig):
        self.b = b
        self.config = config
        self.grid = CircleGrid(config.grid_size)
        self.window = config.mode_window
        self.interior = config.interior
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
        # the covariance checks read S_i's columns |n| <= interior + 1, the shifted ones included
        columns = min(self.window, self.interior + 1)
        return cuntz_family_matrices(self.bs, self.basis, self.window, self.grid, columns)


def _seeded_symbol(seed: int) -> FourierSeries:
    """A symbol on modes |k| <= 8 with unit l1 norm, drawn fresh from default_rng(seed).

    Every randomized check draws its input here, so a report depends only on
    (b, config), whether the relation runs alone or inside verify_all.
    """
    rng = np.random.default_rng(seed)
    c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    return FourierSeries(c / np.sum(np.abs(c)))


#: the one-member family {1}: Gamma_b e_n = 1 * b^n
_ONE = ModuleFamily(("1",), lambda z: np.ones((1,) + z.shape, dtype=complex))


def _times_j_half(family: ModuleFamily, bs, grid: CircleGrid) -> ModuleFamily:
    """The family m_i J^{1/2}, J^{1/2} a pointwise rule on the closed disc: C_b e_n = J^{1/2} b^n."""
    return family.times(outer_symbol(bs, grid, 0.5).eval, "J^1/2")


# -- relation checks ----------------------------------------------------------
#
# Four relations compare Grams that are Toeplitz in n - m, since b = e^{i theta}
# on the circle: (f b^n, g b^m) = int conj(g) f e^{i(n-m) theta} dt/2pi.
# cuntz_orthogonality, the isometry part of master_isometry, implements_transfer
# and isometry_criterion are certified from pair_power_gram moments over every
# |n|, |m| <= window, so they exclude no column.  The moments' nodes follow the
# lift: each stretch of operators.moment_nodes is sized by its own slope theta'
# and graded toward zeros near the circle.  cuntz_completeness reads the
# expansion sweep's kernel defect, which bounds every f; the column checks use truncated matrices.


def _rel_cuntz_orthogonality(ctx: _Context):
    # S_i e_n = v_i b^n: S_i* S_j = delta_ij I is the orthonormality of the v_i b^n
    mu = pair_power_gram(ctx.bs, ctx.basis, ctx.window)
    return orthonormality_defect(mu), {"excluded_columns": []}


def _certify(ctx: _Context, checks) -> tuple[float, list[int]]:
    """interior_residual on ctx's interior block for each (lhs, rhs, tail_sources).

    Returns the worst residual and the sorted union of the excluded columns.
    """
    residuals, excluded = [], set()
    for lhs, rhs, sources in checks:
        r, excl = interior_residual(lhs, rhs, ctx.interior, eps_tail=ctx.config.eps_tail, tail_sources=sources)
        residuals.append(r)
        excluded.update(excl)
    return float(np.max(residuals)), sorted(excluded)


def _rel_cuntz_completeness(ctx: _Context):
    return expansion_sweep(ctx.bs, ctx.module_basis, ctx.grid)[1], {"excluded_columns": []}


def _shift_columns(op: TruncatedOperator) -> TruncatedOperator:
    """op pi(e_1) (op T(e_1) on H2) without the shift matrix: column n is op's column n + 1.

    Column n + 1 of S_i is v_i b^{n+1}, so the shifted operator carries op's
    measured tail at n + 1 and is its own tail source.  The last column has no
    successor in op: it is zero, with tail inf, "not certified".
    """
    shifted = np.zeros_like(op.matrix)
    shifted[:, :-1] = op.matrix[:, 1:]
    return replace(op, matrix=shifted, column_tail=np.append(op.column_tail[1:], np.inf))


def _covariance(ctx: _Context, restrict):
    # S_i pi(e_1) = pi(b) S_i, or R_i T(e_1) = T(b) R_i on H2: column n is
    # certified by the tails of S_i (R_i) at n and n + 1.  The Fourier window
    # of b is column n = 1 of Gamma_b, since Gamma_b e_1 = b
    b_series = FourierSeries(gamma_b_matrix(ctx.bs, ctx.window, ctx.grid).matrix[:, ctx.window + 1])
    pb = restrict(mult_operator(b_series, ctx.window))
    checks = []
    for si in ctx.cuntz:
        ri = restrict(si)
        shifted = _shift_columns(ri)
        checks.append((shifted, compose(pb, ri), [ri, shifted]))
    r, excl = _certify(ctx, checks)
    return r, {"excluded_columns": excl}


def _rel_covariance_l2(ctx: _Context):
    return _covariance(ctx, lambda op: op)


def _rel_covariance_h2(ctx: _Context):
    return _covariance(ctx, restrict_to_h2)


def _rel_implements_transfer(ctx: _Context):
    # (pi(phi) C_b e_n, C_b e_m) = int phi j0 e^{i(n-m) theta}, since |J| = j0 on the
    # circle: the moment mu[0, s] of (J^{1/2}, phi_s J^{1/2}).  pi(L phi) holds
    # c_{m-n}(L phi) there, so the moments are L phi's coefficients reversed.
    # The grid holds those up to lag (K - 1)/2, which may fall short of 2*window
    # but never of window, so the lags |n - m| <= window are always compared.
    # The first symbol, e_0 = 1, is also the moments' left factor.
    phis = from_series(exponential(0, 2), exponential(1, 2), exponential(2, 2), _seeded_symbol(ctx.config.seed))
    mu = pair_power_gram(ctx.bs, _times_j_half(phis, ctx.bs, ctx.grid), ctx.window)
    lags = min(2 * ctx.window, (ctx.grid.size - 1) // 2)
    mid = 2 * ctx.window
    coeffs = fourier_window(np.stack([lphi.values for lphi in transfer_apply(ctx.bs, phis, ctx.grid)]), lags)
    worst = float(np.max(np.abs(mu[0, :, mid - lags : mid + lags + 1] - coeffs[:, ::-1])))
    return worst, {"symbols": ["e_0", "e_1", "e_2", "random(window=8)"], "max_lag": lags, "excluded_columns": []}


def _rel_master_isometry(ctx: _Context):
    # C_b e_n = J^{1/2} b^n: C_b* C_b = I from the moments; the two truncated
    # constructions of C_b are compared on the certified interior columns
    iso = orthonormality_defect(pair_power_gram(ctx.bs, _times_j_half(_ONE, ctx.bs, ctx.grid), ctx.window))
    # both constructions on the interior columns only
    direct = master_isometry_matrix_direct(ctx.bs, ctx.window, ctx.grid, ctx.interior)
    product = master_isometry_matrix(ctx.bs, ctx.window, ctx.grid, ctx.interior)
    cross, excl = _certify(ctx, [(product, direct, [direct])])
    return max(iso, cross), {
        "isometry_defect": iso,
        "construction_agreement": cross,
        "excluded_columns": excl,
    }


def _rel_h2_reduction(ctx: _Context):
    c = master_isometry_matrix_direct(ctx.bs, ctx.window, ctx.grid, ctx.interior)
    m, inner = ctx.window, ctx.interior
    worst, excluded = 0.0, []
    # analytic columns leaking downward, co-analytic columns leaking upward
    for rows, cols in (((-m, -1), (0, inner)), ((0, m), (-inner, -1))):
        modes = np.arange(cols[0], cols[1] + 1)
        mask = excluded_mask(modes, [c], ctx.config.eps_tail)
        vals = np.abs(c.submatrix(rows, cols)).max(axis=0)
        vals[mask] = 0.0
        worst = max(worst, float(vals.max()))
        excluded.extend(int(n) for n in modes[mask])
    return worst, {"excluded_columns": sorted(set(excluded))}


def _rel_transfer_h2_invariance(ctx: _Context):
    win = ctx.grid.size // 4
    coeffs = fourier_window(fibre_power_means(nudged_fibre(ctx.bs, ctx.grid, ())[0], 32), win)  # n = 0..32
    worst = max(FourierSeries(c).negative_energy() for c in coeffs)
    return worst, {"modes": "0..32", "coefficient_window": win}


def _rel_left_inverse(ctx: _Context):
    t = transfer_matrix(ctx.bs, ctx.window, ctx.grid)
    gam = gamma_b_matrix(ctx.bs, ctx.window, ctx.grid)
    r1, excl1 = _certify(ctx, [(compose(t, gam), identity_operator(ctx.window), [t, gam])])
    j0inv = BoundaryFunction(ctx.grid, (1.0 / j0(ctx.b, ctx.grid.angles)).astype(complex))
    pj0inv = mult_operator(fourier_coeffs(j0inv, ctx.window), ctx.window)
    r2, excl2 = _certify(ctx, [(compose(t, pj0inv), adjoint(gam), [t, pj0inv])])
    return max(r1, r2), {
        "left_inverse_defect": r1,
        "adjoint_identity_defect": r2,
        "excluded_columns": sorted(set(excl1) | set(excl2)),
    }


def _rel_isometry_criterion(ctx: _Context):
    # Gamma_b e_n = b^n: (Gamma e_n, Gamma e_m) = int b^k = b(0)^k for k = n - m >= 0,
    # by the mean value property, and its conjugate for k < 0
    mu = pair_power_gram(ctx.bs, _ONE, ctx.window)[0, 0]
    b0 = evaluate(ctx.b, 0.0)
    mid = 2 * ctx.window
    powers = np.power(complex(b0), np.arange(mid + 1))
    closed = np.concatenate([np.conj(powers[:0:-1]), powers])
    dev = float(np.max(np.abs(np.delete(mu, mid))))  # max over k != 0: |b(0)| exactly
    return float(np.max(np.abs(mu - closed))), {
        "b0": [b0.real, b0.imag],
        "gram_deviation": dev,
        "is_isometry": bool(dev < ctx.config.tol_operator),
        "excluded_columns": [],
    }


#: the windows of norm_formula's monotone sequence of truncated norms
NORM_WINDOWS = (32, 64, 128)

#: the smallest grid (a power of two) that holds the 2*max(NORM_WINDOWS)+1 modes;
#: clipping the windows to a smaller grid would alias the norms
NORM_GRID = 1 << (2 * max(NORM_WINDOWS)).bit_length()


def _rel_norm_formula(ctx: _Context):
    if ctx.grid.size < NORM_GRID:
        raise ValueError(f"norm_formula needs grid >= {NORM_GRID}, got {ctx.grid.size}")
    # ||pi(J^{-1/2}) C_b|| = ||Gamma_b|| = sqrt(sup L(1/j0)), and L(1/j0) is the Poisson kernel at
    # b(0) (Loewner's lemma): Nordgren's norm sqrt((1 + |b(0)|) / (1 - |b(0)|)) of an inner composition
    r = abs(complex(evaluate(ctx.b, 0.0)))
    target = float(np.sqrt((1.0 + r) / (1.0 - r)))
    # the central blocks of the widest Gamma_b are Gamma_b at each window bit for bit
    gam = gamma_b_matrix(ctx.bs, max(NORM_WINDOWS), ctx.grid)
    norms = [operator_norm(block(gam, (-m, m), (-m, m))) for m in NORM_WINDOWS]
    for m, norm in zip(NORM_WINDOWS, norms):
        # a compression cannot exceed its operator, up to rounding fixed a priori: ||A + E|| <= ||A|| +
        # (2m+1) max|E_ij| on the (2m+1)-square block, and sampling, FFT and SVD leave a few eps per entry
        if norm > target * (1.0 + 4 * (2 * m + 1) * np.finfo(float).eps):
            raise ValueError(f"norm_formula: window-{m} norm {norm!r} > target {target!r} on grid {ctx.grid.size}")
    drops = max(0.0, float(np.max(-np.diff(norms))))
    rel_err = abs(norms[-1] - target) / target
    return rel_err + (drops if drops > 1e-12 else 0.0), {
        "windows": list(NORM_WINDOWS),
        "norms": [float(x) for x in norms],
        "target": target,
        "monotonicity_defect": drops,
    }


def _rel_module_onb(ctx: _Context):
    dev = module_gram_deviation(ctx.bs, ctx.module_basis, ctx.grid)
    return dev, {"family": "canonical v_i * J^{-1/2}"}


def _rel_arcs_onb(ctx: _Context):
    # on a fibre the arcs Gram is diagonal, <E_j, E_j> the count of its points in arc j: no arcs values
    fib, _ = nudged_fibre(ctx.bs, ctx.grid, arcs_basis(ctx.bs).exceptions)
    n, k = fib.shape
    counts = np.bincount((arc_of(ctx.bs, fib) + n * np.arange(k)).ravel(), minlength=n * k)
    return float(np.max(np.abs(counts - 1))), {"family": "sqrt(N) arc indicators"}


def _rel_linking_unitary(ctx: _Context):
    r1 = pointwise_unitarity_deviation(linking_unitary(ctx.bs, ctx.module_basis, ctx.grid))
    r2 = linking_reconstruction_deviation(ctx.bs, ctx.module_basis, ctx.grid)
    return max(r1, r2), {"unitarity_defect": r1, "reconstruction_defect": r2}


def _rel_rochberg_roundtrip(ctx: _Context):
    # z^8 times the seeded symbol: an analytic input on modes 0..16
    f = FourierSeries(np.concatenate([np.zeros(16), _seeded_symbol(ctx.config.seed).coeffs]))
    dec = decompose(ctx.bs, ctx.basis, f, ctx.grid, check_basis=False)
    residual = max(dec.residual, max(dec.membership))
    return residual, {
        "input_degree": 16,
        "reconstruction_error": dec.residual,
        "max_negative_energy": float(max(dec.membership)),
    }


def _rel_solution1(ctx: _Context):
    rep = verify_solution1(ctx.bs, ctx.module_basis, ctx.config)
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

RELATIONS = tuple(_RELATION_FUNCS)

#: relations judged at the pointwise (tol_function) tolerance
_FUNCTION_LEVEL = {"transfer_h2_invariance", "module_onb", "rochberg_roundtrip"}


def _tolerance_for(relation: str, config: RunConfig) -> float:
    if relation == "norm_formula":
        return 0.05
    if relation in _FUNCTION_LEVEL:
        return config.tol_function
    return config.tol_operator


def _run(ctx: _Context, relation: str) -> VerificationReport:
    residual, params = _RELATION_FUNCS[relation](ctx)
    return _report(relation, residual, _tolerance_for(relation, ctx.config), {**ctx.base_params(), **params})


def verify_all(b: BlaschkeProduct, config: RunConfig | None = None) -> list:
    """Run every relation; failures are collected, not fatal; order is fixed."""
    config = config or RunConfig()
    ctx = _Context(b, config)
    reports = []
    for name in RELATIONS:
        try:
            reports.append(_run(ctx, name))
        except MATH_ERRORS as exc:  # collected, not fatal; a programming bug propagates
            params = {**ctx.base_params(), "error": f"{type(exc).__name__}: {exc}"}
            reports.append(_report(name, float("inf"), _tolerance_for(name, config), params))
    return reports


def verify_relation(b: BlaschkeProduct, relation: str, config: RunConfig) -> VerificationReport:
    if relation not in _RELATION_FUNCS:
        raise ValueError(f"unknown relation {relation!r}; choose from {RELATIONS}")
    return _run(_Context(b, config), relation)


# -- solutions of the covariance equation -------------------------------------


def verify_solution1(bs, family: ModuleFamily, config: RunConfig | None = None) -> VerificationReport:
    """Certify (or refute) that S_i = pi(m_i) C_b solves the covariance problem.

    For an orthonormal family all four residuals are small.  For a family that
    fails the module Gram check, the orthogonality and completeness failures
    mirror the Gram failure while the structural identity
    S_i* S_j = pi(<m_i, m_j>) still holds: that identity is the theorem.
    The Gram (module_gram) and completeness defect (transfer.expansion_sweep) are memoised
    per family and grid: a verify_all run reads those of module_onb and cuntz_completeness.
    The moments are taken over the config's interior block, the block every relation certifies.
    """
    config = config or RunConfig()
    grid = CircleGrid(config.grid_size)
    inner = config.interior

    gram = module_gram(bs, family, grid)  # <m_i, m_j> on the grid
    gram_dev = gram_deviation(gram)
    onb = bool(gram_dev < config.tol_operator)

    # S_i e_n = m_i J^{1/2} b^n, so (S_j e_n, S_i e_m) = mu[i, j, n - m + 2*inner]:
    # S_i* S_j is Toeplitz in n - m
    mu = pair_power_gram(bs, _times_j_half(family, bs, grid), inner)
    orth = orthonormality_defect(mu)
    # S_i* S_j = pi(<m_i, m_j>): the moments reversed are the symbol's coefficients
    # one transform per member row keeps the transient at (n, K)
    consistency = max(
        float(np.max(np.abs(mu[i, :, ::-1] - fourier_window(gram[i], 2 * inner)))) for i in range(family.size)
    )

    completeness = expansion_sweep(bs, family, grid)[1]  # the defect cuntz_completeness reads
    residual = max(gram_dev, orth, consistency, completeness)
    params = {
        "family": list(family.labels),
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
    """Residual of one relation as the window M grows: row M is verify_relation at window M.

    Tail-based column exclusion is disabled here: the study exists to watch the
    raw truncation error decrease, which exclusion would mask.  Each window is
    certified on its own RunConfig interior, M/2, so the certified fraction
    stays fixed across windows.
    """
    config = config or RunConfig()
    return [
        (int(m), verify_relation(b, relation, replace(config, mode_window=int(m), eps_tail=float("inf"))).residual)
        for m in m_list
    ]


def convergence_csv(rows: list) -> str:
    return "window,residual\n" + "\n".join(f"{m},{r!r}" for m, r in rows) + "\n"

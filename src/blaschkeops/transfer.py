"""The canonical transfer operator, composition, and Hilbert-module structure.

The transfer operator averages a function over the N preimage branches,

    (L xi)(z) = (1/N) sum_{b(w) = z} xi(w),

and is a left inverse of composition beta: phi -> phi o b.  Together they give
the bounded-function algebra a Hilbert-module structure with inner product
<xi, eta> = L(conj(xi) eta) and module action xi . a = xi * beta(a); the arcs
indicators scaled by sqrt(N) form an orthonormal basis with N elements.

All operations here are evaluated pointwise through the inverse branches, so
identities hold to root-finding accuracy with no interpolation error.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import TWO_PI, BranchSystem, evaluate, j0
from .circlefun import (
    BoundaryFunction,
    CircleGrid,
    FourierSeries,
    OuterFunction,
    integer_powers,
    outer_function,
    synthesize,
)
from .errors import GramCheckError

#: nodes this close (radians) to a declared exception image get nudged
NUDGE_RADIUS = 1e-9

#: a family whose pointwise module Gram deviates from the identity by more is
#: not a module basis (module_expand, model_space.linking_unitary)
MODULE_GRAM_TOL = 1e-6


@dataclass(frozen=True)
class ModuleVector:
    """An element of the function module: a Fourier window or a pointwise rule.

    Series-backed vectors are evaluated exactly by synthesis; callable-backed
    ones (indicators, closed-form basis elements) by their rule.  `exceptions`
    lists circle angles where the rule is only defined up to a null set.
    """

    label: str
    series: FourierSeries | None = None
    func: object = None
    exceptions: tuple = ()

    def __post_init__(self):
        if (self.series is None) == (self.func is None):
            raise ValueError("exactly one of series/func must be given")

    def evaluate(self, z) -> np.ndarray:
        pts = np.asarray(z, dtype=complex)
        if self.series is not None:
            return np.asarray(synthesize(self.series, pts, analytic=None), dtype=complex)
        return np.asarray(self.func(pts), dtype=complex)


def from_series(s: FourierSeries, label: str = "series") -> ModuleVector:
    return ModuleVector(label=label, series=s)


def constant(c: complex, label: str | None = None) -> ModuleVector:
    cc = complex(c)
    return ModuleVector(label=label or f"const {cc}", func=lambda z: np.full(np.shape(z), cc))


def conj_vector(v: ModuleVector) -> ModuleVector:
    """Pointwise conjugate; valid on the circle."""
    return ModuleVector(
        label=f"conj({v.label})", func=lambda z: np.conj(v.evaluate(z)), exceptions=v.exceptions
    )


def product_vector(u: ModuleVector, v: ModuleVector, label: str | None = None) -> ModuleVector:
    return ModuleVector(
        label=label or f"{u.label}*{v.label}",
        func=lambda z: u.evaluate(z) * v.evaluate(z),
        exceptions=tuple(sorted(set(u.exceptions) | set(v.exceptions))),
    )


# -- fibre plumbing ---------------------------------------------------------


def outer_symbol(bs: BranchSystem, grid: CircleGrid, power: float) -> OuterFunction:
    """J^power: the outer function with boundary modulus j0^power, cached per grid."""
    key = ("outer", grid.size, float(power))
    cache = bs._grid_cache
    if key not in cache:
        h = BoundaryFunction(grid, j0(bs.owner, grid.angles).astype(complex))
        cache[key] = outer_function(h, power)
    return cache[key]


def fibre(bs: BranchSystem, angles) -> np.ndarray:
    """Preimage points of the circle points e^{i angles}, shape (N, len(angles))."""
    return np.exp(1j * bs.preimage_angles(angles))


def grid_fibre(bs: BranchSystem, grid: CircleGrid) -> np.ndarray:
    """Preimage points of all grid nodes, shape (N, K); cached on the branch system."""
    cache = bs._grid_cache
    key = grid.size
    if key not in cache:
        cache[key] = fibre(bs, grid.angles)
    return cache[key]


def fibre_power_means(fib: np.ndarray, window: int) -> np.ndarray:
    """Branch means of z^n over a fibre, n = -window..window, shape (2*window+1, K).

    Row window + n is L(e_n) at the points whose preimages are the columns of
    `fib` (shape (N, K)).  One branch's power table is added to the running sum
    at a time, so two tables are live at most.
    """
    acc = integer_powers(fib[0], window)
    for branch in fib[1:]:
        acc += integer_powers(branch, window)
    acc /= fib.shape[0]
    return acc


def transfer_values(bs: BranchSystem, xi: ModuleVector, z) -> np.ndarray:
    """(L xi) at arbitrary unit-modulus points, via the exact preimage fibre."""
    pts = np.asarray(z, dtype=complex)
    flat = np.atleast_1d(pts).reshape(-1)
    vals = xi.evaluate(fibre(bs, np.angle(flat))).mean(axis=0)
    return vals.reshape(pts.shape)


# -- the operators ----------------------------------------------------------


def compose_with_b(bs: BranchSystem, phi: ModuleVector) -> ModuleVector:
    """beta(phi) = phi o b as a pointwise rule (e_n goes to b^n on series input)."""
    b = bs.owner

    def rule(z):
        return phi.evaluate(evaluate(b, np.asarray(z, dtype=complex)))

    exc = []
    for e in phi.exceptions:
        exc.extend(np.mod(bs.preimage_angles(e)[:, 0], TWO_PI))
    return ModuleVector(label=f"({phi.label}) o b", func=rule, exceptions=tuple(sorted(exc)))


def transfer_vector(bs: BranchSystem, xi: ModuleVector) -> ModuleVector:
    """L(xi) as a pointwise rule on the circle."""
    exc = ()
    if xi.exceptions:
        imgs = evaluate(bs.owner, np.exp(1j * np.asarray(xi.exceptions)))
        exc = tuple(sorted(set(np.round(np.mod(np.angle(imgs), TWO_PI), 12))))
    return ModuleVector(
        label=f"L({xi.label})", func=lambda z: transfer_values(bs, xi, z), exceptions=exc
    )


def _nudged_angles(grid: CircleGrid, exception_angles) -> tuple[np.ndarray, list[int]]:
    t = grid.angles.copy()
    moved: list[int] = []
    if len(exception_angles):
        half = np.pi / grid.size
        for e in np.asarray(exception_angles, dtype=float):
            d = np.abs(np.mod(t - e + np.pi, TWO_PI) - np.pi)
            hit = np.nonzero(d < NUDGE_RADIUS)[0]
            for k in hit:
                t[k] += half
                moved.append(int(k))
    return t, sorted(set(moved))


def expansion_points(bs: BranchSystem, grid: CircleGrid, exception_angles) -> tuple:
    """The grid points z, nudged off the exception angles, and the fibre of b(z), shape (N, K)."""
    t, _ = _nudged_angles(grid, exception_angles)
    z = np.exp(1j * t)
    return z, fibre(bs, np.angle(evaluate(bs.owner, z)))


def expansion_deviation(a_z: list, w_fib: list, targets) -> float:
    """sup |f(z) - sum_i a_i(z) * mean_fibre(w_i f)| over the pairs (f on the fibre, f at z).

    The module expansion f = sum_i m_i beta(<m_i, f>) checked pointwise at the
    points of expansion_points: with a_i = m_i at z and w_i = conj(m_i) on the
    fibre of b(z), the branch mean of w_i f is the coefficient <m_i, f> at b(z),
    evaluated there directly, with no interpolation.
    """
    worst = 0.0
    for f_fib, f_z in targets:
        acc = np.zeros(f_z.shape, dtype=complex)
        for az, w in zip(a_z, w_fib):
            acc += az * (w * f_fib).mean(axis=0)
        worst = max(worst, float(np.max(np.abs(acc - f_z))))
    return worst


def transfer_apply(bs: BranchSystem, xi: ModuleVector, grid: CircleGrid) -> BoundaryFunction:
    """Sample L(xi) on the grid.

    Nodes falling on the (finitely many) angles where L(xi) is only defined up
    to a null set are nudged by half a grid step; the indices are recorded in
    the output meta.  Inputs without declared exceptions are sampled exactly,
    the branch-point fibre being continuous for them.
    """
    lx = transfer_vector(bs, xi)
    if lx.exceptions:
        t, moved = _nudged_angles(grid, lx.exceptions)
        vals = transfer_values(bs, xi, np.exp(1j * t))
        meta = {"nudged_nodes": moved} if moved else {}
        return BoundaryFunction(grid, vals, meta=meta)
    fib = grid_fibre(bs, grid)
    return BoundaryFunction(grid, xi.evaluate(fib).mean(axis=0))


def expectation_vector(bs: BranchSystem, f: ModuleVector) -> ModuleVector:
    """E(f) = beta(L(f)): conditional expectation onto the range of composition."""
    return compose_with_b(bs, transfer_vector(bs, f))


def conditional_expectation(bs: BranchSystem, f: ModuleVector, grid: CircleGrid) -> BoundaryFunction:
    ef = expectation_vector(bs, f)
    t, moved = _nudged_angles(grid, ef.exceptions)
    vals = ef.evaluate(np.exp(1j * t))
    meta = {"nudged_nodes": moved} if moved else {}
    return BoundaryFunction(grid, vals, meta=meta)


def module_inner_vector(bs: BranchSystem, xi: ModuleVector, eta: ModuleVector) -> ModuleVector:
    """<xi, eta> = L(conj(xi) * eta), conjugate linear in the first slot."""
    v = transfer_vector(bs, product_vector(conj_vector(xi), eta))
    return ModuleVector(label=f"<{xi.label},{eta.label}>", func=v.func, exceptions=v.exceptions)


def module_inner(bs: BranchSystem, xi: ModuleVector, eta: ModuleVector, grid: CircleGrid) -> BoundaryFunction:
    return transfer_apply(bs, product_vector(conj_vector(xi), eta), grid)


# -- bases ------------------------------------------------------------------


def arcs_basis(bs: BranchSystem) -> list[ModuleVector]:
    """The N-element module basis sqrt(N) * indicator of the j-th arc.

    Arcs are half-open [t_{j-1}, t_j), which fixes values on the measure-zero
    endpoint set consistently with the branch labelling.
    """
    n = bs.branch_count
    root = float(np.sqrt(n))
    ends = bs.arc_endpoints

    def make(j):
        def rule(z):
            t = np.mod(np.angle(np.asarray(z, dtype=complex)), TWO_PI)
            arc = np.clip(np.searchsorted(ends, t, side="right"), 1, n)
            return np.where(arc == j, root, 0.0).astype(complex)

        return rule

    exceptions = tuple(np.mod(ends[:-1], TWO_PI))
    return [
        ModuleVector(label=f"sqrt({n})*1_A{j}", func=make(j), exceptions=exceptions)
        for j in range(1, n + 1)
    ]


def fibre_gram(bs: BranchSystem, a_vals: np.ndarray, b_vals: np.ndarray) -> np.ndarray:
    """Pointwise module Gram <A_i, B_j>(z) from values on a fibre, shape (n_a, n_b, K).

    `a_vals` and `b_vals` hold each family member on the preimage fibre, shape
    (n, N, K); the Gram is the branch average of conj(A_i) B_j.
    """
    return np.einsum("aNK,bNK->abK", np.conj(a_vals), b_vals) / bs.branch_count


def gram_functions(bs: BranchSystem, family: list[ModuleVector], grid: CircleGrid) -> np.ndarray:
    """Pointwise module Gram <m_i, m_j>(z) on the grid, shape (n, n, K)."""
    fib = grid_fibre(bs, grid)
    vals = np.stack([m.evaluate(fib) for m in family])  # (n, N, K)
    return fibre_gram(bs, vals, vals)


def gram_deviation(g: np.ndarray) -> float:
    """sup over the grid of |g_ij - delta_ij| for a pointwise Gram of shape (n, n, K)."""
    eye = np.eye(g.shape[0])[:, :, None]
    return float(np.max(np.abs(g - eye)))


def module_gram_deviation(bs: BranchSystem, family: list[ModuleVector], grid: CircleGrid) -> float:
    """sup over the grid of |<m_i, m_j> - delta_ij|, maximized over pairs."""
    return gram_deviation(gram_functions(bs, family, grid))


def module_expand(
    bs: BranchSystem, basis: list[ModuleVector], f: ModuleVector, grid: CircleGrid
) -> list[BoundaryFunction]:
    """Coefficients <m_i, f> of f against a module basis, sampled on the grid.

    The basis must pass the pointwise Gram check (to MODULE_GRAM_TOL) first.
    """
    dev = module_gram_deviation(bs, basis, grid)
    if dev > MODULE_GRAM_TOL:
        raise GramCheckError(f"module Gram deviates from identity by {dev:.3e}")
    return [transfer_apply(bs, product_vector(conj_vector(m), f), grid) for m in basis]


def expand_vectors(bs: BranchSystem, basis: list[ModuleVector], f: ModuleVector) -> list[ModuleVector]:
    """The coefficient functions <m_i, f> as pointwise rules (no sampling)."""
    return [module_inner_vector(bs, m, f) for m in basis]


def reconstruct_expansion(
    bs: BranchSystem,
    basis: list[ModuleVector],
    coefficients: list[ModuleVector],
    grid: CircleGrid,
) -> BoundaryFunction:
    """sum_i m_i(z) * c_i(b(z)) sampled on the grid (exception nodes nudged)."""
    exc = sorted({e for m in basis for e in m.exceptions})
    t, moved = _nudged_angles(grid, exc)
    z = np.exp(1j * t)
    bz = evaluate(bs.owner, z)
    total = np.zeros(grid.size, dtype=complex)
    for m, c in zip(basis, coefficients):
        total += m.evaluate(z) * c.evaluate(bz)
    meta = {"nudged_nodes": moved} if moved else {}
    return BoundaryFunction(grid, total, meta=meta)

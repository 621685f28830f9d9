"""Orthonormal bases of the model space D = H2 minus b*H2.

For a degree-N product, D is N-dimensional and carries the canonical basis
built from partial products,

    w_j(z) = sqrt(1 - |a_j|^2) / (1 - conj(a_j) z) * prod_{k<j} b_{a_k}(z),

whose elements are rational, pole-free on the closed disc and zero-free on the
circle.  A basis is one family: values(z) holds all N elements, shape
(N, *z.shape), and the canonical values come from one running product over the
zeros, one Moebius factor per zero per point.  Any unitary rotation of a basis
is again a basis; D is a complete wandering subspace for multiplication by b:
the columns v_i b^n are orthonormal, which operators.orthonormality_defect
certifies from the moments of operators.pair_power_gram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, BranchSystem, evaluate, moebius_factor
from .circlefun import BoundaryFunction, CircleGrid, FourierSeries, fourier_coeffs
from .errors import GramCheckError
from .transfer import (
    MODULE_GRAM_TOL,
    ModuleFamily,
    expansion_deviation,
    expansion_points,
    fibre_gram,
    fibre_values_and_gram,
    gram_deviation,
    outer_symbol,
)

#: validate_basis checks orthogonality to b e_n for n = 0..VALIDATION_WINDOW, or as far as the grid holds
VALIDATION_WINDOW = 64

#: validate_basis bound on the Gram and negative-mode deviations; the b*H2
#: overlap is held to its square root
VALIDATION_TOL = 1e-8

#: rotate_basis bound on ||U*U - I||
ROTATION_TOL = 1e-10


@dataclass(frozen=True, kw_only=True)
class ModelBasis(ModuleFamily):
    """A basis of the model space: a family of N analytic elements plus its provenance."""

    owner: BlaschkeProduct
    kind: str  # canonical | rotated | user

    def __post_init__(self):
        if self.size != self.owner.degree:
            raise ValueError("basis must have exactly N elements")


def canonical_basis(b: BlaschkeProduct) -> ModelBasis:
    """The partial-product basis; element j uses the first j-1 Moebius factors."""
    zeros = b.zeros

    def rule(z):
        out = np.empty((len(zeros),) + z.shape, dtype=complex)
        partial = 1.0  # prod_{k<j} b_{a_k}(z), one more factor per zero
        for j, a in enumerate(zeros):
            head = np.full(z.shape, np.sqrt(b.one_minus_abs2[j]), dtype=complex)
            if a != 0:
                head = head / (1.0 - np.conj(a) * z)
            out[j] = head * partial
            if j + 1 < len(zeros):
                partial = partial * moebius_factor(a, z)
        return out

    labels = tuple(f"w_{j}" for j in range(1, b.degree + 1))
    return ModelBasis(labels=labels, rule=rule, owner=b, kind="canonical")


def rotate_basis(basis: ModelBasis, u: np.ndarray) -> ModelBasis:
    """New elements v~_i = sum_j u[i, j] v_j; u must be unitary."""
    u = np.asarray(u, dtype=complex)
    n = basis.size
    if u.shape != (n, n):
        raise ValueError(f"rotation must be {n}x{n}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(n)))
    if defect > ROTATION_TOL:
        raise ValueError(f"rotation is not unitary: ||U*U - I|| = {defect:.3e}")

    def rule(z):
        vals = basis.values(z)
        return (u @ vals.reshape(n, -1)).reshape(vals.shape)

    labels = tuple(f"rot_{i}" for i in range(1, n + 1))
    return ModelBasis(labels=labels, rule=rule, owner=basis.owner, kind="rotated")


def basis_series(basis: ModelBasis, grid: CircleGrid, window: int) -> list[FourierSeries]:
    """Fourier windows of the basis elements (export format)."""
    return [fourier_coeffs(BoundaryFunction(grid, row), window) for row in basis.values(grid.points)]


def validate_basis(basis: ModelBasis, grid: CircleGrid) -> dict:
    """Gram, H2 membership and orthogonality to b*H2; raises GramCheckError on failure.

    Returns the three deviations for reporting.
    """
    b = basis.owner
    vals = basis.values(grid.points)
    gram = vals @ vals.conj().T / grid.size
    gram_dev = float(np.max(np.abs(gram - np.eye(basis.size))))

    neg = 0.0
    for row in vals:
        s = fourier_coeffs(BoundaryFunction(grid, row), grid.size // 4)
        neg = max(neg, s.negative_energy())

    # (v, b e_n) = mode-n coefficient of v * conj(b); must vanish for n = 0..window
    window = min(VALIDATION_WINDOW, (grid.size - 1) // 2)
    bconj = np.conj(evaluate(b, grid.points))
    ortho = 0.0
    for row in vals:
        s = fourier_coeffs(BoundaryFunction(grid, row * bconj), window)
        ortho = max(ortho, float(np.max(np.abs(s.coeffs[window:]))))

    report = {"gram_deviation": gram_dev, "negative_energy": neg, "bh2_overlap": ortho}
    if gram_dev > VALIDATION_TOL or neg > VALIDATION_TOL or ortho > np.sqrt(VALIDATION_TOL):
        raise GramCheckError(f"model basis validation failed: {report}")
    return report


def induced_module_basis(bs: BranchSystem, basis: ModelBasis, grid: CircleGrid) -> ModuleFamily:
    """{v_i * J^{-1/2}}: the module orthonormal basis induced by a model-space basis."""
    return basis.times(outer_symbol(bs, grid, -0.5).eval, "J^-1/2")


# -- linking unitaries between module bases ---------------------------------


def linking_unitary(
    bs: BranchSystem,
    family_a: ModuleFamily,
    family_b: ModuleFamily,
    grid: CircleGrid,
    *,
    fibre_a: tuple | None = None,
    fibre_b: tuple | None = None,
) -> np.ndarray:
    """The matrix u_ij = <A_i, B_j> linking two module bases, on the grid: shape (n_a, n_b, K).

    Both families must pass the module Gram check, to MODULE_GRAM_TOL.
    Pointwise on the grid the matrix (u_ij(z)) is unitary, and
    B_j = sum_i A_i * beta(u_ij).  `fibre_a` and `fibre_b`, when given, are
    exactly fibre_values_and_gram(bs, family, grid) of their family, for a
    caller that has formed them.
    """
    vals = []  # each family evaluated once on the fibre serves its Gram check and u
    for fam, name, known in ((family_a, "A", fibre_a), (family_b, "B", fibre_b)):
        v, gram = fibre_values_and_gram(bs, fam, grid) if known is None else known
        dev = gram_deviation(gram)
        if dev > MODULE_GRAM_TOL:
            raise GramCheckError(f"family {name} fails the module Gram check ({dev:.3e})")
        vals.append(v)
    return fibre_gram(bs, *vals)


def pointwise_unitarity_deviation(u: np.ndarray) -> float:
    """sup over the grid of ||U(z)* U(z) - I||_max for a pointwise matrix of shape (n, n, K)."""
    prod = np.einsum("ijK,ikK->jkK", np.conj(u), u)
    eye = np.eye(u.shape[1])[:, :, None]
    return float(np.max(np.abs(prod - eye)))


def linking_reconstruction_deviation(
    bs: BranchSystem, family_a: ModuleFamily, family_b: ModuleFamily, grid: CircleGrid
) -> float:
    """sup-error of B_j = sum_i A_i * (u_ij o b) over the grid, u_ij = <A_i, B_j>.

    The coefficients are re-evaluated pointwise at b(z) (no interpolation), so
    this also exercises the linking matrix off the sampling grid.
    """
    exc = sorted(set(family_a.exceptions) | set(family_b.exceptions))
    z, fib = expansion_points(bs, grid, exc)  # one fibre serves all pairs
    w_fib = family_a.values(fib)
    np.conjugate(w_fib, out=w_fib)
    return expansion_deviation(family_a.values(z), w_fib, zip(family_b.values(fib), family_b.values(z)))

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
from .circlefun import CircleGrid, FourierSeries, fourier_window
from .errors import GramCheckError
from .transfer import (
    MODULE_GRAM_TOL,
    ModuleFamily,
    expansion_blocks,
    fibre_gram,
    gram_deviation,
    module_gram_deviation,
    nudged_fibre,
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
    return [FourierSeries(c) for c in fourier_window(basis.values(grid.points), window)]


def validate_basis(basis: ModelBasis, grid: CircleGrid) -> dict:
    """Gram, H2 membership and orthogonality to b*H2; raises GramCheckError on failure.

    Returns the three deviations for reporting.
    """
    b = basis.owner
    vals = basis.values(grid.points)
    gram = vals @ vals.conj().T / grid.size
    gram_dev = float(np.max(np.abs(gram - np.eye(basis.size))))

    neg = max(FourierSeries(c).negative_energy() for c in fourier_window(vals, grid.size // 4))

    # (v, b e_n) = mode-n coefficient of v * conj(b); must vanish for n = 0..window
    window = min(VALIDATION_WINDOW, (grid.size - 1) // 2)
    overlap = fourier_window(vals * np.conj(evaluate(b, grid.points)), window)
    ortho = float(np.max(np.abs(overlap[:, window:])))

    report = {"gram_deviation": gram_dev, "negative_energy": neg, "bh2_overlap": ortho}
    if gram_dev > VALIDATION_TOL or neg > VALIDATION_TOL or ortho > np.sqrt(VALIDATION_TOL):
        raise GramCheckError(f"model basis validation failed: {report}")
    return report


def induced_module_basis(bs: BranchSystem, basis: ModelBasis, grid: CircleGrid) -> ModuleFamily:
    """{v_i * J^{-1/2}}: the module orthonormal basis induced by a model-space basis."""
    return basis.times(outer_symbol(bs, grid, -0.5).eval, "J^-1/2")


# -- linking unitaries between module bases ---------------------------------


def linking_unitary(
    bs: BranchSystem, family_a: ModuleFamily, family_b: ModuleFamily, grid: CircleGrid
) -> np.ndarray:
    """The matrix u_ij = <A_i, B_j> linking two module bases, on the grid: shape (n_a, n_b, K).

    Both families must pass the module Gram check, to MODULE_GRAM_TOL, on
    their memoised transfer.module_gram.  Pointwise on the grid the matrix
    (u_ij(z)) is unitary, and B_j = sum_i A_i * beta(u_ij).  u is formed on
    transfer.nudged_fibre of both families' exceptions, as module_gram keeps no values.
    """
    for fam, name in ((family_a, "A"), (family_b, "B")):
        dev = module_gram_deviation(bs, fam, grid)
        if dev > MODULE_GRAM_TOL:
            raise GramCheckError(f"family {name} fails the module Gram check ({dev:.3e})")
    fib, _ = nudged_fibre(bs, grid, (*family_a.exceptions, *family_b.exceptions))
    return fibre_gram(bs, family_a.values(fib), family_b.values(fib))


def pointwise_unitarity_deviation(u: np.ndarray) -> float:
    """sup over the grid of ||U(z)* U(z) - I||_max for a pointwise matrix of shape (n, n, K)."""
    return gram_deviation(np.einsum("ijK,ikK->jkK", np.conj(u), u))


def linking_reconstruction_deviation(
    bs: BranchSystem, family_a: ModuleFamily, family_b: ModuleFamily, grid: CircleGrid
) -> float:
    """sup-error of B_j = sum_i A_i * (u_ij o b), u_ij = <A_i, B_j>, at the points z of transfer.expansion_blocks.

    The module expansion of each B_j, a_i = A_i and w_i = conj(A_i), B_j(z) read from B_j's values
    on the fibre: the coefficients are taken at b(z), with no interpolation, half a step off the
    image grid on which linking_unitary samples u, so this exercises the linking matrix off that grid.
    """
    worst = 0.0
    blocks = expansion_blocks(bs, grid, (*family_a.exceptions, *family_b.exceptions), family_a, family_a.conjugate())
    for at, fib, kernel in blocks:
        for b_fib in family_b.values(fib):
            worst = max(worst, float(np.max(np.abs(np.sum(kernel * b_fib, axis=0) - b_fib[at]))))
    return worst

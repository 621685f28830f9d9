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
    arc_of,
    arcs_basis,
    expansion_blocks,
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


def _check_arc_labels(bs: BranchSystem, fib: np.ndarray) -> None:
    """Raise GramCheckError unless every row j of `fib` lies in arc j, where the arcs basis is sqrt(N) I."""
    off = np.count_nonzero(np.any(arc_of(bs, fib) != np.arange(bs.branch_count)[:, None], axis=0))
    if off:
        raise GramCheckError(f"fibre rows leave their arcs (transfer.arc_of) at {off} nodes")


def linking_unitary(bs: BranchSystem, family: ModuleFamily, grid: CircleGrid) -> np.ndarray:
    """The matrix u_ij = <A_i, E_j> linking a module basis A to the arcs basis E, on the grid: shape (n, N, K).

    A must pass the module Gram check (MODULE_GRAM_TOL, on its memoised transfer.module_gram), and every
    row j of transfer.nudged_fibre must lie in arc j, else GramCheckError: there E is sqrt(N) I, so
    u_ij = conj(A_i) sqrt(N) / N at branch row j.  Pointwise on the grid (u_ij(z)) is unitary and
    E_j = sum_i A_i * beta(u_ij); two bases A and B are linked by u_A u_B^* pointwise.
    """
    dev = module_gram_deviation(bs, family, grid)
    if dev > MODULE_GRAM_TOL:
        raise GramCheckError(f"family A fails the module Gram check ({dev:.3e})")
    fib, _ = nudged_fibre(bs, grid, (*family.exceptions, *arcs_basis(bs).exceptions))
    _check_arc_labels(bs, fib)
    return np.conj(family.values(fib)) * np.sqrt(bs.branch_count) / bs.branch_count


def pointwise_unitarity_deviation(u: np.ndarray) -> float:
    """sup over the grid of ||U(z)* U(z) - I||_max for a pointwise matrix of shape (n, n, K)."""
    return gram_deviation(np.einsum("ijK,ikK->jkK", np.conj(u), u))


def linking_reconstruction_deviation(bs: BranchSystem, family: ModuleFamily, grid: CircleGrid) -> float:
    """sup-error of E_j = sum_i A_i * (u_ij o b), u = linking_unitary, at the points z of transfer.expansion_blocks.

    The module expansion of E_j, a_i = A_i and w_i = conj(A_i), on fibres whose row l lies in arc l (else
    GramCheckError): there E_j(zeta) = sqrt(N) [zeta = zeta_j], so the error is sqrt(N) |k(z, zeta) - [zeta = z]|.
    The coefficients are taken at b(z), with no interpolation, half a step off the image grid on which
    linking_unitary samples u, so this exercises the linking matrix off that grid.
    """
    worst = 0.0
    exceptions = (*family.exceptions, *arcs_basis(bs).exceptions)
    for at, fib, kernel in expansion_blocks(bs, grid, exceptions, family, family.conjugate()):
        _check_arc_labels(bs, fib)
        kernel[at] -= 1.0  # zeta = z
        worst = max(worst, float(np.max(np.abs(kernel))))
    return float(np.sqrt(bs.branch_count)) * worst

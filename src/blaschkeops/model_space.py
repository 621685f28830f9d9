"""Orthonormal bases of the model space D = H2 minus b*H2.

For a degree-N product, D is N-dimensional and carries the canonical basis
built from partial products,

    w_j(z) = sqrt(1 - |a_j|^2) / (1 - conj(a_j) z) * prod_{k<j} b_{a_k}(z),

whose elements are rational, pole-free on the closed disc and zero-free on the
circle.  Any unitary rotation of a basis is again a basis; D is a complete
wandering subspace for multiplication by b: the columns v_i b^n are
orthonormal, which operators.orthonormality_defect certifies from the
moments of operators.pair_power_gram.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, BranchSystem, evaluate, moebius_factor
from .circlefun import BoundaryFunction, CircleGrid, FourierSeries, fourier_coeffs, sample
from .errors import GramCheckError
from .transfer import (
    MODULE_GRAM_TOL,
    ModuleVector,
    expansion_deviation,
    expansion_points,
    fibre_gram,
    gram_deviation,
    grid_fibre,
    outer_symbol,
)

#: validate_basis checks orthogonality to b e_n for n = 0..VALIDATION_WINDOW, or as far as the grid holds
VALIDATION_WINDOW = 64

#: validate_basis bound on the Gram and negative-mode deviations; the b*H2
#: overlap is held to its square root
VALIDATION_TOL = 1e-8

#: rotate_basis bound on ||U*U - I||
ROTATION_TOL = 1e-10


@dataclass(frozen=True)
class ModelBasis:
    """A basis of the model space: N analytic ModuleVectors plus provenance tag."""

    owner: BlaschkeProduct
    elements: list
    kind: str  # canonical | rotated | user

    def __post_init__(self):
        if len(self.elements) != self.owner.degree:
            raise ValueError("basis must have exactly N elements")

    @property
    def size(self) -> int:
        return len(self.elements)


def _canonical_rule(zeros: tuple, j: int):
    a = zeros[j - 1]
    scale = float(np.sqrt(1.0 - abs(a) ** 2))
    partial = zeros[: j - 1]

    def rule(z):
        z = np.asarray(z, dtype=complex)
        vals = np.full(z.shape, scale, dtype=complex)
        if a != 0:
            vals = vals / (1.0 - np.conj(a) * z)
        for w in partial:
            vals = vals * moebius_factor(w, z)
        return vals

    return rule


def canonical_basis(b: BlaschkeProduct) -> ModelBasis:
    """The partial-product basis; element j uses the first j-1 Moebius factors."""
    elems = [
        ModuleVector(label=f"w_{j}", func=_canonical_rule(b.zeros, j))
        for j in range(1, b.degree + 1)
    ]
    return ModelBasis(owner=b, elements=elems, kind="canonical")


def rotate_basis(basis: ModelBasis, u: np.ndarray) -> ModelBasis:
    """New elements v~_i = sum_j u[i, j] v_j; u must be unitary."""
    u = np.asarray(u, dtype=complex)
    n = basis.size
    if u.shape != (n, n):
        raise ValueError(f"rotation must be {n}x{n}")
    defect = np.max(np.abs(u.conj().T @ u - np.eye(n)))
    if defect > ROTATION_TOL:
        raise ValueError(f"rotation is not unitary: ||U*U - I|| = {defect:.3e}")

    def make(i):
        row = u[i]

        def rule(z):
            z = np.asarray(z, dtype=complex)
            acc = np.zeros(z.shape, dtype=complex)
            for c, v in zip(row, basis.elements):
                acc += c * v.evaluate(z)
            return acc

        return rule

    elems = [ModuleVector(label=f"rot_{i + 1}", func=make(i)) for i in range(n)]
    return ModelBasis(owner=basis.owner, elements=elems, kind="rotated")


def user_basis(b: BlaschkeProduct, elements: list) -> ModelBasis:
    return ModelBasis(owner=b, elements=list(elements), kind="user")


def basis_series(basis: ModelBasis, grid: CircleGrid, window: int) -> list[FourierSeries]:
    """Fourier windows of the basis elements (export format)."""
    return [fourier_coeffs(sample(v.evaluate, grid), window) for v in basis.elements]


def validate_basis(basis: ModelBasis, grid: CircleGrid) -> dict:
    """Gram, H2 membership and orthogonality to b*H2; raises GramCheckError on failure.

    Returns the three deviations for reporting.
    """
    b = basis.owner
    vals = np.stack([v.evaluate(grid.points) for v in basis.elements])
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


def induced_module_basis(bs: BranchSystem, basis: ModelBasis, grid: CircleGrid) -> list:
    """{v_i * J^{-1/2}}: the module orthonormal basis induced by a model-space basis."""
    jm = outer_symbol(bs, grid, -0.5)

    def make(v):
        return lambda z: v.evaluate(z) * jm.eval(np.asarray(z, dtype=complex))

    return [
        ModuleVector(label=f"{v.label}*J^-1/2", func=make(v)) for v in basis.elements
    ]


# -- linking unitaries between module bases ---------------------------------


def linking_unitary(bs: BranchSystem, family_a: list, family_b: list, grid: CircleGrid) -> list:
    """The matrix u_ij = <A_i, B_j> linking two module bases, as boundary functions.

    Both families must pass the module Gram check, to MODULE_GRAM_TOL.
    Pointwise on the grid the matrix (u_ij(z)) is unitary, and
    B_j = sum_i A_i * beta(u_ij).
    """
    fib = grid_fibre(bs, grid)
    vals = []  # each family evaluated once on the fibre serves its Gram check and u
    for fam, name in ((family_a, "A"), (family_b, "B")):
        v = np.stack([m.evaluate(fib) for m in fam])  # (n, N, K)
        dev = gram_deviation(fibre_gram(bs, v, v))
        if dev > MODULE_GRAM_TOL:
            raise GramCheckError(f"family {name} fails the module Gram check ({dev:.3e})")
        vals.append(v)
    u = fibre_gram(bs, *vals)
    return [[BoundaryFunction(grid, u[i, j]) for j in range(len(family_b))] for i in range(len(family_a))]


def pointwise_unitarity_deviation(u: list) -> float:
    """sup over the grid of ||U(z)* U(z) - I||_max for a matrix of boundary functions."""
    mat = np.stack([np.stack([f.values for f in row]) for row in u])  # (n, n, K)
    prod = np.einsum("ijK,ikK->jkK", np.conj(mat), mat)
    eye = np.eye(mat.shape[1])[:, :, None]
    return float(np.max(np.abs(prod - eye)))


def linking_reconstruction_deviation(
    bs: BranchSystem, family_a: list, family_b: list, grid: CircleGrid
) -> float:
    """sup-error of B_j = sum_i A_i * (u_ij o b) over the grid, u_ij = <A_i, B_j>.

    The coefficients are re-evaluated pointwise at b(z) (no interpolation), so
    this also exercises the linking matrix off the sampling grid.
    """
    exc = sorted({e for v in family_a + family_b for e in v.exceptions})
    z, fib = expansion_points(bs, grid, exc)  # one fibre serves all pairs
    w_fib = [np.conj(a.evaluate(fib)) for a in family_a]
    a_z = [a.evaluate(z) for a in family_a]
    return expansion_deviation(a_z, w_fib, ((b.evaluate(fib), b.evaluate(z)) for b in family_b))

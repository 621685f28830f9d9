"""The Rochberg decomposition f = sum_i v_i * (f_i o b).

Against a model-space basis {v_i}, every bounded f splits with coefficients

    f_i = <v_i J^{-1/2}, J^{-1/2} f> = L(conj(v_i) J0^{-1} f),

computed as branch means over one shared preimage fibre (transfer.fibre_means)
and put back together at b(z) by transfer.expansion_sum.  When f is analytic,
so is every f_i; a coefficient with negative-mode mass witnesses that f was not.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BlaschkeProduct, BranchSystem, evaluate, j0
from .circlefun import (
    BoundaryFunction,
    CircleGrid,
    FourierSeries,
    fourier_coeffs,
    synthesize,
    trim_series,
)
from .model_space import ModelBasis, validate_basis
from .transfer import expansion_sum, fibre_means, grid_fibre


@dataclass(frozen=True)
class Decomposition:
    """Result bundle: coefficients, reconstruction residual, analyticity evidence."""

    owner: BlaschkeProduct
    basis_kind: str
    input: FourierSeries
    coefficients: list
    residual: float
    membership: list  # negative-mode energy per coefficient

    def to_json_dict(self) -> dict:
        import json

        return {
            "basis": self.basis_kind,
            "input": json.loads(self.input.to_json()),
            "coefficients": [json.loads(c.to_json()) for c in self.coefficients],
            "residual": self.residual,
            "membership": list(map(float, self.membership)),
        }


def decompose(
    bs: BranchSystem,
    basis: ModelBasis,
    f: FourierSeries,
    grid: CircleGrid,
    *,
    check_basis: bool = True,
) -> Decomposition:
    """Split f against the basis; coefficients come back as Fourier windows.

    The coefficient window is grid.size // 4: the f_i of a band-limited f are
    generally full rational series, so truncating them at f's own window
    would lose geometric tail mass and spoil the round trip.
    """
    if 2 * f.window + 1 > grid.size // 2:
        raise ValueError("grid too coarse for the requested input window")
    if check_basis:
        validate_basis(basis, grid)
    win = grid.size // 4

    # one shared preimage fibre serves every coefficient
    fib = grid_fibre(bs, grid)
    f_fib = synthesize(f, fib)
    weight = f_fib / j0(bs.owner, np.angle(fib))

    w_fib = basis.values(fib)  # (N, N, K)
    np.conjugate(w_fib, out=w_fib)
    coeff_series = []
    membership = []
    for vals in fibre_means(w_fib, weight):
        s = fourier_coeffs(BoundaryFunction(grid, vals), win)
        membership.append(s.negative_energy())  # measured before trimming
        # floor sits above the root-finding noise in the sampled values
        coeff_series.append(trim_series(s, floor=3e-14))

    recon = reconstruct(bs, basis, coeff_series, grid)
    residual = float(np.max(np.abs(recon.values - synthesize(f, grid.points))))
    return Decomposition(
        owner=bs.owner,
        basis_kind=basis.kind,
        input=f,
        coefficients=coeff_series,
        residual=residual,
        membership=membership,
    )


def reconstruct(
    bs: BranchSystem,
    basis: ModelBasis,
    coefficients: list,
    grid: CircleGrid,
) -> BoundaryFunction:
    """sum_i v_i(z) * f_i(b(z)) on the grid; coefficients may have negative modes."""
    if len(coefficients) != basis.size:
        raise ValueError("one coefficient series per basis element required")
    z = grid.points
    bz = evaluate(bs.owner, z)
    total = expansion_sum(basis.values(z), (synthesize(s, bz) for s in coefficients))
    return BoundaryFunction(grid, total)

"""The canonical transfer operator, composition, and Hilbert-module structure.

The transfer operator averages a function over the N preimage branches,

    (L xi)(z) = (1/N) sum_{b(w) = z} xi(w),

and is a left inverse of composition beta: phi -> phi o b.  Together they give
the bounded-function algebra a Hilbert-module structure with inner product
<xi, eta> = L(conj(xi) eta) and module action xi . a = xi * beta(a); the arcs
indicators scaled by sqrt(N) form an orthonormal basis with N elements.

Module data has one type, ModuleFamily: a single element is a one-member
family, and L and beta map families to families.  Everything is evaluated
pointwise through the inverse branches, so identities hold to root-finding
accuracy with no interpolation error.
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

#: nodes this close (radians) to a declared exception image get nudged
NUDGE_RADIUS = 1e-9

#: a family whose pointwise module Gram deviates from the identity by more is
#: not a module basis (model_space.linking_unitary)
MODULE_GRAM_TOL = 1e-6


@dataclass(frozen=True)
class ModuleFamily:
    """n module elements evaluated together: values(z) has shape (n, *z.shape).

    A single element is a one-member family.  `rule` computes all members at
    once, so what they share (a running product, a symbol, a branch search) is
    computed once per point set, and returns a new array callers may overwrite.
    `exceptions` lists angles where some member is defined only up to a null set.
    """

    labels: tuple
    rule: object
    exceptions: tuple = ()

    @property
    def size(self) -> int:
        return len(self.labels)

    def values(self, z) -> np.ndarray:
        return np.asarray(self.rule(np.asarray(z, dtype=complex)), dtype=complex)

    def times(self, weight, label: str) -> ModuleFamily:
        """The family m_i * weight for a pointwise rule `weight` (an OuterFunction's eval)."""
        def rule(z):
            vals = self.values(z)
            vals *= weight(z)
            return vals

        return ModuleFamily(tuple(f"{m}*{label}" for m in self.labels), rule, self.exceptions)


def from_series(*series: FourierSeries) -> ModuleFamily:
    """The family of Fourier windows, each evaluated exactly by synthesis."""
    labels = tuple(f"series {i}" for i in range(len(series)))
    return ModuleFamily(labels, lambda z: np.stack([synthesize(s, z) for s in series]))


# -- fibre plumbing ---------------------------------------------------------


def outer_symbol(bs: BranchSystem, grid: CircleGrid, power: float) -> OuterFunction:
    """J^power, J the outer function with |J| = j0 = |b'|/N on the circle, memoised per grid.

    On the circle |b'| is a constant times |prod_c (1 - conj(c) z)|^2 / |prod_j (1 - conj(a_j) z)|^2,
    c over the critical points of b in the disc, so J = C prod_c (1 - conj(c) z)^2 / prod_j
    (1 - conj(a_j) z)^2 with C = j0(1) prod_j |1 - a_j|^2 / prod_c |1 - c|^2.
    """
    def build():
        b = bs.owner
        crit, zeros = b.critical_points, np.asarray(b.zeros, dtype=complex)
        scale = j0(b, 0.0) * np.prod(np.abs(1.0 - zeros) ** 2) / np.prod(np.abs(1.0 - crit) ** 2)
        return outer_function(grid, scale, crit, zeros, power)

    return bs.memo(("outer", grid.size, float(power)), build)


def fibre(bs: BranchSystem, angles) -> np.ndarray:
    """Preimage points of the circle points e^{i angles}, shape (N, len(angles))."""
    return np.exp(1j * bs.preimage_angles(angles))


def grid_fibre(bs: BranchSystem, grid: CircleGrid) -> np.ndarray:
    """Preimage points of all grid nodes, shape (N, K); memoised on the branch system."""
    return bs.memo(("fibre", grid.size), lambda: fibre(bs, grid.angles))


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


# -- the operators ----------------------------------------------------------


def compose_with_b(bs: BranchSystem, family: ModuleFamily) -> ModuleFamily:
    """beta(m_i) = m_i o b for every member (e_n goes to b^n on series input)."""
    exc = np.mod(bs.preimage_angles(family.exceptions), TWO_PI)  # (N, len(exceptions))
    return ModuleFamily(
        tuple(f"({m}) o b" for m in family.labels),
        lambda z: family.values(evaluate(bs.owner, z)),
        tuple(sorted(np.ravel(exc))),
    )


def transfer_family(bs: BranchSystem, family: ModuleFamily) -> ModuleFamily:
    """L(m_i) for every member, on the circle, through the exact preimage fibre."""
    imgs = evaluate(bs.owner, np.exp(1j * np.asarray(family.exceptions, dtype=float)))
    exc = tuple(sorted(set(np.round(np.mod(np.angle(imgs), TWO_PI), 12))))

    def rule(z):
        vals = family.values(fibre(bs, np.angle(z.reshape(-1)))).mean(axis=1)
        return vals.reshape((family.size,) + z.shape)

    return ModuleFamily(tuple(f"L({m})" for m in family.labels), rule, exc)


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


def fibre_means(w_fib, f_fib: np.ndarray) -> list[np.ndarray]:
    """The branch means (w_i * f).mean(axis=0) over a fibre of shape (N, K).

    With w_i = conj(m_i) on the fibre of b(z), mean i is the module coefficient
    <m_i, f> = L(conj(m_i) f) at b(z).  `w_fib` holds the w_i along its first
    axis, shape (n, N, K).
    """
    return [(w * f_fib).mean(axis=0) for w in w_fib]


def expansion_sum(a_z, coeffs) -> np.ndarray:
    """sum_i a_i * c_i, accumulated from zeros in basis order."""
    total = 0j
    for a, c in zip(a_z, coeffs):
        total = total + a * c
    return total


def expansion_deviation(a_z: np.ndarray, w_fib: np.ndarray, targets) -> float:
    """sup |f(z) - sum_i a_i(z) * mean_fibre(w_i f)| over the pairs (f on the fibre, f at z).

    The module expansion f = sum_i m_i beta(<m_i, f>) checked pointwise at the
    points of expansion_points: with a_i = m_i at z and w_i = conj(m_i) on the
    fibre of b(z), fibre_means gives the coefficients <m_i, f> at b(z) directly,
    with no interpolation, and expansion_sum puts the expansion back together.
    """
    worst = 0.0
    for f_fib, f_z in targets:
        acc = expansion_sum(a_z, fibre_means(w_fib, f_fib))
        worst = max(worst, float(np.max(np.abs(acc - f_z))))
    return worst


def transfer_apply(bs: BranchSystem, family: ModuleFamily, grid: CircleGrid) -> list[BoundaryFunction]:
    """Sample L(m_i) on the grid, one boundary function per member.

    Nodes on the (finitely many) angles where some L(m_i) is only defined up
    to a null set are nudged by half a grid step for every member, and recorded
    in each output's meta.  Families without declared exceptions are sampled
    exactly, the branch-point fibre being continuous for them.
    """
    lf = transfer_family(bs, family)
    if not lf.exceptions:
        return [BoundaryFunction(grid, v) for v in family.values(grid_fibre(bs, grid)).mean(axis=1)]
    t, moved = _nudged_angles(grid, lf.exceptions)
    meta = {"nudged_nodes": moved} if moved else {}
    return [BoundaryFunction(grid, v, meta=dict(meta)) for v in lf.values(np.exp(1j * t))]


# -- bases ------------------------------------------------------------------


def arcs_basis(bs: BranchSystem) -> ModuleFamily:
    """The N-element module basis sqrt(N) * indicator of the j-th arc.

    Arcs are half-open [t_{j-1}, t_j), which fixes values on the measure-zero
    endpoint set consistently with the branch labelling.  One search over the
    arc endpoints serves every member: row j is sqrt(N) where z lies in arc j.
    """
    n = bs.branch_count
    root = float(np.sqrt(n))
    ends = bs.arc_endpoints

    def rule(z):
        t = np.mod(np.angle(z), TWO_PI)
        arc = np.clip(np.searchsorted(ends, t, side="right"), 1, n)
        rows = np.arange(1, n + 1).reshape((n,) + (1,) * z.ndim)
        return np.where(rows == arc, root, 0.0).astype(complex)

    return ModuleFamily(
        labels=tuple(f"sqrt({n})*1_A{j}" for j in range(1, n + 1)),
        rule=rule,
        exceptions=tuple(np.mod(ends[:-1], TWO_PI)),
    )


def fibre_gram(bs: BranchSystem, a_vals: np.ndarray, b_vals: np.ndarray) -> np.ndarray:
    """Pointwise module Gram <A_i, B_j>(z) from values on a fibre, shape (n_a, n_b, K).

    `a_vals` and `b_vals` hold each family member on the preimage fibre, shape
    (n, N, K); the Gram is the branch average of conj(A_i) B_j.
    """
    return np.einsum("aNK,bNK->abK", np.conj(a_vals), b_vals) / bs.branch_count


def module_gram(bs: BranchSystem, family: ModuleFamily, grid: CircleGrid) -> np.ndarray:
    """Pointwise module Gram <m_i, m_j>(z) on the grid, shape (n, n, K).

    Formed from the family's values on the grid fibre, which are not kept, and
    memoised on the branch system, once per (family, grid).
    """
    def build():
        vals = family.values(grid_fibre(bs, grid))
        return fibre_gram(bs, vals, vals)

    return bs.memo(("gram", family, grid.size), build)


def gram_deviation(g: np.ndarray) -> float:
    """sup over the grid of |g_ij - delta_ij| for a pointwise Gram of shape (n, n, K)."""
    eye = np.eye(g.shape[0])[:, :, None]
    return float(np.max(np.abs(g - eye)))


def module_gram_deviation(bs: BranchSystem, family: ModuleFamily, grid: CircleGrid) -> float:
    """sup over the grid of |<m_i, m_j> - delta_ij|, maximized over pairs."""
    return gram_deviation(module_gram(bs, family, grid))

"""The canonical transfer operator, composition, and Hilbert-module structure.

The transfer operator averages a function over the N preimage branches,

    (L xi)(z) = (1/N) sum_{b(w) = z} xi(w),

and is a left inverse of composition beta: phi -> phi o b.  Together they give
the bounded-function algebra a Hilbert-module structure with inner product
<xi, eta> = L(conj(xi) eta) and module action xi . a = xi * beta(a); the arcs
indicators scaled by sqrt(N) form an orthonormal basis with N elements, which is
sqrt(N) I on nudged_fibre, where branch row j lies in arc j (arc_of, the one arc rule).

Module data has one type, ModuleFamily: a single element is a one-member
family, and L and beta map families to families.  Everything is evaluated
pointwise through the inverse branches, so identities hold to root-finding
accuracy with no interpolation error.  Every grid sample of L reads
nudged_fibre, the memoised grid fibre with nodes at exception images re-solved;
the module expansion is checked on midstep_fibre, half a step off the grid.
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
    nonnegative_powers,
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

    def conjugate(self) -> ModuleFamily:
        """The family conj(m_i)."""
        def rule(z):
            vals = self.values(z)
            np.conjugate(vals, out=vals)
            return vals

        return ModuleFamily(tuple(f"conj({m})" for m in self.labels), rule, self.exceptions)


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
    """Branch means of z^n over a fibre, n = 0..window, shape (window+1, K).

    Row n is L(e_n) at the points whose preimages are the columns of `fib`
    (shape (N, K)).  The table is one-sided: fibre points are exp(1j*angle),
    unimodular to about an ulp, so L(e_{-n}) = conj L(e_n) and no reciprocal
    rows are built.  Each branch's powers are summed from one reused buffer,
    so two tables are live at most; the returned array is fresh.
    """
    acc = nonnegative_powers(fib[0], window)
    buf = np.empty_like(acc)
    for branch in fib[1:]:
        acc += nonnegative_powers(branch, window, out=buf)
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


def _image_exceptions(bs: BranchSystem, exceptions) -> tuple:
    """Distinct angles of b at the exception angles, sorted: where L of such a family is defined up to a null set."""
    imgs = evaluate(bs.owner, np.exp(1j * np.asarray(exceptions, dtype=float)))
    return tuple(sorted(set(np.round(np.mod(np.angle(imgs), TWO_PI), 12))))


def transfer_family(bs: BranchSystem, family: ModuleFamily) -> ModuleFamily:
    """L(m_i) for every member, on the circle, through the exact preimage fibre."""
    def rule(z):
        vals = family.values(fibre(bs, np.angle(z.reshape(-1)))).mean(axis=1)
        return vals.reshape((family.size,) + z.shape)

    return ModuleFamily(tuple(f"L({m})" for m in family.labels), rule, _image_exceptions(bs, family.exceptions))


def _nudged(bs: BranchSystem, angles: np.ndarray, exceptions, fib: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """`fib`, the fibre of e^{i angles}, each node within NUDGE_RADIUS of an exception's image moved half a step: (fibre, moved nodes)."""
    t = angles.copy()
    hit: set[int] = set()
    for e in _image_exceptions(bs, exceptions):
        d = np.abs(np.mod(t - e + np.pi, TWO_PI) - np.pi)
        for k in np.nonzero(d < NUDGE_RADIUS)[0]:
            t[k] += np.pi / t.size
            hit.add(int(k))
    moved = sorted(hit)
    if moved:  # only the moved columns are solved anew, in a copy: the memoised fibre is read-only
        fib = fib.copy()
        fib[:, moved] = fibre(bs, t[moved])
    return fib, moved


def nudged_fibre(bs: BranchSystem, grid: CircleGrid, exceptions) -> tuple[np.ndarray, list[int]]:
    """The memoised grid_fibre through _nudged (the memo itself if no node moves): every grid sample of L reads it."""
    return _nudged(bs, grid.angles, exceptions, grid_fibre(bs, grid))


def midstep_fibre(bs: BranchSystem, grid: CircleGrid, exceptions) -> tuple[np.ndarray, list[int]]:
    """The fibre of the image nodes half a step off the grid, grid.angles + pi/K, through _nudged.

    Memoised on the branch system beside grid_fibre.  The module expansion is checked on it,
    where module_gram and linking_unitary take no sample.
    """
    mid = grid.angles + np.pi / grid.size
    return _nudged(bs, mid, exceptions, bs.memo(("midstep fibre", grid.size), lambda: fibre(bs, mid)))


#: family values on the fibre (members x branches x points) per block of expansion_blocks
EXPANSION_BLOCK = 1 << 19


def expansion_kernel(a_z: np.ndarray, w_fib: np.ndarray) -> np.ndarray:
    """k(z, zeta) = (1/N) sum_i a_i(z) w_i(zeta) over the fibre of b(z), shape (N, K); a_z is (n, K)."""
    return np.einsum("nK,nNK->NK", a_z, w_fib) / w_fib.shape[1]


def expansion_blocks(bs: BranchSystem, grid: CircleGrid, exceptions, a_family: ModuleFamily, w_family: ModuleFamily):
    """Yield (at, fibre columns, expansion kernel) over blocks of the columns of midstep_fibre.

    Node j's point z is branch j mod N of its own column, the fibre of b(z), so the block's
    points are fibre[at]: b(z) lies half a step off the image grid, and the K points are
    equidistributed in the image, K/N to an arc (on the circle their density follows j0).
    a_i = a_family at z and w_i = w_family on the fibre.  A block holds at most EXPANSION_BLOCK
    values of w_family (all K nodes up to n N K = 2^19: degree 8 on grid 8192).
    """
    fib, _ = midstep_fibre(bs, grid, exceptions)
    step = max(1, EXPANSION_BLOCK // (w_family.size * bs.branch_count))
    for lo in range(0, grid.size, step):
        fb = fib[:, lo : lo + step]
        cols = np.arange(fb.shape[1])
        at = ((lo + cols) % bs.branch_count, cols)
        yield at, fb, expansion_kernel(a_family.values(fb[at]), w_family.values(fb))


def coefficient_family(bs: BranchSystem, family: ModuleFamily, f: FourierSeries) -> ModuleFamily:
    """F_i = conj(m_i) f / j0, whose L is the coefficient f_i of f = sum_i m_i (f_i o b).

    On the circle |b'| = N j0, so int g (phi o b) dm = int phi L(g / j0) dm for every g
    (w = b(z)): mode k of L(F_i) is (f, m_i b^k).  F keeps the family's exception angles;
    a model-space basis has none, so transfer_apply nudges no node.
    """
    def weight(z):
        return synthesize(f, z) / j0(bs.owner, np.angle(z))

    return family.conjugate().times(weight, "f/j0")


def transfer_apply(bs: BranchSystem, family: ModuleFamily, grid: CircleGrid) -> list[BoundaryFunction]:
    """Sample L(m_i) on the grid, one boundary function per member: branch means over nudged_fibre.

    The nudged nodes are the same for every member and recorded in each output's meta.
    """
    fib, moved = nudged_fibre(bs, grid, family.exceptions)
    meta = {"nudged_nodes": moved} if moved else {}
    return [BoundaryFunction(grid, v, meta=dict(meta)) for v in family.values(fib).mean(axis=1)]


# -- bases ------------------------------------------------------------------


def arc_of(bs: BranchSystem, z) -> np.ndarray:
    """Index 0..N-1 of the half-open arc [t_j, t_{j+1}) that holds each z: the one arc-membership rule."""
    t = np.mod(np.angle(z), TWO_PI)
    return np.clip(np.searchsorted(bs.arc_endpoints, t, side="right") - 1, 0, bs.branch_count - 1)


def arcs_basis(bs: BranchSystem) -> ModuleFamily:
    """The N-element module basis sqrt(N) * indicator of the j-th arc.

    Arcs are half-open (arc_of), which fixes values on the measure-zero
    endpoint set consistently with the branch labelling.  One search over the
    arc endpoints serves every member: row j is sqrt(N) where z lies in arc j.
    """
    n = bs.branch_count
    root = float(np.sqrt(n))

    def rule(z):
        rows = np.arange(n).reshape((n,) + (1,) * z.ndim)
        return np.where(rows == arc_of(bs, z), root, 0.0).astype(complex)

    return ModuleFamily(
        labels=tuple(f"sqrt({n})*1_A{j}" for j in range(1, n + 1)),
        rule=rule,
        exceptions=tuple(np.mod(bs.arc_endpoints[:-1], TWO_PI)),
    )


def module_gram(bs: BranchSystem, family: ModuleFamily, grid: CircleGrid) -> np.ndarray:
    """Pointwise module Gram <m_i, m_j>(z) on the grid, shape (n, n, K).

    The branch average of conj(m_i) m_j over nudged_fibre, whose values are
    not kept, memoised on the branch system once per (family, grid).
    """
    def build():
        vals = family.values(nudged_fibre(bs, grid, family.exceptions)[0])
        return np.einsum("aNK,bNK->abK", np.conj(vals), vals) / bs.branch_count

    return bs.memo(("gram", family, grid.size), build)


def gram_deviation(g: np.ndarray) -> float:
    """sup over the grid of |g_ij - delta_ij| for a pointwise Gram of shape (n, n, K)."""
    eye = np.eye(g.shape[0])[:, :, None]
    return float(np.max(np.abs(g - eye)))


def module_gram_deviation(bs: BranchSystem, family: ModuleFamily, grid: CircleGrid) -> float:
    """sup over the grid of |<m_i, m_j> - delta_ij|, maximized over pairs."""
    return gram_deviation(module_gram(bs, family, grid))

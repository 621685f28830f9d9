"""Circle-grid calculus: sampling, Fourier analysis, inner products, outer functions.

Functions on the unit circle live either as samples on a uniform power-of-two
grid (BoundaryFunction) or as a finite two-sided Fourier window (FourierSeries).
Normalized Lebesgue measure is used throughout: means, not sums.

Outer functions of a rational modulus are products of principal powers
(1 - conj(c) z)^{2p} over finitely many points c of the open disc, one formula
on the grid and off it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import AnalyticExtensionError, GridMismatchError

TWO_PI = 2.0 * np.pi

#: synthesize refuses the analytic extension of a series with more negative-mode energy
ANALYTIC_TOL = 1e-10


def complex_pairs(values: np.ndarray) -> list:
    """[[re, im], ...] of a complex array in C order, as Python floats: one tolist() on a float view."""
    return np.ascontiguousarray(values, dtype=complex).view(float).reshape(-1, 2).tolist()


@dataclass(frozen=True)
class CircleGrid:
    """Uniform grid of K = 2^k >= 4 nodes t_j = 2*pi*j/K on [0, 2*pi): a Fourier
    window of at least 1 needs 3 nodes, and grids are powers of two."""

    size: int

    def __post_init__(self):
        if self.size < 4 or self.size & (self.size - 1):
            raise ValueError(f"grid size must be a power of two >= 4, got {self.size}")

    @property
    def angles(self) -> np.ndarray:
        return TWO_PI * np.arange(self.size) / self.size

    @property
    def points(self) -> np.ndarray:
        return np.exp(1j * self.angles)


@dataclass(frozen=True)
class BoundaryFunction:
    """Complex samples of a circle function on a CircleGrid.

    `meta` records processing notes (e.g. indices of nodes nudged off the
    branch point by the transfer operator); it never affects equality of the
    mathematical content.
    """

    grid: CircleGrid
    values: np.ndarray
    meta: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=complex)
        if vals.shape != (self.grid.size,):
            raise ValueError("values must be one complex number per grid node")
        if not np.all(np.isfinite(vals)):
            raise ValueError("non-finite sample")
        object.__setattr__(self, "values", vals)

    def to_csv(self) -> str:
        rows = np.column_stack((self.grid.angles, self.values.real, self.values.imag)).tolist()
        return "t,re,im\n" + "".join(f"{t!r},{re!r},{im!r}\n" for t, re, im in rows)


def boundary_from_csv(text: str) -> BoundaryFunction:
    rows = [line.split(",") for line in text.strip().splitlines()[1:]]
    vals = np.array([complex(float(r), float(i)) for _, r, i in rows])
    return BoundaryFunction(CircleGrid(len(vals)), vals)


@dataclass(frozen=True)
class FourierSeries:
    """Finite two-sided Fourier window: coefficients c_n for n in [-window, window]."""

    coeffs: np.ndarray  # length 2*window + 1, index 0 <-> mode -window

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if c.ndim != 1 or c.size % 2 == 0:
            raise ValueError("coefficient array must have odd length 2M+1")
        if not np.all(np.isfinite(c)):
            raise ValueError("non-finite coefficient")
        object.__setattr__(self, "coeffs", c)

    @property
    def window(self) -> int:
        return (self.coeffs.size - 1) // 2

    @property
    def modes(self) -> np.ndarray:
        return np.arange(-self.window, self.window + 1)

    def coeff(self, n: int) -> complex:
        if abs(n) > self.window:
            return 0.0 + 0.0j
        return complex(self.coeffs[n + self.window])

    def negative_energy(self) -> float:
        """l2 mass sum |c_n|^2 over n < 0."""
        return float(np.sum(np.abs(self.coeffs[: self.window]) ** 2))

    def total_energy(self) -> float:
        return float(np.sum(np.abs(self.coeffs) ** 2))

    def to_json(self) -> str:
        return json.dumps(
            {"min_n": -self.window, "coeffs": complex_pairs(self.coeffs)}
        )


def series_from_json(text: str) -> FourierSeries:
    data = json.loads(text)
    coeffs = np.array([complex(re, im) for re, im in data["coeffs"]])
    if data["min_n"] != -(coeffs.size - 1) // 2:
        raise ValueError("series window is not symmetric around mode 0")
    return FourierSeries(coeffs)


def trim_series(s: FourierSeries, floor: float = 1e-16) -> FourierSeries:
    """Shrink the window symmetrically, dropping outer coefficients below floor * max|c|."""
    mags = np.abs(s.coeffs)
    mx = float(mags.max())
    if mx == 0.0:
        return FourierSeries(np.zeros(1, dtype=complex))
    keep = np.nonzero(mags > floor * mx)[0]
    m = int(np.max(np.abs(keep - s.window)))
    return FourierSeries(s.coeffs[s.window - m : s.window + m + 1])


def exponential(n: int, window: int | None = None) -> FourierSeries:
    """The basis series e_n(z) = z^n."""
    m = abs(n) if window is None else window
    if abs(n) > m:
        raise ValueError("mode outside requested window")
    c = np.zeros(2 * m + 1, dtype=complex)
    c[n + m] = 1.0
    return FourierSeries(c)


def nonnegative_powers(z, top: int, out: np.ndarray | None = None) -> np.ndarray:
    """z^n for n = 0..top, shape (top+1, len(z)); row n holds z^n.

    Built by doubling, about one complex multiply per entry: rows
    [2^h, 2^(h+1)) are rows [0, 2^h) times z^(2^h).  Row n does not depend on
    `top`.  `out`, when given, is a (top+1, len(z)) complex array that
    receives the rows and is returned.
    """
    z = np.asarray(z, dtype=complex)
    if out is None:
        out = np.empty((top + 1, z.size), dtype=complex)
    out[0] = 1.0
    if top:
        out[1] = z
    done = 2  # rows [0, done) are filled; done is a power of two
    while done <= top:
        count = min(done, top + 1 - done)
        np.multiply(out[:count], out[done // 2] * out[done // 2], out=out[done : done + count])
        done *= 2
    return out


def integer_powers(z, window: int) -> np.ndarray:
    """z^n for n = -window..window, shape (2*window+1, len(z)); row window + n holds z^n.

    The rows n >= 0 are nonnegative_powers.  The negative rows, read by the
    weighted columns of operators, are reciprocals of the positive ones, not
    conjugates: samples of b are unimodular only to a few ulps.  Row n does not
    depend on the window, so a wider table holds a narrower one bit for bit.
    """
    if window < 0:
        raise ValueError(f"window must be >= 0, got {window}")
    z = np.asarray(z, dtype=complex)
    out = np.empty((2 * window + 1, z.size), dtype=complex)
    pos = nonnegative_powers(z, window, out=out[window:])  # rows n = 0..window
    np.divide(1.0, pos[:0:-1], out=out[:window])
    return out


def sample(f, grid: CircleGrid) -> BoundaryFunction:
    """Sample a pointwise-evaluable function of z = e^{it} on the grid nodes."""
    return BoundaryFunction(grid, np.asarray(f(grid.points), dtype=complex))


def fourier_coeffs(f: BoundaryFunction, window: int) -> FourierSeries:
    """Discrete Fourier window c_n = (1/K) sum_k f(t_k) e^{-i n t_k}, n in [-window, window].

    Exact for band-limited inputs whose band fits the grid (aliasing otherwise).
    """
    return FourierSeries(fourier_window(f.values, window))


def fourier_window(values: np.ndarray, window: int) -> np.ndarray:
    """fourier_coeffs of every row at once: the window n in [-window, window] of
    samples on a grid along the last axis, shape values.shape[:-1] + (2*window+1,).

    Row r holds the bits that fourier_coeffs gives for row r alone, and the
    central 2m+1 entries of a wider window are the window m.  (norm="forward"
    would not: it can flip the sign of an exact zero, which JSON prints.)
    """
    K = values.shape[-1]
    if 2 * window + 1 > K:
        raise ValueError(f"window {window} exceeds grid capacity {(K - 1) // 2}")
    idx = np.mod(np.arange(-window, window + 1), K)
    return np.fft.fft(values, axis=-1)[..., idx] / K


def synthesize(s: FourierSeries, z):
    """Evaluate the finite sum sum c_n z^n at points on the circle or inside the disc.

    If any z is strictly interior the series is evaluated as its analytic
    extension (nonnegative modes only); this is refused if the negative-mode
    energy exceeds ANALYTIC_TOL.  On the circle, z^{-n} = conj(z)^n.
    """
    arr = np.asarray(z, dtype=complex)
    scalar = arr.ndim == 0
    pts = np.atleast_1d(arr)
    want_analytic = bool(np.any(np.abs(pts) < 1.0 - 1e-12))
    m = s.window
    if want_analytic and s.negative_energy() > ANALYTIC_TOL:
        raise AnalyticExtensionError(
            f"negative-mode energy {s.negative_energy():.3e} exceeds {ANALYTIC_TOL:.1e}"
        )
    # Horner on nonnegative modes; negative modes via conj(z)^n, valid on the circle
    pos = np.zeros_like(pts)
    for c in s.coeffs[m:][::-1]:
        pos = pos * pts + c
    if want_analytic:
        vals = pos
    else:
        neg = np.zeros_like(pts)
        zc = np.conj(pts)
        for c in s.coeffs[:m]:  # modes -m, ..., -1, deepest first
            neg = neg * zc + c
        vals = pos + neg * zc
    if scalar:
        return complex(vals[0])
    return vals.reshape(arr.shape)


def l2_inner(f: BoundaryFunction, g: BoundaryFunction) -> complex:
    """(f, g) = integral of f * conj(g) against normalized measure (grid mean)."""
    if f.grid.size != g.grid.size:
        raise GridMismatchError(f"grids of size {f.grid.size} and {g.grid.size}")
    return complex(np.mean(f.values * np.conj(g.values)))


def l2_norm(f: BoundaryFunction) -> float:
    return float(np.sqrt(np.mean(np.abs(f.values) ** 2)))


@dataclass(frozen=True)
class OuterFunction:
    """J = scale^p prod_r (1 - conj(r) z)^{2p} / prod_q (1 - conj(q) z)^{2p}, p = power, r and q in the disc.

    Each factor has positive real part on the closed disc, so its principal power is
    the analytic branch for every real p: J is outer, J(0) = scale^p > 0.  One formula
    gives `boundary` (J on the grid) and `eval` (J anywhere on the closed disc).
    """

    boundary: BoundaryFunction
    scale: float
    roots: np.ndarray
    poles: np.ndarray
    power: float

    def at_zero(self) -> float:
        return float(self.scale**self.power)

    def eval(self, z):
        """J at z: two running products of factors to the power |2p| (swapped if p < 0), one division."""
        z = np.asarray(z, dtype=complex)
        q = abs(2.0 * self.power)
        top = np.full(z.shape, self.scale ** abs(self.power), dtype=complex)
        bottom = np.ones(z.shape, dtype=complex)
        fac = np.empty(z.shape, dtype=complex)
        for points, acc in ((self.roots, top), (self.poles, bottom)):
            for c in points:
                np.multiply(np.conj(c), z, out=fac)
                np.subtract(1.0, fac, out=fac)
                if q != 1.0:
                    np.power(fac, q, out=fac)
                acc *= fac
        if self.power < 0:
            top, bottom = bottom, top
        top /= bottom
        return complex(top) if z.ndim == 0 else top


def outer_function(grid: CircleGrid, scale: float, roots, poles, power: float) -> OuterFunction:
    """The OuterFunction of (scale, roots, poles, power), its boundary sampled on `grid`.

    The scale must be finite and positive and every root and pole inside the disc.  A power that is
    not finite, or lets J overflow on the closed disc (|log J| <= |p| (|log scale| + 2 sum -log(1 - |c|))
    over roots and poles), is refused.
    """
    roots, poles = np.asarray(roots, dtype=complex), np.asarray(poles, dtype=complex)
    if not (np.isfinite(scale) and scale > 0):
        raise ValueError(f"outer scale must be finite and positive, got {scale}")
    radii = np.abs(np.concatenate((roots, poles)))
    if np.any(radii >= 1.0):
        raise ValueError("outer roots and poles must lie inside the unit disc")
    if not abs(power) * (abs(np.log(scale)) - 2.0 * np.sum(np.log1p(-radii))) <= np.log(np.finfo(float).max):
        raise ValueError(f"outer power {power} is not finite or overflows: |power * log J| > log(float max)")
    o = OuterFunction(None, float(scale), roots, poles, float(power))  # boundary set below, from eval
    object.__setattr__(o, "boundary", BoundaryFunction(grid, o.eval(grid.points)))
    return o

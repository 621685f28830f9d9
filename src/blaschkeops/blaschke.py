"""Finite Blaschke products and their boundary parametrization.

A degree-N Blaschke product b is the product of Moebius factors

    b_w(z) = (|w|/w) (w - z) / (1 - conj(w) z),      b_0(z) = z,

one per prescribed zero w in the open unit disc.  On the circle, b wraps N
times around; the increasing argument lift theta with b(e^{it}) = e^{i theta(t)}
and its N monotone inverse branches are what every downstream operator
(transfer operator, composition matrices) is built from.

On the circle each factor is b_w(e^{it}) = -(|w|/w) e^{it} conj(q) / q with
q = 1 - conj(w) e^{it}, and Re q > 0, so the lift is the closed form

    theta(t) = theta0 + N t - 2 sum_j [Arg(1 - conj(a_j) e^{it}) - Arg(1 - conj(a_j))],

an O(N) sum of Moebius arguments whose derivative is N*j0, the strictly
positive boundary symbol.  Zeros at the origin contribute only their share of
N t.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field, fields, is_dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from .errors import BranchPointError

TWO_PI = 2.0 * np.pi

#: refinement target for theta(t) = s root finding, in radians
ROOT_TOL = 1e-13

#: chordal exclusion radius around the branch point b(1)
BRANCH_EXCLUSION = 1e-8

#: angular snap radius: points this close to b(1) are treated as exact hits
BRANCH_SNAP = 1e-12


def _as_points(z):
    arr = np.asarray(z, dtype=complex)
    return arr, arr.ndim == 0


@dataclass(frozen=True)
class BlaschkeProduct:
    """Finite Blaschke product given by its zero list (multiplicity = repetition).

    Zeros are kept in the order supplied; the canonical model-space basis
    depends on that order.
    """

    zeros: tuple

    def __post_init__(self):
        if len(self.zeros) == 0:
            raise ValueError("degree-0 Blaschke products (constants) are not supported")
        zs = np.asarray(self.zeros, dtype=complex)
        if not np.all(np.isfinite(zs)):
            raise ValueError("zeros must be finite, got %s" % zs)
        mods = np.abs(zs)
        if np.any(mods >= 1.0):
            raise ValueError("all zeros must satisfy |alpha| < 1, got moduli %s" % mods)

    @property
    def degree(self) -> int:
        return len(self.zeros)

    @cached_property
    def one_minus_abs2(self) -> tuple:
        """1 - |a_j|^2 per zero, summed exactly from the float parts and rounded once (no cancellation)."""
        return tuple(float(1 - Fraction(w.real) ** 2 - Fraction(w.imag) ** 2) for w in map(complex, self.zeros))

    @cached_property
    def critical_points(self) -> np.ndarray:
        """The N - 1 zeros of b' in the disc, with multiplicity: m - 1 at each zero of b of
        multiplicity m, then the zeros in the disc of b'/b = sum_a m_a [1/(z - a) + conj(a)/(1 - conj(a) z)]
        over the distinct zeros a (the form that stays finite for tiny a).

        Seeds are eigenvalues.  b'/b = sum_k r_k / D_k(z), with D = (a - z, 1 - conj(a) z) and
        r = (-m, m conj(a)), vanishes where the arrowhead pencil [[0, r], [1, diag(D(z))]] = A0 - z B
        is singular.  b'/b has no zero on the circle, so z = 1 + 1/mu turns the zeros into the
        eigenvalues mu of (A0 - B)^{-1} B; Re mu < -1/2 is |z| < 1, and drops mu = 0 before the
        division.  Newton steps on b'/b polish the seeds.
        """
        distinct = Counter()  # in order of first appearance; a zero within 4 eps of an earlier
        for w in self.zeros:  # one counts as that zero, since the seeds cannot split the two
            distinct[next((a for a in distinct if abs(w - a) <= 4 * np.finfo(float).eps), w)] += 1
        a, m = np.array(list(distinct), dtype=complex), np.array(list(distinct.values()), dtype=float)
        ca = np.conj(a)
        e = np.concatenate(([0.0], np.ones(a.size), ca))  # the diagonal of B
        pencil = np.diag(np.concatenate(([0.0], a, np.ones(a.size))) - e)
        pencil[0, 1:] = np.concatenate((-m, m * ca))
        pencil[1:, 0] = 1.0
        mu = np.linalg.eigvals(np.linalg.solve(pencil, np.diag(e)))
        z = 1.0 + 1.0 / mu[mu.real < -0.5]
        with np.errstate(all="ignore"):  # a seed within 1e-154 of a zero has no finite step: it stays
            for _ in range(8):
                u, v = 1.0 / (z - a[:, None]), ca[:, None] / (1.0 - ca[:, None] * z)
                step = (m @ (u + v)) / (m @ (v * v - u * u))
                step[~np.isfinite(step)] = 0.0
                z = z - step
                if np.max(np.abs(step), initial=0.0) <= 4 * np.finfo(float).eps:
                    break
        if z.size != a.size - 1 or not np.all(np.abs(z) < 1.0):
            raise RuntimeError(f"found {z.size} critical points in the disc from {a.size} distinct zeros")
        return np.concatenate((np.repeat(a, m.astype(int) - 1), z))

    def __call__(self, z):
        return evaluate(self, z)

    def to_json(self) -> str:
        return json.dumps({"zeros": [[z.real, z.imag] for z in map(complex, self.zeros)]})


def make_blaschke(zeros) -> BlaschkeProduct:
    """Build a Blaschke product from an iterable of complex zeros, |alpha_j| < 1."""
    return BlaschkeProduct(tuple(complex(z) for z in zeros))


def blaschke_from_json(text: str) -> BlaschkeProduct:
    data = json.loads(text)
    return make_blaschke(complex(re, im) for re, im in data["zeros"])


def _rotation(w: complex) -> complex:
    """|w| / w, the unimodular constant of b_w; a subnormal w is scaled by 2**600 (exact)
    first, since its |w| keeps too few bits (|w| / w had modulus 0.71 at -5e-324 + 5e-324j)."""
    w = w * 2.0**600 if abs(w) < np.finfo(float).tiny else w
    return abs(w) / w


def moebius_factor(w: complex, z):
    """The single factor b_w(z); b_0(z) = z."""
    if w == 0:
        return np.asarray(z, dtype=complex)
    z = np.asarray(z, dtype=complex)
    denom = 1.0 - np.conj(w) * z
    hit = np.abs(denom) < 1e-14 * (1.0 + np.abs(np.conj(w) * z))
    if np.any(hit):  # a refused point on the circle puts the pole 1/conj(w) on it: name the zero
        if np.any(np.abs(np.abs(z[hit]) - 1.0) < 1e-12):
            raise ValueError(f"zero {w} lies too near the circle to evaluate on it: 1 - |alpha| = {1.0 - abs(w):.3e}")
        raise ValueError("evaluation at (or within machine tolerance of) a pole 1/conj(alpha)")
    return _rotation(w) * (w - z) / denom


def _factor_values(b: BlaschkeProduct, z: np.ndarray) -> np.ndarray:
    """Values of the N Moebius factors, shape (N,) + z.shape."""
    out = np.empty((b.degree,) + z.shape, dtype=complex)
    for j, w in enumerate(b.zeros):
        out[j] = moebius_factor(w, z)
    return out


def evaluate(b: BlaschkeProduct, z):
    """Evaluate b at scalar or array z (closed disc and slightly beyond; poles rejected)."""
    arr, scalar = _as_points(z)
    vals = _factor_values(b, np.atleast_1d(arr)).prod(axis=0)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite Blaschke value (pole hit)")
    if scalar:
        return complex(vals[0])
    return vals.reshape(arr.shape)


def derivative(b: BlaschkeProduct, z):
    """Exact analytic derivative b'(z) via the product rule (no division by factors)."""
    arr, scalar = _as_points(z)
    pts = np.atleast_1d(arr)
    fac = _factor_values(b, pts)
    dfac = np.empty_like(fac)
    for j, w in enumerate(b.zeros):
        if w == 0:
            dfac[j] = 1.0
        else:
            dfac[j] = -_rotation(w) * b.one_minus_abs2[j] / (1.0 - np.conj(w) * pts) ** 2
    # prefix/suffix products keep the formula finite at the zeros of b
    n = b.degree
    prefix = np.ones_like(fac)
    suffix = np.ones_like(fac)
    for j in range(1, n):
        prefix[j] = prefix[j - 1] * fac[j - 1]
    for j in range(n - 2, -1, -1):
        suffix[j] = suffix[j + 1] * fac[j + 1]
    vals = (dfac * prefix * suffix).sum(axis=0)
    if not np.all(np.isfinite(vals)):
        raise ValueError("non-finite derivative (pole hit)")
    if scalar:
        return complex(vals[0])
    return vals.reshape(arr.shape)


def j0(b: BlaschkeProduct, t, e=None):
    """Boundary symbol j0(e^{it}) = (1/N) sum_j (1-|a_j|^2)/|a_j - e^{it}|^2, strictly positive.

    Zero factors contribute the constant 1.  Equals Re(e^{it} b'(e^{it}) / (N b(e^{it}))).
    `e`, when given, is exactly np.exp(1j * t) for a caller that has formed it already.
    """
    tt = np.asarray(t, dtype=float)
    scalar = tt.ndim == 0
    pts = np.exp(1j * np.atleast_1d(tt)) if e is None else np.atleast_1d(e)
    acc = np.zeros(pts.shape, dtype=float)
    diff = np.empty(pts.shape, dtype=complex)
    term = np.empty(pts.shape, dtype=float)
    for w, gap in zip(b.zeros, b.one_minus_abs2):
        if w == 0:
            acc += 1.0
        else:
            # gap / |w - e^{it}|^2, one operation at a time into the two buffers
            np.subtract(w, pts, out=diff)
            np.abs(diff, out=term)
            np.square(term, out=term)
            np.divide(gap, term, out=term)
            acc += term
    acc /= b.degree
    if scalar:
        return float(acc[0])
    return acc.reshape(tt.shape)


@dataclass(frozen=True)
class BranchSystem:
    """The argument lift theta on [0, 2pi] and its N monotone inverse branches.

    theta(0) is the principal argument of b(1) in (-pi, pi]; theta increases by
    2*pi*N over one turn.  The inverse branch sigma_j maps the circle (minus
    the branch point b(1)) onto the open arc A_j between consecutive endpoints.
    """

    owner: BlaschkeProduct
    theta0: float
    theta_table: np.ndarray  # theta at max(4096, 64*N) + 1 uniform nodes on [0, 2pi]
    arc_endpoints: np.ndarray  # t_0 = 0 < t_1 < ... < t_N = 2pi

    _grid_cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def memo(self, key, build):
        """The shared input under `key`, built by `build()` on first use, every array
        in it (also inside dataclasses) read-only so no caller can change it.  Not
        locked: threads that miss together each build and return their own value."""
        value = self._grid_cache.get(key)
        if value is None:
            value = self._grid_cache[key] = _read_only(build())
        return value

    @property
    def branch_count(self) -> int:
        return self.owner.degree

    # -- the lift ----------------------------------------------------------

    def theta(self, t, e=None):
        """theta(t) for scalar or array t: the Moebius-argument sum, exact at t = 0.

        `e`, when given, is exactly np.exp(1j * t) for a caller that has formed it already.
        """
        tt = np.asarray(t, dtype=float)
        if e is None:
            e = np.exp(1j * tt)
        val = self.theta0 + self.branch_count * tt
        q = np.empty(tt.shape, dtype=complex)
        arg = np.empty(tt.shape)
        for w in self.owner.zeros:
            if w != 0:
                cw = np.conj(w)
                # val - 2 (Arg(1 - cw e) - Arg(1 - cw)), one operation at a time into the buffers
                np.multiply(cw, e, out=q)
                np.subtract(1.0, q, out=q)
                np.arctan2(q.imag, q.real, out=arg)
                arg -= np.angle(1.0 - cw)
                arg *= 2.0
                val -= arg
        return float(val) if tt.ndim == 0 else val

    def theta_prime(self, t, e=None):
        """theta'(t) = N * j0(t), strictly positive; `e` as in theta."""
        return self.owner.degree * j0(self.owner, t, e)

    def theta_inv(self, s):
        """Solve theta(t) = s for t in [0, 2pi], vectorized safeguarded Newton.

        Brackets come from the table; converged points leave the active set, so
        stragglers do not force extra global iterations.
        """
        ss = np.asarray(s, dtype=float)
        scalar = ss.ndim == 0
        target = np.atleast_1d(ss).astype(float).reshape(-1)
        table = self.theta_table
        n_cells = table.size - 1
        h = TWO_PI / n_cells
        idx = np.clip(np.searchsorted(table, target, side="right") - 1, 0, n_cells - 1)
        lo = idx * h
        hi = lo + h
        # linear seed inside the bracketing cell
        t = np.clip(lo + (target - table[idx]) / (table[idx + 1] - table[idx]) * h, lo, hi)
        active = np.arange(t.size)
        for _ in range(60):
            if not active.size:
                break
            ta = t[active]
            e = np.exp(1j * ta)  # one exponential serves the lift and the slope
            f = self.theta(ta, e) - target[active]
            conv = np.abs(f) < ROOT_TOL
            if conv.any():
                active = active[~conv]
                if not active.size:
                    break
                ta = ta[~conv]
                e = e[~conv]
                f = f[~conv]
            la = lo[active]
            ha = hi[active]
            ha = np.where(f > 0, ta, ha)
            la = np.where(f <= 0, ta, la)
            tn = ta - f / self.theta_prime(ta, e)
            out = (tn < la) | (tn > ha)
            tn = np.where(out, 0.5 * (la + ha), tn)
            t[active] = tn
            lo[active] = la
            hi[active] = ha
        if active.size:
            worst = float(np.max(np.abs(self.theta(t[active]) - target[active])))
            if worst > 1e-9:
                raise RuntimeError(f"theta inversion stalled with residual {worst:.3e}")
        if scalar:
            return float(t[0])
        return t.reshape(ss.shape)

    # -- preimages ----------------------------------------------------------

    def preimage_angles(self, angles) -> np.ndarray:
        """Angles of the full preimage fibre, shape (N, len(angles)).

        Row j-1 holds the branch sigma_j.  Points within BRANCH_SNAP radians of the
        branch point are resolved to the arc-endpoint fibre (the preimage set
        varies continuously through b(1); only the branch labels jump there).
        """
        a = np.atleast_1d(np.asarray(angles, dtype=float)).reshape(-1)
        rep = np.mod(a - self.theta0, TWO_PI)
        rep = np.where(np.minimum(rep, TWO_PI - rep) < BRANCH_SNAP, 0.0, rep)
        offsets = self.theta0 + TWO_PI * np.arange(self.branch_count)
        targets = rep[None, :] + offsets[:, None]
        return self.theta_inv(targets)


def _read_only(value):
    """`value`, with every array in it, also inside nested dataclasses, made read-only."""
    if isinstance(value, np.ndarray):
        value.flags.writeable = False
    elif is_dataclass(value):
        for f in fields(value):
            _read_only(getattr(value, f.name))
    return value


def build_branches(b: BlaschkeProduct) -> BranchSystem:
    """Construct the branch system: the closed-form lift, its table and the arc endpoints.

    The table has max(4096, 64*N) uniform cells: at least 64 per branch on average.
    """
    n = b.degree
    table_size = max(4096, 64 * n)
    theta0 = float(np.angle(evaluate(b, 1.0)))
    bs = BranchSystem(owner=b, theta0=theta0, theta_table=np.empty(0), arc_endpoints=np.empty(0))
    table = bs.theta(np.linspace(0.0, TWO_PI, table_size + 1))
    if np.any(np.diff(table) <= 0):
        raise RuntimeError("theta table is not strictly increasing; the lift lost monotonicity")
    object.__setattr__(bs, "theta_table", table)
    endpoints = bs.theta_inv(theta0 + TWO_PI * np.arange(n + 1.0))
    endpoints[0] = 0.0
    endpoints[-1] = TWO_PI
    object.__setattr__(bs, "arc_endpoints", endpoints)
    return bs


def preimages(bs: BranchSystem, z) -> np.ndarray:
    """The N circle preimages sigma_1(z), ..., sigma_N(z) of a unit-modulus z.

    Exact (machine-level) hits of the branch point b(1) are allowed and return
    the arc-endpoint fibre; anything else inside BRANCH_EXCLUSION raises
    BranchPointError, since the branch labelling is discontinuous there.
    """
    zc = complex(z)
    if not np.isfinite(zc):
        raise ValueError(f"preimages require a finite z, got {zc}")
    if abs(abs(zc) - 1.0) > 1e-8:
        raise ValueError(f"preimages require |z| = 1, got |z| = {abs(zc)}")
    rep = np.mod(np.angle(zc) - bs.theta0, TWO_PI)
    dist = min(rep, TWO_PI - rep)
    if BRANCH_SNAP < dist < BRANCH_EXCLUSION:
        raise BranchPointError(
            f"z is within the exclusion radius {BRANCH_EXCLUSION} of the branch point b(1)"
        )
    t = bs.preimage_angles(np.angle(zc))
    return np.exp(1j * t[:, 0])

"""Independent oracles for the test suite.

Everything here avoids the library's own branch machinery: preimages come from
polynomial root finding on the numerator of b(w) - z*den(w), derivatives from
central differences, means from plain quadrature at two resolutions, and J^p
from the critical points of b, found as polynomial roots.  The *_mpmath
references work at 50 digits with the same polynomials (mpmath is test-only).
"""

import numpy as np


def _numerator_denominator(zeros):
    """b = num / den, built factor by factor; ascending coefficients."""
    num = np.array([1.0 + 0.0j])
    den = np.array([1.0 + 0.0j])
    for w in zeros:
        w = complex(w)
        if w == 0:
            nf = np.array([0.0, 1.0], dtype=complex)  # w
            df = np.array([1.0], dtype=complex)
        else:
            nf = np.exp(-1j * np.angle(w)) * np.array([w, -1.0], dtype=complex)  # (|w|/w)(w - x)
            df = np.array([1.0, -np.conj(w)], dtype=complex)  # 1 - conj(w) x
        num = np.polynomial.polynomial.polymul(num, nf)
        den = np.polynomial.polynomial.polymul(den, df)
    return num, den


def preimage_roots(zeros, z):
    """All circle solutions of b(w) = z via the degree-N polynomial companion matrix.

    b(w) - z = 0  <=>  num(w) - z * den(w) = 0 with num, den built factor by
    factor; coefficients are in ascending order (numpy polynomial convention).
    """
    num, den = _numerator_denominator(zeros)
    den_full = np.zeros_like(num)
    den_full[: den.size] = den
    poly = num - z * den_full
    roots = np.polynomial.polynomial.polyroots(poly)
    assert np.all(np.abs(np.abs(roots) - 1.0) < 1e-8), "oracle roots left the circle"
    return roots


def blaschke_value(zeros, w):
    """Direct factor-by-factor evaluation (no shared code with the library path)."""
    w = np.asarray(w, dtype=complex)
    out = np.ones_like(w)
    for a in zeros:
        a = complex(a)
        if a == 0:
            out = out * w
        else:
            out = out * np.exp(-1j * np.angle(a)) * (a - w) / (1.0 - np.conj(a) * w)
    return out


def transfer_brute(zeros, func, z_points):
    """L(func) at given circle points through the polynomial preimage oracle."""
    out = np.empty(len(z_points), dtype=complex)
    for k, z in enumerate(z_points):
        roots = preimage_roots(zeros, complex(z))
        roots = roots / np.abs(roots)  # project tiny radial error back to the circle
        out[k] = np.mean(func(roots))
    return out


def central_difference(f, z, h=1e-6):
    return (f(z + h) - f(z - h)) / (2.0 * h)


def grid_mean(f, size):
    t = 2.0 * np.pi * np.arange(size) / size
    return np.mean(f(t))


def two_resolution_mean(f, size=4096):
    """Quadrature mean at two resolutions; they must agree to 1e-10."""
    m1 = grid_mean(f, size)
    m2 = grid_mean(f, 2 * size)
    assert abs(m1 - m2) < 1e-10, "quadrature resolutions disagree"
    return m2


def critical_points(zeros):
    """The N-1 critical points of b in the disc: roots of num' den - num den' inside.

    The other roots are their reflections 1/conj(c); leading coefficients that
    cancel in exact arithmetic (a root at infinity) are trimmed first.
    """
    P = np.polynomial.polynomial
    num, den = _numerator_denominator(zeros)
    wr = P.polysub(P.polymul(P.polyder(num), den), P.polymul(num, P.polyder(den)))
    scale = np.max(np.abs(wr))
    while wr.size > 1 and abs(wr[-1]) <= 1e-13 * scale:
        wr = wr[:-1]
    roots = P.polyroots(wr) if wr.size > 1 else np.zeros(0, dtype=complex)
    inside = roots[np.abs(roots) < 1.0]
    assert inside.size == len(zeros) - 1, "oracle critical points are not N-1 in the disc"
    return inside


def closed_form_outer_symbol(zeros, power, z):
    """J^power, J the outer function with |J| = j0 = |b'|/N on the circle, J(0) > 0.

    On the circle |num' den - num den'| = const * prod_c |1 - conj(c) z|^2 over the
    critical points c in the disc, and |b'| = that over |den|^2, so
    J^p = C^p prod_c (1 - conj(c) z)^{2p} / prod_j (1 - conj(a_j) z)^{2p} with
    principal powers (every base has positive real part in the closed disc).
    C > 0 is fixed by j0(1) = (1/N) sum_j (1 - |a_j|^2) / |1 - a_j|^2.
    """
    z = np.asarray(z, dtype=complex)
    zeros = [complex(a) for a in zeros]
    crit = critical_points(zeros)
    j0_at_one = np.mean([(1.0 - abs(a) ** 2) / abs(1.0 - a) ** 2 for a in zeros])
    c_const = j0_at_one * np.prod([abs(1.0 - np.conj(a)) ** 2 for a in zeros])
    c_const /= np.prod([abs(1.0 - np.conj(c)) ** 2 for c in crit])
    out = np.full(z.shape, c_const**power, dtype=complex)
    for c in crit:
        out *= (1.0 - np.conj(c) * z) ** (2.0 * power)
    for a in zeros:
        out /= (1.0 - np.conj(a) * z) ** (2.0 * power)
    return out


def canonical_basis_mpmath(zeros, z, dps=50):
    """w_j(z) = sqrt(1 - |a_j|^2) / (1 - conj(a_j) z) prod_{k<j} b_{a_k}(z) at `dps` digits, shape (N, len(z))."""
    import mpmath

    out = np.empty((len(zeros), len(z)), dtype=complex)
    with mpmath.workdps(dps):
        for k, p in enumerate(z):
            x = mpmath.mpc(p.real, p.imag)
            partial = mpmath.mpf(1)
            for j, a in enumerate(map(complex, zeros)):
                a = mpmath.mpc(a.real, a.imag)
                out[j, k] = complex(mpmath.sqrt(1 - abs(a) ** 2) / (1 - mpmath.conj(a) * x) * partial)
                partial *= x if a == 0 else abs(a) / a * (a - x) / (1 - mpmath.conj(a) * x)
    return out


def _critical_points_mp(zeros, dps):
    """The critical points of b in the disc as mpmath numbers (call inside workdps(dps)):
    mpmath.polyroots of num' den - num den', built from the float zeros at dps digits and
    started from numpy's double-precision roots of the same polynomial."""
    import mpmath

    def mul(p, q):
        return [mpmath.fsum(p[i] * q[k - i] for i in range(max(0, k - len(q) + 1), min(k, len(p) - 1) + 1))
                for k in range(len(p) + len(q) - 1)]

    num, den = [mpmath.mpc(1)], [mpmath.mpc(1)]
    for a in map(complex, zeros):
        a = mpmath.mpc(a.real, a.imag)
        num, den = mul(num, [a, -1]), mul(den, [1, -mpmath.conj(a)])  # ascending; the rotations drop out
    der = lambda p: [k * c for k, c in enumerate(p)][1:]
    w = [x - y for x, y in zip(mul(der(num), den), mul(num, der(den)))]
    while abs(w[-1]) < mpmath.mpf(10) ** (5 - dps) * max(map(abs, w)):  # a root at infinity
        w.pop()
    init = np.polynomial.polynomial.polyroots(np.array([complex(c) for c in w]))
    roots = mpmath.polyroots(w[::-1], maxsteps=2000, extraprec=4 * dps, roots_init=[mpmath.mpc(r) for r in init])
    inside = [r for r in roots if abs(r) < 1]
    assert len(inside) == len(zeros) - 1, "mpmath critical points are not N-1 in the disc"
    return inside


def critical_points_mpmath(zeros, dps=50):
    """The N-1 critical points of b in the disc, found at `dps` digits and rounded to complex."""
    import mpmath

    with mpmath.workdps(dps):
        return np.array([complex(c) for c in _critical_points_mp(zeros, dps)])


def outer_half_mpmath(zeros, z, dps=50):
    """J^{1/2} = sqrt(C) prod_c (1 - conj(c) z) / prod_j (1 - conj(a_j) z) at the points z,
    evaluated at `dps` digits from the critical points c of _critical_points_mp; C as in
    closed_form_outer_symbol.  J^{-1/2} is its reciprocal."""
    import mpmath

    out = np.empty(len(z), dtype=complex)
    with mpmath.workdps(dps):
        conj_crit = [mpmath.conj(c) for c in _critical_points_mp(zeros, dps)]
        conj_zeros = [mpmath.mpc(a.real, -a.imag) for a in map(complex, zeros)]
        j0_at_one = mpmath.fsum((1 - abs(a) ** 2) / abs(1 - a) ** 2 for a in conj_zeros) / len(zeros)
        c_const = j0_at_one * mpmath.fprod(abs(1 - a) ** 2 for a in conj_zeros)
        root = mpmath.sqrt(c_const / mpmath.fprod(abs(1 - c) ** 2 for c in conj_crit))
        for k, p in enumerate(map(complex, z)):
            x = mpmath.mpc(p.real, p.imag)
            num = mpmath.fprod(1 - c * x for c in conj_crit)
            out[k] = complex(root * num / mpmath.fprod(1 - a * x for a in conj_zeros))
    return out


def power_coefficients_mpmath(zeros, window, dps=50):
    """Gamma_b on modes -window..window, entry [k + window, n + window] the k-th Fourier
    coefficient of b^n on the circle, from power series at `dps` digits (no grid, no FFT).

    For n >= 0, b^n is analytic in the disc: each factor (|a|/a)(a - z)/(1 - conj(a) z)
    is (|a|/a)(a - z) sum_j (conj(a) z)^j.  For n < 0, b^n is analytic outside it: in
    w = 1/z each reciprocal factor is (a/|a|)(conj(a) - w) sum_j (a w)^j, the coefficient
    of w^j that of z^{-j}.  Each power is the previous one times the factor series.
    """
    import mpmath

    def times(p, q):  # product of two series truncated to degree `window`
        return [mpmath.fsum(p[i] * q[k - i] for i in range(k + 1)) for k in range(window + 1)]

    out = np.zeros((2 * window + 1, 2 * window + 1), dtype=complex)
    with mpmath.workdps(dps):
        one = [mpmath.mpc(1)] + [mpmath.mpc(0)] * window
        inside, outside = one, one  # b in z, 1/b in w = 1/z
        for a in map(complex, zeros):
            if a == 0:
                inside, outside = (times(s, [0, 1] + [0] * (window - 1)) for s in (inside, outside))
                continue
            a = mpmath.mpc(a.real, a.imag)
            unit = abs(a) / a
            geometric_in = [mpmath.conj(a) ** j for j in range(window + 1)]
            geometric_out = [a**j for j in range(window + 1)]
            inside = times(inside, times([unit * a, -unit] + [0] * (window - 1), geometric_in))
            outside = times(outside, times([mpmath.conj(a) / unit, -1 / unit] + [0] * (window - 1), geometric_out))
        up, down = one, one
        out[window, window] = 1.0
        for n in range(1, window + 1):
            up, down = times(up, inside), times(down, outside)
            out[window:, window + n] = [complex(c) for c in up]  # modes 0..window
            out[window::-1, window - n] = [complex(c) for c in down]  # modes 0..-window
    return out

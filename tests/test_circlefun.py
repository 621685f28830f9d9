import json

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschkeops import build_branches, evaluate, j0, make_blaschke
from blaschkeops.circlefun import (
    BoundaryFunction,
    CircleGrid,
    FourierSeries,
    boundary_from_csv,
    exponential,
    fourier_coeffs,
    integer_powers,
    l2_inner,
    l2_norm,
    nonnegative_powers,
    outer_function,
    sample,
    series_from_json,
    synthesize,
    trim_series,
)
from blaschkeops.errors import AnalyticExtensionError, GridMismatchError
from blaschkeops.transfer import grid_fibre, outer_symbol

from oracles import closed_form_outer_symbol, grid_mean, outer_half_mpmath


def test_grid_must_be_power_of_two():
    with pytest.raises(ValueError):
        CircleGrid(100)
    g = CircleGrid(8)
    assert np.allclose(g.angles, 2 * np.pi * np.arange(8) / 8)


def test_grid_floor_is_four_nodes():
    with pytest.raises(ValueError, match="power of two >= 4"):
        CircleGrid(2)
    o = outer_function(CircleGrid(4), 2.0, [], [], 1.0)
    assert np.allclose(o.boundary.values, 2.0)
    assert o.at_zero() == pytest.approx(2.0)


def test_sample_basics():
    g = CircleGrid(4)
    ones = sample(lambda z: np.ones_like(z), g)
    assert np.allclose(ones.values, 1.0)
    e1 = sample(lambda z: z, g)
    assert np.allclose(e1.values, [1, 1j, -1, -1j])


def test_sample_blaschke_node_zero(grid4096):
    b = make_blaschke([0.5])
    f = sample(lambda z: evaluate(b, z), grid4096)
    assert f.values[0] == pytest.approx(-1.0)


def test_sample_rejects_nonfinite():
    g = CircleGrid(4)
    with pytest.raises(ValueError):
        BoundaryFunction(g, np.array([1.0, np.inf, 0, 0], dtype=complex))


def test_fourier_coeffs_pure_mode():
    g = CircleGrid(512)
    s = fourier_coeffs(sample(lambda z: z**2, g), 8)
    assert abs(s.coeff(2) - 1.0) < 1e-14
    assert max(abs(s.coeff(n)) for n in range(-8, 9) if n != 2) < 1e-14


def test_fourier_coeffs_constant():
    g = CircleGrid(64)
    s = fourier_coeffs(sample(lambda z: np.ones_like(z), g), 4)
    assert abs(s.coeff(0) - 1.0) < 1e-15
    assert abs(s.coeff(1)) < 1e-15


def test_fourier_mean_of_blaschke_is_b0(grid4096):
    # mean-value property, cross-checked at two grid resolutions
    b = make_blaschke([0.5])
    m1 = grid_mean(lambda t: evaluate(b, np.exp(1j * t)), 4096)
    m2 = grid_mean(lambda t: evaluate(b, np.exp(1j * t)), 8192)
    assert abs(m1 - m2) < 1e-12
    s = fourier_coeffs(sample(lambda z: evaluate(b, z), grid4096), 8)
    assert abs(s.coeff(0) - 0.5) < 1e-12


def test_window_capacity():
    g = CircleGrid(16)
    with pytest.raises(ValueError):
        fourier_coeffs(sample(lambda z: z, g), 8)


def test_synthesize_constants_and_modes():
    s = FourierSeries(np.array([1.0], dtype=complex))
    assert synthesize(s, 0.3 + 0.1j) == pytest.approx(1.0)
    assert synthesize(exponential(1), 1j) == pytest.approx(1j)


def test_synthesis_round_trip_on_nodes():
    g = CircleGrid(16)
    f = sample(lambda z: z**3, g)
    s = fourier_coeffs(f, 7)
    back = synthesize(s, g.points)
    assert np.max(np.abs(back - f.values)) < 1e-14


def test_negative_mode_synthesis_matches_powers():
    # regression: the backward Horner must weight c_{-j} by conj(z)^j exactly
    t = np.linspace(0.3, 5.9, 11)
    w = np.exp(1j * t)
    rng = np.random.default_rng(3)
    c = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    s = FourierSeries(c)
    direct = sum(s.coeff(n) * w ** float(n) for n in range(-8, 9))
    assert np.max(np.abs(synthesize(s, w) - direct)) < 1e-13


def test_analytic_extension_guard():
    s = exponential(-1, 2)
    with pytest.raises(AnalyticExtensionError):
        synthesize(s, 0.3)
    assert synthesize(exponential(2, 2), 0.5) == pytest.approx(0.25)


SIX_ZEROS = [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j]


@pytest.mark.parametrize("window", [0, 1, 2, 3, 64, 128])
def test_integer_powers_rows(window):
    z = np.exp(1j * np.linspace(0.1, 6.2, 37))
    p = integer_powers(z, window)
    assert p.shape == (2 * window + 1, 37)
    assert p.dtype == np.complex128
    assert np.array_equal(p[window], np.ones(37))
    if window:
        assert np.array_equal(p[window + 1], z)
        assert np.array_equal(p[window - 1], 1.0 / z)
    ns = np.arange(-window, window + 1)
    assert np.max(np.abs(p - z[None, :] ** ns[:, None])) < 1e-13
    # row n does not depend on the window
    wide = integer_powers(z, 130)
    assert np.array_equal(wide[130 - window : 131 + window], p)


@pytest.mark.parametrize("window", [0, 1, 2, 3, 64, 128, 256])
def test_integer_powers_positive_rows_are_the_doubling_helper(window):
    # pair_power_gram builds its powers with nonnegative_powers directly
    z = evaluate(make_blaschke(SIX_ZEROS), CircleGrid(512).points)
    assert np.array_equal(integer_powers(z, window)[window:], nonnegative_powers(z, window))


def test_integer_powers_rejects_negative_window():
    with pytest.raises(ValueError):
        integer_powers(np.ones(4, dtype=complex), -1)


def test_integer_powers_match_numpy_on_b_and_fibre():
    b = make_blaschke(SIX_ZEROS)
    grid = CircleGrid(4096)
    ns = np.arange(-128, 129)[:, None]
    bvals = evaluate(b, grid.points)
    assert np.max(np.abs(integer_powers(bvals, 128) - bvals[None, :] ** ns)) < 1e-13
    for branch in grid_fibre(build_branches(b), grid):
        assert np.max(np.abs(integer_powers(branch, 128) - branch[None, :] ** ns)) < 1e-13


def test_integer_powers_against_mpmath():
    # the oracle raises the same floats to each power at 50 digits (|b| on the
    # grid is off 1 by a few ulps, so the exact powers are not unimodular)
    import mpmath

    mpmath.mp.dps = 50
    grid = CircleGrid(4096)
    z = evaluate(make_blaschke(SIX_ZEROS), grid.points)[::256]
    window = 128
    ns = np.arange(-window, window + 1)
    exact = [[mpmath.mpc(v.real, v.imag) ** int(n) for v in z] for n in ns]

    def worst(table):
        return max(
            float(abs(e - mpmath.mpc(v.real, v.imag))) for er, row in zip(exact, table) for e, v in zip(er, row)
        )

    kernel_err = worst(integer_powers(z, window))
    assert kernel_err <= worst(z[None, :] ** ns[:, None])
    assert kernel_err < 1e-14


def test_inner_products():
    g = CircleGrid(256)
    e0 = sample(lambda z: np.ones_like(z), g)
    e1 = sample(lambda z: z, g)
    assert l2_inner(e1, e1) == pytest.approx(1.0)
    assert abs(l2_inner(e1, e0)) < 1e-15
    b = make_blaschke([0.5])
    fb = sample(lambda z: evaluate(b, z), g)
    # (b, e_0) = b(0)
    assert l2_inner(fb, e0) == pytest.approx(0.5)


def test_grid_mismatch():
    with pytest.raises(GridMismatchError):
        l2_inner(
            sample(lambda z: z, CircleGrid(8)),
            sample(lambda z: z, CircleGrid(16)),
        )


@given(st.integers(min_value=-6, max_value=6), st.integers(min_value=-6, max_value=6))
def test_parseval_band_limited(n, m):
    g = CircleGrid(64)
    f = sample(lambda z: z ** float(n) + 0.5 * z ** float(m), g)
    s = fourier_coeffs(f, 8)
    assert abs(l2_norm(f) ** 2 - s.total_energy()) < 1e-13


def test_trim_series():
    c = np.zeros(21, dtype=complex)
    c[10] = 1.0
    c[13] = 1e-3
    c[0] = 1e-30
    out = trim_series(FourierSeries(c))
    assert out.window == 3
    assert out.coeff(3) == pytest.approx(1e-3)


# -- outer functions ----------------------------------------------------------


def test_outer_constant_case():
    o = outer_function(CircleGrid(64), 4.0, [], [], 0.5)
    assert np.max(np.abs(o.boundary.values - 2.0)) < 1e-14
    assert o.at_zero() == pytest.approx(2.0)


def test_outer_closed_form_for_half(grid4096):
    b = make_blaschke([0.5])
    o = outer_symbol(build_branches(b), grid4096, 1.0)
    target = closed_form_outer_symbol([0.5], 1.0, grid4096.points)
    assert np.max(np.abs(o.boundary.values - target)) < 1e-8
    assert abs(o.at_zero() - 0.75) < 1e-8
    # geometric mean at two resolutions
    gm = np.exp(grid_mean(lambda t: np.log(j0(b, t)), 4096))
    gm2 = np.exp(grid_mean(lambda t: np.log(j0(b, t)), 8192))
    assert abs(gm - gm2) < 1e-12
    assert o.at_zero() == pytest.approx(gm)


def test_outer_power_additivity(grid4096):
    bs = build_branches(make_blaschke([0.5, -0.3j]))
    oa = outer_symbol(bs, grid4096, 0.3)
    ob = outer_symbol(bs, grid4096, 0.7)
    oab = outer_symbol(bs, grid4096, 1.0)
    assert np.max(np.abs(oa.boundary.values * ob.boundary.values - oab.boundary.values)) < 1e-9


def test_outer_inverse_pair(grid4096):
    bs = build_branches(make_blaschke([0.5, -0.3j]))
    o = outer_symbol(bs, grid4096, 1.0)
    oi = outer_symbol(bs, grid4096, -1.0)
    assert np.max(np.abs(o.boundary.values * oi.boundary.values - 1.0)) < 1e-9


def test_outer_modulus_matches_power(grid4096):
    b = make_blaschke([0.5, -0.3j])
    hv = j0(b, grid4096.angles)
    o = outer_symbol(build_branches(b), grid4096, 0.5)
    assert np.max(np.abs(np.abs(o.boundary.values) - hv**0.5)) < 1e-9


#: the certification zoo of scripts/run_verify.py, {0.8} and the six zeros
OUTER_PRODUCTS = {
    "z^2": [0, 0],
    "z^3": [0, 0, 0],
    "single 0.5": [0.5],
    "zero at origin": [0, 0.5],
    "two mixed": [0.5, -0.3j],
    "three mixed": [0.5, -0.3j, 0.2 + 0.4j],
    "single 0.8": [0.8],
    "six zeros": [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j],
}


@pytest.mark.parametrize("size", [4096, 8192])
@pytest.mark.parametrize("name", list(OUTER_PRODUCTS))
def test_outer_symbol_eval_matches_closed_form(name, size):
    # eval is exact on the preimage fibre
    zeros = OUTER_PRODUCTS[name]
    bs = build_branches(make_blaschke(zeros))
    grid = CircleGrid(size)
    fib = grid_fibre(bs, grid)
    for power in (0.5, -0.5, 1.0):
        o = outer_symbol(bs, grid, power)
        target = closed_form_outer_symbol(zeros, power, fib)
        assert np.max(np.abs(o.eval(fib) - target) / np.abs(target)) < 1e-13


@pytest.mark.parametrize("zeros", [[0.999], [0.99, 0.99j, -0.99, 0.5]], ids=["0.999", "four near the circle"])
def test_outer_symbol_near_circle_matches_mpmath(zeros):
    # J^{+-1/2} against the 50-digit closed form: grid samples and eval on the fibre
    bs = build_branches(make_blaschke(zeros))
    grid = CircleGrid(4096)
    fib = grid_fibre(bs, grid)[:, ::4]  # the fibre of every fourth node keeps the reference cheap
    at_grid = outer_half_mpmath(zeros, grid.points)
    at_fib = outer_half_mpmath(zeros, fib.ravel()).reshape(fib.shape)
    for power, exponent in ((0.5, 1), (-0.5, -1)):
        o = outer_symbol(bs, grid, power)
        assert np.max(np.abs(o.boundary.values / at_grid**exponent - 1.0)) < 1e-14
        assert np.max(np.abs(o.eval(fib) / at_fib**exponent - 1.0)) < 1e-13


def test_outer_rejects_bad_input():
    g = CircleGrid(64)
    with pytest.raises(ValueError, match="scale must be finite and positive"):
        outer_function(g, -1.0, [], [], 1.0)
    with pytest.raises(ValueError, match="inside the unit disc"):
        outer_function(g, 1.0, [0.5], [1.0], 1.0)


# -- serialization -------------------------------------------------------------


def test_series_json_round_trip():
    s = FourierSeries(np.array([1 + 2j, 0.5, 3], dtype=complex))
    back = series_from_json(s.to_json())
    assert np.allclose(back.coeffs, s.coeffs)
    data = json.loads(s.to_json())
    assert data["min_n"] == -1


def _awkward_complex(size, seed=9):
    """Seeded complex samples with signed zeros, subnormals and huge parts mixed in."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    x[::5] = complex(-0.0, 0.0)
    x[1::5] = complex(5e-324, -0.0)
    x[2::5] *= 1e-310
    x[3::5] *= 1e300
    return x


def test_series_json_matches_per_entry_encoding():
    s = FourierSeries(_awkward_complex(21))
    expect = {"min_n": -10, "coeffs": [[c.real, c.imag] for c in s.coeffs]}
    assert s.to_json() == json.dumps(expect)
    strided = FourierSeries(_awkward_complex(42)[::2][:21])
    assert strided.to_json() == json.dumps({"min_n": -10, "coeffs": [[c.real, c.imag] for c in strided.coeffs]})


def test_boundary_csv_matches_per_entry_encoding():
    f = BoundaryFunction(CircleGrid(32), _awkward_complex(32))
    lines = ["t,re,im"] + [
        f"{float(t)!r},{float(v.real)!r},{float(v.imag)!r}" for t, v in zip(f.grid.angles, f.values)
    ]
    assert f.to_csv() == "\n".join(lines) + "\n"


def test_boundary_csv_round_trip():
    g = CircleGrid(8)
    f = sample(lambda z: z + 0.5j, g)
    back = boundary_from_csv(f.to_csv())
    assert np.max(np.abs(back.values - f.values)) < 1e-15

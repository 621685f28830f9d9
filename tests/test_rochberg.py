import numpy as np
import pytest

from blaschkeops import build_branches, evaluate, j0, make_blaschke
from blaschkeops.circlefun import (
    FourierSeries,
    exponential,
    fourier_coeffs,
    sample,
    synthesize,
)
from blaschkeops.model_space import canonical_basis, induced_module_basis, rotate_basis
from blaschkeops.rochberg import decompose, reconstruct
from blaschkeops.transfer import expansion_sum, fibre_means, grid_fibre, outer_symbol


def _pad(s, window):
    c = np.zeros(2 * window + 1, dtype=complex)
    c[window - s.window : window + s.window + 1] = s.coeffs
    return c


def test_even_odd_split_for_squaring(z2, grid1024):
    _, bs = z2
    dec = decompose(bs, canonical_basis(bs.owner), exponential(3, 8), grid1024)
    assert np.max(np.abs(dec.coefficients[0].coeffs)) < 1e-12
    assert abs(dec.coefficients[1].coeff(1) - 1.0) < 1e-12
    assert dec.residual < 1e-10


def test_basis_element_expands_to_unit_coefficient(mixed, grid1024):
    b, bs = mixed
    basis = canonical_basis(b)
    f = fourier_coeffs(sample(lambda z: basis.values(z)[0], grid1024), 64)
    dec = decompose(bs, basis, f, grid1024)
    assert abs(dec.coefficients[0].coeff(0) - 1.0) < 1e-10
    assert abs(dec.coefficients[0].total_energy() - 1.0) < 1e-10
    assert np.max(np.abs(dec.coefficients[1].coeffs)) < 1e-10


def test_shifted_basis_element(mixed, grid1024):
    # f = v_1 * b has coefficients (e_1, 0)
    b, bs = mixed
    basis = canonical_basis(b)
    f = fourier_coeffs(
        sample(lambda z: basis.values(z)[0] * evaluate(b, z), grid1024), 128
    )
    dec = decompose(bs, basis, f, grid1024)
    assert abs(dec.coefficients[0].coeff(1) - 1.0) < 1e-9
    assert dec.coefficients[0].negative_energy() < 1e-12
    assert np.max(np.abs(dec.coefficients[1].coeffs)) < 1e-9


def test_half_involution_closed_form(half, grid4096):
    # for the single zero 0.5, b is an involution, so f_1 = ((f / w_1) o b)
    b, bs = half
    assert np.max(np.abs(evaluate(b, evaluate(b, grid4096.points)) - grid4096.points)) < 1e-12
    basis = canonical_basis(b)
    dec = decompose(bs, basis, exponential(1, 4), grid4096)
    assert dec.residual < 1e-8
    bz = evaluate(b, grid4096.points)
    expected = bz * (1 - 0.5 * bz) / np.sqrt(0.75)
    got = synthesize(dec.coefficients[0], grid4096.points)
    assert np.max(np.abs(got - expected)) < 1e-9


def test_round_trip_random_polynomial(grid4096):
    rng = np.random.default_rng(42)
    zeros = 0.7 * np.sqrt(rng.uniform(size=3)) * np.exp(2j * np.pi * rng.uniform(size=3))
    b = make_blaschke(zeros)
    bs = build_branches(b)
    coeffs = np.zeros(25, dtype=complex)
    coeffs[12:] = rng.standard_normal(13) + 1j * rng.standard_normal(13)
    f = FourierSeries(coeffs)
    dec = decompose(bs, canonical_basis(b), f, grid4096)
    assert dec.residual < 1e-8
    assert max(dec.membership) < 1e-8


def test_analyticity_propagation_negative_direction(mixed, grid1024):
    _, bs = mixed
    f = FourierSeries(np.array([1.0, 1.0, 0.5], dtype=complex))  # has mode -1
    dec = decompose(bs, canonical_basis(bs.owner), f, grid1024)
    assert dec.residual < 1e-8
    assert max(dec.membership) > 1e-4  # some coefficient must be non-analytic


def test_basis_equivariance_under_rotation(mixed, grid1024):
    # rotating the basis by U mixes the coefficient tuple by conj(U)
    b, bs = mixed
    basis = canonical_basis(b)
    c, s = np.cos(0.6), np.sin(0.6)
    u = np.array([[c, s * np.exp(0.3j)], [-s * np.exp(-0.3j), c]])
    f = exponential(2, 8)
    dec = decompose(bs, basis, f, grid1024)
    dec_rot = decompose(bs, rotate_basis(basis, u), f, grid1024)
    w = max(max(s.window for s in dec.coefficients), max(s.window for s in dec_rot.coefficients))
    orig = np.stack([_pad(s, w) for s in dec.coefficients])
    rot = np.stack([_pad(s, w) for s in dec_rot.coefficients])
    assert np.max(np.abs(rot - np.conj(u) @ orig)) < 1e-8


def test_consistency_with_module_expand(mixed, grid1024):
    # coefficients of J^{-1/2} f against {m_i} under the module inner product
    b, bs = mixed
    basis = canonical_basis(b)
    f = exponential(1, 8)
    dec = decompose(bs, basis, f, grid1024)
    fib = grid_fibre(bs, grid1024)
    g_fib = synthesize(f, fib) * outer_symbol(bs, grid1024, -0.5).eval(fib)
    mod = induced_module_basis(bs, basis, grid1024)
    coeffs = fibre_means(np.conj(mod.values(fib)), g_fib)
    for s, c in zip(dec.coefficients, coeffs):
        direct = synthesize(s, grid1024.points)
        assert np.max(np.abs(direct - c)) < 1e-9


# -- reconstruct ----------------------------------------------------------------


def test_reconstruct_zeros(mixed, grid1024):
    b, bs = mixed
    out = reconstruct(bs, canonical_basis(b), [exponential(0, 2), exponential(0, 2)], grid1024)
    single = reconstruct(
        bs, canonical_basis(b),
        [exponential(0, 2), FourierSeries(np.zeros(5, dtype=complex))], grid1024,
    )
    zero = reconstruct(
        bs, canonical_basis(b),
        [FourierSeries(np.zeros(1, dtype=complex)), FourierSeries(np.zeros(1, dtype=complex))],
        grid1024,
    )
    assert np.max(np.abs(zero.values)) == 0.0
    v1, v2 = canonical_basis(b).values(grid1024.points)
    assert np.max(np.abs(single.values - v1)) < 1e-12
    assert np.max(np.abs(out.values - v1 - v2)) < 1e-12


def test_reconstruct_requires_matching_count(mixed, grid1024):
    b, bs = mixed
    with pytest.raises(ValueError):
        reconstruct(bs, canonical_basis(b), [exponential(0, 2)], grid1024)


# -- uniqueness -------------------------------------------------------------------


def _recovery_error(bs, basis, coefficients, grid):
    """Build g = sum_i v_i (f_i o b) on the fibre, recover each f_i, return the sup error.

    The expansion is injective on arbitrary bounded coefficient tuples, so the
    recovered L(conj(v_i) J0^{-1} g) must equal f_i whatever the tuple.
    """
    fib = grid_fibre(bs, grid)
    bz_fib = evaluate(bs.owner, fib)
    v_fib = basis.values(fib)
    g_fib = expansion_sum(v_fib, (synthesize(s, bz_fib) for s in coefficients))
    weight = g_fib / j0(bs.owner, np.angle(fib))
    recovered = fibre_means(np.conj(v_fib), weight)
    return max(
        float(np.max(np.abs(r - synthesize(s, grid.points))))
        for r, s in zip(recovered, coefficients)
    )


def test_uniqueness_zero_perturbation(mixed, grid1024):
    b, bs = mixed
    basis = canonical_basis(b)
    coeffs = decompose(bs, basis, exponential(2, 8), grid1024).coefficients
    assert _recovery_error(bs, basis, coeffs, grid1024) < 1e-9


def test_uniqueness_random_perturbation(mixed, grid1024):
    b, bs = mixed
    rng = np.random.default_rng(9)
    pert = []
    for _ in range(2):
        c = 0.1 * (rng.standard_normal(9) + 1j * rng.standard_normal(9))
        pert.append(FourierSeries(c))
    assert _recovery_error(bs, canonical_basis(b), pert, grid1024) < 1e-7


def test_uniqueness_holds_outside_analytic_coefficients(mixed, grid1024):
    b, bs = mixed
    pert = [exponential(-1, 4), exponential(2, 4)]
    assert _recovery_error(bs, canonical_basis(b), pert, grid1024) < 1e-9


# -- membership --------------------------------------------------------------------
# decompose reports each coefficient's negative-mode energy as its evidence of
# analyticity; these pin that measure on known series


def test_membership_flags():
    assert exponential(2, 4).negative_energy() == 0.0
    assert exponential(-1, 2).negative_energy() == pytest.approx(1.0)


def test_membership_of_inner_function(grid4096):
    b = make_blaschke([0.5])
    s = fourier_coeffs(sample(lambda z: evaluate(b, z), grid4096), 64)
    assert s.negative_energy() < 1e-8


def test_decomposition_export(mixed, grid1024):
    b, bs = mixed
    dec = decompose(bs, canonical_basis(b), exponential(1, 4), grid1024)
    blob = dec.to_json_dict()
    assert blob["basis"] == "canonical"
    assert len(blob["coefficients"]) == 2
    assert blob["residual"] < 1e-8

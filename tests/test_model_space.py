import numpy as np
import pytest
from hypothesis import given

from blaschkeops import build_branches, evaluate, j0, make_blaschke
from blaschkeops.circlefun import CircleGrid
from blaschkeops.errors import GramCheckError
from blaschkeops.model_space import (
    basis_series,
    canonical_basis,
    induced_module_basis,
    linking_reconstruction_deviation,
    linking_unitary,
    pointwise_unitarity_deviation,
    rotate_basis,
    validate_basis,
)
from blaschkeops.operators import orthonormality_defect, pair_power_gram
from blaschkeops.transfer import arcs_basis, fibre_means, grid_fibre, module_gram_deviation, outer_symbol

from conftest import blaschke_zeros, ones_basis, seeded_zeros
from oracles import canonical_basis_mpmath


def _disc_points():
    """64 seeded points of the closed disc, the first 32 on the circle."""
    rng = np.random.default_rng(3)
    t = rng.uniform(0, 2 * np.pi, 64)
    r = np.where(np.arange(64) < 32, 1.0, np.sqrt(rng.uniform(size=64)))
    return r * np.exp(1j * t)


def test_canonical_for_squaring_is_monomials(z2, grid1024):
    b, _ = z2
    basis = canonical_basis(b)
    z = grid1024.points[:16]
    vals = basis.values(z)
    assert vals.shape == (2, 16)
    assert np.allclose(vals[0], 1.0)
    assert np.allclose(vals[1], z)


def test_canonical_closed_form_for_half():
    # w_1(z) = sqrt(1 - 0.25) / (1 - 0.5 z)
    basis = canonical_basis(make_blaschke([0.5]))
    z = np.array([0.2 + 0.1j, -0.7j, 0.99])
    target = np.sqrt(0.75) / (1 - 0.5 * z)
    assert np.max(np.abs(basis.values(z)[0] - target)) < 1e-14


@pytest.mark.parametrize(
    "zeros",
    [
        pytest.param(seeded_zeros(32, 0.5), id="32-zeros"),
        pytest.param([0.999], id="near-circle"),
        pytest.param([0.5, 0.5, 0.5], id="repeated"),
    ],
)
def test_canonical_values_match_mpmath(zeros):
    # the running product against a 50-digit evaluation of each element's own
    # partial product; the error is measured relative to the sup of the exact
    # values, since near |a| = 1 the constant sqrt(1 - |a|^2) alone has
    # condition 1 / (1 - |a|^2) (3.7e-14 absolute at 0.999, where w_1 reaches 4.75)
    z = _disc_points()
    vals = canonical_basis(make_blaschke(zeros)).values(z)
    exact = canonical_basis_mpmath(zeros, z)
    assert vals.shape == (len(zeros), 64)
    assert np.max(np.abs(vals - exact)) / np.max(np.abs(exact)) < 1e-14


@pytest.mark.parametrize("a", [0.999, 0.999 * np.exp(0.7j)], ids=["real", "rotated"])
def test_near_circle_constants_match_mpmath(a):
    # w_1(0) = sqrt(1 - |a|^2) and j0 at the zero's antipode, (1 - |a|^2) / |a - e^{it}|^2,
    # to 1e-15 relative: 1 - |a|^2 must be formed without the float cancellation
    import mpmath

    b = make_blaschke([a])
    t = float(np.angle(a) + np.pi)
    w1, j0_t = complex(canonical_basis(b).values(0.0)[0]), j0(b, t)
    assert w1.imag == 0.0
    with mpmath.workdps(50):
        am = mpmath.mpc(complex(a).real, complex(a).imag)
        gap = 1 - abs(am) ** 2
        exact_w1 = mpmath.sqrt(gap)
        exact_j0 = gap / abs(am - mpmath.expj(t)) ** 2
        assert abs(w1.real - exact_w1) / exact_w1 < 1e-15
        assert abs(j0_t - exact_j0) / exact_j0 < 1e-15


def test_family_values_keep_the_shape_of_the_points():
    basis = canonical_basis(make_blaschke([0.5, -0.3j, 0.2 + 0.4j]))
    z = _disc_points().reshape(4, 16)
    vals = basis.values(z)
    assert vals.shape == (3, 4, 16)
    assert np.array_equal(vals[:, 2], basis.values(z[2]))
    assert basis.values(0.25j).shape == (3,)


def test_canonical_gram_identity(grid4096):
    basis = canonical_basis(make_blaschke([0.5, -0.3j]))
    vals = basis.values(grid4096.points)
    gram = vals @ vals.conj().T / grid4096.size
    assert np.max(np.abs(gram - np.eye(2))) < 1e-10


def test_canonical_elements_nonvanishing_on_circle(grid1024):
    basis = canonical_basis(make_blaschke([0.5, -0.3j, 0.6j]))
    for row in basis.values(grid1024.points):
        assert np.min(np.abs(row)) > 0.05


def test_validate_basis_reports(grid4096):
    rep = validate_basis(canonical_basis(make_blaschke([0.5, -0.3j])), grid4096)
    assert rep["gram_deviation"] < 1e-12
    assert rep["negative_energy"] < 1e-20
    assert rep["bh2_overlap"] < 1e-12


def test_validate_rejects_non_basis(grid1024):
    b = make_blaschke([0.5, -0.3j])
    with pytest.raises(GramCheckError):
        validate_basis(ones_basis(b), grid1024)


# -- rotations ------------------------------------------------------------------


def test_rotate_identity_keeps_values(z2, grid1024):
    b, _ = z2
    basis = canonical_basis(b)
    rot = rotate_basis(basis, np.eye(2))
    z = grid1024.points[:8]
    assert np.allclose(basis.values(z), rot.values(z))


def test_rotate_by_quarter_turn(z2, grid4096):
    b, _ = z2
    c = np.cos(np.pi / 4)
    u = np.array([[c, c], [-c, c]])
    rot = rotate_basis(canonical_basis(b), u)
    z = np.array([0.5, 0.3 + 0.2j])
    vals = rot.values(z)
    assert np.allclose(vals[0], (1 + z) / np.sqrt(2))
    assert np.allclose(vals[1], (-1 + z) / np.sqrt(2))
    assert validate_basis(rot, grid4096)["gram_deviation"] < 1e-12


def test_rotated_values_are_u_times_the_canonical_values():
    b = make_blaschke(seeded_zeros(4, 0.7))
    rng = np.random.default_rng(4)
    u, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    basis = canonical_basis(b)
    rot = rotate_basis(basis, u)
    z = _disc_points()
    assert rot.labels == ("rot_1", "rot_2", "rot_3", "rot_4") and rot.kind == "rotated"
    assert np.array_equal(rot.values(z), u @ basis.values(z))


def test_rotate_rejects_non_unitary(z2):
    b, _ = z2
    with pytest.raises(ValueError):
        rotate_basis(canonical_basis(b), np.array([[1.0, 0.0], [1.0, 1.0]]))


def test_diagonal_phase_rotation_preserves_gram(grid4096):
    b = make_blaschke([0.5, -0.3j])
    u = np.diag(np.exp(1j * np.array([0.3, -1.2])))
    rot = rotate_basis(canonical_basis(b), u)
    assert validate_basis(rot, grid4096)["gram_deviation"] < 1e-11


# -- wandering subspace ----------------------------------------------------------
# {v_i b^n : |n| <= W} is orthonormal: the Gram (v_j b^n, v_i b^m) is the
# pair_power_gram moment at lag n - m, so window W covers every lag of the range


def _wandering_defect(basis, window):
    return orthonormality_defect(pair_power_gram(build_branches(basis.owner), basis, window))


def test_wandering_for_squaring(z2):
    b, _ = z2
    assert _wandering_defect(canonical_basis(b), 3) < 1e-12


def test_wandering_for_half():
    assert _wandering_defect(canonical_basis(make_blaschke([0.5])), 4) < 1e-9


def test_wandering_unitary_invariance():
    b = make_blaschke([0.5, -0.3j])
    basis = canonical_basis(b)
    c = np.cos(0.7)
    s = np.sin(0.7)
    rot = rotate_basis(basis, np.array([[c, s], [-s, c]]))
    d1 = _wandering_defect(basis, 2)
    d2 = _wandering_defect(rot, 2)
    assert abs(d1 - d2) < 1e-12


def test_model_space_has_dimension_n(grid4096):
    # any H2 polynomial orthogonal to all w_j and to b e_n must vanish
    b = make_blaschke([0.5, -0.3j, 0.2 + 0.4j])
    basis = canonical_basis(b)
    K = grid4096.size
    deg = 12
    rows = list(basis.values(grid4096.points))
    bvals = evaluate(b, grid4096.points)
    # (g - P_D g)/b has a geometric Taylor tail, so the b*e_n span must reach
    # far enough past deg for the residual to drop below tolerance
    rows += [bvals * grid4096.points**n for n in range(80)]
    a = np.stack(rows)
    q, _ = np.linalg.qr(a.T / np.sqrt(K))
    rng = np.random.default_rng(2)
    coef = rng.standard_normal(deg + 1) + 1j * rng.standard_normal(deg + 1)
    g = np.polynomial.polynomial.polyval(grid4096.points, coef)
    resid = g / np.sqrt(K) - q @ (q.conj().T @ (g / np.sqrt(K)))
    assert np.linalg.norm(resid) < 1e-8


# -- induced module basis and linking unitaries -----------------------------------


def test_induced_module_basis_gram(mixed, grid1024):
    b, bs = mixed
    mod = induced_module_basis(bs, canonical_basis(b), grid1024)
    assert module_gram_deviation(bs, mod, grid1024) < 1e-8


def test_module_family_is_the_basis_times_j_minus_half(grid1024):
    b = make_blaschke([0.5, -0.3j, 0.2 + 0.4j])
    bs = build_branches(b)
    basis = canonical_basis(b)
    mod = induced_module_basis(bs, basis, grid1024)
    fib = grid_fibre(bs, grid1024)
    jm = outer_symbol(bs, grid1024, -0.5)
    assert mod.labels == ("w_1*J^-1/2", "w_2*J^-1/2", "w_3*J^-1/2")
    assert np.array_equal(mod.values(fib), basis.values(fib) * jm.eval(fib))


def test_linking_same_family_is_identity(mixed, grid1024):
    b, bs = mixed
    mod = induced_module_basis(bs, canonical_basis(b), grid1024)
    u = linking_unitary(bs, mod, mod, grid1024)
    for i in range(2):
        for j in range(2):
            target = 1.0 if i == j else 0.0
            assert np.max(np.abs(u[i, j] - target)) < 1e-10


def test_linking_scalar_rotation_gives_constants(mixed, grid1024):
    # rotating the model basis by a scalar unitary rotates the induced module
    # basis; the linking matrix is that unitary transposed, entrywise constant
    b, bs = mixed
    basis = canonical_basis(b)
    c, s = np.cos(0.4), np.sin(0.4)
    scalar_u = np.array([[c, s + 0j], [-s, c]])
    mod_a = induced_module_basis(bs, basis, grid1024)
    mod_b = induced_module_basis(bs, rotate_basis(basis, scalar_u), grid1024)
    u = linking_unitary(bs, mod_a, mod_b, grid1024)
    fib = grid_fibre(bs, grid1024)
    for i in range(2):
        for j in range(2):
            direct = fibre_means(np.conj(mod_a.values(fib)[i : i + 1]), mod_b.values(fib)[j])[0]
            assert np.max(np.abs(u[i, j] - direct)) < 1e-12
            assert np.max(np.abs(u[i, j] - scalar_u[j, i])) < 1e-8


def test_linking_canonical_to_arcs(z2, grid1024):
    b, bs = z2
    mod = induced_module_basis(bs, canonical_basis(b), grid1024)
    arcs = arcs_basis(bs)
    u = linking_unitary(bs, mod, arcs, grid1024)
    assert pointwise_unitarity_deviation(u) < 1e-6
    assert linking_reconstruction_deviation(bs, mod, arcs, grid1024) < 1e-6


def test_linking_rejects_non_basis(mixed, grid1024):
    b, bs = mixed
    with pytest.raises(GramCheckError):
        linking_unitary(bs, ones_basis(b), arcs_basis(bs), grid1024)


@given(blaschke_zeros(max_degree=3, max_radius=0.7))
def test_linking_unitarity_generic(zeros):
    b = make_blaschke(zeros)
    bs = build_branches(b)
    g = CircleGrid(256)
    mod = induced_module_basis(bs, canonical_basis(b), g)
    u = linking_unitary(bs, mod, arcs_basis(bs), g)
    assert pointwise_unitarity_deviation(u) < 1e-6


def test_basis_series_export(z2, grid1024):
    b, _ = z2
    series = basis_series(canonical_basis(b), grid1024, 4)
    assert abs(series[0].coeff(0) - 1.0) < 1e-13
    assert abs(series[1].coeff(1) - 1.0) < 1e-13

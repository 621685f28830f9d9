import numpy as np
import pytest
from hypothesis import example, given

from blaschkeops import (
    blaschke_from_json,
    build_branches,
    derivative,
    evaluate,
    j0,
    make_blaschke,
    preimages,
)
from blaschkeops.circlefun import CircleGrid
from blaschkeops.errors import BranchPointError
from blaschkeops.transfer import outer_symbol

from conftest import blaschke_zeros, circle_angles
from oracles import blaschke_value, central_difference, critical_points_mpmath, grid_mean, preimage_roots


# -- construction -------------------------------------------------------------


def test_rejects_empty_zero_list():
    with pytest.raises(ValueError):
        make_blaschke([])


@pytest.mark.parametrize("bad", [1.0, -1.0, 1.5, 0.3 + 1.1j, np.nan])
def test_rejects_zeros_outside_disc(bad):
    with pytest.raises(ValueError):
        make_blaschke([0.2, bad])


def test_json_round_trip():
    b = make_blaschke([0.5, -0.3j])
    assert blaschke_from_json(b.to_json()).zeros == b.zeros


# -- evaluation ---------------------------------------------------------------


def test_double_zero_is_squaring():
    b = make_blaschke([0, 0])
    assert evaluate(b, 1j) == pytest.approx(-1.0)
    assert evaluate(b, np.exp(1j * np.pi / 4)) == pytest.approx(np.exp(1j * np.pi / 2))


def test_half_factor_values():
    b = make_blaschke([0.5])
    assert evaluate(b, 0.0) == pytest.approx(0.5)
    # (0.5 - 1) / (1 - 0.5) by hand
    assert evaluate(b, 1.0) == pytest.approx(-1.0)


def test_repeated_half_at_one():
    # (-1) * (-1), factor by factor
    b = make_blaschke([0.5, 0.5])
    assert evaluate(b, 1.0) == pytest.approx(1.0)


def test_pole_signalled():
    b = make_blaschke([0.5])
    with pytest.raises(ValueError, match="a pole 1/conj"):
        evaluate(b, 2.0)  # 1/conj(0.5), off the circle


@given(blaschke_zeros(), circle_angles())
def test_unimodular_on_circle(zeros, t):
    b = make_blaschke(zeros)
    assert abs(abs(evaluate(b, np.exp(1j * t))) - 1.0) < 1e-12


@given(blaschke_zeros())
def test_matches_independent_factor_product(zeros):
    b = make_blaschke(zeros)
    pts = np.exp(1j * np.linspace(0.1, 6.0, 13))
    assert np.max(np.abs(evaluate(b, pts) - blaschke_value(zeros, pts))) < 1e-12


# -- derivative ---------------------------------------------------------------


def test_derivative_of_squaring():
    b = make_blaschke([0, 0])
    z = 0.3 - 0.2j
    assert derivative(b, z) == pytest.approx(2 * z)


def test_derivative_half_at_origin():
    # quotient rule by hand: (0.25 - 1)/1
    b = make_blaschke([0.5])
    assert derivative(b, 0.0) == pytest.approx(-0.75)


@given(blaschke_zeros())
def test_derivative_against_central_differences(zeros):
    b = make_blaschke(zeros)
    for z in (0.2 + 0.1j, -0.4j, 0.9):
        fd = central_difference(lambda w: evaluate(b, w), z)
        assert abs(derivative(b, z) - fd) < 1e-6


@given(blaschke_zeros(), circle_angles())
def test_log_derivative_positive_on_circle(zeros, t):
    b = make_blaschke(zeros)
    z = np.exp(1j * t)
    val = z * derivative(b, z) / evaluate(b, z)
    assert abs(val.imag) < 1e-10
    assert val.real > 0


# -- the boundary symbol ------------------------------------------------------


def test_j0_of_squaring_is_one():
    b = make_blaschke([0, 0])
    assert j0(b, 0.7) == pytest.approx(1.0)


def test_j0_half_at_zero():
    # 0.75 / |0.5 - 1|^2
    assert j0(make_blaschke([0.5]), 0.0) == pytest.approx(3.0)


@given(blaschke_zeros(), circle_angles())
def test_j0_cross_formula(zeros, t):
    b = make_blaschke(zeros)
    z = np.exp(1j * t)
    alt = (z * derivative(b, z) / (b.degree * evaluate(b, z))).real
    assert abs(j0(b, t) - alt) < 1e-10
    assert j0(b, t) > 0


def test_j0_mean_is_one_two_resolutions():
    rng = np.random.default_rng(7)
    zeros = 0.8 * np.sqrt(rng.uniform(size=4)) * np.exp(2j * np.pi * rng.uniform(size=4))
    b = make_blaschke(zeros)
    m1 = grid_mean(lambda t: j0(b, t), 4096)
    m2 = grid_mean(lambda t: j0(b, t), 8192)
    assert abs(m1 - m2) < 1e-10
    assert abs(m2 - 1.0) < 1e-10


def _written_out_theta(bs, t):
    """theta as the Moebius-argument sum, one expression per zero."""
    e = np.exp(1j * t)
    val = bs.theta0 + bs.branch_count * t
    for w in bs.owner.zeros:
        if w != 0:
            cw = np.conj(w)
            val = val - 2.0 * (np.angle(1.0 - cw * e) - np.angle(1.0 - cw))
    return val


def _written_out_j0(b, t):
    """j0 as the mean of (1 - |a_j|^2) / |a_j - e^{it}|^2, one expression per zero."""
    pts = np.exp(1j * t)
    acc = np.zeros(pts.shape)
    for w, gap in zip(b.zeros, b.one_minus_abs2):
        acc += 1.0 if w == 0 else gap / np.abs(w - pts) ** 2
    return acc / b.degree


@pytest.mark.parametrize("with_origin", [False, True], ids=["no-origin", "zero-at-origin"])
def test_theta_and_j0_equal_their_written_out_formulas(with_origin):
    rng = np.random.default_rng(11)
    zeros = list(0.7 * np.sqrt(rng.uniform(size=5)) * np.exp(2j * np.pi * rng.uniform(size=5)))
    if with_origin:
        zeros[2] = 0
    b = make_blaschke(zeros)
    bs = build_branches(b)
    t = rng.uniform(0.0, 2 * np.pi, 257)
    t[0] = 0.0
    e = np.exp(1j * t)
    for got in (bs.theta(t), bs.theta(t, e)):
        assert np.array_equal(got, _written_out_theta(bs, t))
    for got in (j0(b, t), j0(b, t, e), bs.theta_prime(t, e) / b.degree):
        assert np.array_equal(got, _written_out_j0(b, t))
    assert bs.theta(t[5]) == _written_out_theta(bs, t[5])
    assert j0(b, t[5]) == _written_out_j0(b, t[5:6])[0]


# -- branch system ------------------------------------------------------------


def test_squaring_lift_and_endpoints(z2):
    _, bs = z2
    assert bs.theta0 == 0.0
    assert abs(bs.theta(1.0) - 2.0) < 1e-12
    assert np.allclose(bs.arc_endpoints, [0.0, np.pi, 2 * np.pi], atol=1e-12)


def test_half_lift_starts_at_pi(half):
    _, bs = half
    assert bs.theta0 == pytest.approx(np.pi)


@pytest.mark.parametrize("degree", [65, 100])
def test_high_degree_builds_and_matches_polyroot_oracle(degree):
    # the lift table grows with the degree (64 cells per branch on average)
    rng = np.random.default_rng(0)
    zeros = list(0.5 * np.sqrt(rng.uniform(0, 1, degree)) * np.exp(2j * np.pi * rng.uniform(0, 1, degree)))
    bs = build_branches(make_blaschke(zeros))
    assert bs.theta_table.size == 64 * degree + 1
    for t in (0.3, 1.7, 4.0):
        z = np.exp(1j * t)
        got = preimages(bs, z)
        expect = preimage_roots(zeros, z)
        assert len(got) == degree
        # each preimage is its nearest oracle root, and no root is missed
        assert np.max(np.min(np.abs(got[:, None] - expect[None, :]), axis=1)) < 1e-12
        assert np.max(np.abs(np.sort_complex(got) - np.sort_complex(expect))) < 1e-12


def _seeded_zeros(degree, radius, seed=0):
    rng = np.random.default_rng(seed)
    return list(radius * np.sqrt(rng.uniform(0, 1, degree)) * np.exp(2j * np.pi * rng.uniform(0, 1, degree)))


def _matched_distance(got, want):
    """The largest distance in a greedy one-to-one matching of `want` to `got` (equal sizes)."""
    assert len(got) == len(want)
    rest, worst = list(got), 0.0
    for w in want:
        k = int(np.argmin(np.abs(np.array(rest) - w)))
        worst = max(worst, abs(rest.pop(k) - w))
    return worst


CRITICAL_CASES = {
    "triple zero": [0.5, 0.5, 0.5],
    "two doubles and the origin": [0.5, 0.5, -0.3j, -0.3j, 0],
    "zeros 1e-9 apart": [0.5, 0.5 + 1e-9, 0.2j],
    "double zero at the origin": [0, 0, 0.5],
    "near the circle": [0.99, 0.99j, -0.99, 0.5],
    "opposite near the circle": [0.999, -0.999],
    "32 zeros": _seeded_zeros(32, 0.9, seed=1),
}


@pytest.mark.parametrize("name", list(CRITICAL_CASES))
def test_critical_points_match_mpmath(name):
    # N - 1 zeros of b' in the disc, repeated zeros counted m - 1 times
    zeros = CRITICAL_CASES[name]
    got = make_blaschke(zeros).critical_points
    assert _matched_distance(got, critical_points_mpmath(zeros)) < 1e-13


def _outer_modulus_error(b, size: int) -> float:
    """max |J^{1/2}|^2 / j0 - 1 on the grid of `size` nodes."""
    grid = CircleGrid(size)
    j_half = outer_symbol(build_branches(b), grid, 0.5).boundary.values
    h = j0(b, grid.angles)
    return float(np.max(np.abs(np.abs(j_half) ** 2 - h) / h))


@pytest.mark.parametrize("degree", [64, 65, 100, 128])
def test_high_degree_critical_points_give_the_outer_modulus(degree):
    # no oracle at these degrees: the count, and |J^{1/2}|^2 = j0 on the circle
    b = make_blaschke(_seeded_zeros(degree, 0.5))
    assert b.critical_points.shape == (degree - 1,)
    assert _outer_modulus_error(b, 4096) < 1e-13


def test_zeros_closer_than_the_seeds_rounding_give_the_outer_modulus():
    # 5e-324i and -1e-300 are distinct, but no eigenvalue seed splits them: they
    # count as one double zero for the seed, and the critical point between them
    # is taken at the first
    b = make_blaschke([-0.3j, 5e-324j, -1e-300, 0.4])
    assert b.critical_points.shape == (3,)
    assert _outer_modulus_error(b, 512) < 1e-13


@given(blaschke_zeros(max_degree=3))
def test_lift_total_increment(zeros):
    b = make_blaschke(zeros)
    bs = build_branches(b)
    n = b.degree
    assert abs(bs.theta(2 * np.pi) - bs.theta(0.0) - 2 * np.pi * n) < 1e-10
    assert np.all(np.diff(bs.theta_table) > 0)


@given(blaschke_zeros(max_degree=3), circle_angles())
def test_lift_derivative_is_n_j0(zeros, t):
    b = make_blaschke(zeros)
    bs = build_branches(b)
    h = 1e-6
    fd = (bs.theta(t + h) - bs.theta(t - h)) / (2 * h)
    assert abs(fd - b.degree * j0(b, t)) < 1e-5


# -- preimages ----------------------------------------------------------------


@pytest.mark.parametrize("z", [complex("nan"), complex("inf"), complex(np.exp(1j * np.nan))])
def test_preimages_reject_non_finite_points(z):
    bs = build_branches(make_blaschke([0.5]))
    with pytest.raises(ValueError, match="finite"):
        preimages(bs, z)


def test_square_roots_of_unity(z2):
    _, bs = z2
    got = sorted(preimages(bs, 1.0), key=lambda w: w.imag)
    assert np.allclose(got, [1.0, -1.0][::-1], atol=1e-12) or np.allclose(
        sorted(got, key=lambda w: w.real), [-1.0, 1.0], atol=1e-12
    )


def test_half_preimage_of_one(half):
    # dense grid search oracle: minimize |b(w) - 1|
    b, bs = half
    t = np.linspace(0, 2 * np.pi, 20000, endpoint=False)
    w = np.exp(1j * t)
    best = w[np.argmin(np.abs(evaluate(b, w) - 1.0))]
    got = preimages(bs, 1.0)
    assert len(got) == 1
    assert abs(got[0] - best) < 1e-3
    assert abs(got[0] + 1.0) < 1e-10


def test_branch_point_exclusion(half):
    b, bs = half
    z_branch = evaluate(b, 1.0)
    with pytest.raises(BranchPointError):
        preimages(bs, z_branch * np.exp(1e-9j))
    # the exact hit is allowed and lands on the arc-endpoint fibre
    got = preimages(bs, z_branch)
    assert np.max(np.abs(evaluate(b, got) - z_branch)) < 1e-10


@given(blaschke_zeros(max_degree=4), circle_angles())
@example([0.995, -0.5j], 0.3)
@example([0.999], 0.3)
@example([0.99, 0.99j, -0.99, 0.5], 2.0)
def test_preimage_defining_residual(zeros, t):
    b = make_blaschke(zeros)
    bs = build_branches(b)
    z = np.exp(1j * t)
    if abs(z - evaluate(b, 1.0)) < 1e-6:
        return
    got = preimages(bs, z)
    assert np.max(np.abs(evaluate(b, got) - z)) < 1e-10
    # pairwise distinct
    n = b.degree
    for i in range(n):
        for j in range(i + 1, n):
            assert abs(got[i] - got[j]) > 1e-8


@given(blaschke_zeros(max_degree=4), circle_angles())
@example([0.995, -0.5j], 0.3)
@example([0.999], 0.3)
@example([0.99, 0.99j, -0.99, 0.5], 2.0)
def test_preimage_completeness_against_polyroot_oracle(zeros, t):
    b = make_blaschke(zeros)
    bs = build_branches(b)
    z = np.exp(1j * t)
    if abs(z - evaluate(b, 1.0)) < 1e-6:
        return
    got = np.sort_complex(preimages(bs, z))
    expect = np.sort_complex(preimage_roots(zeros, z))
    assert len(got) == len(expect)
    assert np.max(np.abs(got - expect)) < 1e-7

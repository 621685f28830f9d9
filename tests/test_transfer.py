import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from blaschkeops import build_branches, evaluate, make_blaschke
from blaschkeops.circlefun import (
    CircleGrid,
    FourierSeries,
    exponential,
    fourier_coeffs,
    nonnegative_powers,
    sample,
)
from blaschkeops.transfer import (
    ModuleFamily,
    arc_of,
    arcs_basis,
    compose_with_b,
    expansion_sweep,
    fibre,
    fibre_power_means,
    from_series,
    grid_fibre,
    midstep_fibre,
    module_gram,
    module_gram_deviation,
    nudged_fibre,
    transfer_apply,
    transfer_family,
)

from conftest import B1_ON_THE_GRID, blaschke_zeros, ones_basis, recorded
from oracles import expansion_sum, fibre_means, transfer_brute


def _series_vec(n, window=8):
    return from_series(exponential(n, window))


def _constant(c):
    return ModuleFamily((f"const {c}",), lambda z: np.full((1,) + z.shape, complex(c)))


def _first_arc(bs, factor=None):
    """sqrt(N) 1_A1 (times the one-member `factor`) as a one-member family, with the arcs' exception angles."""
    arcs = arcs_basis(bs)

    def rule(z):
        first = arcs.values(z)[:1]
        return first if factor is None else first * factor.values(z)

    return ModuleFamily(arcs.labels[:1], rule, arcs.exceptions)


def _at(f, z):
    """The values of the one-member family f at z."""
    (vals,) = f.values(z)
    return vals


def _expectation(bs, f):
    """E(f) = beta(L(f)): the conditional expectation onto the range of composition."""
    return compose_with_b(bs, transfer_family(bs, f))


def _coefficients(family, f, fib):
    """The module coefficients <m_i, f> = L(conj(m_i) f) at the image of the fibre."""
    return fibre_means(np.conj(family.values(fib)), _at(f, fib))


def _inner(bs, xi, eta, grid):
    """<xi, eta> = L(conj(xi) eta) on the grid, conjugate linear in the first slot."""
    fib = grid_fibre(bs, grid)
    return fibre_means(np.conj(xi.values(fib)), _at(eta, fib))[0]


def _apply(bs, f, grid):
    """L(f) on the grid for the one-member family f."""
    (out,) = transfer_apply(bs, f, grid)
    return out


# -- composition --------------------------------------------------------------


def test_compose_constant(mixed, grid1024):
    _, bs = mixed
    out = _at(compose_with_b(bs, _constant(1.0)), grid1024.points)
    assert np.allclose(out, 1.0)


def test_compose_mode_with_squaring(z2, grid1024):
    _, bs = z2
    comp = compose_with_b(bs, _series_vec(1))
    s = fourier_coeffs(sample(lambda z: _at(comp, z), grid1024), 4)
    assert abs(s.coeff(2) - 1.0) < 1e-13
    assert abs(s.coeff(1)) < 1e-13


def test_compose_is_b_itself(half, grid1024):
    b, bs = half
    comp = compose_with_b(bs, _series_vec(1))
    assert np.max(np.abs(_at(comp, grid1024.points) - evaluate(b, grid1024.points))) < 1e-13


# -- the transfer operator ------------------------------------------------------


def test_transfer_unital(mixed, grid1024):
    _, bs = mixed
    out = _apply(bs, _constant(1.0), grid1024)
    assert np.max(np.abs(out.values - 1.0)) < 1e-12


def test_transfer_halves_modes_under_squaring(z2, grid1024):
    _, bs = z2
    for n, target in [(0, {0: 1.0}), (1, {}), (4, {2: 1.0}), (-6, {-3: 1.0})]:
        s = fourier_coeffs(_apply(bs, _series_vec(n), grid1024), 8)
        got = {int(m): c for m, c in zip(s.modes, s.coeffs) if abs(c) > 1e-11}
        assert set(got) == set(target)
        for k, v in target.items():
            assert abs(got[k] - v) < 1e-12


@pytest.mark.parametrize(
    "zeros", [[0.5, -0.3j], [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j]], ids=["two-mixed", "six-zeros"]
)
def test_fibre_power_means_are_the_branch_mean_of_nonnegative_powers(zeros):
    # the rows n >= 0 of a two-sided table, bit for bit: transfer_h2_invariance reads them
    fib = grid_fibre(build_branches(make_blaschke(zeros)), CircleGrid(4096))
    want = sum(nonnegative_powers(branch, 32) for branch in fib) / fib.shape[0]
    got = fibre_power_means(fib, 32)
    assert got.shape == (33, 4096)
    assert np.array_equal(got, want)


def test_left_inverse_of_composition(mixed, grid1024):
    _, bs = mixed
    comp = compose_with_b(bs, _series_vec(1))
    back = _apply(bs, comp, grid1024)
    assert np.max(np.abs(back.values - grid1024.points)) < 1e-10


@given(blaschke_zeros(max_degree=3), st.integers(min_value=-8, max_value=8))
def test_left_inverse_on_modes(zeros, n):
    b = make_blaschke(zeros)
    bs = build_branches(b)
    g = CircleGrid(256)
    comp = compose_with_b(bs, _series_vec(n))
    back = _apply(bs, comp, g)
    assert np.max(np.abs(back.values - g.points ** float(n))) < 1e-10


@given(blaschke_zeros(max_degree=3))
def test_transfer_against_polyroot_oracle(zeros):
    b = make_blaschke(zeros)
    bs = build_branches(b)
    rng = np.random.default_rng(11)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    s = FourierSeries(c / np.sum(np.abs(c)))
    vec = from_series(s)
    zpts = np.exp(1j * np.linspace(0.2, 6.0, 9))
    got = _at(transfer_family(bs, vec), zpts)
    expect = transfer_brute(zeros, lambda w: np.asarray(
        sum(s.coeff(n) * w ** float(n) for n in range(-4, 5))
    ), zpts)
    assert np.max(np.abs(got - expect)) < 1e-9


def test_transfer_linearity_positivity(mixed, grid1024):
    _, bs = mixed
    f = _series_vec(1)
    g = _series_vec(2)
    lf = _apply(bs, f, grid1024).values
    lg = _apply(bs, g, grid1024).values
    both = _apply(
        bs, from_series(FourierSeries(
            exponential(1, 8).coeffs * 2.0 + exponential(2, 8).coeffs * 1j
        )), grid1024
    ).values
    assert np.max(np.abs(both - (2.0 * lf + 1j * lg))) < 1e-12
    # positivity: nonnegative in, nonnegative out
    pos = from_series(FourierSeries(np.array([0.5, 1.0, 0.5], dtype=complex)))  # |1 + z|^2 / ...
    out = _apply(bs, pos, grid1024).values
    assert np.min(out.real) > -1e-12
    assert np.max(np.abs(out.imag)) < 1e-12


def test_transfer_maps_h2_into_h2(mixed, grid1024):
    _, bs = mixed
    worst = 0.0
    for n in range(0, 33):
        s = fourier_coeffs(_apply(bs, _series_vec(n, window=33), grid1024), 256)
        worst = max(worst, s.negative_energy())
    assert worst < 1e-8


# -- conditional expectation E = beta L ------------------------------------------


def test_expectation_fixes_constants(mixed, grid1024):
    _, bs = mixed
    out = _at(_expectation(bs, _constant(2.5)), grid1024.points)
    assert np.max(np.abs(out - 2.5)) < 1e-12


def test_expectation_fixes_range_of_composition(mixed, grid1024):
    _, bs = mixed
    f = compose_with_b(bs, _series_vec(1))
    out = _at(_expectation(bs, f), grid1024.points)
    assert np.max(np.abs(out - _at(f, grid1024.points))) < 1e-10


def test_expectation_kills_odd_mode_under_squaring(z2, grid1024):
    _, bs = z2
    out = _at(_expectation(bs, _series_vec(1)), grid1024.points)
    assert np.max(np.abs(out)) < 1e-12


@given(blaschke_zeros(max_degree=3))
def test_expectation_idempotent(zeros):
    b = make_blaschke(zeros)
    bs = build_branches(b)
    g = CircleGrid(256)
    rng = np.random.default_rng(5)
    c = rng.standard_normal(9) + 1j * rng.standard_normal(9)
    f = from_series(FourierSeries(c / np.sum(np.abs(c))))
    once = _at(_expectation(bs, f), g.points)
    twice = _at(_expectation(bs, _expectation(bs, f)), g.points)
    assert np.max(np.abs(twice - once)) < 1e-9


# -- module structure -----------------------------------------------------------


def test_module_inner_of_ones(mixed, grid1024):
    _, bs = mixed
    out = _inner(bs, _constant(1.0), _constant(1.0), grid1024)
    assert np.max(np.abs(out - 1.0)) < 1e-12


def test_module_inner_conjugate_linear_first_slot(mixed, grid1024):
    _, bs = mixed
    alpha = 0.3 + 0.7j
    xi = _series_vec(1)
    eta = _series_vec(2)
    scaled = ModuleFamily(("alpha*xi",), lambda z: alpha * xi.values(z))
    lhs = _inner(bs, scaled, eta, grid1024)
    rhs = np.conj(alpha) * _inner(bs, xi, eta, grid1024)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_module_cauchy_schwarz(mixed, grid1024):
    _, bs = mixed
    xi = _series_vec(1)
    eta = from_series(FourierSeries(np.array([0.2, 1.0, -0.4j], dtype=complex)))
    gij = _inner(bs, xi, eta, grid1024)
    gii = _inner(bs, xi, xi, grid1024).real
    gjj = _inner(bs, eta, eta, grid1024).real
    assert np.max(np.abs(gij)) ** 2 <= np.max(gii) * np.max(gjj) + 1e-12


def test_arcs_are_semicircles_for_squaring(z2):
    _, bs = z2
    arcs = arcs_basis(bs)
    up = arcs.values(np.exp(1j * np.array([0.5, 2.0])))[0]
    down = arcs.values(np.exp(1j * np.array([3.5, 5.0])))[0]
    assert np.allclose(up, np.sqrt(2))
    assert np.allclose(down, 0.0)


def test_arcs_partition(mixed, grid1024):
    _, bs = mixed
    arcs = arcs_basis(bs)
    total = arcs.values(grid1024.points).sum(axis=0) / np.sqrt(bs.branch_count)
    assert np.max(np.abs(total - 1.0)) < 1e-14


@pytest.mark.parametrize("zeros", [[0, 0], [0.5, -0.3j], [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j]])
def test_arcs_rows_are_one_hot(zeros, grid1024):
    # at every point exactly one row is sqrt(N), the branch whose arc holds it
    bs = build_branches(make_blaschke(zeros))
    n = bs.branch_count
    arcs = arcs_basis(bs)
    z = np.concatenate([grid1024.points, np.exp(1j * bs.arc_endpoints)])
    vals = arcs.values(z)
    assert vals.shape == (n, z.size)
    assert arcs.labels == tuple(f"sqrt({n})*1_A{j}" for j in range(1, n + 1))
    on = vals == np.sqrt(n)
    assert np.all(on.sum(axis=0) == 1)
    assert np.all(vals[~on] == 0.0)
    assert np.array_equal(vals.sum(axis=0), np.full(z.size, np.sqrt(n)))


@st.composite
def _products_of_three_kinds(draw):
    """Degree 1-12: real coefficients (real zeros and conjugate pairs), z^N, or general zeros of radius <= 0.9.

    The first two kinds put b(1) = +-1 on a node of every grid.
    """
    n = draw(st.integers(min_value=1, max_value=12))
    kind = draw(st.sampled_from(["real", "power", "general"]))
    radius, angle = st.floats(min_value=0.0, max_value=0.9), st.floats(min_value=0.0, max_value=2 * np.pi)
    if kind == "power":
        return [0] * n
    if kind == "general":
        return [r * np.exp(1j * t) for r, t in (draw(st.tuples(radius, angle)) for _ in range(n))]
    zeros = []
    while len(zeros) < n:
        if len(zeros) + 2 <= n and draw(st.booleans()):
            z = draw(radius) * np.exp(1j * draw(angle))
            zeros += [z, np.conj(z)]
        else:
            zeros.append(draw(st.floats(min_value=-0.9, max_value=0.9)))
    return zeros


@given(_products_of_three_kinds())
def test_fibre_rows_lie_in_their_arcs(zeros):
    # the precondition of the arcs closed forms (arcs_onb's count, linking_unitary's u): on the fibres
    # the linking checks read, nudged off the arcs' exception images, branch row j lies in arc j
    bs = build_branches(make_blaschke(zeros))
    grid, arcs = CircleGrid(512), arcs_basis(bs)
    rows = np.arange(bs.branch_count)[:, None]
    for fib, _ in (nudged_fibre(bs, grid, arcs.exceptions), midstep_fibre(bs, grid, arcs.exceptions)):
        assert np.array_equal(arc_of(bs, fib), np.broadcast_to(rows, fib.shape)), zeros


def test_arcs_gram_identity(mixed, grid1024):
    # on the products with b(1) on the grid, the raw grid fibre put two branches in one arc at the
    # node b(1) (deviation 1.0); the Gram reads nudged_fibre, which moves that node
    for bs in (mixed[1], *(build_branches(make_blaschke(z)) for z in B1_ON_THE_GRID)):
        assert module_gram_deviation(bs, arcs_basis(bs), grid1024) < 1e-6, bs.owner.zeros


def test_module_gram_is_memoised_read_only_per_family(grid1024):
    # the Gram is formed once per (family, grid) from values on nudged_fibre
    # and shared read-only; another family gets its own entry
    bs = build_branches(make_blaschke([0.5, -0.3j]))
    arcs, ones = arcs_basis(bs), ones_basis(bs.owner)
    gram = module_gram(bs, arcs, grid1024)
    assert module_gram(bs, arcs, grid1024) is gram
    assert not gram.flags.writeable
    vals = arcs.values(nudged_fibre(bs, grid1024, arcs.exceptions)[0])
    assert np.array_equal(gram, np.sum(np.conj(vals)[:, None] * vals[None], axis=2) / bs.branch_count)
    other = module_gram(bs, ones, grid1024)
    assert other is not gram and module_gram(bs, ones, grid1024) is other
    assert np.all(other == 1.0)  # <1, 1> = 1 for every pair
    assert sum(isinstance(k, tuple) and k[0] == "gram" for k in bs._grid_cache) == 2


def test_module_expand_of_basis_element(z2, grid1024):
    _, bs = z2
    arcs = arcs_basis(bs)
    fib, _ = nudged_fibre(bs, grid1024, arcs.exceptions)
    coeffs = _coefficients(arcs, _first_arc(bs), fib)
    assert np.max(np.abs(coeffs[0] - 1.0)) < 1e-10
    assert np.max(np.abs(coeffs[1])) < 1e-10


def test_module_expand_module_linearity(z2, grid1024):
    # f = m_1 * beta(g) has coefficients (g, 0), here at w = b(zeta), the image of each fibre column
    b, bs = z2
    arcs = arcs_basis(bs)
    fib, _ = nudged_fibre(bs, grid1024, arcs.exceptions)
    f = _first_arc(bs, compose_with_b(bs, _series_vec(1)))
    coeffs = _coefficients(arcs, f, fib)
    assert np.max(np.abs(coeffs[0] - evaluate(b, fib[0]))) < 1e-10
    assert np.max(np.abs(coeffs[1])) < 1e-10


@pytest.mark.parametrize(
    "product, basis_is_arcs, modes",
    [
        pytest.param("mixed", True, [0.3, 0, 1, 0.5j, 0, 0, 0.25], id="arcs"),  # modes -3..3
        pytest.param("mixed", False, [0.3, 0, 1, 0.5j, 0, 0, 0.25], id="constant-pair"),
        pytest.param("z2", True, [0, 1, 1], id="arcs-squaring-polynomial"),  # 1 + z
    ],
)
def test_expansion_deviation(monkeypatch, request, grid1024, product, basis_is_arcs, modes):
    # f = sum_i m_i beta(<m_i, f>) pointwise, read through expansion_sweep, the one pass both kernel
    # checks read: exact for the arcs basis, and off by |2 L(f) o b - f| for the family [1, 1], which
    # is no module basis.  The sweep walks the columns of the midstep fibre in blocks, here of 100
    # nodes, node j's point z being row j mod N of its own column, so b(z) lies half a step off the
    # image grid; with no exception angle that fibre is the memoised fibre of grid.angles + pi/K
    from blaschkeops import transfer

    _, bs = request.getfixturevalue(product)
    n, cols, mid = bs.branch_count, np.arange(grid1024.size), grid1024.angles + np.pi / grid1024.size
    arcs = arcs_basis(bs)
    fam = arcs if basis_is_arcs else ones_basis(bs.owner)
    plain, moved = midstep_fibre(bs, grid1024, ())
    assert plain.shape == (n, grid1024.size) and moved == [] and np.array_equal(plain, fibre(bs, mid))
    fib, moved = midstep_fibre(bs, grid1024, arcs.exceptions)  # the sweep nudges off the arcs' images too
    z = fib[cols % n, cols]
    assert np.max(np.abs(evaluate(bs.owner, fib) - evaluate(bs.owner, z))) < 1e-12
    kept = np.setdiff1d(cols, moved)
    assert np.max(np.abs(evaluate(bs.owner, z[kept]) - np.exp(1j * mid[kept]))) < 1e-12
    # per block the sweep evaluates the family at the points, then on their fibre columns
    monkeypatch.setattr(transfer, "EXPANSION_BLOCK", fam.size * n * 100)
    seen = []
    bare, _, off = expansion_sweep(bs, recorded(fam, seen), grid1024)
    assert len(seen) == 2 * 11 and off == 0
    assert np.array_equal(np.concatenate(seen[1::2], axis=1), fib)
    assert np.array_equal(np.concatenate(seen[0::2]), z)
    # column l of the bare kernel expands the point mass at row l.  The reference sums in the other
    # order: the branch means first, then expansion_sum
    a_z, w_fib, eps = fam.values(z), np.conj(fam.values(fib)), np.finfo(float).eps
    masses = [(np.arange(n)[:, None] == row) * np.ones_like(fib) for row in range(n)]
    ref = max(np.max(np.abs(expansion_sum(a_z, fibre_means(w_fib, e)) - e[cols % n, cols])) for e in masses)
    assert bare == pytest.approx(ref, rel=0, abs=64 * eps)
    # so it bounds the expansion of f: |sum_zeta (k - [zeta = z]) f(zeta)| <= N * bare * max |f|
    f = from_series(FourierSeries(np.array(modes, dtype=complex)))
    dev = np.max(np.abs(expansion_sum(a_z, fibre_means(w_fib, _at(f, fib))) - _at(f, z)))
    assert dev <= n * bare * np.max(np.abs(_at(f, fib))) + 64 * eps
    if basis_is_arcs:
        assert bare < 1e-10 and dev < 1e-10
    else:
        assert bare > 0.5 and dev > 0.5


def test_nudge_recorded_for_indicator_input(z2):
    _, bs = z2
    g = CircleGrid(512)
    out = _apply(bs, _first_arc(bs), g)
    assert "nudged_nodes" in out.meta
    assert 0 in out.meta["nudged_nodes"]


def test_transfer_apply_solves_preimages_only_for_nudged_nodes(z2, monkeypatch):
    # the first arc of {0, 0} moves one node of 512 off its exception image:
    # that node's 2 preimage points are solved, every other node reads the
    # grid fibre, and its value is the exception-free branch mean bit for bit
    from blaschkeops.blaschke import BranchSystem

    _, bs = z2
    g = CircleGrid(512)
    fib = grid_fibre(bs, g)
    solve = BranchSystem.theta_inv
    points = []

    def counted(self, s):
        points.append(np.size(s))
        return solve(self, s)

    monkeypatch.setattr(BranchSystem, "theta_inv", counted)
    arc = _first_arc(bs)
    out = _apply(bs, arc, g)
    assert sum(points) == 2
    moved = out.meta["nudged_nodes"]
    assert moved == [0]
    kept = np.setdiff1d(np.arange(g.size), moved)
    (mean,) = arc.values(fib).mean(axis=1)
    assert np.array_equal(out.values[kept], mean[kept])


@pytest.mark.parametrize("product, nudged", [("z2", True), ("mixed", False)])
def test_transfer_apply_family_matches_members(request, product, nudged):
    # one call over series members plus the first arc equals one call per
    # member (each keeping the family's exception angles), bit for bit
    _, bs = request.getfixturevalue(product)
    g = CircleGrid(512)
    series = from_series(exponential(1, 8), FourierSeries(np.array([0.2, 1.0, -0.4j], dtype=complex)))
    arc = _first_arc(bs)
    fam = ModuleFamily(
        series.labels + arc.labels,
        lambda z: np.concatenate([series.values(z), arc.values(z)]),
        arc.exceptions,
    )
    together = transfer_apply(bs, fam, g)
    assert len(together) == fam.size
    for i, out in enumerate(together):
        member = ModuleFamily(fam.labels[i : i + 1], lambda z, i=i: fam.values(z)[i : i + 1], fam.exceptions)
        alone = _apply(bs, member, g)
        assert np.array_equal(out.values, alone.values)
        assert out.meta == alone.meta
        assert ("nudged_nodes" in out.meta) == nudged

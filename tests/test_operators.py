import json
import tracemalloc

import numpy as np
import pytest

from blaschkeops import build_branches, evaluate, make_blaschke
from blaschkeops.circlefun import (
    BoundaryFunction,
    CircleGrid,
    FourierSeries,
    exponential,
    fourier_coeffs,
    sample,
    synthesize,
)
from blaschkeops.model_space import canonical_basis, induced_module_basis
from blaschkeops.operators import (
    COLUMN_BLOCK,
    PAIR_ROWS,
    TruncatedOperator,
    _columns_from_samples,
    _power_samples,
    adjoint,
    block,
    compose,
    cuntz_family_matrices,
    excluded_mask,
    gamma_b_matrix,
    identity_operator,
    interior_residual,
    master_isometry_matrix,
    master_isometry_matrix_direct,
    moment_nodes,
    mult_operator,
    operator_from_json,
    operator_norm,
    orthonormality_defect,
    pair_power_gram,
    restrict_to_h2,
    toeplitz_operator,
    transfer_matrix,
    weighted_composition_matrix,
)
from blaschkeops.transfer import ModuleFamily, arcs_basis, grid_fibre, module_gram, outer_symbol
from blaschkeops.verify import _ONE

from conftest import ones_basis, seeded_zeros
from oracles import grid_mean, power_coefficients_mpmath


def _zero_like(op):
    return TruncatedOperator(
        np.zeros_like(op.matrix), op.row_modes, op.col_modes, op.space,
        np.zeros(op.matrix.shape[1]),
    )


# -- multiplication and Toeplitz ------------------------------------------------


def test_mult_identity_and_shift():
    assert np.allclose(mult_operator(exponential(0, 0), 4).matrix, np.eye(9))
    shift = mult_operator(exponential(1), 4).matrix
    assert np.allclose(shift, np.eye(9, k=-1))  # row m = n + 1 is the subdiagonal


def test_mult_blaschke_entry(grid4096):
    b = make_blaschke([0.5])
    phi = fourier_coeffs(sample(lambda z: evaluate(b, z), grid4096), 16)
    op = mult_operator(phi, 16)
    target = grid_mean(lambda t: evaluate(b, np.exp(1j * t)), 4096)
    assert abs(op.entry(0, 0) - target) < 1e-12
    assert abs(op.entry(0, 0) - 0.5) < 1e-12


@pytest.mark.parametrize("symbol_window", [0, 5, 16])
def test_mult_tails_match_mask_formula(symbol_window):
    # reference: the symbol modes pushed outside the rows, picked out by a boolean mask
    rng = np.random.default_rng(3)
    size = 2 * symbol_window + 1
    phi = FourierSeries(rng.standard_normal(size) + 1j * rng.standard_normal(size))
    window = 16
    op = mult_operator(phi, window)
    c2 = np.abs(phi.coeffs) ** 2
    for n, tail in zip(op.col_mode_array, op.column_tail):
        k = phi.modes + n
        assert tail == np.sqrt(np.sum(c2[(k < -window) | (k > window)]))


@pytest.mark.parametrize("symbol_window", [0, 5, 16])
def test_mult_matrix_matches_mode_difference_formula(symbol_window):
    # reference: entry (m, n) is c_{m - n} where |m - n| <= symbol_window, else zero
    rng = np.random.default_rng(4)
    size = 2 * symbol_window + 1
    phi = FourierSeries(rng.standard_normal(size) + 1j * rng.standard_normal(size))
    window = 16
    modes = np.arange(-window, window + 1)
    diff = modes[:, None] - modes[None, :]
    ref = np.zeros(diff.shape, dtype=complex)
    inside = np.abs(diff) <= symbol_window
    ref[inside] = phi.coeffs[diff[inside] + symbol_window]
    assert np.array_equal(mult_operator(phi, window).matrix, ref)


def test_mult_window_violation():
    with pytest.raises(ValueError):
        mult_operator(exponential(5, 5), 4)


def test_toeplitz_shifts():
    fwd = toeplitz_operator(exponential(1), 4)
    back = toeplitz_operator(exponential(-1), 4)
    assert fwd.space == "H2"
    assert np.allclose(fwd.matrix, np.eye(5, k=-1))
    assert np.allclose(back.matrix, np.eye(5, k=1))
    # isometry defect of the unilateral shift sits at mode 0
    left = compose(adjoint(fwd), fwd).matrix
    right = compose(fwd, adjoint(fwd)).matrix
    assert np.allclose(left[:-1, :-1], np.eye(4))
    assert right[0, 0] == 0.0
    assert np.allclose(right[1:, 1:], np.eye(4))


# -- composition operator --------------------------------------------------------


def test_gamma_of_squaring_is_mode_doubling(z2):
    _, bs = z2
    g = CircleGrid(512)
    gam = gamma_b_matrix(bs, 16, g)
    for n in range(-8, 9):
        col = gam.matrix[:, n + 16]
        expect = np.zeros(33)
        expect[2 * n + 16] = 1.0
        assert np.max(np.abs(col - expect)) < 1e-13


def test_gamma_fixes_constants(mixed):
    _, bs = mixed
    gam = gamma_b_matrix(bs, 8, CircleGrid(512))
    col = gam.matrix[:, 8]
    expect = np.zeros(17)
    expect[8] = 1.0
    assert np.max(np.abs(col - expect)) < 1e-13


def test_gamma_gram_entry_is_b0(half):
    # (Gamma e_1, Gamma e_0) = (b, 1) = b(0)
    _, bs = half
    gam = gamma_b_matrix(bs, 32, CircleGrid(2048))
    gram = compose(adjoint(gam), gam)
    assert abs(gram.entry(0, 1) - 0.5) < 1e-10


def test_power_table_is_read_only():
    bs = build_branches(make_blaschke([0.5, -0.3j]))
    grid = CircleGrid(512)
    gamma_b_matrix(bs, 16, grid)
    table = bs._grid_cache[("powers", 512)]
    assert table.shape == (33, 512)
    for arr in (table, _power_samples(bs, grid, 8)):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = 0.0


def test_shared_inputs_are_memoised_read_only():
    # each input the builders share is built once per branch system and key,
    # and an in-place write by any caller that shares it is refused
    bs = build_branches(make_blaschke([0.5, -0.3j]))
    grid, m = CircleGrid(1024), 16
    arcs = arcs_basis(bs)
    builders = {
        "grid_fibre": lambda: grid_fibre(bs, grid),
        "outer_symbol": lambda: outer_symbol(bs, grid, 0.5),
        "_power_samples": lambda: _power_samples(bs, grid, m).base,  # a view of the one table
        "gamma_b_matrix": lambda: gamma_b_matrix(bs, m, grid),
        "master_isometry_matrix_direct": lambda: master_isometry_matrix_direct(bs, m, grid),
        "module_gram": lambda: module_gram(bs, arcs, grid),
    }
    for name, build in builders.items():
        assert build() is build(), name
    arrays = {
        "fibre": grid_fibre(bs, grid),
        "J^1/2 boundary values": outer_symbol(bs, grid, 0.5).boundary.values,
        "J^1/2 roots": outer_symbol(bs, grid, 0.5).roots,
        "J^1/2 poles": outer_symbol(bs, grid, 0.5).poles,
        "b^n table": _power_samples(bs, grid, m),
        "Gamma_b matrix": gamma_b_matrix(bs, m, grid).matrix,
        "Gamma_b tails": gamma_b_matrix(bs, m, grid).column_tail,
        "C_b matrix": master_isometry_matrix_direct(bs, m, grid).matrix,
        "C_b tails": master_isometry_matrix_direct(bs, m, grid).column_tail,
        "module Gram": module_gram(bs, arcs, grid),
    }
    for name, array in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            array[(0,) * array.ndim] = 0.0
        assert not array.flags.writeable, name


def test_power_table_grown_once_serves_narrower_windows_exactly():
    # the views of the grown table must equal what a fresh branch system builds
    b = make_blaschke([0.5, -0.3j, 0.2 + 0.4j])
    grid = CircleGrid(1024)
    weight = canonical_basis(b).values(grid.points)[1]
    bs = build_branches(b)
    wide = gamma_b_matrix(bs, 128, grid)
    assert bs._grid_cache[("powers", 1024)].shape == (257, 1024)
    # one Gamma_b per (grid, window), shared read-only by every caller
    assert gamma_b_matrix(bs, 128, grid) is wide
    for array in (wide.matrix, wide.column_tail):
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0.0
    for build in (
        lambda s: gamma_b_matrix(s, 32, grid),
        lambda s: gamma_b_matrix(s, 64, grid),
        lambda s: weighted_composition_matrix(s, weight, 64, grid),
    ):
        got, want = build(bs), build(build_branches(b))
        assert np.array_equal(got.matrix, want.matrix)
        assert np.array_equal(got.column_tail, want.column_tail)
    assert bs._grid_cache[("powers", 1024)].shape == (257, 1024)  # not rebuilt narrower


@pytest.mark.parametrize("size, window", [(64, 5), (64, 31), (128, 0), (1024, 128)])
def test_columns_from_samples_tails_match_mask_formula(size, window):
    rng = np.random.default_rng(7)
    rows = rng.standard_normal((9, size)) + 1j * rng.standard_normal((9, size))
    weight = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    for w, samples in ((None, rows), (weight, weight[None, :] * rows)):
        before = rows.copy()
        op = _columns_from_samples(rows, CircleGrid(size), window, (-4, 4), w)
        assert np.array_equal(rows, before)  # the caller's rows are only read
        fresh = _columns_from_samples(rows.copy(), CircleGrid(size), window, (0, 8), w)
        assert fresh.col_modes == (0, 8)
        assert np.array_equal(fresh.matrix, op.matrix)
        assert np.array_equal(fresh.column_tail, op.column_tail)
        # reference: the discarded modes picked out by a boolean mask
        coef = np.fft.fft(samples, axis=1) / size
        idx = np.mod(np.arange(-window, window + 1), size)
        outside = np.ones(size, dtype=bool)
        outside[idx] = False
        tails = np.sqrt(np.sum(np.abs(coef[:, outside]) ** 2, axis=1))
        assert np.array_equal(op.column_tail, tails)
        assert np.array_equal(op.matrix, coef[:, idx].T)


def _whole_table_columns(rows, size, window, weight):
    # the reference: one transform of every row, tails from a column-major sum
    # (each row left to right, pairwise on a one-row table)
    samples = rows if weight is None else weight[None, :] * rows
    coef = np.fft.fft(samples, axis=1, norm="forward")
    mass = np.empty((rows.shape[0], size - 2 * window - 1), order="F")
    np.abs(coef[:, window + 1 : size - window], out=mass)
    np.square(mass, out=mass)
    return coef[:, np.mod(np.arange(-window, window + 1), size)].T, np.sqrt(np.sum(mass, axis=1))


@pytest.mark.parametrize(
    "size, window, last_block",
    [(4096, 128, 0), (4096, 128, 1), (4096, 64, 5), (4096, 64, None), (1 << 17, 64, 1), (1 << 17, 32, None)],
    ids=["full-last-block", "one-row-last-block", "five-row-last-block", "one-row-table", "wide-grid", "wide-grid-one-row"],
)
def test_row_blocks_give_the_bits_of_one_whole_table_transform(size, window, last_block):
    # last_block: the rows left for the last block, 0 for a full one; None is a one-row table
    step = max(1, COLUMN_BLOCK // size)
    count = 1 if last_block is None else 2 * step + (last_block or step)
    rng = np.random.default_rng(11)
    rows = rng.standard_normal((count, size)) + 1j * rng.standard_normal((count, size))
    weight = rng.standard_normal(size) + 1j * rng.standard_normal(size)
    for w in (None, weight):
        op = _columns_from_samples(rows, CircleGrid(size), window, (0, count - 1), w)
        mat, tails = _whole_table_columns(rows, size, window, w)
        assert np.array_equal(op.matrix, mat)
        assert np.array_equal(op.column_tail, tails)


def test_column_builders_hold_no_full_size_temporary():
    # with the b^n table built, Gamma_b and pi(w) Gamma_b at window 128 allocate
    # their output and one block of scratch, not a copy or transform of the table
    b = make_blaschke([0.5, -0.3j, 0.2 + 0.4j])
    grid = CircleGrid(4096)
    weight = canonical_basis(b).values(grid.points)[1]
    bs = build_branches(b)
    table = _power_samples(bs, grid, 128)
    for build in (lambda: gamma_b_matrix(bs, 128, grid), lambda: weighted_composition_matrix(bs, weight, 128, grid)):
        tracemalloc.start()
        try:
            build()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes / 4, (peak, table.nbytes)


# -- master isometry --------------------------------------------------------------


def test_master_isometry_equals_gamma_for_squaring(z2):
    _, bs = z2
    g = CircleGrid(512)
    c = master_isometry_matrix(bs, 16, g)
    gam = gamma_b_matrix(bs, 16, g)
    assert np.max(np.abs(c.matrix - gam.matrix)) < 1e-12


def test_master_isometry_interior_identity(mixed):
    _, bs = mixed
    g = CircleGrid(4096)
    c = master_isometry_matrix(bs, 64, g)
    cd = master_isometry_matrix_direct(bs, 64, g)
    r, _ = interior_residual(compose(adjoint(c), c), identity_operator(64), 32, tail_sources=[cd])
    assert r < 1e-6
    cross, _ = interior_residual(c, cd, 32, tail_sources=[cd])
    assert cross < 1e-8


def test_master_isometry_tails_are_the_composition_bound(mixed):
    # the tails `matrix --which cb` publishes: ||pi|| tail_Gamma + tail_pi @ |Gamma|
    _, bs = mixed
    g = CircleGrid(1024)
    pj = mult_operator(fourier_coeffs(outer_symbol(bs, g, 0.5).boundary, 16), 16)
    gam = gamma_b_matrix(bs, 16, g)
    bound = operator_norm(pj) * gam.column_tail + pj.column_tail @ np.abs(gam.matrix)
    assert np.array_equal(master_isometry_matrix(bs, 16, g).column_tail, bound)


def test_master_isometry_reduced_by_h2(mixed):
    _, bs = mixed
    g = CircleGrid(4096)
    cd = master_isometry_matrix_direct(bs, 64, g)
    lower = block(cd, (-64, -1), (0, 32))
    upper = block(cd, (0, 64), (-32, -1))
    good_low = cd.column_tail[64:97] < 1e-10
    good_up = cd.column_tail[32:64] < 1e-10
    assert np.max(np.abs(lower.matrix[:, good_low])) < 1e-8
    assert np.max(np.abs(upper.matrix[:, good_up])) < 1e-8


# -- Cuntz families ---------------------------------------------------------------


def test_cuntz_interleaving_for_squaring(z2):
    _, bs = z2
    g = CircleGrid(512)
    s = cuntz_family_matrices(bs, canonical_basis(bs.owner), 32, g)
    m1, m2 = s[0].matrix, s[1].matrix
    for n in range(-16, 17):
        e1 = np.zeros(65)
        e1[2 * n + 32] = 1.0
        assert np.max(np.abs(m1[:, n + 32] - e1)) < 1e-13
        if 2 * n + 1 <= 32:
            e2 = np.zeros(65)
            e2[2 * n + 1 + 32] = 1.0
            assert np.max(np.abs(m2[:, n + 32] - e2)) < 1e-13


def test_cuntz_relations_interior(mixed):
    _, bs = mixed
    g = CircleGrid(4096)
    s = cuntz_family_matrices(bs, canonical_basis(bs.owner), 64, g)
    eye = identity_operator(64)
    for i in range(2):
        for j in range(2):
            prod = compose(adjoint(s[i]), s[j])
            target = eye if i == j else _zero_like(prod)
            r, _ = interior_residual(prod, target, 32, tail_sources=[s[i], s[j]])
            assert r < 1e-6
    total = sum(compose(si, adjoint(si)).matrix for si in s)
    op = TruncatedOperator(total, (-64, 64), (-64, 64), "L2", np.zeros(129))
    r, _ = interior_residual(op, eye, 32, tail_sources=list(s))
    assert r < 1e-6


def test_cuntz_rejects_invalid_basis(mixed):
    from blaschkeops.errors import GramCheckError

    b, bs = mixed
    with pytest.raises(GramCheckError):
        cuntz_family_matrices(bs, ones_basis(b), 16, CircleGrid(512))


def test_cuntz_cross_construction_agreement(mixed):
    # the sampled columns v_i b^n against the module construction pi(v_i J^{-1/2}) C_b
    _, bs = mixed
    g = CircleGrid(4096)
    basis = canonical_basis(bs.owner)
    direct = cuntz_family_matrices(bs, basis, 64, g)
    cb = master_isometry_matrix(bs, 64, g)
    for d, m in zip(direct, induced_module_basis(bs, basis, g).values(g.points)):
        symbol = fourier_coeffs(BoundaryFunction(g, m), 64)
        module = compose(mult_operator(symbol, 64), cb)
        r, _ = interior_residual(d, module, 32, tail_sources=[d])
        assert r < 1e-8


def test_cuntz_covariance(mixed):
    # S_i pi(e_1) = pi(b) S_i on certified interior columns
    b, bs = mixed
    g = CircleGrid(4096)
    s = cuntz_family_matrices(bs, canonical_basis(b), 64, g)
    pe1 = mult_operator(exponential(1, 64), 64)
    pb = mult_operator(fourier_coeffs(sample(lambda z: evaluate(b, z), g), 64), 64)
    bvals = evaluate(b, g.points)
    for v, si in zip(canonical_basis(b).values(g.points), s):
        shifted = weighted_composition_matrix(bs, v * bvals, 64, g)
        r, _ = interior_residual(compose(si, pe1), compose(pb, si), 32, tail_sources=[si, shifted])
        assert r < 1e-6


def test_restriction_to_h2(z2):
    _, bs = z2
    g = CircleGrid(512)
    s = cuntz_family_matrices(bs, canonical_basis(bs.owner), 32, g)
    r1 = restrict_to_h2(s[0])
    assert r1.space == "H2"
    for n in range(0, 17):
        col = r1.matrix[:, n]
        expect = np.zeros(33)
        expect[2 * n] = 1.0
        assert np.max(np.abs(col - expect)) < 1e-13
    eye = identity_operator(8)
    assert np.allclose(restrict_to_h2(identity_operator(8)).matrix, np.eye(9))
    assert np.allclose(
        restrict_to_h2(mult_operator(exponential(1), 8)).matrix,
        toeplitz_operator(exponential(1), 8).matrix,
    )


# -- transfer matrix ---------------------------------------------------------------


def test_transfer_matrix_squaring_pattern(z2):
    _, bs = z2
    g = CircleGrid(512)
    L = transfer_matrix(bs, 16, g)
    for n in range(-16, 17):
        col = L.matrix[:, n + 16]
        expect = np.zeros(33)
        if n % 2 == 0:
            expect[n // 2 + 16] = 1.0
        assert np.max(np.abs(col - expect)) < 1e-12


def _transfer_matrix_by_modes(bs, window, grid):
    # the reference: each mode's fibre power formed on its own with numpy's **
    fib = grid_fibre(bs, grid)
    samples = np.stack([(fib**n).mean(axis=0) for n in range(-window, window + 1)])
    return _columns_from_samples(samples, grid, window, (-window, window))


_SIX_ZEROS = [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j]


@pytest.mark.parametrize(
    "zeros, window",
    [
        ([0.5, -0.3j], 64),
        ([0.8], 64),
        (_SIX_ZEROS, 128),
        ([0.5, -0.3j], 1),
        ([0.8], 5),
        (_SIX_ZEROS, 63),
    ],
    ids=["two-mixed", "single-0.8", "six-zeros", "two-mixed-w1", "single-0.8-w5", "six-zeros-w63"],
)
def test_transfer_matrix_matches_per_mode_powers(zeros, window):
    bs = build_branches(make_blaschke(zeros))
    grid = CircleGrid(4096)
    got = transfer_matrix(bs, window, grid)
    want = _transfer_matrix_by_modes(bs, window, grid)
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-14
    assert np.array_equal(got.column_tail > 1e-10, want.column_tail > 1e-10)


@pytest.mark.parametrize("zeros", [[0.5, -0.3j], _SIX_ZEROS], ids=["two-mixed", "six-zeros"])
@pytest.mark.parametrize("window", [1, 5, 64])
def test_transfer_matrix_negative_columns_mirror_the_positive(zeros, window):
    # L(e_{-n}) = conj L(e_n): T[m, -n] = conj T[-m, n], and the tails agree
    L = transfer_matrix(build_branches(make_blaschke(zeros)), window, CircleGrid(1024))
    assert L.col_modes == (-window, window)
    for n in range(1, window + 1):
        assert np.array_equal(L.matrix[:, window - n], np.conj(L.matrix[::-1, window + n]))
        assert L.column_tail[window - n] == L.column_tail[window + n]


@pytest.mark.parametrize("zeros", [[0.5], _SIX_ZEROS], ids=["half", "six-zeros"])
@pytest.mark.parametrize("window", [1, 5, 64])
def test_gamma_b_negative_columns_mirror_the_positive(zeros, window):
    # b^{-n} = conj(b^n) on the circle: Gamma[k, -n] = conj Gamma[-k, n], and the tails agree
    gam = gamma_b_matrix(build_branches(make_blaschke(zeros)), window, CircleGrid(1024))
    assert gam.col_modes == (-window, window)
    for n in range(1, window + 1):
        assert np.array_equal(gam.matrix[:, window - n], np.conj(gam.matrix[::-1, window + n]))
        assert gam.column_tail[window - n] == gam.column_tail[window + n]


def _gamma_b_from_reciprocals(bs, window, grid):
    # the reference: every column transformed, the negative ones from the table's reciprocal rows
    return _columns_from_samples(_power_samples(bs, grid, window), grid, window, (-window, window))


@pytest.mark.parametrize(
    "zeros",
    [[0.5], _SIX_ZEROS, [0.999], [0.99, 0.99j, -0.99, 0.5]],
    ids=["half", "six-zeros", "0.999", "near-circle-four"],
)
@pytest.mark.parametrize("window", [64, 128])
def test_gamma_b_mirror_agrees_with_the_reciprocal_rows(zeros, window):
    bs = build_branches(make_blaschke(zeros))
    grid = CircleGrid(4096)
    got, want = gamma_b_matrix(bs, window, grid), _gamma_b_from_reciprocals(bs, window, grid)
    assert np.array_equal(got.matrix[:, window:], want.matrix[:, window:])  # the columns n >= 0
    assert np.max(np.abs(got.matrix - want.matrix)) <= 1e-14
    assert np.array_equal(got.column_tail > 1e-10, want.column_tail > 1e-10)


def test_gamma_b_mirror_is_no_less_accurate_than_the_reciprocal_rows():
    # against the 50-digit power series of b^n: column -n of the mirror carries
    # the error of column n, so its worst entry is the worst of the columns
    # n >= 0, which the reciprocal rows share and can only add to
    zeros, window = [0.5, -0.3j], 16
    exact = power_coefficients_mpmath(zeros, window)
    bs = build_branches(make_blaschke(zeros))
    grid = CircleGrid(256)
    mirror = np.max(np.abs(gamma_b_matrix(bs, window, grid).matrix - exact))
    reciprocal = np.max(np.abs(_gamma_b_from_reciprocals(bs, window, grid).matrix - exact))
    assert mirror <= reciprocal
    assert mirror < 4e-15


def test_transfer_matrix_h2_block(mixed):
    _, bs = mixed
    g = CircleGrid(4096)
    L = transfer_matrix(bs, 32, g)
    analytic_cols = L.matrix[:32, 32:]  # rows m < 0, cols n >= 0
    assert np.max(np.abs(analytic_cols)) < 1e-8


def test_transfer_left_inverse_matrix(mixed):
    _, bs = mixed
    g = CircleGrid(4096)
    L = transfer_matrix(bs, 64, g)
    gam = gamma_b_matrix(bs, 64, g)
    r, _ = interior_residual(compose(L, gam), identity_operator(64), 32, tail_sources=[L, gam])
    assert r < 1e-6


def test_transfer_adjoint_identity(mixed):
    # the Fourier-side matrix of L pi(j0^{-1}) equals the adjoint of Gamma_b
    from blaschkeops import j0 as j0fn

    b, bs = mixed
    g = CircleGrid(4096)
    L = transfer_matrix(bs, 64, g)
    gam = gamma_b_matrix(bs, 64, g)
    j0inv = fourier_coeffs(BoundaryFunction(g, (1.0 / j0fn(b, g.angles)).astype(complex)), 64)
    pj = mult_operator(j0inv, 64)
    r, _ = interior_residual(compose(L, pj), adjoint(gam), 32, tail_sources=[L, pj])
    assert r < 1e-6


# -- dense algebra -----------------------------------------------------------------


def test_adjoint_involution():
    op = mult_operator(exponential(1), 4)
    assert np.allclose(adjoint(adjoint(op)).matrix, op.matrix)


def test_norms():
    assert operator_norm(identity_operator(6)) == pytest.approx(1.0)
    assert operator_norm(mult_operator(exponential(1), 6)) == pytest.approx(1.0)


def test_compose_shape_mismatch():
    a = identity_operator(4)
    b = identity_operator(5)
    with pytest.raises(ValueError):
        compose(a, b)


def test_block_accumulates_dropped_mass():
    mat = np.zeros((5, 5), dtype=complex)
    mat[0, 2] = 3.0  # row mode -2, col mode 0
    op = TruncatedOperator(mat, (-2, 2), (-2, 2), "L2", np.zeros(5))
    sub = block(op, (-1, 1), (-1, 1))
    assert sub.column_tail[1] == pytest.approx(3.0)  # col mode 0 lost the 3.0 entry


def test_derived_operators_carry_no_certificate():
    op = mult_operator(exponential(1), 4)
    assert np.all(compose(op, op).column_tail == np.inf)
    assert np.all(adjoint(op).column_tail == np.inf)


def test_interior_residual_refuses_vacuous():
    op = identity_operator(4)
    bad = TruncatedOperator(op.matrix, op.row_modes, op.col_modes, "L2", np.ones(9))
    with pytest.raises(ValueError):
        interior_residual(op, op, 2, tail_sources=[bad])


def test_interior_residual_refuses_a_product_as_certificate():
    op = mult_operator(exponential(1), 4)
    prod = compose(adjoint(op), op)
    with pytest.raises(ValueError, match="no certified column remains"):
        interior_residual(prod, identity_operator(4), 2, tail_sources=[prod])


def test_interior_residual_requires_tail_sources():
    op = identity_operator(4)
    with pytest.raises(TypeError):
        interior_residual(op, op, 2)


def _tailed(col_modes, tails):
    """An operator on the given column modes whose column tails are `tails`."""
    n = col_modes[1] - col_modes[0] + 1
    return TruncatedOperator(np.zeros((n, n)), col_modes, col_modes, "L2", np.array(tails, dtype=float))


def test_excluded_mask_is_the_union_over_the_sources_by_mode():
    cols = np.arange(-2, 3)
    left = _tailed((-2, 2), [1.0, 0, 0, 0, 1e-11])  # mode -2 over the threshold
    right = _tailed((0, 2), [0, 2e-10, 0])  # mode 1, on fewer columns
    assert excluded_mask(cols, [left, right], 1e-10).tolist() == [True, False, False, True, False]


def test_excluded_mask_refuses_a_product_as_its_only_source():
    op = mult_operator(exponential(1), 4)
    with pytest.raises(ValueError, match="no certified column remains"):
        excluded_mask(np.arange(-2, 3), [compose(op, op)], 1e-10)  # every tail inf


def test_excluded_mask_of_an_empty_union_certifies_every_column():
    cols = np.arange(-2, 3)
    assert not excluded_mask(cols, [_tailed((-2, 2), [1e-11] * 5)], 1e-10).any()
    assert not excluded_mask(cols, [_tailed((-2, 2), [1.0] * 5)], np.inf).any()  # exclusion off
    assert not excluded_mask(cols, [], 1e-10).any()


def test_operator_json_round_trip(z2):
    _, bs = z2
    op = gamma_b_matrix(bs, 4, CircleGrid(64))
    back = operator_from_json(op.to_json())
    assert np.allclose(back.matrix, op.matrix)
    assert back.row_modes == op.row_modes
    assert back.space == op.space
    assert np.allclose(back.column_tail, op.column_tail)


def _awkward_floats(rng, shape):
    """Seeded floats with signed zeros, subnormals, integers and huge values mixed in."""
    x = rng.standard_normal(shape)
    flat = x.reshape(-1)
    flat[::7] = -0.0
    flat[1::7] = 5e-324
    flat[2::7] *= 1e-310
    flat[3::7] = np.round(flat[3::7] * 1e3)
    flat[4::7] *= 1e300
    return x


def test_operator_encoders_match_per_entry_encoding():
    rng = np.random.default_rng(9)
    # column-major storage, like the column builders' matrices
    mat = (_awkward_floats(rng, (5, 7)) + 1j * _awkward_floats(rng, (5, 7))).T
    tails = np.abs(_awkward_floats(rng, 5))
    tails[[1, 3]] = np.inf
    op = TruncatedOperator(mat, (-3, 3), (-2, 2), "L2", tails)
    data = [[v.real, v.imag] for v in op.matrix.reshape(-1)]
    expect = {"space": "L2", "row_modes": [-3, 3], "col_modes": [-2, 2], "data": data,
              "column_tail": list(map(float, op.column_tail))}
    assert op.to_json() == json.dumps(expect)
    for plane, part in (("re", op.matrix.real), ("im", op.matrix.imag)):
        assert op.to_csv(plane) == "\n".join(",".join(repr(float(x)) for x in row) for row in part) + "\n"


# -- quadrature Gram ----------------------------------------------------------------


def _power_gram(mu, i, j, window):
    """The matrix [(f_j b^n, f_i b^m)]_{m,n} read off the moments."""
    modes = np.arange(2 * window + 1)
    return mu[i, j, modes[None, :] - modes[:, None] + 2 * window]


def test_pair_power_gram_matches_fft_for_smooth(mixed):
    # cross-validate the Gauss-Legendre path against the dense product deep in
    # the interior, where the dense side's k-truncation is negligible
    b, bs = mixed
    g = CircleGrid(4096)
    gram = _power_gram(pair_power_gram(bs, _j_half(bs, g), 4), 0, 0, 4)
    cb = master_isometry_matrix_direct(bs, 32, g)
    dense = compose(adjoint(cb), cb)
    sub = dense.matrix[28:37, 28:37]
    assert np.max(np.abs(gram - sub)) < 1e-8


def _j_half(bs, grid):
    """The one-member family {J^{1/2}}."""
    jh = outer_symbol(bs, grid, 0.5)
    return ModuleFamily(("J^1/2",), lambda z: jh.eval(z)[None])


def test_pair_power_gram_arcs_orthonormal(mixed):
    # the S_i from the arcs basis satisfy S_i* S_j = delta_ij I exactly
    b, bs = mixed
    g = CircleGrid(1024)
    cols = arcs_basis(bs).times(outer_symbol(bs, g, 0.5).eval, "J^1/2")
    mu = pair_power_gram(bs, cols, 8)
    for i in range(2):
        for j in range(2):
            target = np.eye(17) if i == j else np.zeros((17, 17))
            assert np.max(np.abs(_power_gram(mu, i, j, 8) - target)) < 1e-10


@pytest.mark.parametrize("zeros", [[0.5, -0.3j], [0.5, -0.3j, 0.2 + 0.4j]])
def test_pair_power_gram_mixed_exception_family(zeros):
    # {J^1/2, sqrt(N) 1_A1 J^1/2}: only the second member breaks at the arc
    # endpoints, so the quadrature must break at the union of the family's
    # exception angles.  theta maps A_1 onto one full turn and J = theta'/N, so
    # mu[0,0] = mu[1,1] = delta_k0 and mu[0,1] = mu[1,0] = delta_k0 / sqrt(N)
    bs = build_branches(make_blaschke(zeros))
    n = bs.branch_count
    arcs = arcs_basis(bs)
    pair = ModuleFamily(
        ("1", arcs.labels[0]), lambda z: np.stack([np.ones(z.shape), arcs.values(z)[0]]), arcs.exceptions
    )
    mu = pair_power_gram(bs, pair.times(outer_symbol(bs, CircleGrid(4096), 0.5).eval, "J^1/2"), 8)
    expected = np.zeros(mu.shape)
    expected[:, :, 16] = [[1.0, 1 / np.sqrt(n)], [1 / np.sqrt(n), 1.0]]
    assert np.max(np.abs(mu - expected)) < 1e-10


def test_orthonormality_defect_of_moments(mixed):
    b, bs = mixed
    assert orthonormality_defect(pair_power_gram(bs, canonical_basis(b), 8)) < 1e-12
    # {1, 1} is not orthonormal: mu[0, 1] at k = 0 is 1 where delta_01 = 0
    assert orthonormality_defect(pair_power_gram(bs, ones_basis(b), 8)) > 0.5
    mu = np.zeros((1, 1, 5), dtype=complex)
    mu[0, 0, 2] = 1.0
    assert orthonormality_defect(mu) == 0.0
    mu[0, 0, 3] = 0.25j
    assert orthonormality_defect(mu) == 0.25


SIX_ZEROS = [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j]


def _direct_moments(bs, families, window):
    """The moments of each family as the direct sum over pair_power_gram's nodes of
    w conj(f_i) f_j e^{ik theta}, every phase a separate np.exp, k = -2W..2W."""
    t, w = moment_nodes(bs, families[0].exceptions, window)
    theta = bs.theta(t)
    ks = np.arange(-2 * window, 2 * window + 1)
    sums = [np.zeros((f.size**2, ks.size), dtype=complex) for f in families]
    for start in range(0, t.size, 4096):
        blk = slice(start, start + 4096)
        phases = np.exp(1j * np.outer(theta[blk], ks))
        for f, acc in zip(families, sums):
            v = f.values(np.exp(1j * t[blk]))
            acc += (w[blk] * np.conj(v)[:, None, :] * v[None, :, :]).reshape(f.size**2, -1) @ phases
    return [acc.reshape(f.size, f.size, -1) for f, acc in zip(families, sums)]


@pytest.mark.parametrize("window", [8, 64, 128])
def test_pair_power_gram_matches_the_direct_sum(window):
    # the same nodes, but no doubled powers and no matrix product over pairs:
    # {1} and the canonical basis of six zeros (36 pair rows), and a 20-member
    # canonical basis, whose 400 pair rows take more than one PAIR_ROWS chunk
    six = build_branches(make_blaschke(SIX_ZEROS))
    twenty = make_blaschke(seeded_zeros(20, 0.5))
    assert 20 * 20 > PAIR_ROWS
    cases = [(six, [_ONE, canonical_basis(six.owner)]), (build_branches(twenty), [canonical_basis(twenty)])]
    for bs, families in cases:
        for family, direct in zip(families, _direct_moments(bs, families, window)):
            mu = pair_power_gram(bs, family, window)
            assert mu.shape == direct.shape
            assert np.max(np.abs(mu - direct)) < 1e-13


def test_truncated_builders_agree_with_the_moments(mixed):
    # each sampled builder's Gram on its certified interior columns against the
    # Toeplitz moments the verifier certifies from: S_i* S_j, C_b* C_b,
    # Gamma_b* Gamma_b and C_b* (pi(phi) C_b), the last sampled directly
    b, bs = mixed
    g, m, inner = CircleGrid(4096), 64, 32
    basis = canonical_basis(b)
    jh = _j_half(bs, g)
    phi = FourierSeries(np.array([0.3, -0.2j, 0.5, 0.1, 0.25 + 0.1j]))
    s = cuntz_family_matrices(bs, basis, m, g)
    cd = master_isometry_matrix_direct(bs, m, g)
    phi_cb = weighted_composition_matrix(bs, synthesize(phi, g.points) * jh.values(g.points)[0], m, g)
    cases = [(s[i], s[j], basis, i, j) for i in range(2) for j in range(2)]
    gam = gamma_b_matrix(bs, m, g)
    one_phi = ModuleFamily(("1", "phi"), lambda z: np.stack([np.ones(z.shape), synthesize(phi, z)]))
    cases += [
        (cd, cd, jh, 0, 0),
        (gam, gam, ModuleFamily(("1",), lambda z: np.ones((1,) + z.shape)), 0, 0),
        (cd, phi_cb, one_phi.times(outer_symbol(bs, g, 0.5).eval, "J^1/2"), 0, 1),
    ]
    for left, right, family, i, j in cases:
        mu = pair_power_gram(bs, family, m)
        target = TruncatedOperator(_power_gram(mu, i, j, m), (-m, m), (-m, m), "L2", np.zeros(2 * m + 1))
        gram = compose(adjoint(left), right)
        r, excluded = interior_residual(gram, target, inner, tail_sources=[left, right])
        assert r < 1e-10, (i, j, r)
        assert len(excluded) < 2 * inner + 1


# -- the isometry criterion -----------------------------------------------------------


def test_gamma_isometry_iff_b0_zero():
    g = CircleGrid(4096)
    # b(0) = 0: isometry
    bs0 = build_branches(make_blaschke([0, 0.5]))
    gam0 = gamma_b_matrix(bs0, 64, g)
    r, _ = interior_residual(compose(adjoint(gam0), gam0), identity_operator(64), 32, tail_sources=[gam0])
    assert r < 1e-8
    # b(0) = 0.5: Gram deviation equals |b(0)| on the certified block
    bs1 = build_branches(make_blaschke([0.5]))
    gam1 = gamma_b_matrix(bs1, 64, g)
    dev, _ = interior_residual(compose(adjoint(gam1), gam1), identity_operator(64), 32, tail_sources=[gam1])
    assert abs(dev - 0.5) < 1e-8


# -- the norm formula ------------------------------------------------------------------


def test_norm_formula_for_half(half):
    # || pi(J^{-1/2}) C_b || -> sqrt(sup L(J0^{-1})) = sqrt(3)
    _, bs = half
    g = CircleGrid(4096)
    norms = []
    for m in (32, 64, 128):
        sym = fourier_coeffs(outer_symbol(bs, g, -0.5).boundary, m)
        t = compose(mult_operator(sym, m), master_isometry_matrix(bs, m, g))
        norms.append(operator_norm(t))
    assert norms[0] <= norms[1] + 1e-12
    assert norms[1] <= norms[2] + 1e-12
    assert abs(norms[-1] - np.sqrt(3)) / np.sqrt(3) < 0.05

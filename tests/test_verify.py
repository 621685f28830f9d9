from dataclasses import replace

import numpy as np
import pytest

from blaschkeops import build_branches, evaluate, j0, make_blaschke
from blaschkeops.circlefun import CircleGrid, exponential
from blaschkeops.config import RunConfig
from blaschkeops.errors import MATH_ERRORS, GramCheckError
from blaschkeops.model_space import (
    canonical_basis,
    induced_module_basis,
    linking_reconstruction_deviation,
    linking_unitary,
)
from blaschkeops.operators import (
    adjoint,
    compose,
    cuntz_family_matrices,
    gamma_b_matrix,
    identity_operator,
    interior_residual,
    master_isometry_matrix,
    master_isometry_matrix_direct,
    mult_operator,
    operator_norm,
    restrict_to_h2,
    toeplitz_operator,
    weighted_composition_matrix,
)
from blaschkeops.transfer import (
    ModuleFamily,
    arc_of,
    arcs_basis,
    expansion_blocks,
    grid_fibre,
    midstep_fibre,
    module_gram_deviation,
    nudged_fibre,
    outer_symbol,
)
from blaschkeops.verify import (
    NORM_WINDOWS,
    RELATIONS,
    _completeness_defect,
    _Context,
    _rel_arcs_onb,
    _rel_linking_unitary,
    _rel_module_onb,
    _shift_columns,
    convergence_csv,
    convergence_study,
    reports_to_json,
    verify_all,
    verify_relation,
    verify_solution1,
)

from conftest import B1_ON_THE_GRID, ones_basis, seeded_zeros
from oracles import expansion_sum, fibre_means

FAST = RunConfig(grid_size=2048, mode_window=32)
MID = RunConfig(grid_size=4096, mode_window=64)


def test_family_evaluations_do_not_grow_with_the_degree(monkeypatch):
    # each family is evaluated once per point set: the module basis takes one
    # J^{-1/2} evaluation, not one per element, and the canonical values take
    # N - 1 Moebius factors per evaluation, not N(N - 1)/2.  So one verify_all
    # makes as many OuterFunction.eval calls, and as many model-space
    # moebius_factor calls per factor, on three zeros as on six
    import blaschkeops.model_space as model_space
    from blaschkeops.circlefun import OuterFunction

    calls = {"eval": 0, "moebius": 0}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    monkeypatch.setattr(OuterFunction, "eval", counted("eval", OuterFunction.eval))
    monkeypatch.setattr(model_space, "moebius_factor", counted("moebius", model_space.moebius_factor))
    seen = []
    for zeros in ([0.5, -0.3j, 0.2 + 0.4j], [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j]):
        calls.update(eval=0, moebius=0)
        verify_all(make_blaschke(zeros), RunConfig(grid_size=1024, mode_window=16))
        seen.append((calls["eval"], calls["moebius"] / (len(zeros) - 1)))
    assert seen[0] == seen[1], seen


@pytest.mark.parametrize("zeros", [[0.999], [0.99, 0.99j, -0.99, 0.5]], ids=["0.999", "four near the circle"])
@pytest.mark.parametrize("relation", ["module_onb", "linking_unitary", "solution1_equivalence", "cuntz_completeness"])
def test_near_circle_module_relations_pass_at_the_defaults(zeros, relation):
    # the module basis v_i J^{-1/2} is orthonormal only if J^{-1/2} is exact on the fibre
    rep = verify_relation(make_blaschke(zeros), relation, RunConfig())
    assert rep.passed, (relation, rep.residual, rep.params.get("error"))


def test_all_relations_present_and_ordered():
    reports = verify_all(make_blaschke([0, 0]), FAST)
    assert [r.relation for r in reports] == list(RELATIONS)


def test_squaring_passes_everything_tightly():
    # and z^9: b(1) = 1, so grid node 0's raw fibre is the arc endpoints, where the arcs Gram read 1.0
    # and linking_unitary raised GramCheckError; both sample L on nudged_fibre, which moves that node
    for zeros in ([0, 0], [0] * 9):
        for r in verify_all(make_blaschke(zeros), FAST):
            assert r.passed, (len(zeros), r.relation, r.params.get("error"))
            assert r.residual < 1e-10, (len(zeros), r.relation, r.residual)


def test_half_passes_and_reports_non_isometry():
    reports = verify_all(make_blaschke([0.5]), MID)
    by_name = {r.relation: r for r in reports}
    assert all(r.passed for r in reports), [(r.relation, r.residual) for r in reports if not r.passed]
    iso = by_name["isometry_criterion"]
    assert not iso.params["is_isometry"]
    assert iso.params["gram_deviation"] == pytest.approx(0.5, abs=1e-12)
    assert iso.params["b0"] == pytest.approx([0.5, 0.0])


def test_zero_at_origin_makes_gamma_isometric():
    rep = verify_relation(make_blaschke([0, 0.5]), "isometry_criterion", MID)
    assert rep.passed
    assert rep.params["is_isometry"]
    assert rep.params["gram_deviation"] < 1e-8


@pytest.mark.parametrize("zero", [0.8, 0.9])
@pytest.mark.parametrize(
    "relation", ["cuntz_orthogonality", "implements_transfer", "isometry_criterion", "cuntz_completeness"]
)
def test_moment_relations_certify_every_column_near_the_circle(zero, relation):
    # at the defaults every truncated column here has a tail over eps_tail
    rep = verify_relation(make_blaschke([zero]), relation, RunConfig())
    assert rep.passed
    assert rep.residual < 1e-12
    assert rep.params["excluded_columns"] == []


def test_implements_transfer_on_a_grid_short_of_twice_the_window():
    # L phi's coefficients on grid 256 reach lag 127, short of 2 * 100; the lags
    # |n - m| <= 127 are compared and named
    rep = verify_relation(make_blaschke([0.5]), "implements_transfer", RunConfig(grid_size=256, mode_window=100))
    assert rep.passed
    assert rep.params["max_lag"] == 127


def test_h2_reduction_refuses_a_vacuous_pass():
    # every interior column of C_b on {0.8} is excluded at the defaults
    with pytest.raises(ValueError, match="no certified column remains"):
        verify_relation(make_blaschke([0.8]), "h2_reduction", RunConfig())


@pytest.mark.parametrize("size", [2, 100])
def test_config_grid_rule_is_the_circle_grid_rule(size):
    with pytest.raises(ValueError, match="power of two >= 4"):
        RunConfig(grid_size=size)


@pytest.mark.parametrize(
    "field, value",
    [
        ("mode_window", 0),
        ("mode_window", -3),
        ("tol_operator", float("nan")),
        ("tol_operator", 0.0),
        ("tol_operator", float("inf")),
        ("tol_function", -1e-8),
        ("eps_tail", float("nan")),
        ("eps_tail", -1e-10),
        ("eps_tail", 0.0),
    ],
)
def test_config_rejects_values_it_cannot_use(field, value):
    with pytest.raises(ValueError, match=field):
        RunConfig(**{field: value})


def test_config_allows_infinite_eps_tail():
    # convergence_study turns column exclusion off this way
    assert RunConfig(eps_tail=float("inf")).eps_tail == float("inf")


@pytest.mark.parametrize("space", ["L2", "H2"])
def test_covariance_tails_match_direct_sampling_of_the_shifted_columns(mixed, space):
    # S_i's tails at n + 1 exclude the same columns as a direct sampling of
    # v_i b^{n+1}, below the top column, which has no successor and is excluded
    b, bs = mixed
    cfg = RunConfig()
    g = CircleGrid(cfg.grid_size)
    m = cfg.mode_window
    basis = canonical_basis(b)
    s = cuntz_family_matrices(bs, basis, m, g)
    bvals = evaluate(b, g.points)
    h2 = restrict_to_h2 if space == "H2" else (lambda op: op)
    for v, si in zip(basis.values(g.points), s):
        direct = h2(weighted_composition_matrix(bs, v * bvals, m, g))
        source = _shift_columns(h2(si))
        got = set(source.col_mode_array[source.column_tail > cfg.eps_tail].tolist())
        want = set(direct.col_mode_array[direct.column_tail > cfg.eps_tail].tolist())
        assert m in got
        assert 0 < len(want - {m}) < len(source.col_mode_array) - 1  # some excluded, some not
        assert got - {m} == want - {m}
        assert np.array_equal(source.matrix[:, :-1], h2(si).matrix[:, 1:])
        assert not source.matrix[:, -1].any()


@pytest.mark.parametrize("space", ["L2", "H2"])
def test_shifted_columns_are_the_dense_product_by_the_shift(mixed, space):
    # S_i pi(e_1), or R_i T(e_1) on H2, formed as a dense product is the reference
    b, bs = mixed
    cfg = RunConfig()
    m = cfg.mode_window
    for si in cuntz_family_matrices(bs, canonical_basis(b), m, CircleGrid(cfg.grid_size)):
        if space == "H2":
            op, shift = restrict_to_h2(si), toeplitz_operator(exponential(1, m), m)
        else:
            op, shift = si, mult_operator(exponential(1, m), m)
        got, want = _shift_columns(op), compose(op, shift)
        assert np.array_equal(got.matrix, want.matrix)
        assert (got.row_modes, got.col_modes, got.space) == (want.row_modes, want.col_modes, want.space)
        assert np.array_equal(got.column_tail, np.append(op.column_tail[1:], np.inf))


def test_cuntz_matrix_relations_on_a_grid_of_128():
    # validate_basis checks the modes 0..63 that 128 nodes hold, not 0..64
    reports = verify_all(make_blaschke([0, 0]), RunConfig(grid_size=128, mode_window=40))
    by_name = {r.relation: r for r in reports}
    for relation in ("cuntz_completeness", "covariance_L2", "covariance_H2"):
        assert by_name[relation].passed, by_name[relation].params


def test_verify_all_builds_one_power_table_per_family(mixed, monkeypatch):
    # the weighted column builds are S_1, S_2 and the direct C_b; implements_transfer
    # reads moments, not pi(phi) C_b.  The S_i share one b^n table, on the columns
    # the covariance checks read, and the direct C_b has its own, on the interior
    from blaschkeops import operators

    tables = []
    original = operators._mirrored_columns

    def recorded(rows, grid, window, weight):
        if weight is not None:
            tables.append(rows)
        return original(rows, grid, window, weight)

    monkeypatch.setattr(operators, "_mirrored_columns", recorded)
    cfg = RunConfig(grid_size=4096, mode_window=64)
    verify_all(mixed[0], cfg)
    assert len(tables) == 3
    family, direct = tables[:2], tables[2]
    assert family[0] is family[1] and direct is not family[0]
    assert family[0].shape == (cfg.interior + 2, cfg.grid_size)
    assert direct.shape == (cfg.interior + 1, cfg.grid_size)


@pytest.mark.parametrize("window", [1, 2, 3])
@pytest.mark.parametrize("zeros", [[0, 0], [0.5, -0.3j]], ids=["z2", "two-mixed"])
def test_narrowed_builders_leave_every_report_as_the_full_builds_give_it(zeros, window, monkeypatch):
    # the S_i are built on min(window, interior + 1) columns, never past the row
    # window, so the shifted top column stays "no successor, tail inf"; the direct
    # C_b on the interior.  Every report is the one that S_i and the direct C_b
    # built on all 2 window + 1 columns give
    from blaschkeops import verify

    cfg = RunConfig(grid_size=256, mode_window=window)
    cuntz, direct = verify.cuntz_family_matrices, verify.master_isometry_matrix_direct
    asked = {"cuntz": [], "direct": []}

    def recorded(name, build, full):
        def call(*args):
            asked[name].append(args[-1])
            return build(*(args[:-1] if full else args))

        return call

    payloads = []
    for full in (False, True):
        monkeypatch.setattr(verify, "cuntz_family_matrices", recorded("cuntz", cuntz, full))
        monkeypatch.setattr(verify, "master_isometry_matrix_direct", recorded("direct", direct, full))
        payloads.append(reports_to_json(verify_all(make_blaschke(zeros), cfg)))
    assert payloads[0] == payloads[1]
    # per run: one family build, and the direct C_b in master_isometry and h2_reduction
    assert asked["cuntz"] == [min(window, cfg.interior + 1)] * 2
    assert asked["direct"] == [cfg.interior] * 4


def test_verify_all_operator_norm_call_count(mixed, monkeypatch):
    # the three norms norm_formula reports; master_isometry_matrix is a plain
    # product, so no SVD for a tail bound that nothing reads
    from blaschkeops import operators, verify

    calls = []
    original = operators.operator_norm

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(operators, "operator_norm", counted)
    monkeypatch.setattr(verify, "operator_norm", counted)
    verify_all(mixed[0], RunConfig(grid_size=4096, mode_window=64))
    assert len(calls) == len(NORM_WINDOWS) == 3


def test_report_invariants():
    reports = verify_all(make_blaschke([0.5]), FAST)
    for r in reports:
        if np.isfinite(r.residual):
            assert r.residual >= 0
            assert r.passed == (r.residual < r.tolerance)


def test_failure_counting_with_absurd_tolerance():
    cfg = RunConfig(grid_size=2048, mode_window=32, tol_operator=1e-30, tol_function=1e-30)
    reports = verify_all(make_blaschke([0, 0]), cfg)
    failures = [r for r in reports if not r.passed]
    assert failures  # a verifier that cannot fail certifies nothing
    for r in failures:
        assert r.residual >= r.tolerance


def test_determinism_byte_identical():
    cfg = RunConfig(grid_size=2048, mode_window=32, seed=123)
    a = reports_to_json(verify_all(make_blaschke([0.3, -0.2j]), cfg))
    b = reports_to_json(verify_all(make_blaschke([0.3, -0.2j]), cfg))
    assert a == b


def test_verify_all_collects_math_errors_and_propagates_bugs(monkeypatch):
    from blaschkeops import verify

    def math_error(ctx):
        raise ValueError("no certified column remains")

    def bug(ctx):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(verify._RELATION_FUNCS, "module_onb", math_error)
    reports = verify_all(make_blaschke([0, 0]), FAST)
    rep = reports[RELATIONS.index("module_onb")]
    assert not rep.passed
    assert rep.params["error"] == "ValueError: no certified column remains"

    monkeypatch.setitem(verify._RELATION_FUNCS, "cuntz_orthogonality", bug)
    with pytest.raises(TypeError):
        verify_all(make_blaschke([0, 0]), FAST)


def test_unknown_relation_rejected():
    with pytest.raises(ValueError):
        verify_relation(make_blaschke([0.5]), "nonsense", FAST)


# -- solution-1 certification ---------------------------------------------------


def test_solution1_arcs_family():
    bs = build_branches(make_blaschke([0.5, -0.3j]))
    rep = verify_solution1(bs, arcs_basis(bs), FAST)
    assert rep.passed, rep.params
    assert rep.params["family_is_onb"]


def test_solution1_canonical_family():
    b = make_blaschke([0.5, -0.3j])
    bs = build_branches(b)
    grid = CircleGrid(FAST.grid_size)
    rep = verify_solution1(bs, induced_module_basis(bs, canonical_basis(b), grid), FAST)
    assert rep.passed, rep.params


@pytest.mark.parametrize(
    "control, delta",
    [("one member dropped", 0.0), ("non-unitary mix", 0.0), ("moved zero", 1e-6), ("moved zero", 0.0)],
)
def test_solution1_completeness_negative_controls(control, delta):
    # families that are not module bases of b = {0.5, -0.3i}: the canonical module
    # basis with a member dropped or mixed by [[1, 0], [0.5, 1]], and the basis of
    # {0.5 + delta, -0.3i} against b's branch system, which is b's own at delta = 0
    b = make_blaschke([0.5, -0.3j])
    bs, config = build_branches(b), RunConfig()
    grid = CircleGrid(config.grid_size)
    mod = induced_module_basis(bs, canonical_basis(make_blaschke([0.5 + delta, -0.3j])), grid)
    mix = np.array([[1.0, 0.0], [0.5, 1.0]])
    family = {
        "one member dropped": ModuleFamily(mod.labels[1:], lambda z: mod.values(z)[1:]),
        "non-unitary mix": ModuleFamily(mod.labels, lambda z: np.tensordot(mix, mod.values(z), 1)),
        "moved zero": mod,
    }[control]
    rep = verify_solution1(bs, family, config)
    if delta == 0.0 and control == "moved zero":
        assert rep.passed, rep.params
    else:
        assert rep.params["completeness_residual"] >= config.tol_operator, rep.params
        assert not rep.passed


def test_completeness_defect_bounds_the_mode_expansions():
    # an independent route to sum_i S_i S_i* e_k, |k| <= 16: the coefficients as
    # branch means (fibre_means), put back together by expansion_sum, with no kernel.
    # |e_k| = 1, so the defect bounds each error against e_k at the kernel's points,
    # node j's on row j mod N of its midstep fibre column, where the point mass sits,
    # up to the rounding of the reference's own sums.  Their images lie half a step off
    # the image grid, so no module Gram sample makes the two routes agree by algebra
    b = make_blaschke([0.5, -0.3j, 0.2 + 0.4j])
    bs, grid = build_branches(b), CircleGrid(RunConfig().grid_size)
    mod = induced_module_basis(bs, canonical_basis(b), grid)
    (fib, _), cols = midstep_fibre(bs, grid, ()), np.arange(grid.size)
    z = fib[cols % bs.branch_count, cols]
    a_z = mod.values(z) * outer_symbol(bs, grid, 0.5).eval(z)
    w_fib = np.conj(mod.values(fib)) * outer_symbol(bs, grid, -0.5).eval(fib)
    worst = max(
        float(np.max(np.abs(expansion_sum(a_z, fibre_means(w_fib, fib**k)) - z**k))) for k in range(-16, 17)
    )
    defect = _completeness_defect(bs, mod, grid)
    assert 0.0 < worst <= defect + 4 * np.finfo(float).eps
    assert defect < 1e-12


#: the zoo of scripts/run_verify.py, the products whose b(1) is a grid node, and 16 seeded zeros
ARCS_PRODUCTS = {
    "z^2": [0, 0],
    "z^3": [0, 0, 0],
    "single 0.5": [0.5],
    "zero at origin": [0, 0.5],
    "two mixed": [0.5, -0.3j],
    "three mixed": [0.5, -0.3j, 0.2 + 0.4j],
    "z^9": B1_ON_THE_GRID[0],
    "z^12": B1_ON_THE_GRID[1],
    "real cubic": B1_ON_THE_GRID[2],
    "16 zeros": seeded_zeros(16, 0.6),
}


@pytest.mark.parametrize("zeros", ARCS_PRODUCTS.values(), ids=ARCS_PRODUCTS.keys())
def test_arcs_closed_forms_match_the_generic_route(zeros):
    # arcs_onb counts the fibre points per arc, and linking_unitary reads conj(A) sqrt(N) / N off the arc
    # labels; the generic route evaluates the arcs E on the same nudged_fibre: the module Gram of E, and
    # the branch average of conj(A_i) E_j
    ctx = _Context(make_blaschke(zeros), RunConfig())
    bs, grid, mod, arcs = ctx.bs, ctx.grid, ctx.module_basis, arcs_basis(ctx.bs)
    eps = np.finfo(float).eps
    assert abs(_rel_arcs_onb(ctx)[0] - module_gram_deviation(bs, arcs, grid)) <= 4 * eps
    fib, _ = nudged_fibre(bs, grid, arcs.exceptions)
    e_fib, conj_a = arcs.values(fib), np.conj(mod.values(fib))
    generic = np.stack([np.stack(fibre_means(conj_a, e_j), axis=0) for e_j in e_fib], axis=1)
    assert np.max(np.abs(linking_unitary(bs, mod, grid) - generic)) <= 4 * eps


@pytest.mark.parametrize("zeros, node", [(B1_ON_THE_GRID[0], 0), (B1_ON_THE_GRID[2], 2048)], ids=["z^9", "real cubic"])
def test_arcs_closed_forms_fail_on_the_raw_grid_fibre(monkeypatch, zeros, node):
    # the negative control: b(1) is grid node `node`, whose raw fibre is the arc endpoints, and there a
    # branch row leaves its arc.  With nudged_fibre replaced by the raw fibre the arcs count reads 1.0,
    # as the generic module Gram of the arcs does, and the linking matrix's arc-label check raises
    from blaschkeops import model_space, transfer, verify

    for module in (transfer, model_space, verify):
        monkeypatch.setattr(module, "nudged_fibre", lambda bs, grid, exceptions: (grid_fibre(bs, grid), []))
    ctx = _Context(make_blaschke(zeros), RunConfig())
    bs, grid = ctx.bs, ctx.grid
    off = np.any(arc_of(bs, grid_fibre(bs, grid)) != np.arange(bs.branch_count)[:, None], axis=0)
    assert np.nonzero(off)[0].tolist() == [node]
    assert _rel_arcs_onb(ctx)[0] == 1.0
    assert abs(module_gram_deviation(bs, arcs_basis(bs), grid) - 1.0) <= 4 * np.finfo(float).eps
    with pytest.raises(GramCheckError, match="leave their arcs"):
        linking_unitary(bs, ctx.module_basis, grid)


def test_arcs_checks_hold_no_arcs_values():
    import tracemalloc

    # at 16 zeros on grid 4096 one (n, N, K) complex array is 16 MiB.  linking_unitary holds u, its
    # pointwise Gram and that Gram's deviation temporaries, under four such arrays, and no arcs values;
    # arcs_onb reads only the arc labels of the grid fibre.  module_onb runs first, as in verify_all, so
    # the grid fibre and the module Gram are memoised outside the measurement, and no arcs Gram exists
    mib = 1 << 20
    ctx = _Context(make_blaschke(seeded_zeros(16, 0.6)), RunConfig())
    _rel_module_onb(ctx)
    for rel, bound in ((_rel_linking_unitary, 64 * mib), (_rel_arcs_onb, 4 * mib)):
        tracemalloc.start()
        try:
            rel(ctx)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (rel.__name__, peak / mib)


def _kernel_checks(b, grid):
    """The two checks that read transfer.expansion_blocks, on the module basis of b (linked to the arcs)."""
    bs = build_branches(b)
    mod = induced_module_basis(bs, canonical_basis(b), grid)
    return _completeness_defect(bs, mod, grid), linking_reconstruction_deviation(bs, mod, grid)


@pytest.mark.parametrize("points", [100, 4095])
def test_completeness_defect_is_one_sup_over_point_blocks(monkeypatch, points):
    from blaschkeops import transfer

    # blocks of 100 points (the last of 96), or of 4095 and then 1, give the sup over the whole
    # grid, for the completeness defect and for the linking reconstruction; each kernel entry
    # sums the same n = 3 terms, so they agree to the rounding of one such sum
    b = make_blaschke([0.5, -0.3j, 0.2 + 0.4j])
    grid = CircleGrid(RunConfig().grid_size)
    whole, whole_linking = _kernel_checks(b, grid)
    monkeypatch.setattr(transfer, "EXPANSION_BLOCK", 9 * points)  # n N values per point
    blocked, blocked_linking = _kernel_checks(b, grid)
    assert abs(blocked - whole) <= 3 * np.finfo(float).eps
    assert abs(blocked_linking - whole_linking) <= 4 * np.finfo(float).eps


def test_kernel_checks_allocate_no_whole_fibre_array(monkeypatch):
    import tracemalloc

    from blaschkeops import transfer

    # in blocks of 100 points neither kernel check holds a family's values on the whole fibre:
    # for 16 zeros on grid 4096 one such (n, N, K) array is 16 MiB and a block's share 400 KiB.
    # The checks solve no fibre of their own: the midstep fibre they read is solved once per
    # branch system, here inside the measurement, and that solve sets the peak, near 10 MB
    b, grid = make_blaschke(seeded_zeros(16, 0.6)), CircleGrid(4096)
    monkeypatch.setattr(transfer, "EXPANSION_BLOCK", 16 * 16 * 100)
    _kernel_checks(b, grid)  # numpy's own first-use allocations stay out of the measurement
    tracemalloc.start()
    try:
        _kernel_checks(b, grid)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 16 * grid.size * np.dtype(complex).itemsize


def _b1_on_the_first_midstep(k):
    """{0, w}, |w| = 0.5, with b(1) = e^{i pi/k}: arg b(1) falls through 0 at arg w = pi."""
    lo, hi = np.pi / 2, np.pi
    for _ in range(60):
        mid = (lo + hi) / 2
        if np.angle(evaluate(make_blaschke([0, 0.5 * np.exp(1j * mid)]), 1.0)) > np.pi / k:
            lo = mid
        else:
            hi = mid
    return [0, 0.5 * np.exp(1j * lo)]


@pytest.mark.parametrize("case", ["three zeros", "squaring", "b(1) on a midstep"])
def test_verify_all_solves_each_fibre_once(monkeypatch, case):
    # a run solves two whole fibres, once each: theta_inv is asked for the N + 1 arc endpoints,
    # the N K points of grid_fibre, the N K of the midstep fibre the kernel checks read, N more
    # per midstep node the arcs nudge, and 2 N per grid node they nudge: nudged_fibre solves a
    # moved column again on each read, once for arcs_onb's arc count and once for the linking
    # matrix.  The arc endpoints all map to b(1): on {0, 0} that is grid node 0, which
    # nudged_fibre moves but no midstep node is near (16,391 points, 4 of them the moved column
    # twice); on the third product it is midstep node 0.  Only a nudged column differs from the
    # memoised fibre, and node j's kernel point is branch j mod N of its column, so each arc holds
    # K/N of them
    from blaschkeops.blaschke import BranchSystem

    config = RunConfig()
    n_grid = config.grid_size
    zeros, grid_moved, mid_moved = {
        "three zeros": ([0.5, -0.3j, 0.2 + 0.4j], [], []),
        "squaring": ([0, 0], [0], []),
        "b(1) on a midstep": (_b1_on_the_first_midstep(n_grid), [], [0]),
    }[case]
    b = make_blaschke(zeros)
    n = b.degree
    solve, points = BranchSystem.theta_inv, []

    def counted(self, s):
        points.append(np.size(s))
        return solve(self, s)

    monkeypatch.setattr(BranchSystem, "theta_inv", counted)
    verify_all(b, config)
    assert sum(points) == 2 * n * n_grid + n + 1 + n * len(mid_moved) + 2 * n * len(grid_moved)

    bs, grid = build_branches(b), CircleGrid(n_grid)
    arcs = arcs_basis(bs)
    assert nudged_fibre(bs, grid, arcs.exceptions)[1] == grid_moved
    fib, moved = midstep_fibre(bs, grid, arcs.exceptions)
    assert moved == mid_moved
    memo, _ = midstep_fibre(bs, grid, ())
    assert midstep_fibre(bs, grid, ())[0] is memo and not memo.flags.writeable
    assert np.nonzero(np.any(fib != memo, axis=0))[0].tolist() == mid_moved
    blocks = expansion_blocks(bs, grid, arcs.exceptions, arcs, arcs.conjugate())
    z = np.concatenate([fb[at] for at, fb, _ in blocks])
    per_arc = np.count_nonzero(arcs.values(z), axis=1)
    assert np.all(np.abs(per_arc - n_grid / n) <= 1), per_arc


def test_verify_all_shares_the_module_grams_with_the_same_results():
    # one verify_all shares its bases, module Grams and memos between the
    # relations, and every randomized check draws afresh from the seed: each
    # report, or error, is the one its relation gives alone on a fresh context
    b = make_blaschke([0.5, -0.3j, 0.2 + 0.4j])
    for config in (FAST, RunConfig()):
        reports = verify_all(b, config)
        assert [rep.relation for rep in reports] == list(RELATIONS)
        for rep in reports:
            try:
                alone = verify_relation(b, rep.relation, config)
            except MATH_ERRORS as exc:
                assert rep.params["error"] == f"{type(exc).__name__}: {exc}"
            else:
                assert rep.to_dict() == alone.to_dict(), rep.relation


def test_solution1_rejects_constant_family():
    # {1, 1} fails the Gram check; orthogonality and completeness fail with it,
    # while S_i* S_j = pi(<m_i, m_j>) still holds: that identity is the theorem
    b = make_blaschke([0.3, -0.2])
    bs = build_branches(b)
    rep = verify_solution1(bs, ones_basis(b), FAST)
    assert not rep.passed
    assert not rep.params["family_is_onb"]
    assert rep.params["gram_deviation"] > 0.5
    assert rep.params["orthogonality_residual"] > 0.5
    assert rep.params["completeness_residual"] > 0.5
    assert rep.params["consistency_residual"] < 1e-6


def test_solution1_accepts_symbol_twisted_basis():
    # twisting by the non-scalar unitary diag(e_1, e_0) in the module sense
    # sends {m_1, m_2} to {m_1 * b, m_2}, which must again solve the problem
    from blaschkeops import evaluate
    from blaschkeops.transfer import ModuleFamily

    b = make_blaschke([0.5, -0.3j])
    bs = build_branches(b)
    grid = CircleGrid(FAST.grid_size)
    mod = induced_module_basis(bs, canonical_basis(b), grid)

    def twisted(z):
        vals = mod.values(z)
        vals[0] *= evaluate(b, z)
        return vals

    fam = ModuleFamily(("m1*b", mod.labels[1]), twisted)
    rep = verify_solution1(bs, fam, FAST)
    assert rep.passed, rep.params
    assert rep.params["family_is_onb"]


def test_constant_family_failure_against_matrix_oracle():
    # direct matrix arithmetic: sum S_i S_i* = 2 C_b C_b* for the {1,1} family
    b = make_blaschke([0.3, -0.2])
    bs = build_branches(b)
    g = CircleGrid(2048)
    c = master_isometry_matrix(bs, 32, g)
    total = 2.0 * (c.matrix @ c.matrix.conj().T)
    deviation = np.abs(total - np.eye(65))
    assert deviation.max() > 0.5


# -- convergence ------------------------------------------------------------------


def test_convergence_master_isometry_monotone():
    rows = convergence_study(make_blaschke([0.5]), "master_isometry", (32, 64, 128), MID)
    residuals = [r for _, r in rows]
    assert residuals[-1] <= residuals[0] + 1e-12
    assert all(np.isfinite(residuals))


def test_convergence_squaring_flat_at_machine_eps():
    rows = convergence_study(make_blaschke([0, 0]), "cuntz_orthogonality", (16, 32, 64), FAST)
    assert all(r < 1e-12 for _, r in rows)


def test_convergence_rows_are_verify_relation_at_each_window():
    # each window is certified on its own RunConfig interior, as verify_relation
    # certifies it, with column exclusion off; on {0.5} master_isometry's
    # construction agreement at window 32 reads about 1.7e-6 on the half-window
    # interior (1.7e-10 on a quarter-window one)
    b = make_blaschke([0.5])
    rows = convergence_study(b, "master_isometry", (32, 64, 128), MID)
    assert [m for m, _ in rows] == [32, 64, 128]
    for m, residual in rows:
        rep = verify_relation(b, "master_isometry", replace(MID, mode_window=m, eps_tail=float("inf")))
        assert rep.params["interior"] == m // 2
        assert residual == rep.residual


def test_convergence_csv_format():
    rows = [(32, 1e-8), (64, 1e-10)]
    text = convergence_csv(rows)
    assert text.splitlines()[0] == "window,residual"
    assert "32" in text and "64" in text


def test_norm_formula_relation_reports_target():
    rep = verify_relation(make_blaschke([0.5]), "norm_formula", MID)
    assert rep.passed
    assert rep.params["target"] == pytest.approx(np.sqrt(3.0), rel=1e-6)
    norms = rep.params["norms"]
    assert norms == sorted(norms)


def test_norm_formula_norms_are_the_gamma_b_block_norms():
    # ||pi(J^{-1/2}) C_b|| is ||Gamma_b||: the norms are those of Gamma_b built
    # at each window, bit for bit, since its windows are central blocks of one
    # widest Gamma_b
    b = make_blaschke([0.5, -0.3j, 0.2 + 0.4j])
    grid = CircleGrid(4096)
    rep = verify_relation(b, "norm_formula", RunConfig(grid_size=4096, mode_window=64))
    want = [operator_norm(gamma_b_matrix(build_branches(b), m, grid)) for m in NORM_WINDOWS]
    assert rep.params["norms"] == want


@pytest.mark.parametrize(
    "zeros",
    [[0.5], [0.8], [0.5, -0.3j, 0.2 + 0.4j], [0.99, 0.99j, -0.99, 0.5], [0.5, 0.5, 0.5]],
    ids=["half", "0.8", "three-mixed", "near-circle-four", "triple-half"],
)
def test_norm_formula_target_is_the_poisson_kernel_sup(zeros):
    # the oracle is the grid-fibre route: sqrt(max L(1/j0)) over the preimages of the grid
    b = make_blaschke(zeros)
    rep = verify_relation(b, "norm_formula", MID)
    fib = grid_fibre(build_branches(b), CircleGrid(MID.grid_size))
    oracle = np.sqrt(np.max((1.0 / j0(b, np.angle(fib))).mean(axis=0)))
    assert abs(rep.params["target"] - oracle) <= 4e-15 * oracle


def test_norm_formula_near_the_circle_reads_gamma_b_not_the_multiplier_product():
    # the product pi(J^{-1/2}) pi(J^{1/2}) of truncated multipliers is not the
    # identity near the circle: its norms fell from 1.92 to 1.78, above the
    # target 1.698, and failed at 0.15
    rep = verify_relation(make_blaschke([0.99, 0.99j, -0.99, 0.5]), "norm_formula", MID)
    assert rep.passed and rep.residual < 0.01
    assert rep.params["norms"] == sorted(rep.params["norms"])
    assert rep.params["norms"][-1] <= rep.params["target"]


def test_norm_formula_fails_against_another_products_target(monkeypatch):
    # negative control: the target comes from b(0) alone, so a substituted b(0) judges one
    # product's norms against another's target.  {0.5}'s norms (about sqrt 3) miss {0.8}'s
    # target 3 by 42%, and {0.8}'s norms exceed sqrt 3, which no compression can
    from blaschkeops import verify

    monkeypatch.setattr(verify, "evaluate", lambda b, z: 0.8)
    rep = verify_relation(make_blaschke([0.5]), "norm_formula", MID)
    assert rep.params["target"] == pytest.approx(3.0) and rep.params["norms"][-1] < 1.74
    assert not rep.passed and rep.residual > 0.4
    monkeypatch.setattr(verify, "evaluate", lambda b, z: 0.5)
    with pytest.raises(ValueError, match="window-32 norm .* > target .* on grid 4096"):
        verify_relation(make_blaschke([0.8]), "norm_formula", MID)


@pytest.mark.parametrize(
    "zeros, grid",
    [([0.5, -0.3j], 512), (seeded_zeros(32, 0.5), 4096)],
    ids=["two-mixed-grid-512", "32-zeros-grid-4096"],
)
def test_norm_formula_refuses_a_norm_above_the_target(zeros, grid):
    # an aliased Gamma_b: its window-128 norm is 1.217 against 1.163 on grid 512 with
    # two zeros, and 1.0302 against 1 with 32; both passed under the 0.05 tolerance
    with pytest.raises(ValueError, match=f"window-128 norm .* > target .* on grid {grid}"):
        verify_relation(make_blaschke(zeros), "norm_formula", RunConfig(grid_size=grid, mode_window=64))


@pytest.mark.parametrize("window", [8, 100])
def test_norm_formula_names_the_grid_it_needs(window):
    # its fixed windows reach 128, so 257 modes: a grid of 256 is refused by
    # name whatever the configured window, not clipped to an aliased norm
    reports = verify_all(make_blaschke([0, 0]), RunConfig(grid_size=256, mode_window=window))
    rep = {r.relation: r for r in reports}["norm_formula"]
    assert not rep.passed
    assert rep.params["error"] == "ValueError: norm_formula needs grid >= 512, got 256"
    rep = verify_relation(make_blaschke([0, 0]), "norm_formula", RunConfig(grid_size=512, mode_window=8))
    assert rep.passed and rep.residual < 1e-12


# -- the non-uniqueness example from the master-isometry discussion ----------------


def test_inner_twist_of_master_isometry_for_squaring():
    # m = z: pi(m) C_b is again an isometry reduced by H2 implementing the
    # transfer operator (the composition endomorphism has many master isometries)
    b = make_blaschke([0, 0])
    bs = build_branches(b)
    g = CircleGrid(2048)
    m = 32
    c = master_isometry_matrix(bs, m, g)
    cd = master_isometry_matrix_direct(bs, m, g)
    v = compose(mult_operator(exponential(1, m), m), c)
    r, _ = interior_residual(compose(adjoint(v), v), identity_operator(m), 8, tail_sources=[cd])
    assert r < 1e-10
    # reduced by H2: analytic columns never leak to negative rows
    analytic = v.matrix[: m, m + 1 :]  # rows < 0, cols > 0
    good = cd.column_tail[m + 1 :] < 1e-10
    assert np.max(np.abs(analytic[:, good])) < 1e-10

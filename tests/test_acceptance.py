"""Acceptance gate: every criterion at its stated tolerance, one line per check.

Run standalone with `pytest tests/test_acceptance.py -v -s`.
"""

import json
import time

import numpy as np

from blaschkeops import build_branches, evaluate, j0, make_blaschke
from blaschkeops.circlefun import (
    BoundaryFunction,
    CircleGrid,
    FourierSeries,
    exponential,
    fourier_coeffs,
)
from blaschkeops.cli import main as cli_main
from blaschkeops.config import RunConfig
from blaschkeops.model_space import (
    canonical_basis,
    induced_module_basis,
    linking_unitary,
    pointwise_unitarity_deviation,
    rotate_basis,
)
from blaschkeops.operators import (
    TruncatedOperator,
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
    mult_operator,
    operator_norm,
    weighted_composition_matrix,
)
from blaschkeops.rochberg import decompose
from blaschkeops.transfer import (
    arcs_basis,
    from_series,
    grid_fibre,
    module_gram_deviation,
    outer_symbol,
    transfer_apply,
)
from blaschkeops.verify import reports_to_json, verify_all, verify_solution1

from conftest import ones_basis


def _line(num, name, ok, detail):
    print(f"ACCEPTANCE {num:2d} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} ({name}): {detail}"


def _seeded_zeros(rng, max_degree, max_radius):
    n = int(rng.integers(1, max_degree + 1))
    r = max_radius * np.sqrt(rng.uniform(size=n))
    phi = 2 * np.pi * rng.uniform(size=n)
    return r * np.exp(1j * phi)


def test_criterion_1_exact_model_case():
    t0 = time.time()
    b = make_blaschke([0, 0])
    bs = build_branches(b)
    grid = CircleGrid(512)
    s = cuntz_family_matrices(bs, canonical_basis(b), 32, grid)
    # 0/1 interleaving pattern
    pattern_dev = 0.0
    for i, si in enumerate(s):
        for n in range(-32, 33):
            col = si.matrix[:, n + 32]
            expect = np.zeros(65)
            if abs(2 * n + i) <= 32:
                expect[2 * n + i + 32] = 1.0
            pattern_dev = max(pattern_dev, float(np.max(np.abs(col - expect))))
    eye = identity_operator(32)
    worst = 0.0
    for i in range(2):
        for j in range(2):
            prod = compose(adjoint(s[i]), s[j])
            target = eye if i == j else TruncatedOperator(
                np.zeros((65, 65)), (-32, 32), (-32, 32), "L2", np.zeros(65)
            )
            r, _ = interior_residual(prod, target, 16, tail_sources=[s[i], s[j]])
            worst = max(worst, r)
    total = sum(compose(si, adjoint(si)).matrix for si in s)
    op = TruncatedOperator(total, (-32, 32), (-32, 32), "L2", np.zeros(65))
    r, _ = interior_residual(op, eye, 16, tail_sources=list(s))
    worst = max(worst, r)
    elapsed = time.time() - t0
    ok = pattern_dev < 1e-12 and worst < 1e-12 and elapsed < 1.0
    _line(1, "exact model case", ok,
          f"pattern={pattern_dev:.2e} cuntz={worst:.2e} time={elapsed:.2f}s")


def test_criterion_2_mean_of_boundary_symbol():
    rng = np.random.default_rng(2026)
    zeros = _seeded_zeros(rng, 4, 0.8)
    b = make_blaschke(zeros)
    grid = CircleGrid(4096)
    dev = abs(float(np.mean(j0(b, grid.angles))) - 1.0)
    _line(2, "mean of J0", dev < 1e-10, f"N={b.degree} |mean-1|={dev:.2e}")


def test_criterion_3_outer_function_oracle():
    b = make_blaschke([0.5])
    grid = CircleGrid(4096)
    o = outer_symbol(build_branches(b), grid, 1.0)
    target = 0.75 / (1.0 - 0.5 * grid.points) ** 2
    sup = float(np.max(np.abs(o.boundary.values - target)))
    at0 = abs(o.at_zero() - 0.75)
    ok = sup < 1e-8 and at0 < 1e-8
    _line(3, "outer-function oracle", ok, f"sup={sup:.2e} |J(0)-0.75|={at0:.2e}")


def _seeded_b3():
    rng = np.random.default_rng(314)
    return make_blaschke(_seeded_zeros(rng, 3, 0.6))


def test_criterion_4_master_isometry():
    b = _seeded_b3()
    bs = build_branches(b)
    grid = CircleGrid(8192)
    m, inner = 64, 32
    c = master_isometry_matrix(bs, m, grid)
    cd = master_isometry_matrix_direct(bs, m, grid)
    iso, _ = interior_residual(compose(adjoint(c), c), identity_operator(m), inner,
                               tail_sources=[cd])
    lower = block(cd, (-m, -1), (0, inner))
    upper = block(cd, (0, m), (-inner, -1))
    off = 0.0
    for blk in (lower, upper):
        cols = blk.col_mode_array
        vals = np.abs(blk.matrix).max(axis=0)
        vals[excluded_mask(cols, [cd], 1e-10)] = 0.0
        off = max(off, float(vals.max()))
    ok = iso < 1e-6 and off < 1e-6
    _line(4, "master isometry", ok, f"N={b.degree} |C*C-I|={iso:.2e} offdiag={off:.2e}")


def test_criterion_5_covariance():
    b = _seeded_b3()
    bs = build_branches(b)
    grid = CircleGrid(8192)
    m, inner = 64, 32
    s = cuntz_family_matrices(bs, canonical_basis(b), m, grid)
    pe1 = mult_operator(exponential(1, m), m)
    bvals = evaluate(b, grid.points)
    pb = mult_operator(fourier_coeffs(BoundaryFunction(grid, bvals), m), m)
    cov = 0.0
    for v, si in zip(canonical_basis(b).values(grid.points), s):
        shifted = weighted_composition_matrix(bs, v * bvals, m, grid)
        r, _ = interior_residual(compose(si, pe1), compose(pb, si), inner,
                                 tail_sources=[si, shifted])
        cov = max(cov, r)
    c = master_isometry_matrix(bs, m, grid)
    cd = master_isometry_matrix_direct(bs, m, grid)
    jh = outer_symbol(bs, grid, 0.5).boundary.values
    impl = 0.0
    for n in (0, 1, 2):
        phi = exponential(n, m)
        lhs = compose(adjoint(c), compose(mult_operator(phi, m), c))
        (lphi,) = transfer_apply(bs, from_series(phi), grid)
        rhs = mult_operator(fourier_coeffs(lphi, m), m)
        middle = weighted_composition_matrix(bs, grid.points ** float(n) * jh, m, grid)
        r, _ = interior_residual(lhs, rhs, inner, tail_sources=[cd, middle])
        impl = max(impl, r)
    ok = cov < 1e-6 and impl < 1e-6
    _line(5, "covariance", ok, f"N={b.degree} cuntz-cov={cov:.2e} implements-L={impl:.2e}")


def test_criterion_6_transfer_h2_invariance():
    b = _seeded_b3()
    bs = build_branches(b)
    grid = CircleGrid(8192)
    fib = grid_fibre(bs, grid)
    worst = 0.0
    for n in range(0, 33):
        vals = (fib**n).mean(axis=0)
        s = fourier_coeffs(BoundaryFunction(grid, vals), grid.size // 4)
        worst = max(worst, s.negative_energy())
    _line(6, "transfer H2-invariance", worst < 1e-8, f"max neg energy={worst:.2e}")


def test_criterion_7_isometry_criterion():
    grid = CircleGrid(8192)
    m, inner = 64, 32
    bs0 = build_branches(make_blaschke([0, 0.5]))
    g0 = gamma_b_matrix(bs0, m, grid)
    dev0, _ = interior_residual(compose(adjoint(g0), g0), identity_operator(m), inner,
                                tail_sources=[g0])
    bs1 = build_branches(make_blaschke([0.5]))
    g1 = gamma_b_matrix(bs1, m, grid)
    gram = compose(adjoint(g1), g1)
    entry = abs(gram.entry(0, 1))
    ok = dev0 < 1e-8 and abs(entry - 0.5) < 1e-8
    _line(7, "isometry criterion", ok, f"iso-dev={dev0:.2e} |(b,1)|={entry:.12f}")


def test_criterion_8_norm_formula():
    bs = build_branches(make_blaschke([0.5]))
    grid = CircleGrid(4096)
    norms = []
    for m in (32, 64, 128):
        sym = fourier_coeffs(outer_symbol(bs, grid, -0.5).boundary, m)
        t = compose(mult_operator(sym, m), master_isometry_matrix(bs, m, grid))
        norms.append(operator_norm(t))
    target = np.sqrt(3.0)
    rel = abs(norms[-1] - target) / target
    monotone = norms[0] <= norms[1] + 1e-12 and norms[1] <= norms[2] + 1e-12
    ok = rel < 0.05 and monotone
    _line(8, "norm formula", ok,
          f"norms={[round(x, 6) for x in norms]} target={target:.7f} rel={rel:.2e}")


def test_criterion_9_module_onbs():
    b = make_blaschke([0.5, -0.3j])
    bs = build_branches(b)
    grid = CircleGrid(4096)
    mod = induced_module_basis(bs, canonical_basis(b), grid)
    arcs = arcs_basis(bs)
    dev_canonical = module_gram_deviation(bs, mod, grid)
    dev_arcs = module_gram_deviation(bs, arcs, grid)
    u = linking_unitary(bs, mod, grid)
    dev_link = pointwise_unitarity_deviation(u)
    ok = dev_canonical < 1e-8 and dev_arcs < 1e-6 and dev_link < 1e-6
    _line(9, "module ONBs", ok,
          f"canonical={dev_canonical:.2e} arcs={dev_arcs:.2e} linking={dev_link:.2e}")


def test_criterion_10_rochberg_round_trip():
    rng = np.random.default_rng(777)
    zeros = _seeded_zeros(rng, 4, 0.7)
    b = make_blaschke(zeros)
    bs = build_branches(b)
    grid = CircleGrid(8192)
    coeffs = np.zeros(33, dtype=complex)
    coeffs[16:] = rng.standard_normal(17) + 1j * rng.standard_normal(17)
    f = FourierSeries(coeffs)
    dec = decompose(bs, canonical_basis(b), f, grid)
    neg = max(dec.membership)
    ok = dec.residual < 1e-8 and neg < 1e-8
    _line(10, "Rochberg round trip", ok,
          f"N={b.degree} residual={dec.residual:.2e} max neg energy={neg:.2e}")


def test_criterion_11_negative_controls(tmp_path):
    # non-unitary rotation rejected
    b = make_blaschke([0.3, -0.2])
    rejected = False
    try:
        rotate_basis(canonical_basis(b), np.array([[1.0, 0.0], [1.0, 1.0]]))
    except ValueError:
        rejected = True
    # the constant family fails completeness by more than 0.5
    bs = build_branches(b)
    rep = verify_solution1(bs, ones_basis(b),
                           RunConfig(grid_size=2048, mode_window=32))
    completeness = rep.params["completeness_residual"]
    # verify exit code equals the failure count
    product_file = tmp_path / "b.json"
    product_file.write_text(b.to_json())
    out = tmp_path / "reports.json"
    code = cli_main(["verify", str(product_file), "--grid", "512", "--modes", "16",
                     "--tol", "1e-30", "--out", str(out)])
    reports = json.loads(out.read_text())
    failures = sum(1 for r in reports if not r["pass"])
    ok = rejected and completeness > 0.5 and failures > 0 and code == min(failures, 250)
    _line(11, "negative controls", ok,
          f"rotation rejected={rejected} completeness={completeness:.3f} "
          f"failures={failures} exit={code}")


def test_criterion_12_determinism(tmp_path):
    cfg = RunConfig(grid_size=2048, mode_window=32, seed=99)
    b = make_blaschke([0.4, 0.1 - 0.3j])
    first = reports_to_json(verify_all(b, cfg))
    second = reports_to_json(verify_all(b, cfg))
    ok = first == second
    # and through the CLI, file to file
    product_file = tmp_path / "b.json"
    product_file.write_text(b.to_json())
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    cli_main(["verify", str(product_file), "--grid", "2048", "--modes", "32", "--seed", "99", "--out", str(o1)])
    cli_main(["verify", str(product_file), "--grid", "2048", "--modes", "32", "--seed", "99", "--out", str(o2)])
    ok = ok and o1.read_bytes() == o2.read_bytes()
    _line(12, "determinism", ok, f"library bytes equal and CLI bytes equal={ok}")

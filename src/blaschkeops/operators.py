"""Truncated matrices of the circle operators in the exponential basis.

Multiplication pi(phi) is Toeplitz; composition Gamma_b has column n equal to
the Fourier window of b^n; the master isometry C_b = pi(J^{1/2}) Gamma_b; the
Cuntz isometries S_i have columns v_i b^n; the transfer matrix has columns
L(e_n).  Gamma_b and the transfer matrix transform only their columns n >= 0:
on the circle b^{-n} = conj(b^n) and L(e_{-n}) = conj L(e_n), so column -n is
column n conjugated with its rows reversed.  The b^n table keeps its
reciprocal rows for the weighted columns (C_b sampled directly, S_i).  The
identities are exact only in the infinite limit, so each is certified on an
interior mode block, from column tails.  Sampled constructions (the column
builders, mult_operator, block) measure the discarded mass of each column;
derived ones (compose, adjoint) carry inf, "not certified", so a check names
the sampled operators it certifies from.  master_isometry_matrix, whose tails
the CLI publishes, bounds them itself.  The column builders share one kernel,
_columns_from_samples, which reads its sample table in row blocks of
COLUMN_BLOCK samples, each transformed into one reused buffer, and sums each
column's discarded mass in mode order, so the blocks give the bits of one
whole-table transform.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .blaschke import BranchSystem, evaluate, j0
from .circlefun import (
    CircleGrid,
    FourierSeries,
    complex_pairs,
    fourier_coeffs,
    integer_powers,
    nonnegative_powers,
)
from .model_space import ModelBasis, validate_basis
from .transfer import ModuleFamily, fibre_power_means, grid_fibre, outer_symbol

import json


@dataclass(frozen=True)
class TruncatedOperator:
    """Dense complex matrix indexed by Fourier modes, with accuracy certificates.

    `column_tail[j]` is the measured l2 mass of column j discarded by the row
    window for sampled constructions, and inf ("not certified") for derived
    operators.  `space` is "L2" (modes [-M, M]) or "H2" (modes [0, M]).
    """

    matrix: np.ndarray
    row_modes: tuple  # (lo, hi) inclusive
    col_modes: tuple
    space: str
    column_tail: np.ndarray

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        rows = self.row_modes[1] - self.row_modes[0] + 1
        cols = self.col_modes[1] - self.col_modes[0] + 1
        if m.shape != (rows, cols):
            raise ValueError(f"matrix shape {m.shape} does not match mode intervals")
        tails = np.asarray(self.column_tail, dtype=float)
        if tails.shape != (cols,):
            raise ValueError("one tail entry per column required")
        if np.any(tails < 0):
            raise ValueError("column tails must be nonnegative")
        if self.space not in ("L2", "H2"):
            raise ValueError("space must be L2 or H2")
        if self.space == "H2" and (self.row_modes[0] < 0 or self.col_modes[0] < 0):
            raise ValueError("H2 operators carry nonnegative modes only")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "column_tail", tails)

    @property
    def col_mode_array(self) -> np.ndarray:
        return np.arange(self.col_modes[0], self.col_modes[1] + 1)

    def submatrix(self, row_modes: tuple, col_modes: tuple) -> np.ndarray:
        """A view of the entries on the inclusive mode intervals, which must lie inside the operator's."""
        r0, c0 = self.row_modes[0], self.col_modes[0]
        return self.matrix[row_modes[0] - r0 : row_modes[1] - r0 + 1, col_modes[0] - c0 : col_modes[1] - c0 + 1]

    def entry(self, m: int, n: int) -> complex:
        return complex(self.matrix[m - self.row_modes[0], n - self.col_modes[0]])

    def to_json(self) -> str:
        return json.dumps(
            {
                "space": self.space,
                "row_modes": list(self.row_modes),
                "col_modes": list(self.col_modes),
                "data": complex_pairs(self.matrix),
                "column_tail": self.column_tail.tolist(),
            }
        )

    def to_csv(self, plane: str = "re") -> str:
        if plane not in ("re", "im"):
            raise ValueError("plane must be 're' or 'im'")
        part = self.matrix.real if plane == "re" else self.matrix.imag
        return "\n".join(",".join(map(repr, row)) for row in part.tolist()) + "\n"


def operator_from_json(text: str) -> TruncatedOperator:
    d = json.loads(text)
    rows = d["row_modes"][1] - d["row_modes"][0] + 1
    cols = d["col_modes"][1] - d["col_modes"][0] + 1
    data = np.array([complex(re, im) for re, im in d["data"]]).reshape(rows, cols)
    return TruncatedOperator(
        matrix=data,
        row_modes=tuple(d["row_modes"]),
        col_modes=tuple(d["col_modes"]),
        space=d["space"],
        column_tail=np.array(d["column_tail"], dtype=float),
    )


def identity_operator(window: int) -> TruncatedOperator:
    size = 2 * window + 1
    modes = (-window, window)
    return TruncatedOperator(np.eye(size, dtype=complex), modes, modes, "L2", np.zeros(size))


# -- constructions ------------------------------------------------------------


def mult_operator(phi: FourierSeries, window: int) -> TruncatedOperator:
    """Toeplitz matrix of multiplication by phi on modes [-window, window]."""
    p = phi.window
    if p > window:
        raise ValueError("symbol window exceeds the operator window")
    # entry (m, n) is c_{m - n}: row m of the reversed windows of the coefficients,
    # zero-padded to the differences -2*window..2*window
    padded = np.zeros(4 * window + 1, dtype=complex)
    padded[2 * window - p : 2 * window + p + 1] = phi.coeffs
    mat = np.lib.stride_tricks.sliding_window_view(padded, 2 * window + 1)[:, ::-1].copy()
    # per column: symbol mass pushed outside the row window.  In column n the
    # coefficient j lands on row j - p + n, so the first p - window - n leave
    # below -window and those from p + window - n + 1 on leave above window;
    # p <= window keeps that to k outermost coefficients on one side, k = 1..p,
    # in the p first and the p last columns
    tails = np.zeros(2 * window + 1)
    c2 = np.abs(phi.coeffs) ** 2
    for k in range(1, p + 1):
        tails[p - k] = np.add.reduce(c2[:k])
        tails[2 * window - p + k] = np.add.reduce(c2[-k:])
    np.sqrt(tails, out=tails)
    return TruncatedOperator(mat, (-window, window), (-window, window), "L2", tails)


def toeplitz_operator(phi: FourierSeries, window: int) -> TruncatedOperator:
    """Compression of mult_operator to the analytic modes [0, window]."""
    return restrict_to_h2(mult_operator(phi, window))


COLUMN_BLOCK = 1 << 16  # complex samples per transform block of _columns_from_samples (1 MiB)


def _columns_from_samples(
    rows: np.ndarray,
    grid: CircleGrid,
    window: int,
    col_modes: tuple,
    weight: np.ndarray | None = None,
) -> TruncatedOperator:
    """Operator whose column col_modes[0] + j is the Fourier window of weight * rows[j].

    `rows` is only read.  It is walked in blocks of max(1, COLUMN_BLOCK // K)
    rows, each transformed into one reused buffer: weighted rows are multiplied
    into it and transformed in place, unweighted ones transformed from `rows`
    straight into it.  Each block's 2*window+1 kept modes go to its columns and
    its discarded mass to its tails, so no scratch array outgrows a block.  The
    FFT acts row by row, so the blocks give the bits of one whole-table
    transform; each tail sums its row left to right (pairwise on a one-row
    table), as a column-major sum over the whole table does.
    """
    K = grid.size
    if 2 * window + 1 > K:
        raise ValueError("row window exceeds grid capacity")
    count = rows.shape[0]
    step = max(1, COLUMN_BLOCK // K)
    buf = np.empty((min(step, count), K), dtype=complex)
    # in FFT order the discarded modes are the one contiguous range window+1 .. K-window-1;
    # column-major, so np.sum adds each row of a block left to right, as over the whole table
    mass = np.empty((K - 2 * window - 1, buf.shape[0])).T
    mat = np.empty((2 * window + 1, count), dtype=complex)
    tails = np.empty(count)
    for lo in range(0, count, step):
        hi = min(lo + step, count)
        coef, sq = buf[: hi - lo], mass[: hi - lo]
        # scaled by 1/K inside the transform: exact for the power-of-two grid
        # sizes, so the same bits as dividing afterwards
        if weight is None:
            np.fft.fft(rows[lo:hi], axis=1, norm="forward", out=coef)
        else:
            np.multiply(weight[None, :], rows[lo:hi], out=coef)
            np.fft.fft(coef, axis=1, norm="forward", out=coef)
        mat[:window, lo:hi] = coef[:, K - window :].T
        mat[window:, lo:hi] = coef[:, : window + 1].T
        # measured mass of the discarded modes (no cancellation against the total)
        np.abs(coef[:, window + 1 : K - window], out=sq)
        np.square(sq, out=sq)
        if hi - lo > 1 or count == 1:
            np.sum(sq, axis=1, out=tails[lo:hi])
        else:  # np.sum goes pairwise on one row: right for a one-row table only
            tails[lo] = np.cumsum(sq[0])[-1]
    np.sqrt(tails, out=tails)
    return TruncatedOperator(mat, (-window, window), col_modes, "L2", tails)


def _mirrored_columns(rows: np.ndarray, grid: CircleGrid, window: int) -> TruncatedOperator:
    """Column n >= 0 is the window of rows[n]; column -n, of conj(rows[n]), is A[k, -n] = conj A[-k, n], same tail."""
    half = _columns_from_samples(rows, grid, window, (0, window))
    mat = np.empty((2 * window + 1, 2 * window + 1), dtype=complex)
    mat[:, window:] = half.matrix
    np.conjugate(half.matrix[::-1, :0:-1], out=mat[:, :window])
    tails = np.concatenate((half.column_tail[:0:-1], half.column_tail))
    return TruncatedOperator(mat, (-window, window), (-window, window), "L2", tails)


def _power_samples(bs: BranchSystem, grid: CircleGrid, window: int) -> np.ndarray:
    """b^n on the grid for n = -window..window, shape (2*window+1, K), read-only.

    One memoised table per grid is grown to the widest window asked for: a
    narrower table is dropped and the wider one built in its place.  A
    narrower window gets a view of the central rows.
    """
    key = ("powers", grid.size)
    table = bs._grid_cache.get(key)
    if table is not None and table.shape[0] < 2 * window + 1:
        table = None  # drop both references to the narrower table before building
        del bs._grid_cache[key]
    table = bs.memo(key, lambda: integer_powers(evaluate(bs.owner, grid.points), window))
    mid = table.shape[0] // 2
    return table[mid - window : mid + window + 1]


def weighted_composition_matrix(
    bs: BranchSystem, weight: np.ndarray, window: int, grid: CircleGrid
) -> TruncatedOperator:
    """Direct sampling of pi(w) Gamma_b: column n is the Fourier window of w * b^n.

    The recorded tails are measured discarded mass, which makes these the sharp
    certificates for identities involving products with Gamma_b.
    """
    w = np.asarray(weight, dtype=complex)
    if w.shape != (grid.size,):
        raise ValueError("weight must be sampled on the grid")
    return _columns_from_samples(_power_samples(bs, grid, window), grid, window, (-window, window), w)


def gamma_b_matrix(bs: BranchSystem, window: int, grid: CircleGrid) -> TruncatedOperator:
    """Composition operator: column n is the Fourier window of b^n = conj(b^{-n}) on the circle.

    Transforms the table's rows n >= 0 only (its reciprocal rows are weighted_composition_matrix's).
    Memoised per (grid, window), matrix and tails read-only: one transform per window for every caller.
    """
    def build():
        return _mirrored_columns(_power_samples(bs, grid, window)[window:], grid, window)

    return bs.memo(("gamma", grid.size, window), build)


def master_isometry_matrix(bs: BranchSystem, window: int, grid: CircleGrid) -> TruncatedOperator:
    """C_b = pi(J^{1/2}) Gamma_b as a product of truncated matrices, with the
    composition bound ||pi|| tail_Gamma[n] + sum_k tail_pi[k] |Gamma[k, n]| as tails."""
    j_half = fourier_coeffs(outer_symbol(bs, grid, 0.5).boundary, window)
    pj = mult_operator(j_half, window)
    gam = gamma_b_matrix(bs, window, grid)
    tails = operator_norm(pj) * gam.column_tail + pj.column_tail @ np.abs(gam.matrix)
    return TruncatedOperator(pj.matrix @ gam.matrix, pj.row_modes, gam.col_modes, "L2", tails)


def master_isometry_matrix_direct(bs: BranchSystem, window: int, grid: CircleGrid) -> TruncatedOperator:
    """C_b with column n sampled directly as J^{1/2} b^n (cross-check construction).

    Memoised per (grid, window), matrix and tails read-only, as gamma_b_matrix.
    """
    def build():
        return weighted_composition_matrix(bs, outer_symbol(bs, grid, 0.5).boundary.values, window, grid)

    return bs.memo(("c_direct", grid.size, window), build)


def cuntz_family_matrices(
    bs: BranchSystem, basis: ModelBasis, window: int, grid: CircleGrid
) -> list[TruncatedOperator]:
    """The Cuntz isometries S_i of a model-space basis, sampled column by column: S_i e_n = v_i b^n.

    On interior blocks they agree with the module construction
    pi(v_i J^{-1/2}) C_b, which
    tests/test_operators.py::test_cuntz_cross_construction_agreement builds.
    The basis is validated first (Gram, H2 membership, orthogonality to b*H2).
    """
    validate_basis(basis, grid)
    return [weighted_composition_matrix(bs, v, window, grid) for v in basis.values(grid.points)]


def transfer_matrix(bs: BranchSystem, window: int, grid: CircleGrid) -> TruncatedOperator:
    """Transfer operator: column n is the Fourier window of L(e_n) = conj L(e_{-n}), the fibre mean of z^n."""
    return _mirrored_columns(fibre_power_means(grid_fibre(bs, grid), window), grid, window)


# -- dense algebra -------------------------------------------------------------


def adjoint(op: TruncatedOperator) -> TruncatedOperator:
    """Conjugate transpose, a derived operator: its tails are inf (row mass is
    not tracked), so a check certifies from the sampled operator instead."""
    tails = np.full(op.matrix.shape[0], np.inf)
    return TruncatedOperator(op.matrix.conj().T, op.col_modes, op.row_modes, op.space, tails)


def compose(a: TruncatedOperator, b: TruncatedOperator) -> TruncatedOperator:
    """Matrix product a @ b; mode intervals must chain.

    A derived operator: its tails are inf, "not certified".  A check on the
    product certifies from the sampled operators it names in `tail_sources`.
    """
    if a.col_modes != b.row_modes:
        raise ValueError(f"mode mismatch: {a.col_modes} vs {b.row_modes}")
    space = "H2" if a.space == b.space == "H2" else "L2"
    tails = np.full(b.matrix.shape[1], np.inf)
    return TruncatedOperator(a.matrix @ b.matrix, a.row_modes, b.col_modes, space, tails)


def operator_norm(op: TruncatedOperator) -> float:
    """Largest singular value of the truncated matrix."""
    return float(np.linalg.svd(op.matrix, compute_uv=False)[0])


def block(
    op: TruncatedOperator, row_modes: tuple, col_modes: tuple, *, space: str | None = None
) -> TruncatedOperator:
    """Submatrix on the given mode intervals; dropped-row mass is added to the tails."""
    if not (op.row_modes[0] <= row_modes[0] and row_modes[1] <= op.row_modes[1]):
        raise ValueError("row interval outside operator")
    if not (op.col_modes[0] <= col_modes[0] and col_modes[1] <= op.col_modes[1]):
        raise ValueError("column interval outside operator")
    r0 = row_modes[0] - op.row_modes[0]
    r1 = row_modes[1] - op.row_modes[0] + 1
    c0 = col_modes[0] - op.col_modes[0]
    c1 = col_modes[1] - op.col_modes[0] + 1
    sub = op.matrix[r0:r1, c0:c1]
    dropped = np.sum(np.abs(op.matrix[:r0, c0:c1]) ** 2, axis=0) + np.sum(
        np.abs(op.matrix[r1:, c0:c1]) ** 2, axis=0
    )
    tails = np.sqrt(op.column_tail[c0:c1] ** 2 + dropped)
    return TruncatedOperator(sub, row_modes, col_modes, space or op.space, tails)


def restrict_to_h2(op: TruncatedOperator) -> TruncatedOperator:
    """Compression to the analytic modes [0, M] (houses R_i and C_{b+})."""
    hi = min(op.row_modes[1], op.col_modes[1])
    return block(op, (0, hi), (0, hi), space="H2")


# -- certification helpers ------------------------------------------------------


def excluded_mask(cols: np.ndarray, tail_sources: list, eps_tail: float) -> np.ndarray:
    """True where any tail source's tail at that column mode exceeds eps_tail; raises if that is all of `cols`."""
    mask = np.zeros(len(cols), dtype=bool)
    for op in tail_sources:
        mask |= np.isin(cols, op.col_mode_array[op.column_tail > eps_tail])
    if mask.all():  # a check that excludes every column it names is vacuous, not a pass
        raise ValueError(
            "no certified column remains on the interior block; "
            "increase the mode window or relax eps_tail"
        )
    return mask


def _interior_modes(op: TruncatedOperator, inner: int) -> tuple:
    """op's row and column intervals clipped to |n| <= inner (an H2 operator has no negative modes)."""
    return tuple((max(-inner, first), min(inner, last)) for first, last in (op.row_modes, op.col_modes))


def interior_residual(
    a: TruncatedOperator, b: TruncatedOperator, inner: int, *, tail_sources: list, eps_tail: float = 1e-10
) -> tuple[float, list[int]]:
    """max |a - b| entrywise on the shared interior block, sliced in place.

    Columns whose recorded tail exceeds eps_tail in any tail source (the
    sampled operators the identity is built from) are excluded from the max
    and returned for reporting (excluded_mask, which raises if none remains).
    """
    rows, cols = _interior_modes(a, inner)
    if _interior_modes(b, inner) != (rows, cols):
        raise ValueError("operators do not share the interior block")
    modes = np.arange(cols[0], cols[1] + 1)
    mask = excluded_mask(modes, tail_sources, eps_tail)
    diff = np.abs(a.submatrix(rows, cols) - b.submatrix(rows, cols))
    diff[:, mask] = 0.0
    return float(diff.max()), [int(c) for c in modes[mask]]


PANEL_POINTS = 16  # Gauss-Legendre nodes per panel of pair_power_gram
OVERSAMPLE = 6.0  # its quadrature points per period of the fastest oscillation
NODE_BLOCK = 2048  # quadrature nodes per power table, which bounds its memory
PAIR_ROWS = 256  # member pairs (i, j) per matrix product (at least one i's n pairs), which bounds its memory


def moment_nodes(bs: BranchSystem, exceptions, window: int) -> tuple[np.ndarray, np.ndarray]:
    """The nodes t and weights w of pair_power_gram's rule: sum w g(t) ~ int g dt/2pi.

    Piecewise Gauss-Legendre on [0, 2pi], with PANEL_POINTS nodes per panel.
    The panels break at the `exceptions` angles, and each stretch between
    breaks gets OVERSAMPLE points per period of e^{2i window theta}, at its
    fastest slope.
    """
    two_pi = 2.0 * np.pi
    breaks = sorted({0.0, two_pi} | {float(np.mod(e, two_pi)) for e in exceptions})
    nodes_x, weights_x = np.polynomial.legendre.leggauss(PANEL_POINTS)
    max_slope = bs.branch_count * float(np.max(j0(bs.owner, np.linspace(0, two_pi, 1024))))
    ts, ws = [], []
    for lo, hi in zip(breaks[:-1], breaks[1:]):
        if hi - lo < 1e-14:
            continue
        # resolve the fastest oscillation 2*window*theta' with OVERSAMPLE points per period
        periods = (hi - lo) * 2 * window * max_slope / two_pi
        n_panels = max(4, int(np.ceil(periods * OVERSAMPLE / PANEL_POINTS)))
        edges = np.linspace(lo, hi, n_panels + 1)
        mid = 0.5 * (edges[:-1] + edges[1:])
        half = 0.5 * (edges[1:] - edges[:-1])
        ts.append((mid[:, None] + half[:, None] * nodes_x[None, :]).reshape(-1))
        ws.append((half[:, None] * weights_x[None, :]).reshape(-1))
    return np.concatenate(ts), np.concatenate(ws) / two_pi


def pair_power_gram(bs: BranchSystem, family: ModuleFamily, window: int) -> np.ndarray:
    """Power-Gram moments of a family by piecewise Gauss-Legendre, shape (n, n, 4*window+1).

    mu[i, j, k + 2*window] = int conj(f_i) f_j e^{ik theta(t)} dt/2pi for
    |k| <= 2*window.  Since b = e^{i theta} on the circle, the Gram entry
    (f_j b^n, f_i b^m) is mu[i, j, n - m + 2*window]: the matrix is Toeplitz in
    n - m.  The panels break at the union of the family's exception angles, so
    the quadrature stays spectrally accurate for indicator-type members where
    grid quadrature and truncated matrix products lose O(1/M).  The verifier
    certifies every Gram relation of the form (f b^n, g b^m) from these moments.

    Per block of NODE_BLOCK nodes, the moments k >= 0 of about PAIR_ROWS member
    pairs are one matrix product: the pair rows w conj(f_i) f_j, for a run of
    i and every j, times the powers e^{ik theta}, k = 0..2*window, built by
    doubling.  Both operands live in buffers reused from block to block, so
    memory is O((max(PAIR_ROWS, n) + window) NODE_BLOCK) beside the values
    and the moments.
    """
    t, w = moment_nodes(bs, family.exceptions, window)
    vals = family.values(np.exp(1j * t))  # (n, Q)
    phase = np.exp(1j * bs.theta(t))  # b on the nodes
    n = family.size
    mu = np.zeros((n, n, 4 * window + 1), dtype=complex)
    step = max(1, PAIR_ROWS // max(n, 1))  # members i per product, each with all n members j
    size = min(NODE_BLOCK, t.size)
    pair_buf = np.empty(step * n * size, dtype=complex)
    power_buf = np.empty((2 * window + 1, size), dtype=complex)
    for start in range(0, t.size, NODE_BLOCK):
        blk = slice(start, start + NODE_BLOCK)
        count = phase[blk].size
        powers = nonnegative_powers(phase[blk], 2 * window, out=power_buf[:, :count])
        wv = w[blk] * np.conj(vals[:, blk])  # w conj(f_i)
        v = vals[:, blk]
        for lo in range(0, n, step):
            hi = min(lo + step, n)
            rows = pair_buf[: (hi - lo) * n * count].reshape(hi - lo, n, count)
            np.multiply(wv[lo:hi, None, :], v[None, :, :], out=rows)
            prod = rows.reshape((hi - lo) * n, count) @ powers.T
            mu[lo:hi, :, 2 * window:] += prod.reshape(hi - lo, n, -1)
    # mu[i, j, -k] = conj(mu[j, i, k])
    mu[:, :, :2 * window] = np.conj(mu[:, :, :2 * window:-1]).transpose(1, 0, 2)
    return mu


def orthonormality_defect(mu: np.ndarray) -> float:
    """max |mu[i, j, k] - delta_ij delta_k0| of a pair_power_gram moment array.

    Zero exactly when the family's b-power columns f_i b^n are orthonormal,
    which is what S_i* S_j = delta_ij I and C_b* C_b = I assert.
    """
    n, _, width = mu.shape
    dev = mu.copy()
    dev[np.arange(n), np.arange(n), width // 2] -= 1.0
    return float(np.max(np.abs(dev)))

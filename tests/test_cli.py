import json
import warnings

import numpy as np
import pytest

from blaschkeops import cli
from blaschkeops.circlefun import series_from_json
from blaschkeops.config import RunConfig
from blaschkeops.cli import main
from blaschkeops.operators import operator_from_json


@pytest.fixture
def inputs(tmp_path):
    z2 = tmp_path / "z2.json"
    z2.write_text('{"zeros": [[0.0, 0.0], [0.0, 0.0]]}')
    half = tmp_path / "half.json"
    half.write_text('{"zeros": [[0.5, 0.0]]}')
    e3 = tmp_path / "e3.json"
    e3.write_text(json.dumps({"min_n": -4, "coeffs": [[0, 0]] * 7 + [[1, 0]] + [[0, 0]]}))
    return tmp_path, z2, half, e3


def _run(argv, capsys):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def test_describe_squaring(inputs, capsys):
    _, z2, _, _ = inputs
    code, out = _run(["describe", z2, "--grid", "512"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["degree"] == 2
    assert data["b0"] == [0.0, 0.0]
    assert data["j0_min"] == pytest.approx(1.0)
    assert data["j0_max"] == pytest.approx(1.0)


def test_describe_half_boundary_value(inputs, capsys):
    _, _, half, _ = inputs
    code, out = _run(["describe", half, "--grid", "512"], capsys)
    assert code == 0
    data = json.loads(out)
    assert data["b1"] == pytest.approx([-1.0, 0.0])
    assert data["theta0"] == pytest.approx(np.pi)


def test_rejects_zeros_on_or_outside_circle(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"zeros": [[1.0, 0.0]]}')
    code, _ = _run(["describe", bad], capsys)
    assert code == 2


@pytest.mark.parametrize(
    "text",
    ["definitely not json", '{"zeros": [["NaN", 0]]}', '{"zeros": [[1]]}'],
    ids=["not-json", "string-entry", "short-entry"],
)
def test_malformed_json_is_usage_error(tmp_path, capsys, text):
    bad = tmp_path / "bad.json"
    bad.write_text(text)
    code, _ = _run(["describe", bad], capsys)
    assert code == 1


def test_missing_file_is_usage_error(tmp_path, capsys):
    code, _ = _run(["describe", tmp_path / "nope.json"], capsys)
    assert code == 1


@pytest.mark.parametrize("grid", [2, 100])
def test_describe_rejects_grid_it_cannot_use(inputs, capsys, grid):
    _, z2, _, _ = inputs
    code = main(["describe", str(z2), "--grid", str(grid)])
    assert code == 2
    assert "power of two >= 4" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--modes", "0"],
        ["verify", "--modes", "-3"],
        ["verify", "--tol", "nan"],
        ["preimages", "--angle", "nan"],
        ["preimages", "--angle", "inf"],
    ],
    ids=["modes-0", "modes-negative", "tol-nan", "angle-nan", "angle-inf"],
)
def test_non_usable_numbers_are_math_errors(inputs, capsys, argv):
    _, z2, _, _ = inputs
    code = main([argv[0], str(z2), "--grid", "512", *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith("math error: ")
    assert captured.out == ""


COMMANDS = {
    "describe": ["describe", "{b}"],
    "preimages": ["preimages", "{b}", "--angle", "0.3"],
    "transfer": ["transfer", "{b}", "{s}"],
    "outer": ["outer", "{b}"],
    "basis": ["basis", "{b}"],
    "matrix-gamma": ["matrix", "{b}", "--which", "gamma"],
    "matrix-cuntz": ["matrix", "{b}", "--which", "cuntz"],
    "matrix-transfer": ["matrix", "{b}", "--which", "transfer"],
    "decompose": ["decompose", "{b}", "{s}"],
    "verify": ["verify", "{b}"],
}
BAD_SETTINGS = {
    "modes-0": dict(grid=256, modes=0, tol=1e-6),
    "modes-negative": dict(grid=256, modes=-3, tol=1e-6),
    "modes-over-grid": dict(grid=256, modes=128, tol=1e-6),
    "grid-not-power-of-two": dict(grid=100, modes=8, tol=1e-6),
    "tol-nan": dict(grid=256, modes=8, tol=float("nan")),
}


@pytest.mark.parametrize("command", COMMANDS)
@pytest.mark.parametrize("bad", BAD_SETTINGS)
def test_every_command_validates_settings_like_run_config(inputs, capsys, command, bad):
    _, z2, _, e3 = inputs
    setting = BAD_SETTINGS[bad]
    with pytest.raises(ValueError) as expected:
        RunConfig(grid_size=setting["grid"], mode_window=setting["modes"], tol_operator=setting["tol"])
    argv = [a.format(b=z2, s=e3) for a in COMMANDS[command]]
    argv += ["--grid", str(setting["grid"]), "--modes", str(setting["modes"]), "--tol", str(setting["tol"])]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == f"math error: {expected.value}\n"
    assert captured.out == ""


CSV_REFUSED = {
    "describe": "describe",
    "preimages": "preimages",
    "basis": "basis",
    "matrix-cuntz": "matrix --which cuntz",
    "decompose": "decompose",
    "verify": "verify",
}


@pytest.mark.parametrize("command", CSV_REFUSED)
def test_csv_is_refused_where_there_is_no_table(inputs, capsys, command):
    _, z2, _, e3 = inputs
    argv = [a.format(b=z2, s=e3) for a in COMMANDS[command]]
    code = main(argv + ["--grid", "256", "--modes", "8", "--format", "csv"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.err == f"error: csv output is not available for {CSV_REFUSED[command]}\n"
    assert captured.out == ""


@pytest.mark.parametrize("command", sorted(set(COMMANDS) - set(CSV_REFUSED)))
def test_csv_tables_are_written(inputs, capsys, command):
    _, z2, _, e3 = inputs
    argv = [a.format(b=z2, s=e3) for a in COMMANDS[command]]
    code, out = _run(argv + ["--grid", "256", "--modes", "8", "--format", "csv"], capsys)
    assert code == 0
    rows = [line.split(",") for line in out.splitlines() if line]
    assert rows and all(len(r) == len(rows[0]) for r in rows)  # one table, not JSON


def test_preimages_command(inputs, capsys):
    _, z2, _, _ = inputs
    code, out = _run(["preimages", z2, "--angle", "0.0"], capsys)
    assert code == 0
    pts = [complex(r, i) for r, i in json.loads(out)["preimages"]]
    assert sorted(round(p.real) for p in pts) == [-1, 1]


def test_matrix_gamma_permutation_pattern(inputs, capsys):
    _, z2, _, _ = inputs
    code, out = _run(["matrix", z2, "--which", "gamma", "--modes", "8", "--grid", "256"], capsys)
    assert code == 0
    op = operator_from_json(out)
    mat = np.round(np.abs(op.matrix))
    for n in range(-8, 9):
        expect = np.zeros(17)
        if abs(2 * n) <= 8:
            expect[2 * n + 8] = 1.0
        assert np.allclose(mat[:, n + 8], expect)


def test_matrix_round_trip_and_mult(inputs, capsys):
    tmp, z2, _, e3 = inputs
    code, out = _run(["matrix", z2, "--which", f"mult:{e3}", "--modes", "8", "--grid", "256"], capsys)
    assert code == 0
    op = operator_from_json(out)
    back = operator_from_json(op.to_json())
    assert np.allclose(back.matrix, op.matrix)
    assert np.allclose(back.matrix, np.eye(17, k=-3))


def test_matrix_cuntz_returns_family(inputs, capsys):
    _, z2, _, _ = inputs
    code, out = _run(["matrix", z2, "--which", "cuntz", "--modes", "8", "--grid", "256"], capsys)
    assert code == 0
    ops = [operator_from_json(json.dumps(o)) for o in json.loads(out)]
    assert len(ops) == 2
    assert ops[0].entry(2, 1) == pytest.approx(1.0)  # S1 e_1 = e_2
    assert ops[1].entry(3, 1) == pytest.approx(1.0)  # S2 e_1 = e_3


def test_decompose_even_odd(inputs, capsys):
    _, z2, _, e3 = inputs
    code, out = _run(["decompose", z2, e3, "--grid", "512"], capsys)
    assert code == 0
    blob = json.loads(out)
    assert blob["residual"] < 1e-8
    coeffs = [series_from_json(json.dumps(c)) for c in blob["coefficients"]]
    assert np.max(np.abs(coeffs[0].coeffs)) < 1e-10
    assert abs(coeffs[1].coeff(1) - 1.0) < 1e-10


def test_basis_command(inputs, capsys):
    _, z2, _, _ = inputs
    code, out = _run(["basis", z2, "--grid", "256", "--modes", "4"], capsys)
    assert code == 0
    series = [series_from_json(json.dumps(s)) for s in json.loads(out)]
    assert abs(series[0].coeff(0) - 1.0) < 1e-12
    assert abs(series[1].coeff(1) - 1.0) < 1e-12


def test_outer_csv(inputs, capsys):
    _, _, half, _ = inputs
    code, out = _run(["outer", half, "--power", "1.0", "--grid", "256", "--format", "csv"], capsys)
    assert code == 0
    assert out.splitlines()[0] == "t,re,im"
    first = out.splitlines()[1].split(",")
    # J(1) = 0.75/(1 - 0.5)^2 = 3
    assert float(first[1]) == pytest.approx(3.0, abs=1e-8)


@pytest.mark.parametrize("power, shown", [("nan", "nan"), ("inf", "inf"), ("1e308", "1e+308")])
def test_outer_refuses_unusable_power(inputs, capsys, power, shown):
    # refused before any transform: the power is named, and numpy warns of nothing
    _, _, half, _ = inputs
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["outer", str(half), "--power", power, "--grid", "256"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(f"math error: outer power {shown} ")
    assert captured.out == ""
    assert [str(w.message) for w in caught] == []


def test_transfer_command(inputs, capsys):
    _, z2, _, e3 = inputs
    code, out = _run(["transfer", z2, e3, "--grid", "512", "--modes", "8"], capsys)
    assert code == 0
    s = series_from_json(out)
    assert np.max(np.abs(s.coeffs)) < 1e-12  # L kills odd modes under squaring


def test_verify_exit_zero_on_pass(inputs, capsys):
    _, z2, _, _ = inputs
    code, out = _run(["verify", z2, "--grid", "512", "--modes", "16"], capsys)
    assert code == 0
    reports = json.loads(out)
    assert all(r["pass"] for r in reports)


def test_verify_exit_counts_failures(inputs, capsys):
    _, z2, _, _ = inputs
    code, out = _run(["verify", z2, "--grid", "512", "--modes", "16", "--tol", "1e-30"], capsys)
    reports = json.loads(out)
    failures = sum(1 for r in reports if not r["pass"])
    assert failures > 0
    assert code == min(failures, 250)


def test_inputs_not_mutated(inputs, capsys):
    _, z2, _, e3 = inputs
    before = z2.read_text(), e3.read_text()
    _run(["decompose", z2, e3, "--grid", "512"], capsys)
    assert (z2.read_text(), e3.read_text()) == before


def test_out_flag_writes_file(inputs, tmp_path, capsys):
    _, z2, _, _ = inputs
    target = tmp_path / "out.json"
    code, out = _run(["describe", z2, "--out", target], capsys)
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["degree"] == 2


@pytest.mark.parametrize("command", ["describe", "verify"])
def test_unwritable_out_is_usage_error(inputs, tmp_path, capsys, command):
    _, z2, _, _ = inputs
    target = tmp_path / "missing-dir" / "out.json"
    code = main([command, str(z2), "--grid", "512", "--modes", "16", "--out", str(target)])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {target}: ")
    assert not target.exists()


def test_usage_error_for_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 1


def test_dispatch_reads_the_command_function_at_call_time(inputs, capsys, monkeypatch):
    # the parser is built once per process; a cmd_<name> rebound after that
    # (as a tracer wrapping the module attributes does) must still be called
    _, z2, _, _ = inputs
    assert _run(["describe", z2, "--grid", "512"], capsys)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_describe", lambda args: seen.append(args.blaschke) or 7)
    assert _run(["describe", z2, "--grid", "512"], capsys) == (7, "")
    assert seen == [str(z2)]


def test_csv_refusal_leaks_no_state_into_the_next_call(inputs, capsys):
    _, z2, _, _ = inputs
    argv = ["describe", z2, "--grid", "512"]
    code, before = _run(argv, capsys)
    assert code == 0
    assert main([str(a) for a in argv] + ["--format", "csv"]) == 1
    assert capsys.readouterr().err == "error: csv output is not available for describe\n"
    assert _run(argv, capsys) == (0, before)
    json.loads(before)

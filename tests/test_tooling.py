"""Names that code outside the library looks up in it must exist.

perfbench/tracing.py wraps each name in TRACED by looking it up in a
blaschkeops module, so deleting or renaming one breaks the traced benchmark;
its test reads TRACED without running the benchmark.  A refactor can also
keep every name but stop calling one, so one traced verify_all, and one
traced run of the CLI benchmark's commands, must record every span the
benchmark requires.  `from blaschkeops import *` reads
`__all__`, so every name listed there must resolve, once.
`scripts/parity_digest.py --against` is the byte-parity check between two
versions, so its comparison is tested on fixed digests.  Some concepts have
one home in the library, a file no other module may reach around, and each
such rule is checked, with a negative control, on the library's source text.
"""

import importlib
import json
import re
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"
SRC = Path(__file__).resolve().parent.parent / "src" / "blaschkeops"

#: (pattern, the one library file that may match it, what other files use instead, a line that breaks the rule)
ONE_HOME = [
    ("_grid_cache", "blaschke.py", "reach the memo through BranchSystem.memo", "bs._grid_cache.clear()"),
    (r"grid_fibre\(", "transfer.py", "sample L on the grid through transfer.nudged_fibre", "grid_fibre(bs, grid)"),
    (r"searchsorted\([^)]*arc_endpoints", "transfer.py", "find a point's arc through transfer.arc_of", "np.searchsorted(bs.arc_endpoints, t)"),
    ("leggauss", "operators.py", "take quadrature nodes from operators.moment_nodes", "np.polynomial.legendre.leggauss(16)"),
    (r"midstep_fibre\(", "transfer.py", "read the module expansion through transfer.expansion_sweep", "midstep_fibre(bs, grid, ())"),
]


def one_home_violations(src: Path) -> list[str]:
    """'file: what to use instead' for each library file outside a rule's home that matches its pattern."""
    return [
        f"{path.name}: {instead}"
        for pattern, home, instead, _ in ONE_HOME
        for path in sorted(src.glob("*.py"))
        if path.name != home and re.search(pattern, path.read_text())
    ]


def test_each_concept_has_one_home():
    assert len(list(SRC.glob("*.py"))) > 10
    assert one_home_violations(SRC) == []


@pytest.mark.parametrize("rule", ONE_HOME, ids=[re.sub(r"\W+", " ", rule[0]).strip() for rule in ONE_HOME])
def test_each_one_home_rule_trips_on_a_violation(tmp_path, rule):
    # a copy of the library with the rule's violating line added to cli.py, the home of no rule
    _, _, instead, line = rule
    for path in SRC.glob("*.py"):
        text = path.read_text()
        (tmp_path / path.name).write_text(text + line + "\n" if path.name == "cli.py" else text)
    assert one_home_violations(tmp_path) == [f"cli.py: {instead}"]


def test_traced_names_resolve_in_the_library(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # tracing imports its sibling workloads
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = importlib.import_module("tracing")
    missing = []
    for module_name, attrs in tracing.TRACED.items():
        module = importlib.import_module(f"blaschkeops.{module_name}")
        for attr in attrs:
            owner = module
            for part in attr.split("."):  # a module attribute or Class.method
                owner = getattr(owner, part, None)
            if not callable(owner):
                missing.append(f"{module_name}.{attr}")
    assert tracing.TRACED and not missing, missing


def test_traced_verify_all_records_every_required_span(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = importlib.import_module("tracing")
    from blaschkeops import RELATIONS, make_blaschke, verify_all

    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        verify_all(make_blaschke([0.5, -0.3j]))
    assert tracing.missing_spans(tracer, "verify_zoo", RELATIONS) == []


def test_traced_cli_commands_record_every_required_span(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    for name in ("tracing", "workloads"):
        monkeypatch.delitem(sys.modules, name, raising=False)
    tracing = importlib.import_module("tracing")
    from blaschkeops import RELATIONS, cli

    b, s = tmp_path / "b.json", tmp_path / "s.json"
    b.write_text(json.dumps({"zeros": [[0.5, 0.0], [0.0, -0.3]]}))
    s.write_text(json.dumps({"min_n": -2, "coeffs": [[0, 0], [0, 0], [1, 0], [0.5, 0], [0, 0.25]]}))
    small = ["--grid", "256"]
    commands = [
        ["describe", str(b)],
        ["preimages", str(b), "--angle", "0.3"],  # b(1) is at angle 2.15
        ["outer", str(b), "--power", "-0.5", "--modes", "16"],
        ["transfer", str(b), str(s), "--modes", "16"],
        ["decompose", str(b), str(s)],
        ["matrix", str(b), "--which", "transfer", "--modes", "16"],
    ]
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        codes = [cli.main(argv + small + ["--out", str(tmp_path / "out")]) for argv in commands]
    assert codes == [0] * len(commands)
    assert tracing.missing_spans(tracer, "cli_calculus", RELATIONS) == []


def test_package_exports_resolve_once():
    import blaschkeops

    names = blaschkeops.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(blaschkeops, n)]
    assert not missing, missing


def test_parity_digest_against_names_each_differing_payload(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # it imports its sibling run_verify
    monkeypatch.delitem(sys.modules, "parity_digest", raising=False)
    parity = importlib.import_module("parity_digest")
    now = [("verify z^2 w64", "a" * 64), ("matrix cb two mixed m16", "b" * 64), ("decompose new g512", "c" * 64)]
    monkeypatch.setattr(parity, "digests", lambda: iter(now))
    assert parity.main([]) == 0
    saved = tmp_path / "parent.txt"
    saved.write_text(capsys.readouterr().out)
    assert parity.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""
    # one digest moved, one payload only this run has, one only the saved run has
    saved.write_text(f"{'a' * 64}  verify z^2 w64\n{'d' * 64}  matrix cb two mixed m16\n{'e' * 64}  gone\n")
    assert parity.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == ["matrix cb two mixed m16", "decompose new g512", "gone"]


def test_parity_digest_directory_reports_float_and_other_differences(monkeypatch, tmp_path, capsys):
    monkeypatch.syspath_prepend(str(SCRIPTS))
    monkeypatch.delitem(sys.modules, "parity_digest", raising=False)
    parity = importlib.import_module("parity_digest")
    params = {"excluded_columns": [3], "zeros": [[0.5, 0.0]]}
    report = {"relation": "r", "residual": 1.5e-14, "pass": True, "params": params}

    def stub(*payloads):
        monkeypatch.setattr(parity, "payloads", lambda: iter([(n, json.dumps(p)) for n, p in payloads]))

    stub(("verify z^2 w64", [report]), ("matrix cb two mixed m16", {"re": [1.0, 2.0]}), ("gone", {}))
    saved = tmp_path / "parent"
    assert parity.main(["--save", str(saved)]) == 0
    assert len(capsys.readouterr().out.splitlines()) == 3
    names = sorted(p.name for p in saved.iterdir())
    assert names == ["gone.json", "matrix_cb_two_mixed_m16.json", "verify_z_2_w64.json"]
    assert parity.main(["--against", str(saved)]) == 0
    assert capsys.readouterr().out == ""
    # a float moved by 2e-15 and a list shortened; one payload only this run
    # has, one only the saved run has; then a flag and an excluded column
    moved = {**report, "residual": 1.7e-14}
    flagged = {**report, "pass": False, "params": {**params, "excluded_columns": [3, 4]}}
    stub(("verify z^2 w64", [moved]), ("matrix cb two mixed m16", {"re": [1.0]}), ("decompose new g512", {}))
    assert parity.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "verify z^2 w64",
        "  max |float difference| 2.000e-15; other fields differ: no",
        "matrix cb two mixed m16",
        "  max |float difference| 0.000e+00; other fields differ: yes at 1 path(s), first $.re (length 2 vs 1)",
        "decompose new g512",
        "gone.json",
    ]
    stub(("verify z^2 w64", [flagged]), ("matrix cb two mixed m16", {"re": [1.0, 2.0]}), ("gone", {}))
    assert parity.main(["--against", str(saved)]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "verify z^2 w64",
        "  max |float difference| 0.000e+00; other fields differ: yes at 2 path(s),"
        " first $[0].params.excluded_columns (length 1 vs 2)",
    ]

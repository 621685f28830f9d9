"""The benchmark's tracer names library functions; they must exist.

perfbench/tracing.py wraps each name in TRACED by looking it up in a
blaschkeops module, so deleting or renaming one breaks the traced benchmark.
This test reads TRACED without running the benchmark.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


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

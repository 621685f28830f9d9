"""Names that code outside the library looks up in it must exist.

perfbench/tracing.py wraps each name in TRACED by looking it up in a
blaschkeops module, so deleting or renaming one breaks the traced benchmark;
its test reads TRACED without running the benchmark.  `from blaschkeops
import *` reads `__all__`, so every name listed there must resolve, once.
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


def test_package_exports_resolve_once():
    import blaschkeops

    names = blaschkeops.__all__
    assert len(names) == len(set(names)), sorted(n for n in set(names) if names.count(n) > 1)
    missing = [n for n in names if not hasattr(blaschkeops, n)]
    assert not missing, missing

#!/usr/bin/env python3
"""Print one sha256 per certified payload, to compare two versions byte for byte.

The payloads are the `reports_to_json` of `verify_all` on the zoo of
`run_verify.py` plus the single zero 0.8 (grid 4096, window 64) and on six
zeros (window 128), the `matrix --which cb` and `matrix --which transfer`
JSON of three products at `--modes 16` and `--modes 64`, and the `decompose`
JSON of one seeded analytic series against the same three products at
`--grid 512` and `--grid 4096`.  Save one checkout's output and compare the
other against it:

    PYTHONPATH=src python scripts/parity_digest.py > parent.txt
    PYTHONPATH=src python scripts/parity_digest.py --against parent.txt

With `--against` it prints the name of each payload whose digest differs from
the saved one, or that only one side has, and exits 1 if there is any.
"""

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

import numpy as np

from blaschkeops import FourierSeries, RunConfig, make_blaschke, verify_all
from blaschkeops.cli import main as cli_main
from blaschkeops.verify import reports_to_json
from run_verify import ZOO

SIX_ZEROS = [0.5, -0.3j, 0.2 + 0.4j, 0.7, -0.6 + 0.1j, 0.3j]
VERIFY_CASES = [
    *((name, zeros, 64) for name, zeros in {**ZOO, "single 0.8": [0.8]}.items()),
    ("six zeros", SIX_ZEROS, 128),
]
MATRIX_CASES = {"two mixed": [0.5, -0.3j], "single 0.8": [0.8], "six zeros": SIX_ZEROS}
MATRIX_KINDS = ("cb", "transfer")
MATRIX_MODES = (16, 64)
DECOMPOSE_GRIDS = (512, 4096)


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def analytic_series(window: int = 16, seed: int = 7) -> FourierSeries:
    """Modes 0..window drawn from a seeded normal law, scaled to unit l1 norm."""
    rng = np.random.default_rng(seed)
    coeffs = np.zeros(2 * window + 1, dtype=complex)
    coeffs[window:] = rng.standard_normal(window + 1) + 1j * rng.standard_normal(window + 1)
    return FourierSeries(coeffs / np.sum(np.abs(coeffs)))


def write_product(zeros, workdir: str) -> str:
    path = os.path.join(workdir, "b.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"zeros": [[complex(z).real, complex(z).imag] for z in zeros]}, fh)
    return path


def cli_json(argv: list) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(argv)
    if code != 0:
        raise SystemExit(f"{argv[0]} exited {code}")
    return out.getvalue()


def digests():
    """(name, sha256) of every payload, in a fixed order."""
    for name, zeros, window in VERIFY_CASES:
        cfg = RunConfig(grid_size=4096, mode_window=window, seed=1)
        payload = reports_to_json(verify_all(make_blaschke(zeros), cfg))
        yield f"verify {name} w{window}", digest(payload)
    with tempfile.TemporaryDirectory() as workdir:
        for which in MATRIX_KINDS:
            for name, zeros in MATRIX_CASES.items():
                path = write_product(zeros, workdir)
                for modes in MATRIX_MODES:
                    text = cli_json(["matrix", path, "--which", which, "--modes", str(modes)])
                    yield f"matrix {which} {name} m{modes}", digest(text)
        series = os.path.join(workdir, "f.json")
        with open(series, "w", encoding="utf-8") as fh:
            fh.write(analytic_series().to_json())
        for name, zeros in MATRIX_CASES.items():
            path = write_product(zeros, workdir)
            for grid in DECOMPOSE_GRIDS:
                text = cli_json(["decompose", path, series, "--grid", str(grid)])
                yield f"decompose {name} g{grid}", digest(text)


def read_digests(path: str) -> dict:
    """name -> sha256 from a saved run's output ("<sha256>  <name>" per line)."""
    with open(path, encoding="utf-8") as fh:
        pairs = [line.rstrip("\n").partition("  ")[::2] for line in fh if line.strip()]
    return {name: sha for sha, name in pairs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="One sha256 per certified payload.")
    ap.add_argument("--against", metavar="FILE", help="a saved run's output to compare with")
    args = ap.parse_args(argv)
    if args.against is None:
        for name, sha in digests():
            print(f"{sha}  {name}", flush=True)
        return 0
    saved = read_digests(args.against)
    differing = []
    for name, sha in digests():
        if saved.pop(name, None) != sha:
            differing.append(name)
            print(name, flush=True)
    for name in saved:  # saved payloads this run did not produce
        differing.append(name)
        print(name, flush=True)
    print(f"{len(differing)} payloads differ", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

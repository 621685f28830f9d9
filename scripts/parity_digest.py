#!/usr/bin/env python3
"""Print one sha256 per certified payload, to compare two versions byte for byte.

The payloads are the `reports_to_json` of `verify_all` on the zoo of
`run_verify.py` plus the single zero 0.8 (grid 4096, window 64) and on six
zeros (window 128), the `matrix --which cb` and `matrix --which transfer`
JSON of three products at `--modes 16` and `--modes 64`, the `outer` JSON of
the same three products at `--power 0.5` and `-0.5` (`--modes 16`, grid 4096),
and, for one seeded analytic series against the same three products, the
`decompose` JSON at `--grid 512` and `--grid 4096` and the `transfer` JSON
(`--modes 16`) and CSV.  Save one checkout's output and compare the other
against it:

    PYTHONPATH=src python scripts/parity_digest.py > parent.txt
    PYTHONPATH=src python scripts/parity_digest.py --against parent.txt

With `--against` it prints the name of each payload whose digest differs from
the saved one, or that only one side has, and exits 1 if there is any.

`--save DIR` also writes each payload to DIR, one JSON file per payload.
`--against DIR` compares with such a directory; for each differing payload it
then prints the largest absolute difference between the floats at the same
JSON path (a CSV payload is read as a list of rows), and whether anything
else differs: booleans, integers (such as `excluded_columns`), strings, keys or
list lengths.

The script runs OpenBLAS on one thread, as `perfbench` does: the matrix
products, and so ten of the digests, change bits between one thread and two.
"""

import os

# set before numpy is first imported, so every run hashes the same bits
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

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
OUTER_POWERS = ("0.5", "-0.5")


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


def payloads():
    """(name, JSON text) of every payload, in a fixed order."""
    for name, zeros, window in VERIFY_CASES:
        cfg = RunConfig(grid_size=4096, mode_window=window, seed=1)
        yield f"verify {name} w{window}", reports_to_json(verify_all(make_blaschke(zeros), cfg))
    with tempfile.TemporaryDirectory() as workdir:
        for which in MATRIX_KINDS:
            for name, zeros in MATRIX_CASES.items():
                path = write_product(zeros, workdir)
                for modes in MATRIX_MODES:
                    text = cli_json(["matrix", path, "--which", which, "--modes", str(modes)])
                    yield f"matrix {which} {name} m{modes}", text
        series = os.path.join(workdir, "f.json")
        with open(series, "w", encoding="utf-8") as fh:
            fh.write(analytic_series().to_json())
        for name, zeros in MATRIX_CASES.items():
            path = write_product(zeros, workdir)
            for power in OUTER_POWERS:
                argv = ["outer", path, "--power", power, "--modes", "16", "--grid", "4096"]
                yield f"outer {name} p{power}", cli_json(argv)
            for grid in DECOMPOSE_GRIDS:
                yield f"decompose {name} g{grid}", cli_json(["decompose", path, series, "--grid", str(grid)])
            yield f"transfer {name} m16", cli_json(["transfer", path, series, "--modes", "16"])
            yield f"transfer csv {name}", cli_json(["transfer", path, series, "--format", "csv"])


def file_name(name: str) -> str:
    """The file a payload is saved to: its name with every run of other characters as "_"."""
    return re.sub(r"[^A-Za-z0-9.+-]+", "_", name) + ".json"


def read_saved(path: Path) -> dict:
    """name -> sha256 from a saved run's output ("<sha256>  <name>" per line),
    or file name -> payload text from a --save directory."""
    if path.is_dir():
        return {f.name: f.read_text(encoding="utf-8") for f in sorted(path.glob("*.json"))}
    with open(path, encoding="utf-8") as fh:
        pairs = [line.rstrip("\n").partition("  ")[::2] for line in fh if line.strip()]
    return {name: sha for sha, name in pairs}


def json_diff(a, b, path: str = "$") -> tuple[float, list]:
    """The largest |a - b| over the floats at the same JSON path, and the paths
    where anything else differs (value, type, keys or list length)."""
    if isinstance(a, float) and isinstance(b, float):
        return (0.0 if a == b else abs(a - b)), []  # equal infinities differ by 0, not nan
    if type(a) is not type(b):
        return 0.0, [path]
    if isinstance(a, dict):
        keys, worst, other = a.keys() | b.keys(), 0.0, []
        for k in sorted(keys):
            if k not in a or k not in b:
                other.append(f"{path}.{k}")
                continue
            d, o = json_diff(a[k], b[k], f"{path}.{k}")
            worst, other = max(worst, d), other + o
        return worst, other
    if isinstance(a, list):
        worst, other = 0.0, [] if len(a) == len(b) else [f"{path} (length {len(a)} vs {len(b)})"]
        for i, (x, y) in enumerate(zip(a, b)):
            d, o = json_diff(x, y, f"{path}[{i}]")
            worst, other = max(worst, d), other + o
        return worst, other
    return 0.0, [] if a == b else [path]


def parse_payload(text: str):
    """A payload's JSON value; a CSV table (a header line, then rows of numbers) as a list of rows."""
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        return [[float(x) for x in line.split(",")] for line in text.splitlines()[1:]]


def describe_difference(saved_text: str, text: str) -> str:
    worst, other = json_diff(parse_payload(saved_text), parse_payload(text))
    where = f"yes at {len(other)} path(s), first {other[0]}" if other else "no"
    return f"  max |float difference| {worst:.3e}; other fields differ: {where}"


def digests():
    """(name, sha256) of every payload, in a fixed order."""
    return ((name, digest(text)) for name, text in payloads())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="One sha256 per certified payload.")
    ap.add_argument("--against", metavar="PATH", type=Path,
                    help="a saved run's output, or a --save directory, to compare with")
    ap.add_argument("--save", metavar="DIR", type=Path, help="also write each payload to DIR")
    args = ap.parse_args(argv)
    against_dir = args.against is not None and args.against.is_dir()
    if args.save is None and not against_dir:
        rows = ((name, sha, None) for name, sha in digests())
    else:
        rows = ((name, digest(text), text) for name, text in payloads())
    if args.save is not None:
        args.save.mkdir(parents=True, exist_ok=True)
    saved = None if args.against is None else read_saved(args.against)
    differing = []
    for name, sha, text in rows:
        if args.save is not None:
            (args.save / file_name(name)).write_text(text, encoding="utf-8")
        if saved is None:
            print(f"{sha}  {name}", flush=True)
            continue
        old = saved.pop(file_name(name) if against_dir else name, None)
        if old is not None and (digest(old) if against_dir else old) == sha:
            continue
        differing.append(name)
        print(name, flush=True)
        if against_dir and old is not None:
            print(describe_difference(old, text), flush=True)
    if saved is None:
        return 0
    for name in saved:  # saved payloads this run did not produce
        differing.append(name)
        print(name, flush=True)
    print(f"{len(differing)} payloads differ", file=sys.stderr)
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())

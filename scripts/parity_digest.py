#!/usr/bin/env python3
"""Print one sha256 per certified payload, to compare two versions byte for byte.

The payloads are the `reports_to_json` of `verify_all` on the zoo of
`run_verify.py` plus the single zero 0.8 (grid 4096, window 64) and on six
zeros (window 128), and the `matrix --which cb` and `matrix --which transfer`
JSON of three products at `--modes 16` and `--modes 64`.  Run it on two
checkouts and diff the output:

    PYTHONPATH=src python scripts/parity_digest.py > digests.txt
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile

from blaschkeops import RunConfig, make_blaschke, verify_all
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


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def matrix_json(which: str, zeros, modes: int, workdir: str) -> str:
    path = os.path.join(workdir, "b.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"zeros": [[complex(z).real, complex(z).imag] for z in zeros]}, fh)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli_main(["matrix", path, "--which", which, "--modes", str(modes)])
    if code != 0:
        raise SystemExit(f"matrix --which {which} exited {code}")
    return out.getvalue()


def main() -> int:
    for name, zeros, window in VERIFY_CASES:
        cfg = RunConfig(grid_size=4096, mode_window=window, seed=1)
        payload = reports_to_json(verify_all(make_blaschke(zeros), cfg))
        print(f"{digest(payload)}  verify {name} w{window}", flush=True)
    with tempfile.TemporaryDirectory() as workdir:
        for which in MATRIX_KINDS:
            for name, zeros in MATRIX_CASES.items():
                for modes in MATRIX_MODES:
                    text = matrix_json(which, zeros, modes, workdir)
                    print(f"{digest(text)}  matrix {which} {name} m{modes}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

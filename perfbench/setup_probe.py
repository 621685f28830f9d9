"""Time one set-up in a fresh interpreter: importing blaschkeops and generating a workload's inputs.

Prints the seconds taken. run.py starts this several times, with its own
environment, and reports the median.
"""

import argparse
import sys
import time
from pathlib import Path

if __name__ == "__main__":
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args()
    root = Path(__file__).resolve().parent.parent
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    t0 = time.perf_counter()
    import workloads

    workloads.make(args.workload, args.seed, Path(args.workdir))
    print(repr(time.perf_counter() - t0))

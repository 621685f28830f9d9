#!/usr/bin/env python3
"""Time verify_all on one seeded product of high degree, with its peak memory.

Usage:
    python scripts/degree_scale.py N [--radius 0.5]

The product has the N zeros r e^{it}, r = radius sqrt(U) and t uniform, both
drawn from default_rng(1) (the N radii first, then the N angles).  verify_all
runs on grid GRID with window WINDOW.  The script prints the pass count, the
wall time of verify_all and its peak RSS (ru_maxrss), then for each relation
its wall time, verdict, residual and the peak RSS so far.  One degree per
call, so the peak is that degree's own.  OpenBLAS runs on one thread, as in
perfbench.  The exit code is 0 whether relations pass or not: the numbers
are a report, not a gate.
"""

import os

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import resource
import sys
import time

import numpy as np

GRID = 4096
WINDOW = 64


def seeded_zeros(n: int, radius: float) -> list:
    rng = np.random.default_rng(1)
    r = radius * np.sqrt(rng.uniform(size=n))
    t = rng.uniform(0, 2 * np.pi, n)
    return list(r * np.exp(1j * t))


def max_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # KiB on Linux


def run(n: int, radius: float) -> None:
    from blaschkeops import RunConfig, make_blaschke, verify
    from blaschkeops.verify import verify_all

    seconds, peak_mb = {}, {}

    def timed(name, fn):
        def wrapper(ctx):
            start = time.perf_counter()
            try:
                return fn(ctx)
            finally:
                seconds[name] = time.perf_counter() - start
                peak_mb[name] = max_rss_mb()

        return wrapper

    # time each relation inside the one verify_all call
    for name, fn in list(verify._RELATION_FUNCS.items()):
        verify._RELATION_FUNCS[name] = timed(name, fn)
    start = time.perf_counter()
    reports = verify_all(make_blaschke(seeded_zeros(n, radius)), RunConfig(grid_size=GRID, mode_window=WINDOW))
    wall = time.perf_counter() - start
    passed = sum(r.passed for r in reports)
    print(f"N={n} radius<={radius} grid={GRID} window={WINDOW}: {passed}/{len(reports)} pass, "
          f"verify_all {wall:.2f} s, ru_maxrss {max_rss_mb():.0f} MB", flush=True)
    for r in reports:
        verdict = "pass" if r.passed else ("error" if "error" in r.params else "FAIL")
        print(f"  {r.relation:24s} {seconds[r.relation]:8.3f} s  {verdict:5s} {r.residual:.3e}"
              f"  ru_maxrss after it {peak_mb[r.relation]:.0f} MB", flush=True)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="verify_all time and peak RSS on a seeded high-degree product.")
    ap.add_argument("degree", type=int)
    ap.add_argument("--radius", type=float, default=0.5)
    args = ap.parse_args(argv)
    run(args.degree, args.radius)
    return 0


if __name__ == "__main__":
    sys.exit(main())

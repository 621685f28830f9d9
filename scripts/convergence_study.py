#!/usr/bin/env python3
"""Emit residual-vs-window CSV tables for plotting.

Row M is the residual that verify_relation reports at window M, on that
window's own interior (M/2), with tail-based column exclusion off.

Usage:
    python scripts/convergence_study.py --zeros 0.5 --relation master_isometry \
        --windows 32,64,128 --out study.csv
"""

import argparse
import sys

from blaschkeops import RunConfig, convergence_study, make_blaschke
from blaschkeops.verify import convergence_csv


def parse_zeros(text):
    return [complex(tok) for tok in text.split(",") if tok]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--zeros", default="0.5", help="comma-separated complex zeros, e.g. 0.5,-0.3j")
    ap.add_argument("--relation", default="master_isometry")
    ap.add_argument("--windows", default="32,64,128")
    ap.add_argument("--grid", type=int, default=4096)
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    b = make_blaschke(parse_zeros(args.zeros))
    m_list = [int(m) for m in args.windows.split(",")]
    rows = convergence_study(b, args.relation, m_list, RunConfig(grid_size=args.grid))
    text = convergence_csv(rows)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())

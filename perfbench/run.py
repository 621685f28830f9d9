#!/usr/bin/env python3
"""Benchmark of the blaschkeops certification engine.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify_zoo --seed 1 --seconds 36 --trace 0

Workloads (perfbench/trajectory.json says why each was chosen and what it predicts):

    verify_zoo        verify_all on the zoo of scripts/run_verify.py plus {0.8}
    verify_six_w128   verify_all on six zeros at window 128
    cli_calculus      six CLI commands on each of 12 seeded random products

Set-up (importing blaschkeops and generating the inputs) is timed in fresh
interpreters and reported as the median. The timed part then runs the items in
turn, pass after pass, while the next is expected to end within --seconds, and
at least one whole pass. wall_s is the median time of a pass. wall_rel is a
pass in units of a reference computation (reference.py) that a timer runs
about once a second, between and inside the items; this cancels most of the
drift in the host's speed, and it is the timing in the JSON result. With --trace 1 one traced pass follows, and the
per-layer metrics come from its spans, which are written to
.perfbench/spans-<workload>.json.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. `failed` counts operations that raised, exited nonzero or
failed the output check. A relation reported with pass: false is a
certification verdict, not a broken operation: it is counted in failed_frac,
printed above the JSON line, and pass_frac = 1 - failed_frac.
"""

import os

# One BLAS thread: at the seed commit it was no slower than the default of one
# per core, and steadier. Set before numpy is first imported.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import argparse
import ctypes
import glob
import itertools
import json
import math
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import reference  # noqa: E402  (after the BLAS setting and the path)

SETUP_SAMPLES = 15
#: often enough to follow the host's drift, with the reference taking about a twentieth of the run
REFERENCE_EVERY_S = 1.0
#: the first point, and one after a long numpy call held the timer back, take the median of several runs
REFERENCE_MAX_RUNS = 7
WORK = ROOT / ".perfbench"


def measure_setup(workload: str, seed: int, workdir: Path) -> float:
    samples = []
    for _ in range(SETUP_SAMPLES):
        probe = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), "--workload", workload,
             "--seed", str(seed), "--workdir", str(workdir)],
            capture_output=True, text=True, timeout=120,
        )
        if probe.returncode != 0:
            sys.stderr.write(probe.stderr)
            raise SystemExit(f"set-up probe exited with {probe.returncode}")
        samples.append(float(probe.stdout.split()[-1]))
    return statistics.median(samples)


def reference_point(gap: float) -> float:
    """Median time of the reference computation, run once per REFERENCE_EVERY_S of `gap`.

    `gap` is the time since the last point. It exceeds REFERENCE_EVERY_S when
    a long numpy call held back the timer, and such a point, which stands for
    all of that call, gets more runs.
    """
    runs = max(1, round(min(gap / REFERENCE_EVERY_S, REFERENCE_MAX_RUNS)))
    return statistics.median(reference.seconds() for _ in range(runs))


class ReferenceClock:
    """Takes a reference point when entered, when left, and about every REFERENCE_EVERY_S between.

    A one-shot SIGALRM timer, armed again after each point, takes the points
    between. Python runs the handler between two bytecodes of whatever is
    running, so points fall inside long items as well as between items. Each
    point is (start, end, median reference seconds).
    """

    def __init__(self):
        self.points = []
        self.armed = False

    def _take(self):
        t0 = time.perf_counter()
        value = reference_point(t0 - self.points[-1][1] if self.points else math.inf)
        self.points.append((t0, time.perf_counter(), value))

    def _on_alarm(self, signum, frame):
        if self.armed:
            self._take()
            signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S)

    def __enter__(self):
        self._take()
        self.previous = signal.signal(signal.SIGALRM, self._on_alarm)
        self.armed = True
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        self.armed = False
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self.previous)
        self._take()

    def attach(self, item) -> float:
        """Take the points inside the item's timed call out of its time; return the reference around it.

        The reference around an item is the mean of the points inside it and
        of the last point before it and the first after it. An item that
        crashed has none.
        """
        if not math.isfinite(item.start):
            return math.nan
        inside = [p for p in self.points if p[0] < item.end and p[1] > item.start]
        item.paused = sum(min(end, item.end) - max(start, item.start) for start, end, _ in inside)
        before = [p for p in self.points if p[1] <= item.start][-1:]
        after = [p for p in self.points if p[0] >= item.end][:1]
        return statistics.mean(value for _, _, value in before + inside + after)


def run_items(tasks: list, seconds: float) -> list:
    """Run the items in turn, pass after pass, while the next is expected to end within `seconds`.

    At least one whole pass runs. Going item by item, not pass by pass, leaves
    less of the time unused.
    """
    items, last = [], {}
    start = time.perf_counter()
    for k in itertools.count():
        label, task = tasks[k % len(tasks)]
        t0 = time.perf_counter()
        if k >= len(tasks) and t0 - start + last[label] > seconds:
            return items
        items.append(task())
        last[label] = time.perf_counter() - t0


def relative_pass(items: list, refs: list) -> float:
    """One pass in units of the reference: the sum over items of each one's median relative time.

    An item's relative time is its time over the reference around it, so that
    a drift in the host's speed cancels. An item that never finished adds
    nothing; it already fails the run.
    """
    ratios = {}
    for item, ref in zip(items, refs):
        if math.isfinite(item.seconds):
            ratios.setdefault(item.label, []).append(item.seconds / ref)
    return sum(statistics.median(r) for r in ratios.values())


def blas_threads():
    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for lib in libs:
        dll = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(dll, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return f"unknown (OPENBLAS_NUM_THREADS={os.environ['OPENBLAS_NUM_THREADS']})"


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        git = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, timeout=30)
        commit = git.stdout.strip() or commit
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(),
        "commit": commit,
    }


def tail(values: list):
    """The highest sample with at least ten samples beyond it, with its percentile.

    None below 21 samples, where that sample would sit at or below the median.
    """
    if len(values) < 21:
        return None
    ordered = sorted(values)
    return ordered[-11], 100.0 * (len(values) - 10) / len(values)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import blaschkeops

    if not Path(blaschkeops.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"blaschkeops was imported from {blaschkeops.__file__}, not from this checkout")
    import tracing
    import workloads

    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    workdir = WORK / f"work-{args.workload}-{os.getpid()}"
    try:
        setup_s = measure_setup(args.workload, args.seed, workdir)
        workload = workloads.make(args.workload, args.seed, workdir)
        tasks = workload.tasks()
        with ReferenceClock() as clock:
            items = run_items(tasks, args.seconds)
        refs = [clock.attach(item) for item in items]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        traced = None
        if args.trace:
            tracer = tracing.Tracer()
            with tracing.installed(tracer):
                traced_items = workloads.run_pass(workload, tracer)
            traced = (sum(item.seconds for item in traced_items), traced_items)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    all_items = items + (traced[1] if traced else [])
    problems = [msg for item in all_items for msg in item.check_failures]

    # the certified bytes of each product must not change between passes, traced or not
    first = {}
    for item in all_items:
        if item.payload is not None and first.setdefault(item.label, item.payload) != item.payload:
            problems.append(f"{item.label}: verify payload differs between passes")

    # whole passes only: a part pass would weigh its items more than the others
    whole = items[:len(items) // len(tasks) * len(tasks)]
    walls = [sum(item.seconds for item in whole[k:k + len(tasks)]) for k in range(0, len(whole), len(tasks))]
    attempted = sum(item.attempted for item in whole)
    failed_ops = sum(item.failed for item in whole)
    times = [item.seconds for item in items if math.isfinite(item.seconds)]
    # the lower median: half the CLI commands are cheap and half are not, so the
    # mean of the two middle items would fall in the gap between the two groups
    item_p50_s = statistics.median_low(times)
    wall_s = statistics.median(walls)
    wall_rel = relative_pass(items, refs)
    lines = [
        f"workload {args.workload}  seed {args.seed}  passes {len(walls)}  items {len(items)}",
        f"setup_s {setup_s:.4f} s  (median of {SETUP_SAMPLES} fresh interpreters)",
        f"wall_s {wall_s:.4f} s  (median over passes; passes took {', '.join(f'{w:.3f}' for w in walls)})",
        f"wall_rel {wall_rel:.4f} ratio  (one pass, each item at its median time over the reference time around it)",
        f"reference_s {statistics.median(v for _, _, v in clock.points):.5f} s  "
        f"(median of {len(clock.points)} reference points)",
        f"item_p50_s {item_p50_s:.4f} s  (lower median of {len(times)} items)",
    ]
    t = tail(times)
    lines.append(f"item_tail_s {t[0]:.4f} s  (p{t[1]:.0f} of {len(times)} items)" if t else
                 f"item_tail_s omitted: {len(times)} items, a tail needs at least 21")
    lines.append(f"failed_frac {failed_ops / attempted:.4f} ratio  ({failed_ops}/{attempted})")
    if args.workload.startswith("verify"):
        certified = sum(item.certified_columns for item in items[:len(tasks)])
        lines.append(f"certified_columns {certified} count  (per pass)")
    lines.append(f"peak_rss_mb {peak_rss_mb:.1f} MB")
    lines.append(f"pass_frac {1 - failed_ops / attempted:.4f} ratio")
    lines.append(f"items per pass {len(tasks)}; environment {json.dumps(environment())}")

    if traced:
        relations = blaschkeops.RELATIONS
        metrics = tracing.layer_metrics(tracer, relations)
        metrics["verify.certified_columns"] = (sum(item.certified_columns for item in traced[1]), "count")
        metrics["bench.trace_overhead_s"] = (traced[0] - wall_s, "s")
        missing = tracing.missing_spans(tracer, args.workload, relations)
        if missing:
            problems.append(f"no span recorded for {', '.join(missing)}")
        lines.append(f"traced pass {traced[0]:.4f} s, overhead {traced[0] - wall_s:+.4f} s, "
                     f"{len(tracer.spans)} spans")
        lines += [f"  {name} {value:.6g} {unit}" for name, (value, unit) in metrics.items()]
        WORK.mkdir(exist_ok=True)
        with open(WORK / f"spans-{args.workload}.json", "w", encoding="utf-8") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "fields": ["name", "start", "end", "parent", "item"], "spans": tracer.spans}, fh)
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "wall_rel": (wall_rel, "ratio"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "pass_frac": (1 - failed_ops / attempted, "ratio"),
        }

    for msg in problems:
        sys.stderr.write(f"check failed: {msg}\n")
    print("\n".join(lines))
    result = {
        "correct": not problems,
        "attempted": sum(item.attempted for item in all_items),
        "failed": sum(item.broken for item in all_items),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

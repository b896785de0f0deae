"""Benchmark of hypfluct: one workload per process, run from the repository root.

    python3 perfbench/run.py --workload surface-many-small --seed 1 --seconds 30 --trace 0

Untraced (--trace 0), it reports the end-to-end metrics setup_s, wall_s,
peak_rss_mb and points_per_s; traced (--trace 1), the per-layer metrics.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

from time import perf_counter

START = perf_counter()  # set-up time counts from here

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path

# One thread for BLAS and OpenMP, set before numpy loads: the timings then do
# not depend on what else runs on another core.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

# Set-up is timed in this process and in this many fresh interpreters more;
# setup_s is the median.
SETUP_PROBES = 2


def import_program():
    """Import hypfluct from the checkout's src/, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    import hypfluct
    if Path(hypfluct.__file__).resolve().parent != SRC / "hypfluct":
        raise ImportError(f"hypfluct imported from {hypfluct.__file__}, not from {SRC}")
    import workloads
    return workloads


def probe_setup(workload: str, size: str) -> list:
    """Set-up time of SETUP_PROBES fresh interpreters, each measured as in main()."""
    times = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--size", size],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        times.append(float(proc.stdout))
    return times


def same(a, b) -> bool:
    """Bitwise equality of two operation outputs."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, np.ndarray):
        return (isinstance(b, np.ndarray) and a.shape == b.shape
                and a.tobytes() == b.tobytes())
    return a == b


class Measurement:
    """Timed rounds of one workload, and the pass/fail of every operation.

    Every round makes the same calls with the same inputs.  The outputs of
    round 0 are checked; every later round must reproduce them bit for bit.
    """

    def __init__(self, workload):
        self.workload = workload
        self.reference = None       # outputs of round 0
        self.problems = {}          # op key -> problems found in round 0
        self.attempted = 0
        self.failed = 0
        self.walls = []             # per round: seconds in timed calls
        self.rates = []             # per round: points / seconds in sampling calls
        self.traced_walls = []

    def round(self, tracer=None) -> None:
        outs, errors, wall, points, sampling_s = {}, {}, 0.0, 0.0, 0.0
        for op in self.workload.ops:
            span = tracer.open("op") if tracer else None
            t0 = perf_counter()
            try:
                outs[op.key] = op.call(outs)
            except Exception as exc:  # one failed operation; the run goes on
                errors[op.key] = f"{type(exc).__name__}: {exc}"
            dt = perf_counter() - t0
            if tracer:
                tracer.close(span)
            wall += dt
            if op.key in outs:
                pts = op.points(outs)
                if pts:
                    points += pts
                    sampling_s += dt
        self._score(outs, errors)
        if tracer:
            self.traced_walls.append(wall)
        else:
            self.walls.append(wall)
            if sampling_s > 0.0:
                self.rates.append(points / sampling_s)

    def _score(self, outs, errors) -> None:
        if self.reference is None:
            self.reference = outs
            for op in self.workload.ops:
                if op.key in errors:
                    self.problems[op.key] = [errors[op.key]]
                    continue
                try:
                    self.problems[op.key] = op.check(outs[op.key], outs)
                except Exception as exc:  # a check that cannot run fails its op
                    self.problems[op.key] = [f"check raised {type(exc).__name__}: {exc}"]
        for op in self.workload.ops:
            self.attempted += 1
            ok = (op.key in outs and not self.problems[op.key]
                  and same(outs[op.key], self.reference.get(op.key)))
            self.failed += not ok

    def report_problems(self) -> None:
        for key, problems in self.problems.items():
            for p in problems:
                print(f"FAILED {key}: {p}", file=sys.stderr)


def measure(m: Measurement, seconds: float, tracer=None) -> None:
    """Whole rounds for about `seconds`; with a tracer, plain and traced rounds alternate."""
    t_start = perf_counter()
    units = 0
    while True:
        m.round()
        if tracer:
            with tracer.installed():
                m.round(tracer)
        units += 1
        elapsed = perf_counter() - t_start
        if elapsed + elapsed / units > seconds:
            break


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="hypfluct benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny: every operation and check at a small size, for tests")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    try:
        workloads = import_program()
    except ImportError as exc:
        print(f"cannot import hypfluct from {SRC}: {exc}", file=sys.stderr)
        return 2
    wl = workloads.build(args.workload, args.seed, args.size)
    wl.setup()
    # from the start of this script until hypfluct is imported and every
    # lazy cache the workload uses is filled
    setup_s = perf_counter() - START
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    setup_times = [] if args.trace else [setup_s] + probe_setup(args.workload, args.size)

    import tracing
    m = Measurement(wl)
    tracer = tracing.Tracer() if args.trace else None
    measure(m, args.seconds, tracer)
    m.report_problems()

    correct = True
    if args.trace:
        tree_problems = tracer.problems()
        for p in tree_problems:
            print(f"TRACE: {p}", file=sys.stderr)
        correct = not tree_problems
        values = tracer.layer_metrics(len(m.traced_walls))
        values["tracing.overhead_s"] = (statistics.median(m.traced_walls)
                                        - statistics.median(m.walls))
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in tracing.metric_names()}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "wall_s": {"value": statistics.median(m.walls), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
            "points_per_s": {"value": statistics.median(m.rates), "unit": "1/s"},
        }
    result = {"correct": correct, "attempted": m.attempted, "failed": m.failed,
              "metrics": metrics}

    OUT.mkdir(exist_ok=True)
    stem = f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    detail = dict(result, rounds=len(m.walls), round_walls_s=m.walls,
                  traced_round_walls_s=m.traced_walls, setup_samples_s=setup_times)
    (OUT / f"{stem}.json").write_text(json.dumps(detail, indent=1))
    if tracer:
        tracer.save(OUT / f"trace-{stem}.npz")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Benchmark of the `phq` commands on three workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the program is imported from `src/`).  Each
workload is a single-process closed loop: the next op starts only after the
previous one returned.  It is set up several times (import of `phq`, input
generation from the seed, one untimed warm-up op), then measured over whole
passes of its ops, in a seed-shuffled order, until SECONDS have gone by.
Every op's output is checked; a wrong output or an exception counts as a
failed op.

With `--trace 0` it reports the end-to-end metrics, with `--trace 1` the
per-layer metrics of one untraced and then whole traced passes.  Every
metric is printed by name with its unit, and the last line of stdout is the
JSON result.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import inputs
import spans
from workloads import WORKLOADS, child_env, child_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

SETUP_REPEATS = 3
IMPORT_REPEATS = 15
COMMANDS = ("check", "invariants", "classify", "reduce", "construct")

# Every reported time is scaled to one reference machine speed.  The machine
# is shared: its speed switches between regimes about 1.7x apart, each
# lasting from a fraction of a second to many seconds, so whole runs of the
# same program differ by 20% and more.  A fixed kernel of exact rational
# arithmetic, which belongs to the benchmark and never calls phq, is timed
# just before and just after every timed call (each time as the median of
# three runs); the call's time is multiplied by REFERENCE_KERNEL_S / (the
# mean of those two kernel times).  The kernel and
# the constant define the unit of every time: changing either changes them
# all.
REFERENCE_KERNEL_S = 0.0009

# name, unit, better
END_TO_END = (
    ("setup_s", "s", "lower"),
    ("ops_per_s", "1/s", "higher"),
    *((f"{c}_s", "s", "lower") for c in COMMANDS),
    ("peak_rss_mb", "MB", "lower"),
    ("import_ms", "ms", "lower"),
)


def _per_layer_metrics():
    out = []
    for name in spans.SPAN_NAMES:
        out.append((f"{name}.calls", "count", "lower"))
        if name not in spans.CALLS_ONLY:
            out.append((f"{name}.self_ms", "ms", "lower"))
    out += [(f"{layer}.self_ms", "ms", "lower") for layer in spans.LAYERS]
    for name in spans.COUNTERS:
        unit = "bits" if name.endswith("bits") else "bytes" if name.endswith("bytes") else "count"
        out.append((name, unit, "lower"))
    out += [("trace_overhead", "ratio", "lower"), ("trace.coverage", "ratio", "higher")]
    return tuple(out)


PER_LAYER = _per_layer_metrics()


def _speed_kernel() -> Fraction:
    a = [Fraction(k % 7 - 3, 1 + k % 5) for k in range(40)]
    b = [Fraction(1 - k % 3, 1 + k % 2) for k in range(40)]
    total = Fraction(0)
    for _ in range(4):
        total += sum((x * y for x, y in zip(a, b)), Fraction(0))
    return total


def _kernel_seconds() -> float:
    """Median of three kernel runs: a single run is often far off."""
    times = []
    for _ in range(3):
        start = perf_counter()
        _speed_kernel()
        times.append(perf_counter() - start)
    return statistics.median(times)


class Speed:
    """Times calls and scales each to the reference machine speed."""

    def __init__(self):
        self.wall = 0.0
        self.scaled = 0.0

    def time(self, fn):
        """(fn's result, its wall seconds, its scaled seconds)."""
        before = _kernel_seconds()
        start = perf_counter()
        out = fn()
        wall = perf_counter() - start
        scaled = wall * 2 * REFERENCE_KERNEL_S / (before + _kernel_seconds())
        self.wall += wall
        self.scaled += scaled
        return out, wall, scaled


class Recorder:
    """Runs ops, times them, checks them and keeps every scaled sample."""

    def __init__(self, n_ops: int, speed: Speed):
        self.samples: list[list[float]] = [[] for _ in range(n_ops)]
        self.failed_ops: set[int] = set()
        self.attempted = 0
        self.failed = 0
        self.speed = speed

    def run(self, index: int, op, tracer=None):
        """(output, wall seconds, scaled seconds) of one op."""

        def call():
            if tracer is not None:
                tracer.active = True
            try:
                return op.run(), None
            except Exception as exc:  # a crashing op is a failed op, not a crashed benchmark
                return None, f"{type(exc).__name__}: {exc}"
            finally:
                if tracer is not None:
                    tracer.active = False

        (out, error), wall, scaled = self.speed.time(call)
        if error is None:
            error = op.gate(out)
        self.samples[index].append(scaled)
        self.attempted += 1
        if error is not None:
            self.failed += 1
            self.failed_ops.add(index)
            if self.failed <= 5:
                print(f"FAILED {op.command} {op.key}: {error}", file=sys.stderr)
        return out, wall, scaled


def measure_import(speed: Speed) -> tuple[float, float]:
    """Median ms of `python -c "import phq.cli"` and of a bare interpreter,
    alternated so that both see the same machine load."""
    env = child_env()
    bare, full = [], []
    for _ in range(IMPORT_REPEATS):
        for code, into in (("pass", bare), ("import phq.cli", full)):
            argv = [sys.executable, "-c", code]
            into.append(speed.time(lambda: subprocess.run(argv, cwd=ROOT, env=env, check=True))[2] * 1000)
    return statistics.median(full), statistics.median(bare)


def run_untraced(ops, order, seconds: float, rec: Recorder) -> int:
    """Whole first pass, then on until `seconds`; returns the complete passes."""
    start = perf_counter()
    passes = 0
    while True:
        for i in order:
            if passes and perf_counter() - start >= seconds:
                return passes
            rec.run(i, ops[i])
        passes += 1


def end_to_end(ops, rec: Recorder, passes: int, setup_s: float, in_process: bool) -> tuple[dict, list[str]]:
    medians = [statistics.median(s) for s in rec.samples]
    complete = [t * 1000 for s in rec.samples for t in s[:passes]]
    metrics = {
        "setup_s": (setup_s, "s"),
        "ops_per_s": ((len(ops) - len(rec.failed_ops)) / sum(medians), "1/s"),
    }
    for command in COMMANDS:
        metrics[f"{command}_s"] = (sum(m for m, op in zip(medians, ops) if op.command == command), "s")
    who = resource.RUSAGE_SELF if in_process else resource.RUSAGE_CHILDREN
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024, "MB")
    import_ms, bare_ms = measure_import(rec.speed)
    metrics["import_ms"] = (import_ms, "ms")

    notes = [
        f"op samples: {len(complete)} from {passes} complete passes of {len(ops)} ops",
        f"op_ms_p50 {statistics.median(complete)} ms",
    ]
    if len(complete) >= 100:
        notes.append(f"op_ms_p90 {statistics.quantiles(complete, n=10)[-1]} ms")
    else:
        notes.append("op_ms_p90 not reported: fewer than 10 samples lie beyond it")
    notes.append(f"fail_ratio {rec.failed / rec.attempted} ({rec.failed} of {rec.attempted} ops)")
    notes.append(f"python_start_ms {bare_ms} ms (bare interpreter, beside import_ms)")
    return metrics, notes


def run_traced(prep, order, seconds: float, rec: Recorder, import_s: float | None) -> tuple[dict, list[str]]:
    """Whole passes in which every op runs once untraced and once traced, in
    turn first, so that both see the same warm-up; as many passes as fit in
    `seconds`, at least one."""
    tracer = spans.Tracer()
    in_process = prep.traced_ops is None
    ops = prep.ops if in_process else prep.traced_ops
    passes = []
    start = perf_counter()
    if in_process:
        tracer.install()
    try:
        while not passes or (perf_counter() - start) * (len(passes) + 1) / len(passes) <= seconds:
            tracer.reset()
            wall = scaled = reference = 0.0
            for k, i in enumerate(order):
                if k % 2:
                    reference += rec.run(i, prep.ops[i])[2]
                out, w, s = rec.run(i, ops[i], tracer if in_process else None)
                wall, scaled = wall + w, scaled + s
                child = None if in_process or out is None else child_spans(out.stderr)
                if child is not None:
                    spans.merge(tracer.snapshot, child)
                if not k % 2:
                    reference += rec.run(i, prep.ops[i])[2]
            passes.append((tracer.reset(), wall, scaled, reference))
    finally:
        tracer.restore()

    rows = [_layer_metrics(*p, import_s) for p in passes]
    metrics = {name: (statistics.median(r[name] for r in rows), unit) for name, unit, _ in PER_LAYER}
    notes = [f"traced passes: {len(passes)}; untraced reference pass {statistics.median(p[3] for p in passes)} s"]
    return metrics, notes


def _layer_metrics(snap: dict, wall: float, scaled: float, reference: float, import_s: float | None) -> dict:
    """Per-layer metrics of one traced pass; span times scaled like the pass."""
    factor = scaled / wall
    span_self = {name: self_s * factor for name, (_, self_s) in snap["spans"].items()}
    out = {"trace.coverage": sum(span_self.values()) / scaled, "trace_overhead": scaled / reference}
    if import_s is not None:  # in-process: the process's one import, outside the passes
        snap["spans"][spans.IMPORT_SPAN][0] = 1
        span_self[spans.IMPORT_SPAN] = import_s
    for name, (calls, _) in snap["spans"].items():
        out[f"{name}.calls"] = calls
        out[f"{name}.self_ms"] = span_self[name] * 1000
    for layer in spans.LAYERS:
        out[f"{layer}.self_ms"] = 1000 * sum(v for k, v in span_self.items() if k.startswith(layer + "."))
    out.update(snap["counters"])
    return out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=("ladder_sparse", "catalog_dense", "cli_fixtures"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "phq" / "__init__.py").is_file() or not (ROOT / "fixtures").is_dir():
        print(f"error: no phq checkout at {ROOT} (needs src/phq and fixtures/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # One CPU for the run and every child it starts, so that the speed kernel
    # and the ops it brackets run where the op runs.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    golden = inputs.load_golden()
    setup = WORKLOADS[args.workload]
    speed = Speed()

    def set_up():
        prep = setup(args.seed, golden)
        prep.warmup.run()
        return prep

    setups = [speed.time(set_up) for _ in range(SETUP_REPEATS)]
    prep = setups[-1][0]
    in_process = prep.traced_ops is None
    if in_process and not Path(sys.modules["phq"].__file__).resolve().is_relative_to(ROOT / "src"):
        print("error: phq was not imported from this checkout's src/", file=sys.stderr)
        return 2

    order = list(range(len(prep.ops)))
    random.Random(f"order:{args.workload}:{args.seed}").shuffle(order)
    rec = Recorder(len(prep.ops), speed)
    if args.trace:
        import_s = statistics.median(p.import_s * s / w for p, w, s in setups) if in_process else None
        metrics, notes = run_traced(prep, order, args.seconds, rec, import_s)
    else:
        passes = run_untraced(prep.ops, order, args.seconds, rec)
        setup_s = statistics.median(s for _, _, s in setups)
        metrics, notes = end_to_end(prep.ops, rec, passes, setup_s, in_process)

    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds}  trace {args.trace}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} {value} {unit}")
    for line in notes:
        print(f"  {line}")
    print(f"  times are at reference speed; this run's wall times were {speed.wall / speed.scaled} x those")
    result = {
        "correct": rec.failed == 0,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

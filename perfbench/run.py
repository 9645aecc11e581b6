"""gyrokit benchmark harness.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload sweep-corpus --seed 1 --seconds 30 --trace 0

It imports gyrokit from ``src/`` of the checkout, builds the workload's
input sets from the seed (see ``workloads.py``), then runs timed passes, each
over one whole input set, until ``--seconds`` are used up.  Every pass parses the
inputs from ``.gyro`` text into fresh tables, so no cache survives from one
pass to the next, as for a command-line user.  Every answer is compared with
``reference.json``.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the raw times and the machine note.

With ``--trace 0`` the metrics are the end-to-end ones:

* ``wall_s``: seconds per pass, median over the run's passes, at reference
  speed (see below);
* ``setup_s``: importing gyrokit and building the inputs, median of
  ``SETUP_REPEATS`` fresh imports, at reference speed;
* ``peak_rss_mb``: peak resident memory of the process, in MiB;
* ``success_rate``: operations (tables or orders) whose answer matched the
  reference and raised nothing, divided by operations attempted.

Reference speed.  On shared hosts the speed of a CPU drifts by up to 1.6x
over seconds to minutes (for example, load on a sibling hyperthread), which
moves raw medians of 30-second runs by more than any regression bound.  So
while an interval is timed, ``SpeedSampler`` runs a fixed pure-Python loop
every ``SAMPLE_INTERVAL_S`` of wall time, and the interval's time (less the
loop's own) is scaled by ``REFERENCE_LOOP_S`` over the median loop time
seen during it: the seconds the interval would take on a machine where the
loop takes ``REFERENCE_LOOP_S``.  The raw seconds are printed beside.

With ``--trace 1`` untraced and traced passes alternate, without sampling;
the metrics are the per-layer ones of ``spans.layer_metrics`` (medians over
traced passes, raw seconds) and ``trace_overhead``, the traced median pass
time divided by the untraced one.  The spans of the last traced pass go to
``.perfbench_out/``.

The machine note (CPU count, Python, platform and the median time of the
calibration loop) is printed with every result.

Regenerate ``reference.json`` with ``python3 perfbench/run.py --record``;
answers are recorded in the original labels, so one file serves every seed.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import signal
import statistics
import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
OUT_DIR = ROOT / ".perfbench_out"

MODULES = ("core", "gyrofile", "catalog", "substructure", "normality", "commutator",
           "nuclei", "prime_index", "search", "sweep", "cli")
SETUP_REPEATS = 9
CALIBRATION_ITERATIONS = 20_000
SAMPLE_INTERVAL_S = 0.1
# About the calibration loop's time on a 2-vCPU Xeon VM under CPython 3.11;
# it only sets the scale of the reported seconds.
REFERENCE_LOOP_S = 0.0015

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MiB", "success_rate": "ratio"}


def import_gyrokit() -> types.SimpleNamespace:
    """Import every gyrokit module afresh (dropping earlier imports)."""
    for name in [m for m in sys.modules if m == "gyrokit" or m.startswith("gyrokit.")]:
        del sys.modules[name]
    return types.SimpleNamespace(**{m: importlib.import_module(f"gyrokit.{m}") for m in MODULES})


def calibration_loop() -> float:
    """Seconds for a fixed pure-Python loop, a sample of the machine's speed."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_ITERATIONS):
        acc += i * i % 7
    return time.perf_counter() - t0


class SpeedSampler:
    """Times a call while sampling the calibration loop before, after, and
    every ``SAMPLE_INTERVAL_S`` during it (from a SIGALRM handler)."""

    def __init__(self):
        self.samples: list[float] = []
        self._spent = 0.0

    def _tick(self, signum, frame):
        t0 = time.perf_counter()
        self.samples.append(calibration_loop())
        self._spent += time.perf_counter() - t0

    def measure(self, fn):
        """Returns (fn's result, raw seconds, seconds at reference speed)."""
        first = len(self.samples)
        self.samples.append(calibration_loop())
        self._spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        t0 = time.perf_counter()
        try:
            result = fn()
        finally:
            elapsed = time.perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        self.samples.append(calibration_loop())
        raw = elapsed - self._spent
        return result, raw, raw * REFERENCE_LOOP_S / statistics.median(self.samples[first:])


def machine_note(calibration: list[float]) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "calibration_loop_s": statistics.median(calibration),
        "calibration_samples": len(calibration),
    }


def run_pass(workload, gk, inputs):
    """One pass, or the exception it raised.  Garbage from earlier passes is
    collected first, so each pass starts like a fresh command."""
    gc.collect()
    try:
        return workload.run_pass(gk, inputs)
    except Exception as exc:  # a failed pass is counted, not fatal
        print(f"pass failed: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc


def setup_once(workload, seed: int):
    gk = import_gyrokit()
    return gk, workload.make_inputs(gk, seed)  # one input set per pass, in turn


def run(workload_name: str, seed: int, seconds: float, trace: bool) -> dict:
    workload = WORKLOADS[workload_name]
    reference = json.loads(REFERENCE.read_text())[workload_name]
    sampler = SpeedSampler()
    setup_raw, setup_ref = [], []
    for _ in range(SETUP_REPEATS):
        (gk, variants), raw, ref = sampler.measure(lambda: setup_once(workload, seed))
        setup_raw.append(raw)
        setup_ref.append(ref)

    tracer = Tracer() if trace else None
    untraced_raw, untraced_ref, traced_raw, per_pass = [], [], [], []
    attempted = failed = 0
    last_spans: list = []
    min_passes = 4 if trace else 3  # a traced run needs two passes of each kind
    deadline = time.perf_counter() + seconds
    while True:
        done = untraced_raw + traced_raw
        estimate = statistics.median(done) if done else 0.0
        if len(done) >= min_passes and time.perf_counter() + estimate > deadline:
            break
        if trace and len(traced_raw) < len(untraced_raw):
            inputs = variants[len(traced_raw) % len(variants)]  # as the untraced pass before
            tracer.reset()
            tracer.install()
            try:
                t0 = time.perf_counter()
                results = run_pass(workload, gk, inputs)
                traced_raw.append(time.perf_counter() - t0)
            finally:
                tracer.uninstall()
            per_pass.append(layer_metrics(tracer.spans, tracer.pass_counts()))
            last_spans = tracer.spans
        elif trace:
            inputs = variants[len(untraced_raw) % len(variants)]
            t0 = time.perf_counter()
            results = run_pass(workload, gk, inputs)
            untraced_raw.append(time.perf_counter() - t0)
        else:
            inputs = variants[len(untraced_raw) % len(variants)]
            results, raw, ref = sampler.measure(lambda: run_pass(workload, gk, inputs))
            untraced_raw.append(raw)
            untraced_ref.append(ref)
        # answers are checked after the clock stops
        if isinstance(results, Exception):
            attempted, failed = attempted + len(inputs), failed + len(inputs)
        else:
            a, f = count_failures(workload, inputs, results, reference)
            attempted, failed = attempted + a, failed + f

    if trace:
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        metrics["trace_overhead"] = statistics.median(traced_raw) / statistics.median(untraced_raw)
        units = {name: layer_unit(name) for name in metrics}
    else:
        metrics = {
            "wall_s": statistics.median(untraced_ref),
            "setup_s": statistics.median(setup_ref),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
            "success_rate": (attempted - failed) / attempted,
        }
        units = END_TO_END_UNITS

    detail = {
        "workload": workload_name,
        "seed": seed,
        "trace": trace,
        "machine": machine_note(sampler.samples),
        "setup_raw_s": setup_raw,
        "untraced_pass_raw_s": untraced_raw,
        "traced_pass_raw_s": traced_raw,
    }
    print(json.dumps(detail))
    OUT_DIR.mkdir(exist_ok=True)
    with (OUT_DIR / f"{workload_name}-trace{int(trace)}.jsonl").open("w") as fh:
        fh.write(json.dumps(detail) + "\n")
        for span in last_spans:
            fh.write(json.dumps(span) + "\n")

    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio") or name == "trace_overhead":
        return "ratio"
    if name.endswith("_rate"):
        return "1/s"
    return "count"


def record() -> dict:
    """Answers of every workload on the original labels, for reference.json."""
    reference = {}
    for name, workload in WORKLOADS.items():
        gk = import_gyrokit()
        inputs = workload.make_inputs(gk, None)[0]
        reference[name] = workload.answers(inputs, workload.run_pass(gk, inputs))
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="rewrite reference.json")
    args = parser.parse_args(argv)
    if not (SRC / "gyrokit" / "__init__.py").is_file():
        print(f"error: no gyrokit sources at {SRC}", file=sys.stderr)
        return 2
    if args.record:
        REFERENCE.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    print(json.dumps(run(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


sys.path[:0] = [str(HERE), str(SRC)]

from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, count_failures  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())

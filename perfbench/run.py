#!/usr/bin/env python3
"""The repository's benchmark: family-based against product-based analysis.

    python3 perfbench/run.py --workload taxi|wide|corpus --seed N \\
        --seconds S --trace 0|1

Run from the repository root.  One process, one thread, one caller in a
closed loop.  After the set-up (timed several times) it repeats rounds
until ``--seconds`` have passed; a round has passes of each operation over
all of the workload's inputs -- ``analyze_family``, ``analyze_products``,
the ``analyze`` command in-process, and ``check_model`` -- repeated until
the operation has taken a second, with the calibration kernel sampled
during every pass.  Every output is checked against the
independent oracle outside the timed region.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end ones (medians over the run's passes, in reference-speed
seconds); with ``--trace 1`` they are per-layer self times and counts taken
from spans around the program's entry points (see README.md).  The line
before it holds the raw seconds and the calibration times.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
SAMPLE_S = 0.1  # interval between calibration samples inside a timed block
MIN_OP_S = 1.0  # a round repeats the pass of a quick operation up to this


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("taxi", "wide", "corpus"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Meter:
    """Raw and reference-speed seconds of timed blocks.

    While a block runs, a timer signal interrupts it every ``interval``
    seconds to time one calibration kernel; the kernel's own time is cut out
    of the block, and each slice of the block between two samples is
    normalised by the mean of those two samples.  With ``interval`` None
    the kernel runs only before and after the block (used when tracing, so
    that no kernel lands inside a span).
    """

    def __init__(self, calibrate, interval):
        self.calibrate = calibrate
        self.interval = interval
        self.kernels: list = []
        if interval:
            signal.signal(signal.SIGALRM, self._on_alarm)

    def _sample(self) -> tuple:
        start = time.perf_counter()
        self.calibrate.kernel()
        end = time.perf_counter()
        self.kernels.append(end - start)
        return start, end

    def _slice(self, end: float, start: float, kernel_end: float) -> None:
        """Close the slice resume..end with the sample start..kernel_end."""
        seconds = end - self.resume
        k = kernel_end - start
        self.raw += seconds
        self.norm += seconds * self.calibrate.NOMINAL_S * 2 / (self.k + k)
        self.k = k
        self.resume = kernel_end

    def _on_alarm(self, signum, frame) -> None:
        start, end = self._sample()
        self._slice(start, start, end)

    def start(self) -> None:
        gc.collect()
        start, end = self._sample()
        self.k = end - start
        self.raw = self.norm = 0.0
        self.resume = time.perf_counter()
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)

    def stop(self) -> tuple:
        if self.interval:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.perf_counter()
        start, kernel_end = self._sample()
        self._slice(end, start, kernel_end)
        return self.raw, self.norm


def main(argv=None) -> int:
    args = _args(argv)
    if not (ROOT / "src" / "wfts" / "__init__.py").is_file():
        print(f"perfbench: no program sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import calibrate
    import workloads
    from spans import CALLS, COUNTS, SELF_TIMES, Tracer

    out_dir = HERE / ".run" / f"{args.workload}-{os.getpid()}"
    tracer = Tracer() if args.trace else None
    meter = Meter(calibrate, None if tracer else SAMPLE_S)
    # A traced round is one pass of each operation, so that its layer sums
    # do not depend on the machine's speed.
    min_op_s = 0.0 if tracer else MIN_OP_S
    raw: dict = {key: [] for key in ("setup",) + workloads.OPERATIONS}
    norm: dict = {key: [] for key in raw}
    units: dict = {"setup": [], "round": []}
    extra: dict = {"family.untraced_s": [], "family.traced_s": [], "family.unattributed_s": []}
    attempted = failed = rounds = 0

    def timed(op, fn, *fn_args):
        meter.start()
        span = tracer.open(f"pass.{op}") if tracer else None
        result = fn(*fn_args)
        if tracer:
            tracer.close(span)
        seconds, reference = meter.stop()
        raw[op].append(seconds)
        norm[op].append(reference)
        return result

    def setup():
        return workloads.setup(args.workload, args.seed, out_dir, tracer=tracer)

    try:
        setup()  # warm-up: bytecode compiled, file caches filled
        if tracer:
            tracer.forget_kept()
        for _ in range(SETUP_REPS):
            first = len(tracer.spans) if tracer else 0
            inp = timed("setup", setup)
            if tracer:
                factor = norm["setup"][-1] / raw["setup"][-1]
                units["setup"].append(_scaled(tracer.summary(first, len(tracer.spans)), factor))
                tracer.forget_kept()
        checker = workloads.Checker(args.workload, inp)
        deadline = time.perf_counter() + args.seconds
        while True:
            if tracer:
                tracer.uninstall()
                meter.start()
                results = workloads.run_pass("family", inp)
                untraced = meter.stop()[1]
                attempted += len(results)
                failed += checker.check("family", results)
                tracer.install()
            first = len(tracer.spans) if tracer else 0
            for op in workloads.OPERATIONS:
                spent = 0.0
                while True:
                    results = timed(op, workloads.run_pass, op, inp)
                    attempted += len(results)
                    failed += checker.check(op, results)
                    spent += raw[op][-1]
                    if spent >= min_op_s:
                        break
            if tracer:
                factor = (sum(norm[op][-1] for op in workloads.OPERATIONS)
                          / sum(raw[op][-1] for op in workloads.OPERATIONS))
                summary = _scaled(tracer.summary(first, len(tracer.spans)), factor)
                tracer.forget_kept()
                units["round"].append(summary)
                extra["family.untraced_s"].append(untraced)
                extra["family.traced_s"].append(norm["family"][-1])
                extra["family.unattributed_s"].append(summary["pass.family.self_s"])
            rounds += 1
            if time.perf_counter() >= deadline:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer:
            tracer.uninstall()
            tracer.dump(HERE / ".run" / f"trace-{args.workload}-{args.seed}.json",
                        {"workload": args.workload, "seed": args.seed})
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        shutil.rmtree(out_dir, ignore_errors=True)

    for line in checker.failures + checker.errors:
        print(f"perfbench: {line}", file=sys.stderr)
    med = statistics.median
    if tracer:
        metrics = {}
        for name in SELF_TIMES:
            metrics[f"{name}.self_s"] = (_layer(units, f"{name}.self_s"), "s")
        for name in CALLS:
            metrics[f"{name}.calls"] = (_layer(units, f"{name}.calls"), "count")
        for name in COUNTS:
            metrics[name] = (_layer(units, name), "count")
        for name, values in extra.items():
            metrics[name] = (med(values), "s")
        if tracer.missing:
            print(f"perfbench: missing layers (reported as 0): {sorted(tracer.missing)}")
    else:
        metrics = {f"{op}_s": (med(norm[op]), "s") for op in workloads.OPERATIONS}
        metrics["setup_s"] = (med(norm["setup"]), "s")
        metrics["peak_rss_mb"] = (peak_rss_mb, "MB")
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "rounds": rounds, "nominal_s": calibrate.NOMINAL_S,
                      "raw_s": raw, "reference_s": norm, "calibration_s": meter.kernels}))
    print(json.dumps({
        "correct": not checker.failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def _scaled(summary: dict, factor: float) -> dict:
    return {k: v * factor if k.endswith("_s") else v for k, v in summary.items()}


def _layer(units: dict, key: str) -> float:
    """Median over set-ups plus median over rounds: one set-up and one round."""
    return sum(statistics.median(u.get(key, 0) for u in units[kind])
               for kind in ("setup", "round") if units[kind])


if __name__ == "__main__":
    sys.exit(main())

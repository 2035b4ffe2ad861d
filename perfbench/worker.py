"""One workload in its own process: set up, then time or trace its ops.

Started by ``run.py``; not meant to be run by hand.  The process imports
polscissors from the checkout's ``src/``, builds the seeded inputs and runs one
untimed warm-up op, then reports how long that took since ``--spawned-at``
(the parent's ``time.monotonic()`` just before it started this process).

Modes:
  setup  stop after set-up.
  run    time the workload's number of whole cycles for ``--seconds``.
  trace  time ``trace_cycles`` cycles untraced, then the same ops with the
         tracer installed; report per-layer totals and write the spans.

The last line on stdout is one JSON object with the results.
"""

from __future__ import annotations

import argparse
import functools
import json
import resource
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"

# Keys in and out of project_number for the ROADMAP herald-waste counts at
# delta 2.0, phi 0, t0 0.5: (method, knob) -> (keys_in, keys_out).
HERALD_WASTE = {("pqs1", 0.9): (124384, 2444), ("pqs2", 0.07): (75974, 110)}


def _import_library() -> None:
    """Import polscissors from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import polscissors

    if Path(polscissors.__file__).resolve().parent != SRC / "polscissors":
        raise ImportError(f"polscissors imported from {polscissors.__file__}, not {SRC}")


def _small_kernel() -> None:
    amps: dict = {}
    total = 0
    for i in range(3000):
        key = (i & 63, (i >> 6) & 63)
        amps[key] = amps.get(key, 0j) + complex(i, 1) * 0.5
        total += i * i


def _large_kernel() -> None:
    amps: dict = {}
    for i in range(20000):
        amps[((i & 31, (i >> 5) & 31), ((i >> 10) & 31, 1))] = complex(i, 1) * 0.5
    out: dict = {}
    for ((p, q), (r, s)), amp in amps.items():
        key = ((q, p), (r + 1, s))
        out[key] = out.get(key, 0j) + amp * 0.7


# Calibration kernels: fixed pure-Python loops that use no polscissors code.
# Like the simulator they update dicts of tuple keys with complex amplitudes,
# so a CPU shared with other processes slows them about as much as the ops.
# "small" (a few ms, a cache-sized dict) suits workloads of small states;
# "large" (tens of ms, ~20k nested-tuple keys mapped into a second dict)
# outgrows the core's private caches as large states do.  Each kind runs one
# pass per CAL_EVERY_S of op time.
KERNELS = {"small": _small_kernel, "large": _large_kernel}
CAL_EVERY_S = {"small": 0.1, "large": 0.3}
SETUP_CALIBRATIONS = {"small": 20, "large": 5}


def calibrate(kind: str) -> float:
    """Time one pass of the ``kind`` calibration kernel."""
    start = time.perf_counter()
    KERNELS[kind]()
    return time.perf_counter() - start


class Runner:
    """Runs ops, times each one and applies its correctness gate.

    With ``calibration`` set to a kernel kind, passes of it run before every
    op, one per ``CAL_EVERY_S`` of the previous op's time (at least one), so
    the samples are spread over the timed phase in proportion to time.  Each
    op's start and each pass's midpoint are kept on one clock, so every op can
    be set against the passes around it.
    """

    def __init__(self, workload, op=None, calibration: str | None = None):
        self.workload = workload
        self.op = op or workload.op
        self.calibration = calibration
        self.cal_at: list[float] = []
        self.cal_times: list[float] = []
        self.starts: list[float] = []
        self.times: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.max_dev = 0.0
        self.first_error: str | None = None

    def run(self, items, tracer=None, label: str = "") -> float:
        """Run the ops in ``items``; return their summed wall time."""
        total = 0.0
        for index, item in enumerate(items):
            if tracer is not None:
                tracer.op = f"{label}{index}"
            self.attempted += 1
            if self.calibration:
                self.calibrate()
            start = time.perf_counter()
            try:
                out = self.op(item)
            except Exception:
                elapsed = time.perf_counter() - start
                self._fail(traceback.format_exc())
            else:
                elapsed = time.perf_counter() - start
                ok, dev = self.workload.check(item, out)
                self.max_dev = max(self.max_dev, dev)
                if not ok:
                    self._fail(f"check failed on {item!r}: deviation {dev:.3e}")
            self.starts.append(start)
            self.times.append(elapsed)
            total += elapsed
        return total

    def calibrate(self) -> None:
        """Run the passes due for the previous op's time (one before the first op)."""
        passes = 1 + int(self.times[-1] / CAL_EVERY_S[self.calibration]) if self.times else 1
        for _ in range(passes):
            took = calibrate(self.calibration)
            self.cal_at.append(time.perf_counter() - took / 2)
            self.cal_times.append(took)

    def _fail(self, detail: str) -> None:
        self.failed += 1
        if self.first_error is None:
            self.first_error = detail
            print(detail, file=sys.stderr)

    def summary(self) -> dict:
        return {
            "attempted": self.attempted,
            "failed": self.failed,
            "max_abs_dev": self.max_dev,
            "first_error": self.first_error,
        }


def _timed(workload, seconds: float) -> dict:
    runner = Runner(workload, calibration=workload.calibration)
    start = time.perf_counter()
    for _ in range(max(1, round(seconds / workload.cycle_s))):
        runner.run(workload.cycle())
    runner.calibrate()  # the passes after the last op
    wall = time.perf_counter() - start
    return {
        **runner.summary(),
        "op_start_s": runner.starts,
        "op_times_s": runner.times,
        "cal_at_s": runner.cal_at,
        "cal_times_s": runner.cal_times,
        "wall_s": wall,
    }


def _herald_waste(tracer_mod) -> dict:
    """Keys around project_number for the ROADMAP herald-waste points."""
    from polscissors import preparations

    found = {}
    for (method, knob), expected in HERALD_WASTE.items():
        with tracer_mod.Tracer().install() as tr:
            preparations.prepare_bell(method, 2.0, 0.0, 0.5, knob)
        totals, _ = tracer_mod.aggregate(tr.spans)
        pn = totals["fock.project_number"]
        found[f"bell-{method}"] = {
            "keys_in": pn.keys_in,
            "keys_out": pn.keys_out,
            "expected": list(expected),
            "exact": (pn.keys_in, pn.keys_out) == expected,
        }
    return found


def _traced(workload, workload_mod, seed: int) -> dict:
    import layers
    import tracer as tracer_mod

    items = [x for _ in range(workload.trace_cycles) for x in workload.cycle()]
    serial_op = functools.partial(workload.op, jobs=1) if workload.pooled else workload.op
    plain = Runner(workload)
    untraced_s = plain.run(items)
    pool = None
    if workload.pooled:
        serial = Runner(workload, serial_op)
        serial_s = serial.run(items)
        pool = {"serial_s": serial_s, "jobs2_s": untraced_s}
        untraced_s = serial_s
    traced = Runner(workload, serial_op)
    with tracer_mod.Tracer().install(bench_modules=(workload_mod,)) as tr:
        traced_s = traced.run(items, tracer=tr, label=f"{workload.name}:")
    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload.name}-seed{seed}.jsonl"
    tr.write_jsonl(str(spans_path))
    totals, max_keys = tracer_mod.aggregate(tr.spans)
    metrics = layers.per_layer_metrics(
        totals, max_keys, pool, overhead_frac=traced_s / untraced_s - 1.0
    )
    herald = _herald_waste(tracer_mod)
    summary = traced.summary()
    summary["attempted"] += plain.attempted
    summary["failed"] += plain.failed
    summary["max_abs_dev"] = max(summary["max_abs_dev"], plain.max_dev)
    return {
        **summary,
        "metrics": metrics,
        "herald_waste": herald,
        "herald_exact": all(h["exact"] for h in herald.values()),
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "pool": pool,
        "spans": len(tr.spans),
        "spans_file": str(spans_path.relative_to(ROOT)),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--mode", choices=("setup", "run", "trace"), required=True)
    parser.add_argument("--spawned-at", type=float, required=True)
    args = parser.parse_args(argv)

    _import_library()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed)
    warm = workload.warmup()
    ok, dev = workload.check(warm, workload.op(warm))
    if not ok:
        print(f"warm-up op failed its check on {warm!r}: deviation {dev:.3e}", file=sys.stderr)
        return 1
    result: dict = {"setup_s": time.monotonic() - args.spawned_at, "calibration": workload.calibration}
    kind = workload.calibration
    calibrate(kind)  # the first pass in a process runs slow while its allocations warm up
    result["setup_cal_s"] = [calibrate(kind) for _ in range(SETUP_CALIBRATIONS[kind])]
    if args.mode == "run":
        result.update(_timed(workload, args.seconds))
    elif args.mode == "trace":
        result.update(_traced(workload, workloads, args.seed))
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""polscissors benchmark: end-to-end metrics per workload, or per-layer with --trace 1.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1        # every workload

Each workload runs in its own worker process (``worker.py``), which imports
polscissors from ``src/``, so ``peak_rss_mb`` is that process's ``ru_maxrss``.
``--trace 0`` starts the worker ``SETUP_REPS`` times; ``setup_s`` is the
median time from process start until its inputs are built and one untimed
warm-up op has run, and the last start goes on to time the workload's fixed
number of whole cycles of ops, sized to last about ``--seconds``.
``--trace 1`` runs one worker that times a fixed number of cycles untraced
and then traced, and reports the per-layer metrics of ``layers.py``.

Times are reported at a reference CPU speed.  On a CPU shared with other
processes the speed of the same code drifts by tens of percent over seconds,
which would swamp any change worth measuring.  So the worker runs passes of a
fixed calibration kernel (pure Python, no polscissors code) between ops, and
each op's wall time is scaled by ``REF_CAL_S`` over the mean time of the
passes within ``CAL_WINDOW_S`` of it; set-up times are scaled by the passes
run right after set-up.  A change to polscissors moves the ops and not the
kernel, so it shows in full; raw wall times are kept in the run record.

Every op passes a correctness gate (``workloads.py``).  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  The
exit code is 0 only when every op and check passed; the full record of a run,
op times included, is written under ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench_out"
WORKLOADS = ("verify", "sweep-numeric", "sweep-analytic", "source-circuits")
SETUP_REPS = 5
TAIL_BEYOND = 10
# Reference speed: every reported time is scaled to a CPU on which one pass
# of each ``worker.calibrate()`` kernel takes this long (see ``speed_factor``).
REF_CAL_S = {"small": 0.002, "large": 0.03}
CAL_WINDOW_S = 1.0
DEADLINE_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


class WorkerError(RuntimeError):
    pass


def tail_percentile(times: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float, int]:
    """Highest percentile with at least ``beyond`` ops above it.

    Returns (value, percentile, ops above it).  With ``beyond`` or fewer ops
    there is no such percentile, and the maximum is returned with the count of
    ops above it (0), so the shortfall shows.
    """
    ordered = sorted(times)
    n = len(ordered)
    k = n - beyond - 1 if n > beyond else n - 1
    value = ordered[k]
    above = sum(1 for t in ordered if t > value)
    return value, 100.0 * (k + 1) / n, above


def speed_factor(kind: str, cal_times: list[float]) -> float:
    """Scale that converts times measured alongside ``cal_times`` to reference speed."""
    return REF_CAL_S[kind] / statistics.fmean(cal_times)


def op_factors(run: dict, window: float = CAL_WINDOW_S) -> list[float]:
    """Per-op speed factor from the calibration passes within ``window`` of the op.

    The CPU's speed drifts over seconds when other processes share it, so each
    op is scaled by the passes run around it, not by the run's average.
    """
    at, took = run["cal_at_s"], run["cal_times_s"]
    factors = []
    for start, dur in zip(run["op_start_s"], run["op_times_s"]):
        lo = bisect.bisect_left(at, start - window)
        hi = bisect.bisect_right(at, start + dur + window)
        factors.append(speed_factor(run["calibration"], took[lo:hi]))
    return factors


def end_to_end(setups: list[dict], run: dict) -> tuple[dict[str, float], dict]:
    """End-to-end metric values at reference speed, and the details printed beside them."""
    setup_times = [w["setup_s"] * speed_factor(w["calibration"], w["setup_cal_s"]) for w in setups]
    factors = op_factors(run)
    raw = run["op_times_s"]
    times = [t * f for t, f in zip(raw, factors)]
    tail, pct, above = tail_percentile(times)
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": len(times) / sum(times),
        "op_p50_ms": 1000.0 * statistics.median(times),
        "op_tail_ms": 1000.0 * tail,
        "peak_rss_mb": run["peak_rss_mb"],
    }
    details = {
        "ops": len(times),
        "op_tail_percentile": pct,
        "op_tail_ops_above": above,
        "fail_frac": run["failed"] / run["attempted"],
        "check.max_abs_dev": run["max_abs_dev"],
        "setup_s_runs": setup_times,
        "speed_factor_median": statistics.median(factors),
        "raw_ops_per_s": len(raw) / sum(raw),
        "raw_op_p50_ms": 1000.0 * statistics.median(raw),
        "raw_setup_s": statistics.median(w["setup_s"] for w in setups),
        "timed_wall_s": run["wall_s"],
    }
    return values, details


def _worker(workload: str, seed: int, mode: str, seconds: float, deadline: float) -> dict:
    spawned_at = time.monotonic()
    cmd = [
        sys.executable,
        str(HERE / "worker.py"),
        "--workload", workload,
        "--seed", str(seed),
        "--seconds", str(seconds),
        "--mode", mode,
        # CLOCK_MONOTONIC is system-wide, so the worker can measure its set-up
        # time from this instant.
        "--spawned-at", repr(spawned_at),
    ]
    # A session of its own lets a timeout stop the worker and any pool
    # processes it started together.
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise WorkerError(f"{workload} {mode} worker did not finish in time") from None
    if proc.returncode != 0:
        raise WorkerError(f"{workload} {mode} worker exited with code {proc.returncode}")
    return json.loads(out.strip().splitlines()[-1])


def _measure(workload: str, seed: int, seconds: float, deadline: float) -> dict:
    setups = [_worker(workload, seed, "setup", 0.0, deadline) for _ in range(SETUP_REPS - 1)]
    run = _worker(workload, seed, "run", seconds, deadline)
    setups.append(run)
    values, details = end_to_end(setups, run)
    return {
        "workload": workload,
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()},
        "details": details,
        "op_times_s": run["op_times_s"],
        "op_start_s": run["op_start_s"],
        "cal_at_s": run["cal_at_s"],
        "cal_times_s": run["cal_times_s"],
    }


def _trace(workload: str, seed: int, deadline: float) -> dict:
    run = _worker(workload, seed, "trace", 0.0, deadline)
    units = {name: layers.spec(name)["unit"] for name in layers.NAMES}
    return {
        "workload": workload,
        "correct": run["failed"] == 0 and run["herald_exact"],
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in run["metrics"].items()},
        "details": {
            "check.max_abs_dev": run["max_abs_dev"],
            "fail_frac": run["failed"] / run["attempted"],
            "herald_waste": run["herald_waste"],
            "untraced_s": run["untraced_s"],
            "traced_s": run["traced_s"],
            "pool": run["pool"],
            "spans": run["spans"],
            "spans_file": run["spans_file"],
        },
    }


def _report(result: dict) -> None:
    d = result["details"]
    print(
        f"{result['workload']}: {result['attempted']} ops, {result['failed']} failed, "
        f"fail_frac {d['fail_frac']:.6g} fraction, check.max_abs_dev {d['check.max_abs_dev']:.3e}"
    )
    for name, m in result["metrics"].items():
        extra = ""
        if name == "op_tail_ms":
            extra = f"  (p{d['op_tail_percentile']:.1f}, {d['op_tail_ops_above']} of {d['ops']} ops above)"
        elif name == "fock.herald_survival":
            pn = result["metrics"]["fock.project_number.keys_in"]["value"]
            extra = f"  (of {pn} keys into project_number)"
        print(f"  {name:<44} {m['value']:>14.6g} {m['unit']}{extra}")
    if "herald_waste" in d:
        for prep, h in d["herald_waste"].items():
            print(
                f"  herald waste {prep}: {h['keys_out']} of {h['keys_in']} keys survive "
                f"(expected {h['expected'][1]} of {h['expected'][0]}): {'exact' if h['exact'] else 'MISMATCH'}"
            )


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "polscissors" / "__init__.py").is_file():
        print(f"no polscissors sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        deadline = time.monotonic() + DEADLINE_S
        try:
            if args.trace:
                result = _trace(name, args.seed, deadline)
            else:
                result = _measure(name, args.seed, args.seconds, deadline)
        except WorkerError as exc:
            print(f"benchmark failed: {exc}", file=sys.stderr)
            return 1
        _report(result)
        OUT_DIR.mkdir(exist_ok=True)
        record = OUT_DIR / f"{name}-seed{args.seed}-trace{args.trace}.json"
        record.write_text(
            json.dumps({**result, "seed": args.seed, "seconds": args.seconds, "trace": args.trace}, indent=1)
        )
        results.append(result)

    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": v for r in results for k, v in r["metrics"].items()}
    summary = {
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

"""Summarise the run records under ``.perfbench_out/`` into a baseline file.

    python3 perfbench/baseline.py perfbench/baseline.json

Reads every record ``run.py`` wrote (one per workload, seed and trace flag)
and writes, per workload, the median and quartiles over seeds of each
end-to-end metric, the worst correctness deviation and failure counts, and
the per-layer metrics of each traced run, beside the end-to-end metric and
workloads each per-layer metric should move (``layers.MOVES``).  Two such
files from two commits compare field by field.
"""

from __future__ import annotations

import json
import platform
import statistics
import sys
from pathlib import Path

import layers
import run


def _quartiles(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "iqr_over_median": (q3 - q1) / med if med else None}


def summarise(records: list[dict]) -> dict:
    out: dict = {}
    for workload in run.WORKLOADS:
        plain = [r for r in records if r["workload"] == workload and not r["trace"]]
        traced = [r for r in records if r["workload"] == workload and r["trace"]]
        entry: dict = {"seeds": sorted(r["seed"] for r in plain)}
        if plain:
            entry["end_to_end"] = {
                name: {**_quartiles([r["metrics"][name]["value"] for r in plain]), "unit": unit}
                for name, unit in run.END_TO_END_UNITS.items()
            }
            entry["fail_frac"] = sum(r["failed"] for r in plain) / sum(r["attempted"] for r in plain)
            entry["check.max_abs_dev"] = max(r["details"]["check.max_abs_dev"] for r in plain)
            entry["ops_per_run"] = sorted({r["details"]["ops"] for r in plain})
            entry["op_tail_percentile"] = sorted({r["details"]["op_tail_percentile"] for r in plain})
        for r in sorted(traced, key=lambda r: r["seed"]):
            entry.setdefault("per_layer", {})[f"seed{r['seed']}"] = {
                "metrics": {k: v["value"] for k, v in r["metrics"].items()},
                "check.max_abs_dev": r["details"]["check.max_abs_dev"],
                "herald_waste": r["details"]["herald_waste"],
                "untraced_s": r["details"]["untraced_s"],
                "traced_s": r["details"]["traced_s"],
                "pool": r["details"]["pool"],
            }
        out[workload] = entry
    return out


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    records = [json.loads(p.read_text()) for p in sorted(run.OUT_DIR.glob("*-seed*-trace*.json"))]
    if not records:
        print(f"no run records under {run.OUT_DIR}", file=sys.stderr)
        return 1
    baseline = {
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {platform.system()}",
        "reference_calibration_s": run.REF_CAL_S,
        "workloads": summarise(records),
        "per_layer_moves": [
            {"metrics": names, "should_move": moves, "on": on} for names, moves, on in layers.MOVES
        ],
    }
    Path(argv[0]).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

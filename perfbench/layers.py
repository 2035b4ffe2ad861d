"""Per-layer metrics of the traced run, with the end-to-end effect each should have.

A name is ``<module>.<function>[.by_<caller>].<counter>``: the totals over
every traced call of that function (from that caller module only, with
``by_``).  ``self_s`` is span time minus child spans.  A few names sum several
functions or are ratios; they are computed in ``DERIVED``.

``MOVES`` records, before anything is optimised, which end-to-end metric each
per-layer metric should move and on which workloads; ``BENCHMARK.json`` lists
the same names, units and directions.
"""

from __future__ import annotations


def _counters(function: str, counters: tuple[str, ...]) -> list[str]:
    return [f"{function}.{c}" for c in counters]


FULL = ("calls", "self_s", "keys_in", "keys_out", "norm_lost")
CALLS = ("calls", "self_s")

# (metric names, end-to-end metrics they should move, workloads where they should move)
MOVES: list[tuple[list[str], str, str]] = [
    (
        _counters("fock.project_number", FULL[:4]) + ["fock.herald_survival"],
        "ops_per_s, op_tail_ms",
        "verify, sweep-numeric; no change on sweep-analytic and source-circuits",
    ),
    (_counters("elements.apply_bs.by_scissors", FULL), "ops_per_s, op_tail_ms", "verify, sweep-numeric"),
    (_counters("elements.apply_bs.by_sources", FULL), "ops_per_s", "source-circuits"),
    (_counters("elements.apply_squeezer_exact", FULL), "ops_per_s", "verify, sweep-numeric (pqs2)"),
    (["elements.polarization.self_s"], "ops_per_s", "source-circuits, verify"),
    (
        _counters("fock.tensor", ("calls", "self_s", "keys_out")),
        "ops_per_s, peak_rss_mb",
        "source-circuits (lambda_state), verify (ancilla)",
    ),
    (_counters("fock.prune", FULL) + _counters("fock.fidelity", CALLS), "ops_per_s", "source-circuits"),
    (["fock.max_keys"], "peak_rss_mb", "source-circuits, verify"),
    (
        [f"sources.{f}.self_s" for f in ("xi_direct", "xi_circuit", "lambda_state", "lambda_circuit")],
        "ops_per_s",
        "source-circuits; xi_direct also on verify",
    ),
    (
        [m for f in ("qs_apply", "pqs1_apply", "pqs2_apply") for m in _counters(f"scissors.{f}", CALLS)],
        "ops_per_s, op_p50_ms",
        "verify, sweep-numeric",
    ),
    (
        [
            m
            for f in ("prepare_named", "prepare_hybrid", "prepare_bell", "analytic_named", "required_cutoff")
            for m in _counters(f"preparations.{f}", CALLS)
        ],
        "ops_per_s",
        "sweep-numeric, verify; analytic_named on sweep-analytic",
    ),
    (["analytics.calls", "analytics.self_s"], "ops_per_s, op_p50_ms", "sweep-analytic"),
    (
        ["sweep.run_sweep.self_s", "sweep.grid_to_csv.self_s", "config.self_s"],
        "ops_per_s, setup_s",
        "sweep-analytic",
    ),
    (["sweep.pool_speedup", "sweep.pool_serial_s", "sweep.pool_jobs2_s"], "ops_per_s", "sweep-numeric"),
    (["verify.run_verify.self_s"], "ops_per_s", "verify"),
    (["trace.overhead_frac"], "(none; reported)", "every workload"),
]

NAMES = [name for names, _, _ in MOVES for name in names]

_UNITS = {
    "calls": "count",
    "self_s": "s",
    "keys_in": "count",
    "keys_out": "count",
    "norm_lost": "sq_norm",
    "herald_survival": "fraction",
    "max_keys": "count",
    "pool_speedup": "ratio",
    "pool_serial_s": "s",
    "pool_jobs2_s": "s",
    "overhead_frac": "fraction",
}
_HIGHER = {"herald_survival", "pool_speedup"}


def spec(name: str) -> dict:
    """The BENCHMARK.json entry of one per-layer metric."""
    counter = name.rsplit(".", 1)[1]
    return {"name": name, "unit": _UNITS[counter], "better": "higher" if counter in _HIGHER else "lower"}


def _module_sum(totals, module: str, field: str, functions: tuple[str, ...] | None = None) -> float:
    """Sum ``field`` over the function-level totals of ``module`` (all callers)."""
    return sum(
        getattr(t, field)
        for key, t in totals.items()
        if key.startswith(f"{module}.")
        and ".by_" not in key
        and (functions is None or key.split(".", 1)[1] in functions)
    )


def per_layer_metrics(totals, max_keys: int, pool: dict | None, overhead_frac: float) -> dict[str, float]:
    """Every name in ``NAMES`` from the aggregated spans; absent layers read 0."""
    pn = totals.get("fock.project_number")
    derived = {
        "fock.herald_survival": pn.keys_out / pn.keys_in if pn and pn.keys_in else 0.0,
        "elements.polarization.self_s": _module_sum(
            totals, "elements", "self_s", ("apply_pbs", "apply_hwp", "apply_pol_phase")
        ),
        "analytics.calls": _module_sum(totals, "analytics", "calls"),
        "analytics.self_s": _module_sum(totals, "analytics", "self_s"),
        "config.self_s": _module_sum(totals, "config", "self_s"),
        "fock.max_keys": max_keys,
        "sweep.pool_speedup": pool["serial_s"] / pool["jobs2_s"] if pool else 0.0,
        "sweep.pool_serial_s": pool["serial_s"] if pool else 0.0,
        "sweep.pool_jobs2_s": pool["jobs2_s"] if pool else 0.0,
        "trace.overhead_frac": overhead_frac,
    }
    out = {}
    for name in NAMES:
        if name in derived:
            out[name] = derived[name]
        else:
            function, counter = name.rsplit(".", 1)
            t = totals.get(function)
            out[name] = getattr(t, counter) if t else 0
    return out

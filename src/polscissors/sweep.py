"""Parameter sweeps over preparation pipelines, with deterministic output.

Grid cells are independent pure computations, and every sweep evaluates them
in process, in grid order. A numeric cell costs a few milliseconds, so a
process pool's start-up, pickling and cold per-process caches cost more than
the cells it shares out. The cells of one sweep share one closed-form source
half per (delta, phi, t0), one cutoff per (delta, t0) and one transfer table
per scissors method and knob, and each cell still gives, bit for bit, the
result of running it alone. With that sharing the 625-cell ``--reference
bell-pqs1 --backend both`` grid runs in about 0.39 s of process wall time and
bell-pqs2's in 0.31 s, against 0.74 s and 0.44 s with the former two-worker
pool (Python 3.11, 2 shared vCPUs). ``run_sweep`` accepts ``jobs`` only so
that existing callers keep working, and ignores it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import analytics
from .config import ExperimentConfig, config_echo
from .fock import CutoffError
from .preparations import closed_form_halves, prepare_stages, required_cutoff

STATUS_OK = "ok"
STATUS_DEGENERATE = "degenerate"
STATUS_UNDERFLOW = "underflow"


@dataclass(frozen=True)
class SweepGrid:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    max_abs_err_p: float | None
    max_abs_err_f: float | None


def _runs_numeric(config: ExperimentConfig) -> bool:
    """Whether the sweep runs the simulator (the omega preparation always does)."""
    return config.backend in ("numeric", "both")


def _cell_columns(config: ExperimentConfig) -> tuple[str, ...]:
    cols = [config.axis1.name, config.axis2.name]
    if config.backend in ("analytic", "both"):
        cols += ["P_analytic", "F_analytic"]
    if _runs_numeric(config):
        cols += ["P_numeric", "F_numeric"]
    if config.backend == "both":
        cols += ["abs_err_P", "abs_err_F"]
    if config.repetition_rate is not None:
        cols.append("count_rate")
    cols.append("status")
    return tuple(cols)


def _kept(store: dict, key: tuple, make, *args):
    """``store[key]``, made by ``make(*args)`` if missing; nothing is kept when ``make`` raises."""
    if key not in store:
        store[key] = make(*args)
    return store[key]


def _evaluate_cell(config: ExperimentConfig, v1: float, v2: float, halves, sources, cutoffs, tables):
    params = config.cell_parameters(v1, v2)
    delta = params["delta"]
    phi = params.get("phi", 0.0)
    t0 = params.get("t0", 0.5)
    pipeline = config.pipeline
    values: list = [v1, v2]
    try:
        if halves is not None:
            source_half, knob_half = halves
            source = _kept(sources, (delta, phi, t0), source_half, pipeline.method, delta, phi, t0)
            ana = knob_half(source, params[pipeline.knob_axis])
            values += [ana.probability, ana.fidelity]
        if _runs_numeric(config):
            num = prepare_stages(
                pipeline, delta, phi, t0, params, config.omega_split_ts,
                cutoff=_kept(cutoffs, (delta, t0), _checked_cutoff, config, delta, t0),
                tail_bound=config.tail_bound, tables=tables,
            )[-1]
            values += [num.probability, num.fidelity]
        if config.backend == "both":
            values += [abs(num.probability - ana.probability), abs(num.fidelity - ana.fidelity)]
    except analytics.DegenerateParameterError as exc:
        total = len(_cell_columns(config))
        values += [math.nan] * (total - 1 - len(values))
        underflow = isinstance(exc, analytics.ProbabilityUnderflowError)
        values.append(STATUS_UNDERFLOW if underflow else STATUS_DEGENERATE)
        return tuple(values)
    if config.repetition_rate is not None:
        # the rate follows the first probability column: the closed form when there is one
        values.append(analytics.count_rate(values[2], config.repetition_rate))
    values.append(STATUS_OK)
    return tuple(values)


def _checked_cutoff(config: ExperimentConfig, delta: float, t0: float) -> int:
    cutoff = required_cutoff(delta, t0, config.tail_bound)
    if cutoff > config.max_cutoff:
        raise CutoffError(
            f"delta = {delta} needs cutoff {cutoff} > max_cutoff {config.max_cutoff}"
        )
    return cutoff


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> SweepGrid:
    """Fill the grid in process, in grid order; ``jobs`` is accepted and ignored.

    The cells share the source halves, cutoffs and transfer tables of the
    module docstring, which live as long as this call; one that raises is not
    kept, so each cell that asks for it raises again.
    """
    if _runs_numeric(config):
        # fail fast on an infeasible cutoff before burning through cells: the
        # cutoff grows with delta and with the t0 nearest 0 or 1, so the axis
        # endpoints' cells hold the worst of each
        corners = [
            config.cell_parameters(v1, v2)
            for v1 in (config.axis1.start, config.axis1.stop)
            for v2 in (config.axis2.start, config.axis2.stop)
        ]
        worst_t0 = max((p.get("t0", 0.5) for p in corners), key=lambda t0: max(t0, 1.0 - t0))
        _checked_cutoff(config, max(p["delta"] for p in corners), worst_t0)

    # the closed form's halves depend on the preparation alone
    halves = closed_form_halves(config.preparation) if config.backend in ("analytic", "both") else None
    sources, cutoffs, tables = {}, {}, {}
    rows = tuple(
        _evaluate_cell(config, v1, v2, halves, sources, cutoffs, tables)
        for v1 in config.axis1.values()
        for v2 in config.axis2.values()
    )
    columns = _cell_columns(config)
    max_p = max_f = None
    if config.backend == "both":
        i_p, i_f = columns.index("abs_err_P"), columns.index("abs_err_F")
        oks = [r for r in rows if r[-1] == STATUS_OK]
        if oks:
            max_p = max(r[i_p] for r in oks)
            max_f = max(r[i_f] for r in oks)
    return SweepGrid(config, columns, rows, max_p, max_f)


def grid_to_csv(grid: SweepGrid) -> str:
    lines = [f"# {line}" for line in config_echo(grid.config)]
    lines.append(",".join(grid.columns))
    # every value is a float but the last, the status; "%.17e" % x is f"{x:.17e}"
    row_format = ",".join(["%.17e"] * (len(grid.columns) - 1) + ["%s"])
    lines += [row_format % row for row in grid.rows]
    if grid.max_abs_err_p is not None:
        lines.append(f"# summary: max_abs_err_P = {grid.max_abs_err_p:.17e}")
        lines.append(f"# summary: max_abs_err_F = {grid.max_abs_err_f:.17e}")
    return "\n".join(lines) + "\n"


def grid_from_csv(text: str) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """Parse an emitted CSV back into (columns, rows); comments are skipped."""
    columns: tuple[str, ...] | None = None
    rows = []
    for line in text.splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if columns is None:
            columns = tuple(line.split(","))
            continue
        cells = line.split(",")
        parsed = []
        for name, cell in zip(columns, cells):
            parsed.append(cell if name == "status" else float(cell))
        rows.append(tuple(parsed))
    if columns is None:
        raise ValueError("no header row found")
    return columns, tuple(rows)


def grid_to_matrix(grid: SweepGrid) -> str:
    """Gnuplot-style matrix blocks, one per value column.

    Each block: first row is the axis2 values, then one row per axis1 value
    with the axis1 value in the first column.
    """
    v1s = grid.config.axis1.values()
    v2s = grid.config.axis2.values()
    steps2 = len(v2s)
    lines = [f"# {line}" for line in config_echo(grid.config)]
    for ci, name in enumerate(grid.columns):
        if name in (grid.config.axis1.name, grid.config.axis2.name, "status"):
            continue
        lines.append(f"# block: {name}")
        lines.append(" ".join(["axis1\\axis2"] + [f"{v:.17e}" for v in v2s]))
        for i, v1 in enumerate(v1s):
            cells = [v1] + [row[ci] for row in grid.rows[i * steps2 : (i + 1) * steps2]]
            lines.append(" ".join(f"{v:.17e}" for v in cells))
        lines.append("")
    return "\n".join(lines)


def grid_to_json(grid: SweepGrid) -> str:
    payload = {
        "config": config_echo(grid.config),
        "columns": list(grid.columns),
        "rows": [list(r) for r in grid.rows],
        "summary": {
            "max_abs_err_P": grid.max_abs_err_p,
            "max_abs_err_F": grid.max_abs_err_f,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"

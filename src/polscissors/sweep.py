"""Parameter sweeps over preparation pipelines, with deterministic output.

Grid cells are independent pure computations, and every sweep evaluates them
in process, in grid order. A numeric cell costs a few milliseconds, so on
small grids a process pool's start-up, pickling and cold per-process caches
cost more than the cells it shares out. Two workers still finish a 625-cell
grid sooner, but one serial path is kept rather than a pool chosen by grid
size. ``run_sweep`` accepts ``jobs`` only so that existing callers keep
working, and ignores it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import analytics
from .config import ExperimentConfig, config_echo
from .fock import CutoffError
from .preparations import analytic_named, prepare_stages, required_cutoff

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


def _evaluate_cell(config: ExperimentConfig, v1: float, v2: float) -> tuple:
    params = config.cell_parameters(v1, v2)
    delta = params["delta"]
    phi = params.get("phi", 0.0)
    t0 = params.get("t0", 0.5)
    pipeline = config.pipeline
    values: list = [v1, v2]
    try:
        if config.backend in ("analytic", "both"):
            knob = params[pipeline.knob_axis]
            ana = analytic_named(config.preparation, delta, phi, t0, knob)
            values += [ana.probability, ana.fidelity]
        if _runs_numeric(config):
            num = prepare_stages(
                pipeline, delta, phi, t0, params, config.omega_split_ts,
                cutoff=_checked_cutoff(config, delta, t0), tail_bound=config.tail_bound,
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
    """Fill the grid in process, in grid order; ``jobs`` is accepted and ignored."""
    if _runs_numeric(config):
        # fail fast on an infeasible cutoff before burning through cells
        deltas = [config.delta] if config.delta is not None else []
        t0s = [config.t0]
        for axis in (config.axis1, config.axis2):
            target = deltas if axis.name == "delta" else t0s if axis.name == "t0" else None
            if target is not None:
                target.extend((axis.start, axis.stop))
        # t0 nearest 0 or 1 maximizes the larger arm amplitude
        worst_t0 = max(t0s, key=lambda t0: max(t0, 1.0 - t0))
        _checked_cutoff(config, max(deltas), worst_t0)

    rows = tuple(
        _evaluate_cell(config, v1, v2)
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


def _fmt(value) -> str:
    if isinstance(value, str):
        return value
    if value is None:
        return ""
    return f"{value:.17e}"


def grid_to_csv(grid: SweepGrid) -> str:
    lines = [f"# {line}" for line in config_echo(grid.config)]
    lines.append(",".join(grid.columns))
    for row in grid.rows:
        lines.append(",".join(_fmt(v) for v in row))
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
        lines.append(" ".join(["axis1\\axis2"] + [_fmt(v) for v in v2s]))
        for i, v1 in enumerate(v1s):
            row_cells = [_fmt(v1)]
            for j in range(steps2):
                value = grid.rows[i * steps2 + j][ci]
                row_cells.append("nan" if value is None else _fmt(value))
            lines.append(" ".join(row_cells))
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

"""Parameter sweeps over preparation pipelines, with deterministic output.

Grid cells are independent pure computations, and every sweep evaluates them
in process, in grid order: a numeric cell costs a few milliseconds, less than
a worker process's start-up, pickling and cold caches. A sweep decides once
what depends on the config alone: the pipeline, which routes run, the closed
form's halves, the columns and the fixed parameters. Its cells share one
closed-form source half and one numeric source part (the coherent factors,
Gram matrices and target norms) per (delta, phi, t0), one cutoff per
(delta, t0), computed from the cells before the first, and one transfer table
per scissors method and knob, whose one probe covers the largest cutoff; each
cell still gives, bit for bit, the result of running it alone. The 625-cell
``--reference bell-pqs1 --backend both`` grid runs in about 0.10 s in process
and bell-pqs2's in 0.06 s (best of 7; Python 3.11, 2 shared vCPUs).
``run_sweep`` accepts ``jobs`` only so that existing callers keep working,
and ignores it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import analytics
from .config import ExperimentConfig, config_echo
from .fock import CutoffError
from .preparations import KNOB_AXES, TransferTables, closed_form_halves, prepare_stages, required_cutoff

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


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> SweepGrid:
    """Fill the grid in process, in grid order; ``jobs`` is accepted and ignored.

    What depends on the config alone is decided once, before the first cell:
    the pipeline, whether the closed form and the simulator run, the closed
    form's halves, the columns, and the fixed parameters each cell starts
    from (``config.cell_parameters``).  So is each numeric cell's cutoff, one
    ``required_cutoff`` call per distinct (delta, t0), in grid order; if the
    largest exceeds ``max_cutoff``, no cell runs.  The cells share the source
    halves, source parts, cutoffs and transfer tables of the module docstring,
    which live as long as this call; one that raises is not kept, so each cell
    that asks for it raises again.
    """
    pipeline = config.pipeline
    analytic = config.backend in ("analytic", "both")
    numeric = config.backend in ("numeric", "both")  # always so for omega
    columns = [config.axis1.name, config.axis2.name]
    if analytic:
        columns += ["P_analytic", "F_analytic"]
    if numeric:
        columns += ["P_numeric", "F_numeric"]
    if analytic and numeric:
        columns += ["abs_err_P", "abs_err_F"]
    if config.repetition_rate is not None:
        columns.append("count_rate")
    columns.append("status")

    v1s, v2s = config.axis1.values(), config.axis2.values()
    halves, cutoffs, parts = {}, {}, {}
    if numeric:
        # an infeasible cutoff fails the sweep before any cell runs
        for v1 in v1s:
            for v2 in v2s:
                params = config.cell_parameters(v1, v2)
                key = params["delta"], params["t0"]
                if key not in cutoffs:
                    cutoffs[key] = required_cutoff(*key, config.tail_bound)
        # of the cells that need the largest cutoff, the error names the largest delta
        (delta, _), cutoff = max(cutoffs.items(), key=lambda item: (item[1], item[0][0]))
        if cutoff > config.max_cutoff:
            raise CutoffError(f"delta = {delta} needs cutoff {cutoff} > max_cutoff {config.max_cutoff}")
        tables = TransferTables(cutoff)

    # the closed form's halves depend on the preparation alone
    source_half, knob_half = closed_form_halves(config.preparation) if analytic else (None, None)
    knob_axes = {KNOB_AXES[method] for method in pipeline.methods}
    rows = []
    for v1 in v1s:
        for v2 in v2s:
            params = config.cell_parameters(v1, v2)
            delta, phi, t0 = params["delta"], params["phi"], params["t0"]
            values: list = [v1, v2]
            try:
                if analytic:
                    if (delta, phi, t0) not in halves:
                        halves[delta, phi, t0] = source_half(pipeline.method, delta, phi, t0)
                    ana = knob_half(halves[delta, phi, t0], params[pipeline.knob_axis])
                    values += [ana.probability, ana.fidelity]
                if numeric:
                    num = prepare_stages(
                        pipeline, delta, phi, t0, params, config.omega_split_ts, cutoffs[delta, t0],
                        config.tail_bound, tables, parts,
                    )[-1]
                    if num.probability == 0.0:
                        raise analytics._zero_probability(delta, *(params[a] for a in knob_axes))
                    values += [num.probability, num.fidelity]
                if analytic and numeric:
                    values += [abs(num.probability - ana.probability), abs(num.fidelity - ana.fidelity)]
            except analytics.DegenerateParameterError as exc:
                values += [math.nan] * (len(columns) - 1 - len(values))
                underflow = isinstance(exc, analytics.ProbabilityUnderflowError)
                values.append(STATUS_UNDERFLOW if underflow else STATUS_DEGENERATE)
            else:
                if config.repetition_rate is not None:
                    # the rate follows the first probability column: the closed form when there is one
                    values.append(analytics.count_rate(values[2], config.repetition_rate))
                values.append(STATUS_OK)
            rows.append(tuple(values))
    max_p = max_f = None
    if analytic and numeric:
        i_p, i_f = columns.index("abs_err_P"), columns.index("abs_err_F")
        oks = [r for r in rows if r[-1] == STATUS_OK]
        if oks:
            max_p = max(r[i_p] for r in oks)
            max_f = max(r[i_f] for r in oks)
    return SweepGrid(config, tuple(columns), tuple(rows), max_p, max_f)


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
    """The grid as strict JSON (RFC 8259 has no NaN): a ``nan`` cell is written as ``null``."""
    payload = {
        "config": config_echo(grid.config),
        "columns": list(grid.columns),
        "rows": [[None if isinstance(v, float) and math.isnan(v) else v for v in r] for r in grid.rows],
        "summary": {
            "max_abs_err_P": grid.max_abs_err_p,
            "max_abs_err_F": grid.max_abs_err_f,
        },
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"

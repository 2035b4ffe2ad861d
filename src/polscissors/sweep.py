"""Parameter sweeps over preparation pipelines, with deterministic output.

Grid cells are independent pure computations, and every sweep evaluates them
in process, in grid order: a numeric cell costs a few milliseconds, less than
a worker process's start-up, pickling and cold caches. A sweep decides once
what depends on the config alone: the pipeline, which routes run, the closed
form's parts, the columns, the fixed parameters and one set of knob factors
per knob value. Its cells share one closed-form source half and one numeric
source part (the coherent factors, Gram matrices and target norms) per
(delta, phi, t0), one cutoff per (delta, t0), computed from the cells before
the first, and one transfer table per scissors method and knob; each cell
still gives, bit for bit, the result of running it alone. A ``both`` cell's
``abs_err_*`` and status are ``preparations.compare``'s, which reads a numeric
P of 0.0 ``mismatch``. The footer is the pairs' ``preparations.worst`` over the
``ok`` and ``mismatch`` cells, which keeps a NaN from any. The writers format
each axis value once per grid. The 625-cell ``--reference bell-pqs1`` grid runs in
process in about 0.6 ms with ``--backend analytic`` (best of 201) and 0.07 s
with ``both`` (best of 21), bell-pqs2's in 0.6 ms and 0.05 s (Python 3.11.7,
2 shared vCPUs). ``run_sweep`` ignores ``jobs``, kept for existing callers.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from . import analytics
from .config import ExperimentConfig, config_echo
from .fock import CutoffError, FockError
from .preparations import KNOB_AXES, closed_form_halves, compare, prepare_stages, required_cutoff, worst
from .preparations import STATUS_DEGENERATE, STATUS_MISMATCH, STATUS_OK, STATUS_UNDERFLOW  # read as sweep.STATUS_*


@dataclass(frozen=True)
class SweepGrid:
    config: ExperimentConfig
    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    max_abs_err_p: float | None
    max_abs_err_f: float | None


def run_sweep(config: ExperimentConfig, jobs: int = 1) -> SweepGrid:
    """Fill the grid in process, in grid order; ``jobs`` is accepted and ignored.

    What depends on the config alone is decided once, before the first cell: the
    pipeline, whether the closed form and the simulator run, its ``closed_form_halves``
    and one set of ``analytics.knob_factors`` per knob value, the columns, the repetition
    rate, and the fixed parameters each row's one dict starts from (``config.cell_parameters``).
    So is each numeric cell's cutoff, one ``required_cutoff`` call per distinct
    (delta, t0), in grid order; if the largest exceeds ``max_cutoff``, no
    cell runs.  The cells share the source halves, source parts, cutoffs and
    transfer tables of the module docstring, which live as long as this call;
    one that raises is not kept, so each cell that asks for it raises again.
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
    halves, cutoffs, parts, tables = {}, {}, {}, {}
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

    if analytic:
        # the closed form's parts depend on the preparation alone
        source_half, combine = closed_form_halves(config.preparation)
        method, knob_axis = pipeline.method, pipeline.knob_axis
        # one set of knob factors per knob value, read by the knob's axis position (2: fixed)
        knob_at = (config.axis1.name, config.axis2.name, knob_axis).index(knob_axis)
        knobs = [analytics.knob_factors(method, k) for k in (v1s, v2s, [getattr(config, knob_axis)])[knob_at]]
    knob_axes = {KNOB_AXES[m] for m in pipeline.methods}
    rate, width, name2 = config.repetition_rate, len(columns), config.axis2.name
    rows, errs, status = [], [], STATUS_OK  # a ``both`` cell sets its own
    for i, v1 in enumerate(v1s):
        params = config.cell_parameters(v1, v2s[0])  # one dict per row, its axis2 value set per cell
        for j, v2 in enumerate(v2s):
            params[name2] = v2
            delta, phi, t0 = params["delta"], params["phi"], params["t0"]
            values: list = [v1, v2]
            try:
                if analytic:
                    half = halves.get((delta, phi, t0))
                    if half is None:
                        half = halves[delta, phi, t0] = source_half(method, delta, phi, t0)
                    ana = combine(half, knobs[(i, j, 0)[knob_at]])
                    values += ana
                if numeric:
                    # last_only: the cell reads the preparation's result, so no earlier stage is scored
                    num = prepare_stages(
                        pipeline, delta, phi, t0, params, config.omega_split_ts, cutoffs[delta, t0],
                        config.tail_bound, tables, parts, True,
                    )[-1]
                    if math.isnan(num.probability) or math.isnan(num.fidelity):
                        raise FockError(f"numeric P or F is NaN at {columns[0]} = {v1!r}, {columns[1]} = {v2!r}")
                    if num.probability == 0.0 and not analytic:  # with a closed form, ``compare`` judges it
                        raise analytics._zero_probability(delta, *(params[a] for a in knob_axes))
                    values += [num.probability, num.fidelity]
                if analytic and numeric:
                    *err, status = compare(analytics.AnalyticPF(*ana), num)  # nothing after it raises
                    errs.append(err)
                    values += err
            except analytics.DegenerateParameterError as exc:
                values += [math.nan] * (width - 1 - len(values))
                underflow = isinstance(exc, analytics.ProbabilityUnderflowError)
                values.append(STATUS_UNDERFLOW if underflow else STATUS_DEGENERATE)
            else:
                if rate is not None:
                    # the rate follows the first probability column: the closed form when there is one
                    values.append(analytics.count_rate(values[2], rate))
                values.append(status)
            rows.append(tuple(values))
    max_p, max_f = (worst(*column) for column in zip(*errs)) if errs else (None, None)
    return SweepGrid(config, tuple(columns), tuple(rows), max_p, max_f)


def _axis_texts(grid: SweepGrid) -> tuple[list[str], list[str]]:
    """Each axis value's ``"%.17e"`` text, from the float itself; ``ValueError`` on a wrong row count."""
    texts1, texts2 = ([f"{v:.17e}" for v in axis.values()] for axis in (grid.config.axis1, grid.config.axis2))
    if len(grid.rows) != len(texts1) * len(texts2):
        raise ValueError(f"grid has {len(grid.rows)} rows, not {len(texts1)} x {len(texts2)}")
    return texts1, texts2


def grid_to_csv(grid: SweepGrid) -> str:
    """The config echo, the header, one line per row and the ``both`` summary, as CSV.

    Rows are in grid order, axis1 outer and axis2 inner, as ``run_sweep`` writes
    them; each starts with the texts of its axis values, formatted once per grid.
    A grid without ``steps1 x steps2`` rows raises ``ValueError``.
    """
    texts1, texts2 = _axis_texts(grid)
    lines = [f"# {line}" for line in config_echo(grid.config)]
    lines.append(",".join(grid.columns))
    # every value past the axes is a float but the last, the status; "%.17e" % x is f"{x:.17e}"
    rest = ",".join(["%.17e"] * (len(grid.columns) - 3) + ["%s"])
    heads = [f"{t1},{t2}," for t1 in texts1 for t2 in texts2]
    lines += [head + rest % row[2:] for head, row in zip(heads, grid.rows)]
    if grid.max_abs_err_p is not None:
        lines.append(f"# summary: max_abs_err_P = {grid.max_abs_err_p:.17e}")
        lines.append(f"# summary: max_abs_err_F = {grid.max_abs_err_f:.17e}")
    return "\n".join(lines) + "\n"


def grid_from_csv(text: str) -> tuple[tuple[str, ...], tuple[tuple, ...]]:
    """Parse an emitted CSV back into (columns, rows); comments are skipped, a ragged row raises."""
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
        if len(cells) != len(columns):
            raise ValueError(f"row {line!r} has {len(cells)} cells, not the header's {len(columns)}")
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
    texts1, texts2 = _axis_texts(grid)
    steps2 = len(texts2)
    header = " ".join(["axis1\\axis2"] + texts2)
    lines = [f"# {line}" for line in config_echo(grid.config)]
    for ci, name in enumerate(grid.columns):
        if name in (grid.config.axis1.name, grid.config.axis2.name, "status"):
            continue
        lines.append(f"# block: {name}")
        lines.append(header)
        for i, t1 in enumerate(texts1):
            cells = [f"{row[ci]:.17e}" for row in grid.rows[i * steps2 : (i + 1) * steps2]]
            lines.append(" ".join([t1] + cells))
        lines.append("")
    return "\n".join(lines)


def grid_to_json(grid: SweepGrid) -> str:
    """The grid as strict JSON (RFC 8259 has no NaN): a ``nan`` cell or summary value is written as ``null``."""
    def null(v):
        return None if isinstance(v, float) and math.isnan(v) else v

    payload = {
        "config": config_echo(grid.config),
        "columns": list(grid.columns),
        "rows": [[null(v) for v in r] for r in grid.rows],
        "summary": {"max_abs_err_P": null(grid.max_abs_err_p), "max_abs_err_F": null(grid.max_abs_err_f)},
    }
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"

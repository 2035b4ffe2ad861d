import dataclasses
import json
import math
import multiprocessing
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

from polscissors import analytics, cli, sources, sweep
from polscissors.analytics import DegenerateParameterError as DegenerateStateError
from polscissors.config import (
    BACKENDS,
    AxisSpec,
    ConfigError,
    ExperimentConfig,
    config_echo,
    load_config,
    parse_config_text,
    reference_grid,
)
from polscissors.fock import H, min_cutoff
from polscissors.preparations import (
    BELL_ARMS,
    DEFAULT_BUDGET,
    KNOB_AXES,
    PIPELINES,
    PREPARATIONS,
    Pipeline,
    PrepResult,
    analytic_named,
    compare,
    omega_pipeline,
    prepare_named,
    prepare_stages,
)
from polscissors.scissors import qs_apply
from polscissors.sweep import (
    grid_from_csv,
    grid_to_csv,
    grid_to_json,
    grid_to_matrix,
    run_sweep,
)
from polscissors.verify import (
    CHECK_NAMES,
    DEFAULT_RANGES,
    CheckStat,
    VerifyReport,
    _random_polarized_input,
    run_spot,
    run_verify,
)

from conftest import prepare_hybrid

BELL_CONFIG = """
[experiment]
preparation = bell-pqs1
backend = both
phi = 0.0
t0 = 0.5
repetition_rate = 6.4e6

[axis1]
name = delta
start = 0.6
stop = 1.0
steps = 3

[axis2]
name = t
start = 0.9
stop = 0.98
steps = 2
"""

HYBRID_PQS2_CONFIG = (
    BELL_CONFIG.replace("bell-pqs1", "hybrid-pqs2")
    .replace("name = t", "name = gamma_abs")
    .replace("start = 0.9\nstop = 0.98", "start = 0.03\nstop = 0.07")
)

OMEGA_CONFIG = BELL_CONFIG.replace(
    "preparation = bell-pqs1\nbackend = both",
    "preparation = omega\nbackend = numeric\n"
    "gamma_abs = 0.05\nomega_n = 2\nomega_j = 2\nomega_scissors = pqs1,pqs2",
)

BAD_DESCRIPTORS = [
    "warp:delta=1",
    "xi:phi=0",
    "xi:delta=nan",
    "bell-pqs1:delta=0.8,t=1.5",
    "hybrid-pqs2:delta=0.8,gamma_abs=1.5",
    "xi:delta=-1",
    "xi:delta=abc",
    "target-omega:delta=1,j=5",
    "lambda:delta=1,t1=1.5,n=3",
    "lambda:delta=1,n=0",
    "lambda:delta=1,n=abc",
    "xi:delta=1,cutoff=abc",
    "lambda:delta=1,n=2.5",
    "target-omega:delta=1,j=1.5",
    "coherent:gamma=1,cutoff=4.5",
    "coherent:gamma=abc",
    "cat:delta=abc",
    "cat:delta=1,phi=abc",
    "xi:delta=1,phi=abc",
    "bell-pqs1:delta=0.8,t=0.9,phi=abc",
    "coherent:gamma=1,cutoff=-3",
    "xi:delta=1,cutoff=-1",
    "bell-pqs1:delta=0.8,t=0.9,cutoff=-2",
    "coherent:gamma=0,cutoff=0",
    "coherent:gamma=0.8,cutoff=1e200",
    "xi:delta=0.8,cutoff=1e9",
    "bell-pqs1:delta=0.8,t=0.9,cutoff=4097",
    "xi:delta=1,delta=0.2",
]


@pytest.fixture
def children(monkeypatch):
    """Refuse to start any child process; returns the processes that tried."""
    started = []

    def refuse(self, *args, **kwargs):
        started.append(self)
        raise RuntimeError("a child process was started")

    monkeypatch.setattr(multiprocessing.process.BaseProcess, "start", refuse)
    monkeypatch.setattr(subprocess.Popen, "__init__", refuse)
    return started


class TestConfig:
    def test_parse_round_trip(self):
        config = parse_config_text(BELL_CONFIG)
        assert config.preparation == "bell-pqs1"
        assert config.backend == "both"
        assert config.axis1 == AxisSpec("delta", 0.6, 1.0, 3)
        assert config.repetition_rate == pytest.approx(6.4e6)

    def test_overrides_win(self):
        config = parse_config_text(BELL_CONFIG, {"backend": "analytic"})
        assert config.backend == "analytic"

    def test_axis_values_inclusive(self):
        axis = AxisSpec("delta", 0.2, 1.0, 5)
        values = axis.values()
        assert values[0] == pytest.approx(0.2)
        assert values[-1] == pytest.approx(1.0)
        assert len(values) == 5

    @pytest.mark.parametrize(
        "start,stop,steps",
        [(0.2, 0.9, 8), (0.9, 0.2, 8), (0.1, 0.7, 4), (0.0, 0.3, 4), (0.6, 1.0, 3), (0.2, 1.0, 5)],
    )
    def test_axis_values_end_at_stop_exactly(self, start, stop, steps):
        # start + (stop - start) misses stop for some ranges: 0.2..0.9 gives 0.8999999999999999
        values = AxisSpec("delta", start, stop, steps).values()
        assert values[0] == start and values[-1] == stop
        span = stop - start
        assert values[1:-1] == [start + span * i / (steps - 1) for i in range(1, steps - 1)]

    def test_steps_is_read_as_a_whole_number(self):
        config = parse_config_text(BELL_CONFIG.replace("steps = 3", "steps = 3.0"))
        assert config.axis1.steps == 3

    @pytest.mark.parametrize(
        "mutation",
        [
            ("preparation = bell-pqs1", "preparation = bogus"),
            ("backend = both", "backend = fast"),
            ("name = t", "name = q"),
            ("steps = 2", "steps = 1"),
            ("steps = 2", "steps = 2.5"),
            ("t0 = 0.5", "t0 = 0.5\naxis1 = 1"),
            ("t0 = 0.5", "t0 = 0.5\naxis2 ="),
            ("name = t\n", "name = gamma_abs\n"),
            ("phi = 0.0", "phi = nan"),
            ("t0 = 0.5", "t0 = 0.5\ndelta = inf"),
            ("repetition_rate = 6.4e6", "repetition_rate = -inf"),
            ("start = 0.6", "start = -0.6"),
            ("t0 = 0.5", "t0 = 0.5\ndelta = -1"),
            ("t0 = 0.5", "t0 = 1.5"),
            ("stop = 0.98", "stop = 1.5"),
            ("start = 0.9", "start = 0.0"),
            ("t0 = 0.5", "t0 = 0.5\ngamma_abs = 1.2"),
            (
                "preparation = bell-pqs1\nbackend = both",
                "preparation = omega\nbackend = numeric\nomega_n = 2\nomega_j = 3\n"
                "omega_scissors = pqs1,pqs1,pqs1",
            ),
            (
                "preparation = bell-pqs1\nbackend = both",
                "preparation = omega\nbackend = numeric\nomega_n = 3\nomega_j = 1\n"
                "omega_scissors = pqs1\nomega_split_ts = 1.5",
            ),
            ("t0 = 0.5", "t0 = 0.5\ntail_bound = -1"),
            ("t0 = 0.5", "t0 = 0.5\nmax_cutoff = 0"),
            ("t0 = 0.5", "t0 = 0.5\nmax_cutoff = 12.7"),
            ("t0 = 0.5", "t0 = 0.5\nmax_cutoff = 1e400"),
            ("repetition_rate = 6.4e6", "repetition_rate = -5"),
            ("repetition_rate = 6.4e6", "repetition_rate = 0"),
            *(
                (
                    "preparation = bell-pqs1\nbackend = both",
                    "preparation = omega\nbackend = numeric\n" + omega,
                )
                for omega in (
                    "omega_n = 2.5\nomega_j = 2\nomega_scissors = pqs1,pqs1",
                    "omega_n = 2\nomega_j = 2.9\nomega_scissors = pqs1,pqs1",
                    "omega_n = 2\nomega_j = inf\nomega_scissors = pqs1,pqs1",
                    "omega_n = nan\nomega_j = 2\nomega_scissors = pqs1,pqs1",
                    "omega_n = 2\nomega_j = 1e400\nomega_scissors = pqs1,pqs1",
                    "omega_n = 2\nomega_j = 2\nomega_scissors = pqs1,pqs3",
                )
            ),
        ],
    )
    def test_invalid_configs_rejected(self, mutation):
        bad = BELL_CONFIG.replace(*mutation)
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    @pytest.mark.parametrize("start,stop", [(0.1, math.inf), (math.nan, 1.0)])
    def test_non_finite_axis_rejected(self, start, stop):
        with pytest.raises(ConfigError):
            AxisSpec("delta", start, stop, 3)

    def test_missing_parameter_rejected(self):
        bad = BELL_CONFIG.replace("name = t", "name = phi")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_unknown_key_rejected(self):
        bad = BELL_CONFIG.replace("t0 = 0.5", "t0 = 0.5\nbanana = 1")
        with pytest.raises(ConfigError):
            parse_config_text(bad)

    def test_omega_requires_numeric_backend(self):
        text = BELL_CONFIG.replace("preparation = bell-pqs1", "preparation = omega")
        text = text.replace(
            "backend = both",
            "backend = both\nomega_n = 2\nomega_j = 2\nomega_scissors = pqs1,pqs1",
        )
        with pytest.raises(ConfigError):
            parse_config_text(text)
        ok = text.replace("backend = both", "backend = numeric")
        assert parse_config_text(ok).preparation == "omega"

    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize(
        "key", ["omega_n = 2", "omega_j = 2", "omega_scissors = pqs1,pqs1", "omega_split_ts = 0.4"]
    )
    def test_omega_keys_need_the_omega_preparation(self, key, backend):
        # on a named preparation an omega key would be ignored and not echoed
        text = BELL_CONFIG.replace("t0 = 0.5", f"t0 = 0.5\n{key}")
        with pytest.raises(ConfigError, match=f"{key.split()[0]} given, but preparation bell-pqs1 is not omega"):
            parse_config_text(text, {"backend": backend})

    @pytest.mark.parametrize("preparation", ["bell-pqs1", "omega"])
    @pytest.mark.parametrize(
        "line", ["omega_split_ts =", "omega_scissors =", "omega_split_ts = ,"], ids=["ts", "scissors", "comma"]
    )
    def test_an_empty_list_value_exits_2(self, line, preparation, tmp_path, capsys):
        # an empty list reads as no list: it would pass the omega-key refusal unseen
        key = line.split()[0]
        text = OMEGA_CONFIG if preparation == "omega" else BELL_CONFIG
        lines = [row for row in text.splitlines() if not row.startswith(f"{key} =")]
        config = tmp_path / "exp.ini"
        config.write_text("\n".join(lines).replace("t0 = 0.5", f"t0 = 0.5\n{line}"))
        assert cli.main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key} is empty")

    @pytest.mark.parametrize(
        "line", ["omega_scissors = pqs1,,pqs2", "omega_split_ts = 0.4,"], ids=["scissors", "ts"]
    )
    def test_an_empty_list_item_exits_2(self, line, tmp_path, capsys):
        # a stray comma is no item: dropping it would run a list other than the one written
        key = line.split()[0]
        text = OMEGA_CONFIG.replace("omega_n = 2", "omega_n = 3\nomega_split_ts = 0.4")
        lines = [row for row in text.splitlines() if not row.startswith(f"{key} =")]
        config = tmp_path / "exp.ini"
        config.write_text("\n".join(lines).replace("t0 = 0.5", f"t0 = 0.5\n{line}"))
        assert cli.main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith(f"configuration error: {key} = ")

    @pytest.mark.parametrize("key", ["t0", "phi", "repetition_rate", "delta", "tail_bound", "max_cutoff"])
    def test_an_empty_value_is_refused(self, key):
        # an empty value is no value: it neither keeps the default nor echoes it
        lines = [line for line in BELL_CONFIG.splitlines() if not line.startswith(f"{key} =")]
        text = "\n".join(lines).replace("[experiment]", f"[experiment]\n{key} =")
        with pytest.raises(ConfigError, match=f"{key} = ''"):
            parse_config_text(text)

    def test_reference_grids(self):
        for name in PREPARATIONS:
            config = reference_grid(name)
            assert config.axis1.name == "delta"
            assert config.axis2.name == PIPELINES[name].knob_axis
        with pytest.raises(ConfigError):
            reference_grid("omega")


def _reference_csv(grid):
    """The CSV writer as it formatted every cell of every row, axis values included."""
    lines = [f"# {line}" for line in config_echo(grid.config)]
    lines.append(",".join(grid.columns))
    row_format = ",".join(["%.17e"] * (len(grid.columns) - 1) + ["%s"])
    lines += [row_format % row for row in grid.rows]
    if grid.max_abs_err_p is not None:
        lines.append(f"# summary: max_abs_err_P = {grid.max_abs_err_p:.17e}")
        lines.append(f"# summary: max_abs_err_F = {grid.max_abs_err_f:.17e}")
    return "\n".join(lines) + "\n"


def _reference_matrix(grid):
    """The matrix writer as it formatted the axis values once per block and row."""
    v1s, v2s = grid.config.axis1.values(), grid.config.axis2.values()
    lines = [f"# {line}" for line in config_echo(grid.config)]
    for ci, name in enumerate(grid.columns):
        if name in (grid.config.axis1.name, grid.config.axis2.name, "status"):
            continue
        lines.append(f"# block: {name}")
        lines.append(" ".join(["axis1\\axis2"] + [f"{v:.17e}" for v in v2s]))
        for i, v1 in enumerate(v1s):
            cells = [v1] + [row[ci] for row in grid.rows[i * len(v2s) : (i + 1) * len(v2s)]]
            lines.append(" ".join(f"{v:.17e}" for v in cells))
        lines.append("")
    return "\n".join(lines)


WRITER_GRIDS = {
    # ok at delta 0 (bell-pqs1 at phi 0 heralds a nonzero P), underflow at delta 20, and a count_rate column
    "edges-rate": ExperimentConfig(
        "bell-pqs1", AxisSpec("delta", -0.0, 20.0, 3), AxisSpec("t", 0.5, 0.9, 3), repetition_rate=6.4e6
    ),
    # knob first, backend both with its summary footer, a delta axis from -0.0
    "knob-first-both": ExperimentConfig(
        "bell-pqs2", AxisSpec("gamma_abs", 0.02, 0.08, 3), AxisSpec("delta", -0.0, 1.0, 3),
        backend="both", repetition_rate=1e6,
    ),
    # a phi axis from -0.0, and one that ends there, so a row's axis text is signed;
    # the degenerate rows: hybrid-pqs2 at phi pi and delta 0
    "phi-from-zero": ExperimentConfig(
        "hybrid-pqs2", AxisSpec("phi", -0.0, math.pi, 4), AxisSpec("delta", 0.0, 1.2, 3), gamma_abs=0.05
    ),
    "phi-to-zero": ExperimentConfig(
        "hybrid-pqs1", AxisSpec("delta", 0.4, 1.2, 3), AxisSpec("phi", math.pi, -0.0, 3), t=0.9
    ),
    "fine": ExperimentConfig("bell-pqs1", AxisSpec("delta", 0.5, 2.0, 50), AxisSpec("t", 0.5, 0.98, 50)),
}

# backend both at the degenerate corner: the delta = 0 rows vanish at phi = pi
BOTH_CORNER = ExperimentConfig(
    "bell-pqs1", AxisSpec("delta", 0.0, 1.0, 3), AxisSpec("t", 0.5, 0.9, 2), backend="both", phi=math.pi
)


# knob first, backend analytic and both, with a count_rate column; at phi pi the delta 0 rows are degenerate
KNOB_FIRST = {
    (name, backend): ExperimentConfig(
        name, AxisSpec(PIPELINES[name].knob_axis, *((0.5, 0.9) if name.endswith("pqs1") else (0.03, 0.07)), 3),
        AxisSpec("delta", 0.0, 1.2, 3), backend=backend, phi=math.pi, repetition_rate=1e6,
    )
    for name in PREPARATIONS
    for backend in ("analytic", "both")
}


def _cell_row(config, v1, v2):
    """The sweep row of one cell built alone: ``analytic_named``, then ``prepare_named`` and ``compare``."""
    params = config.cell_parameters(v1, v2)
    knob = params[PIPELINES[config.preparation].knob_axis]
    point = (config.preparation, params["delta"], params["phi"], params["t0"], knob)
    values, status = [v1, v2], "ok"
    try:
        if config.backend != "numeric":
            ana = analytic_named(*point)
            values += [ana.probability, ana.fidelity]
        if config.backend != "analytic":
            num = prepare_named(*point, tail_bound=config.tail_bound)
            if num.probability == 0.0 and config.backend == "numeric":  # with a closed form, compare judges it
                raise analytics._zero_probability(params["delta"], knob)
            values += [num.probability, num.fidelity]
        if config.backend == "both":
            *err, status = compare(ana, num)
            values += err
    except DegenerateStateError as exc:
        pairs = 3 if config.backend == "both" else 1  # (P, F) columns: each route's, then abs_err_*
        values += [math.nan] * (2 + 2 * pairs + (config.repetition_rate is not None) - len(values))
        return tuple(values + ["underflow" if isinstance(exc, analytics.ProbabilityUnderflowError) else "degenerate"])
    if config.repetition_rate is not None:
        values.append(analytics.count_rate(values[2], config.repetition_rate))
    return tuple(values + [status])


def _hex(row):
    return [v.hex() if isinstance(v, float) else v for v in row]


class TestSweep:
    def test_row_count_and_columns(self):
        grid = run_sweep(parse_config_text(BELL_CONFIG))
        assert len(grid.rows) == 6
        assert grid.columns == (
            "delta",
            "t",
            "P_analytic",
            "F_analytic",
            "P_numeric",
            "F_numeric",
            "abs_err_P",
            "abs_err_F",
            "count_rate",
            "status",
        )
        assert grid.max_abs_err_p <= 1e-10
        assert grid.max_abs_err_f <= 1e-10

    def test_deterministic_output(self):
        config = parse_config_text(BELL_CONFIG)
        a = grid_to_csv(run_sweep(config))
        b = grid_to_csv(run_sweep(config))
        assert a == b

    @pytest.mark.parametrize(
        "text",
        [BELL_CONFIG, HYBRID_PQS2_CONFIG, OMEGA_CONFIG],
        ids=["bell-pqs1", "hybrid-pqs2", "omega"],
    )
    def test_parallel_equals_serial(self, text):
        config = parse_config_text(text)
        serial = grid_to_csv(run_sweep(config, jobs=1))
        parallel = grid_to_csv(run_sweep(config, jobs=2))
        assert serial == parallel

    @pytest.mark.parametrize(
        "backend,jobs",
        [("analytic", 1), ("analytic", 2), ("analytic", 64), ("both", 1), ("both", 2), ("both", 64)],
    )
    def test_in_process_without_a_pool(self, children, backend, jobs):
        grid = run_sweep(parse_config_text(BELL_CONFIG, {"backend": backend}), jobs=jobs)
        assert children == []
        assert {row[-1] for row in grid.rows} == {"ok"}

    def test_csv_round_trip(self):
        grid = run_sweep(parse_config_text(BELL_CONFIG))
        columns, rows = grid_from_csv(grid_to_csv(grid))
        assert columns == grid.columns
        assert rows == grid.rows

    def test_single_point_count_rate(self):
        text = BELL_CONFIG.replace("start = 0.6\nstop = 1.0", "start = 0.8\nstop = 0.8")
        text = text.replace("start = 0.9\nstop = 0.98", "start = 0.98\nstop = 0.98")
        grid = run_sweep(parse_config_text(text))
        rate = grid.rows[0][grid.columns.index("count_rate")]
        assert rate == pytest.approx(230.0, rel=0.10)

    def test_degenerate_cell_flagged_not_fatal(self):
        text = BELL_CONFIG.replace("start = 0.6\nstop = 1.0", "start = 0.0\nstop = 1.0")
        text = text.replace("phi = 0.0", f"phi = {math.pi}")
        grid = run_sweep(parse_config_text(text))
        statuses = {row[-1] for row in grid.rows}
        assert statuses == {"degenerate", "ok"}

    def test_underflow_cell_is_not_degenerate(self):
        # the closed form's probability rounds to 0.0 at delta 20, inside the domain
        text = BELL_CONFIG.replace(
            "start = 0.6\nstop = 1.0\nsteps = 3", "start = 1.0\nstop = 20.0\nsteps = 2"
        )
        grid = run_sweep(parse_config_text(text, {"backend": "analytic"}))
        statuses = {row[0]: row[-1] for row in grid.rows}
        assert statuses == {1.0: "ok", 20.0: "underflow"}
        assert all(math.isnan(v) for row in grid.rows[2:] for v in row[2:-1])

    def test_numeric_cell_that_heralds_nothing_reads_as_the_closed_form(self):
        # at gamma_abs 0 the squeezer pumps no pair: the numeric route heralds
        # nothing, and the closed form's cell is degenerate
        text = HYBRID_PQS2_CONFIG.replace(
            "start = 0.6\nstop = 1.0\nsteps = 3", "start = 0.5\nstop = 0.6\nsteps = 2"
        ).replace("start = 0.03\nstop = 0.07", "start = 0.0\nstop = 0.05")
        numeric = run_sweep(parse_config_text(text, {"backend": "numeric"}))
        analytic = run_sweep(parse_config_text(text, {"backend": "analytic"}))
        assert [row[-1] for row in numeric.rows] == ["degenerate", "ok", "degenerate", "ok"]
        assert [row[-1] for row in numeric.rows] == [row[-1] for row in analytic.rows]
        assert all(math.isnan(v) for row in numeric.rows[::2] for v in row[2:-1])

    def test_numeric_zero_probability_inside_the_domain_reads_underflow(self, monkeypatch):
        monkeypatch.setattr(sweep, "prepare_stages", lambda *args, **kwargs: (PrepResult(0.0, 0.0),))
        for text in (BELL_CONFIG, OMEGA_CONFIG):
            grid = run_sweep(parse_config_text(text, {"backend": "numeric"}))
            assert {row[-1] for row in grid.rows} == {"underflow"}
        # on the edge of the domain: delta 0, or a knob that is no axis at 0
        text = BELL_CONFIG.replace("start = 0.6\nstop = 1.0", "start = 0.0\nstop = 1.0")
        grid = run_sweep(parse_config_text(text, {"backend": "numeric"}))
        assert [row[-1] for row in grid.rows] == ["degenerate"] * 2 + ["underflow"] * 4
        grid = run_sweep(parse_config_text(OMEGA_CONFIG.replace("gamma_abs = 0.05", "gamma_abs = 0.0")))
        assert {row[-1] for row in grid.rows} == {"degenerate"}

    def test_numeric_zero_probability_reads_every_knob_of_a_chain(self, monkeypatch):
        # a pqs1+pqs2 chain has two knobs: a zero is underflow only when both
        # lie inside (0, 1), so gamma_abs 0 alone makes the cell degenerate
        monkeypatch.setattr(sweep, "prepare_stages", lambda *args, **kwargs: (PrepResult(0.0, 0.0),))
        text = OMEGA_CONFIG.replace("gamma_abs = 0.05", "delta = 0.8").replace(
            "name = delta\nstart = 0.6\nstop = 1.0", "name = gamma_abs\nstart = 0.0\nstop = 0.1"
        )
        grid = run_sweep(parse_config_text(text))
        assert grid.config.pipeline.methods == ("pqs1", "pqs2")
        assert [row[:2] for row in grid.rows] == [(g, t) for g in (0.0, 0.05, 0.1) for t in (0.9, 0.98)]
        assert [row[-1] for row in grid.rows] == ["degenerate"] * 2 + ["underflow"] * 4

    @pytest.mark.parametrize("text", [BELL_CONFIG, OMEGA_CONFIG], ids=["bell-pqs1", "omega"])
    def test_internal_error_is_not_a_degenerate_row(self, monkeypatch, text):
        from polscissors.fock import FockError

        def broken(*args, **kwargs):
            raise FockError("simulator bug")

        monkeypatch.setattr(sweep, "prepare_stages", broken)
        with pytest.raises(FockError, match="simulator bug"):
            run_sweep(parse_config_text(text, {"backend": "numeric"}))

    @pytest.mark.parametrize("value", ["probability", "fidelity"], ids=["P", "F"])
    @pytest.mark.parametrize("cell", [0, 5], ids=["first", "last"])
    def test_a_nan_numeric_result_is_an_internal_error(self, monkeypatch, cell, value):
        # ``== 0.0`` misses a NaN: the cell must raise, naming itself, not read ok
        from polscissors.fock import FockError

        stages, calls = sweep.prepare_stages, []

        def nan_once(*args, **kwargs):
            results = stages(*args, **kwargs)
            calls.append(args)
            if len(calls) == cell + 1:
                return results[:-1] + (dataclasses.replace(results[-1], **{value: math.nan}),)
            return results

        monkeypatch.setattr(sweep, "prepare_stages", nan_once)
        config = parse_config_text(BELL_CONFIG)
        v1, v2 = [(v1, v2) for v1 in config.axis1.values() for v2 in config.axis2.values()][cell]
        with pytest.raises(FockError, match=re.escape(f"NaN at delta = {v1!r}, t = {v2!r}") + "$"):
            run_sweep(config)
        assert len(calls) == cell + 1

    def test_omega_sweep_honours_tail_bound(self):
        # the configured bound picks the cutoff; the source and target must use it too
        text = BELL_CONFIG.replace(
            "preparation = bell-pqs1\nbackend = both\nphi = 0.0",
            "preparation = omega\nbackend = numeric\nphi = 0.7\ntail_bound = 1e-6\n"
            "omega_n = 2\nomega_j = 2\nomega_scissors = pqs1,pqs1",
        )
        grid = run_sweep(parse_config_text(text))
        assert {row[-1] for row in grid.rows} == {"ok"}

    def test_matrix_and_json_formats(self):
        grid = run_sweep(parse_config_text(BELL_CONFIG, {"backend": "analytic"}))
        matrix = grid_to_matrix(grid)
        assert "# block: P_analytic" in matrix
        assert "# block: F_analytic" in matrix
        payload = json.loads(grid_to_json(grid))
        assert payload["columns"][:2] == ["delta", "t"]
        assert len(payload["rows"]) == 6

    def test_json_writes_nan_cells_as_null(self):
        # RFC 8259 has no NaN token, so a strict parser must read every cell
        def strict(token):
            raise ValueError(f"{token} is not JSON")

        corner = ExperimentConfig(
            "hybrid-pqs1", AxisSpec("delta", 0.0, 0.2, 3), AxisSpec("t0", 0.4, 0.6, 3),
            backend="both", phi=math.pi, t=0.9,
        )
        edges = load_config(str(Path(__file__).parent / "golden" / "bell-pqs1-edges.ini"))
        statuses = set()
        for config in (corner, edges):
            grid = run_sweep(config)
            payload = json.loads(grid_to_json(grid), parse_constant=strict)
            assert payload["rows"] == [
                [None if isinstance(v, float) and math.isnan(v) else v for v in row] for row in grid.rows
            ]
            statuses.update(row[-1] for row in grid.rows)
        assert statuses == {"ok", "degenerate", "underflow"}

    def test_analytic_reference_grid_runs_fast(self):
        grid = run_sweep(reference_grid("hybrid-pqs1"))
        assert len(grid.rows) == 625
        index = grid.columns.index("P_analytic")
        assert all(row[index] > 0 for row in grid.rows)

    def test_a_sweep_builds_its_pipeline_once(self, monkeypatch):
        omega = load_config(str(Path(__file__).parent / "golden" / "omega-n3-j2-split.ini"))
        calls = []

        def counting(*args):
            calls.append(args)
            return omega_pipeline(*args)

        monkeypatch.setattr("polscissors.config.omega_pipeline", counting)
        grid = run_sweep(omega)
        assert len(grid.rows) == 4 and {row[-1] for row in grid.rows} == {"ok"}
        assert calls == [(3, 2, ("pqs2", "pqs1"))]

    def test_infeasible_cutoff_refused(self):
        from polscissors.fock import CutoffError

        text = BELL_CONFIG.replace("stop = 1.0", "stop = 9.0")
        with pytest.raises(CutoffError):
            run_sweep(parse_config_text(text))

    @pytest.mark.parametrize("name", sorted(WRITER_GRIDS))
    def test_writers_match_the_per_cell_reference(self, name):
        # the writers format each axis value once per grid; the bytes must not move
        grid = run_sweep(WRITER_GRIDS[name])
        assert grid_to_csv(grid) == _reference_csv(grid)
        assert grid_to_matrix(grid) == _reference_matrix(grid)

    def test_writer_grids_cover_every_row_kind(self):
        grids = {name: run_sweep(config) for name, config in WRITER_GRIDS.items()}
        statuses = {row[-1] for grid in grids.values() for row in grid.rows}
        assert statuses == {"ok", "degenerate", "underflow"}
        degenerate = {name for name, grid in grids.items() if any(row[-1] == "degenerate" for row in grid.rows)}
        assert degenerate == {"phi-from-zero"}
        assert "count_rate" in grids["edges-rate"].columns
        assert grids["knob-first-both"].max_abs_err_p is not None
        assert len(grids["fine"].rows) == 2500
        assert ",-0.00000000000000000e+00," in grid_to_csv(grids["phi-to-zero"])

    def test_writers_refuse_a_grid_with_a_row_missing(self):
        grid = run_sweep(WRITER_GRIDS["knob-first-both"])
        short = dataclasses.replace(grid, rows=grid.rows[:-1])
        for writer in (grid_to_csv, grid_to_matrix):
            with pytest.raises(ValueError, match="8 rows, not 3 x 3"):
                writer(short)

    @pytest.mark.parametrize("corner", [False, True], ids=["knob-first-both", "degenerate-corner"])
    def test_footer_is_the_max_over_the_ok_rows(self, corner):
        # at phi = pi the delta = 0 rows are degenerate: their nan errors stay out of the footer
        config = BOTH_CORNER if corner else WRITER_GRIDS["knob-first-both"]
        grid = run_sweep(config)
        i_p, i_f = grid.columns.index("abs_err_P"), grid.columns.index("abs_err_F")
        oks = [row for row in grid.rows if row[-1] == "ok"]
        assert oks and (len(oks) < len(grid.rows)) == corner
        assert grid.max_abs_err_p == max(row[i_p] for row in oks)
        assert grid.max_abs_err_f == max(row[i_f] for row in oks)

    @pytest.mark.parametrize(
        "config",
        list(WRITER_GRIDS.values()) + [BOTH_CORNER] + list(KNOB_FIRST.values()),
        ids=list(WRITER_GRIDS) + ["both-corner"] + [f"{n}-{b}-knob-first" for n, b in KNOB_FIRST],
    )
    def test_every_row_is_the_row_of_its_cell_run_alone(self, config):
        # the shared source halves, knob factors and row dicts change no bit of any row
        grid = run_sweep(config)
        cells = [_cell_row(config, v1, v2) for v1 in config.axis1.values() for v2 in config.axis2.values()]
        assert [_hex(row) for row in grid.rows] == [_hex(row) for row in cells]

    def test_the_row_kinds_of_the_per_cell_grids(self):
        statuses = {row[-1] for config in KNOB_FIRST.values() for row in run_sweep(config).rows}
        assert statuses == {"ok", "degenerate"}

    def test_a_cell_past_the_budget_is_a_mismatch_and_the_sweep_exits_1(self, monkeypatch, tmp_path):
        # one numeric P off by 1e-6 relative, |dP| about 5e-8: that cell reads mismatch,
        # the footer shows it, the whole grid is written, and the run exits 1
        calls = []

        def skewed(*args):
            stages = prepare_stages(*args)
            calls.append(args[1:4])  # the cell's (delta, phi, t0)
            if len(calls) == 3:
                last = dataclasses.replace(stages[-1], probability=stages[-1].probability * (1 + 1e-6))
                return stages[:-1] + (last,)
            return stages

        monkeypatch.setattr(sweep, "prepare_stages", skewed)
        config = tmp_path / "exp.ini"
        config.write_text(BELL_CONFIG.replace("bell-pqs1", "hybrid-pqs1"))
        out = tmp_path / "grid.csv"
        assert cli.main(["sweep", "--config", str(config), "--out", str(out)]) == cli.EXIT_VERIFY_FAIL
        text = out.read_text()
        columns, rows = grid_from_csv(text)
        assert [row[-1] for row in rows] == ["ok", "ok", "mismatch", "ok", "ok", "ok"]
        i_p = columns.index("abs_err_P")
        assert rows[2][i_p] > DEFAULT_BUDGET >= max(row[i_p] for row in rows if row[-1] == "ok")
        assert f"# summary: max_abs_err_P = {rows[2][i_p]:.17e}\n" in text
        assert rows[2][columns.index("count_rate")] == rows[2][2] * 6.4e6
        calls.clear()
        grid = run_sweep(parse_config_text(BELL_CONFIG.replace("bell-pqs1", "hybrid-pqs1")))
        assert grid.rows == tuple(rows) and grid.max_abs_err_p == rows[2][i_p]

    @pytest.mark.parametrize("cell", [0, 1, 3], ids=["first", "middle", "last"])
    def test_a_nan_deviation_in_any_cell_is_the_footers(self, monkeypatch, cell):
        # the footer is ``preparations.worst`` over the ok and mismatch cells, so a NaN from any
        # cell is kept (``max`` kept one only from the first), and JSON writes it as null
        config = ExperimentConfig(
            "bell-pqs1", AxisSpec("delta", 0.6, 0.8, 2), AxisSpec("t", 0.6, 0.8, 2), backend="both"
        )
        clean, halves, calls = run_sweep(config), sweep.closed_form_halves, []

        def nan_in_one_cell(name):
            source_half, combine = halves(name)

            def combined(half, knob):
                calls.append(knob)
                p, f = combine(half, knob)
                return (math.nan if len(calls) == cell + 1 else p), f

            return source_half, combined

        monkeypatch.setattr(sweep, "closed_form_halves", nan_in_one_cell)
        grid = run_sweep(config)
        assert len(calls) == 4
        expected = [list(row) for row in clean.rows]
        expected[cell][2] = expected[cell][grid.columns.index("abs_err_P")] = math.nan
        expected[cell][-1] = "mismatch"
        assert {row[-1] for row in clean.rows} == {"ok"}
        assert [_hex(row) for row in grid.rows] == [_hex(row) for row in expected]
        assert math.isnan(grid.max_abs_err_p) and grid.max_abs_err_f == clean.max_abs_err_f
        assert "# summary: max_abs_err_P = nan\n" in grid_to_csv(grid)

        def strict(token):
            raise ValueError(f"{token} is not JSON")

        payload = json.loads(grid_to_json(grid), parse_constant=strict)
        assert payload["summary"] == {"max_abs_err_P": None, "max_abs_err_F": clean.max_abs_err_f}
        assert payload["rows"][cell][2] is None and payload["rows"][cell][-1] == "mismatch"

    def test_an_all_degenerate_both_grid_has_no_footer(self):
        grid = run_sweep(dataclasses.replace(BOTH_CORNER, axis1=AxisSpec("delta", 0.0, 0.0, 2)))
        assert {row[-1] for row in grid.rows} == {"degenerate"}
        assert grid.max_abs_err_p is None and grid.max_abs_err_f is None
        assert "# summary" not in grid_to_csv(grid)
        assert json.loads(grid_to_json(grid))["summary"] == {"max_abs_err_F": None, "max_abs_err_P": None}

    @pytest.mark.parametrize(
        "row,cells", [("1.0,2.0", 2), ("3.0,4.0,ok,extra", 4)], ids=["short", "long"]
    )
    def test_csv_row_with_the_wrong_cell_count_is_refused(self, row, cells):
        with pytest.raises(ValueError, match=f"has {cells} cells, not the header's 3"):
            grid_from_csv(f"delta,t,status\n{row}\n")


class TestVerify:
    def test_small_run_passes(self):
        report = run_verify(seed=3, samples=4)
        assert report.passed
        worst = max(max(c.max_dp, c.max_df) for c in report.checks)
        assert worst <= 1e-10

    def test_deterministic_reports(self):
        a = run_verify(seed=11, samples=3)
        b = run_verify(seed=11, samples=3)
        assert a.lines() == b.lines()

    def test_different_seeds_differ(self):
        a = run_verify(seed=1, samples=2)
        b = run_verify(seed=2, samples=2)
        assert a.lines() != b.lines()

    def test_degenerate_tuple_skipped_with_reason(self):
        report = run_verify(
            seed=5,
            samples=1,
            ranges={"delta": (0.0, 0.0), "phi": (math.pi, math.pi)},
        )
        # the shared source is degenerate, so both families skip with its reason
        named = [c for c in report.checks if c.name.startswith(("hybrid-", "bell-"))]
        assert [c.name for c in named] == ["hybrid-pqs1", "hybrid-pqs2", "bell-pqs1", "bell-pqs2"]
        reasons = {reason for c in named for reason in c.skipped}
        assert all(c.samples == 0 and len(c.skipped) == 1 for c in named)
        assert len(reasons) == 1 and "vanishing norm" in reasons.pop()
        assert report.passed  # skips are reported, not failures

    def test_closed_form_skip_stays_in_its_family(self, monkeypatch):
        def degenerate(*args):
            raise analytics.DegenerateParameterError("forced")

        monkeypatch.setattr(analytics, "pf_hybrid", degenerate)
        checks = {c.name: c for c in run_verify(seed=3, samples=1).checks}
        for method in ("pqs1", "pqs2"):
            hybrid, bell = checks[f"hybrid-{method}"], checks[f"bell-{method}"]
            assert hybrid.samples == 0 and hybrid.skipped[0].endswith(": forced")
            assert bell.samples == 1 and not bell.skipped

    @pytest.mark.parametrize(
        "seed,ranges",
        [(2, None), (7, None), (5, {"delta": (0.0, 0.0), "phi": (math.pi, math.pi)})],
    )
    def test_lines_match_separate_pipelines(self, seed, ranges):
        # reference: each named check runs its own pipeline from a fresh source
        samples = 2
        report = run_verify(seed=seed, samples=samples, ranges=ranges)
        spans = {**DEFAULT_RANGES, **(ranges or {})}
        rng = random.Random(seed)
        named = {name: CheckStat(name) for name in CHECK_NAMES[3:]}
        for index in range(samples):
            delta = rng.uniform(*spans["delta"])
            t = rng.uniform(*spans["t"])
            gamma = rng.uniform(*spans["gamma_abs"])
            phi = rng.uniform(*spans["phi"])
            t0 = rng.uniform(*spans["t0"])
            _random_polarized_input(rng, 8)  # keep the draws in step with run_verify
            tag = f"sample {index}: delta={delta:.3f} phi={phi:.3f} t0={t0:.3f}"
            for name, runner, method, knob in (
                ("hybrid-pqs1", prepare_hybrid, "pqs1", t),
                ("hybrid-pqs2", prepare_hybrid, "pqs2", gamma),
                ("bell-pqs1", _bell_chain, "pqs1", t),
                ("bell-pqs2", _bell_chain, "pqs2", gamma),
            ):
                try:
                    num = runner(method, delta, phi, t0, knob)
                    closed = analytics.pf_hybrid if name.startswith("hybrid") else analytics.pf_bell
                    ana = closed(method, delta, phi, t0, knob)
                    named[name].record(
                        abs(num.probability - ana.probability),
                        abs(num.fidelity - ana.fidelity),
                        "ok",  # unread: ``passed`` is rebuilt below
                    )
                except (DegenerateStateError, analytics.DegenerateParameterError) as exc:
                    named[name].skipped.append(f"{tag}: {exc}")
        checks = report.checks[:3] + tuple(named.values())
        passed = all(max(c.max_dp, c.max_df) <= report.budget for c in checks)
        expected = VerifyReport(seed, samples, report.budget, checks, passed)
        assert report.lines() == expected.lines()

    @pytest.mark.parametrize("sample", [0, 2], ids=["first", "last"])
    def test_a_nan_deviation_fails_its_check(self, monkeypatch, sample):
        # ``max`` would drop a NaN that arrives after a number; the check must keep it
        closed_form, calls = analytics.pf_bell, []

        def nan_once(method, *args):
            pf = closed_form(method, *args)
            if method == "pqs1":
                calls.append(method)
                if len(calls) == sample + 1:
                    return analytics.AnalyticPF(math.nan, pf.fidelity)
            return pf

        monkeypatch.setattr(analytics, "pf_bell", nan_once)
        report = run_verify(1, 3)
        checks = {c.name: c for c in report.checks}
        assert len(calls) == 3 and checks["bell-pqs1"].samples == 3
        assert math.isnan(checks["bell-pqs1"].max_dp) and checks["bell-pqs1"].max_df <= 1e-10
        assert not report.passed
        lines = report.lines()
        assert [line.split()[-2] for line in lines if line.startswith("bell-pqs1")] == ["nan"]
        assert lines[-1] == "result: FAIL (worst deviation nan)"

    @pytest.mark.parametrize("at", [0, 2], ids=["first", "last"])
    def test_record_keeps_a_nan(self, at):
        stat = CheckStat("x")
        for i in range(3):
            stat.record(math.nan if i == at else 1e-12 * (i + 1), math.nan if i == at else 0.0, "ok")
        assert math.isnan(stat.max_dp) and math.isnan(stat.max_df) and stat.samples == 3

    def test_a_circuit_that_heralds_nothing_fails_its_check(self):
        # at delta 8.5 the coherent input, compacted at fock.DEFAULT_TOL, has lost the vacuum and
        # one-photon amplitudes the scissors keep: qs heralds nothing, which scores fidelity 0.0
        # (as ``prepare_stages`` scores such a stage) and fails the check instead of raising
        coh = sources.coherent(8.5, H, max(4, min_cutoff(8.5)))
        assert qs_apply(coh, 0, H, 0.5, herald_first=True).canonical_state is None
        report = run_verify(1, 2, ranges={"delta": (8.5, 8.6), "t0": (0.5, 0.5)})
        qs = report.checks[CHECK_NAMES.index("qs")]
        assert qs.samples == 2 and not qs.skipped and qs.max_df > 0.9
        assert not report.passed and report.lines()[-1].startswith("result: FAIL")

    def test_a_numeric_zero_fails_verify_as_it_fails_the_sweep(self):
        # the numeric route reads P = 0.0 where the closed form's P is a normal float: ``compare``
        # reads it ``mismatch`` for both harnesses, so the sweep's cells and verify agree
        config = load_config(str(Path(__file__).parent / "golden" / "hybrid-pqs1-numeric-zero.ini"))
        assert {row[-1] for row in run_sweep(config).rows} == {"mismatch"}
        axes = {axis.name: (axis.start, axis.stop) for axis in (config.axis1, config.axis2)}
        report = run_verify(1, 2, ranges={**axes, "phi": (config.phi,) * 2, "t0": (config.t0,) * 2})
        hybrid = report.checks[CHECK_NAMES.index("hybrid-pqs1")]
        assert hybrid.samples == 2 and not hybrid.ok and hybrid.max_dp < 1e-30 < 0.9 < hybrid.max_df
        assert not report.passed and report.lines()[-1].startswith("result: FAIL")

    def test_an_unknown_range_is_refused(self):
        with pytest.raises(ValueError, match=r"unknown ranges \['detla'\]"):
            run_verify(1, 1, ranges={"gamma_abs": (0.05, 0.06), "detla": (5.0, 5.0)})
        with pytest.raises(ValueError, match=r"unknown ranges \['gamma'\]"):
            run_verify(1, 1, ranges={"gamma": (0.5, 0.6)})


def _bell_chain(method, delta, phi, t0, knob):
    """The Bell pipeline by the route ``run_verify`` takes, the stage loop's tables."""
    pipeline = Pipeline((method, method), BELL_ARMS)
    return prepare_stages(pipeline, delta, phi, t0, {KNOB_AXES[method]: knob})[-1]


class TestSpot:
    @pytest.mark.parametrize("name", ["bell-pqs1", "bell-pqs2"])
    def test_operating_points_pass(self, name):
        lines, ok = run_spot(name)
        assert ok
        assert any("PASS" in line for line in lines)

    def test_unknown_point(self):
        with pytest.raises(ValueError):
            run_spot("bogus")


class TestCli:
    def run_cli(self, *args, expect: int, timeout: float = 300):
        proc = subprocess.run(
            [sys.executable, "-m", "polscissors", *args],
            capture_output=True,
            text=True,
            timeout=timeout,
        )
        assert proc.returncode == expect, proc.stderr + proc.stdout
        return proc

    def test_sweep_csv(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(BELL_CONFIG)
        out = tmp_path / "grid.csv"
        self.run_cli("sweep", "--config", str(config), "--out", str(out), expect=0)
        columns, rows = grid_from_csv(out.read_text())
        assert len(rows) == 6
        assert "count_rate" in columns

    def test_sweep_bad_config_exit_2(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(BELL_CONFIG.replace("bell-pqs1", "bogus"))
        self.run_cli("sweep", "--config", str(config), expect=2)

    def test_sweep_non_finite_value_exit_2(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(BELL_CONFIG.replace("phi = 0.0", "phi = nan"))
        self.run_cli("sweep", "--config", str(config), expect=2)

    def test_sweep_out_of_domain_exit_2(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(BELL_CONFIG.replace("start = 0.6", "start = -1.0"))
        proc = self.run_cli("sweep", "--config", str(config), expect=2)
        assert "delta = -1.0 outside" in proc.stderr

    def test_sweep_infeasible_exit_3(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(BELL_CONFIG.replace("stop = 1.0", "stop = 9.0"))
        self.run_cli("sweep", "--config", str(config), expect=3)

    def test_sweep_past_the_float_range_of_gamma_squared_exit_3(self, tmp_path):
        config = tmp_path / "exp.ini"
        config.write_text(
            BELL_CONFIG.replace("start = 0.6", "start = 1e160").replace("stop = 1.0", "stop = 2e160")
        )
        self.run_cli("sweep", "--config", str(config), "--backend", "numeric", expect=3)

    def test_verify_exit_codes(self):
        proc = self.run_cli("verify", "--seed", "1", "--samples", "2", expect=0)
        assert "PASS" in proc.stdout
        proc = self.run_cli(
            "verify", "--seed", "1", "--samples", "2", "--budget", "1e-30", expect=1
        )
        assert "FAIL" in proc.stdout

    @pytest.mark.parametrize(
        "option,value", [("--samples", "0"), ("--budget", "nan"), ("--budget", "0"), ("--budget", "-1")]
    )
    def test_verify_out_of_domain_exit_2(self, option, value):
        # argparse keeps the last of a repeated option, so "--samples 0" replaces the 1
        proc = self.run_cli("verify", "--seed", "1", "--samples", "1", option, value, expect=2)
        assert option[2:] in proc.stderr and "Traceback" not in proc.stderr

    @pytest.mark.parametrize("value", ["nan", "inf", "-1"])
    def test_state_out_of_domain_min_amplitude_exit_2(self, value):
        # unchecked, nan would print every amplitude and inf none
        proc = self.run_cli(
            "state", "--prep", "coherent:gamma=0.5", "--min-amplitude", value, expect=2
        )
        assert "min_amplitude" in proc.stderr and proc.stdout == ""

    def test_state_dump_value(self):
        proc = self.run_cli(
            "state", "--prep", "xi:delta=1,phi=0,t0=0.5", expect=0
        )
        wanted = [l for l in proc.stdout.splitlines() if l.startswith("m0:(1,0);m1:(1,0) ")]
        assert len(wanted) == 1
        value = float(wanted[0].split()[1])
        assert value == pytest.approx(0.24412, abs=1e-4)

    def test_state_vacuum_single_row(self):
        proc = self.run_cli("state", "--prep", "coherent:gamma=0", expect=0)
        lines = [l for l in proc.stdout.splitlines() if l]
        assert len(lines) == 1
        assert lines[0].startswith("m0:(0,0) 1.0")

    def test_state_dump_deterministic(self):
        a = self.run_cli("state", "--prep", "cat:delta=1,phi=0", expect=0).stdout
        b = self.run_cli("state", "--prep", "cat:delta=1,phi=0", expect=0).stdout
        assert a == b

    def test_domain_error_echoes_the_typed_value(self, tmp_path):
        # a count is echoed as typed, not as its 201 digits
        proc = self.run_cli("state", "--prep", "coherent:gamma=0.8,cutoff=1e200", expect=2)
        assert "cutoff = 1e200 outside [1, 4096]" in proc.stderr
        config = tmp_path / "exp.ini"
        config.write_text(BELL_CONFIG.replace("start = 0.6", "start = -1e0"))
        proc = self.run_cli("sweep", "--config", str(config), expect=2)
        assert "delta = -1e0 outside" in proc.stderr

    def test_state_bad_descriptor_exit_2(self):
        # the module entry point; every bad descriptor runs in process below
        self.run_cli("state", "--prep", BAD_DESCRIPTORS[0], expect=2)

    @pytest.mark.parametrize("descriptor", BAD_DESCRIPTORS)
    def test_state_bad_descriptor_exit_2_in_process(self, descriptor, capsys):
        assert cli.main(["state", "--prep", descriptor]) == 2
        assert capsys.readouterr().err.startswith("configuration error")

    @pytest.mark.parametrize(
        "descriptor",
        ["xi:delta=0.5,pol=V", "lambda:delta=0.5,n=3,t1=0.4,pol=V", "bell-pqs1:delta=0.5,t=0.9,pol=V"],
        ids=["xi", "lambda", "bell-pqs1"],
    )
    def test_pol_is_read_only_where_a_state_has_a_polarization(self, descriptor, capsys):
        assert cli.main(["state", "--prep", descriptor]) == 2
        assert capsys.readouterr().err == "configuration error: unused descriptor parameters: ['pol']\n"
        for name in ("coherent:gamma=0.5", "cat:delta=0.5"):
            assert cli.main(["state", "--prep", f"{name},pol=v"]) == 0
            keys = {line.split()[0] for line in capsys.readouterr().out.splitlines()}
            assert "m0:(0,2)" in keys and "m0:(2,0)" not in keys

    @pytest.mark.parametrize(
        "descriptor,name,count",
        [
            ("target-omega:delta=0.5,n=2,j={}", "j", "0.99999999999999999"),
            ("lambda:delta=0.5,cutoff={}", "cutoff", "9.9999999999999999"),
            ("lambda:delta=0.5,n={},t1=0.4", "n", "3.0000000000000001"),
        ],
        ids=["j", "cutoff", "n"],
    )
    def test_a_descriptor_count_is_read_exactly_as_written(self, descriptor, name, count, capsys):
        # a float would round each count to a whole number; a config count is read the same way
        assert cli.main(["state", "--prep", descriptor.format(count)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: {name} = {count!r} is not a whole number in the float range\n"
        )
        assert cli.main(["state", "--prep", descriptor.format(round(float(count)))]) == 0
        assert cli.main(["state", "--prep", descriptor.format(f"{round(float(count))}.0")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "mutation", [("t0 = 0.5", "t0 ="), ("t0 = 0.5", "t0 = 0.5\nomega_split_ts = 0.4")], ids=["empty", "omega"]
    )
    def test_config_value_errors_exit_2(self, mutation, tmp_path, capsys):
        config = tmp_path / "exp.ini"
        config.write_text(BELL_CONFIG.replace("bell-pqs1", "hybrid-pqs1").replace(*mutation))
        assert cli.main(["sweep", "--config", str(config)]) == 2
        assert capsys.readouterr().err.startswith("configuration error")

    def test_state_that_heralds_nothing_exits_2_with_the_rule(self, capsys):
        # the closed forms' and the sweep's rule: gamma_abs 0 lies on the edge
        assert cli.main(["state", "--prep", "hybrid-pqs2:delta=1,gamma_abs=0"]) == 2
        rule = analytics._zero_probability(1.0, 0.0)
        assert capsys.readouterr().err == f"configuration error: degenerate parameters ({rule})\n"

    @pytest.mark.parametrize(
        "argv,code",
        [
            (["state", "--prep", "xi-circuit:delta=6"], 3),
            (["state", "--prep", "hybrid-pqs1:delta=10,t=0.5"], 2),
            (["sweep", "--config", "big.ini"], 1),
            (["sweep", "--config", str(Path(__file__).parent / "golden" / "hybrid-pqs1-numeric-zero.ini")], 1),
        ],
        ids=["xi-circuit", "hybrid-pqs1", "sweep", "sweep-numeric-zero"],
    )
    def test_beam_splitter_past_the_float_range_exit_3(self, argv, code, tmp_path, capsys):
        # past about 170 photons a pair's factorials leave the float range; the
        # source circuit's full expansion forms such pairs, but a heralded beam
        # splitter skips every pair whose photon totals reach no detector
        # pattern, so at delta 10 the scissors herald an underflowing 0.0; a
        # ``both`` sweep's closed form there still reads a positive P (about
        # 1e-43 at delta 10, 3.9e-38 to 1.8e-32 at delta 6.5 to 7), so ``compare``
        # reads each such cell ``mismatch`` and the sweep exits 1
        config = tmp_path / "big.ini"
        if "big.ini" in argv:
            config.write_text(
                BELL_CONFIG.replace("bell-pqs1", "hybrid-pqs1")
                .replace("start = 0.6\nstop = 1.0", "start = 9.9\nstop = 10.0")
                .replace("t0 = 0.5", "t0 = 0.5\nmax_cutoff = 400")
            )
        assert cli.main([str(config) if arg == "big.ini" else arg for arg in argv]) == code
        out, err = capsys.readouterr()
        if code == 3:
            assert err.startswith("numeric infeasibility: beam splitter terms of photon pair (")
        elif code == 2:
            rule = analytics._zero_probability(10.0, 0.5)
            assert err == f"configuration error: degenerate parameters ({rule})\n"
        else:
            columns, rows = grid_from_csv(out)
            assert len(rows) == (6 if "big.ini" in argv else 4) and {row[-1] for row in rows} == {"mismatch"}
            assert {row[columns.index("P_numeric")] for row in rows} == {0.0}
            assert all(row[columns.index("P_analytic")] > 0.0 for row in rows)

    @pytest.mark.parametrize("prep", ["coherent:gamma=1e200", "cat:delta=1e200", "xi:delta=1e200"])
    def test_state_past_the_float_range_of_gamma_squared_exit_3(self, prep):
        self.run_cli("state", "--prep", prep, expect=3)

    @pytest.mark.parametrize("name", ["lambda", "lambda-circuit"])
    def test_state_oversized_source_exit_3(self, name):
        # 3.3e9 amplitude products per branch: refused before anything is built
        splits = ",".join(f"t{i}=0.5" for i in range(1, 7))
        proc = self.run_cli("state", "--prep", f"{name}:delta=1,n=8,{splits}", expect=3, timeout=30)
        assert "amplitude products" in proc.stderr

    def test_state_oversized_xi_circuit_exit_3(self, monkeypatch, capsys):
        # the two-arm circuit dump is lambda-circuit at n = 2, guard included
        monkeypatch.setattr(sources, "MAX_SOURCE_PRODUCTS", 100)
        assert cli.main(["state", "--prep", "xi-circuit:delta=1,cutoff=12"]) == 3
        assert "amplitude products" in capsys.readouterr().err

    def test_sweep_eight_arm_omega_exit_0(self, tmp_path):
        # the stage loop keeps the source as two products: no size limit applies
        config = tmp_path / "exp.ini"
        config.write_text(
            OMEGA_CONFIG.replace("omega_n = 2", "omega_n = 8").replace(
                "omega_scissors = pqs1,pqs2", "omega_scissors = pqs1,pqs2\nomega_split_ts = "
                + ",".join(["0.5"] * 6)
            )
        )
        out = tmp_path / "grid.csv"
        self.run_cli("sweep", "--config", str(config), "--out", str(out), expect=0, timeout=60)
        columns, rows = grid_from_csv(out.read_text())
        assert rows and {row[columns.index("status")] for row in rows} == {"ok"}
        for name in ("P_numeric", "F_numeric"):
            assert all(0 < row[columns.index(name)] < 1 for row in rows)

    @pytest.mark.parametrize("prep", ["coherent:gamma=30", "cat:delta=30,phi=0.3"])
    def test_state_past_the_float_range_of_n_factorial(self, prep):
        # the cutoff passes n = 170, beyond which n! does not fit a float
        proc = self.run_cli("state", "--prep", prep, "--min-amplitude", "0", expect=0)
        rows = [line.split() for line in proc.stdout.splitlines()]
        assert max(int(key.split(",")[0][4:]) for key, _, _ in rows) > 170
        norm = sum(float(re) ** 2 + float(im) ** 2 for _, re, im in rows)
        assert norm == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_sweep_jobs_below_one_exit_2(self, jobs):
        proc = self.run_cli("sweep", "--reference", "bell-pqs1", "--jobs", jobs, expect=2)
        assert "--jobs" in proc.stderr

    def test_spot_pass(self):
        proc = self.run_cli("spot", "--point", "bell-pqs1", expect=0)
        assert "PASS" in proc.stdout

    def test_reference_sweep(self, tmp_path):
        out = tmp_path / "ref.csv"
        self.run_cli(
            "sweep", "--reference", "hybrid-pqs2", "--out", str(out), expect=0
        )
        columns, rows = grid_from_csv(out.read_text())
        assert len(rows) == 625

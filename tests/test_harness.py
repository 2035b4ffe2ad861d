import json
import math
import multiprocessing
import random
import subprocess
import sys

import pytest

from polscissors import analytics, cli, sweep
from polscissors.analytics import DegenerateParameterError as DegenerateStateError
from polscissors.config import (
    AxisSpec,
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    reference_grid,
)
from polscissors.preparations import (
    BELL_ARMS,
    KNOB_AXES,
    PIPELINES,
    PREPARATIONS,
    Pipeline,
    prepare_stages,
)
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

    def test_reference_grids(self):
        for name in PREPARATIONS:
            config = reference_grid(name)
            assert config.axis1.name == "delta"
            assert config.axis2.name == PIPELINES[name].knob_axis
        with pytest.raises(ConfigError):
            reference_grid("omega")


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

    @pytest.mark.parametrize("text", [BELL_CONFIG, OMEGA_CONFIG], ids=["bell-pqs1", "omega"])
    def test_internal_error_is_not_a_degenerate_row(self, monkeypatch, text):
        from polscissors.fock import FockError

        def broken(*args, **kwargs):
            raise FockError("simulator bug")

        monkeypatch.setattr(sweep, "prepare_stages", broken)
        with pytest.raises(FockError, match="simulator bug"):
            run_sweep(parse_config_text(text, {"backend": "numeric"}))

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

    def test_analytic_reference_grid_runs_fast(self):
        grid = run_sweep(reference_grid("hybrid-pqs1"))
        assert len(grid.rows) == 625
        index = grid.columns.index("P_analytic")
        assert all(row[index] > 0 for row in grid.rows)

    def test_infeasible_cutoff_refused(self):
        from polscissors.fock import CutoffError

        text = BELL_CONFIG.replace("stop = 1.0", "stop = 9.0")
        with pytest.raises(CutoffError):
            run_sweep(parse_config_text(text))


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
                    )
                except (DegenerateStateError, analytics.DegenerateParameterError) as exc:
                    named[name].skipped.append(f"{tag}: {exc}")
        checks = report.checks[:3] + tuple(named.values())
        passed = all(max(c.max_dp, c.max_df) <= report.budget for c in checks)
        expected = VerifyReport(seed, samples, report.budget, checks, passed)
        assert report.lines() == expected.lines()


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

    @pytest.mark.parametrize("prep", ["coherent:gamma=1e200", "cat:delta=1e200", "xi:delta=1e200"])
    def test_state_past_the_float_range_of_gamma_squared_exit_3(self, prep):
        self.run_cli("state", "--prep", prep, expect=3)

    @pytest.mark.parametrize("name", ["lambda", "lambda-circuit"])
    def test_state_oversized_source_exit_3(self, name):
        # 3.3e9 amplitude products per branch: refused before anything is built
        splits = ",".join(f"t{i}=0.5" for i in range(1, 7))
        proc = self.run_cli("state", "--prep", f"{name}:delta=1,n=8,{splits}", expect=3, timeout=30)
        assert "amplitude products" in proc.stderr

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

import json
import math
import random
import subprocess
import sys

import pytest

from polscissors import analytics, sweep
from polscissors.analytics import DegenerateParameterError as DegenerateStateError
from polscissors.config import (
    AxisSpec,
    ConfigError,
    ExperimentConfig,
    parse_config_text,
    reference_grid,
)
from polscissors.preparations import PIPELINES, PREPARATIONS, prepare_bell, prepare_hybrid
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
        "mutation",
        [
            ("preparation = bell-pqs1", "preparation = bogus"),
            ("backend = both", "backend = fast"),
            ("name = t", "name = q"),
            ("steps = 2", "steps = 1"),
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

    def test_parallel_equals_serial(self):
        config = parse_config_text(BELL_CONFIG)
        serial = grid_to_csv(run_sweep(config, jobs=1))
        parallel = grid_to_csv(run_sweep(config, jobs=2))
        assert serial == parallel

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
        assert "degenerate" in statuses
        assert "ok" in statuses

    def test_internal_error_is_not_a_degenerate_row(self, monkeypatch):
        from polscissors.fock import FockError

        def broken(*args, **kwargs):
            raise FockError("simulator bug")

        monkeypatch.setattr(sweep, "prepare_named", broken)
        with pytest.raises(FockError, match="simulator bug"):
            run_sweep(parse_config_text(BELL_CONFIG, {"backend": "numeric"}))

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
                ("bell-pqs1", prepare_bell, "pqs1", t),
                ("bell-pqs2", prepare_bell, "pqs2", gamma),
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
    def run_cli(self, *args, expect: int):
        proc = subprocess.run(
            [sys.executable, "-m", "polscissors", *args],
            capture_output=True,
            text=True,
            timeout=300,
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

    def test_state_bad_descriptor_exit_2(self):
        self.run_cli("state", "--prep", "warp:delta=1", expect=2)
        self.run_cli("state", "--prep", "xi:phi=0", expect=2)
        self.run_cli("state", "--prep", "xi:delta=nan", expect=2)
        self.run_cli("state", "--prep", "bell-pqs1:delta=0.8,t=1.5", expect=2)
        self.run_cli("state", "--prep", "hybrid-pqs2:delta=0.8,gamma_abs=1.5", expect=2)
        self.run_cli("state", "--prep", "xi:delta=-1", expect=2)
        self.run_cli("state", "--prep", "xi:delta=abc", expect=2)
        self.run_cli("state", "--prep", "target-omega:delta=1,j=5", expect=2)
        self.run_cli("state", "--prep", "lambda:delta=1,t1=1.5,n=3", expect=2)
        self.run_cli("state", "--prep", "lambda:delta=1,n=0", expect=2)

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

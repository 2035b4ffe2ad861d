"""The four benchmark workloads: seeded inputs, one op, and its correctness gate.

Every workload draws its inputs from ``random.Random(seed)`` and hands them
out in cycles.  A cycle holds one op per stratum of what the op's cost depends
on (parameter cell, preparation, source kind and size), so every run times the
same mix of op sizes and only the exact parameters vary with the seed.  The
timed phase runs a fixed number of whole cycles, ``round(seconds / cycle_s)``,
so a run lasts roughly, not exactly, ``--seconds``.  A fixed op count keeps
the median and the tail (the 11th-slowest op) at the same ranks of the same
mix in every run; ``cycle_s`` is set so that at 20 seconds both ranks fall
inside one class of ops (one cell, preparation or source size), not between
two classes whose costs differ.

An op returns its output; ``check`` returns ``(passed, deviation)``, where the
deviation is the worst |dP|, |dF| or 1-F the op produced.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from polscissors import config, fock, preparations, sources, sweep, verify

VERIFY_BUDGET = 1e-8
SOURCE_BUDGET = 1e-9  # acceptance criterion c8: 1 - F of circuit vs direct source
SWEEP_ERR_BUDGET = 1e-8


def _offset_axis(rng: random.Random, name: str, lo: float, hi: float, share: float, steps: int):
    """An axis covering ``share`` of [lo, hi] at a seeded offset inside it."""
    width = (hi - lo) * share
    start = lo + rng.uniform(0.0, hi - lo - width)
    return config.AxisSpec(name, start, start + width, steps)


def _sweep_config(rng, preparation: str, backend: str, share: float, steps: int):
    """A ``steps`` x ``steps`` grid over ``share`` of each reference-grid axis."""
    pqs1 = preparation.endswith("pqs1")
    d_lo, d_hi, _ = config.REFERENCE_GRID_DELTA
    k_lo, k_hi, _ = config.REFERENCE_GRID_T if pqs1 else config.REFERENCE_GRID_GAMMA
    knob = "t" if pqs1 else "gamma_abs"
    return config.ExperimentConfig(
        preparation=preparation,
        axis1=_offset_axis(rng, "delta", d_lo, d_hi, share, steps),
        axis2=_offset_axis(rng, knob, k_lo, k_hi, share, steps),
        backend=backend,
    )


def _check_grid(grid, csv: str, max_err: float | None) -> tuple[bool, float]:
    columns, rows = sweep.grid_from_csv(csv)
    ok = all(row[-1] == sweep.STATUS_OK for row in grid.rows)
    ok = ok and columns == grid.columns and rows == grid.rows
    dev = 0.0
    if max_err is not None:
        dev = max(grid.max_abs_err_p, grid.max_abs_err_f)
        ok = ok and dev <= max_err
    return ok, dev


class Verify:
    name = "verify"
    why = (
        "run_verify samples across the default ranges, the 1e-8 contract; time goes to "
        "heralding in scissors/elements/fock, so herald-first and kernel changes show here"
    )
    # A sample's cost is set by delta and t0 (through the cutoff) and by gamma
    # (squeezer length).  Each cycle draws one sample from the middle fifth of
    # each cell of a fixed Latin hypercube over their default ranges, so every
    # run spans the ranges with the same mix of sizes; phi and t keep their
    # full ranges.  Cell i takes the T0_RANK[i]-th and GAMMA_RANK[i]-th ninths
    # of the t0 and gamma ranges.  T0_RANK puts the cells' larger-arm
    # amplitudes, which set their cutoffs, at least 10% apart and at most 2.1,
    # so the median and tail ops each come from one cell.
    T0_RANK = (8, 7, 0, 6, 2, 5, 3, 1, 4)
    GAMMA_RANK = (2, 0, 3, 8, 6, 1, 4, 5, 7)
    cycle_s = 2.9
    trace_cycles = 1
    calibration = "large"
    pooled = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        n = len(self.T0_RANK)
        self.cells = []
        for i in range(n):
            cell = {}
            for key, rank in (("delta", i), ("t0", self.T0_RANK[i]), ("gamma_abs", self.GAMMA_RANK[i])):
                lo, hi = verify.DEFAULT_RANGES[key]
                step = (hi - lo) / n
                cell[key] = (lo + step * (rank + 0.4), lo + step * (rank + 0.6))
            self.cells.append(cell)

    def cycle(self) -> list[tuple[int, dict]]:
        ops = [(self.rng.randrange(2**32), cell) for cell in self.cells]
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> tuple[int, dict]:
        return self.rng.randrange(2**32), self.cells[len(self.cells) // 2]

    def op(self, item: tuple[int, dict]):
        sample_seed, ranges = item
        return verify.run_verify(seed=sample_seed, samples=1, budget=VERIFY_BUDGET, ranges=ranges)

    def check(self, item, report) -> tuple[bool, float]:
        dev = max(max(c.max_dp, c.max_df) for c in report.checks)
        return report.passed and dev <= VERIFY_BUDGET, dev


class SweepNumeric:
    name = "sweep-numeric"
    why = (
        "4x4 backend=both sweeps of each preparation with jobs=2: the users' sweep path, the "
        "only process pool and per-cell cutoffs; decides whether --jobs pays"
    )
    cycle_s = 2.9
    trace_cycles = 1
    calibration = "small"
    pooled = True

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def cycle(self) -> list:
        return [
            _sweep_config(self.rng, prep, "both", 0.9, 4) for prep in preparations.PREPARATIONS
        ]

    def warmup(self):
        return self.cycle()[0]

    def op(self, cfg, jobs: int = 2):
        grid = sweep.run_sweep(cfg, jobs=jobs)
        return grid, sweep.grid_to_csv(grid)

    def check(self, cfg, out) -> tuple[bool, float]:
        grid, csv = out
        return _check_grid(grid, csv, SWEEP_ERR_BUDGET)


class SweepAnalytic:
    name = "sweep-analytic"
    why = (
        "25x25 analytic reference sweeps of all four preparations: no simulator, so time goes "
        "to config/sweep dispatch, analytics and CSV; herald-first must not move it"
    )
    # One op sweeps all four preparations, whose costs differ by ~1.7x: with
    # one preparation per op the median would fall between two cost clusters.
    # One op per cycle sweeps 50x50 grids instead, as a user refining a
    # surface would; those ops are the top of the run, so the tail measures a
    # fine sweep rather than scheduler noise on identical ops.
    steps = 25
    fine_steps = 50
    reference_per_cycle = 12
    cycle_s = 1.0
    trace_cycles = 1
    calibration = "small"
    pooled = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _op(self, steps: int) -> tuple:
        return tuple(
            _sweep_config(self.rng, prep, "analytic", 0.9, steps) for prep in preparations.PREPARATIONS
        )

    def cycle(self) -> list:
        ops = [self._op(self.steps) for _ in range(self.reference_per_cycle)]
        ops.append(self._op(self.fine_steps))
        self.rng.shuffle(ops)
        return ops

    def warmup(self):
        return self._op(self.steps)

    def op(self, cfgs):
        out = []
        for cfg in cfgs:
            grid = sweep.run_sweep(cfg)
            out.append((grid, sweep.grid_to_csv(grid)))
        return out

    def check(self, cfgs, out) -> tuple[bool, float]:
        results = [_check_grid(grid, csv, None) for grid, csv in out]
        return all(ok for ok, _ in results), max(dev for _, dev in results)


@dataclass(frozen=True)
class SourceOp:
    arms: int
    params: sources.SourceParams


class SourceCircuits:
    name = "source-circuits"
    why = (
        "xi/lambda sources built by circuit and by closed form: the generic element path on "
        "the largest states, where peak memory moves; herald-first must not move it"
    )
    # the c8 acceptance grid of delta; each level is lowered by a seeded share
    # of up to ``jitter`` so no op leaves the grid's range
    levels = (0.2, 0.65, 1.1, 1.55, 2.0)
    jitter = 0.02
    cycle_s = 2.9
    trace_cycles = 1
    calibration = "large"
    pooled = False

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    def _op(self, arms: int, delta: float, fixed_split: bool = False) -> SourceOp:
        rng = self.rng
        phi = rng.uniform(0.0, 2.0 * math.pi)
        if fixed_split:
            t0, split_ts = 0.5, (0.5,) * (arms - 2)
        else:
            t0 = rng.uniform(0.45, 0.55)
            split_ts = tuple(rng.uniform(0.45, 0.55) for _ in range(arms - 2))
        cutoff = max(2, fock.min_cutoff(delta * math.sqrt(2.0)))
        return SourceOp(arms, sources.SourceParams(delta, phi, t0, split_ts, cutoff))

    def cycle(self) -> list[SourceOp]:
        ops = []
        for arms in (2, 3, 4):
            for level in self.levels:
                if arms == 4 and level == self.levels[-1]:
                    # The largest state sets peak memory, and its key count
                    # moves with the split ratios, so it is built at one size
                    # (balanced splits at delta 2.0) in every run.
                    ops.append(self._op(arms, level, fixed_split=True))
                else:
                    delta = level * (1.0 - self.rng.uniform(0.0, self.jitter))
                    ops.append(self._op(arms, delta))
        self.rng.shuffle(ops)
        return ops

    def warmup(self) -> SourceOp:
        return self._op(3, self.levels[2])

    def op(self, item: SourceOp):
        p = item.params
        if item.arms == 2:
            circuit, direct = sources.xi_circuit(p), sources.xi_direct(p)
        else:
            circuit, direct = sources.lambda_circuit(p, item.arms), sources.lambda_state(p, item.arms)
        return fock.fidelity(circuit, direct)

    def check(self, item: SourceOp, f: float) -> tuple[bool, float]:
        dev = 1.0 - f
        return dev <= SOURCE_BUDGET, dev


WORKLOADS = {w.name: w for w in (Verify, SweepNumeric, SweepAnalytic, SourceCircuits)}

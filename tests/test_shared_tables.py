"""One transfer table per scissors method and knob serves a whole sweep.

A table row is the heralded map of one input occupation: it must not depend
on the occupations that shared its probe or on the probe's cutoff, so a
sweep can share one table per (method, knob) across cells of any delta and
still give each cell, bit for bit, the result of running it alone.  A table
lives for one ``run_sweep`` (or one ``spot`` or ``state``) call and no
longer.
"""

import gc
import weakref
from functools import partial

import pytest

from polscissors import cli, preparations
from polscissors.config import AxisSpec, ExperimentConfig
from polscissors.preparations import prepare_stages, required_cutoff
from polscissors.scissors import TransferTable
from polscissors.sweep import STATUS_OK, run_sweep

# every single-polarization occupation up to 30, and two mixed ones
OCCUPATIONS = [(n, 0) for n in range(31)] + [(0, n) for n in range(1, 31)] + [(1, 1), (2, 1)]
KNOBS = [("pqs1", t) for t in (0.3, 0.6, 0.9, 0.98)] + [("pqs2", g) for g in (0.01, 0.07, 0.3, 0.6, 0.9)]


def _hex_row(row):
    return [(p, out, amp.real.hex(), amp.imag.hex()) for p, out, amp in row]


@pytest.mark.parametrize("method,knob", KNOBS)
def test_rows_depend_on_neither_the_probe_batch_nor_the_cutoff(method, knob):
    circuit = partial(preparations._scissors, method, knob, herald_first=True)
    batch = TransferTable(circuit, 30)
    batch.fill(OCCUPATIONS)
    grown = TransferTable(circuit, 2)
    for occ in OCCUPATIONS:
        alone = TransferTable(circuit, max(2, *occ))
        alone.fill([occ])
        grown.fill([occ])
        assert _hex_row(alone.rows[occ]) == _hex_row(batch.rows[occ]), occ
        assert _hex_row(grown.rows[occ]) == _hex_row(batch.rows[occ]), occ
    assert grown.cutoff == 30
    assert any(batch.rows[occ] for occ in OCCUPATIONS)


def _configs():
    """Grids over delta (so the cutoff changes from cell to cell) and a knob, in both axis orders."""
    delta_up, delta_down = AxisSpec("delta", 0.4, 2.0, 6), AxisSpec("delta", 2.0, 0.4, 6)
    named = {
        "hybrid-pqs1": AxisSpec("t", 0.3, 0.98, 5),
        "hybrid-pqs2": AxisSpec("gamma_abs", 0.01, 0.3, 5),
        "bell-pqs1": AxisSpec("t", 0.6, 0.98, 5),
        "bell-pqs2": AxisSpec("gamma_abs", 0.02, 0.2, 5),
    }
    for prep, knob in named.items():
        yield ExperimentConfig(prep, delta_up, knob, backend="numeric", phi=0.7, t0=0.4)
        yield ExperimentConfig(prep, knob, delta_down, backend="numeric", phi=0.7, t0=0.4)
    omega = dict(
        backend="numeric", phi=2.1, t0=0.45, gamma_abs=0.05,
        omega_n=3, omega_j=2, omega_scissors=("pqs1", "pqs2"), omega_split_ts=(0.4,),
    )
    knob = AxisSpec("t", 0.6, 0.98, 5)
    yield ExperimentConfig("omega", delta_up, knob, **omega)
    yield ExperimentConfig("omega", knob, delta_down, **omega)


@pytest.mark.parametrize("config", list(_configs()), ids=lambda c: f"{c.preparation}-{c.axis1.name}-first")
def test_every_cell_equals_its_own_run_with_fresh_tables(config):
    grid = run_sweep(config)
    i_p, i_f = grid.columns.index("P_numeric"), grid.columns.index("F_numeric")
    assert len(grid.rows) == 30
    for row in grid.rows:
        assert row[-1] == STATUS_OK
        params = config.cell_parameters(row[0], row[1])
        delta, t0 = params["delta"], params["t0"]
        alone = prepare_stages(
            config.pipeline, delta, params["phi"], t0, params, config.omega_split_ts,
            cutoff=required_cutoff(delta, t0, config.tail_bound), tail_bound=config.tail_bound,
        )[-1]
        assert row[i_p].hex() == alone.probability.hex(), params
        assert row[i_f].hex() == alone.fidelity.hex(), params


@pytest.fixture
def tables(monkeypatch):
    """A weak reference to every transfer table the stage loop makes."""
    made = []

    class Recorded(TransferTable):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(weakref.ref(self))

    monkeypatch.setattr(preparations, "TransferTable", Recorded)
    return made


def _alive(made):
    gc.collect()
    return [ref for ref in made if ref() is not None]


def test_a_sweep_shares_one_table_per_knob_and_keeps_none(tables):
    config = ExperimentConfig(
        "bell-pqs1", AxisSpec("delta", 0.6, 1.8, 4), AxisSpec("t", 0.7, 0.95, 4), backend="both", phi=0.7
    )
    run_sweep(config)
    assert len(tables) == 4  # one per t value, shared by the four deltas
    assert _alive(tables) == []
    run_sweep(config)
    assert len(tables) == 8  # a later sweep fills its own
    assert _alive(tables) == []


@pytest.mark.parametrize(
    "argv",
    [
        ["spot", "--point", "bell-pqs1"],
        ["spot", "--point", "bell-pqs2"],
        ["state", "--prep", "bell-pqs1:delta=0.8,phi=0.7,t0=0.45,t=0.9"],
    ],
    ids=["spot-pqs1", "spot-pqs2", "state"],
)
def test_spot_and_state_keep_no_table(argv, tables, capsys):
    assert cli.main(argv) == 0
    first = len(tables)
    assert first and _alive(tables) == []
    assert cli.main(argv) == 0
    assert len(tables) == 2 * first  # the second call filled its own tables
    assert _alive(tables) == []
    capsys.readouterr()

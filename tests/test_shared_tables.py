"""One transfer table per scissors method and knob, and one source part per source point, serve a whole sweep.

A table row is the heralded map of one input occupation, and only the four
occupations of ``SECTOR`` herald: each row must equal, bit for bit, the row
the circuit gives on a probe of that occupation alone at any cutoff, so a
sweep can share one table per (method, knob) across cells of any delta and
still give each cell, bit for bit, the result of running it alone.  Each
table is probed once, when it is made.  A source part holds what reads one
(delta, phi, t0) alone, so the cells at one source point share it.  Tables
and parts live for one ``run_sweep`` (or one ``spot`` or ``state``) call and
no longer.
"""

import gc
import weakref
from functools import partial

import pytest

from polscissors import cli, preparations, sources
from polscissors.config import AxisSpec, ExperimentConfig
from polscissors.preparations import prepare_stages, required_cutoff
from polscissors.scissors import SECTOR, TransferTable
from polscissors.sweep import STATUS_OK, run_sweep
from polscissors.verify import run_verify

from conftest import probe_row

# every single-polarization occupation up to 30, and two mixed ones
OCCUPATIONS = [(n, 0) for n in range(31)] + [(0, n) for n in range(1, 31)] + [(1, 1), (2, 1)]
KNOBS = [("pqs1", t) for t in (0.3, 0.6, 0.9, 0.98)] + [("pqs2", g) for g in (0.01, 0.07, 0.3, 0.6, 0.9)]
EDGE_KNOBS = [("pqs1", 0.0), ("pqs1", 1.0), ("pqs2", 0.0), ("pqs2", 0.5j), ("pqs2", 0.3 + 0.4j)]


def _hex_row(row):
    return [(p, out, amp.real.hex(), amp.imag.hex()) for p, out, amp in row]


@pytest.mark.parametrize("method,knob", KNOBS)
def test_rows_depend_on_neither_the_probe_batch_nor_the_cutoff(method, knob):
    # the sector's one batch at cutoff 1 gives each occupation the row it gets probed
    # alone, and a probe alone gives the same row at its own cutoff and at 30
    circuit = partial(preparations._scissors, method, knob, herald_first=True)
    table = TransferTable(circuit)
    for occ in OCCUPATIONS:
        alone = probe_row(circuit, occ)
        assert _hex_row(table.rows.get(occ, [])) == _hex_row(alone), occ
        assert _hex_row(probe_row(circuit, occ, 30)) == _hex_row(alone), occ
    assert any(table.rows.values())


@pytest.mark.parametrize("method,knob", KNOBS + EDGE_KNOBS)
def test_herald_first_rows_are_the_full_expansion_rows(method, knob):
    # each row is the circuit's own row for its occupation probed alone, at a cutoff the
    # occupation sets, and only the sector heralds: the table's one probe is at cutoff 1
    rows = {}
    for herald_first in (True, False):
        circuit = partial(preparations._scissors, method, knob, herald_first=herald_first)
        table = TransferTable(circuit)
        assert list(table.rows) == list(SECTOR)
        assert table.patterns == (4 if method == "pqs1" else 1)
        for occ in OCCUPATIONS + [(1, 2), (2, 2), (3, 1)]:
            alone = probe_row(circuit, occ)
            assert _hex_row(table.rows.get(occ, [])) == _hex_row(alone), (herald_first, occ)
            assert occ in SECTOR or not alone, (herald_first, occ)
        rows[herald_first] = {occ: _hex_row(row) for occ, row in table.rows.items()}
    assert rows[True] == rows[False]
    assert any(rows[True].values()) or knob in (0.0, 1.0)


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
    # source points that share delta but not phi or t0, so a source part keyed
    # on less than the whole point gives some cell another point's result
    yield ExperimentConfig("bell-pqs1", AxisSpec("phi", 0.0, 3.0, 5), delta_up, backend="numeric", t0=0.4, t=0.9)
    yield ExperimentConfig("hybrid-pqs2", AxisSpec("t0", 0.2, 0.8, 5), delta_down, backend="numeric", gamma_abs=0.07)
    yield ExperimentConfig("omega", AxisSpec("t0", 0.3, 0.7, 5), delta_up, **{**omega, "t": 0.9})


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


@pytest.fixture
def parts(monkeypatch):
    """Weak references to every source part the stage loop makes and to each part's factors."""
    made = {"parts": [], "factors": []}
    arm_factors = sources.arm_factors

    class Factor(dict):
        """A factor that takes a weak reference; equal to the plain dict it copies."""

    def tracked(*args, **kwargs):
        branches = tuple(tuple(Factor(f) for f in branch) for branch in arm_factors(*args, **kwargs))
        made["factors"] += [weakref.ref(f) for branch in branches for f in branch]
        return branches

    class Recorded(preparations.SourcePart):
        def __init__(self, *args):
            super().__init__(*args)
            made["parts"].append(weakref.ref(self))

    monkeypatch.setattr(sources, "arm_factors", tracked)
    monkeypatch.setattr(preparations, "SourcePart", Recorded)
    return made


def _counting(monkeypatch, module, name):
    """Count the calls of ``module.name`` by its arguments."""
    calls = []
    function = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return function(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


@pytest.mark.parametrize(
    "preparation,knob",
    [("bell-pqs1", AxisSpec("t", 0.7, 0.95, 4)), ("hybrid-pqs2", AxisSpec("gamma_abs", 0.02, 0.2, 4))],
    ids=["bell-pqs1", "hybrid-pqs2"],
)
def test_a_sweep_probes_each_table_once_and_builds_each_source_once(preparation, knob, monkeypatch):
    # delta ascends, so every cell has a larger cutoff than the cells before it
    config = ExperimentConfig(preparation, AxisSpec("delta", 0.6, 1.8, 4), knob, backend="both", phi=0.7)
    assert len({required_cutoff(d, config.t0) for d in config.axis1.values()}) == 4
    probes = _counting(monkeypatch, preparations, "_scissors")
    builds = _counting(monkeypatch, sources, "arm_factors")
    grid = run_sweep(config)
    assert {row[-1] for row in grid.rows} == {STATUS_OK}
    assert sorted(args[:2] for args in probes) == sorted((probes[0][0], k) for k in knob.values())
    assert sorted((p.delta, p.phi, p.t0) for p, *_ in builds) == [(d, 0.7, 0.5) for d in config.axis1.values()]


def test_a_sweep_keeps_no_source_part(parts):
    config = ExperimentConfig(
        "hybrid-pqs1", AxisSpec("delta", 0.6, 1.8, 4), AxisSpec("t", 0.7, 0.95, 4), backend="both", phi=0.7
    )
    run_sweep(config)
    assert len(parts["parts"]) == 4 and len(parts["factors"]) == 4 * 2 * 2
    assert _alive(parts["parts"]) == [] and _alive(parts["factors"]) == []
    run_sweep(config)
    assert len(parts["parts"]) == 8  # a later sweep builds its own
    assert _alive(parts["parts"]) == [] and _alive(parts["factors"]) == []


@pytest.mark.parametrize("samples", [1, 3])
def test_verify_builds_one_source_part_per_sample(samples, parts):
    # a sample's pqs1 and pqs2 Bell chains share its source point
    run_verify(1, samples)
    assert len(parts["parts"]) == samples
    assert _alive(parts["parts"]) == []


def test_a_sweep_shares_one_table_per_knob_and_keeps_none(tables):
    config = ExperimentConfig(
        "bell-pqs1", AxisSpec("delta", 0.6, 1.8, 4), AxisSpec("t", 0.7, 0.95, 4), backend="both", phi=0.7
    )
    run_sweep(config)
    assert len(tables) == 4  # one per t value, shared by the four deltas
    assert _alive(tables) == []
    run_sweep(config)
    assert len(tables) == 8  # a later sweep makes its own
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
    assert len(tables) == 2 * first  # the second call made its own tables
    assert _alive(tables) == []
    capsys.readouterr()

"""Transfer tables against expand-then-project, the oracle.

A ``TransferTable`` applies a scissors circuit's heralded map from rows the
circuit built on a small probe.  Running the same circuit on the whole state
and projecting it must give the same total probability and canonical state,
on random states and along whole preparation chains; and the table route must
never again send the joint state into ``project_number``.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polscissors import preparations, scissors
from polscissors.fock import fidelity, make_state
from polscissors.preparations import (
    BELL_ARMS,
    KNOB_AXES,
    Pipeline,
    omega_pipeline,
    prepare_bell,
    prepare_stages,
    required_cutoff,
)
from polscissors.scissors import TransferTable, pqs1_apply, pqs2_apply
from polscissors.sources import SourceParams, lambda_state

from conftest import random_state


def _circuit(method, knob):
    if method == "pqs1":
        return lambda state, mode: pqs1_apply(state, mode, knob)
    return lambda state, mode: pqs2_apply(state, mode, knob)


def _assert_same_herald(table_result, expand_result):
    p_table, p_expand = table_result.total_probability, expand_result.total_probability
    assert abs(p_table - p_expand) <= 1e-14 * p_expand
    if expand_result.canonical_state is None:
        assert table_result.canonical_state is None
    else:
        f = fidelity(table_result.canonical_state, expand_result.canonical_state)
        assert f >= 1 - 1e-14


@settings(derandomize=True, max_examples=120, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode_count=st.integers(1, 3),
    max_photons=st.integers(1, 3),
    method=st.sampled_from(["pqs1", "pqs2"]),
    knob=st.floats(0.02, 0.98),
    phase=st.floats(0.0, 2 * math.pi),
)
def test_table_matches_expand_then_project_on_random_states(
    seed, mode_count, max_photons, method, knob, phase
):
    # pqs2 takes a complex squeezing parameter below 1 in magnitude
    if method == "pqs2":
        knob = 0.6 * knob * complex(math.cos(phase), math.sin(phase))
    state = random_state(random.Random(seed), mode_count, 4, max_photons)
    circuit = _circuit(method, knob)
    table = TransferTable(circuit, state.cutoff)
    for mode in range(mode_count):
        _assert_same_herald(table.apply(state, mode), circuit(state, mode))


@pytest.mark.parametrize("method,knob", [("pqs1", 0.6), ("pqs2", 0.3j)])
@pytest.mark.parametrize("occupations", [[(2, 0)], [(0, 3), (2, 2)]])
def test_table_heralds_nothing_where_the_circuit_heralds_nothing(method, knob, occupations):
    state = make_state(2, 4, [(((1, 0), occ), 1.0) for occ in occupations])
    circuit = _circuit(method, knob)
    result = TransferTable(circuit, 4).apply(state, 1)
    assert circuit(state, 1).canonical_state is None
    assert result.canonical_state is None
    assert result.total_probability == 0.0


@pytest.mark.parametrize("method,knob", [("pqs1", 0.37), ("pqs1", 0.9), ("pqs2", 0.08), ("pqs2", 0.5j)])
def test_corrected_pattern_rows_are_proportional(method, knob):
    # a heralded map is one map only if every pattern's rows are the same up to one factor
    cutoff = 4
    every = [((nh, nv),) for nh in range(cutoff + 1) for nv in range(cutoff + 1)]
    table = TransferTable(_circuit(method, knob), cutoff)
    table.apply(make_state(1, cutoff, [(key, 1.0) for key in every]), 0)
    assert table.patterns == (4 if method == "pqs1" else 1)
    vectors = [{} for _ in range(table.patterns)]
    for occ, row in table.rows.items():
        for p, out, coeff in row:
            vectors[p][occ, out] = coeff
    first = vectors[0]
    assert first
    for vector in vectors[1:]:
        assert vector.keys() == first.keys()
        overlap = abs(sum(first[k].conjugate() * vector[k] for k in first)) ** 2
        norms = sum(abs(a) ** 2 for a in first.values()) * sum(abs(a) ** 2 for a in vector.values())
        assert overlap >= (1 - 1e-14) * norms


class _Expand:
    """Stands in for ``TransferTable``: runs the circuit on the whole state."""

    def __init__(self, circuit, cutoff):
        self.apply = circuit

    def fill(self, occupations):
        return occupations


CHAINS = [
    (Pipeline(("pqs1", "pqs1"), BELL_ARMS), {"t": 0.83}),
    (Pipeline(("pqs2", "pqs2"), BELL_ARMS), {"gamma_abs": 0.09}),
    (omega_pipeline(2, 2, ("pqs2", "pqs1")), {"t": 0.61, "gamma_abs": 0.11}),
]


@pytest.mark.parametrize("delta", [0.8, 1.4, 2.0])
@pytest.mark.parametrize("chain", range(len(CHAINS)))
def test_prepare_stages_matches_the_expand_route(chain, delta, monkeypatch):
    pipeline, knobs = CHAINS[chain]
    phi, t0 = 0.7, 0.45
    tables = prepare_stages(pipeline, delta, phi, t0, knobs)
    monkeypatch.setattr(preparations, "TransferTable", _Expand)
    expanded = prepare_stages(pipeline, delta, phi, t0, knobs)
    assert len(tables) == len(expanded) == 2
    for table, expand in zip(tables, expanded):
        assert abs(table.probability - expand.probability) <= 1e-14 * expand.probability
        assert abs(table.fidelity - expand.fidelity) <= 1e-14 * expand.fidelity
    if pipeline.arms == BELL_ARMS:
        # prepare_bell is the expand route itself, bit for bit
        (knob,) = knobs.values()
        bell = prepare_bell(pipeline.method, delta, phi, t0, knob)
        assert (bell.probability, bell.fidelity) == (expanded[-1].probability, expanded[-1].fidelity)


@pytest.mark.parametrize("n,delta", [(3, 0.8), (3, 1.4), (3, 2.0), (4, 0.8), (4, 1.4)])
def test_prepare_stages_matches_the_expand_route_on_omega_chains(n, delta, monkeypatch):
    # the expand stub's fill keeps every occupation, so its source is the full one
    rng = random.Random(1000 * n + round(10 * delta))
    methods = tuple(rng.choice(["pqs1", "pqs2"]) for _ in range(rng.randint(1, n)))
    splits = tuple(rng.uniform(0.1, 0.9) for _ in range(n - 2))
    knobs = {"t": rng.uniform(0.3, 0.98), "gamma_abs": rng.uniform(0.01, 0.12)}
    args = (omega_pipeline(n, len(methods), methods), delta, rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 0.9), knobs, splits)
    tables = prepare_stages(*args)
    monkeypatch.setattr(preparations, "TransferTable", _Expand)
    expanded = prepare_stages(*args)
    assert len(tables) == len(expanded) == len(methods)
    for table, expand in zip(tables, expanded):
        assert abs(table.probability - expand.probability) <= 1e-14 * expand.probability
        assert abs(table.fidelity - expand.fidelity) <= 1e-14 * expand.fidelity


def _projected_sizes(monkeypatch):
    sizes = []
    project = scissors.project_number

    def recording(state, targets):
        sizes.append(len(state.amplitudes))
        return project(state, targets)

    monkeypatch.setattr(scissors, "project_number", recording)
    return sizes


@pytest.mark.parametrize("method,knob", [("pqs1", 0.9), ("pqs2", 0.07)])
def test_prepare_stages_projects_no_state_larger_than_the_probe(method, knob, monkeypatch):
    delta, phi, t0 = 2.0, 0.3, 0.5
    cutoff = required_cutoff(delta, t0)
    source = lambda_state(SourceParams(delta, phi, t0, (), cutoff), 2)
    inputs = sorted({key[1] for key in source.amplitudes})
    probe = make_state(2, cutoff, [((divmod(i, cutoff + 1), occ), 1.0) for i, occ in enumerate(inputs)])
    sizes = _projected_sizes(monkeypatch)
    _circuit(method, knob)(probe, 1)
    bound = max(sizes)
    sizes.clear()
    prepare_stages(Pipeline((method, method), BELL_ARMS), delta, phi, t0, {KNOB_AXES[method]: knob})
    assert sizes and max(sizes) <= bound
    # the guard has teeth: expand-then-project projects far larger states
    sizes.clear()
    prepare_bell(method, delta, phi, t0, knob)
    assert max(sizes) > 10 * bound

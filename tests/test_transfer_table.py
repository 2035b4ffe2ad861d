"""Transfer tables against expand-then-project, and the factored stage loop against the joint one.

A ``TransferTable`` holds a scissors circuit's heralded map as rows the
circuit built on a small probe.  Applied to a whole joint state (the tests'
``apply_table``), the rows must give the total probability and canonical
state of running the same circuit on that state and projecting it.  Along
whole preparation chains, ``prepare_stages``, which keeps the state as a sum
of two products, must agree at every stage with the tables applied to the
full joint source (``joint_stages``); and its detectors must never read a
joint state.
"""

import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

from conftest import apply_table, joint_stages, random_state, record_detector_reads


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
    table = TransferTable(circuit)
    for mode in range(mode_count):
        _assert_same_herald(apply_table(table, state, mode), circuit(state, mode))


@pytest.mark.parametrize("method,knob", [("pqs1", 0.6), ("pqs2", 0.3j)])
@pytest.mark.parametrize("occupations", [[(2, 0)], [(0, 3), (2, 2)]])
def test_table_heralds_nothing_where_the_circuit_heralds_nothing(method, knob, occupations):
    state = make_state(2, 4, [(((1, 0), occ), 1.0) for occ in occupations])
    circuit = _circuit(method, knob)
    result = apply_table(TransferTable(circuit), state, 1)
    assert circuit(state, 1).canonical_state is None
    assert result.canonical_state is None
    assert result.total_probability == 0.0


@pytest.mark.parametrize("method,knob", [("pqs1", 0.37), ("pqs1", 0.9), ("pqs2", 0.08), ("pqs2", 0.5j)])
def test_corrected_pattern_rows_are_proportional(method, knob):
    # a heralded map is one map only if every pattern's sector rows are the same up to one factor
    table = TransferTable(_circuit(method, knob))
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


def _full_scan_apply(table, factors):
    """The reference ``TransferTable.apply``: it reads every occupation of every factor."""
    rows = table.rows
    images = [[{} for _ in factors] for _ in range(table.patterns)]
    for i, factor in enumerate(factors):
        for occ, amp in factor.items():
            if not (row := rows.get(occ)):  # no row, or one that heralds nothing
                continue
            for p, out, coeff in row:
                image = images[p][i]
                image[out] = image.get(out, 0j) + amp * coeff
    return images


def _hex_images(images):
    return [[[(out, a.real.hex(), a.imag.hex()) for out, a in image.items()] for image in row] for row in images]


# sector occupations out of SECTOR order, mixed with others, all absent, all four
# present, no occupation at all, and a source-like factor of 19 H occupations
FACTOR_OCCUPATIONS = [
    [(1, 1), (0, 0), (0, 1)],
    [(2, 0), (1, 0), (0, 3), (0, 0), (5, 5)],
    [(2, 0), (0, 2), (3, 1), (1, 2)],
    [(0, 1), (3, 0), (1, 1), (2, 2), (1, 0), (0, 0), (0, 4)],
    [],
    [(n, 0) for n in range(19)],
]


@pytest.mark.parametrize("method,knob", [("pqs1", 0.0), ("pqs1", 0.5), ("pqs1", 1.0), ("pqs2", 0j), ("pqs2", 0.07 + 0j)])
def test_apply_is_the_full_scan_bit_for_bit(method, knob):
    # t 0 and 1 and gamma 0 leave some rows empty: an empty row is met and adds nothing
    table = TransferTable(_circuit(method, knob))
    assert all(table.rows.values()) == (knob not in (0.0, 1.0))
    rng = random.Random(45)
    factors = [{occ: complex(rng.gauss(0, 1), rng.gauss(0, 1)) for occ in occs} for occs in FACTOR_OCCUPATIONS]
    want = _hex_images(_full_scan_apply(table, factors))
    assert any(image for row in want for image in row)
    assert _hex_images(table.apply(factors)) == want
    for factor in factors:
        assert _hex_images(table.apply([factor])) == _hex_images(_full_scan_apply(table, [factor]))


CHAINS = [
    (Pipeline(("pqs1", "pqs1"), BELL_ARMS), {"t": 0.83}),
    (Pipeline(("pqs2", "pqs2"), BELL_ARMS), {"gamma_abs": 0.09}),
    (omega_pipeline(2, 2, ("pqs2", "pqs1")), {"t": 0.61, "gamma_abs": 0.11}),
]


def _assert_stages_agree(factored, joint, bound):
    assert len(factored) == len(joint)
    for got, want in zip(factored, joint):
        assert abs(got.probability - want.probability) <= bound * want.probability
        assert abs(got.fidelity - want.fidelity) <= bound * want.fidelity


@pytest.mark.parametrize("delta", [0.8, 1.4, 2.0])
@pytest.mark.parametrize("chain", range(len(CHAINS)))
def test_prepare_stages_matches_the_expand_route(chain, delta):
    pipeline, knobs = CHAINS[chain]
    phi, t0 = 0.7, 0.45
    factored = prepare_stages(pipeline, delta, phi, t0, knobs)
    assert len(factored) == 2
    _assert_stages_agree(factored, joint_stages(pipeline, delta, phi, t0, knobs), 1e-13)
    if pipeline.arms == BELL_ARMS:
        # prepare_bell runs each circuit in full on the joint state
        (knob,) = knobs.values()
        bell = prepare_bell(pipeline.method, delta, phi, t0, knob)
        _assert_stages_agree(factored[-1:], (bell,), 1e-13)


def _seeded_chain(rng, n, delta, phi):
    methods = tuple(rng.choice(["pqs1", "pqs2"]) for _ in range(rng.randint(1, n)))
    splits = tuple(rng.uniform(0.1, 0.9) for _ in range(n - 2))
    knobs = {"t": rng.uniform(0.3, 0.98), "gamma_abs": rng.uniform(0.01, 0.12)}
    return omega_pipeline(n, len(methods), methods), delta, phi, rng.uniform(0.1, 0.9), knobs, splits


@pytest.mark.parametrize("n,delta", [(3, 0.8), (3, 1.4), (3, 2.0), (4, 0.8), (4, 1.4)])
def test_prepare_stages_matches_the_expand_route_on_omega_chains(n, delta):
    rng = random.Random(1000 * n + round(10 * delta))
    args = _seeded_chain(rng, n, delta, rng.uniform(0, 2 * math.pi))
    _assert_stages_agree(prepare_stages(*args), joint_stages(*args), 1e-13)


def _any_order_chain(seed):
    # arms in any order, such as (2, 0) or (3, 1, 2, 0), not only (1, 0) or 0..j-1
    rng = random.Random(6000 + seed)
    n = 3 + seed % 2
    arms = tuple(rng.sample(range(n), rng.randint(2, n)))
    methods = tuple(rng.choice(["pqs1", "pqs2"]) for _ in arms)
    splits = tuple(rng.uniform(0.1, 0.9) for _ in range(n - 2))
    knobs = {"t": rng.uniform(0.3, 0.98), "gamma_abs": rng.uniform(0.01, 0.12)}
    delta, phi, t0 = rng.uniform(0.4, 1.6), rng.uniform(0, 2 * math.pi), rng.uniform(0.1, 0.9)
    return Pipeline(methods, arms, n), delta, phi, t0, knobs, splits


@pytest.mark.parametrize("seed", range(12))
def test_prepare_stages_matches_the_joint_route_in_any_arm_order(seed):
    args = _any_order_chain(seed)
    _assert_stages_agree(prepare_stages(*args), joint_stages(*args), 1e-13)


@pytest.mark.parametrize("seed", range(8))
def test_prepare_stages_matches_the_joint_route_near_the_degenerate_point(seed):
    # the branches nearly cancel there (m_n diverges), so both routes lose
    # digits to the cancellation: 1e-13 cannot hold, 1e-10 does
    rng = random.Random(5000 + seed)
    n = rng.choice([2, 3, 4])
    delta = 10 ** rng.uniform(-3, -1)
    phi = math.pi + rng.choice([-1, 1]) * 10 ** rng.uniform(-6, -3)
    args = _seeded_chain(rng, n, delta, phi)
    _assert_stages_agree(prepare_stages(*args), joint_stages(*args), 1e-10)


@pytest.mark.parametrize("method,knob", [("pqs1", 0.9), ("pqs2", 0.07)])
def test_prepare_stages_projects_no_state_larger_than_the_probe(method, knob, monkeypatch):
    delta, phi, t0 = 2.0, 0.3, 0.5
    cutoff = required_cutoff(delta, t0)
    source = lambda_state(SourceParams(delta, phi, t0, (), cutoff), 2)
    inputs = sorted({key[1] for key in source.amplitudes})
    probe = make_state(2, cutoff, [((divmod(i, cutoff + 1), occ), 1.0) for i, occ in enumerate(inputs)])
    reads = record_detector_reads(monkeypatch)
    _circuit(method, knob)(probe, 1)
    bound = max(reads["project_number"])
    for counts in reads.values():
        counts.clear()
    prepare_stages(Pipeline((method, method), BELL_ARMS), delta, phi, t0, {KNOB_AXES[method]: knob})
    # the tables' herald-first probes read their detectors in one pass
    one_pass = reads["_detect"] + reads["_spare_vacuum"]
    assert one_pass and max(one_pass) <= bound and not reads["project_number"]
    # the guard has teeth: expand-then-project projects far larger states
    prepare_bell(method, delta, phi, t0, knob)
    assert max(reads["project_number"]) > 10 * bound

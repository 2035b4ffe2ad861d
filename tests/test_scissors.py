import cmath
import math
import random
from functools import partial

import pytest

from polscissors import analytics, scissors
from polscissors.fock import (
    FockError,
    PureState,
    _raw_state,
    fidelity,
    make_state,
    normalize,
    tensor,
    vacuum,
)
from polscissors.preparations import Pipeline, omega_pipeline, prepare_named, prepare_stages, required_cutoff
from polscissors.scissors import TransferTable, pqs1_apply, pqs2_apply, qs_apply
from polscissors.sources import SourceParams, coherent, xi_direct

import conftest
from conftest import apply_table, pattern_agreement, random_polarized_coeffs, random_state
from test_kernel_oracles import hex_items


def ket(key, cutoff=6):
    return make_state(len(key), cutoff, [(tuple(key), 1.0)])


def pqs1_expected_map(coeffs, t, cutoff=6):
    """Independent oracle: the composite linear map the two-module circuit realizes.

    Vacuum keeps (1-t), either single photon keeps sqrt((1-t)t), the joint
    H+V pair keeps t, everything else is truncated away.
    """
    weights = {
        (0, 0): 1.0 - t,
        (1, 0): math.sqrt((1.0 - t) * t),
        (0, 1): math.sqrt((1.0 - t) * t),
        (1, 1): t,
    }
    entries = [
        (((occ),), amp * weights[occ]) for occ, amp in coeffs.items() if occ in weights
    ]
    return make_state(1, cutoff, entries)


def pqs2_expected_map(coeffs, gamma_abs, cutoff=6):
    """Independent oracle for the squeezer scissors (single accepted pattern)."""
    mig = -1j * gamma_abs
    k = lambda n: analytics.k_n(gamma_abs, n)
    entries = [
        (((1, 0),), coeffs[(1, 0)] * k(1) * mig),
        (((0, 1),), coeffs[(0, 1)] * k(1) * mig),
        (((0, 0),), coeffs[(1, 1)] * k(2)),
        (((1, 1),), coeffs[(0, 0)] * k(0) * mig * mig),
    ]
    return make_state(1, cutoff, entries)


class TestQs:
    def test_coherent_input(self):
        state = coherent(1.0, "H", 16)
        result = qs_apply(state, 0, "H", 0.5)
        assert result.total_probability == pytest.approx(math.exp(-1.0), abs=1e-10)
        one = ket([(1, 0)], 16)
        assert fidelity(result.canonical_state, one) == pytest.approx(0.5, abs=1e-10)

    def test_single_photon_input(self):
        result = qs_apply(ket([(1, 0)]), 0, "H", 0.5)
        assert result.total_probability == pytest.approx(0.5, abs=1e-12)
        assert fidelity(result.canonical_state, ket([(1, 0)])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_two_photon_input_vanishes(self):
        result = qs_apply(ket([(2, 0)]), 0, "H", 0.5)
        assert result.total_probability == pytest.approx(0.0, abs=1e-20)
        assert result.canonical_state is None

    def test_patterns_split_probability_evenly(self):
        result = qs_apply(coherent(0.8, "H", 14), 0, "H", 0.37)
        p0, p1 = (o.probability for o in result.outcomes)
        assert p0 == pytest.approx(p1, rel=1e-10)
        assert p0 + p1 == pytest.approx(result.total_probability)

    def test_matches_closed_form_per_coefficients(self):
        t = 0.7
        c0, c1 = 0.5, math.sqrt(1 - 0.25)
        state = make_state(1, 6, [(((0, 0),), c0), (((0, 1),), c1)])
        result = qs_apply(state, 0, "V", t)
        pf = analytics.pf_qs(c0 * c0, c1 * c1, t)
        assert result.total_probability == pytest.approx(pf.probability, abs=1e-12)
        assert fidelity(result.canonical_state, ket([(0, 1)])) == pytest.approx(
            pf.fidelity, abs=1e-12
        )

    def test_entangled_mode(self):
        # the scissors acts locally: coefficients ride along with partner states
        c0, c1, c2 = 0.5, 0.7, math.sqrt(1 - 0.25 - 0.49)
        state = make_state(
            2,
            6,
            [
                (((0, 0), (1, 0)), c0),
                (((1, 0), (0, 1)), c1),
                (((2, 0), (1, 1)), c2),
            ],
        )
        t = 0.6
        result = qs_apply(state, 0, "H", t)
        expected = make_state(
            2,
            6,
            [
                (((0, 0), (1, 0)), math.sqrt(1 - t) * c0),
                (((1, 0), (0, 1)), math.sqrt(t) * c1),
            ],
        )
        assert result.total_probability == pytest.approx(
            expected.norm_squared(), abs=1e-12
        )
        assert fidelity(result.canonical_state, expected) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_transmissivity_edges_match_the_closed_forms(self, rng):
        # the circuits take every t of [0, 1] that BeamSplitterSpec does: at
        # either edge they give the closed form's P and F, or P = 0.0 where it raises
        c0, c1 = 0.6, 0.8
        coeffs = random_polarized_coeffs(rng)
        sq = {k: abs(v) ** 2 for k, v in coeffs.items()}
        photon = ket([(1, 0)])
        ideal = normalize(make_state(1, 6, [(((1, 0),), coeffs[(1, 0)]), (((0, 1),), coeffs[(0, 1)])]))
        for t in (0.0, 1.0):
            raised = []

            def agree(name, probability, fidelity_of, closed_form, *weights):
                try:
                    pf = closed_form(*weights, t)
                except analytics.DegenerateParameterError:
                    raised.append(name)
                    assert probability == 0.0
                    return
                assert probability == pytest.approx(pf.probability, abs=1e-12)
                assert fidelity_of() == pytest.approx(pf.fidelity, abs=1e-12)

            qs = qs_apply(make_state(1, 6, [(((0, 0),), c0), (((1, 0),), c1)]), 0, "H", t)
            agree("qs", qs.total_probability, lambda: fidelity(qs.canonical_state, photon),
                  analytics.pf_qs, c0 * c0, c1 * c1)
            pqs1 = pqs1_apply(make_state(1, 6, [(((occ),), a) for occ, a in coeffs.items()]), 0, t)
            agree("pqs1", pqs1.total_probability, lambda: fidelity(pqs1.canonical_state, ideal),
                  analytics.pf_pqs1, sq[(1, 0)], sq[(0, 1)], sq[(0, 0)], sq[(1, 1)])
            for name, closed_form in (("hybrid-pqs1", analytics.pf_hybrid), ("bell-pqs1", analytics.pf_bell)):
                num = prepare_named(name, 0.9, 0.7, 0.5, t)
                agree(name, num.probability, lambda: num.fidelity, closed_form, "pqs1", 0.9, 0.7, 0.5)
            # at t = 1 only a mode's (1, 1) sector heralds, and the source's truncated arm holds none
            assert raised == ([] if t == 0.0 else ["hybrid-pqs1", "bell-pqs1"])

    def test_kept_mode_position_preserved(self, rng):
        state = random_state(rng, 3, 4)
        result = qs_apply(state, 1, "H", 0.5)
        assert result.canonical_state.mode_count == 3


class TestPqs1:
    def test_vacuum_input(self):
        result = pqs1_apply(vacuum(1, 6), 0, 0.7)
        assert result.total_probability == pytest.approx(0.09, abs=1e-12)
        assert fidelity(result.canonical_state, vacuum(1, 6)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_single_photon_input(self):
        t = 0.7
        result = pqs1_apply(ket([(1, 0)]), 0, t)
        assert result.total_probability == pytest.approx((1 - t) * t, abs=1e-12)
        assert fidelity(result.canonical_state, ket([(1, 0)])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_matches_composite_map_oracle(self, rng):
        for t in (0.4, 0.75):
            coeffs = random_polarized_coeffs(rng)
            state = make_state(1, 6, [(((occ),), a) for occ, a in coeffs.items()])
            result = pqs1_apply(state, 0, t)
            expected = pqs1_expected_map(coeffs, t)
            assert result.total_probability == pytest.approx(
                expected.norm_squared(), abs=1e-12
            )
            assert fidelity(result.canonical_state, expected) == pytest.approx(
                1.0, abs=1e-12
            )

    def test_four_patterns_quarter_probability(self, rng):
        coeffs = random_polarized_coeffs(rng)
        state = make_state(1, 6, [(((occ),), a) for occ, a in coeffs.items()])
        result = pqs1_apply(state, 0, 0.55)
        assert len(result.outcomes) == 4
        probs = [o.probability for o in result.outcomes]
        for p in probs[1:]:
            assert p == pytest.approx(probs[0], rel=1e-9)

    def test_pattern_agreement(self, rng):
        for _ in range(5):
            coeffs = random_polarized_coeffs(rng)
            state = make_state(1, 6, [(((occ),), a) for occ, a in coeffs.items()])
            result = pqs1_apply(state, 0, 0.61)
            assert pattern_agreement(result) >= 1 - 1e-9

    def test_truncated_support(self, rng):
        from polscissors.fock import add, scale

        state = normalize(
            add(scale(random_state(rng, 1, 5, max_photons=4), 0.8), vacuum(1, 5))
        )
        result = pqs1_apply(state, 0, 0.5)
        allowed = {(0, 0), (1, 0), (0, 1), (1, 1)}
        for key, amp in result.canonical_state.amplitudes.items():
            assert key[0] in allowed or abs(amp) <= 1e-9

    def test_probability_matches_closed_form(self, rng):
        coeffs = random_polarized_coeffs(rng)
        sq = {k: abs(v) ** 2 for k, v in coeffs.items()}
        state = make_state(1, 6, [(((occ),), a) for occ, a in coeffs.items()])
        t = 0.82
        result = pqs1_apply(state, 0, t)
        pf = analytics.pf_pqs1(sq[(1, 0)], sq[(0, 1)], sq[(0, 0)], sq[(1, 1)], t)
        assert result.total_probability == pytest.approx(pf.probability, abs=1e-12)


class TestPqs2:
    def test_single_photon_sector_transfer(self):
        g = 0.1
        c10, c01 = 0.6, 0.8j
        state = make_state(1, 6, [(((1, 0),), c10), (((0, 1),), c01)])
        result = pqs2_apply(state, 0, g)
        assert result.total_probability == pytest.approx(
            analytics.k_n(g, 1) ** 2 * g * g, abs=1e-12
        )
        assert fidelity(result.canonical_state, state) == pytest.approx(1.0, abs=1e-12)

    def test_vacuum_input(self):
        g = 0.1
        result = pqs2_apply(vacuum(1, 6), 0, g)
        assert result.total_probability == pytest.approx(
            analytics.k_n(g, 0) ** 2 * g**4, abs=1e-14
        )
        assert fidelity(result.canonical_state, ket([(1, 1)])) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_zero_gamma_never_heralds(self, rng):
        state = random_state(rng, 1, 4)
        result = pqs2_apply(state, 0, 0.0)
        assert result.total_probability == 0.0
        assert result.canonical_state is None

    def test_matches_map_oracle(self, rng):
        for g in (0.05, 0.12):
            coeffs = random_polarized_coeffs(rng)
            state = make_state(1, 6, [(((occ),), a) for occ, a in coeffs.items()])
            result = pqs2_apply(state, 0, g)
            expected = pqs2_expected_map(coeffs, g)
            assert result.total_probability == pytest.approx(
                expected.norm_squared(), abs=1e-12
            )
            assert fidelity(result.canonical_state, expected) == pytest.approx(
                1.0, abs=1e-11
            )

    def test_truncated_support(self, rng):
        from polscissors.fock import add, scale

        state = normalize(
            add(scale(random_state(rng, 1, 5, max_photons=4), 0.8), vacuum(1, 5))
        )
        result = pqs2_apply(state, 0, 0.09)
        allowed = {(0, 0), (1, 0), (0, 1), (1, 1)}
        for key, amp in result.canonical_state.amplitudes.items():
            assert key[0] in allowed or abs(amp) <= 1e-9

    def test_gamma_bound(self):
        with pytest.raises(FockError):
            pqs2_apply(vacuum(1, 4), 0, 1.0)


def prepare_omega(n, j, methods, knobs, delta, phi, t0, split_ts, cutoff):
    """The preparation's result of ``omega_pipeline(n, j, methods)``."""
    pipeline = omega_pipeline(n, j, methods)
    return prepare_stages(pipeline, delta, phi, t0, knobs, split_ts, cutoff)[-1]


class TestPrepareOmega:
    def test_two_arm_single_truncation_matches_closed_form(self):
        delta, phi, t0, t = 1.0, 0.6, 0.5, 0.7
        result = prepare_omega(2, 1, ("pqs1",), {"t": t}, delta, phi, t0, (), 18)
        # truncating arm 1 swaps the roles of the two split amplitudes
        pf = analytics.pf_hybrid("pqs1", delta, phi, 1 - t0, t)
        assert result.probability == pytest.approx(pf.probability, abs=1e-10)
        assert result.fidelity == pytest.approx(pf.fidelity, abs=1e-10)

    def test_two_arm_double_truncation_matches_closed_form(self):
        delta, phi, t0, t = 0.9, 0.0, 0.5, 0.8
        result = prepare_omega(2, 2, ("pqs1", "pqs1"), {"t": t}, delta, phi, t0, (), 18)
        pf = analytics.pf_bell("pqs1", delta, phi, t0, t)
        assert result.probability == pytest.approx(pf.probability, abs=1e-10)
        assert result.fidelity == pytest.approx(pf.fidelity, abs=1e-10)

    def test_mixed_scissors_chain(self):
        knobs = {"t": 0.9, "gamma_abs": 0.08}
        result = prepare_omega(2, 2, ("pqs1", "pqs2"), knobs, 0.8, 0.3, 0.5, (), 16)
        assert 0 < result.probability < 1
        assert result.fidelity > 0.8

    def test_three_arm_ghz_limits(self):
        source = (0.8, 0.0, 0.5, (0.5,), 16)
        fids = [
            prepare_omega(3, 3, ("pqs1",) * 3, {"t": t}, *source).fidelity
            for t in (0.99, 0.999, 0.9999)
        ]
        assert fids == sorted(fids)
        assert fids[-1] >= 0.999
        fids = [
            prepare_omega(3, 3, ("pqs2",) * 3, {"gamma_abs": g}, *source).fidelity
            for g in (0.05, 0.01, 0.003)
        ]
        assert fids == sorted(fids)
        assert fids[-1] >= 0.9999

    @pytest.mark.parametrize("j", range(1, 9))
    def test_eight_arms_at_every_j(self, j):
        # no source size limit applies to the stage loop; the untruncated arms
        # enter only through their overlaps, so the same truncated amplitudes
        # and the same untruncated weight give the three-arm result
        methods = ("pqs1", "pqs2") * 4
        knobs = {"t": 0.9, "gamma_abs": 0.08}
        result = prepare_omega(8, j, methods[:j], knobs, 1.4, 0.3, 0.5, (0.5,) * 6, None)
        assert 0 < result.probability < 1 and 0 < result.fidelity <= 1
        if j <= 2:
            three = prepare_omega(3, j, methods[:j], knobs, 1.4, 0.3, 0.5, (0.5,), None)
            assert result.probability == pytest.approx(three.probability, rel=1e-12, abs=0)
            assert result.fidelity == pytest.approx(three.fidelity, rel=1e-12, abs=0)

    def test_probability_is_product_of_stages(self):
        params = SourceParams(1.0, 0.0, 0.5, (), 18)
        chain = prepare_omega(2, 2, ("pqs1", "pqs1"), {"t": 0.7}, 1.0, 0.0, 0.5, (), 18)
        source = xi_direct(params)
        first = pqs1_apply(source, 0, 0.7)
        second = pqs1_apply(first.canonical_state, 1, 0.7)
        assert chain.probability == pytest.approx(
            first.total_probability * second.total_probability, rel=1e-10
        )

    def test_scissors_count_must_match(self):
        with pytest.raises(ValueError):
            omega_pipeline(2, 2, ("pqs1",))
        with pytest.raises(ValueError):
            Pipeline(("pqs1",), (1, 0))


def test_prepare_stages_dispatches_each_stage_to_its_method():
    # the stage loop hands each arm to its own method's scissors, knob and all
    delta, phi, t0, t, gamma = 1.1, 0.4, 0.45, 0.8, 0.06
    pipeline = Pipeline(("pqs2", "pqs1"), (1, 0))
    stages = prepare_stages(pipeline, delta, phi, t0, {"t": t, "gamma_abs": gamma})
    cutoff = required_cutoff(delta, t0)
    squeezer = TransferTable(lambda state, mode: pqs2_apply(state, mode, complex(gamma)))
    first = apply_table(squeezer, xi_direct(SourceParams(delta, phi, t0, (), cutoff)), 1)
    linear = TransferTable(lambda state, mode: pqs1_apply(state, mode, t))
    second = apply_table(linear, first.canonical_state, 0)
    assert [s.probability for s in stages] == pytest.approx(
        [first.total_probability, first.total_probability * second.total_probability], rel=1e-13, abs=0
    )


def _assembled(table, state, mode):
    """Every pattern branch built from the table's rows, normalized and compared by ``_assemble``."""
    branches = [{} for _ in range(table.patterns)]
    for key, amp in state.amplitudes.items():
        for p, out, coeff in table.rows.get(key[mode], ()):
            new = key[:mode] + (out,) + key[mode + 1 :]
            branches[p][new] = branches[p].get(new, 0j) + amp * coeff
    kept = [_raw_state(state.mode_count, state.cutoff, b) if b else None for b in branches]
    return scissors._assemble([(0.0, None) if k is None else (k.norm_squared(), k) for k in kept])


@pytest.mark.parametrize("method,knob", [("pqs1", 0.83), ("pqs2", 0.07j)])
def test_table_application_normalizes_one_branch_and_compares_none(method, knob, monkeypatch):
    # the joint application, the factored stage's oracle, lists no outcomes,
    # so its agreement reads 1 and compares no states
    probes = []

    def circuit(state, mode):
        probes.append((pqs1_apply if method == "pqs1" else pqs2_apply)(state, mode, knob))
        return probes[-1]

    table = TransferTable(circuit)
    assert len(probes) == 1  # the table's one probe, at construction
    source = xi_direct(SourceParams(0.9, 0.4, 0.45, (), required_cutoff(0.9, 0.45)))
    want = _assembled(table, source, 1)
    calls = {"normalize": 0}

    def counted(state):
        calls["normalize"] += 1
        return normalize(state)

    def refuse(*args):
        raise AssertionError("a table application compared its pattern states")

    monkeypatch.setattr(conftest, "normalize", counted)
    monkeypatch.setattr(conftest, "fidelity", refuse)
    got = apply_table(table, source, 1)
    assert calls["normalize"] == 1
    assert got.total_probability.hex() == want.total_probability.hex()
    assert [(k, a.real.hex(), a.imag.hex()) for k, a in got.canonical_state.amplitudes.items()] == [
        (k, a.real.hex(), a.imag.hex()) for k, a in want.canonical_state.amplitudes.items()
    ]
    assert got.outcomes == () and pattern_agreement(got) == 1.0


def _hex_result(result):
    """Every outcome's probability and component, the total and the canonical state, in exact hex."""
    outcomes = [(o.probability.hex(), hex_items(o.state)) for o in result.outcomes]
    return outcomes, result.total_probability.hex(), hex_items(result.canonical_state)


def _signed_zero_state(rng, modes, cutoff):
    """A random state whose every amplitude has a signed-zero real or imaginary part; no compaction."""
    amps = {}
    for _ in range(3 * modes + 4):
        key = tuple((rng.randint(0, 2), rng.randint(0, 2)) for _ in range(modes))
        x = rng.gauss(0.0, 1.0)
        amps[key] = rng.choice([complex(-0.0, x), complex(x, -0.0), complex(0.0, -x), complex(-x, 0.0)])
    return PureState(modes, cutoff, amps)


class TestHeraldFirst:
    """Herald-first circuits give bitwise the full expansion's result, and a NaN stays loud."""

    @pytest.mark.parametrize("seed", range(12))
    def test_pqs1_drops_only_keys_that_cannot_herald(self, seed):
        # up to 3 photons per polarization, so the scissored mode holds keys no module can herald
        rng = random.Random(seed)
        modes = rng.randint(1, 3)
        state = random_state(rng, modes, 4, max_photons=3)
        mode = rng.randrange(modes)
        for t in (0.0, 1.0, rng.uniform(0.05, 0.95)):
            full = pqs1_apply(state, mode, t)
            assert _hex_result(pqs1_apply(state, mode, t, herald_first=True)) == _hex_result(full)
            assert full.total_probability > 0.0 or t in (0.0, 1.0)

    @pytest.mark.parametrize("seed", range(10))
    def test_qs_and_pqs2_on_every_mode_equal_the_full_expansion(self, seed):
        # random and signed-zero states, so a probability summed after the feed-forward flip, a flip
        # read on the other polarization or a kept mode left last changes some bit
        rng = random.Random(700 + seed)
        modes = rng.randint(2, 3)
        t = (0.0, 1.0, rng.uniform(0.05, 0.95))[seed % 3]
        gamma = cmath.rect(rng.uniform(0.01, 0.6), rng.uniform(0.0, 2 * math.pi))
        heralded = []
        for state in (random_state(rng, modes, 4, max_photons=3), _signed_zero_state(rng, modes, 4)):
            for mode in range(modes):
                for run in (
                    partial(qs_apply, state, mode, "H", t),
                    partial(qs_apply, state, mode, "V", t),
                    partial(pqs2_apply, state, mode, gamma),
                ):
                    full = run()
                    assert _hex_result(run(herald_first=True)) == _hex_result(full)
                    heralded.append(full.total_probability > 0.0)
        assert heralded.count(True) > len(heralded) // 2

    @pytest.mark.parametrize(
        "run",
        [
            # a vacuum input and an ancilla that t = 1 sends wholly to the kept mode: no detector clicks
            partial(qs_apply, PureState(2, 3, {((2, 1), (0, 0)): 1 + 0j}), 1, "H", 1.0),
            partial(qs_apply, PureState(2, 3, {((1, 2), (0, 0)): 1 + 0j}), 1, "V", 1.0),
            partial(pqs1_apply, PureState(2, 3, {((0, 1), (0, 0)): 1 + 0j}), 1, 1.0),
            # the squeezer never lowers the signal's (2, 0) to (1, 1)
            partial(pqs2_apply, PureState(2, 3, {((0, 1), (2, 0)): 1 + 0j}), 1, 0.3),
        ],
        ids=["qs-H", "qs-V", "pqs1", "pqs2"],
    )
    def test_a_pattern_that_heralds_nothing_reads_none(self, run):
        result = run(herald_first=True)
        assert [(o.probability, o.state) for o in result.outcomes] == [(0.0, None)] * len(result.outcomes)
        assert result.total_probability == 0.0 and result.canonical_state is None
        assert _hex_result(result) == _hex_result(run())

    def test_herald_first_circuits_read_their_detectors_in_one_pass(self, monkeypatch):
        # no projection, mode permutation or phase plate; the full expansion still projects, which
        # perfbench's herald-waste check counts
        calls = {"project_number": 0, "permute_modes": 0, "apply_pol_phase": 0}
        for name in calls:

            def counting(*args, step=getattr(scissors, name), name=name):
                calls[name] += 1
                return step(*args)

            monkeypatch.setattr(scissors, name, counting)
        state = random_state(random.Random(9), 3, 4)
        runs = [
            *(partial(qs_apply, state, mode, pol, 0.6) for mode in range(3) for pol in "HV"),
            *(partial(pqs1_apply, state, mode, 0.6) for mode in range(3)),
            *(partial(pqs2_apply, state, mode, 0.07) for mode in range(3)),
        ]
        results = [run(herald_first=True) for run in runs]
        assert calls == {"project_number": 0, "permute_modes": 0, "apply_pol_phase": 0}
        assert all(result.total_probability > 0.0 for result in results)
        for run in runs:
            run()
        assert calls["project_number"] > 0 and calls["permute_modes"] > 0 and calls["apply_pol_phase"] > 0

    @pytest.mark.parametrize(
        "circuit",
        [
            lambda state: qs_apply(state, 0, "H", 0.6, herald_first=True),
            lambda state: pqs1_apply(state, 0, 0.6, herald_first=True),
            lambda state: pqs2_apply(state, 0, 0.07, herald_first=True),
        ],
        ids=["qs", "pqs1", "pqs2"],
    )
    def test_a_nan_on_a_key_that_cannot_herald_raises(self, circuit):
        # (2, 3) reaches no accepted pattern; a drop that never read its amplitude would report a finite P
        state = PureState(1, 4, {((0, 0),): 0.6 + 0j, ((1, 0),): 0.8 + 0j, ((2, 3),): complex(math.nan, 0.0)})
        with pytest.raises(FockError, match=r"^NaN amplitude at key \(\(2, 3\), "):
            circuit(state)

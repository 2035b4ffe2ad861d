"""Herald-restricted kernels: the output keys the following projection accepts, bit for bit.

``apply_bs(..., herald=pairs)`` and ``apply_squeezer_exact(..., herald=occ)``
form only the output keys the next ``project_number`` keeps.  Each must equal
the full kernel's output filtered to those keys: same keys, same insertion
order, same real and imaginary parts (compared with ``float.hex``).  The
scissors circuits and transfer tables that pass ``herald`` down must send no
more keys into the detectors.
"""

import cmath
import math
import random

import pytest

from polscissors import elements, preparations
from polscissors.elements import BeamSplitterSpec, SqueezerSpec, apply_bs, apply_squeezer_exact
from polscissors.fock import CutoffError, FockError, PureState, make_state, permute_modes, tensor, vacuum
from polscissors.preparations import BELL_ARMS, KNOB_AXES, Pipeline, TransferTable, prepare_stages

from conftest import random_state, record_detector_reads


def hex_items(state):
    return [(key, amp.real.hex(), amp.imag.hex()) for key, amp in state.amplitudes.items()]


def kept(state, accepts):
    """The full output's items whose key the projection accepts, in its order."""
    return [item for item in hex_items(state) if accepts(item[0])]


def occupations(top):
    return [(nh, nv) for nh in range(top + 1) for nv in range(top + 1)]


class TestBeamSplitterHerald:
    def test_equals_the_filtered_full_output(self):
        rng = random.Random(41)
        cases = 0
        for mode_count in (2, 3, 4):
            for cutoff in (2, 3, 5):
                state = random_state(rng, mode_count, cutoff)
                a, b = rng.sample(range(mode_count), 2)
                spec = BeamSplitterSpec(rng.choice((0.5, rng.random())), a, b)
                full = apply_bs(state, spec)
                pairs = list(dict.fromkeys((k[a], k[b]) for k in full.amplitudes))
                heralds = [
                    {((1, 0), (0, 0)), ((0, 0), (1, 0))},
                    {((0, 1), (0, 0)), ((0, 0), (0, 1))},
                    set(rng.sample(pairs, max(1, len(pairs) // 3))),
                    {(occ_a, occ_b) for occ_a in occupations(1) for occ_b in occupations(1)},
                    {((cutoff + 1, 0), (0, 0))},
                    set(),
                ]
                for herald in heralds:
                    got = apply_bs(state, spec, herald=herald)
                    want = kept(full, lambda key: (key[a], key[b]) in herald)
                    assert hex_items(got) == want
                    cases += bool(want)
        assert cases >= 20

    def test_scissors_patterns_on_the_detector_state(self):
        # the pattern pairs _qs_branches passes, on states like its own: an
        # ancilla photon split on modes 2 and 3, then mode 1 mixed with mode 3
        rng = random.Random(42)
        for single in ((1, 0), (0, 1)):
            herald = {(single, (0, 0)), ((0, 0), single)}
            for cutoff in (3, 6):
                ancilla = make_state(2, cutoff, [((single, (0, 0)), 1.0)])
                state = tensor(random_state(rng, 2, cutoff, max_photons=3), ancilla)
                for t in (0.3, 0.5, 0.91):
                    split = apply_bs(state, BeamSplitterSpec(t, 2, 3))
                    full = apply_bs(split, BeamSplitterSpec(0.5, 1, 3))
                    got = apply_bs(split, BeamSplitterSpec(0.5, 1, 3), herald=herald)
                    want = kept(full, lambda key: (key[1], key[3]) in herald)
                    assert want and hex_items(got) == want

    def test_pairs_whose_totals_reach_no_pattern_form_no_terms(self, monkeypatch):
        # a pair term keeps each polarization's photon total, so only the pair
        # with totals (1, 0) can reach these patterns; no other is expanded
        calls = []
        kept_pair_terms = elements._kept_pair_terms

        def spy(p, q, t, cutoff):
            calls.append((p, q))
            return kept_pair_terms(p, q, t, cutoff)

        monkeypatch.setattr(elements, "_kept_pair_terms", spy)
        keys = [((2, 1), (0, 0)), ((0, 0), (0, 0)), ((1, 0), (0, 0)), ((3, 0), (1, 1)), ((0, 1), (1, 0))]
        state = make_state(2, 4, [(key, 0.3 + 0.1j * i) for i, key in enumerate(keys)])
        herald = {((1, 0), (0, 0)), ((0, 0), (1, 0))}
        spec = BeamSplitterSpec(0.37, 0, 1)
        got = apply_bs(state, spec, herald=herald)
        assert set(calls) == {(1, 0), (0, 0)}
        calls.clear()
        full = apply_bs(state, spec)
        assert {(2, 0), (1, 0), (3, 1), (0, 1)} <= set(calls)
        assert hex_items(got) == kept(full, lambda key: (key[0], key[1]) in herald)

    def test_a_pair_past_the_float_range_that_reaches_no_pattern(self):
        # 201 photons overflow a float in the full expansion; the herald-first
        # split never forms them, and keeps the accepted keys of the other pair
        herald = {((1, 0), (0, 0)), ((0, 0), (1, 0))}
        spec = BeamSplitterSpec(0.5, 0, 1)
        small = [(((1, 0), (0, 0)), 0.6 + 0.2j)]
        state = make_state(2, 201, [(((200, 0), (1, 0)), 0.7 + 0j), *small])
        with pytest.raises(CutoffError, match=r"photon pair \(200, 1\) overflow"):
            apply_bs(state, spec)
        got = apply_bs(state, spec, herald=herald)
        want = kept(apply_bs(make_state(2, 201, small), spec), lambda key: (key[0], key[1]) in herald)
        assert want and hex_items(got) == want


def squeezer_input(rng, mode_count, cutoff, max_photons):
    """A random state with a vacuum idle mode inserted at a random position."""
    state = tensor(random_state(rng, mode_count, cutoff, max_photons), vacuum(1, cutoff))
    order = list(range(mode_count))
    idle = rng.randrange(mode_count + 1)
    order.insert(idle, mode_count)
    return permute_modes(state, order), idle


def assert_squeezer_herald_matches(state, spec, heralds):
    full = apply_squeezer_exact(state, spec)
    for herald in heralds:
        got = apply_squeezer_exact(state, spec, herald=herald)
        assert hex_items(got) == kept(full, lambda key: key[spec.mode_s] == herald), herald


class TestSqueezerHerald:
    @pytest.mark.parametrize("gamma", [0.07, 0.3 - 0.2j, 0.62j, 0.9])
    def test_equals_the_filtered_full_output(self, gamma):
        rng = random.Random(43)
        for mode_count, cutoff, top in ((1, 4, 2), (2, 6, 3), (3, 8, 4)):
            state, idle = squeezer_input(rng, mode_count, cutoff, top)
            signal = rng.choice([m for m in range(mode_count + 1) if m != idle])
            # past the cutoff too: no key reaches these, and none is stored
            heralds = occupations(cutoff + 1) + [(2 * cutoff, 0), (0, 2 * cutoff), (2 * cutoff, 1)]
            assert_squeezer_herald_matches(state, SqueezerSpec(gamma, signal, idle), heralds)

    def test_amplitudes_near_the_tolerance(self):
        # amplitudes spread from 1 down to the compaction tolerance, so rows
        # and columns of the expansion end at the tolerance rule
        rng = random.Random(44)
        for gamma in (0.05, 0.4j, 0.75 + 0.1j):
            amps = {}
            for _ in range(40):
                key = ((rng.randint(0, 5), rng.randint(0, 5)), (0, 0))
                amps[key] = cmath.rect(10 ** -rng.uniform(0, 14), rng.uniform(0, 2 * math.pi))
            state = PureState(2, 9, amps)
            assert_squeezer_herald_matches(state, SqueezerSpec(gamma, 0, 1), occupations(9))

    def test_stopping_rules_at_a_growth_ratio_of_one(self):
        # |gamma| a few ulps below sqrt((j + 1) / (s + j + 1)), where the growth
        # ratio of row or column j crosses one, and the herald term's magnitude
        # within ulps of the tolerance: there the full kernel's loops stop
        # before some terms that would clear the tolerance when formed
        rng = random.Random(45)
        tol = 1e-14
        skipped = 0
        for trial in range(4000):
            n, m = rng.randint(1, 4), rng.randint(1, 4)
            if trial % 2:
                # column dl - 1 of the herald row is the last before the herald
                dk, dl = rng.randint(0, 2), rng.randint(1, 3)
                abs_g = math.sqrt(dl / (m + dl))
            else:
                # row dk - 1 is the last before the herald row, which starts at l = 0
                dk, dl = rng.randint(1, 3), 0
                abs_g = math.sqrt(dk / (n + dk))
            for _ in range(rng.randint(1, 3)):
                abs_g = math.nextafter(abs_g, 0.0)
            gamma = cmath.rect(abs_g, rng.uniform(0, 2 * math.pi))
            size = (1 - abs_g * abs_g) ** ((n + m + 2) / 2) * abs_g ** (dk + dl)
            size *= math.sqrt(math.comb(n + dk, n) * math.comb(m + dl, m))
            amp = cmath.rect(tol / size * (1 + rng.randint(-3, 3) * 1.1e-16), rng.uniform(0, 2 * math.pi))
            state = PureState(2, 8, {((n, m), (0, 0)): amp})
            spec = SqueezerSpec(gamma, 0, 1)
            herald = (n + dk, m + dl)
            assert_squeezer_herald_matches(state, spec, [herald])
            if herald not in {key[0] for key in apply_squeezer_exact(state, spec).amplitudes}:
                skipped += abs(formed_term(amp, gamma, n, m, dk, dl)) >= tol
        # the grid has teeth: a jump that ignored the stopping rules would store these
        assert skipped >= 3

    @pytest.mark.parametrize("herald", [None, (1, 1), (0, 0)])
    def test_idle_mode_must_be_vacuum(self, herald):
        # the offending key comes last and cannot reach the herald, yet it raises
        amps = {((1, 0), (0, 0)): 0.6 + 0j, ((3, 3), (1, 0)): 0.8 + 0j}
        with pytest.raises(FockError, match="idle mode in vacuum"):
            apply_squeezer_exact(PureState(2, 4, amps), SqueezerSpec(0.1, 0, 1), herald=herald)


def formed_term(amp, gamma, n, m, k, l):
    """The term (k, l) of signal key (n, m), formed with the kernel's float operations."""
    mig = -1j * complex(gamma)
    pows = [1.0 + 0.0j]
    for _ in range(max(k, l)):
        pows.append(pows[-1] * mig)
    abs_g = abs(complex(gamma))
    base = amp * (1.0 - abs_g * abs_g) ** ((n + m + 2) / 2.0)
    ck = base * pows[k] * math.sqrt(math.comb(n + k, n))
    return ck * pows[l] * math.sqrt(math.comb(m + l, m))


@pytest.mark.parametrize("method,knob", [("pqs1", 0.9), ("pqs2", 0.07)])
def test_a_table_probe_reads_the_same_keys_at_every_delta(method, knob, monkeypatch):
    """The sector probe's detectors read as many keys at delta 0.8 as at 2.0, and no more than the full circuit's."""
    probes = []

    class Recording(TransferTable):
        def __init__(self, circuit):
            def recorded(state, mode):
                probes.append((state, mode))
                return circuit(state, mode)

            super().__init__(recorded)

    monkeypatch.setattr(preparations, "TransferTable", Recording)
    reads = record_detector_reads(monkeypatch)
    table_keys = []
    for delta in (0.8, 2.0):
        filled = prepare_stages(Pipeline((method, method), BELL_ARMS), delta, 0.0, 0.5, {KNOB_AXES[method]: knob})
        assert filled[-1].state is not None
        # the herald-first probe reads its detectors in one pass
        table_keys.append(sum(reads["_detect"] + reads["_spare_vacuum"]))
        reads["_detect"].clear(), reads["_spare_vacuum"].clear()
    assert len(probes) == 2 and not reads["project_number"]
    assert table_keys[0] == table_keys[1] > 0
    assert preparations._scissors(method, knob, *probes[0]).total_probability > 0.0
    assert sum(reads["project_number"]) >= table_keys[0]

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polscissors.elements import (
    BeamSplitterSpec,
    _bs_pair_terms,
    apply_bs,
    apply_hwp,
    apply_pbs,
    apply_pol_phase,
)
from polscissors.fock import DEFAULT_TOL, FockError, fidelity, make_state, tensor, vacuum
from polscissors.sources import coherent

from conftest import random_state


def two_mode_ket(occ_a, occ_b, cutoff=4):
    return make_state(2, cutoff, [((tuple(occ_a), tuple(occ_b)), 1.0)])


def apply_bs_reference(state, spec):
    """Plain loop over every expansion term, skipping those past the cutoff."""
    a, b, cutoff = spec.mode_a, spec.mode_b, state.cutoff
    amps = {}
    for key, amp in state.amplitudes.items():
        (pah, pav), (pbh, pbv) = key[a], key[b]
        for nah, nbh, wh in _bs_pair_terms(pah, pbh, spec.t):
            if nah > cutoff or nbh > cutoff:
                continue
            for nav, nbv, wv in _bs_pair_terms(pav, pbv, spec.t):
                if nav > cutoff or nbv > cutoff:
                    continue
                new = list(key)
                new[a] = (nah, nav)
                new[b] = (nbh, nbv)
                nk = tuple(new)
                amps[nk] = amps.get(nk, 0.0 + 0.0j) + amp * wh * wv
    return {k: v for k, v in amps.items() if abs(v) >= DEFAULT_TOL}


class TestBeamSplitter:
    def test_full_transmission_is_identity_on_vacuum_port(self, rng):
        state = tensor(random_state(rng, 1, 4), vacuum(1, 4))
        out = apply_bs(state, BeamSplitterSpec(1.0, 0, 1))
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-12)

    def test_full_transmission_mirrors_second_port(self):
        # the fixed convention leaves a photon-number sign on the reflected port
        out = apply_bs(two_mode_ket((0, 0), (1, 0)), BeamSplitterSpec(1.0, 0, 1))
        assert out.amplitude(((0, 0), (1, 0))) == pytest.approx(-1.0, abs=1e-14)

    def test_coherent_merge(self):
        both = tensor(coherent(1.0, "H", 22), coherent(1.0, "H", 22))
        out = apply_bs(both, BeamSplitterSpec(0.5, 0, 1))
        target = tensor(coherent(math.sqrt(2.0), "H", 22), vacuum(1, 22))
        assert fidelity(out, target) >= 1 - 1e-10

    def test_coherent_general_map(self):
        # |mu>|nu> -> |mu sqrt(t) + nu sqrt(1-t)>|mu sqrt(1-t) - nu sqrt(t)>
        mu, nu, t = 0.9, -0.4, 0.3
        both = tensor(coherent(mu, "H", 20), coherent(nu, "H", 20))
        out = apply_bs(both, BeamSplitterSpec(t, 0, 1))
        target = tensor(
            coherent(mu * math.sqrt(t) + nu * math.sqrt(1 - t), "H", 20),
            coherent(mu * math.sqrt(1 - t) - nu * math.sqrt(t), "H", 20),
        )
        assert fidelity(out, target) >= 1 - 1e-10

    def test_single_photon_split(self):
        out = apply_bs(two_mode_ket((1, 0), (0, 0)), BeamSplitterSpec(0.5, 0, 1))
        r = 1 / math.sqrt(2)
        assert out.amplitude(((1, 0), (0, 0))) == pytest.approx(r, abs=1e-14)
        assert out.amplitude(((0, 0), (1, 0))) == pytest.approx(r, abs=1e-14)

    def test_second_port_photon_sign(self):
        out = apply_bs(two_mode_ket((0, 0), (1, 0)), BeamSplitterSpec(0.5, 0, 1))
        r = 1 / math.sqrt(2)
        assert out.amplitude(((1, 0), (0, 0))) == pytest.approx(r, abs=1e-14)
        assert out.amplitude(((0, 0), (1, 0))) == pytest.approx(-r, abs=1e-14)

    def test_hong_ou_mandel(self):
        out = apply_bs(two_mode_ket((1, 0), (1, 0)), BeamSplitterSpec(0.5, 0, 1))
        assert out.amplitude(((1, 0), (1, 0))) == pytest.approx(0.0, abs=1e-14)

    def test_self_inverse(self, rng):
        state = random_state(rng, 2, 6)
        spec = BeamSplitterSpec(0.37, 0, 1)
        back = apply_bs(apply_bs(state, spec), spec)
        assert fidelity(back, state) >= 1 - 1e-10

    @given(t=st.floats(0.05, 0.95))
    @settings(max_examples=20, deadline=None)
    def test_unitary_on_contained_states(self, t):
        state = make_state(
            2, 6, [(((1, 0), (2, 1)), 0.6), (((0, 1), (1, 0)), 0.8j)]
        )
        out = apply_bs(state, BeamSplitterSpec(t, 0, 1))
        assert out.norm_squared() == pytest.approx(state.norm_squared(), abs=1e-12)

    def test_polarizations_do_not_mix(self):
        out = apply_bs(two_mode_ket((1, 1), (0, 0)), BeamSplitterSpec(0.4, 0, 1))
        for key in out.amplitudes:
            assert key[0][0] + key[1][0] == 1
            assert key[0][1] + key[1][1] == 1

    def test_commutes_with_hwp_on_both_modes(self, rng):
        state = random_state(rng, 2, 5)
        spec = BeamSplitterSpec(0.7, 0, 1)
        a = apply_bs(apply_hwp(apply_hwp(state, 0), 1), spec)
        b = apply_hwp(apply_hwp(apply_bs(state, spec), 0), 1)
        assert fidelity(a, b) == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("modes", [(0, 1), (2, 0), (1, 2)])
    def test_bitwise_equal_to_reference_loop(self, rng, modes):
        # amplitudes, float rounding and key order all match the plain loop,
        # including where a cutoff of 3 drops terms
        for cutoff in (3, 6):
            state = random_state(rng, 3, cutoff)
            out = apply_bs(state, BeamSplitterSpec(0.37, *modes))
            assert repr(list(out.amplitudes.items())) == repr(
                list(apply_bs_reference(state, BeamSplitterSpec(0.37, *modes)).items())
            )

    def test_bad_spec(self):
        with pytest.raises(FockError):
            BeamSplitterSpec(1.2, 0, 1)
        with pytest.raises(FockError):
            BeamSplitterSpec(0.5, 1, 1)
        with pytest.raises(FockError):
            apply_bs(two_mode_ket((0, 0), (0, 0)), BeamSplitterSpec(0.5, 0, 2))


class TestPBS:
    def test_h_transmits(self):
        out = apply_pbs(two_mode_ket((1, 0), (0, 0)), 0, 1)
        assert out.amplitude(((1, 0), (0, 0))) == 1.0

    def test_v_reflects(self):
        out = apply_pbs(two_mode_ket((0, 1), (0, 0)), 0, 1)
        assert out.amplitude(((0, 0), (0, 1))) == 1.0

    def test_merge_mixed(self):
        out = apply_pbs(two_mode_ket((2, 0), (0, 3)), 0, 1)
        assert out.amplitude(((2, 3), (0, 0))) == 1.0

    def test_involution(self, rng):
        state = random_state(rng, 2, 4)
        assert fidelity(apply_pbs(apply_pbs(state, 0, 1), 0, 1), state) == pytest.approx(
            1.0, abs=1e-12
        )


class TestHWP:
    def test_swaps_polarizations(self):
        out = apply_hwp(make_state(1, 4, [(((1, 0),), 1.0)]), 0)
        assert out.amplitude(((0, 1),)) == 1.0
        out = apply_hwp(make_state(1, 4, [(((2, 1),), 1.0)]), 0)
        assert out.amplitude(((1, 2),)) == 1.0

    def test_involution(self, rng):
        state = random_state(rng, 2, 4)
        again = apply_hwp(apply_hwp(state, 1), 1)
        assert again.amplitudes == state.amplitudes


class TestPolPhase:
    def test_pi_flip_on_single_photon(self):
        state = make_state(1, 4, [(((1, 0),), 1.0), (((0, 1),), 1.0)])
        out = apply_pol_phase(state, 0, "H", math.pi)
        assert out.amplitude(((1, 0),)) == pytest.approx(-1.0, abs=1e-14)
        assert out.amplitude(((0, 1),)) == pytest.approx(1.0, abs=1e-14)

    def test_phase_counts_photons(self):
        state = make_state(1, 4, [(((2, 0),), 1.0)])
        out = apply_pol_phase(state, 0, "H", math.pi / 2)
        assert out.amplitude(((2, 0),)) == pytest.approx(-1.0, abs=1e-12)

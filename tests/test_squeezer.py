import cmath
import logging
import math

import pytest

from polscissors.elements import (
    SqueezerSpec,
    apply_squeezer_exact,
)
from polscissors.fock import (
    DEFAULT_TOL,
    FockError,
    fidelity,
    inner_product,
    make_state,
    tensor,
    vacuum,
)

from conftest import random_state
from squeezer_oracle import CutoffOverflowError, apply_squeezer_series, gamma_from_xi

CUT = 8


def signal_ket(n, m, cutoff=CUT):
    """|n_H, m_V> on the signal mode, idle mode in vacuum."""
    return make_state(2, cutoff, [(((n, m), (0, 0)), 1.0)])


def k_factor(gamma_abs, n):
    return (1 - gamma_abs**2) ** ((n + 2) / 2)


def squeezer_reference(state, spec):
    """The exact kernel's double sum with each binomial root computed in place."""
    cutoff, ms, mi, tol = state.cutoff, spec.mode_s, spec.mode_i, DEFAULT_TOL
    abs_g = abs(spec.gamma)
    pows = [1.0 + 0.0j]
    for _ in range(2 * cutoff):
        pows.append(pows[-1] * (-1j * spec.gamma))
    amps = {}
    for key, amp in state.amplitudes.items():
        n, m = key[ms]
        base = amp * (1.0 - abs_g * abs_g) ** ((n + m + 2) / 2.0)
        new = list(key)
        for k in range(cutoff - n + 1):
            ck = base * pows[k] * math.sqrt(math.comb(n + k, n))
            stored_any = False
            for l in range(cutoff - m + 1):
                w = ck * pows[l] * math.sqrt(math.comb(m + l, m))
                if abs(w) >= tol:
                    stored_any = True
                    new[ms] = (n + k, m + l)
                    new[mi] = (l, k)
                    amps[tuple(new)] = w
                elif abs_g * abs_g * (m + l + 1) < (l + 1):
                    break
            if not stored_any and abs_g * abs_g * (n + k + 1) < (k + 1):
                break
    return amps


class TestExactKernel:
    def test_gamma_zero_is_identity(self):
        state = signal_ket(1, 2)
        out = apply_squeezer_exact(state, SqueezerSpec(0.0, 0, 1))
        assert fidelity(out, state) == pytest.approx(1.0, abs=1e-14)
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-14)

    def test_vacuum_pair_amplitudes(self):
        g = 0.1j
        out = apply_squeezer_exact(vacuum(2, CUT), SqueezerSpec(g, 0, 1))
        # k = 1, l = 0 term: signal gains one H photon, idle one V photon
        assert out.amplitude(((1, 0), (0, 1))) == pytest.approx(
            k_factor(abs(g), 0) * (-1j * g), abs=1e-14
        )
        assert out.amplitude(((0, 1), (1, 0))) == pytest.approx(
            k_factor(abs(g), 0) * (-1j * g), abs=1e-14
        )
        assert out.amplitude(((0, 0), (0, 0))) == pytest.approx(
            k_factor(abs(g), 0), abs=1e-14
        )

    def test_one_photon_input_terms(self):
        g = 0.12
        out = apply_squeezer_exact(signal_ket(1, 0), SqueezerSpec(g, 0, 1))
        mig = -1j * g
        k1 = k_factor(g, 1)
        assert out.amplitude(((1, 1), (1, 0))) == pytest.approx(k1 * mig, abs=1e-14)
        assert out.amplitude(((2, 0), (0, 1))) == pytest.approx(
            k1 * mig * math.sqrt(2.0), abs=1e-14
        )

    def test_unitary_within_truncation(self):
        g = 0.15
        state = make_state(2, 12, [(((1, 0), (0, 0)), 0.6), (((0, 2), (0, 0)), 0.8j)])
        out = apply_squeezer_exact(state, SqueezerSpec(g, 0, 1))
        assert out.norm_squared() == pytest.approx(1.0, abs=1e-9)

    def test_column_orthogonality(self):
        g = 0.2
        inputs = [signal_ket(n, m, 12) for n, m in ((0, 0), (1, 0), (0, 1), (1, 1), (2, 0))]
        outputs = [apply_squeezer_exact(s, SqueezerSpec(g, 0, 1)) for s in inputs]
        for i in range(len(outputs)):
            for j in range(i + 1, len(outputs)):
                assert abs(inner_product(outputs[i], outputs[j])) <= 1e-10

    def test_pair_bookkeeping(self):
        # created photons come only in (signal H, idle V) and (signal V, idle H) pairs
        for n, m in ((0, 0), (1, 0), (2, 1)):
            out = apply_squeezer_exact(signal_ket(n, m, 10), SqueezerSpec(0.2j, 0, 1))
            for key in out.amplitudes:
                (sh, sv), (ih, iv) = key
                assert sh - iv == n
                assert sv - ih == m

    @pytest.mark.parametrize("gamma", [0.07, 0.3j, 0.6 + 0.2j])
    def test_bitwise_equal_to_reference_loop(self, rng, gamma):
        # amplitudes, float rounding and key order all match the in-place lookups
        signal = random_state(rng, 1, 10, max_photons=3)
        state = tensor(tensor(vacuum(1, 10), signal), vacuum(1, 10))
        spec = SqueezerSpec(gamma, 1, 2)
        out = apply_squeezer_exact(state, spec)
        assert repr(list(out.amplitudes.items())) == repr(
            list(squeezer_reference(state, spec).items())
        )

    def test_truncation_logged_at_debug_level(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="polscissors.elements"):
            out = apply_squeezer_exact(signal_ket(0, 0), SqueezerSpec(0.9, 0, 1))
        deficit = 1.0 - out.norm_squared()
        assert deficit > 1e-9
        assert caplog.messages == [f"squeezer truncation dropped {deficit:.3e} of squared norm"]

    def test_requires_vacuum_idle(self):
        bad = make_state(2, CUT, [(((1, 0), (0, 1)), 1.0)])
        with pytest.raises(FockError):
            apply_squeezer_exact(bad, SqueezerSpec(0.1, 0, 1))

    def test_gamma_magnitude_bound(self):
        with pytest.raises(FockError):
            SqueezerSpec(1.0, 0, 1)


class TestSeriesOracle:
    def test_xi_zero_identity(self):
        state = signal_ket(1, 1)
        for order in (1, 2, 3):
            out = apply_squeezer_series(state, 0.0, 0, 1, order)
            assert fidelity(out, state) == pytest.approx(1.0, abs=1e-14)

    def test_first_order_on_photon_superposition(self):
        # input c10 |1_H> + c01 |1_V>: first order creates the pair-shifted terms
        c10, c01 = 0.6, 0.8j
        xi = 0.02
        state = make_state(2, CUT, [(((1, 0), (0, 0)), c10), (((0, 1), (0, 0)), c01)])
        out = apply_squeezer_series(state, xi, 0, 1, 1)
        root2 = math.sqrt(2.0)
        assert out.amplitude(((2, 0), (0, 1))) == pytest.approx(xi * root2 * c10, abs=1e-14)
        assert out.amplitude(((0, 2), (1, 0))) == pytest.approx(xi * root2 * c01, abs=1e-14)
        assert out.amplitude(((1, 1), (1, 0))) == pytest.approx(xi * c10, abs=1e-14)
        assert out.amplitude(((1, 1), (0, 1))) == pytest.approx(xi * c01, abs=1e-14)

    def test_first_order_on_vacuum(self):
        xi = 0.03
        out = apply_squeezer_series(vacuum(2, CUT), xi, 0, 1, 1)
        assert out.amplitude(((1, 0), (0, 1))) == pytest.approx(xi, abs=1e-14)
        assert out.amplitude(((0, 1), (1, 0))) == pytest.approx(xi, abs=1e-14)
        assert out.amplitude(((0, 0), (0, 0))) == pytest.approx(1.0, abs=1e-14)

    def test_first_order_general_occupation(self):
        xi = 0.025
        n, m = 2, 1
        out = apply_squeezer_series(signal_ket(n, m), xi, 0, 1, 1)
        assert out.amplitude(((n + 1, m), (0, 1))) == pytest.approx(
            xi * math.sqrt(n + 1), abs=1e-14
        )
        assert out.amplitude(((n, m + 1), (1, 0))) == pytest.approx(
            xi * math.sqrt(m + 1), abs=1e-14
        )

    def test_overflow_flagged(self):
        tight = make_state(2, 2, [(((2, 0), (0, 0)), 1.0)])
        with pytest.raises(CutoffOverflowError):
            apply_squeezer_series(tight, 0.05, 0, 1, 1)

    def test_order_bounds(self):
        with pytest.raises(FockError):
            apply_squeezer_series(vacuum(2, CUT), 0.01, 0, 1, 5)


class TestExactVersusSeries:
    @pytest.mark.parametrize("n,m", [(0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)])
    @pytest.mark.parametrize(
        "xi", [0.05, 0.05j, 0.035 + 0.035j, -0.02 + 0.04j, -0.05]
    )
    def test_two_photon_inputs(self, n, m, xi):
        state = signal_ket(n, m)
        exact = apply_squeezer_exact(state, SqueezerSpec(gamma_from_xi(xi), 0, 1))
        series = apply_squeezer_series(state, xi, 0, 1, 3)
        assert fidelity(exact, series) >= 1 - 1e-6

    def test_superposition_input(self, rng):
        entries = [
            (((n, m), (0, 0)), complex(rng.gauss(0, 1), rng.gauss(0, 1)))
            for n in range(3)
            for m in range(3 - n)
        ]
        state = make_state(2, CUT, entries)
        xi = 0.04 - 0.02j
        exact = apply_squeezer_exact(state, SqueezerSpec(gamma_from_xi(xi), 0, 1))
        series = apply_squeezer_series(state, xi, 0, 1, 3)
        assert fidelity(exact, series) >= 1 - 1e-6

    def test_convention_pinned_at_larger_coupling(self):
        # a high-order series at xi = 0.3 separates tanh from tan by 4+ orders
        xi = 0.3
        state = vacuum(2, 12)
        series = state
        term = state
        from squeezer_oracle import _pair_generator
        from polscissors.fock import add, scale

        for p in range(1, 10):
            term = scale(_pair_generator(term, complex(xi), 0, 1), 1.0 / p)
            series = add(series, term)
        good = apply_squeezer_exact(state, SqueezerSpec(1j * math.tanh(xi), 0, 1))
        bad = apply_squeezer_exact(state, SqueezerSpec(1j * math.tan(xi), 0, 1))
        assert fidelity(good, series) >= 1 - 1e-7
        assert fidelity(bad, series) <= 1 - 1e-4


class TestGammaFromXi:
    def test_small_coupling_matches_linear(self):
        assert gamma_from_xi(0.01) == pytest.approx(0.01j, abs=1e-6)

    def test_magnitude_is_tanh(self):
        for xi in (0.05, 0.3 + 0.1j, -0.2j):
            assert abs(gamma_from_xi(xi)) == pytest.approx(math.tanh(abs(xi)), abs=1e-14)

    def test_odd_in_xi(self):
        assert gamma_from_xi(-0.2) == pytest.approx(-gamma_from_xi(0.2), abs=1e-15)

    def test_zero(self):
        assert gamma_from_xi(0.0) == 0.0

import cmath
import gc
import math
import tracemalloc

import pytest

from polscissors import analytics, sources
from polscissors.analytics import DegenerateParameterError as DegenerateStateError
from polscissors.fock import MAX_SOURCE_PRODUCTS, CutoffError, FockError, fidelity, min_cutoff
from polscissors.sources import (
    SourceParams,
    cat,
    coherent,
    lambda_circuit,
    lambda_state,
    split_amplitudes,
    target_omega,
    xi_circuit,
    xi_direct,
)


def poisson_amp(gamma, n):
    return math.exp(-gamma * gamma / 2) * gamma**n / math.sqrt(math.factorial(n))


class TestCoherent:
    def test_vacuum(self):
        state = coherent(0.0, "H", 4)
        assert state.amplitude(((0, 0),)) == 1.0
        assert len(state.amplitudes) == 1

    def test_amplitudes(self):
        state = coherent(1.0, "H", 16)
        assert state.amplitude(((1, 0),)).real == pytest.approx(
            math.exp(-0.5), abs=1e-14
        )
        assert state.amplitude(((3, 0),)).real == pytest.approx(
            poisson_amp(1.0, 3), abs=1e-14
        )

    def test_parity_under_sign_flip(self):
        plus = coherent(1.0, "V", 16)
        minus = coherent(-1.0, "V", 16)
        for n in range(8):
            assert minus.amplitude(((0, n),)) == pytest.approx(
                (-1) ** n * plus.amplitude(((0, n),)), abs=1e-14
            )

    def test_norm_is_one_minus_tail(self):
        state = coherent(1.2, "H", 18)
        from polscissors.fock import coherent_tail_weight

        assert state.norm_squared() == pytest.approx(
            1 - coherent_tail_weight(1.2, 18), abs=1e-14
        )

    def test_insufficient_cutoff_rejected(self):
        with pytest.raises(CutoffError):
            coherent(2.0, "H", 10)

    def test_large_amplitude_at_tiny_cutoff_rejected(self):
        with pytest.raises(CutoffError):
            coherent(30.0, "H", 1)


class TestCat:
    def test_even_parity_at_zero_phase(self):
        state = cat(1.0, 0.0, "H", 16)
        assert state.amplitude(((1, 0),)) == 0.0
        assert state.amplitude(((3, 0),)) == 0.0

    def test_normalization_constant(self):
        # norm forced by [2(1+cos(phi) e^{-2 delta^2})]^{-1/2}
        expected = 1.0 / math.sqrt(2.0 * (1.0 + math.exp(-2.0)))
        assert analytics.cat_norm(1.0, 0.0) == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.66357, abs=1e-4)
        state = cat(1.0, 0.0, "H", 20)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_odd_cat_approaches_single_photon(self):
        state = cat(0.1, math.pi, "V", 8)
        photon = coherent(0.0, "V", 8)  # vacuum placeholder for shape
        from polscissors.fock import make_state

        one = make_state(1, 8, [(((0, 1),), 1.0)])
        assert fidelity(state, one) >= 0.99

    def test_degenerate_rejected(self):
        with pytest.raises(DegenerateStateError):
            cat(0.0, math.pi, "H", 4)


class TestXi:
    def test_normalization_value(self):
        assert analytics.n0(1.0, 0.0, 0.5) == pytest.approx(0.66357, abs=1e-4)
        state = xi_direct(SourceParams(1.0, 0.0, 0.5, (), 20))
        assert state.norm() == pytest.approx(1.0, abs=1e-10)

    def test_photon_pair_coefficient(self):
        params = SourceParams(1.0, 0.0, 0.5, (), 20)
        state = xi_direct(params)
        expected = analytics.n0(1.0, 0.0, 0.5) * poisson_amp(1.0, 1) ** 2
        assert state.amplitude(((1, 0), (1, 0))).real == pytest.approx(expected, abs=1e-12)
        assert expected == pytest.approx(0.24412, abs=1e-4)

    def test_branch_coefficients_and_sign(self):
        # single-photon coefficients on the first arm: N0 f1(a) and -e^{i phi} N0 f1(a)
        delta, phi, t0 = 1.1, 0.9, 0.35
        params = SourceParams(delta, phi, t0, (), 22)
        state = xi_direct(params)
        a, b = analytics.alpha_beta(delta, t0)
        norm = analytics.n0(delta, phi, t0)
        got_h = state.amplitude(((1, 0), (2, 0)))
        expect_h = norm * poisson_amp(a, 1) * poisson_amp(b, 2)
        assert got_h == pytest.approx(expect_h, abs=1e-12)
        got_v = state.amplitude(((0, 1), (0, 2)))
        expect_v = (
            cmath.exp(1j * phi) * norm * poisson_amp(-a, 1) * poisson_amp(-b, 2)
        )
        assert got_v == pytest.approx(expect_v, abs=1e-12)
        assert got_v == pytest.approx(
            -cmath.exp(1j * phi) * norm * poisson_amp(a, 1) * poisson_amp(b, 2), abs=1e-12
        )

    def test_degenerate(self):
        with pytest.raises(DegenerateStateError):
            xi_direct(SourceParams(0.0, math.pi, 0.5, (), 4))

    @pytest.mark.parametrize(
        "field,value",
        [("delta", math.nan), ("delta", math.inf), ("phi", math.nan), ("phi", -math.inf)],
    )
    def test_non_finite_parameters_rejected(self, field, value):
        with pytest.raises(FockError):
            SourceParams(**{"delta": 1.0, "phi": 0.0, field: value})

    def test_zero_amplitude_nondegenerate_phase(self):
        state = xi_direct(SourceParams(0.0, 0.0, 0.5, (), 4))
        assert state.amplitude(((0, 0), (0, 0))) == pytest.approx(1.0, abs=1e-14)


class TestXiCircuit:
    def test_matches_direct_at_reference_point(self):
        params = SourceParams(1.0, 0.0, 0.5, (), 25)
        assert fidelity(xi_circuit(params), xi_direct(params)) >= 1 - 1e-9

    def test_full_transmission_keeps_mode_one_empty(self):
        params = SourceParams(0.8, 0.4, 1.0, (), 20)
        state = xi_circuit(params)
        for key in state.amplitudes:
            assert key[1] == (0, 0)

    def test_intermediate_amplitude_needs_headroom(self):
        # cutoff fine for delta but not for delta*sqrt(2) after the merge
        with pytest.raises(CutoffError):
            xi_circuit(SourceParams(2.0, 0.0, 0.5, (), min_cutoff(2.0)))

    @pytest.mark.parametrize("phi", [0.0, math.pi / 2, math.pi])
    @pytest.mark.parametrize("t0", [0.1, 0.5, 0.9])
    @pytest.mark.parametrize("delta", [0.2, 1.0, 2.0])
    def test_matches_direct_on_grid(self, delta, phi, t0):
        cutoff = min_cutoff(delta * math.sqrt(2.0))
        params = SourceParams(delta, phi, t0, (), cutoff)
        assert fidelity(xi_circuit(params), xi_direct(params)) >= 1 - 1e-9


class TestLambda:
    def test_two_arms_equals_xi(self):
        params = SourceParams(1.0, 0.3, 0.4, (), 20)
        assert fidelity(lambda_state(params, 2), xi_direct(params)) == pytest.approx(
            1.0, abs=1e-12
        )

    def test_three_arm_amplitudes(self):
        params = SourceParams(1.0, 0.0, 0.5, (0.5,), 16)
        amps = split_amplitudes(params, 3)
        assert amps[0] == pytest.approx(1.0, abs=1e-14)
        assert amps[1] == pytest.approx(1 / math.sqrt(2), abs=1e-14)
        assert amps[2] == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_energy_conservation(self, rng):
        for _ in range(10):
            delta = rng.uniform(0.1, 2.0)
            t0 = rng.uniform(0.05, 0.95)
            ts = tuple(rng.uniform(0.05, 0.95) for _ in range(rng.randint(0, 3)))
            params = SourceParams(delta, 0.0, t0, ts, 8)
            amps = split_amplitudes(params, 2 + len(ts))
            assert sum(a * a for a in amps) == pytest.approx(2 * delta * delta, abs=1e-12)

    def test_circuit_matches_direct(self):
        params = SourceParams(1.0, 0.7, 0.4, (0.6,), 25)
        assert fidelity(lambda_circuit(params, 3), lambda_state(params, 3)) >= 1 - 1e-9

    def test_wrong_split_count(self):
        with pytest.raises(FockError):
            lambda_state(SourceParams(1.0, 0.0, 0.5, (), 8), 3)

    def test_oversized_source_refused_before_it_is_built(self, monkeypatch):
        # eight arms at delta 1 multiply 3.3e9 products per branch; both
        # routes refuse from the arms' factor sizes alone
        params = SourceParams(1.0, 0.0, 0.5, (0.5,) * 6, 18)

        def build(*args):
            raise AssertionError("a circuit ran")

        monkeypatch.setattr(sources, "xi_circuit", build)
        with pytest.raises(CutoffError, match="3,274,212,240 amplitude products"):
            lambda_state(params, 8)
        with pytest.raises(CutoffError, match="3,274,212,240 amplitude products"):
            lambda_circuit(params, 8)

    def test_size_limit_admits_the_largest_benchmarked_source(self):
        # four arms at delta 2.0, cutoff 35: 36 * 34 * 27 * 27 products
        params = SourceParams(2.0, 0.0, 0.5, (0.5, 0.5), 35)
        sizes = [len(coherent(g, "H", 35).amplitudes) for g in split_amplitudes(params, 4)]
        assert sizes == [36, 34, 27, 27]
        assert math.prod(sizes) <= MAX_SOURCE_PRODUCTS
        sources._check_branch_size(sizes)
        with pytest.raises(CutoffError):
            sources._check_branch_size([MAX_SOURCE_PRODUCTS + 1])

    def test_peak_memory_is_close_to_the_result_size(self):
        # the build fills one output dict, so it holds little beyond the
        # amplitudes it returns
        params = SourceParams(1.1, 0.4, 0.5, (0.5, 0.5), 20)
        lambda_state(params, 4)
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            state = lambda_state(params, 4)
            retained, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(state.amplitudes) > 50_000
        assert peak - before <= 1.2 * (retained - before)

    def test_permutation_covariance(self):
        # exchanging split amplitudes relabels arms; fidelity via arm swap
        from polscissors.fock import permute_modes

        base = SourceParams(1.0, 0.4, 0.5, (0.3,), 18)
        swapped = SourceParams(1.0, 0.4, 0.5, (0.7,), 18)
        state = lambda_state(base, 3)
        other = lambda_state(swapped, 3)
        assert fidelity(permute_modes(state, [0, 2, 1]), other) == pytest.approx(
            1.0, abs=1e-10
        )


class TestTargetOmega:
    def test_bell_pair_for_full_truncation(self):
        params = SourceParams(1.0, 0.0, 0.5, (), 8)
        state = target_omega(2, 2, params)
        r = 1 / math.sqrt(2)
        assert state.amplitude(((1, 0), (1, 0))) == pytest.approx(r, abs=1e-14)
        assert state.amplitude(((0, 1), (0, 1))) == pytest.approx(r, abs=1e-14)
        assert state.norm() == pytest.approx(1.0, abs=1e-14)

    def test_hybrid_form(self):
        params = SourceParams(1.0, 0.2, 0.5, (), 16)
        state = target_omega(2, 1, params)
        assert state.norm() == pytest.approx(1.0, abs=1e-10)
        # photon qubit on arm 1, coherent content on arm 2
        beta = params.beta
        expect = poisson_amp(beta, 2) / math.sqrt(2.0)
        assert abs(state.amplitude(((1, 0), (2, 0)))) == pytest.approx(expect, abs=1e-12)

    def test_ghz_for_three_arms(self):
        params = SourceParams(1.0, 0.0, 0.5, (0.5,), 8)
        state = target_omega(3, 3, params)
        r = 1 / math.sqrt(2)
        assert state.amplitude(((1, 0), (1, 0), (1, 0))) == pytest.approx(r, abs=1e-14)
        assert state.amplitude(((0, 1), (0, 1), (0, 1))) == pytest.approx(r, abs=1e-14)

    def test_invalid_j(self):
        params = SourceParams(1.0, 0.0, 0.5, (), 8)
        with pytest.raises(FockError):
            target_omega(2, 3, params)

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polscissors.analytics import (
    AnalyticPF,
    DegenerateParameterError,
    ProbabilityUnderflowError,
    alpha_beta,
    count_rate,
    f_n,
    k_n,
    l_alpha,
    n0,
    pf_bell,
    pf_hybrid,
    pf_pqs1,
    pf_pqs2,
    pf_qs,
    xi_coefficients,
)
from polscissors.preparations import analytic_named

from conftest import g_coefficients, h_coefficients


class TestElementaryPieces:
    def test_f_n_values(self):
        assert f_n(0.0, 0) == 1.0
        assert f_n(0.8, 1) == pytest.approx(0.8 * math.exp(-0.32), abs=1e-12)
        assert f_n(0.8, 1) == pytest.approx(0.58092, abs=5e-6)
        assert f_n(1.0, 2) == pytest.approx(math.exp(-0.5) / math.sqrt(2), abs=1e-12)
        assert f_n(1.0, 2) == pytest.approx(0.42888, abs=5e-6)

    def test_f_n_parity(self):
        for n in range(6):
            assert f_n(-1.3, n) == pytest.approx((-1) ** n * f_n(1.3, n), abs=1e-14)

    def test_f_n_unchanged_where_the_direct_formula_fits(self):
        for gamma in (-9.3, -1.7, -0.2, 0.0, 0.3, 1.4, 2.8, 8.9):
            for n in range(171):
                direct = math.exp(-gamma * gamma / 2.0) * gamma**n / math.sqrt(math.factorial(n))
                assert f_n(gamma, n).hex() == direct.hex()

    def test_f_n_past_the_float_range(self):
        # n! leaves the float range at n = 171 and 30.0**n at n = 209
        for gamma in (12.0, -30.0):
            norm = sum(f_n(gamma, n) ** 2 for n in range(2000))
            assert norm == pytest.approx(1.0, abs=1e-12)
        ratio = f_n(30.0, 171) / f_n(30.0, 170)
        assert ratio == pytest.approx(30.0 / math.sqrt(171), rel=1e-12)
        assert f_n(-30.0, 901) == -f_n(30.0, 901) < 0.0
        assert f_n(0.0, 200) == 0.0

    def test_alpha_beta(self):
        assert alpha_beta(1.0, 0.5) == (pytest.approx(1.0), pytest.approx(1.0))
        a, b = alpha_beta(1.7, 1.0)
        assert a == pytest.approx(1.7 * math.sqrt(2.0), abs=1e-14)
        assert b == 0.0

    @given(delta=st.floats(0.0, 3.0), t0=st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_energy_identity(self, delta, t0):
        a, b = alpha_beta(delta, t0)
        assert a * a + b * b == pytest.approx(2 * delta * delta, abs=1e-10)

    def test_norms(self):
        assert n0(1.0, 0.0, 0.5) == pytest.approx(
            1 / math.sqrt(2 * (1 + math.exp(-2.0))), abs=1e-14
        )
        assert l_alpha(1.0, 0.0) == pytest.approx(0.60460, abs=1e-4)
        assert n0(1.0, math.pi / 2, 0.5) == pytest.approx(1 / math.sqrt(2), abs=1e-14)

    def test_degenerate_normalization(self):
        with pytest.raises(DegenerateParameterError):
            n0(0.0, math.pi, 0.5)
        with pytest.raises(DegenerateParameterError):
            l_alpha(0.0, math.pi)

    def test_k_n(self):
        assert k_n(0.0, 0) == 1.0
        assert k_n(0.0, 5) == 1.0
        assert k_n(0.3, 1) == pytest.approx((1 - 0.09) ** 1.5, abs=1e-14)


class TestQsForms:
    def test_coherent_point(self):
        e = math.exp(-1.0)
        pf = pf_qs(e, e, 0.5)
        assert pf.probability == pytest.approx(e, abs=1e-12)
        assert pf.fidelity == pytest.approx(0.5, abs=1e-12)

    def test_pure_photon(self):
        pf = pf_qs(0.0, 1.0, 0.73)
        assert pf.probability == pytest.approx(0.73)
        assert pf.fidelity == 1.0

    def test_pure_vacuum(self):
        pf = pf_qs(1.0, 0.0, 0.73)
        assert pf.probability == pytest.approx(0.27)
        assert pf.fidelity == 0.0

    def test_zero_probability(self):
        with pytest.raises(ValueError):
            pf_qs(0.0, 0.0, 0.5)


class TestPqs1Forms:
    def test_pure_single_photon_sector(self):
        pf = pf_pqs1(0.5, 0.5, 0.0, 0.0, 0.8)
        assert pf.probability == pytest.approx(0.2 * 0.8, abs=1e-14)
        assert pf.fidelity == 1.0

    def test_pure_vacuum(self):
        pf = pf_pqs1(0.0, 0.0, 1.0, 0.0, 0.8)
        assert pf.probability == pytest.approx(0.04, abs=1e-14)
        assert pf.fidelity == 0.0

    def test_specialization_matches_hybrid(self, rng):
        for _ in range(20):
            delta = rng.uniform(0.2, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            t0 = rng.uniform(0.1, 0.9)
            t = rng.uniform(0.3, 0.98)
            c = xi_coefficients(delta, phi, t0)
            via_generic = pf_pqs1(
                abs(c.c10) ** 2, abs(c.c01) ** 2, abs(c.c00) ** 2, 0.0, t
            )
            via_hybrid = pf_hybrid("pqs1", delta, phi, t0, t)
            assert via_generic.probability == pytest.approx(
                via_hybrid.probability, abs=1e-14
            )
            assert via_generic.fidelity == pytest.approx(via_hybrid.fidelity, abs=1e-14)


class TestPqs2Forms:
    def test_pure_single_photon_sector(self):
        g = 0.1
        pf = pf_pqs2(0.5, 0.5, 0.0, 0.0, g)
        assert pf.probability == pytest.approx(k_n(g, 1) ** 2 * g * g, abs=1e-14)
        assert pf.fidelity == 1.0

    def test_pure_vacuum(self):
        pf = pf_pqs2(0.0, 0.0, 1.0, 0.0, 0.1)
        assert pf.probability == pytest.approx(k_n(0.1, 0) ** 2 * 1e-4, abs=1e-14)
        assert pf.fidelity == 0.0

    def test_specialization_matches_hybrid(self, rng):
        for _ in range(20):
            delta = rng.uniform(0.2, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            t0 = rng.uniform(0.1, 0.9)
            g = rng.uniform(0.01, 0.12)
            c = xi_coefficients(delta, phi, t0)
            via_generic = pf_pqs2(
                abs(c.c10) ** 2, abs(c.c01) ** 2, abs(c.c00) ** 2, 0.0, g
            )
            via_hybrid = pf_hybrid("pqs2", delta, phi, t0, g)
            assert via_generic.probability == pytest.approx(
                via_hybrid.probability, abs=1e-14
            )
            assert via_generic.fidelity == pytest.approx(via_hybrid.fidelity, abs=1e-14)


class TestXiCoefficients:
    def test_values_at_reference(self):
        c = xi_coefficients(1.0, 0.0, 0.5)
        expect = n0(1.0, 0.0, 0.5) * f_n(1.0, 1)
        assert c.c10 == pytest.approx(expect, abs=1e-12)
        assert abs(c.c10) == pytest.approx(0.40246, abs=1e-4)

    def test_magnitude_symmetry_and_sign(self, rng):
        for _ in range(10):
            delta = rng.uniform(0.2, 2.0)
            phi = rng.uniform(0, 2 * math.pi)
            t0 = rng.uniform(0.1, 0.9)
            c = xi_coefficients(delta, phi, t0)
            assert abs(c.c10) == pytest.approx(abs(c.c01), abs=1e-14)
            # c01 carries the branch phase and the odd-photon sign flip
            import cmath

            assert c.c01 == pytest.approx(
                -cmath.exp(1j * phi) * c.c10, abs=1e-12
            )

    def test_sector_weights_subnormalized(self):
        c = xi_coefficients(1.0, 0.3, 0.5)
        total = abs(c.c10) ** 2 + abs(c.c01) ** 2 + abs(c.c00) ** 2
        assert total < 1.0


class TestHybridForms:
    def test_reference_point(self):
        pf = pf_hybrid("pqs1", 1.0, 0.0, 0.5, 0.5)
        assert pf.probability == pytest.approx(0.192, abs=5e-4)
        assert pf.fidelity == pytest.approx(0.422, abs=5e-4)

    def test_fidelity_limit_at_full_transmission(self):
        pf = pf_hybrid("pqs1", 1.0, 0.0, 0.5, 0.999999)
        assert pf.fidelity >= 1 - 1e-4

    def test_pqs2_high_fidelity_at_small_gamma(self):
        for g in (0.01, 0.05, 0.1):
            assert pf_hybrid("pqs2", 1.0, 0.0, 0.5, g).fidelity >= 0.97

    def test_fidelity_monotone_in_t(self):
        values = [
            pf_hybrid("pqs1", 1.0, 0.0, 0.5, 0.5 + 0.499 * i / 19).fidelity
            for i in range(20)
        ]
        assert all(a <= b + 1e-15 for a, b in zip(values, values[1:]))


class TestBellForms:
    def test_operating_points(self):
        pf1 = pf_bell("pqs1", 0.8, 0.0, 0.5, 0.98)
        assert pf1.probability == pytest.approx(3.6e-5, rel=0.10)
        assert pf1.fidelity > 0.9
        pf2 = pf_bell("pqs2", 0.8, 0.0, 0.5, 0.07)
        assert pf2.probability == pytest.approx(2.0e-6, rel=0.10)
        assert pf2.fidelity > 0.98

    def test_count_rates(self):
        r1 = count_rate(pf_bell("pqs1", 0.8, 0.0, 0.5, 0.98).probability, 6.4e6)
        assert r1 == pytest.approx(230.0, rel=0.10)
        r2 = count_rate(pf_bell("pqs2", 0.8, 0.0, 0.5, 0.07).probability, 80e6)
        assert r2 == pytest.approx(160.0, rel=0.10)

    def test_probability_vanishes_at_full_transmission(self):
        assert pf_bell("pqs1", 1.0, 0.0, 0.5, 0.9999).probability <= 1e-6

    @pytest.mark.parametrize(
        "name, delta, knob",
        [("bell-pqs1", 20.0, 0.9), ("bell-pqs2", 20.0, 0.05), ("hybrid-pqs2", 40.0, 0.05)],
    )
    def test_underflow_inside_the_domain_is_not_degenerate(self, name, delta, knob):
        # positive in exact arithmetic, 0.0 in floats
        with pytest.raises(ProbabilityUnderflowError, match="underflows"):
            analytic_named(name, delta, 0.3, 0.5, knob)

    @pytest.mark.parametrize(
        "name, delta, phi, knob",
        [
            ("bell-pqs1", 0.0, math.pi, 0.9),
            ("hybrid-pqs1", 0.0, math.pi, 0.9),
            ("bell-pqs1", 1.0, 0.3, 1.0),
            ("hybrid-pqs1", 1.0, 0.3, 1.0),
            ("bell-pqs1", 20.0, 0.3, 1.0),
        ],
    )
    def test_zero_probability_on_the_domain_edge_stays_degenerate(self, name, delta, phi, knob):
        with pytest.raises(DegenerateParameterError) as info:
            analytic_named(name, delta, phi, 0.5, knob)
        assert not isinstance(info.value, ProbabilityUnderflowError)

    def test_coefficient_helpers(self):
        delta, phi, t0, t = 0.9, 0.2, 0.4, 0.9
        g1, g0 = g_coefficients(delta, phi, t0, t)
        _, b = alpha_beta(delta, t0)
        assert g1 == pytest.approx(
            math.sqrt((1 - t) * t) * n0(delta, phi, t0) * f_n(b, 1), abs=1e-14
        )
        assert g0 == pytest.approx((1 - t) * n0(delta, phi, t0) * f_n(b, 0), abs=1e-14)
        h1, h0 = h_coefficients(delta, phi, t0, 0.08)
        assert h1 == pytest.approx(
            k_n(0.08, 1) * 0.08 * n0(delta, phi, t0) * f_n(b, 1), abs=1e-14
        )
        assert h0 == pytest.approx(
            k_n(0.08, 0) * 0.0064 * n0(delta, phi, t0) * f_n(b, 0), abs=1e-14
        )


@given(
    delta=st.floats(0.05, 2.5),
    phi=st.floats(0, 2 * math.pi, exclude_max=True),
    t0=st.floats(0.05, 0.95),
    t=st.floats(0.01, 0.99),
    g=st.floats(0.005, 0.15),
)
@settings(max_examples=120, deadline=None)
def test_all_probabilities_and_fidelities_in_unit_interval(delta, phi, t0, t, g):
    results: list[AnalyticPF] = [
        pf_hybrid("pqs1", delta, phi, t0, t),
        pf_hybrid("pqs2", delta, phi, t0, g),
        pf_bell("pqs1", delta, phi, t0, t),
        pf_bell("pqs2", delta, phi, t0, g),
    ]
    for pf in results:
        assert 0.0 <= pf.probability <= 1.0
        assert 0.0 <= pf.fidelity <= 1.0


@given(
    delta=st.floats(0.2, 2.0),
    phi=st.floats(0, 2 * math.pi, exclude_max=True),
    t0=st.floats(0.1, 0.9),
    t=st.floats(0.3, 0.98),
)
@settings(max_examples=60, deadline=None)
def test_branch_phase_enters_only_through_cosine(delta, phi, t0, t):
    # coefficient phases drop out of every P/F form; phi survives only inside
    # the real normalizations, which are even in phi.
    mirrored = 2 * math.pi - phi
    for method, knob in (("pqs1", t), ("pqs2", 0.08)):
        a = pf_hybrid(method, delta, phi, t0, knob)
        b = pf_hybrid(method, delta, mirrored, t0, knob)
        assert a.probability == pytest.approx(b.probability, rel=1e-12)
        assert a.fidelity == pytest.approx(b.fidelity, rel=1e-12)
        a = pf_bell(method, delta, phi, t0, knob)
        b = pf_bell(method, delta, mirrored, t0, knob)
        assert a.probability == pytest.approx(b.probability, rel=1e-12)
        assert a.fidelity == pytest.approx(b.fidelity, rel=1e-12)

"""Acceptance suite: one test per criterion, tolerances pinned in-line.

Run with ``pytest tests/test_acceptance.py -v`` (add ``-s`` to see the
per-criterion summary lines while the suite runs).
"""

import math
import random
import time

import pytest

from polscissors import analytics
from polscissors.config import reference_grid
from polscissors.elements import (
    SqueezerSpec,
    apply_squeezer_exact,
)
from polscissors.fock import (
    add,
    fidelity,
    make_state,
    min_cutoff,
    normalize,
    scale,
    vacuum,
)
from polscissors.scissors import pqs1_apply, pqs2_apply, qs_apply
from polscissors.sources import SourceParams, lambda_circuit, lambda_state, xi_circuit, xi_direct
from polscissors.sweep import run_sweep
from polscissors.verify import run_spot, run_verify

from conftest import pattern_agreement, prepare_hybrid, random_state
from squeezer_oracle import apply_squeezer_series, gamma_from_xi


def report(name: str, ok: bool, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")


def test_c1_analytic_numeric_equivalence():
    """Full circuit simulation matches every closed form to 1e-8 on 100 seeded tuples."""
    start = time.monotonic()
    result = run_verify(seed=1, samples=100, budget=1e-8)
    elapsed = time.monotonic() - start
    worst_dp = max(c.max_dp for c in result.checks)
    worst_df = max(c.max_df for c in result.checks)
    skipped = sum(len(c.skipped) for c in result.checks)
    detail = (
        f"max|dP| = {worst_dp:.2e}, max|dF| = {worst_df:.2e}, "
        f"skipped = {skipped}, runtime = {elapsed:.1f}s"
    )
    report("criterion 1 analytic-numeric equivalence", result.passed, detail)
    assert result.passed
    assert worst_dp <= 1e-8 and worst_df <= 1e-8
    assert skipped == 0
    assert elapsed < 600.0


def test_c2_operating_point_values():
    """Frozen operating points: probabilities and rates within 10%, fidelity floors."""
    ok = True
    details = []
    for name in ("bell-pqs1", "bell-pqs2"):
        lines, good = run_spot(name)
        ok &= good
        details.append(f"{name}: {'ok' if good else 'FAILED'}")
    report("criterion 2 operating-point values", ok, "; ".join(details))
    assert ok


def test_c3_reference_grid_ranges():
    """Desk-scale surface checks on the calibrated reference grids."""
    grid1 = run_sweep(reference_grid("hybrid-pqs1"))
    idx_p = grid1.columns.index("P_analytic")
    idx_f = grid1.columns.index("F_analytic")
    p1 = [row[idx_p] for row in grid1.rows]
    f1 = [row[idx_f] for row in grid1.rows]
    grid2 = run_sweep(reference_grid("hybrid-pqs2"))
    p2 = [row[idx_p] for row in grid2.rows]
    f2 = [row[idx_f] for row in grid2.rows]
    checks = {
        "P1 within [1e-2, 1]": min(p1) >= 1e-2 and max(p1) <= 1.0,
        "F1 spans below 0.3": min(f1) <= 0.3,
        "F1 reaches 0.97": max(f1) >= 0.97,
        "P2 within [1e-4, 1e-2]": min(p2) >= 1e-4 and max(p2) <= 1e-2,
        "F2 at least 0.97 everywhere": min(f2) >= 0.97,
    }
    detail = (
        f"P1 in [{min(p1):.3e}, {max(p1):.3e}], F1 in [{min(f1):.3f}, {max(f1):.3f}], "
        f"P2 in [{min(p2):.3e}, {max(p2):.3e}], minF2 = {min(f2):.4f}"
    )
    report("criterion 3 reference-grid text ranges", all(checks.values()), detail)
    for name, good in checks.items():
        assert good, name


def test_c4_limit_laws():
    """High-transmissivity limit: fidelity to target, vanishing probability, monotonicity."""
    delta, phi, t0 = 1.0, 0.0, 0.5
    pf = analytics.pf_hybrid("pqs1", delta, phi, t0, 0.999)
    num = prepare_hybrid("pqs1", delta, phi, t0, 0.999)
    ts = [0.5 + (0.999 - 0.5) * i / 19 for i in range(20)]
    fids = [analytics.pf_hybrid("pqs1", delta, phi, t0, t).fidelity for t in ts]
    monotone = all(a <= b + 1e-15 for a, b in zip(fids, fids[1:]))
    checks = {
        "F(0.999) >= 0.995": pf.fidelity >= 0.995,
        "P(0.999) <= 1e-2": pf.probability <= 1e-2,
        "numeric agrees": abs(num.fidelity - pf.fidelity) <= 1e-8
        and abs(num.probability - pf.probability) <= 1e-8,
        "F monotone nondecreasing over [0.5, 0.999]": monotone,
    }
    detail = f"F(0.999) = {pf.fidelity:.6f}, P(0.999) = {pf.probability:.3e}"
    report("criterion 4 limit laws", all(checks.values()), detail)
    for name, good in checks.items():
        assert good, name


def test_c5_squeezer_oracle_equivalence():
    """Exact kernel vs order-3 series on every <=2-photon input at |xi| <= 0.05."""
    cutoff = 8
    worst = 1.0
    inputs = [
        make_state(2, cutoff, [(((n, m), (0, 0)), 1.0)])
        for n in range(3)
        for m in range(3 - n)
    ]
    rng = random.Random(5)
    for _ in range(4):
        entries = [
            (((n, m), (0, 0)), complex(rng.gauss(0, 1), rng.gauss(0, 1)))
            for n in range(3)
            for m in range(3 - n)
        ]
        inputs.append(normalize(make_state(2, cutoff, entries)))
    for xi in (0.05, 0.05j, -0.035 + 0.035j, 0.01 - 0.04j):
        spec = SqueezerSpec(gamma_from_xi(xi), 0, 1)
        for state in inputs:
            worst = min(
                worst,
                fidelity(
                    apply_squeezer_exact(state, spec),
                    apply_squeezer_series(state, xi, 0, 1, 3),
                ),
            )

    # first-order coefficient patterns, term by term
    xi = 0.02
    pair = make_state(2, cutoff, [(((1, 0), (0, 0)), 0.6), (((0, 1), (0, 0)), 0.8)])
    first = apply_squeezer_series(pair, xi, 0, 1, 1)
    r2 = math.sqrt(2.0)
    terms_ok = (
        abs(first.amplitude(((2, 0), (0, 1))) - xi * r2 * 0.6) < 1e-12
        and abs(first.amplitude(((0, 2), (1, 0))) - xi * r2 * 0.8) < 1e-12
        and abs(first.amplitude(((1, 1), (1, 0))) - xi * 0.6) < 1e-12
        and abs(first.amplitude(((1, 1), (0, 1))) - xi * 0.8) < 1e-12
    )
    vac = apply_squeezer_series(vacuum(2, cutoff), xi, 0, 1, 1)
    terms_ok &= (
        abs(vac.amplitude(((1, 0), (0, 1))) - xi) < 1e-12
        and abs(vac.amplitude(((0, 1), (1, 0))) - xi) < 1e-12
    )
    nm = make_state(2, cutoff, [(((2, 1), (0, 0)), 1.0)])
    out = apply_squeezer_series(nm, xi, 0, 1, 1)
    terms_ok &= (
        abs(out.amplitude(((3, 1), (0, 1))) - xi * math.sqrt(3)) < 1e-12
        and abs(out.amplitude(((2, 2), (1, 0))) - xi * math.sqrt(2)) < 1e-12
    )
    detail = f"worst fidelity = {1 - (1 - worst):.12f} (deficit {1 - worst:.2e})"
    report("criterion 5 squeezer oracle equivalence", worst >= 1 - 1e-6 and terms_ok, detail)
    assert worst >= 1 - 1e-6
    assert terms_ok


def test_c6_truncation_support():
    """Scissors outputs live in the vacuum/single-photon polarization sector."""
    rng = random.Random(6)
    allowed = {(0, 0), (1, 0), (0, 1), (1, 1)}
    worst = 0.0
    for index in range(50):
        state = normalize(
            add(scale(random_state(rng, 1, 5, max_photons=4), 0.9), vacuum(1, 5))
        )
        for result in (
            pqs1_apply(state, 0, rng.uniform(0.3, 0.95)),
            pqs2_apply(state, 0, rng.uniform(0.02, 0.12)),
        ):
            for key, amp in result.canonical_state.amplitudes.items():
                if key[0] not in allowed:
                    worst = max(worst, abs(amp))
    report("criterion 6 truncation support", worst <= 1e-9, f"worst stray amplitude = {worst:.2e}")
    assert worst <= 1e-9


def test_c7_pattern_agreement():
    """All accepted patterns give the same corrected state."""
    rng = random.Random(7)
    worst = 1.0
    for index in range(50):
        state = normalize(
            add(scale(random_state(rng, 1, 4, max_photons=3), 0.9), vacuum(1, 4))
        )
        t = rng.uniform(0.3, 0.95)
        qs = qs_apply(state, 0, "H" if index % 2 else "V", t)
        pqs = pqs1_apply(state, 0, t)
        assert len(pqs.outcomes) == 4
        worst = min(worst, pattern_agreement(qs), pattern_agreement(pqs))
    report("criterion 7 pattern agreement", worst >= 1 - 1e-9, f"min agreement = {worst:.12f}")
    assert worst >= 1 - 1e-9


def test_c8_source_identities():
    """Circuit-built sources equal direct constructions; photon-pair coefficient exact."""
    worst_xi = worst_lam = 1.0
    worst_coeff = 0.0
    for delta in (0.2, 0.65, 1.1, 1.55, 2.0):
        cutoff = max(2, min_cutoff(delta * math.sqrt(2.0)))
        for t0 in (0.1, 0.3, 0.5, 0.7, 0.9):
            for phi in (0.0, math.pi / 2, math.pi):
                params = SourceParams(delta, phi, t0, (), cutoff)
                circuit = xi_circuit(params)
                worst_xi = min(worst_xi, fidelity(circuit, xi_direct(params)))
                lam_params = SourceParams(delta, phi, t0, (0.5,), cutoff)
                worst_lam = min(
                    worst_lam,
                    fidelity(lambda_circuit(lam_params, 3), lambda_state(lam_params, 3)),
                )
                a, b = analytics.alpha_beta(delta, t0)
                expected = (
                    analytics.n0(delta, phi, t0)
                    * analytics.f_n(a, 1)
                    * analytics.f_n(b, 1)
                )
                got = circuit.amplitude(((1, 0), (1, 0)))
                worst_coeff = max(worst_coeff, abs(got - expected))
    ok = worst_xi >= 1 - 1e-9 and worst_lam >= 1 - 1e-9 and worst_coeff <= 1e-10
    detail = (
        f"min xi fidelity = {worst_xi:.12f}, min lambda fidelity = {worst_lam:.12f}, "
        f"max coefficient error = {worst_coeff:.2e}"
    )
    report("criterion 8 source identities", ok, detail)
    assert worst_xi >= 1 - 1e-9
    assert worst_lam >= 1 - 1e-9
    assert worst_coeff <= 1e-10

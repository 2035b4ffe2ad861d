"""Closed-form heralding probabilities and fidelities.

Everything here is evaluated from coefficient magnitudes and elementary
functions, fully independent of the circuit simulator, so the two routes can
cross-validate each other.  The specialized forms for the two-branch coherent
input are thin wrappers over the generic coefficient formulas.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class DegenerateParameterError(ValueError):
    """A normalization or heralding probability vanished (e.g. zero amplitude, phase pi)."""


class ProbabilityUnderflowError(DegenerateParameterError):
    """A heralding probability that is positive in exact arithmetic rounded to 0.0."""


def _zero_probability(delta: float, knob: float) -> DegenerateParameterError:
    """The error for a named closed form whose heralding probability reads 0.0.

    Inside the open domain (delta > 0 and a transmissivity or |gamma| in
    (0, 1)) the probability is positive, so a zero there is float underflow.
    """
    if delta > 0.0 and 0.0 < knob < 1.0:
        return ProbabilityUnderflowError(
            f"heralding probability underflows to 0.0 at delta = {delta}"
        )
    return DegenerateParameterError("zero heralding probability")


@dataclass(frozen=True)
class AnalyticPF:
    probability: float
    fidelity: float


def f_n(gamma: float, n: int) -> float:
    """Coherent-state Fock amplitude exp(-gamma^2/2) gamma^n / sqrt(n!)."""
    if n < 0:
        raise ValueError("photon number must be nonnegative")
    try:
        return math.exp(-gamma * gamma / 2.0) * gamma**n / math.sqrt(math.factorial(n))
    except OverflowError:
        # n! (n >= 171) or gamma**n left the float range: go through log space
        if gamma == 0.0:
            return 0.0
        sign = -1.0 if gamma < 0.0 and n % 2 else 1.0
        log_mag = -gamma * gamma / 2.0 + n * math.log(abs(gamma)) - math.lgamma(n + 1) / 2.0
        return sign * math.exp(log_mag)


def alpha_beta(delta: float, t0: float) -> tuple[float, float]:
    """Amplitudes of the two output arms after splitting a merged cat of size delta."""
    if not 0.0 <= t0 <= 1.0:
        raise ValueError(f"t0 = {t0} outside [0, 1]")
    return delta * math.sqrt(2.0 * t0), delta * math.sqrt(2.0 * (1.0 - t0))


def _branch_norm(overlap_exponent: float, phi: float) -> float:
    denom = 2.0 * (1.0 + math.cos(phi) * math.exp(-overlap_exponent))
    if denom <= 1e-300:
        raise DegenerateParameterError(
            "two-branch superposition has vanishing norm (amplitude 0, phase pi)"
        )
    return 1.0 / math.sqrt(denom)


def n0(delta: float, phi: float, t0: float) -> float:
    """Normalization of the two-mode two-branch coherent superposition."""
    a, b = alpha_beta(delta, t0)
    return _branch_norm(a * a + b * b, phi)


def l_alpha(alpha: float, phi: float) -> float:
    """Normalization of a single-mode two-branch coherent superposition."""
    return _branch_norm(alpha * alpha, phi)


def m_n(amplitudes: tuple[float, ...], phi: float) -> float:
    """Normalization of the n-arm two-branch coherent superposition."""
    return _branch_norm(sum(a * a for a in amplitudes), phi)


def cat_norm(delta: float, phi: float) -> float:
    """Normalization of a single-mode cat of amplitude delta."""
    return _branch_norm(2.0 * delta * delta, phi)


def k_n(gamma_abs: float, n: int) -> float:
    """Squeezer prefactor (1 - |gamma|^2)^((n+2)/2)."""
    if not 0.0 <= gamma_abs < 1.0:
        raise ValueError(f"|gamma| = {gamma_abs} must lie in [0, 1)")
    return (1.0 - gamma_abs * gamma_abs) ** ((n + 2) / 2.0)


@dataclass(frozen=True)
class XiCoefficients:
    """Photon-sector coefficients of the truncated mode of the entangled input.

    c10/c01 multiply the single-photon H/V branches, c00 the vacuum branch
    (whose environment state carries normalization ``l_alpha``); the joint
    two-photon coefficient vanishes identically for this input.
    """

    c10: complex
    c01: complex
    c00: complex


def xi_coefficients(delta: float, phi: float, t0: float) -> XiCoefficients:
    """Coefficients for truncating the beta-carrying arm of the entangled input."""
    a, b = alpha_beta(delta, t0)
    norm = n0(delta, phi, t0)
    phase = complex(math.cos(phi), math.sin(phi))
    return XiCoefficients(
        c10=norm * f_n(b, 1),
        c01=phase * norm * f_n(-b, 1),
        c00=norm * f_n(b, 0) / l_alpha(a, phi),
    )


def pf_qs(c0_sq: float, c1_sq: float, t: float) -> AnalyticPF:
    """Single-polarization scissors: keep vacuum/one-photon, fidelity to |1>."""
    if c0_sq < 0 or c1_sq < 0:
        raise ValueError("squared magnitudes must be nonnegative")
    p = (1.0 - t) * c0_sq + t * c1_sq
    if p <= 0.0:
        raise DegenerateParameterError("zero heralding probability")
    return AnalyticPF(p, t * c1_sq / p)


def pf_pqs1(
    c10_sq: float, c01_sq: float, c00_sq: float, c11_sq: float, t: float
) -> AnalyticPF:
    """Linear-optics polarized scissors on a mode with the given sector weights."""
    single = (1.0 - t) * t * (c10_sq + c01_sq)
    p = single + (1.0 - t) ** 2 * c00_sq + t * t * c11_sq
    if p <= 0.0:
        raise DegenerateParameterError("zero heralding probability")
    return AnalyticPF(p, single / p)


def pf_pqs2(
    c10_sq: float, c01_sq: float, c00_sq: float, c11_sq: float, gamma_abs: float
) -> AnalyticPF:
    """Squeezer-based polarized scissors on a mode with the given sector weights."""
    g2 = gamma_abs * gamma_abs
    single = (c10_sq + c01_sq) * k_n(gamma_abs, 1) ** 2 * g2
    p = single + c11_sq * k_n(gamma_abs, 2) ** 2 + c00_sq * k_n(gamma_abs, 0) ** 2 * g2 * g2
    if p <= 0.0:
        raise DegenerateParameterError("zero heralding probability")
    return AnalyticPF(p, single / p)


def _check_method(method: str) -> str:
    if method not in ("pqs1", "pqs2"):
        raise ValueError(f"unknown scissors method {method!r}")
    return method


def pf_hybrid(method: str, delta: float, phi: float, t0: float, knob: float) -> AnalyticPF:
    """Single-arm truncation of the entangled input: photon-qubit vs coherent arm.

    ``knob`` is the transmissivity for pqs1 or |gamma| for pqs2.  Wraps the
    generic coefficient formulas with the input's sector weights.
    """
    method = _check_method(method)
    c = xi_coefficients(delta, phi, t0)
    c10_sq, c01_sq, c00_sq = abs(c.c10) ** 2, abs(c.c01) ** 2, abs(c.c00) ** 2
    closed_form = pf_pqs1 if method == "pqs1" else pf_pqs2
    try:
        return closed_form(c10_sq, c01_sq, c00_sq, 0.0, knob)
    except DegenerateParameterError:
        raise _zero_probability(delta, knob) from None


def g_coefficients(delta: float, phi: float, t0: float, t: float) -> tuple[float, float]:
    """Single-photon / vacuum weights left on the first arm after a pqs1 stage."""
    _, b = alpha_beta(delta, t0)
    norm = n0(delta, phi, t0)
    g1 = math.sqrt((1.0 - t) * t) * norm * f_n(b, 1)
    g0 = (1.0 - t) * norm * f_n(b, 0)
    return g1, g0


def h_coefficients(
    delta: float, phi: float, t0: float, gamma_abs: float
) -> tuple[float, float]:
    """Magnitudes of the pqs2 analog of the g coefficients."""
    _, b = alpha_beta(delta, t0)
    norm = n0(delta, phi, t0)
    h1 = k_n(gamma_abs, 1) * gamma_abs * norm * f_n(b, 1)
    h0 = k_n(gamma_abs, 0) * gamma_abs * gamma_abs * norm * f_n(b, 0)
    return h1, h0


def pf_bell(method: str, delta: float, phi: float, t0: float, knob: float) -> AnalyticPF:
    """Double truncation down to the polarization Bell pair.

    Probability is the squared norm of the two-stage unnormalized output; the
    vacuum branch of the second stage carries the coherent interference weight
    ``|1 + e^(i phi)|^2`` on its vacuum component.
    """
    method = _check_method(method)
    a, _ = alpha_beta(delta, t0)
    f1a_sq, f0a_sq = f_n(a, 1) ** 2, f_n(a, 0) ** 2
    vac_weight = 2.0 + 2.0 * math.cos(phi)
    if method == "pqs1":
        t = knob
        w1, w0 = g_coefficients(delta, phi, t0, t)
        keep = 2.0 * (1.0 - t) * t * f1a_sq
        spill = (1.0 - t) ** 2 * f0a_sq
    else:
        g2 = knob * knob
        w1, w0 = h_coefficients(delta, phi, t0, knob)
        keep = 2.0 * k_n(knob, 1) ** 2 * g2 * f1a_sq
        spill = k_n(knob, 0) ** 2 * g2 * g2 * f0a_sq
    p = keep * (w1 * w1 + w0 * w0) + spill * (2.0 * w1 * w1 + vac_weight * w0 * w0)
    if p <= 0.0:
        raise _zero_probability(delta, knob)
    return AnalyticPF(p, keep * w1 * w1 / p)


def count_rate(probability: float, repetition_rate: float) -> float:
    """Heralded events per second at the given source repetition rate."""
    return probability * repetition_rate

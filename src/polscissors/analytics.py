"""Closed-form heralding probabilities and fidelities.

Everything here is evaluated from coefficient magnitudes and elementary
functions, fully independent of the circuit simulator, so the two routes can
cross-validate each other.  The specialized forms for the two-branch coherent
input are thin wrappers over the generic coefficient formulas.

``pf_hybrid`` and ``pf_bell`` are each a source half (``*_source``: all that reads only
method, delta, phi and t0), then knob factors (``knob_factors``: all that reads only
method and t or |gamma|, as ``pf_pqs1`` and ``pf_pqs2`` do), then a combination (``*_pf``:
the arithmetic mixing the two).  A sweep shares one source half per source point and one
set of knob factors per knob value, bit for bit.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass


class DegenerateParameterError(ValueError):
    """A normalization or heralding probability vanished (e.g. zero amplitude, phase pi)."""


class ProbabilityUnderflowError(DegenerateParameterError):
    """A heralding probability that is positive in exact arithmetic rounded to 0.0."""


def _zero_probability(delta: float, *knobs: float) -> DegenerateParameterError:
    """The error for a heralding probability that reads 0.0, on either route.

    The one rule: inside the open domain (delta > 0 and every knob, a
    transmissivity or |gamma|, in (0, 1)) the probability is positive, so a
    zero there is float underflow; anywhere else it is degenerate.
    """
    if delta > 0.0 and all(0.0 < knob < 1.0 for knob in knobs):
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
    exponent = 0.0
    for a in amplitudes:
        exponent += a * a
    return _branch_norm(exponent, phi)


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


def knob_factors(method: str, knob: float) -> tuple:
    """(knob, hybrid factors, Bell arm factors): all the closed forms read of the knob alone.

    pqs1 at t: ((1 - t)t, (1 - t)^2, t t) and (sqrt((1 - t)t), 1 - t, 2(1 - t)t, (1 - t)^2); pqs2
    at g = |gamma|: (k_1^2, g^2, k_2^2, k_0^2) and (k_1 g, k_0 g g, 2 k_1^2 g^2, k_0^2 g^2 g^2).
    """
    if method == "pqs1":
        if knob < 0.0 or knob > 1.0:  # a NaN t passes, to a NaN P and F
            raise ValueError(f"t = {knob} outside [0, 1]")
        u = 1.0 - knob
        return knob, (u * knob, u**2, knob * knob), (math.sqrt(u * knob), u, 2.0 * u * knob, u**2)
    g2, k1, k0 = knob * knob, k_n(knob, 1), k_n(knob, 0)
    hybrid = (k1**2, g2, k_n(knob, 2) ** 2, k0**2)
    return knob, hybrid, (k1 * knob, k0 * knob * knob, 2.0 * k1**2 * g2, k0**2 * g2 * g2)


def _sector_pf(method: str, c10_sq: float, c01_sq: float, c00_sq: float, c11_sq: float, factors: tuple) -> tuple:
    """Combination of ``pf_pqs1`` or ``pf_pqs2``: (P, F) from the sector weights and hybrid knob factors."""
    if method == "pqs1":
        pair, spill, both = factors
        single = pair * (c10_sq + c01_sq)
        p = single + spill * c00_sq + both * c11_sq
    else:
        k1_sq, g2, k2_sq, k0_sq = factors
        single = (c10_sq + c01_sq) * k1_sq * g2
        p = single + c11_sq * k2_sq + c00_sq * k0_sq * g2 * g2
    if p <= 0.0:
        raise DegenerateParameterError("zero heralding probability")
    return p, single / p


def pf_pqs1(c10_sq: float, c01_sq: float, c00_sq: float, c11_sq: float, t: float) -> AnalyticPF:
    """Linear-optics polarized scissors on a mode with the given sector weights."""
    return AnalyticPF(*_sector_pf("pqs1", c10_sq, c01_sq, c00_sq, c11_sq, knob_factors("pqs1", t)[1]))


def pf_pqs2(c10_sq: float, c01_sq: float, c00_sq: float, c11_sq: float, gamma_abs: float) -> AnalyticPF:
    """Squeezer-based polarized scissors on a mode with the given sector weights."""
    return AnalyticPF(*_sector_pf("pqs2", c10_sq, c01_sq, c00_sq, c11_sq, knob_factors("pqs2", gamma_abs)[1]))


def _check_method(method: str) -> str:
    if method not in ("pqs1", "pqs2"):
        raise ValueError(f"unknown scissors method {method!r}")
    return method


# What a named closed form reads of its source at one (delta, phi, t0).
SourceHalf = namedtuple("SourceHalf", "method delta weights")


def hybrid_source(method: str, delta: float, phi: float, t0: float) -> SourceHalf:
    """Source half of ``pf_hybrid``: the truncated arm's |c10|^2, |c01|^2 and |c00|^2."""
    method = _check_method(method)
    c = xi_coefficients(delta, phi, t0)
    return SourceHalf(method, delta, (abs(c.c10) ** 2, abs(c.c01) ** 2, abs(c.c00) ** 2))


def hybrid_pf(source: SourceHalf, factors: tuple) -> tuple[float, float]:
    """Combination of ``pf_hybrid``: (P, F) of the generic formula on the source's sector weights."""
    try:
        return _sector_pf(source.method, *source.weights, 0.0, factors[1])
    except DegenerateParameterError:
        raise _zero_probability(source.delta, factors[0]) from None


def pf_hybrid(method: str, delta: float, phi: float, t0: float, knob: float) -> AnalyticPF:
    """Single-arm truncation of the entangled input: photon-qubit vs coherent arm.

    ``knob`` is the transmissivity for pqs1 or |gamma| for pqs2.
    """
    return AnalyticPF(*hybrid_pf(hybrid_source(method, delta, phi, t0), knob_factors(method, knob)))


def bell_source(method: str, delta: float, phi: float, t0: float) -> SourceHalf:
    """Source half of ``pf_bell``: n0, f_1(b), f_0(b), f_1(a)^2, f_0(a)^2 and |1 + e^(i phi)|^2."""
    method = _check_method(method)
    a, b = alpha_beta(delta, t0)
    alpha_weights = (f_n(a, 1) ** 2, f_n(a, 0) ** 2, 2.0 + 2.0 * math.cos(phi))
    return SourceHalf(method, delta, (n0(delta, phi, t0), f_n(b, 1), f_n(b, 0)) + alpha_weights)


def bell_pf(source: SourceHalf, factors: tuple) -> tuple[float, float]:
    """Combination of ``pf_bell``: the weights w1, w0 left on the first arm, then (P, F)."""
    norm, f1b, f0b, f1a_sq, f0a_sq, vac_weight = source.weights
    a1, a0, keep, spill = factors[2]
    w1, w0 = a1 * norm * f1b, a0 * norm * f0b
    keep, spill = keep * f1a_sq, spill * f0a_sq
    p = keep * (w1 * w1 + w0 * w0) + spill * (2.0 * w1 * w1 + vac_weight * w0 * w0)
    if p <= 0.0:
        raise _zero_probability(source.delta, factors[0])
    return p, keep * w1 * w1 / p


def pf_bell(method: str, delta: float, phi: float, t0: float, knob: float) -> AnalyticPF:
    """Double truncation down to the polarization Bell pair.

    Probability is the squared norm of the two-stage unnormalized output; the
    vacuum branch of the second stage carries the coherent interference weight
    ``|1 + e^(i phi)|^2`` on its vacuum component.
    """
    return AnalyticPF(*bell_pf(bell_source(method, delta, phi, t0), knob_factors(method, knob)))


def count_rate(probability: float, repetition_rate: float) -> float:
    """Heralded events per second at the given source repetition rate."""
    return probability * repetition_rate

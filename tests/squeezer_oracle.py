"""Low-order series oracle for the exact squeezer kernel.

Builds the type-II two-mode squeezer unitary exp(xi K+ - conj(xi) K) with
K = a_sH a_iV + a_sV a_iH as a truncated Taylor series of ladder-operator
applications.  Only the tests use it: they compare
``polscissors.elements.apply_squeezer_exact`` against it at small |xi|, with
the kernel's gamma taken from the coupling by ``gamma_from_xi``.
"""

from __future__ import annotations

import math

from polscissors.elements import _check_mode
from polscissors.fock import H, CutoffError, FockError, OccKey, PureState, V, _raw_state, add, scale


class CutoffOverflowError(CutoffError):
    """A ladder-operator application would exceed the cutoff (never dropped silently)."""


def _ladder(
    state: PureState, mode: int, pol: str, raise_op: bool
) -> PureState:
    """Apply a single creation or annihilation operator to (mode, pol)."""
    idx = 0 if pol == H else 1
    cutoff = state.cutoff
    amps: dict[OccKey, complex] = {}
    for key, amp in state.amplitudes.items():
        n = key[mode][idx]
        if raise_op:
            if n + 1 > cutoff:
                raise CutoffOverflowError(
                    f"creation on mode {mode} pol {pol} exceeds cutoff {cutoff}"
                )
            factor = math.sqrt(n + 1)
            n_new = n + 1
        else:
            if n == 0:
                continue
            factor = math.sqrt(n)
            n_new = n - 1
        new = list(key)
        occ = list(key[mode])
        occ[idx] = n_new
        new[mode] = tuple(occ)
        nk = tuple(new)
        amps[nk] = amps.get(nk, 0.0 + 0.0j) + amp * factor
    return _raw_state(state.mode_count, cutoff, amps)


def _pair_generator(state: PureState, xi: complex, mode_s: int, mode_i: int) -> PureState:
    """One application of xi K+ - conj(xi) K with K = a_sH a_iV + a_sV a_iH."""
    up1 = _ladder(_ladder(state, mode_s, H, True), mode_i, V, True)
    up2 = _ladder(_ladder(state, mode_s, V, True), mode_i, H, True)
    dn1 = _ladder(_ladder(state, mode_s, H, False), mode_i, V, False)
    dn2 = _ladder(_ladder(state, mode_s, V, False), mode_i, H, False)
    raised = scale(add(up1, up2), xi)
    lowered = scale(add(dn1, dn2), -xi.conjugate())
    return add(raised, lowered)


def apply_squeezer_series(
    state: PureState, xi: complex, mode_s: int, mode_i: int, order: int
) -> PureState:
    """Taylor expansion of the squeezer unitary, for oracle use at small |xi|.

    Creation overflow past the cutoff raises instead of silently dropping, so
    callers must leave enough headroom (input photons + order per mode).
    """
    if order < 1 or order > 4:
        raise FockError("series order must be between 1 and 4")
    _check_mode(state, mode_s)
    _check_mode(state, mode_i)
    if mode_s == mode_i:
        raise FockError("squeezer needs distinct signal and idle modes")
    xi = complex(xi)
    out = state
    term = state
    for p in range(1, order + 1):
        term = scale(_pair_generator(term, xi, mode_s, mode_i), 1.0 / p)
        out = add(out, term)
    return out


def gamma_from_xi(xi: complex) -> complex:
    """Characteristic squeezing parameter of the exact kernel for coupling xi.

    The pair amplitude produced by exp(xi K+ - conj(xi) K) is
    ``exp(i arg xi) tanh |xi|`` per pair family, and the kernel encodes it as
    ``-i gamma``; hence gamma = i exp(i arg xi) tanh(|xi|).
    """
    xi = complex(xi)
    r = abs(xi)
    if r == 0.0:
        return 0.0 + 0.0j
    return 1j * (xi / r) * math.tanh(r)

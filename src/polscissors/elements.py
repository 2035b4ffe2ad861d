"""Fock-basis optical elements: beam splitters, polarization optics, squeezer.

Conventions, fixed once and used everywhere:

* Beam splitter of transmissivity t maps creation operators as
  ``a+ -> sqrt(t) a+ + sqrt(1-t) b+`` and ``b+ -> sqrt(1-t) a+ - sqrt(t) b+``,
  identically for both polarizations.  On a pair of same-polarization coherent
  states this reproduces
  ``|mu>|nu> -> |mu sqrt(t) + nu sqrt(1-t)> |mu sqrt(1-t) - nu sqrt(t)>``.
* Polarizing beam splitter: H transmits (stays put), V reflects (the vertical
  occupations of the two ports swap).
* Half-wave plate at 45 degrees: exchanges the H and V occupations of a mode.
* Type-II two-mode squeezer: pair creation across (signal H, idle V) and
  (signal V, idle H); exact kernel below.  The tests check it against a
  low-order series oracle built directly from ladder operators.

The beam splitter and the squeezer take an optional ``herald``: the output
occupations the photon-number projection that follows accepts on their
modes.  Given one, each runs its one loop and stores only those output keys,
bit for bit and in the order the full expansion holds them, so the
projection's result is unchanged.  Each loop also skips what cannot reach
the herald: the beam splitter the input pairs whose (H, V) photon totals no
accepted pair has, the squeezer the keys and rows past its occupation.
"""

from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Collection

from .fock import (
    DEFAULT_TOL,
    H,
    CutoffError,
    FockError,
    OccKey,
    Occupation,
    PureState,
    V,
    _raw_state,
)

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Transmissivity and the two spatial modes a general beam splitter couples."""

    t: float
    mode_a: int
    mode_b: int

    def __post_init__(self) -> None:
        if not 0.0 <= self.t <= 1.0:
            raise FockError(f"transmissivity {self.t} outside [0, 1]")
        if self.mode_a == self.mode_b:
            raise FockError("beam splitter needs two distinct modes")


@dataclass(frozen=True)
class SqueezerSpec:
    """Characteristic squeezing parameter and the signal/idle mode pair."""

    gamma: complex
    mode_s: int
    mode_i: int

    def __post_init__(self) -> None:
        if not abs(self.gamma) < 1.0:
            raise FockError(f"|gamma| = {abs(self.gamma)} must be < 1")
        if self.mode_s == self.mode_i:
            raise FockError("squeezer needs distinct signal and idle modes")


def _check_mode(state: PureState, mode: int) -> None:
    if mode < 0 or mode >= state.mode_count:
        raise FockError(f"mode {mode} out of range for {state.mode_count}-mode state")


def _bs_pair_terms(p: int, q: int, t: float) -> list[tuple[int, int, float]]:
    """Single-polarization expansion of |p, q> under the fixed convention.

    Returns (out_a, out_b, coefficient) triples; photon number p + q conserved.
    A pair past the float range (about 170 photons) raises ``CutoffError``.
    """
    st = math.sqrt(t)
    sr = math.sqrt(1.0 - t)
    # the powers and the j row, each computed once, with the double loop's
    # expressions: ci = C(p, i) st^i sr^(p-i), cj = C(q, j) sr^j (-st)^(q-j)
    top = max(p, q) + 1
    st_pow = [st**i for i in range(top)]
    sr_pow = [sr**i for i in range(top)]
    mst_pow = [(-st) ** i for i in range(top)]
    try:
        cj_row = [math.comb(q, j) * sr_pow[j] * mst_pow[q - j] for j in range(q + 1)]
        terms = [0.0] * (p + q + 1)
        for i in range(p + 1):
            ci = math.comb(p, i) * st_pow[i] * sr_pow[p - i]
            for j, cj in enumerate(cj_row, i):
                terms[j] += ci * cj
        base = math.sqrt(math.factorial(p) * math.factorial(q))
        out = []
        for na, c in enumerate(terms):
            nb = p + q - na
            w = c * math.sqrt(math.factorial(na) * math.factorial(nb)) / base
            if w != 0.0:
                out.append((na, nb, w))
        return out
    except OverflowError:
        raise CutoffError(f"beam splitter terms of photon pair ({p}, {q}) overflow a float") from None


# Bound on the (p, q, t, cutoff) entries of the pair-term cache.  ``verify
# --seed 1 --samples 100`` fills 203 (each sample draws its own t), seeds 1-5
# in one process fill 1,003 and the four ``--backend both`` reference sweeps
# 51.  ``apply_bs`` passes ``min(cutoff, p + q)``, so a pair that its cutoff
# does not cut shares one entry across cutoffs: the source circuits' t = 0.5
# splitter, run at many cutoffs, misses only on pairs it has not met.  At a new t0 or split ratio
# every pair misses, and ``_bs_pair_terms`` builds its powers once per call.
# The bound keeps a longer run from growing without limit.
PAIR_TERM_CACHE_SIZE = 4096


@lru_cache(maxsize=PAIR_TERM_CACHE_SIZE)
def _kept_pair_terms(p: int, q: int, t: float, cutoff: int) -> tuple[tuple[int, int, float], ...]:
    """The terms of ``_bs_pair_terms`` whose two output occupations fit the cutoff."""
    return tuple(
        (na, nb, w) for na, nb, w in _bs_pair_terms(p, q, t) if na <= cutoff and nb <= cutoff
    )


def apply_bs(
    state: PureState,
    spec: BeamSplitterSpec,
    herald: Collection[tuple[Occupation, Occupation]] | None = None,
) -> PureState:
    """General beam splitter on two spatial modes, polarizations independent.

    Exact on every key whose per-polarization photon total fits the cutoff;
    components pushed past the cutoff are dropped (truncation leakage).

    The output is a pure function of the input: every amplitude is
    ``amp * w_H`` then times ``w_V``, summed into its output key in input-key
    order, so the float operations and the key insertion order do not depend
    on earlier calls.  Each distinct (key[a], key[b]) pair looks up its cached
    H terms and V terms once per call, and each output occupation (h, v) is
    read from a per-call row.  Each term is summed with one dict probe: a new
    key stores ``0j + term``, an existing one ``prev + term``, as
    ``get(key, 0j) + term`` would.

    ``herald``, when given, lists the ``(occ_a, occ_b)`` output pairs the
    following projection accepts on the two modes; no other output key is
    formed.  The kept keys are bitwise those of the full output, in its order.
    An input pair whose (H, V) photon totals no accepted pair has is skipped.
    """
    _check_mode(state, spec.mode_a)
    _check_mode(state, spec.mode_b)
    a, b, t = spec.mode_a, spec.mode_b, spec.t
    cutoff = state.cutoff
    if herald is not None:
        # the accepted patterns' (H, V) photon totals, which each pair term
        # keeps: an input pair with other totals reaches none
        totals = {(occ_a[0] + occ_b[0], occ_a[1] + occ_b[1]) for occ_a, occ_b in herald}
    # (key[a], key[b]) -> (kept H terms, kept V terms), or () when the totals
    # skip it; occ[h][v] = (h, v), the output occupations, row h built when read
    terms_of: dict[tuple[Occupation, Occupation], tuple] = {}
    occ: list = [None] * (cutoff + 1)

    amps: dict[OccKey, complex] = {}
    setdefault = amps.setdefault
    for key, amp in state.amplitudes.items():
        pair = (key[a], key[b])
        terms = terms_of.get(pair)
        if terms is None:
            (pah, pav), (pbh, pbv) = pair
            skip = herald is not None and (pah + pbh, pav + pbv) not in totals
            terms = terms_of[pair] = () if skip else (
                _kept_pair_terms(pah, pbh, t, min(cutoff, pah + pbh)),
                _kept_pair_terms(pav, pbv, t, min(cutoff, pav + pbv)),
            )
        if not terms:
            continue
        h_terms, v_terms = terms
        new = list(key)
        for nah, nbh, wh in h_terms:
            amp_h = amp * wh
            row_a, row_b = occ[nah], occ[nbh]
            if row_a is None:
                row_a = occ[nah] = [(nah, v) for v in range(cutoff + 1)]
            if row_b is None:
                row_b = occ[nbh] = [(nbh, v) for v in range(cutoff + 1)]
            for nav, nbv, wv in v_terms:
                new[a] = row_a[nav]
                new[b] = row_b[nbv]
                if herald is not None and (new[a], new[b]) not in herald:
                    continue
                nk = tuple(new)
                term = amp_h * wv
                first = 0j + term
                prev = setdefault(nk, first)
                if prev is not first:
                    amps[nk] = prev + term
    return _raw_state(state.mode_count, cutoff, amps)


def apply_pbs(state: PureState, mode_a: int, mode_b: int) -> PureState:
    """Polarizing beam splitter: H stays, V swaps between the two modes."""
    _check_mode(state, mode_a)
    _check_mode(state, mode_b)
    if mode_a == mode_b:
        raise FockError("polarizing beam splitter needs two distinct modes")
    amps: dict[OccKey, complex] = {}
    for key, amp in state.amplitudes.items():
        new = list(key)
        new[mode_a] = (key[mode_a][0], key[mode_b][1])
        new[mode_b] = (key[mode_b][0], key[mode_a][1])
        amps[tuple(new)] = amp
    return PureState(state.mode_count, state.cutoff, amps)


def apply_hwp(state: PureState, mode: int) -> PureState:
    """Half-wave plate at 45 degrees: swap H and V occupations of one mode."""
    _check_mode(state, mode)
    amps: dict[OccKey, complex] = {}
    for key, amp in state.amplitudes.items():
        new = list(key)
        nh, nv = key[mode]
        new[mode] = (nv, nh)
        amps[tuple(new)] = amp
    return PureState(state.mode_count, state.cutoff, amps)


def apply_pol_phase(state: PureState, mode: int, pol: str, phase: float) -> PureState:
    """Polarization-conditional phase plate: amplitude factor exp(i phase n_pol).

    This is the feed-forward correction primitive used by the heralded
    scissors circuits (phase = pi flips the sign of odd occupations).
    """
    _check_mode(state, mode)
    idx = 0 if pol == H else 1
    amps: dict[OccKey, complex] = {}
    for key, amp in state.amplitudes.items():
        n = key[mode][idx]
        amps[key] = amp if n == 0 else amp * cmath.exp(1j * phase * n)
    return PureState(state.mode_count, state.cutoff, amps)


def apply_squeezer_exact(
    state: PureState, spec: SqueezerSpec, herald: Occupation | None = None
) -> PureState:
    """Exact type-II two-mode squeezer with the idle mode starting in vacuum.

    Per signal key |n_H, m_V>, the output is a double sum over created pairs:
    amplitude ``K_{n+m} (-i gamma)^(k+l) sqrt(C(n+k, n) C(m+l, m))`` on the key
    with signal (n+k, m+l) and idle (l, k), where
    ``K_n = (1 - |gamma|^2)^((n+2)/2)``.  Sums run until an occupation hits the
    cutoff; the discarded weight (norm deficit) is logged at debug level.

    ``herald``, when given, is the one signal occupation ``(sh, sv)`` the
    following projection accepts.  The same loop runs and stores only the
    terms on that occupation, so the kept keys are bitwise those of the full
    output, in its order.  No created pair lowers an occupation, so the loop
    skips a key with n > sh or m > sv, and its k loop ends after the herald's
    row n + k = sh.  No deficit is logged on this path.  A NaN input
    amplitude, which no tolerance keeps, raises ``FockError`` naming its key.
    """
    _check_mode(state, spec.mode_s)
    _check_mode(state, spec.mode_i)
    g = complex(spec.gamma)
    cutoff = state.cutoff
    ms, mi = spec.mode_s, spec.mode_i
    abs_g = abs(g)
    g2 = abs_g * abs_g
    one_minus = 1.0 - g2
    mig = -1j * g
    tol = DEFAULT_TOL

    # Each (input key, k, l) hits a distinct output key (the idle occupation
    # pins k and l, which pin the input), so plain stores suffice.  Term
    # magnitudes are monotone in k and l once the growth ratio
    # |gamma| sqrt((n+k+1)/(k+1)) falls below one, so the loops stop at the
    # compaction tolerance instead of grinding to the cutoff.  A herald only
    # filters the stores, so the stopping rules are those of the full output.
    sh, sv = (cutoff, cutoff) if herald is None else (min(herald[0], cutoff), min(herald[1], cutoff))

    # precompute, once per application, the powers of (-i gamma) and the rows
    # binom_rows[n][k] = sqrt(C(n + k, n)) for k = 0..cutoff - n, in the rows a
    # call reads: keys have n <= sh, m <= sv, and stored terms idle l <= sv
    pows = [1.0 + 0.0j]
    for _ in range(cutoff):
        pows.append(pows[-1] * mig)
    binom_rows = [
        [math.sqrt(math.comb(n + k, n)) for k in range(cutoff - n + 1)] for n in range(max(sh, sv) + 1)
    ]
    # occ[i][j] = (i, j): the signal and idle occupations, built once per call
    occ = [[(i, j) for j in range(cutoff + 1)] for i in range(max(sh, sv) + 1)]
    # per signal V count m: (l, (-i gamma)^l, sqrt(C(m + l, m))) for l = 0..cutoff - m
    l_terms = [list(zip(range(cutoff - m + 1), pows, binom_rows[m])) for m in range(sv + 1)]
    amps: dict[OccKey, complex] = {}
    for key, amp in state.amplitudes.items():
        if cmath.isnan(amp):
            raise FockError(f"NaN amplitude at key {key}")
        if key[mi] != (0, 0):
            raise FockError(
                "squeezer kernel requires the idle mode in vacuum; "
                f"found occupation {key[mi]} on mode {mi}"
            )
        n, m = key[ms]
        if n > sh or m > sv:
            continue
        row_n, terms_m = binom_rows[n], l_terms[m]
        base = amp * one_minus ** ((n + m + 2) / 2.0)
        new = list(key)
        for k in range(sh - n + 1):
            ck = base * pows[k] * row_n[k]
            signal_row = occ[n + k]
            cleared_any = False
            for l, pow_l, binom_l in terms_m:
                w = ck * pow_l * binom_l
                if abs(w) >= tol:
                    cleared_any = True
                    if herald is None or signal_row[m + l] == herald:
                        new[ms] = signal_row[m + l]
                        new[mi] = occ[l][k]
                        amps[tuple(new)] = w
                elif g2 * (m + l + 1) < (l + 1):
                    break
            if not cleared_any and g2 * (n + k + 1) < (k + 1):
                break
    out = PureState(state.mode_count, cutoff, amps)
    if herald is None and log.isEnabledFor(logging.DEBUG):
        deficit = state.norm_squared() - out.norm_squared()
        if deficit > 1e-9:
            log.debug("squeezer truncation dropped %.3e of squared norm", deficit)
    return out

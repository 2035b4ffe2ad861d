"""Input and target state builders.

Every entangled source exists in two routes: a direct analytic construction
from its known Fock decomposition and a circuit construction that runs the
actual preparation optics (balanced splitter, half-wave plate, polarizing
merge, final split).  The two must agree to high fidelity; tests enforce it.

The direct route is one pass per branch into one output dict: each branch
multiplies its arms' coherent (or single-photon) amplitudes left to right
and writes each product already scaled by the normalization.  The two
branches share only the all-vacuum key, whose sum is kept aside and scaled
last.  The float operations are those of the state-by-state composition, so
the result is that composition's bit for bit.  Both routes
refuse, with ``CutoffError``, a source whose branch would form more than
``fock.MAX_SOURCE_PRODUCTS`` amplitude products.  The limit guards only the
``lambda``, ``lambda-circuit`` and ``target-omega`` state dumps: the
preparations' stage loop keeps the source as its two products and builds no
joint state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable

from . import analytics
from .fock import (
    DEFAULT_TAIL_BOUND,
    DEFAULT_TOL,
    H,
    MAX_SOURCE_PRODUCTS,
    V,
    CutoffError,
    FockError,
    OccKey,
    PureState,
    add,
    coherent_tail_weight,
    make_state,
    prune,
    scale,
    tensor,
    vacuum,
)
from .elements import BeamSplitterSpec, apply_bs, apply_hwp, apply_pbs

@dataclass(frozen=True)
class SourceParams:
    """Knobs of the entangled-source family.

    ``delta`` is the input cat/coherent amplitude, ``phi`` the relative branch
    phase, ``t0`` the transmissivity of the first splitting, and ``split_ts``
    the transmissivities of the further splits used for n > 2 arms.
    """

    delta: float
    phi: float = 0.0
    t0: float = 0.5
    split_ts: tuple[float, ...] = ()
    cutoff: int = 16

    def __post_init__(self) -> None:
        for name in ("delta", "phi"):
            if not math.isfinite(getattr(self, name)):
                raise FockError(f"{name} = {getattr(self, name)} is not finite")
        if self.delta < 0:
            raise FockError("delta must be nonnegative")
        if not 0.0 <= self.t0 <= 1.0:
            raise FockError(f"t0 = {self.t0} outside [0, 1]")
        for t in self.split_ts:
            if not 0.0 <= t <= 1.0:
                raise FockError(f"split transmissivity {t} outside [0, 1]")

    @property
    def alpha(self) -> float:
        return analytics.alpha_beta(self.delta, self.t0)[0]

    @property
    def beta(self) -> float:
        return analytics.alpha_beta(self.delta, self.t0)[1]


def coherent(
    gamma: float,
    pol: str,
    cutoff: int,
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> PureState:
    """Polarized coherent state |gamma_pol> truncated at the cutoff.

    Raises when the cutoff leaves more than ``tail_bound`` of probability in
    the truncated tail, so downstream accuracy budgets are protected.
    """
    tail = coherent_tail_weight(gamma, cutoff)
    if tail > tail_bound:
        raise CutoffError(
            f"cutoff {cutoff} keeps tail {tail:.2e} > {tail_bound:.0e} "
            f"for amplitude {gamma}"
        )
    entries = []
    for n in range(cutoff + 1):
        amp = analytics.f_n(gamma, n)
        occ = (n, 0) if pol == H else (0, n)
        entries.append(((occ,), amp))
    return make_state(1, cutoff, entries)


def cat(
    delta: float,
    phi: float,
    pol: str,
    cutoff: int,
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> PureState:
    """Normalized superposition of |delta_pol> and exp(i phi)|-delta_pol>."""
    norm = analytics.cat_norm(delta, phi)
    plus = coherent(delta, pol, cutoff, tail_bound)
    minus = coherent(-delta, pol, cutoff, tail_bound)
    return scale(add(plus, scale(minus, cmath.exp(1j * phi))), norm)


def split_amplitudes(params: SourceParams, n: int) -> tuple[float, ...]:
    """Arm amplitudes produced by the splitting chain t0, t1, ... for n arms."""
    if n < 2:
        raise FockError("need at least two arms")
    if len(params.split_ts) != n - 2:
        raise FockError(
            f"{n} arms need {n - 2} extra split transmissivities, "
            f"got {len(params.split_ts)}"
        )
    amps = [params.alpha]
    remainder = params.beta
    for t in params.split_ts:
        amps.append(remainder * math.sqrt(t))
        remainder *= math.sqrt(1.0 - t)
    amps.append(remainder)
    return tuple(amps)


def _photon(pol: str, cutoff: int) -> PureState:
    occ = (1, 0) if pol == H else (0, 1)
    return make_state(1, cutoff, [((occ,), 1.0)])


def _check_branch_size(sizes: Iterable[int]) -> None:
    """Refuse a source whose branch multiplies more than ``MAX_SOURCE_PRODUCTS`` products.

    ``sizes`` are the arms' compacted factor sizes, so their product bounds the
    keys of one branch before any product is formed.
    """
    count = math.prod(sizes)
    if count > MAX_SOURCE_PRODUCTS:
        raise CutoffError(
            f"a source branch needs {count:,} amplitude products, more than "
            f"{MAX_SOURCE_PRODUCTS:,}; lower delta, the cutoff or the arm count"
        )


def _prefix(factors: list[list[tuple[OccKey, complex]]]) -> list[tuple[OccKey, complex]]:
    """Products of one item from each factor but the last, left to right as ``tensor`` does.

    A partial product below ``DEFAULT_TOL`` is dropped with every product it
    would start, exactly as each ``tensor`` step compacts its output.
    """
    items = factors[0]
    for factor in factors[1:-1]:
        items = [
            (ka + kb, v) for ka, va in items for kb, vb in factor if abs(v := va * vb) >= DEFAULT_TOL
        ]
    return items


def _vacuum_product(factors: list[list[tuple[OccKey, complex]]]) -> complex | None:
    """The branch's all-vacuum product, formed and compacted as its other products, or ``None``.

    A factor's vacuum item comes first when it has one.
    """
    amp = None
    for factor in factors:
        key, v = factor[0]
        if key != ((0, 0),):
            return None
        amp = v if amp is None else amp * v
        if abs(amp) < DEFAULT_TOL:
            return None
    return amp


def _two_branch(
    params: SourceParams,
    n: int,
    photon_arms: tuple[int, ...],
    norm: float,
    tail_bound: float,
) -> PureState:
    """``norm (|H branch> + e^(i phi) |V branch>)`` over the n arms of the source.

    Each branch holds a single photon on ``photon_arms`` and the split
    coherent amplitudes on the other arms, negated in the V branch.  One pass
    per branch writes its products straight into one output dict, already
    scaled by ``norm``.  An H key holds only H photons and a V key only V
    photons, so the branches share at most the all-vacuum key; its sum is
    kept aside and scaled last, at the place the H branch gave it.  The float
    operations are those of ``scale(add(H, scale(V, e^(i phi))), norm)``, so
    keys, amplitudes and insertion order are that composition's bit for bit.
    """
    gammas = split_amplitudes(params, n)
    cutoff = params.cutoff

    def factors(pol: str, sign: float) -> list[list[tuple[OccKey, complex]]]:
        arms = [
            _photon(pol, cutoff)
            if k in photon_arms
            else coherent(sign * g, pol, cutoff, tail_bound)
            for k, g in enumerate(gammas)
        ]
        return [list(arm.amplitudes.items()) for arm in arms]

    h_factors = factors(H, 1.0)
    _check_branch_size(len(f) for f in h_factors)
    v_factors = factors(V, -1.0)
    phase = cmath.exp(1j * params.phi)
    h_vacuum = _vacuum_product(h_factors)
    vacuum_key = ((0, 0),) * n
    # the H branch's first product: hold its place, its value comes last
    out: dict[OccKey, complex] = {} if h_vacuum is None else {vacuum_key: h_vacuum}
    last = h_factors[-1]
    for ka, va in _prefix(h_factors):
        for kb, vb in last:
            v = va * vb
            if abs(v) >= DEFAULT_TOL:
                v = v * norm
                if abs(v) >= DEFAULT_TOL:
                    out[ka + kb] = v
    last = v_factors[-1]
    for ka, va in _prefix(v_factors):
        for kb, vb in last:
            v = va * vb
            if abs(v) >= DEFAULT_TOL:
                v = v * phase
                if abs(v) >= DEFAULT_TOL:
                    # ``add``'s ``0j + v``: a -0.0 part becomes +0.0
                    v = (0j + v) * norm
                    if abs(v) >= DEFAULT_TOL:
                        out[ka + kb] = v
    if h_vacuum is not None:
        total = h_vacuum
        v_vacuum = _vacuum_product(v_factors)
        if v_vacuum is not None and abs(v := v_vacuum * phase) >= DEFAULT_TOL:
            total = total + v
        if abs(total) >= DEFAULT_TOL and abs(v := total * norm) >= DEFAULT_TOL:
            out[vacuum_key] = v
        else:
            del out[vacuum_key]
    return PureState(n, cutoff, out)


def xi_direct(params: SourceParams, tail_bound: float = DEFAULT_TAIL_BOUND) -> PureState:
    """Two-arm entangled coherent source built from its closed form."""
    return lambda_state(params, 2, tail_bound)


def xi_circuit(params: SourceParams, tail_bound: float = DEFAULT_TAIL_BOUND) -> PureState:
    """Two-arm entangled coherent source built by running the preparation optics.

    Cat plus coherent input on a balanced splitter, half-wave plate on the
    second port, polarizing merge into one mode, then a final split with
    transmissivity t0.  Requires the cutoff to accommodate the intermediate
    amplitude delta*sqrt(2).
    """
    cutoff = params.cutoff
    merged_amp = params.delta * math.sqrt(2.0)
    tail = coherent_tail_weight(merged_amp, cutoff)
    if tail > tail_bound:
        raise CutoffError(
            f"cutoff {cutoff} keeps tail {tail:.2e} > {tail_bound:.0e} for the "
            f"merged amplitude {merged_amp:.3f}; raise the cutoff"
        )
    cat_in = cat(params.delta, params.phi, H, cutoff, tail_bound)
    coh_in = coherent(params.delta, H, cutoff, tail_bound)
    work = tensor(cat_in, coh_in)
    # the balanced splitter cancels the cross terms only up to float rounding;
    # prune the residue within a slice of the truncation-tail budget
    work = prune(apply_bs(work, BeamSplitterSpec(0.5, 0, 1)), tail_bound / 10.0)
    work = apply_hwp(work, 1)
    work = apply_pbs(work, 0, 1)
    return apply_bs(work, BeamSplitterSpec(params.t0, 0, 1))


def lambda_state(
    params: SourceParams, n: int, tail_bound: float = DEFAULT_TAIL_BOUND
) -> PureState:
    """n-arm entangled coherent source from its closed form."""
    norm = analytics.m_n(split_amplitudes(params, n), params.phi)
    return _two_branch(params, n, (), norm, tail_bound)


def lambda_circuit(
    params: SourceParams, n: int, tail_bound: float = DEFAULT_TAIL_BOUND
) -> PureState:
    """n-arm source built by splitting the last arm of the circuit-built two-arm state.

    Refused before any element runs when the closed form's branch would
    multiply more than ``MAX_SOURCE_PRODUCTS`` products.
    """
    _check_branch_size(
        len(coherent(g, H, params.cutoff, math.inf).amplitudes)
        for g in split_amplitudes(params, n)
    )
    work = xi_circuit(params, tail_bound)
    for t in params.split_ts:
        last = work.mode_count - 1
        work = tensor(work, vacuum(1, params.cutoff))
        work = prune(
            apply_bs(work, BeamSplitterSpec(t, last, last + 1)), tail_bound / 10.0
        )
    return work


def heralded_target(
    params: SourceParams,
    n: int,
    arms: tuple[int, ...],
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> PureState:
    """Target after truncating ``arms``: photon qubits there, coherent amplitudes on the rest.

    The single-photon factors make the two branches orthogonal, so the
    ``1/sqrt(2)`` normalization is exact for any nonempty ``arms``.
    """
    return _two_branch(params, n, arms, 1.0 / math.sqrt(2.0), tail_bound)


def target_omega(
    n: int, j: int, params: SourceParams, tail_bound: float = DEFAULT_TAIL_BOUND
) -> PureState:
    """Target after truncating arms 0..j-1 (see ``heralded_target``)."""
    if not 1 <= j <= n:
        raise FockError(f"j = {j} outside 1..{n}")
    return heralded_target(params, n, tuple(range(j)), tail_bound)

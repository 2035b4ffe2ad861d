"""Input and target state builders.

Every entangled source exists in two routes: a direct analytic construction
from its known Fock decomposition and a circuit construction that runs the
actual preparation optics (balanced splitter, half-wave plate, polarizing
merge, final split).  The two must agree to high fidelity; tests enforce it.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

from . import analytics
from .fock import (
    H,
    V,
    CutoffError,
    FockError,
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

DEFAULT_TAIL_BOUND = 1e-12


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


def _two_branch(
    params: SourceParams,
    n: int,
    photon_arms: tuple[int, ...],
    norm: float,
    tail_bound: float,
) -> PureState:
    """``norm (|H branch> + e^(i phi) |V branch>)`` over the n arms of the source.

    Each branch holds a single photon on ``photon_arms`` and the split
    coherent amplitudes on the other arms, negated in the V branch.
    """
    gammas = split_amplitudes(params, n)

    def branch(pol: str, sign: float) -> PureState:
        factors = [
            _photon(pol, params.cutoff)
            if k in photon_arms
            else coherent(sign * g, pol, params.cutoff, tail_bound)
            for k, g in enumerate(gammas)
        ]
        return functools.reduce(tensor, factors)

    combined = add(branch(H, 1.0), scale(branch(V, -1.0), cmath.exp(1j * params.phi)))
    return scale(combined, norm)


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
    """n-arm source built by splitting the last arm of the circuit-built two-arm state."""
    if len(params.split_ts) != n - 2:
        raise FockError(
            f"{n} arms need {n - 2} extra split transmissivities, "
            f"got {len(params.split_ts)}"
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

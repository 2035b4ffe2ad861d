"""Heralded truncation circuits.

Three scissors flavors, all simulated as genuine circuits on the sparse Fock
states rather than as coefficient maps:

* ``qs_apply`` - single-polarization scissors: an ancilla photon split on a
  beam splitter of transmissivity t forms a single-rail channel; a balanced
  Bell measurement between the input mode and the reflected ancilla heralds
  the vacuum/one-photon truncation on two accepted detector patterns.
* ``pqs1_apply`` - polarized scissors from two such modules, one per
  polarization, bracketed by polarizing beam splitters (four joint patterns).
* ``pqs2_apply`` - squeezer-based polarized scissors: the input drives the
  signal arm of a type-II squeezer and co-detection of one H and one V photon
  on the signal heralds the truncated state in the idle arm (one pattern).

Accepted patterns that differ by a heralded sign are corrected by a
polarization-conditional pi phase on the kept mode (feed-forward); after the
correction all patterns agree on one canonical state.  Detector wiring is
fixed so that a single photon at D1 with vacuum at D2 carries the plus sign.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .fock import (
    H,
    V,
    FockError,
    Occupation,
    PureState,
    fidelity,
    make_state,
    normalize,
    permute_modes,
    project_number,
    scale,
    tensor,
    vacuum,
)
from .elements import (
    BeamSplitterSpec,
    SqueezerSpec,
    apply_bs,
    apply_pbs,
    apply_pol_phase,
    apply_squeezer_exact,
)
from . import sources


@dataclass(frozen=True)
class PQS1:
    """Linear-optics scissors knob: beam-splitter transmissivity."""

    t: float

    def __post_init__(self) -> None:
        if not 0.0 < self.t < 1.0:
            raise FockError(f"degenerate scissors transmissivity t = {self.t}")


@dataclass(frozen=True)
class PQS2:
    """Squeezer scissors knob: characteristic squeezing parameter."""

    gamma: complex

    def __post_init__(self) -> None:
        if abs(self.gamma) >= 1.0:
            raise FockError(f"|gamma| = {abs(self.gamma)} must be < 1")


@dataclass(frozen=True)
class HeraldPattern:
    """One accepted detector pattern and the phase correction it triggers."""

    detections: tuple[tuple[str, Occupation], ...]
    corrections: tuple[str, ...]


@dataclass(frozen=True)
class HeraldedOutcome:
    pattern: HeraldPattern
    probability: float
    state: PureState | None


@dataclass(frozen=True)
class ScissorsResult:
    """Aggregate over all accepted patterns of one scissors application.

    ``total_probability`` sums the pattern probabilities; ``canonical_state``
    is the shared corrected conditional state (None when nothing is heralded);
    ``pattern_agreement`` is the minimum pairwise fidelity among the corrected
    pattern states.  ``target_fidelity`` is filled by preparation pipelines
    that compare against a supplied target.
    """

    outcomes: tuple[HeraldedOutcome, ...]
    total_probability: float
    canonical_state: PureState | None
    pattern_agreement: float
    target_fidelity: float | None = None


def _single_photon_occ(pol: str) -> Occupation:
    return (1, 0) if pol == H else (0, 1)


def _kept_mode_back(state: PureState, mode: int) -> PureState:
    """Move the kept output, appended as the last mode, back to position ``mode``."""
    order = list(range(state.mode_count - 1))
    order.insert(mode, state.mode_count - 1)
    return permute_modes(state, order)


def _qs_branches(
    state: PureState, mode: int, pol: str, t: float
) -> list[tuple[HeraldPattern, float, PureState | None]]:
    """Run one scissors module; return corrected unnormalized branch states.

    The kept output mode is moved back to ``mode``, so branch states have the
    same mode layout as the input.  Probabilities are squared norms of the
    projected components (linear in the input's squared norm).
    """
    if not 0.0 < t < 1.0:
        raise FockError(f"degenerate scissors transmissivity t = {t}")
    if mode < 0 or mode >= state.mode_count:
        raise FockError(f"mode {mode} out of range")
    n = state.mode_count
    cutoff = state.cutoff
    ancilla = make_state(1, cutoff, [((_single_photon_occ(pol),), 1.0)])
    work = tensor(tensor(state, ancilla), vacuum(1, cutoff))
    work = apply_bs(work, BeamSplitterSpec(t, n, n + 1))
    work = apply_bs(work, BeamSplitterSpec(0.5, mode, n + 1))

    single = _single_photon_occ(pol)
    vac: Occupation = (0, 0)

    branches = []
    for d1, d2, flip in ((single, vac, False), (vac, single, True)):
        pattern = HeraldPattern(
            detections=((f"{pol}:D1", d1), (f"{pol}:D2", d2)),
            corrections=(pol,) if flip else (),
        )
        outcome = project_number(work, [(mode, d1), (n + 1, d2)])
        if outcome.state is None:
            branches.append((pattern, outcome.probability, None))
            continue
        kept = _kept_mode_back(outcome.state, mode)
        if flip:
            kept = apply_pol_phase(kept, mode, pol, math.pi)
        branches.append(
            (pattern, outcome.probability, scale(kept, math.sqrt(outcome.probability)))
        )
    return branches


def _agreement(states: list[PureState]) -> float:
    worst = 1.0
    for i in range(len(states)):
        for j in range(i + 1, len(states)):
            worst = min(worst, fidelity(states[i], states[j]))
    return worst


def _assemble(
    branches: list[tuple[HeraldPattern, float, PureState | None]],
) -> ScissorsResult:
    outcomes = []
    corrected = []
    canonical = None
    total = 0.0
    for pattern, prob, unnorm in branches:
        total += prob
        if unnorm is None:
            outcomes.append(HeraldedOutcome(pattern, prob, None))
            continue
        state = normalize(unnorm)
        corrected.append(state)
        if canonical is None:
            canonical = state
        outcomes.append(HeraldedOutcome(pattern, prob, state))
    return ScissorsResult(
        outcomes=tuple(outcomes),
        total_probability=total,
        canonical_state=canonical,
        pattern_agreement=_agreement(corrected),
    )


def qs_apply(state: PureState, mode: int, pol: str, t: float) -> ScissorsResult:
    """Single-polarization scissors on one mode; two accepted patterns."""
    return _assemble(_qs_branches(state, mode, pol, t))


def pqs1_apply(state: PureState, mode: int, t: float) -> ScissorsResult:
    """Linear-optics polarized scissors on one mode; four joint patterns.

    The mode is split by polarization, each arm passes its own scissors
    module, and the arms are merged back; the spare arm is verified to end in
    vacuum before being dropped.
    """
    if mode < 0 or mode >= state.mode_count:
        raise FockError(f"mode {mode} out of range")
    n = state.mode_count
    cutoff = state.cutoff
    work = tensor(state, vacuum(1, cutoff))
    work = apply_pbs(work, mode, n)

    branches = []
    for pat_h, prob_h, st_h in _qs_branches(work, mode, H, t):
        if st_h is None:
            # both V patterns of a dead H branch are dead too
            for flip_v in (False, True):
                branches.append(
                    (_joint_pattern(pat_h, flip_v), 0.0, None)
                )
            continue
        for pat_v, prob_v, st_v in _qs_branches(st_h, n, V, t):
            pattern = HeraldPattern(
                detections=pat_h.detections + pat_v.detections,
                corrections=pat_h.corrections + pat_v.corrections,
            )
            if st_v is None:
                branches.append((pattern, prob_v, None))
                continue
            merged = apply_pbs(st_v, mode, n)
            final = project_number(merged, [(n, (0, 0))])
            if final.state is None:
                branches.append((pattern, 0.0, None))
                continue
            branches.append(
                (pattern, final.probability, scale(final.state, math.sqrt(final.probability)))
            )
    return _assemble(branches)


def _joint_pattern(pat_h: HeraldPattern, flip_v: bool) -> HeraldPattern:
    single = _single_photon_occ(V)
    d1, d2 = ((0, 0), single) if flip_v else (single, (0, 0))
    return HeraldPattern(
        detections=pat_h.detections + ((f"{V}:D1", d1), (f"{V}:D2", d2)),
        corrections=pat_h.corrections + ((V,) if flip_v else ()),
    )


def pqs2_apply(state: PureState, mode: int, gamma: complex) -> ScissorsResult:
    """Squeezer-based polarized scissors on one mode; one accepted pattern.

    A fresh idle mode is appended, the squeezer pumps signal/idle pairs, and
    detecting exactly one H and one V photon on the signal heralds the
    truncated state in the idle mode, which takes over the signal's position.
    """
    if mode < 0 or mode >= state.mode_count:
        raise FockError(f"mode {mode} out of range")
    n = state.mode_count
    work = tensor(state, vacuum(1, state.cutoff))
    work = apply_squeezer_exact(work, SqueezerSpec(gamma, mode, n))
    outcome = project_number(work, [(mode, (1, 1))])
    pattern = HeraldPattern(detections=(("D1", (1, 0)), ("D2", (0, 1))), corrections=())
    if outcome.state is None:
        return ScissorsResult((HeraldedOutcome(pattern, outcome.probability, None),),
                              outcome.probability, None, 1.0)
    kept = _kept_mode_back(outcome.state, mode)
    return ScissorsResult(
        outcomes=(HeraldedOutcome(pattern, outcome.probability, kept),),
        total_probability=outcome.probability,
        canonical_state=kept,
        pattern_agreement=1.0,
    )


def apply_scissors(state: PureState, mode: int, knob: PQS1 | PQS2) -> ScissorsResult:
    if isinstance(knob, PQS1):
        return pqs1_apply(state, mode, knob.t)
    if isinstance(knob, PQS2):
        return pqs2_apply(state, mode, knob.gamma)
    raise FockError(f"unknown scissors knob {knob!r}")


def truncation_chain(
    params: sources.SourceParams,
    n: int,
    arms: tuple[int, ...],
    scissors: tuple[PQS1 | PQS2, ...],
    tail_bound: float = sources.DEFAULT_TAIL_BOUND,
) -> tuple[ScissorsResult, ...]:
    """Truncate ``arms`` of the n-arm source in order; one scored result per stage run.

    Scissors are applied sequentially with renormalization between stages, so
    a stage's total probability is the product of the stage probabilities so
    far and its pattern agreement the worst so far; the chain stops at the
    first stage that heralds nothing.  Each truncation flips the heralded
    branch sign once; after an odd count the residual sign is removed by a
    feed-forward pi phase on the first truncated arm, and the stage is scored
    against the plus-branch ``sources.heralded_target``.  The next stage runs
    on the state before that correction.
    """
    if len(scissors) != len(arms):
        raise FockError(f"need one scissors choice per truncated arm ({len(arms)})")
    current = sources.lambda_state(params, n, tail_bound)
    total = agreement = 1.0
    stages = []
    for count, (mode, knob) in enumerate(zip(arms, scissors), 1):
        result = apply_scissors(current, mode, knob)
        total *= result.total_probability
        agreement = min(agreement, result.pattern_agreement)
        current = result.canonical_state
        if current is None:
            stages.append(ScissorsResult((), total, None, agreement))
            break
        state = apply_pol_phase(current, arms[0], V, math.pi) if count % 2 else current
        target = sources.heralded_target(params, n, arms[:count], tail_bound)
        stages.append(ScissorsResult((), total, state, agreement, fidelity(state, target)))
    return tuple(stages)


def prepare_omega(
    params: sources.SourceParams,
    n: int,
    j: int,
    scissors: tuple[PQS1 | PQS2, ...],
    tail_bound: float = sources.DEFAULT_TAIL_BOUND,
) -> ScissorsResult:
    """Truncate arms 0..j-1 of the n-arm source and compare to the hybrid target.

    This is the last stage of ``truncation_chain`` over those arms.
    """
    if not 1 <= j <= n:
        raise FockError(f"j = {j} outside 1..{n}")
    return truncation_chain(params, n, tuple(range(j)), scissors, tail_bound)[-1]

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

A transmissivity may be any t in [0, 1], as ``BeamSplitterSpec`` allows.  A
circuit that heralds nothing reads probability 0.0; whether that is
degenerate or underflow is for ``analytics._zero_probability`` to judge.

Accepted patterns that differ by a heralded sign are corrected by a
polarization-conditional pi phase on the kept mode (feed-forward); after the
correction all patterns agree on one canonical state.  Detector wiring is
fixed so that a single photon at D1 with vacuum at D2 carries the plus sign.

Each heralded map is linear on its mode, so a ``TransferTable`` whose rows the
circuit itself builds on a small probe applies it to one mode's factor of a
product state.  Running the circuit on the whole joint state and projecting
it (expand-then-project) stays the oracle the tables are tested against.

Every circuit takes ``herald_first``: the element in front of the detectors
forms only the components they accept, from the inputs whose photon totals
can reach them (``elements`` ``herald``), and one pass per pattern detects,
moves the kept mode back and applies the feed-forward phase (``_detect``,
``_spare_vacuum``): bitwise the full expansion's result, the default.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable

from .fock import (
    H,
    V,
    Factor,
    FockError,
    Occupation,
    ProjectionOutcome,
    PureState,
    make_state,
    normalize,
    permute_modes,
    project_number,
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


@dataclass(frozen=True)
class ScissorsResult:
    """Aggregate over all accepted patterns of one scissors application.

    ``outcomes`` holds one ``ProjectionOutcome`` per accepted pattern, in the
    circuit's order: its probability and its feed-forward-corrected component,
    not normalized (None when the pattern heralds nothing).
    ``total_probability`` sums the pattern probabilities; ``canonical_state``
    is the shared corrected conditional state, normalized (None when nothing is
    heralded).
    """

    outcomes: tuple[ProjectionOutcome, ...]
    total_probability: float
    canonical_state: PureState | None


def _kept_mode_back(state: PureState, mode: int) -> PureState:
    """Move the kept output, appended as the last mode, back to position ``mode``."""
    order = list(range(state.mode_count - 1))
    order.insert(mode, state.mode_count - 1)
    return permute_modes(state, order)


def _detect(
    work: PureState, mode: int, n: int, occ: Occupation, pol: str | None = None
) -> tuple[float, PureState | None]:
    """One pattern's probability and component, in one pass over a herald-first output.

    Bitwise ``project_number`` onto the keys with ``occ`` at ``mode`` (the output holds only
    accepted patterns, and they differ there), ``_kept_mode_back`` of mode ``n`` (modes past it are
    measured) and, given ``pol``, the feed-forward ``apply_pol_phase`` by pi, after the probability.
    """
    idx = 0 if pol == H else 1
    amps, prob = {}, 0.0
    for key, amp in work.amplitudes.items():
        if key[mode] != occ:
            continue
        prob += amp.real * amp.real + amp.imag * amp.imag
        if pol is not None and (m := key[n][idx]):
            amp = amp * cmath.exp(1j * math.pi * m)
        amps[key[:mode] + (key[n],) + key[mode + 1 : n]] = amp
    return prob, PureState(n, work.cutoff, amps) if amps else None


def _spare_vacuum(state: PureState, mode: int, n: int) -> tuple[float, PureState | None]:
    """``project_number(apply_pbs(state, mode, n), [(n, (0, 0))])`` in one pass, ``n`` the last mode."""
    amps, prob = {}, 0.0
    for key, amp in state.amplitudes.items():
        (h, v), (h_spare, v_spare) = key[mode], key[n]
        if v or h_spare:
            continue
        prob += amp.real * amp.real + amp.imag * amp.imag
        amps[key[:mode] + ((h, v_spare),) + key[mode + 1 : n]] = amp
    return prob, PureState(n, state.cutoff, amps) if amps else None


def _qs_channel(pol: str, t: float, cutoff: int) -> PureState:
    """The ancilla photon of ``pol`` and its vacuum partner, split on ``BeamSplitterSpec(t, 0, 1)``."""
    single = (1, 0) if pol == H else (0, 1)
    return apply_bs(make_state(2, cutoff, [((single, (0, 0)), 1.0)]), BeamSplitterSpec(t, 0, 1))


def _qs_branches(
    state: PureState, mode: int, pol: str, t: float, *, herald_first: bool = False,
    channel: PureState | None = None,
) -> list[tuple[float, PureState | None]]:
    """Run one scissors module; return each pattern's probability and corrected component.

    ``channel``, ``_qs_channel``'s state of at most two keys unless given, is
    tensored onto the input once: the detectors project bitwise the state of
    tensoring the ancilla and the vacuum onto the input and splitting them there.

    The kept output mode is moved back to ``mode``, so branch states have the
    same mode layout as the input.  Probabilities are squared norms of the
    projected components (linear in the input's squared norm).

    With ``herald_first`` the Bell-measurement beam splitter forms only the
    two detector patterns the projections accept, and ``_detect`` reads each in
    one pass; every result is bitwise the one of the full expansion.
    """
    if mode < 0 or mode >= state.mode_count:
        raise FockError(f"mode {mode} out of range")
    n = state.mode_count
    single = (1, 0) if pol == H else (0, 1)
    channel = _qs_channel(pol, t, state.cutoff) if channel is None else channel
    patterns = ((single, (0, 0), False), ((0, 0), single, True))
    accepted = {(d1, d2) for d1, d2, _ in patterns} if herald_first else None
    work = apply_bs(tensor(state, channel), BeamSplitterSpec(0.5, mode, n + 1), herald=accepted)
    if herald_first:
        return [_detect(work, mode, n, d1, pol if flip else None) for d1, _, flip in patterns]

    branches = []
    for d1, d2, flip in patterns:
        outcome = project_number(work, [(mode, d1), (n + 1, d2)])
        kept = None if outcome.state is None else _kept_mode_back(outcome.state, mode)
        if flip and kept is not None:
            kept = apply_pol_phase(kept, mode, pol, math.pi)
        branches.append((outcome.probability, kept))
    return branches


def _assemble(branches: list[tuple[float, PureState | None]]) -> ScissorsResult:
    outcomes = tuple(ProjectionOutcome(prob, state) for prob, state in branches)
    first = next((state for _, state in branches if state is not None), None)
    total = 0.0
    for prob, _ in branches:
        total += prob
    return ScissorsResult(outcomes, total, None if first is None else normalize(first))


def qs_apply(
    state: PureState, mode: int, pol: str, t: float, *, herald_first: bool = False
) -> ScissorsResult:
    """Single-polarization scissors on one mode; two accepted patterns."""
    return _assemble(_qs_branches(state, mode, pol, t, herald_first=herald_first))


def pqs1_apply(
    state: PureState, mode: int, t: float, *, herald_first: bool = False
) -> ScissorsResult:
    """Linear-optics polarized scissors on one mode; four joint patterns.

    The mode is split by polarization, each arm passes its own scissors
    module, and the arms are merged back; the spare arm is verified to end in
    vacuum before being dropped.  Both H branches' V modules share one channel.
    """
    if mode < 0 or mode >= state.mode_count:
        raise FockError(f"mode {mode} out of range")
    n = state.mode_count
    work = apply_pbs(tensor(state, vacuum(1, state.cutoff)), mode, n)
    channel = _qs_channel(V, t, state.cutoff)

    branches = []
    for _, st_h in _qs_branches(work, mode, H, t, herald_first=herald_first):
        if st_h is None:
            # both V patterns of a dead H branch are dead too
            branches += [(0.0, None)] * 2
            continue
        for prob_v, st_v in _qs_branches(st_h, n, V, t, herald_first=herald_first, channel=channel):
            if st_v is None:
                branches.append((prob_v, None))
                continue
            # (0.0, None) when no key leaves the spare in vacuum
            if herald_first:
                branches.append(_spare_vacuum(st_v, mode, n))
            else:
                final = project_number(apply_pbs(st_v, mode, n), [(n, (0, 0))])
                branches.append((final.probability, final.state))
    return _assemble(branches)


def pqs2_apply(
    state: PureState, mode: int, gamma: complex, *, herald_first: bool = False
) -> ScissorsResult:
    """Squeezer-based polarized scissors on one mode; one accepted pattern.

    A fresh idle mode is appended, the squeezer pumps signal/idle pairs, and
    detecting exactly one H and one V photon on the signal heralds the
    truncated state in the idle mode, which takes over the signal's position.
    """
    if mode < 0 or mode >= state.mode_count:
        raise FockError(f"mode {mode} out of range")
    n = state.mode_count
    work = tensor(state, vacuum(1, state.cutoff))
    signal = (1, 1)
    work = apply_squeezer_exact(work, SqueezerSpec(gamma, mode, n), herald=signal if herald_first else None)
    if herald_first:
        return _assemble([_detect(work, mode, n, signal)])
    outcome = project_number(work, [(mode, signal)])
    kept = None if outcome.state is None else _kept_mode_back(outcome.state, mode)
    return _assemble([(outcome.probability, kept)])


# One ancilla photon feeds Pegg's output; the squeezer only adds signal photons and heralds on (1, 1).
SECTOR = ((0, 0), (1, 0), (0, 1), (1, 1))


class TransferTable:
    """A scissors circuit's heralded map on one mode, row by row.

    Row ``(nh, nv)`` lists, per accepted pattern ``p`` in the circuit's outcome
    order, the kept occupations and coefficients: the amplitudes of pattern
    ``p``'s corrected component for the input ``|nh, nv>``.  A scissors
    heralds no input with two photons of one polarization, so the rows are
    those of ``SECTOR``, built by one ``circuit(probe, 1)`` call at cutoff 1
    whose mode 0 labels the input in mode 1; any other occupation heralds
    nothing.  A table serves every cutoff and every caller that holds it.
    """

    def __init__(self, circuit: Callable[[PureState, int], ScissorsResult]) -> None:
        # its keys are valid by construction: no ``make_state`` checks
        result = circuit(PureState(2, 1, {(occ, occ): 1 + 0j for occ in SECTOR}), 1)
        self.patterns = len(result.outcomes)
        self.rows: dict[Occupation, list[tuple[int, Occupation, complex]]] = {occ: [] for occ in SECTOR}
        for p, outcome in enumerate(result.outcomes):
            for (label, out), amp in ({} if outcome.state is None else outcome.state.amplitudes).items():
                self.rows[label].append((p, out, amp))

    def apply(self, factors: list[Factor]) -> list[list[Factor]]:
        """Per accepted pattern, the image of each of ``factors``, in their order.

        A factor's scan stops once it has met every one of its occupations
        that has a row, an empty row included: the rest of it heralds nothing.
        """
        rows = self.rows
        images: list[list[Factor]] = [[{} for _ in factors] for _ in range(self.patterns)]
        for i, factor in enumerate(factors):
            left = len(factor.keys() & rows.keys())
            for occ, amp in factor.items():
                if not left:
                    break
                if (row := rows.get(occ)) is None:
                    continue
                left -= 1
                for p, out, coeff in row:
                    image = images[p][i]
                    image[out] = image.get(out, 0j) + amp * coeff
        return images

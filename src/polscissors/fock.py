"""Sparse pure states over multimode polarized Fock space.

A state lives on ``mode_count`` spatial modes; each spatial mode carries two
polarization sub-modes (horizontal and vertical) with photon numbers capped at
``cutoff``.  Basis keys are tuples of per-mode ``(n_h, n_v)`` pairs and
amplitudes are stored sparsely, so circuits with a handful of occupied modes
stay cheap even at large cutoffs.

All operations are pure functions; states are treated as immutable once built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import itemgetter
from typing import Iterable, Sequence

H = "H"
V = "V"

# The one compaction tolerance: every constructor drops amplitudes below it.
DEFAULT_TOL = 1e-14
# Default truncation budget: the largest coherent tail weight a cutoff may drop.
DEFAULT_TAIL_BOUND = 1e-12
# Largest cutoff a state may have: the search limit of ``min_cutoff``.
MAX_CUTOFF = 4096
# Largest number of amplitude products one branch of a joint entangled source
# may form, so a source holds at most twice as many keys.  Four arms at delta
# 2.0 and cutoff 35 form 892,296; six arms at delta 1 form 26.2 million.  It
# guards only the ``lambda``, ``lambda-circuit`` and ``target-omega`` state
# dumps: the preparations keep the source as its two products.
MAX_SOURCE_PRODUCTS = 2_000_000

Occupation = tuple[int, int]
OccKey = tuple[Occupation, ...]


class FockError(ValueError):
    """Base class for state-algebra errors."""


class CutoffError(FockError):
    """An occupation exceeds the cutoff, or a cutoff is too small for a source."""


class ShapeMismatchError(FockError):
    """Two states disagree on mode count or cutoff."""


class ZeroNormError(FockError):
    """An operation that needs a nonzero norm received a (numerically) zero state."""


@dataclass(frozen=True, eq=False)
class PureState:
    """Sparse complex-amplitude vector over polarized occupation keys.

    ``amplitudes`` maps ``((n_h, n_v), ...)`` keys (one pair per spatial mode)
    to complex amplitudes.  The constructors drop amplitudes with magnitude
    below ``DEFAULT_TOL``, the one compaction tolerance.  No automatic
    normalization is performed.  States compare by identity; compare their
    amplitudes to compare their contents.
    """

    mode_count: int
    cutoff: int
    amplitudes: dict[OccKey, complex]

    def norm_squared(self) -> float:
        return sum(a.real * a.real + a.imag * a.imag for a in self.amplitudes.values())

    def norm(self) -> float:
        return math.sqrt(self.norm_squared())

    def amplitude(self, key: OccKey) -> complex:
        return self.amplitudes.get(tuple(key), 0.0 + 0.0j)

    def sorted_keys(self) -> list[OccKey]:
        """Keys in the canonical order: lexicographic over (mode, n_h, n_v)."""
        return sorted(self.amplitudes)


def _validate_key(key: OccKey, mode_count: int, cutoff: int) -> OccKey:
    key = tuple((int(nh), int(nv)) for nh, nv in key)
    if len(key) != mode_count:
        raise ShapeMismatchError(
            f"key {key} has {len(key)} modes, state has {mode_count}"
        )
    for nh, nv in key:
        if nh < 0 or nv < 0:
            raise FockError(f"negative occupation in key {key}")
        if nh > cutoff or nv > cutoff:
            raise CutoffError(f"occupation {max(nh, nv)} exceeds cutoff {cutoff}")
    return key


def _compact(amps: dict[OccKey, complex]) -> dict[OccKey, complex]:
    return {k: a for k, a in amps.items() if abs(a) >= DEFAULT_TOL}


def make_state(
    mode_count: int, cutoff: int, entries: Iterable[tuple[OccKey, complex]]
) -> PureState:
    """Build a state from explicit (key, amplitude) entries.

    Duplicate keys accumulate.  The result is compacted but not normalized.
    """
    if mode_count < 1 or cutoff < 1:
        raise FockError("mode_count and cutoff must be positive")
    amps: dict[OccKey, complex] = {}
    for key, amp in entries:
        key = _validate_key(key, mode_count, cutoff)
        amps[key] = amps.get(key, 0.0 + 0.0j) + complex(amp)
    return PureState(mode_count, cutoff, _compact(amps))


def _raw_state(mode_count: int, cutoff: int, amps: dict[OccKey, complex]) -> PureState:
    """Internal constructor for already-validated amplitude maps."""
    return PureState(mode_count, cutoff, _compact(amps))


def vacuum(mode_count: int, cutoff: int) -> PureState:
    key = tuple((0, 0) for _ in range(mode_count))
    return PureState(mode_count, cutoff, {key: 1.0 + 0.0j})


def _check_shapes(a: PureState, b: PureState) -> None:
    if a.mode_count != b.mode_count or a.cutoff != b.cutoff:
        raise ShapeMismatchError(
            f"shape mismatch: ({a.mode_count} modes, cutoff {a.cutoff}) vs "
            f"({b.mode_count} modes, cutoff {b.cutoff})"
        )


def inner_product(a: PureState, b: PureState) -> complex:
    """<a|b>, conjugating the first argument.

    Sums over the smaller state's keys in its order, reading each common key
    once from each state.
    """
    _check_shapes(a, b)
    total = 0.0 + 0.0j
    if len(a.amplitudes) <= len(b.amplitudes):
        get = b.amplitudes.get
        for k, va in a.amplitudes.items():
            if (vb := get(k)) is not None:
                total += va.conjugate() * vb
    else:
        get = a.amplitudes.get
        for k, vb in b.amplitudes.items():
            if (va := get(k)) is not None:
                total += va.conjugate() * vb
    return total


def fidelity(a: PureState, b: PureState) -> float:
    """|<a|b>|^2 normalized by both squared norms; global-phase invariant."""
    _check_shapes(a, b)
    na, nb = a.norm_squared(), b.norm_squared()
    if na <= 0.0 or nb <= 0.0:
        raise ZeroNormError("fidelity of a zero-norm state is undefined")
    return abs(inner_product(a, b)) ** 2 / (na * nb)


def tensor(a: PureState, b: PureState) -> PureState:
    """Tensor product; modes of ``b`` are appended after those of ``a``."""
    if a.cutoff != b.cutoff:
        raise ShapeMismatchError(f"cutoff mismatch: {a.cutoff} vs {b.cutoff}")
    amps: dict[OccKey, complex] = {}
    for ka, va in a.amplitudes.items():
        for kb, vb in b.amplitudes.items():
            amps[ka + kb] = va * vb
    return _raw_state(a.mode_count + b.mode_count, a.cutoff, amps)


def normalize(state: PureState) -> PureState:
    n = state.norm()
    if n <= 0.0:
        raise ZeroNormError("cannot normalize a zero-norm state")
    amps = {k: v / n for k, v in state.amplitudes.items()}
    return _raw_state(state.mode_count, state.cutoff, amps)


def scale(state: PureState, factor: complex) -> PureState:
    amps = {k: v * factor for k, v in state.amplitudes.items()}
    return _raw_state(state.mode_count, state.cutoff, amps)


def add(a: PureState, b: PureState) -> PureState:
    """Amplitude-wise sum of two states of identical shape."""
    _check_shapes(a, b)
    amps = dict(a.amplitudes)
    for k, v in b.amplitudes.items():
        amps[k] = amps.get(k, 0.0 + 0.0j) + v
    return _raw_state(a.mode_count, a.cutoff, amps)


@dataclass(frozen=True)
class ProjectionOutcome:
    """Result of a projective photon-number measurement.

    ``probability`` is the squared norm of the unnormalized projected vector.
    ``state`` is the renormalized conditional state with the measured modes
    removed, or ``None`` when nothing survives the projection.
    """

    probability: float
    state: PureState | None


def project_number(
    state: PureState, targets: Sequence[tuple[int, Occupation]]
) -> ProjectionOutcome:
    """Project the listed modes onto exact polarized occupations.

    Measured modes are removed from the conditional state, so its mode count
    drops by ``len(targets)``.  Matching keys keep their input order, and the
    probability sums their squared magnitudes in that order, so the result is
    bitwise that of a plain per-key loop.
    """
    if not targets:
        raise FockError("no projection targets given")
    seen: set[int] = set()
    wanted: dict[int, Occupation] = {}
    for mode, occ in targets:
        if mode < 0 or mode >= state.mode_count:
            raise FockError(f"mode {mode} out of range")
        if mode in seen:
            raise FockError(f"duplicate projection target on mode {mode}")
        seen.add(mode)
        wanted[mode] = (int(occ[0]), int(occ[1]))
    if len(wanted) == state.mode_count:
        amp = state.amplitude(tuple(wanted[m] for m in range(state.mode_count)))
        return ProjectionOutcome(abs(amp) ** 2, None)

    keep = tuple(m for m in range(state.mode_count) if m not in wanted)
    measured = itemgetter(*wanted)
    expected = tuple(wanted.values()) if len(wanted) > 1 else next(iter(wanted.values()))
    reduce_key = itemgetter(*keep) if len(keep) > 1 else (lambda key, m=keep[0]: (key[m],))
    amps: dict[OccKey, complex] = {}
    prob = 0.0
    for key, amp in state.amplitudes.items():
        if measured(key) != expected:
            continue
        prob += amp.real * amp.real + amp.imag * amp.imag
        amps[reduce_key(key)] = amp
    if not amps:
        return ProjectionOutcome(prob, None)
    norm = math.sqrt(prob)
    amps = {k: v / norm for k, v in amps.items()}
    conditional = _raw_state(len(keep), state.cutoff, amps)
    return ProjectionOutcome(prob, conditional)


def permute_modes(state: PureState, order: Sequence[int]) -> PureState:
    """Reorder modes: output mode ``i`` holds input mode ``order[i]``."""
    if sorted(order) != list(range(state.mode_count)):
        raise FockError(f"{order} is not a permutation of 0..{state.mode_count - 1}")
    order = tuple(order)
    amps = {
        tuple(key[m] for m in order): amp for key, amp in state.amplitudes.items()
    }
    return PureState(state.mode_count, state.cutoff, amps)


def prune(state: PureState, weight_budget: float) -> PureState:
    """Drop small amplitudes, losing at most ``weight_budget`` of squared norm.

    Uses the uniform bound |amp|^2 * key_count <= budget, so the removed weight
    is provably inside the budget without sorting.  Circuit builders use this
    to clear float-cancellation residue against their truncation-tail budget.
    """
    n = len(state.amplitudes)
    if n == 0 or weight_budget <= 0.0:
        return state
    threshold = math.sqrt(weight_budget / n)
    amps = {k: v for k, v in state.amplitudes.items() if abs(v) > threshold}
    return PureState(state.mode_count, state.cutoff, amps)


def coherent_tail_weight(gamma: float, cutoff: int) -> float:
    """Probability weight a coherent state of amplitude ``gamma`` loses to truncation.

    Equals the Poisson(gamma^2) tail beyond ``cutoff`` photons, summed directly
    so tiny tails do not suffer cancellation.
    """
    if cutoff < 0:
        raise FockError("cutoff must be nonnegative")
    mean = gamma * gamma
    if mean == 0.0:
        return 0.0
    # term at n = cutoff + 1, then ratio recurrence
    n = cutoff + 1
    log_term = -mean + n * math.log(mean) - math.lgamma(n + 1)
    term = math.exp(log_term)
    if not term > 1e-320 and n <= mean:
        # The first tail term underflowed below the Poisson mode, or is nan
        # because gamma^2 overflowed.  Terms rise up to the mode, so the kept
        # weight is at most (cutoff + 1) * 1e-320 and the tail rounds to 1.
        return 1.0
    total = 0.0
    while term > total * 1e-18 + 1e-320:
        total += term
        n += 1
        term *= mean / n
    return total


def min_cutoff(gamma: float, tail_bound: float = DEFAULT_TAIL_BOUND) -> int:
    """Smallest cutoff whose coherent tail weight is at or below ``tail_bound``."""
    c = 0
    while coherent_tail_weight(gamma, c) > tail_bound:
        c += 1
        if c > MAX_CUTOFF:
            raise CutoffError(f"no feasible cutoff for amplitude {gamma}")
    return c


def format_key(key: OccKey) -> str:
    return ";".join(f"m{i}:({nh},{nv})" for i, (nh, nv) in enumerate(key))


def dump_lines(state: PureState, min_amplitude: float = 0.0) -> list[str]:
    """Canonical text dump: one ``m0:(nH,nV);... <re> <im>`` line per key."""
    lines = []
    for key in state.sorted_keys():
        amp = state.amplitudes[key]
        if abs(amp) < min_amplitude:
            continue
        lines.append(f"{format_key(key)} {amp.real:.17e} {amp.imag:.17e}")
    return lines

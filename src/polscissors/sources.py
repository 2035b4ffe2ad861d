"""Input and target state builders.

Every entangled source exists in two routes: a direct analytic construction
from its known Fock decomposition and a circuit construction that runs the
actual preparation optics (balanced splitter, half-wave plate, polarizing
merge, final split).  The two must agree to high fidelity; tests enforce it.

The direct route is a sum of two products, c_H (x)_k F_{H,k} + c_V (x)_k F_{V,k},
and this module alone knows that ``(coefficient, factors)`` layout.
``arm_factors`` builds the single-mode factors; ``SourcePart`` a source
point: its two branches, each arm's Gram matrix (``_gram``) and its targets'
squared norms (``_overlap``), for ``lambda_state`` and the preparations'
stage loop alike, whose stages ``herald_arm`` weighs and renormalizes and
``SourcePart.score`` flips and scores; ``expand`` writes any sum of products
as a joint state, one pass per branch into one dict, bit for bit the
``tensor``/``scale``/``add`` composition, adding shared keys as ``add`` does
(a source's or a target's branches share only the all-vacuum key).  Both routes refuse, with
``CutoffError``, a source whose branch would form more than
``fock.MAX_SOURCE_PRODUCTS`` amplitude products.  The limit guards the
``lambda``, ``lambda-circuit`` and ``target-omega`` state dumps, and a
preparation's expanded state: the stage loop itself keeps the source as its
two products and builds no joint state.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Collection, Iterable, Sequence

from . import analytics
from .fock import (
    DEFAULT_TAIL_BOUND,
    DEFAULT_TOL,
    H,
    MAX_SOURCE_PRODUCTS,
    CutoffError,
    Factor,
    FockError,
    OccKey,
    PureState,
    _compact,
    _raw_state,
    add,
    coherent_tail_weight,
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


def coherent_factor(gamma: float, pol: str, cutoff: int, tail_bound: float = DEFAULT_TAIL_BOUND) -> Factor:
    """|gamma_pol> truncated at the cutoff, as an uncompacted single-mode factor: the one coherent amplitude rule.

    Raises when the cutoff leaves more than ``tail_bound`` of probability in
    the truncated tail, so downstream accuracy budgets are protected.  Every
    occupation 0..cutoff is kept, in order; its callers compact once, through
    ``fock._compact``.  Each amplitude is ``0j + f_n(gamma, n)``, bit for bit
    ``0j + complex(f_n(gamma, n))``: the imaginary part is +0.0.
    """
    tail = coherent_tail_weight(gamma, cutoff)
    if tail > tail_bound:
        raise CutoffError(
            f"cutoff {cutoff} keeps tail {tail:.2e} > {tail_bound:.0e} "
            f"for amplitude {gamma}"
        )
    return {(n, 0) if pol == H else (0, n): 0j + analytics.f_n(gamma, n) for n in range(cutoff + 1)}


def coherent(gamma: float, pol: str, cutoff: int, tail_bound: float = DEFAULT_TAIL_BOUND) -> PureState:
    """Polarized coherent state |gamma_pol> truncated at the cutoff: ``coherent_factor`` on one mode."""
    # the keys are valid by construction: make_state's values, without its key checks
    factor = coherent_factor(gamma, pol, cutoff, tail_bound)
    return _raw_state(1, cutoff, {(occ,): a for occ, a in factor.items()})


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
    alpha, remainder = analytics.alpha_beta(params.delta, params.t0)
    amps = [alpha]
    for t in params.split_ts:
        amps.append(remainder * math.sqrt(t))
        remainder *= math.sqrt(1.0 - t)
    amps.append(remainder)
    return tuple(amps)


# a single photon on one arm: the H branch's and the V branch's factor
PHOTONS: tuple[Factor, Factor] = ({(1, 0): 1 + 0j}, {(0, 1): 1 + 0j})


def arm_factors(
    params: SourceParams,
    n: int,
    photon_arms: Collection[int] = (),
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> tuple[tuple[Factor, ...], tuple[Factor, ...]]:
    """The H and V branches' single-mode factors of the n-arm source, one per arm.

    Arm k holds |gamma_k, H> in the H branch and |-gamma_k, V> in the V
    branch, both from one ``coherent_factor`` build: the V factor is the H
    factor with its odd occupations negated.  Each of ``photon_arms`` holds a
    single photon instead, the ``PHOTONS`` factor objects.  The branches'
    coefficients are the caller's.
    """
    h_arms, v_arms = [], []
    for k, g in enumerate(split_amplitudes(params, n)):
        if k in photon_arms:
            h, v = PHOTONS
        else:
            h = _compact(coherent_factor(g, H, params.cutoff, tail_bound))
            # f_n(-gamma) is (-1)^n f_n(gamma) bit for bit; the imaginary part stays +0.0
            v = {(0, m): complex(-a.real, a.imag) if m % 2 else a for (m, _), a in h.items()}
        h_arms.append(h)
        v_arms.append(v)
    return tuple(h_arms), tuple(v_arms)


def _check_branch_size(sizes: Iterable[int]) -> None:
    """Refuse a branch that multiplies more than ``MAX_SOURCE_PRODUCTS`` products.

    ``sizes`` are the arms' factor sizes, so their product bounds the keys of
    one branch before any product is formed.
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


def expand(branches: Sequence[tuple[complex, Sequence[Factor]]], cutoff: int) -> PureState:
    """The sum of products ``sum_b c_b (x)_k F_{b,k}`` as one ``PureState`` on ``cutoff``.

    Each branch ``(c_b, factors)`` holds one factor per arm, at least two
    arms.  One pass per branch writes its products straight into one dict.
    Keys, amplitudes and insertion order are, bit for bit, those of
    ``reduce(add, (scale(reduce(tensor, F_b), c_b) for each b))`` with each
    factor as a single-mode state: a product is formed left to right and
    compacted as each ``tensor`` step does, then scaled and compacted.  From
    the second branch on, each product is summed as ``add`` sums it, with one
    dict probe: a new key stores ``0j + v``, which turns a -0.0 part into
    +0.0, and an existing key ``prev + v``, dropped when that falls below
    ``DEFAULT_TOL``.  The branches of a source or a target share at most the
    all-vacuum key, but a pqs2 stage's share more.
    Refuses, before any product, a branch of more than ``MAX_SOURCE_PRODUCTS``
    products (``CutoffError``) or with a NaN, which no tolerance keeps (``FockError``).
    """
    for b, (c, factors) in enumerate(branches):
        _check_branch_size(len(f) for f in factors)
        if cmath.isnan(c):
            raise FockError(f"NaN coefficient of branch {b}")
        for arm, f in enumerate(factors):
            for occ, a in f.items():
                if cmath.isnan(a):
                    raise FockError(f"NaN amplitude at key {occ} of arm {arm} in branch {b}")
    out: dict[OccKey, complex] = {}
    setdefault = out.setdefault
    for b, (c, factors) in enumerate(branches):
        items = [[((occ,), a) for occ, a in f.items()] for f in factors]
        for ka, va in _prefix(items):
            for kb, vb in items[-1]:
                v = va * vb
                if abs(v) >= DEFAULT_TOL and abs(v := v * c) >= DEFAULT_TOL:
                    key = ka + kb
                    if not b:
                        out[key] = v
                        continue
                    # abs(0j + v) == abs(v), so a new key is never dropped
                    first = 0j + v
                    prev = setdefault(key, first)
                    if prev is not first:
                        if abs(v := prev + v) < DEFAULT_TOL:
                            del out[key]
                        else:
                            out[key] = v
    return PureState(len(branches[0][1]), cutoff, out)


def _with(per_arm: tuple, arm: int, entry) -> tuple:
    return per_arm[:arm] + (entry,) + per_arm[arm + 1 :]


def _gram(bras, kets) -> tuple[tuple[complex, ...], ...]:
    """One arm's Gram matrix, bra branch by ket branch, in one pass: <fb|fk> from 0j over ``fb`` in order."""
    rows = []
    for fb in bras:
        row = []
        for fk in kets:
            total, get = 0j, fk.get
            for occ, a in fb.items():
                if (b := get(occ)) is not None:
                    total += a.conjugate() * b
            row.append(total)
        rows.append(tuple(row))
    return tuple(rows)


def _overlap(bra, ket, grams) -> complex:
    """<bra|ket> of two sums of products: their coefficients and ``grams``, per arm the ``_gram``."""
    total = 0j
    for i, (cb, _) in enumerate(bra):
        cb = cb.conjugate()
        for j, (ck, _) in enumerate(ket):
            product = 1  # int, as ``math.prod`` starts: 1 * z can turn a -0.0 part into +0.0
            for gram in grams:
                product *= gram[i][j]
            total += cb * ck * product
    return total


def herald_arm(state, grams, arm: int, apply) -> tuple:
    """Herald ``arm``: (total probability, kept state, its Grams); the state is None when none heralds.

    ``apply`` maps the arm's factor of each branch to one image per accepted
    pattern (``TransferTable.apply``).  A pattern's probability is the state's
    squared norm read with its images' gram on that arm; the first pattern
    that heralds is kept, renormalized.
    """
    total, kept = 0.0, None
    for images in apply([f[arm] for _, f in state]):
        pattern_grams = _with(grams, arm, _gram(images, images))
        weight = _overlap(state, state, pattern_grams).real
        total += weight
        if kept is None and weight > 0.0:
            norm = math.sqrt(weight)
            kept = tuple((c / norm, _with(f, arm, im)) for (c, f), im in zip(state, images)), pattern_grams
    return (total, *kept) if kept else (total, None, grams)


class SourcePart:
    """One n-arm source point, before any knob: its branches, each arm's ``_gram`` and target norms.

    ``source`` is (m_n, H factors), (m_n e^(i phi), V factors) of ``arm_factors``.
    ``target_norms[k]`` is the squared norm of the heralded target once
    ``arms[:k + 1]`` are truncated: the source's coefficients (the fidelity is
    scale-free), with the ``PHOTONS`` gram on each truncated arm.
    """

    def __init__(self, params: SourceParams, n: int, arms: tuple[int, ...], tail_bound: float) -> None:
        # m_n first, so a degenerate source raises before any factor is built
        norm = analytics.m_n(split_amplitudes(params, n), params.phi)
        h, v = arm_factors(params, n, (), tail_bound)
        self.arms = arms
        self.source = (norm, h), (norm * cmath.exp(1j * params.phi), v)
        self.grams = grams = tuple(_gram(pair, pair) for pair in zip(h, v))
        self.target_norms = []
        for arm in arms:
            grams = _with(grams, arm, _gram(PHOTONS, PHOTONS))
            self.target_norms.append(_overlap(self.source, self.source, grams).real)

    def score(self, state, grams, count: int, flip: int | None) -> tuple:
        """(fidelity to the ``arms[:count]`` target, state) of ``herald_arm``'s state, arm ``flip`` flipped."""
        if flip is not None:
            # a gram term meets one occupation in bra and ket, so the flip's signs cancel in it
            state = tuple(
                (c, _with(f, flip, {occ: -a if occ[1] % 2 else a for occ, a in f[flip].items()}))
                for c, f in state
            )
        cross = self.grams  # the target, ``source`` with a photon on each truncated arm, vs the state
        for k in self.arms[:count]:
            cross = _with(cross, k, _gram(PHOTONS, [f[k] for _, f in state]))
        overlap = _overlap(self.source, state, cross)
        norms = self.target_norms[count - 1] * _overlap(state, state, grams).real
        return abs(overlap) ** 2 / norms, state


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
    """n-arm entangled coherent source from its closed form: ``expand`` of a ``SourcePart``'s branches."""
    return expand(SourcePart(params, n, (), tail_bound).source, params.cutoff)


def lambda_circuit(
    params: SourceParams, n: int, tail_bound: float = DEFAULT_TAIL_BOUND
) -> PureState:
    """n-arm source built by splitting the last arm of the circuit-built two-arm state.

    Refused before any element runs when the closed form's branch would
    multiply more than ``MAX_SOURCE_PRODUCTS`` products.
    """
    _check_branch_size(len(f) for f in arm_factors(params, n, (), math.inf)[0])
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
    h, v = arm_factors(params, n, arms, tail_bound)
    norm = 1.0 / math.sqrt(2.0)
    return expand(((norm, h), (norm * cmath.exp(1j * params.phi), v)), params.cutoff)


def target_omega(
    n: int, j: int, params: SourceParams, tail_bound: float = DEFAULT_TAIL_BOUND
) -> PureState:
    """Target after truncating arms 0..j-1 (see ``heralded_target``)."""
    if not 1 <= j <= n:
        raise FockError(f"j = {j} outside 1..{n}")
    return heralded_target(params, n, tuple(range(j)), tail_bound)

"""End-to-end entanglement preparation pipelines.

A ``Pipeline`` truncates arms of the n-arm entangled coherent source in order,
one scissors method per arm; ``prepare_stages`` simulates any of them.  The
named pipelines are two-arm cases: truncating the second arm gives the hybrid
photon-qubit vs coherent-arm entanglement, then the first as well the
polarization Bell pair.  They also have an analytic route (closed forms); the
two must agree within the verification budget.

The simulation builds only what its first scissors stage can herald: the
source restricted to the first arm's vacuum and single-photon keys, kept with
its heralded targets for the last parameter point, so verify's two chains of
one sample and the sweep cells of one delta row build it once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import Callable

from . import analytics, sources
from .elements import apply_pol_phase
from .fock import DEFAULT_TAIL_BOUND, V, Occupation, PureState, fidelity, min_cutoff
from .scissors import ScissorsResult, TransferTable, pqs1_apply, pqs2_apply
from .sources import SourceParams

# Sweep axis of each scissors method's knob: pqs1 transmissivity, pqs2 squeezing |gamma|.
KNOB_AXES = {"pqs1": "t", "pqs2": "gamma_abs"}

HYBRID_ARMS = (1,)
BELL_ARMS = (1, 0)


@dataclass(frozen=True)
class Pipeline:
    """A preparation: ``arms`` of the ``n``-arm source truncated in order, with ``methods``."""

    methods: tuple[str, ...]
    arms: tuple[int, ...]
    n: int = 2

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError(f"a pipeline needs n >= 2 arms, got n = {self.n}")
        for method in self.methods:
            if method not in KNOB_AXES:
                raise ValueError(f"unknown scissors method {method!r}")
        if not self.arms:
            raise ValueError("a pipeline truncates at least one arm")
        if not all(0 <= arm < self.n for arm in self.arms) or len(set(self.arms)) < len(self.arms):
            raise ValueError(f"arms {self.arms} must be distinct arms of 0..{self.n - 1}")
        if len(self.methods) != len(self.arms):
            raise ValueError(
                f"need one scissors method per truncated arm ({len(self.arms)}), "
                f"got {len(self.methods)}"
            )

    @cached_property
    def method(self) -> str:
        """The scissors method of a one-method pipeline, such as every named one."""
        (method,) = set(self.methods)
        return method

    @property
    def knob_axis(self) -> str:
        return KNOB_AXES[self.method]


# The one place preparation names are decided; every other layer reads this table.
PIPELINES = {
    "hybrid-pqs1": Pipeline(("pqs1",), HYBRID_ARMS),
    "hybrid-pqs2": Pipeline(("pqs2",), HYBRID_ARMS),
    "bell-pqs1": Pipeline(("pqs1", "pqs1"), BELL_ARMS),
    "bell-pqs2": Pipeline(("pqs2", "pqs2"), BELL_ARMS),
}
PREPARATIONS = tuple(PIPELINES)


def omega_pipeline(n: int, j: int, methods: tuple[str, ...]) -> Pipeline:
    """The Omega_{n,j} preparation: arms ``0..j-1`` of the n-arm source, one method each."""
    if n < 2 or not 1 <= j <= n:
        raise ValueError(f"omega needs n >= 2 and 1 <= j <= n, got n = {n} and j = {j}")
    return Pipeline(tuple(methods), tuple(range(j)), n)


@dataclass(frozen=True)
class PrepResult:
    probability: float
    fidelity: float
    state: PureState | None


def required_cutoff(delta: float, t0: float, tail_bound: float = DEFAULT_TAIL_BOUND) -> int:
    """Cutoff so the larger source arm keeps its truncation tail under budget."""
    a, b = analytics.alpha_beta(delta, t0)
    return max(1, min_cutoff(max(a, b), tail_bound))


def _scissors(
    method: str, knob: float, state: PureState, mode: int, *, herald_first: bool = False
) -> ScissorsResult:
    """The circuit of ``method`` at ``knob``; looked up at call time, so patches and tracers apply."""
    if method == "pqs1":
        return pqs1_apply(state, mode, knob, herald_first=herald_first)
    return pqs2_apply(state, mode, complex(knob), herald_first=herald_first)


@dataclass
class _PointBuilds:
    """The restricted source and the heralded targets built at one parameter point.

    ``first`` is ``(arm, occupations, kept, source)``: the source restricted
    to the ``kept`` ones of its ``arm`` factor ``occupations``.  The builders
    are looked up in ``sources`` at call time, so patches and tracers apply.
    """

    params: SourceParams
    n: int
    tail_bound: float
    first: tuple[int, list[Occupation], list[Occupation], PureState] | None = None
    targets: dict[tuple[int, ...], PureState] = field(default_factory=dict)

    def source(self, arm: int, fill: Callable[[list[Occupation]], list[Occupation]]) -> PureState:
        """The source with only the ``arm`` occupations the first stage heralds.

        ``fill`` fills the first stage's table from the arm's factor
        occupations and returns those with non-empty rows; ``lambda_state``
        calls it after its own checks, so every error keeps its order.  The
        kept build is reused when its occupations fill this call's table to
        the same kept list, so a table's rows never depend on the cache.
        """
        if self.first is not None and self.first[0] == arm:
            _, occupations, kept, state = self.first
            if fill(occupations) == kept:
                return state
        seen: list[list[Occupation]] = []

        def accept(occupations: list[Occupation]) -> list[Occupation]:
            seen[:] = occupations, fill(occupations)
            return seen[1]

        state = sources.lambda_state(self.params, self.n, self.tail_bound, herald=(arm, accept))
        self.first = (arm, *seen, state)
        return state

    def target(self, arms: tuple[int, ...]) -> PureState:
        """``heralded_target`` of the truncated ``arms``."""
        if arms not in self.targets:
            self.targets[arms] = sources.heralded_target(self.params, self.n, arms, self.tail_bound)
        return self.targets[arms]


# The builds of the last parameter point: verify's pqs1 and pqs2 Bell chains of
# one sample run back to back at one point, and so do the sweep cells of one
# delta row.
_last: _PointBuilds | None = None


def _point_builds(params: SourceParams, n: int, tail_bound: float) -> _PointBuilds:
    """The kept builds if the last call was at this point, else new ones that replace them."""
    global _last
    if _last is None or (_last.params, _last.n, _last.tail_bound) != (params, n, tail_bound):
        _last = _PointBuilds(params, n, tail_bound)
    return _last


def prepare_stages(
    pipeline: Pipeline,
    delta: float,
    phi: float,
    t0: float,
    knobs: dict[str, float],
    split_ts: tuple[float, ...] = (),
    cutoff: int | None = None,
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> tuple[PrepResult, ...]:
    """Run ``pipeline`` by circuit simulation; one result per stage run.

    ``knobs`` maps each method's knob axis (``KNOB_AXES``) to its value, so a
    sweep cell's parameters can be passed as they are.  The scissors run
    sequentially with renormalization between stages, so a stage's
    probability is the product of the stage probabilities so far; the chain
    stops at the first stage that heralds nothing.  Each truncation flips the
    heralded branch sign once; after an odd count the residual sign is removed
    by a feed-forward pi phase on the first truncated arm, and the stage is
    scored against the plus-branch ``heralded_target``.  The next stage runs
    on the state before that correction.  The last result is the
    preparation's.  A stage applies its method's and knob's ``TransferTable``,
    built by the circuit and shared by the stages of this call.

    Herald first: the first table is filled from the first arm's factor
    occupations before the source exists, and the source holds only the keys
    whose occupation there has a non-empty row: the full source's keys, bit
    for bit, less those the first stage maps to nothing.  That source and the
    stage targets are kept for the last parameter point.
    """
    if cutoff is None:
        cutoff = required_cutoff(delta, t0, tail_bound)
    params = SourceParams(delta=delta, phi=phi, t0=t0, split_ts=split_ts, cutoff=cutoff)
    tables: dict[tuple[str, float], TransferTable] = {}

    def table(method: str, knob: float) -> TransferTable:
        if (method, knob) not in tables:
            circuit = partial(_scissors, method, knob, herald_first=True)
            tables[method, knob] = TransferTable(circuit, cutoff)
        return tables[method, knob]

    def herald(method: str, knob: float, state: PureState, mode: int) -> ScissorsResult:
        return table(method, knob).apply(state, mode)

    def fill(occupations: list[Occupation]) -> list[Occupation]:
        first = pipeline.methods[0]
        return table(first, knobs[KNOB_AXES[first]]).fill(occupations)

    builds = _point_builds(params, pipeline.n, tail_bound)
    source = builds.source(pipeline.arms[0], fill)
    return _run_stages(pipeline, source, knobs, herald, builds.target)


def _run_stages(pipeline, source, knobs, herald, target) -> tuple[PrepResult, ...]:
    """The stage loop of ``prepare_stages`` on ``source``.

    ``herald(method, knob, state, mode)`` runs a stage, and ``target(arms)``
    is the heralded target of the arms truncated so far.
    """
    arms = pipeline.arms
    current = source
    probability = 1.0
    stages = []
    for count, (mode, method) in enumerate(zip(arms, pipeline.methods), 1):
        result = herald(method, knobs[KNOB_AXES[method]], current, mode)
        probability *= result.total_probability
        current = result.canonical_state
        if current is None:
            stages.append(PrepResult(probability, 0.0, None))
            break
        state = apply_pol_phase(current, arms[0], V, math.pi) if count % 2 else current
        stages.append(PrepResult(probability, fidelity(state, target(arms[:count])), state))
    return tuple(stages)


def prepare_bell(method: str, delta: float, phi: float, t0: float, knob: float) -> PrepResult:
    """Truncate both arms to the Bell pair by expand-then-project: the tables' oracle.

    It builds the full source and its targets anew and keeps nothing.
    """
    pipeline, knobs = Pipeline((method, method), BELL_ARMS), {KNOB_AXES[method]: knob}
    params = SourceParams(delta, phi, t0, (), required_cutoff(delta, t0))
    source = sources.lambda_state(params, 2)
    target = partial(sources.heralded_target, params, 2)
    return _run_stages(pipeline, source, knobs, _scissors, target)[-1]


def prepare_named(
    name: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None = None,
    tail_bound: float = DEFAULT_TAIL_BOUND,
) -> PrepResult:
    """Run the named pipeline, such as ``bell-pqs1``; the preparation's result."""
    if name not in PIPELINES:
        raise ValueError(f"unknown preparation {name!r}")
    pipeline = PIPELINES[name]
    knobs = {pipeline.knob_axis: knob}
    return prepare_stages(pipeline, delta, phi, t0, knobs, cutoff=cutoff, tail_bound=tail_bound)[-1]


def analytic_named(name: str, delta: float, phi: float, t0: float, knob: float) -> analytics.AnalyticPF:
    """Closed-form probability and fidelity for a named pipeline."""
    if name not in PIPELINES:
        raise ValueError(f"unknown preparation {name!r}")
    pipeline = PIPELINES[name]
    # looked up at call time, so a patched or traced closed form is the one used
    closed_form = analytics.pf_bell if pipeline.arms == BELL_ARMS else analytics.pf_hybrid
    return closed_form(pipeline.method, delta, phi, t0, knob)

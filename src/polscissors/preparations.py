"""End-to-end entanglement preparation pipelines.

A ``Pipeline`` truncates arms of the n-arm entangled coherent source in order,
one scissors method per arm; ``prepare_stages`` simulates any of them.  The
named pipelines are two-arm cases: truncating the second arm gives the hybrid
photon-qubit vs coherent-arm entanglement, then the first as well the
polarization Bell pair.  They also have an analytic route (closed forms); the
two must agree within the verification budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import analytics
from .fock import PureState, min_cutoff
from .scissors import PQS1, PQS2, truncation_chain
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
        for method in self.methods:
            if method not in KNOB_AXES:
                raise ValueError(f"unknown scissors method {method!r}")

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
    if len(methods) != j:
        raise ValueError(f"need one scissors method per truncated arm ({j}), got {len(methods)}")
    return Pipeline(tuple(methods), tuple(range(j)), n)


@dataclass(frozen=True)
class PrepResult:
    probability: float
    fidelity: float
    state: PureState | None


def required_cutoff(delta: float, t0: float, tail_bound: float = 1e-12) -> int:
    """Cutoff so the larger source arm keeps its truncation tail under budget."""
    a, b = analytics.alpha_beta(delta, t0)
    return max(1, min_cutoff(max(a, b), tail_bound))


def _knob(method: str, value: float) -> PQS1 | PQS2:
    return PQS1(t=value) if method == "pqs1" else PQS2(gamma=complex(value))


def prepare_stages(
    pipeline: Pipeline,
    delta: float,
    phi: float,
    t0: float,
    knobs: dict[str, float],
    split_ts: tuple[float, ...] = (),
    cutoff: int | None = None,
    tail_bound: float = 1e-12,
) -> tuple[PrepResult, ...]:
    """Run ``pipeline`` by full circuit simulation; one result per stage run.

    ``knobs`` maps each method's knob axis (``KNOB_AXES``) to its value, so a
    sweep cell's parameters can be passed as they are.  The last result is
    the preparation's; the chain stops early at a stage that heralds nothing.
    """
    if cutoff is None:
        cutoff = required_cutoff(delta, t0, tail_bound)
    params = SourceParams(delta=delta, phi=phi, t0=t0, split_ts=split_ts, cutoff=cutoff)
    scissors = tuple(_knob(m, knobs[KNOB_AXES[m]]) for m in pipeline.methods)
    return tuple(
        PrepResult(s.total_probability, s.target_fidelity or 0.0, s.canonical_state)
        for s in truncation_chain(params, pipeline.n, pipeline.arms, scissors, tail_bound)
    )


def prepare_hybrid(
    method: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None = None,
    tail_bound: float = 1e-12,
) -> PrepResult:
    """Truncate the second arm of the two-arm source; full circuit simulation.

    The heralded branch sign left by the single truncation is removed by a
    feed-forward pi phase on the photon qubit before comparing against the
    plus-branch target.
    """
    pipeline, knobs = Pipeline((method,), HYBRID_ARMS), {KNOB_AXES[method]: knob}
    return prepare_stages(pipeline, delta, phi, t0, knobs, cutoff=cutoff, tail_bound=tail_bound)[-1]


def prepare_bell(
    method: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None = None,
    tail_bound: float = 1e-12,
) -> PrepResult:
    """Truncate both arms down to the polarization Bell pair."""
    pipeline, knobs = Pipeline((method, method), BELL_ARMS), {KNOB_AXES[method]: knob}
    return prepare_stages(pipeline, delta, phi, t0, knobs, cutoff=cutoff, tail_bound=tail_bound)[-1]


def prepare_hybrid_and_bell(
    method: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None = None,
    tail_bound: float = 1e-12,
) -> tuple[PrepResult, PrepResult]:
    """Both pipelines of one method from a single truncation chain.

    Returns the same ``(prepare_hybrid(...), prepare_bell(...))`` values as
    the two separate calls: the chain over the second, then the first arm is
    read after its first stage and after its last.
    """
    pipeline, knobs = Pipeline((method, method), BELL_ARMS), {KNOB_AXES[method]: knob}
    stages = prepare_stages(pipeline, delta, phi, t0, knobs, cutoff=cutoff, tail_bound=tail_bound)
    return stages[0], stages[-1]


def prepare_named(
    name: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None = None,
    tail_bound: float = 1e-12,
) -> PrepResult:
    """Dispatch on a pipeline name like ``bell-pqs1``."""
    if name not in PIPELINES:
        raise ValueError(f"unknown preparation {name!r}")
    pipeline = PIPELINES[name]
    runner = prepare_bell if pipeline.arms == BELL_ARMS else prepare_hybrid
    return runner(pipeline.method, delta, phi, t0, knob, cutoff, tail_bound)


def analytic_named(name: str, delta: float, phi: float, t0: float, knob: float) -> analytics.AnalyticPF:
    """Closed-form probability and fidelity for a named pipeline."""
    if name not in PIPELINES:
        raise ValueError(f"unknown preparation {name!r}")
    pipeline = PIPELINES[name]
    # looked up at call time, so a patched or traced closed form is the one used
    closed_form = analytics.pf_bell if pipeline.arms == BELL_ARMS else analytics.pf_hybrid
    return closed_form(pipeline.method, delta, phi, t0, knob)

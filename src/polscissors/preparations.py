"""End-to-end entanglement preparation pipelines.

The named pipelines mirror the performance-analysis layouts: the two-arm
entangled coherent source is truncated on its second arm (hybrid photon-qubit
vs coherent-arm entanglement), then optionally on its first arm as well
(polarization Bell pair).  Each pipeline exists in a numeric route (full
circuit simulation) and an analytic route (closed forms); the two must agree
within the verification budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import analytics
from .fock import PureState, min_cutoff
from .scissors import PQS1, PQS2, ScissorsResult, prepare_omega, truncation_chain
from .sources import SourceParams

# Sweep axis of each scissors method's knob: pqs1 transmissivity, pqs2 squeezing |gamma|.
KNOB_AXES = {"pqs1": "t", "pqs2": "gamma_abs"}


@dataclass(frozen=True)
class Pipeline:
    """A named preparation: its scissors method, and whether it truncates both arms."""

    method: str
    bell: bool

    @property
    def knob_axis(self) -> str:
        return KNOB_AXES[self.method]


# The one place preparation names are decided; every other layer reads this table.
PIPELINES = {
    "hybrid-pqs1": Pipeline("pqs1", bell=False),
    "hybrid-pqs2": Pipeline("pqs2", bell=False),
    "bell-pqs1": Pipeline("pqs1", bell=True),
    "bell-pqs2": Pipeline("pqs2", bell=True),
}
PREPARATIONS = tuple(PIPELINES)


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
    if method == "pqs1":
        return PQS1(t=value)
    if method == "pqs2":
        return PQS2(gamma=complex(value))
    raise ValueError(f"unknown scissors method {method!r}")


def _two_arm_chain(
    arms: tuple[int, ...],
    method: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None,
    tail_bound: float,
) -> tuple[PrepResult, ...]:
    """Truncate ``arms`` of the two-arm source with one method; one result per stage run."""
    if cutoff is None:
        cutoff = required_cutoff(delta, t0, tail_bound)
    params = SourceParams(delta=delta, phi=phi, t0=t0, cutoff=cutoff)
    scissors = (_knob(method, knob),) * len(arms)
    return tuple(
        PrepResult(s.total_probability, s.target_fidelity or 0.0, s.canonical_state)
        for s in truncation_chain(params, 2, arms, scissors, tail_bound)
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
    return _two_arm_chain((1,), method, delta, phi, t0, knob, cutoff, tail_bound)[-1]


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
    return _two_arm_chain((1, 0), method, delta, phi, t0, knob, cutoff, tail_bound)[-1]


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
    stages = _two_arm_chain((1, 0), method, delta, phi, t0, knob, cutoff, tail_bound)
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
    runner = prepare_bell if pipeline.bell else prepare_hybrid
    return runner(pipeline.method, delta, phi, t0, knob, cutoff, tail_bound)


def analytic_named(name: str, delta: float, phi: float, t0: float, knob: float) -> analytics.AnalyticPF:
    """Closed-form probability and fidelity for a named pipeline."""
    if name not in PIPELINES:
        raise ValueError(f"unknown preparation {name!r}")
    pipeline = PIPELINES[name]
    # looked up at call time, so a patched or traced closed form is the one used
    closed_form = analytics.pf_bell if pipeline.bell else analytics.pf_hybrid
    return closed_form(pipeline.method, delta, phi, t0, knob)


def prepare_omega_pipeline(
    delta: float,
    phi: float,
    t0: float,
    split_ts: tuple[float, ...],
    n: int,
    j: int,
    methods: tuple[str, ...],
    knobs: dict[str, float],
    cutoff: int | None = None,
    tail_bound: float = 1e-12,
) -> ScissorsResult:
    """General n-arm truncation; each stage's knob comes from its method name."""
    if cutoff is None:
        cutoff = required_cutoff(delta, t0, tail_bound)
    params = SourceParams(delta=delta, phi=phi, t0=t0, split_ts=split_ts, cutoff=cutoff)
    stages = tuple(_knob(m, knobs[KNOB_AXES[m]]) for m in methods)
    return prepare_omega(params, n, j, stages, tail_bound)

"""End-to-end entanglement preparation pipelines.

The named pipelines mirror the performance-analysis layouts: the two-arm
entangled coherent source is truncated on its second arm (hybrid photon-qubit
vs coherent-arm entanglement), then optionally on its first arm as well
(polarization Bell pair).  Each pipeline exists in a numeric route (full
circuit simulation) and an analytic route (closed forms); the two must agree
within the verification budget.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import analytics
from .fock import PureState, V, add, fidelity, make_state, min_cutoff, scale, tensor
from .elements import apply_pol_phase
from .scissors import PQS1, PQS2, ScissorsResult, apply_scissors, prepare_omega
from .sources import SourceParams, coherent, xi_direct

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


def _photon_pair_target(phi: float, cutoff: int) -> PureState:
    phase = cmath.exp(1j * phi)
    return make_state(
        2,
        cutoff,
        [((((1, 0), (1, 0))), 1.0 / math.sqrt(2.0)),
         ((((0, 1), (0, 1))), phase / math.sqrt(2.0))],
    )


def _hybrid_target(alpha: float, phi: float, cutoff: int, tail_bound: float) -> PureState:
    """Coherent arm in mode 0, photon qubit in mode 1, plus-branch phase."""
    branch_h = tensor(
        coherent(alpha, "H", cutoff, tail_bound),
        make_state(1, cutoff, [((((1, 0)),), 1.0)]),
    )
    branch_v = tensor(
        coherent(-alpha, "V", cutoff, tail_bound),
        make_state(1, cutoff, [((((0, 1)),), 1.0)]),
    )
    combined = add(branch_h, scale(branch_v, cmath.exp(1j * phi)))
    return scale(combined, 1.0 / math.sqrt(2.0))


def _first_stage(
    method: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None,
    tail_bound: float,
) -> tuple[SourceParams, PQS1 | PQS2, ScissorsResult]:
    """Build the two-arm source and truncate its second arm (shared by both families)."""
    if cutoff is None:
        cutoff = required_cutoff(delta, t0, tail_bound)
    params = SourceParams(delta=delta, phi=phi, t0=t0, cutoff=cutoff)
    source = xi_direct(params, tail_bound)
    scissors = _knob(method, knob)
    return params, scissors, apply_scissors(source, 1, scissors)


def _hybrid_finish(params: SourceParams, first: ScissorsResult, tail_bound: float) -> PrepResult:
    """Feed-forward pi phase on the photon qubit, then the plus-branch fidelity."""
    if first.canonical_state is None:
        return PrepResult(first.total_probability, 0.0, None)
    state = apply_pol_phase(first.canonical_state, 1, V, math.pi)
    target = _hybrid_target(params.alpha, params.phi, params.cutoff, tail_bound)
    return PrepResult(first.total_probability, fidelity(state, target), state)


def _bell_finish(params: SourceParams, scissors: PQS1 | PQS2, first: ScissorsResult) -> PrepResult:
    """Truncate the first arm of the stage-one state down to the photon pair."""
    if first.canonical_state is None:
        return PrepResult(0.0, 0.0, None)
    second = apply_scissors(first.canonical_state, 0, scissors)
    total = first.total_probability * second.total_probability
    if second.canonical_state is None:
        return PrepResult(total, 0.0, None)
    target = _photon_pair_target(params.phi, params.cutoff)
    return PrepResult(total, fidelity(second.canonical_state, target), second.canonical_state)


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
    params, _, first = _first_stage(method, delta, phi, t0, knob, cutoff, tail_bound)
    return _hybrid_finish(params, first, tail_bound)


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
    params, scissors, first = _first_stage(method, delta, phi, t0, knob, cutoff, tail_bound)
    return _bell_finish(params, scissors, first)


def prepare_hybrid_and_bell(
    method: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None = None,
    tail_bound: float = 1e-12,
) -> tuple[PrepResult, PrepResult]:
    """Both pipelines of one method from a single first-arm truncation.

    Returns the same ``(prepare_hybrid(...), prepare_bell(...))`` values as
    the two separate calls, with the source built and truncated once.
    """
    params, scissors, first = _first_stage(method, delta, phi, t0, knob, cutoff, tail_bound)
    return _hybrid_finish(params, first, tail_bound), _bell_finish(params, scissors, first)


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
    return prepare_omega(params, n, j, stages)

"""End-to-end entanglement preparation pipelines.

A ``Pipeline`` truncates arms of the n-arm entangled coherent source in order,
one scissors method per arm; ``prepare_stages`` simulates any of them.  The
named pipelines are two-arm cases: truncating the second arm gives the hybrid
photon-qubit vs coherent-arm entanglement, then the first as well the
polarization Bell pair.  They also have an analytic route (closed forms), and
``compare`` alone judges if the two agree within a budget; ``worst`` ranks a NaN top.

The simulation never forms a joint state.  The source is a sum of two
products, c_H (x)_k |+gamma_k, H> + c_V (x)_k |-gamma_k, V>, and every scissors
stage is a linear map on one arm, so every state the stage loop holds is a sum
of at most two products.  Its cost grows with the arm count, not with the size
of the joint Fock space, so no source size limit applies.  ``sources`` owns
that algebra (``SourcePart``, ``herald_arm``, ``SourcePart.score``); this
module keeps the pipelines, the cutoff, the caches, the probability product,
the stop rule and the feed-forward policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

from . import analytics, sources
from .elements import apply_pol_phase
from .fock import DEFAULT_TAIL_BOUND, V, Factor, PureState, fidelity, min_cutoff
from .scissors import ScissorsResult, TransferTable, pqs1_apply, pqs2_apply
from .sources import SourceParams, SourcePart

# Sweep axis of each scissors method's knob: pqs1 transmissivity, pqs2 squeezing |gamma|.
KNOB_AXES = {"pqs1": "t", "pqs2": "gamma_abs"}

HYBRID_ARMS = (1,)
BELL_ARMS = (1, 0)

DEFAULT_BUDGET = 1e-8  # the contract: the largest |dP| and |dF| between the two routes
STATUS_OK, STATUS_MISMATCH = "ok", "mismatch"  # ``compare``'s verdicts on a compared point
STATUS_DEGENERATE, STATUS_UNDERFLOW = "degenerate", "underflow"  # a sweep cell where a route raised the zero rule


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
    """One stage's heralding probability and fidelity, and its heralded state.

    ``branches`` holds the state in the ``sources`` layout on ``cutoff``, empty
    when the stage heralds nothing and on ``prepare_bell``'s joint route, which
    keeps no state.  ``state`` expands it with the one expander, ``sources.expand``.
    """

    probability: float
    fidelity: float
    branches: tuple[tuple[complex, tuple[Factor, ...]], ...] = ()
    cutoff: int = 0

    @property
    def state(self) -> PureState | None:
        """The branches expanded by ``sources.expand`` into one ``PureState``; None when there are none."""
        return sources.expand(self.branches, self.cutoff) if self.branches else None


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


def prepare_stages(
    pipeline: Pipeline,
    delta: float,
    phi: float,
    t0: float,
    knobs: dict[str, float],
    split_ts: tuple[float, ...] = (),
    cutoff: int | None = None,
    tail_bound: float = DEFAULT_TAIL_BOUND,
    tables: dict | None = None,
    parts: dict | None = None,
    last_only: bool = False,
) -> tuple[PrepResult, ...]:
    """Run ``pipeline`` by circuit simulation; one result per stage run.

    ``knobs`` maps each method's knob axis (``KNOB_AXES``) to its value, so a
    sweep cell's parameters can be passed as they are.  The scissors run
    sequentially with renormalization between stages, so a stage's
    probability is the product of the stage probabilities so far; the chain
    stops at the first stage that heralds nothing.  Each truncation flips the
    heralded branch sign once; after an odd count the residual sign is removed
    by a feed-forward pi phase on the first truncated arm, and the stage is
    scored against the plus-branch heralded target.  The next stage runs on
    the state before that correction.  The last result is the preparation's.

    A ``SourcePart`` reads its source point and arms alone and a
    ``TransferTable`` its method and knob, so ``run_sweep`` passes one ``parts``
    dict and one ``tables`` dict to every cell; by default a call makes its own.
    A part's key is the plain tuple (delta, phi, t0, split_ts, cutoff, n, arms,
    tail_bound); its ``SourceParams`` is built only when the key is missing, and
    a source that raises is not kept, so each cell that asks for it raises again.

    With ``last_only`` the result is the last one alone: every stage heralds
    as without it, and a stage before the last is not scored.
    """
    if cutoff is None:
        cutoff = required_cutoff(delta, t0, tail_bound)
    tables = {} if tables is None else tables
    parts = {} if parts is None else parts
    key = delta, phi, t0, split_ts, cutoff, pipeline.n, pipeline.arms, tail_bound
    part = parts.get(key)
    if part is None:
        params = SourceParams(delta, phi, t0, split_ts, cutoff)
        part = parts[key] = SourcePart(params, pipeline.n, pipeline.arms, tail_bound)
    arms, state, grams, probability, stages = pipeline.arms, part.source, part.grams, 1.0, []
    for count, (arm, method) in enumerate(zip(arms, pipeline.methods), 1):
        key = method, knobs[KNOB_AXES[method]]
        if key not in tables:
            tables[key] = TransferTable(partial(_scissors, *key, herald_first=True))
        total, state, grams = sources.herald_arm(state, grams, arm, tables[key].apply)
        probability *= total
        if state is None:
            stages.append(PrepResult(probability, 0.0))
            break
        if last_only and count < len(arms):
            continue
        flip = arms[0] if count % 2 else None
        stages.append(PrepResult(probability, *part.score(state, grams, count, flip), cutoff))
    return tuple(stages)


def _run_stages(pipeline, source, knobs, herald, target) -> tuple[PrepResult, ...]:
    """The stage loop of ``prepare_stages`` on a joint ``source``; its results keep no state.

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
            stages.append(PrepResult(probability, 0.0))
            break
        state = apply_pol_phase(current, arms[0], V, math.pi) if count % 2 else current
        stages.append(PrepResult(probability, fidelity(state, target(arms[:count]))))
    return tuple(stages)


def prepare_bell(method: str, delta: float, phi: float, t0: float, knob: float) -> PrepResult:
    """Truncate both arms to the Bell pair by expand-then-project on the joint source.

    Each circuit runs in full on the whole joint state, which is then
    projected: the oracle of the tables' route.  It builds the source and its
    targets anew and keeps nothing, its result's state included.
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
    return prepare_stages(pipeline, delta, phi, t0, knobs, cutoff=cutoff, tail_bound=tail_bound, last_only=True)[-1]


def analytic_named(name: str, delta: float, phi: float, t0: float, knob: float) -> analytics.AnalyticPF:
    """Closed-form probability and fidelity for a named pipeline."""
    if name not in PIPELINES:
        raise ValueError(f"unknown preparation {name!r}")
    pipeline = PIPELINES[name]
    # looked up at call time, so a patched or traced closed form is the one used
    closed_form = analytics.pf_bell if pipeline.arms == BELL_ARMS else analytics.pf_hybrid
    return closed_form(pipeline.method, delta, phi, t0, knob)


def compare(analytic, numeric, budget: float = DEFAULT_BUDGET) -> tuple[float, float, str]:
    """The one analytic-minus-numeric comparison and its verdict: (|dP|, |dF|, status).

    ``STATUS_OK`` when both are within ``budget``; a NaN, or a numeric P of 0.0
    against a positive closed-form P, reads ``STATUS_MISMATCH`` at any budget.
    """
    dp, df = abs(numeric.probability - analytic.probability), abs(numeric.fidelity - analytic.fidelity)
    lost = numeric.probability == 0.0 < analytic.probability
    return dp, df, STATUS_OK if dp <= budget and df <= budget and not lost else STATUS_MISMATCH


def worst(*deviations: float) -> float:
    """The largest of ``compare``'s deviations, a NaN above any number; of equal ones, the first."""
    return max(deviations, key=lambda d: (math.isnan(d), d))


def closed_form_halves(name: str) -> tuple:
    """What ``analytic_named``'s closed form for ``name`` has of its own: (source half, combination)."""
    if PIPELINES[name].arms == BELL_ARMS:
        return analytics.bell_source, analytics.bell_pf
    return analytics.hybrid_source, analytics.hybrid_pf

"""Seeded analytic-vs-numeric cross-validation and named operating points.

``run_verify`` draws reproducible random parameter tuples, runs every
preparation through the circuit simulation and the closed forms, and reports
per check the ``preparations.worst`` of its ``compare`` deviations; it passes
when ``compare`` reads every sample ``ok``, and a circuit that heralds nothing
scores fidelity 0.0.  ``run_spot`` checks the frozen points' envelopes and ``compare``'s verdict.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field

from . import analytics
from .fock import H, fidelity, make_state, min_cutoff, normalize
from .preparations import BELL_ARMS, DEFAULT_BUDGET, KNOB_AXES, PIPELINES, PREPARATIONS, STATUS_OK, Pipeline, PrepResult
from .preparations import analytic_named, compare, prepare_named, prepare_stages, required_cutoff, worst
from .scissors import ScissorsResult, pqs1_apply, pqs2_apply, qs_apply
from .sources import coherent

DEFAULT_RANGES = {
    "delta": (0.2, 2.0),
    "t": (0.3, 0.98),
    "gamma_abs": (0.01, 0.12),
    "phi": (0.0, 2.0 * math.pi),
    "t0": (0.1, 0.9),
}

CHECK_NAMES = ("qs", "pqs1-random", "pqs2-random") + PREPARATIONS


@dataclass
class CheckStat:
    """One check's largest ``compare`` pair by ``preparations.worst``, whether every status was ok, and its skips."""

    name: str
    max_dp: float = 0.0
    max_df: float = 0.0
    samples: int = 0
    skipped: list[str] = field(default_factory=list)
    ok: bool = True

    def record(self, dp: float, df: float, status: str) -> None:
        self.max_dp = worst(self.max_dp, dp)
        self.max_df = worst(self.max_df, df)
        self.ok &= status == STATUS_OK
        self.samples += 1


@dataclass(frozen=True)
class VerifyReport:
    seed: int
    samples: int
    budget: float
    checks: tuple[CheckStat, ...]
    passed: bool

    def lines(self) -> list[str]:
        out = [
            f"verify seed={self.seed} samples={self.samples} budget={self.budget:.1e}",
            f"{'check':<14} {'samples':>7} {'skipped':>7} {'max|dP|':>12} {'max|dF|':>12}",
        ]
        for c in self.checks:
            out.append(
                f"{c.name:<14} {c.samples:>7} {len(c.skipped):>7} "
                f"{c.max_dp:>12.3e} {c.max_df:>12.3e}"
            )
            out.extend(f"  skipped: {reason}" for reason in c.skipped)
        top = worst(*(d for c in self.checks for d in (c.max_dp, c.max_df)))
        out.append(f"result: {'PASS' if self.passed else 'FAIL'} (worst deviation {top:.3e})")
        return out


def _random_polarized_input(rng: random.Random, cutoff: int):
    """Random normalized single-mode polarized state with occupations <= 2."""
    coeffs = {(nh, nv): complex(rng.gauss(0.0, 1.0), rng.gauss(0.0, 1.0)) for nh in range(3) for nv in range(3)}
    state = normalize(make_state(1, cutoff, [((occ,), amp) for occ, amp in coeffs.items()]))
    weight = 0.0
    for a in coeffs.values():
        weight += abs(a) ** 2
    norm = math.sqrt(weight)
    return state, {k: a / norm for k, a in coeffs.items()}


def _scored(sim: ScissorsResult, target) -> PrepResult:
    """``sim``'s probability and fidelity to ``target``: 0.0 when it heralds nothing, as in ``prepare_stages``."""
    state = sim.canonical_state
    return PrepResult(sim.total_probability, 0.0 if state is None else fidelity(state, target))


def _check_pipelines(
    stats: dict[str, CheckStat],
    tag: str,
    method: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    parts: dict,
    cutoff: int,
    budget: float,
) -> None:
    """Record the hybrid and Bell checks of one method from one Bell chain.

    The hybrid arms ``(1,)`` are the first stage of the Bell arms ``(1, 0)``,
    so each check reads the chain's stage at its own arm count.  The sample's
    chains share ``parts`` and ``cutoff``, its one ``required_cutoff``.  A
    degenerate source skips both checks with the same reason; a degenerate
    closed form skips only its own check.
    """
    names = [name for name, pipeline in PIPELINES.items() if pipeline.method == method]
    bell = Pipeline((method, method), BELL_ARMS)
    try:
        stages = prepare_stages(bell, delta, phi, t0, {KNOB_AXES[method]: knob}, cutoff=cutoff, parts=parts)
    except analytics.DegenerateParameterError as exc:
        for name in names:
            stats[name].skipped.append(f"{tag}: {exc}")
        return
    for name in names:
        num = stages[: len(PIPELINES[name].arms)][-1]
        try:
            ana = analytic_named(name, delta, phi, t0, knob)
        except analytics.DegenerateParameterError as exc:
            stats[name].skipped.append(f"{tag}: {exc}")
            continue
        stats[name].record(*compare(ana, num, budget))


def run_verify(
    seed: int,
    samples: int,
    budget: float = DEFAULT_BUDGET,
    ranges: dict[str, tuple[float, float]] | None = None,
) -> VerifyReport:
    """Cross-validate simulation against closed forms on seeded random tuples.

    ``ranges`` overrides keys of ``DEFAULT_RANGES``; any other key raises ``ValueError``.
    """
    if samples < 1:
        raise ValueError("need at least one sample")
    unknown = sorted(set(ranges or ()) - set(DEFAULT_RANGES))
    if unknown:
        raise ValueError(f"unknown ranges {unknown}; have {sorted(DEFAULT_RANGES)}")
    spans = {**DEFAULT_RANGES, **(ranges or {})}
    rng = random.Random(seed)
    stats = {name: CheckStat(name) for name in CHECK_NAMES}

    for index in range(samples):
        delta = rng.uniform(*spans["delta"])
        t = rng.uniform(*spans["t"])
        gamma = rng.uniform(*spans["gamma_abs"])
        phi = rng.uniform(*spans["phi"])
        t0 = rng.uniform(*spans["t0"])
        tag = f"sample {index}: delta={delta:.3f} phi={phi:.3f} t0={t0:.3f}"

        # single-polarization scissors on a coherent input
        try:
            cut = max(4, min_cutoff(delta))
            coh = coherent(delta, H, cut)
            sim = qs_apply(coh, 0, H, t, herald_first=True)
            ana = analytics.pf_qs(analytics.f_n(delta, 0) ** 2, analytics.f_n(delta, 1) ** 2, t)
            photon = make_state(1, cut, [(((1, 0),), 1.0)])
            stats["qs"].record(*compare(ana, _scored(sim, photon), budget))
        except analytics.DegenerateParameterError as exc:
            stats["qs"].skipped.append(f"{tag}: {exc}")

        # polarized scissors on a random two-photon-sector input
        state, coeffs = _random_polarized_input(rng, 8)
        sqs = {k: abs(v) ** 2 for k, v in coeffs.items()}
        ideal = normalize(make_state(1, 8, [(((1, 0),), coeffs[(1, 0)]), (((0, 1),), coeffs[(0, 1)])]))

        # per method: that input, then the named preparations' full pipelines; the circuits and
        # closed forms are looked up per sample, so a patched or traced one is the one used
        parts, cutoff = {}, required_cutoff(delta, t0)
        methods = (("pqs1", t, pqs1_apply, analytics.pf_pqs1), ("pqs2", gamma, pqs2_apply, analytics.pf_pqs2))
        for method, knob, scissors, closed_form in methods:
            sim = scissors(state, 0, knob, herald_first=True)
            ana = closed_form(sqs[(1, 0)], sqs[(0, 1)], sqs[(0, 0)], sqs[(1, 1)], knob)
            stats[f"{method}-random"].record(*compare(ana, _scored(sim, ideal), budget))
            _check_pipelines(stats, tag, method, delta, phi, t0, knob, parts, cutoff, budget)

    checks = tuple(stats[name] for name in CHECK_NAMES)
    passed = all(c.ok for c in checks)
    return VerifyReport(seed, samples, budget, checks, passed)


@dataclass(frozen=True)
class SpotPoint:
    """An operating point and its expected envelope; its ``SPOT_POINTS`` key is its preparation."""

    delta: float
    phi: float
    t0: float
    knob: float
    repetition_rate: float
    expect_probability: float
    expect_rate: float
    rel_tol: float
    min_fidelity: float


SPOT_POINTS = {
    "bell-pqs1": SpotPoint(
        delta=0.8,
        phi=0.0,
        t0=0.5,
        knob=0.98,
        repetition_rate=6.4e6,
        expect_probability=3.6e-5,
        expect_rate=230.0,
        rel_tol=0.10,
        min_fidelity=0.9,
    ),
    "bell-pqs2": SpotPoint(
        delta=0.8,
        phi=0.0,
        t0=0.5,
        knob=0.07,
        repetition_rate=80e6,
        expect_probability=2.0e-6,
        expect_rate=160.0,
        rel_tol=0.10,
        min_fidelity=0.98,
    ),
}


def run_spot(name: str) -> tuple[list[str], bool]:
    """Evaluate one named operating point both ways; returns (report, passed)."""
    if name not in SPOT_POINTS:
        raise ValueError(f"unknown spot point {name!r}; have {sorted(SPOT_POINTS)}")
    pt = SPOT_POINTS[name]
    ana = analytic_named(name, pt.delta, pt.phi, pt.t0, pt.knob)
    num = prepare_named(name, pt.delta, pt.phi, pt.t0, pt.knob)
    rate = analytics.count_rate(ana.probability, pt.repetition_rate)
    dp, _, status = compare(ana, num)

    def within(value: float, expect: float) -> bool:
        return abs(value - expect) <= pt.rel_tol * expect

    checks = [
        (f"P_analytic = {ana.probability:.6e} within {pt.rel_tol:.0%} of {pt.expect_probability:.1e}",
         within(ana.probability, pt.expect_probability)),
        (f"P_numeric  = {num.probability:.6e} within {pt.rel_tol:.0%} of {pt.expect_probability:.1e}",
         within(num.probability, pt.expect_probability)),
        (f"F_analytic = {ana.fidelity:.6f} > {pt.min_fidelity}", ana.fidelity > pt.min_fidelity),
        (f"F_numeric  = {num.fidelity:.6f} > {pt.min_fidelity}", num.fidelity > pt.min_fidelity),
        (f"count rate = {rate:.1f} Hz within {pt.rel_tol:.0%} of {pt.expect_rate:.0f} Hz",
         within(rate, pt.expect_rate)),
        # the text spells DEFAULT_BUDGET as the spot goldens do; f"{DEFAULT_BUDGET}" reads 1e-08
        (f"|P_num - P_ana| = {dp:.3e} <= 1e-8", status == STATUS_OK),
    ]
    lines = [f"spot point {name}: delta={pt.delta} phi={pt.phi} t0={pt.t0} knob={pt.knob}"]
    ok = True
    for text, good in checks:
        lines.append(f"  [{'PASS' if good else 'FAIL'}] {text}")
        ok &= good
    lines.append(f"spot point {name}: {'PASS' if ok else 'FAIL'}")
    return lines, ok

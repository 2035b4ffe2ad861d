"""The stage loop keeps the source as its two products and builds no joint state.

``prepare_stages`` builds one coherent factor per arm, reuses them
for the targets, runs every source check before its first table probe, and
never calls a joint-state builder of ``sources``.  Its source is the one
``lambda_state`` dumps: the same builder's factors and coefficients.
"""

import cmath
import math
import random
from pathlib import Path

import pytest

from polscissors import analytics, sources, sweep, verify
from polscissors.config import load_config
from polscissors.fock import CutoffError, FockError
from polscissors.preparations import PIPELINES, Pipeline, omega_pipeline, prepare_stages, required_cutoff
from polscissors.sources import SourceParams, lambda_state, split_amplitudes

from test_kernel_oracles import hex_items


def _recording(monkeypatch, name, module=sources, returns=False):
    """Every call of ``<module>.<name>`` while the test runs: its arguments, or what it returned."""
    calls = []
    build = getattr(module, name)

    def recording(*args, **kwargs):
        made = build(*args, **kwargs)
        calls.append(made if returns else args)
        return made

    monkeypatch.setattr(module, name, recording)
    return calls


def test_verify_builds_no_joint_source(monkeypatch):
    builds = [_recording(monkeypatch, name) for name in ("lambda_state", "heralded_target", "expand")]
    verify.run_verify(5, 10)
    for name in ("bell-pqs2", "omega-n3-j2-split"):
        sweep.run_sweep(load_config(str(Path(__file__).parent / "golden" / f"{name}.ini")))
    assert builds == [[], [], []]


@pytest.mark.parametrize(
    "pipeline,splits",
    [
        (PIPELINES["bell-pqs1"], ()),
        (PIPELINES["hybrid-pqs2"], ()),
        (omega_pipeline(3, 2, ("pqs2", "pqs1")), (0.4,)),
        (omega_pipeline(4, 4, ("pqs1", "pqs2", "pqs1", "pqs2")), (0.3, 0.6)),
        (omega_pipeline(8, 3, ("pqs1",) * 3), (0.5,) * 6),
    ],
)
def test_each_coherent_factor_is_built_once(pipeline, splits, monkeypatch):
    # one build per arm: the V branch's factor is the H branch's with its odd
    # occupations negated, and the targets reuse the source's factors
    calls = _recording(monkeypatch, "coherent")
    stages = prepare_stages(pipeline, 1.2, 0.4, 0.55, {"t": 0.9, "gamma_abs": 0.06}, splits)
    assert len(stages) == len(pipeline.arms)
    assert len(calls) <= pipeline.n


def test_degenerate_source_raises_before_the_first_table_fills():
    # t = 0 would make the first table's probe raise FockError
    with pytest.raises(analytics.DegenerateParameterError):
        prepare_stages(PIPELINES["bell-pqs1"], 1e-9, math.pi, 0.5, {"t": 0.0})


@pytest.mark.parametrize(
    "error,pipeline,cutoff,splits",
    [
        # the coherent tail at a cutoff too small for delta 2
        (CutoffError, PIPELINES["bell-pqs1"], 8, ()),
        # three arms need one split transmissivity
        (FockError, Pipeline(("pqs1",), (0,), 3), None, ()),
    ],
    ids=["coherent-tail", "split-count"],
)
def test_source_checks_run_before_the_first_table_fills(error, pipeline, cutoff, splits):
    with pytest.raises(error) as raised:
        prepare_stages(pipeline, 2.0, 0.0, 0.5, {"t": 0.0}, splits, cutoff)
    assert "scissors transmissivity" not in str(raised.value)


def test_the_numeric_source_is_the_dumped_lambda(monkeypatch):
    # the stage loop runs on the builder's factors with the coefficients
    # (m_n, m_n e^(i phi)), that sum of products is ``lambda_state``, and the
    # target norms are those of the photon targets on the same coefficients
    built = _recording(monkeypatch, "arm_factors", returns=True)
    overlaps = _recording(monkeypatch, "_overlap")
    rng = random.Random(8)
    for _ in range(12):
        n = rng.randint(2, 4)
        delta, phi, t0 = rng.uniform(0.2, 1.5), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.1, 0.9)
        splits = tuple(rng.uniform(0.1, 0.9) for _ in range(n - 2))
        arms = tuple(rng.sample(range(n), rng.randint(1, n)))
        built.clear()
        overlaps.clear()
        parts = {}
        pipeline = Pipeline(("pqs1",) * len(arms), arms, n)
        stages = prepare_stages(pipeline, delta, phi, t0, {"t": 0.9}, splits, parts=parts)
        ((h, v),) = built
        (part,) = parts.values()
        # the first stage's fidelity reads the source itself as the target's bra
        bra = next(bra for bra, ket, _ in overlaps if bra is not ket)
        assert bra is part.source
        norm = analytics.m_n(split_amplitudes(SourceParams(delta, phi, t0, splits), n), phi)
        assert [c for c, _ in bra] == [norm, norm * cmath.exp(1j * phi)]
        for (_, factors), branch in zip(bra, (h, v)):
            assert len(factors) == n and all(f is b for f, b in zip(factors, branch))
        params = SourceParams(delta, phi, t0, splits, required_cutoff(delta, t0))
        assert hex_items(sources.expand(bra, params.cutoff)) == hex_items(lambda_state(params, n))
        # per stage run, the target the norm stands for: a photon on each arm truncated so far
        norms = []
        for count in range(1, len(stages) + 1):
            target = [
                (c, tuple(photon if k in arms[:count] else f for k, f in enumerate(factors)))
                for (c, factors), photon in zip(bra, sources.PHOTONS)
            ]
            (_, th), (_, tv) = target
            grams = tuple(sources._gram(pair, pair) for pair in zip(th, tv))
            norms.append(sources._overlap(target, target, grams).real.hex())
        assert [x.hex() for x in part.target_norms[: len(stages)]] == norms

"""The stage loop keeps the source as its two products and builds no joint state.

``prepare_stages`` builds one coherent factor per arm, reuses them
for the targets, runs every source check before its first table probe, and
never calls a joint-state builder of ``sources``.
"""

import math
from pathlib import Path

import pytest

from polscissors import analytics, sources, sweep, verify
from polscissors.config import load_config
from polscissors.fock import CutoffError, FockError
from polscissors.preparations import PIPELINES, Pipeline, omega_pipeline, prepare_stages


def _recording(monkeypatch, name):
    """Every call of ``sources.<name>`` while the test runs."""
    calls = []
    build = getattr(sources, name)

    def recording(*args, **kwargs):
        calls.append(args)
        return build(*args, **kwargs)

    monkeypatch.setattr(sources, name, recording)
    return calls


def test_verify_builds_no_joint_source(monkeypatch):
    builds = [_recording(monkeypatch, name) for name in ("lambda_state", "heralded_target", "_two_branch")]
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

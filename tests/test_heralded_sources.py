"""Herald-first sources: ``prepare_stages`` builds only what its first stage heralds.

``lambda_state(..., herald=(arm, accept))`` must form exactly the full
source's keys whose ``arm`` occupation ``accept`` keeps, bit for bit and in
the full source's order, and must run every check of the unrestricted source
first.  ``prepare_stages`` fills its first table before the source exists,
builds the source restricted to the rows that table fills, and keeps one such
build, with its targets, for the last parameter point.
"""

import math
import random

import pytest

from polscissors import analytics, preparations, sources, verify
from polscissors.fock import MAX_SOURCE_PRODUCTS, CutoffError
from polscissors.preparations import (
    BELL_ARMS,
    PIPELINES,
    Pipeline,
    omega_pipeline,
    prepare_stages,
    required_cutoff,
)
from polscissors.sources import SourceParams, lambda_state

from test_kernel_oracles import hex_items


@pytest.fixture
def fresh_cache(monkeypatch):
    """An empty point cache for the test, so earlier tests' builds do not count."""
    monkeypatch.setattr(preparations, "_last", None)


@pytest.fixture
def source_builds(monkeypatch, fresh_cache):
    """Every source ``lambda_state`` returns while the test runs."""
    built = []
    build = sources.lambda_state

    def recording(*args, **kwargs):
        built.append(build(*args, **kwargs))
        return built[-1]

    # a preparations module that imported the builder by name is caught too
    for module in (sources, preparations):
        if hasattr(module, "lambda_state"):
            monkeypatch.setattr(module, "lambda_state", recording)
    return built


def _seeded_sources(count):
    rng = random.Random(14)
    for _ in range(count):
        n = rng.choice([2, 3, 4])
        delta = rng.uniform(0.2, 1.4 if n == 4 else 2.0)
        t0 = rng.uniform(0.1, 0.9)
        splits = tuple(rng.uniform(0.1, 0.9) for _ in range(n - 2))
        params = SourceParams(delta, rng.uniform(0.0, 2 * math.pi), t0, splits, required_cutoff(delta, t0))
        yield rng, params, n


def test_restricted_source_is_the_full_source_filtered():
    cases = expected = 0
    for rng, params, n in _seeded_sources(12):
        expected += 3 * n
        full = lambda_state(params, n)
        for arm in range(n):
            # the occupations accept is offered: the arm's H factor in order,
            # then the V factor's new ones
            offered = []

            def everything(occupations):
                offered[:] = occupations
                return occupations

            assert hex_items(lambda_state(params, n, herald=(arm, everything))) == hex_items(full)
            h = [occ for occ in offered if occ[1] == 0]
            assert offered[: len(h)] == h == [(k, 0) for k in range(len(h))]
            assert offered[len(h) :] == [(0, k) for k in range(1, len(offered) - len(h) + 1)]
            subsets = [[], [(0, 0), (1, 0), (0, 1)], rng.sample(offered, rng.randint(1, len(offered)))]
            for subset in subsets:
                kept = set(subset)
                want = {key: amp for key, amp in full.amplitudes.items() if key[arm] in kept}
                got = lambda_state(params, n, herald=(arm, lambda occupations: subset))
                assert hex_items(got) == [(k, a.real.hex(), a.imag.hex()) for k, a in want.items()]
                cases += 1
    assert cases == expected


def test_restricted_source_runs_every_check_before_accept():
    calls = []

    def accept(occupations):
        calls.append(occupations)
        return occupations

    # the degenerate norm of the closed form
    with pytest.raises(analytics.DegenerateParameterError):
        lambda_state(SourceParams(1e-9, math.pi, 0.5, (), 4), 2, herald=(1, accept))
    # the size limit counts the unrestricted factors, whatever accept would keep
    big = SourceParams(1.0, 0.0, 0.5, (0.5,) * 6, required_cutoff(1.0, 0.5))
    sizes = [len(sources.coherent(g, "H", big.cutoff).amplitudes) for g in sources.split_amplitudes(big, 8)]
    assert math.prod(sizes) > MAX_SOURCE_PRODUCTS
    with pytest.raises(CutoffError):
        lambda_state(big, 8, herald=(0, accept))
    # the coherent tail
    with pytest.raises(CutoffError):
        lambda_state(SourceParams(2.0, 0.0, 0.5, (), 8), 2, herald=(0, accept))
    assert calls == []


def test_prepare_stages_builds_a_tenth_of_the_source(source_builds):
    delta, t0 = 2.0, 0.5
    result = prepare_stages(PIPELINES["bell-pqs1"], delta, 0.3, t0, {"t": 0.9})
    assert result[-1].state is not None
    (built,) = source_builds
    full = lambda_state(SourceParams(delta, 0.3, t0, (), required_cutoff(delta, t0)), 2)
    assert len(full.amplitudes) == 1351
    assert 10 * len(built.amplitudes) <= len(full.amplitudes)
    assert {key[1] for key in built.amplitudes} == {(0, 0), (1, 0), (0, 1)}


def test_verify_builds_one_source_per_sample(source_builds):
    verify.run_verify(5, 10)
    assert len(source_builds) == 10


def test_degenerate_source_raises_before_the_first_table_fills():
    # t = 0 would make the first table's probe raise FockError
    with pytest.raises(analytics.DegenerateParameterError):
        prepare_stages(PIPELINES["bell-pqs1"], 1e-9, math.pi, 0.5, {"t": 0.0})


def test_cached_builds_give_the_same_stages(source_builds):
    cases = [
        # without squeezing the first stage heralds nothing, so its source is empty
        (PIPELINES["bell-pqs2"], {"gamma_abs": 0.0}),
        (PIPELINES["bell-pqs1"], {"t": 0.7}),
        (PIPELINES["bell-pqs2"], {"gamma_abs": 0.05}),
        (PIPELINES["hybrid-pqs1"], {"t": 0.4}),
        (Pipeline(("pqs2", "pqs1"), BELL_ARMS), {"t": 0.9, "gamma_abs": 0.1}),
        # another first arm at the same point builds anew
        (omega_pipeline(2, 2, ("pqs1", "pqs2")), {"t": 0.9, "gamma_abs": 0.1}),
    ]
    point = (1.3, 0.4, 0.6)
    cold = []
    for pipeline, knobs in cases:
        preparations._last = None
        cold.append(prepare_stages(pipeline, *point, knobs))
    assert len(source_builds) == len(cases)
    source_builds.clear()
    preparations._last = None
    for (pipeline, knobs), want in zip(cases, cold):
        got = prepare_stages(pipeline, *point, knobs)
        assert [(s.probability.hex(), s.fidelity.hex(), hex_items(s.state)) for s in got] == [
            (s.probability.hex(), s.fidelity.hex(), hex_items(s.state)) for s in want
        ]
    assert cold[0] == (preparations.PrepResult(0.0, 0.0, None),)
    # the empty source on arm 1, one for the four chains that herald there, one on arm 0
    assert len(source_builds) == 3


def test_the_cache_keeps_the_last_point(source_builds):
    deltas = [0.5, 0.6, 0.7]
    for delta in deltas:
        prepare_stages(PIPELINES["bell-pqs2"], delta, 0.0, 0.5, {"gamma_abs": 0.05})
        prepare_stages(PIPELINES["bell-pqs1"], delta, 0.0, 0.5, {"t": 0.8})
    assert len(source_builds) == len(deltas)
    assert preparations._last.params.delta == deltas[-1]
    # an earlier point was replaced, so it builds anew
    prepare_stages(PIPELINES["bell-pqs1"], deltas[0], 0.0, 0.5, {"t": 0.8})
    assert len(source_builds) == len(deltas) + 1

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
    calls = _recording(monkeypatch, "coherent_factor")
    stages = prepare_stages(pipeline, 1.2, 0.4, 0.55, {"t": 0.9, "gamma_abs": 0.06}, splits)
    assert len(stages) == len(pipeline.arms)
    assert len(calls) == pipeline.n


def test_degenerate_source_raises_before_the_first_table_fills():
    # the source is checked before any stage runs, so a degenerate source raises
    # even with a knob, t = 0, whose pqs1 table builds but heralds nothing
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


def _gram_reference(bras, kets):
    """The generator form ``_gram`` replaced: ``sum`` from 0j over the bra's occupations."""
    return tuple(
        tuple(sum((fb[occ].conjugate() * fk[occ] for occ in fb if occ in fk), 0j) for fk in kets)
        for fb in bras
    )


def _overlap_reference(bra, ket, grams):
    """The generator form ``_overlap`` replaced: ``math.prod`` of the Gram entries, ``sum`` from 0j."""
    return sum(
        (
            cb.conjugate() * ck * math.prod(gram[i][j] for gram in grams)
            for i, (cb, _) in enumerate(bra)
            for j, (ck, _) in enumerate(ket)
        ),
        0j,
    )


def _signed_part(rng):
    return rng.choice([-0.0, 0.0, rng.gauss(0.0, 1.0), -rng.random() * 1e-8])


def _random_factor(rng):
    """A seeded factor: a PHOTONS factor, or up to 6 occupations with -0.0 parts among them."""
    if rng.random() < 0.2:
        return rng.choice(sources.PHOTONS)
    occupations = rng.sample([(nh, nv) for nh in range(3) for nv in range(3)], rng.randint(1, 6))
    return {occ: complex(_signed_part(rng), _signed_part(rng)) for occ in occupations}


def _hex(z):
    return z.real.hex(), z.imag.hex()


@pytest.mark.parametrize("seed", range(40))
def test_gram_and_overlap_keep_the_bits_of_their_generator_forms(seed):
    rng = random.Random(seed)
    arms = rng.randint(1, 4)
    bra, ket = (
        tuple((complex(_signed_part(rng), _signed_part(rng)), [_random_factor(rng) for _ in range(arms)])
              for _ in range(rng.randint(1, 2)))
        for _ in range(2)
    )
    grams = []
    for arm in range(arms):
        bras, kets = [f[arm] for _, f in bra], [f[arm] for _, f in ket]
        gram = sources._gram(bras, kets)
        assert [[_hex(z) for z in row] for row in gram] == [
            [_hex(z) for z in row] for row in _gram_reference(bras, kets)
        ]
        grams.append(gram)
    assert _hex(sources._overlap(bra, ket, grams)) == _hex(_overlap_reference(bra, ket, grams))
    # a sum from 0j holds no -0.0 part; given one, or an infinite one, math.prod's int 1 start shows:
    # 1 * z can turn a -0.0 part into +0.0, and forms 0 * inf = nan
    part = lambda: rng.choice([_signed_part(rng), math.inf, -math.inf])
    signed = [tuple(tuple(complex(part(), part()) for _ in ket) for _ in bra) for _ in range(arms)]
    assert _hex(sources._overlap(bra, ket, signed)) == _hex(_overlap_reference(bra, ket, signed))


def test_disjoint_factors_have_a_positive_zero_gram():
    h, v = sources.PHOTONS
    negative = {(2, 0): complex(-0.0, -1.0), (0, 2): complex(-1.0, -0.0)}
    gram = sources._gram([h, negative], [v, {(1, 1): -1 - 1j}])
    assert [_hex(z) for row in gram for z in row] == [_hex(0j)] * 4
    bra, ket = ((complex(-1.0, -0.0), [negative]),), ((complex(-0.0, -2.0), [v]),)
    grams = [sources._gram([negative], [v])]
    assert _hex(sources._overlap(bra, ket, grams)) == _hex(_overlap_reference(bra, ket, grams)) == _hex(0j)

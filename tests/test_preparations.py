import math
import re
from pathlib import Path

import pytest

from polscissors import analytics
from polscissors.fock import fidelity, make_state, min_cutoff
from polscissors.preparations import (
    BELL_ARMS,
    KNOB_AXES,
    PIPELINES,
    PREPARATIONS,
    Pipeline,
    PrepResult,
    analytic_named,
    compare,
    prepare_bell,
    prepare_named,
    prepare_stages,
    required_cutoff,
)
from polscissors.scissors import pqs1_apply
from polscissors.sources import SourceParams, xi_direct

from conftest import prepare_hybrid

POINTS = [
    # (delta, phi, t0, t, gamma_abs)
    (1.0, 0.0, 0.5, 0.5, 0.05),
    (0.8, 0.0, 0.5, 0.98, 0.07),
    (1.4, 2.2, 0.3, 0.7, 0.10),
    (0.4, 4.5, 0.8, 0.45, 0.02),
    (2.0, math.pi, 0.6, 0.9, 0.12),
]


@pytest.mark.parametrize("delta,phi,t0,t,g", POINTS)
@pytest.mark.parametrize("name", PREPARATIONS)
def test_pipelines_match_closed_forms(name, delta, phi, t0, t, g):
    knob = t if name.endswith("pqs1") else g
    num = prepare_named(name, delta, phi, t0, knob)
    ana = analytic_named(name, delta, phi, t0, knob)
    assert num.probability == pytest.approx(ana.probability, abs=1e-10)
    assert num.fidelity == pytest.approx(ana.fidelity, abs=1e-10)


def _bits(result):
    amplitudes = None if result.state is None else list(result.state.amplitudes.items())
    return repr((result.probability, result.fidelity, amplitudes))


@pytest.mark.parametrize("delta", [0.8, 1.4, 2.0])
@pytest.mark.parametrize("method,knob", [("pqs1", 0.9), ("pqs2", 0.07)])
def test_shared_first_stage_matches_separate_pipelines(method, knob, delta):
    phi, t0 = 0.7, 0.45
    chain = Pipeline((method, method), BELL_ARMS)
    hybrid, bell = prepare_stages(chain, delta, phi, t0, {KNOB_AXES[method]: knob})
    assert _bits(hybrid) == _bits(prepare_hybrid(method, delta, phi, t0, knob))
    # prepare_bell is the expand-then-project oracle of the chain's transfer tables
    oracle = prepare_bell(method, delta, phi, t0, knob)
    assert bell.probability == pytest.approx(oracle.probability, rel=1e-14, abs=0)
    assert bell.fidelity == pytest.approx(oracle.fidelity, rel=1e-14, abs=0)


def test_a_stage_that_heralds_nothing_ends_the_chain():
    # without squeezing pqs2 heralds nothing: one result, with no state
    stages = prepare_stages(PIPELINES["bell-pqs2"], 1.3, 0.4, 0.6, {"gamma_abs": 0.0})
    assert stages == (PrepResult(0.0, 0.0),)
    assert stages[0].state is None


def test_hybrid_reference_point_values():
    res = prepare_hybrid("pqs1", 1.0, 0.0, 0.5, 0.5)
    assert res.probability == pytest.approx(0.192, abs=5e-4)
    assert res.fidelity == pytest.approx(0.422, abs=5e-4)


def test_single_truncation_leaves_minus_branch_before_correction():
    # the raw heralded state carries the odd-photon sign on the V branch;
    # the pipeline removes it by feed-forward before the fidelity check
    delta, phi, t0, t = 1.0, 0.0, 0.5, 0.6
    cutoff = required_cutoff(delta, t0)
    params = SourceParams(delta, phi, t0, (), cutoff)
    result = pqs1_apply(xi_direct(params), 1, t)
    raw = result.canonical_state
    a, b = analytics.alpha_beta(delta, t0)
    f1b = analytics.f_n(b, 1)
    norm = analytics.n0(delta, phi, t0)
    scale = math.sqrt((1 - t) * t) * norm * f1b / math.sqrt(result.total_probability)
    f1a = analytics.f_n(a, 1)
    f0a = analytics.f_n(a, 0)
    assert raw.amplitude(((1, 0), (1, 0))) == pytest.approx(scale * f1a, abs=1e-10)
    # the heralded minus sign sits on the photon-qubit V branch, visible against
    # even coherent components; odd components cancel it through f-parity
    assert raw.amplitude(((0, 0), (0, 1))) == pytest.approx(-scale * f0a, abs=1e-10)
    assert raw.amplitude(((0, 1), (0, 1))) == pytest.approx(scale * f1a, abs=1e-10)


def test_bell_probability_independent_of_truncation_order():
    # the two arm truncations commute
    delta, phi, t0, t = 1.1, 0.8, 0.35, 0.7
    forward = prepare_bell("pqs1", delta, phi, t0, t)
    swapped = prepare_bell("pqs1", delta, phi, 1 - t0, t)
    assert forward.probability == pytest.approx(swapped.probability, rel=1e-10)
    assert forward.fidelity == pytest.approx(swapped.fidelity, rel=1e-10)


@pytest.mark.parametrize(
    "analytic,numeric,budget,status",
    [
        ((0.5, 0.9), (0.5 + 1e-9, 0.9 - 1e-9), 1e-8, "ok"),
        ((0.5, 0.9), (0.5 + 1e-9, 0.9), 1e-10, "mismatch"),
        ((0.5, 0.9), (0.5, 0.9 + 2e-8), 1e-8, "mismatch"),
        ((0.5, 0.9), (0.5, math.nan), 1e-8, "mismatch"),
        # within any budget, but the numeric route lost a P the closed form keeps
        ((1e-300, 0.9), (0.0, 0.9), 1e-8, "mismatch"),
    ],
    ids=["within", "past-a-given-budget", "past-on-F", "nan", "numeric-zero"],
)
def test_compare_is_the_one_verdict(analytic, numeric, budget, status):
    assert compare(analytics.AnalyticPF(*analytic), PrepResult(*numeric), budget)[2] == status


def test_required_cutoff_tracks_larger_arm():
    assert required_cutoff(1.0, 0.5) == min_cutoff(1.0)
    assert required_cutoff(1.0, 0.9) == min_cutoff(1.0 * math.sqrt(1.8))


def test_unknown_preparation_rejected():
    with pytest.raises(ValueError):
        prepare_named("bell-pqs3", 1.0, 0.0, 0.5, 0.5)
    with pytest.raises(ValueError):
        analytic_named("qs", 1.0, 0.0, 0.5, 0.5)


@pytest.mark.parametrize("arms,n", [((5,), 2), ((2,), 2), ((-1,), 2), ((1, 1), 2), ((0, 3), 3), ((2, 0, 2), 3)])
def test_pipeline_rejects_arms_out_of_range_or_repeated(arms, n):
    with pytest.raises(ValueError, match="distinct arms"):
        Pipeline(("pqs1",) * len(arms), arms, n)


@pytest.mark.parametrize("n", [1, 0, -2])
def test_pipeline_rejects_fewer_than_two_arms(n):
    # before, n = 1 reached the source build and died there with a FockError
    with pytest.raises(ValueError, match="n >= 2"):
        Pipeline(("pqs1",), (0,), n)


def test_preparation_vocabulary_lives_in_preparations():
    # every other module reads PIPELINES; none re-decides names from strings
    banned = re.compile(
        r'endswith\("pqs|startswith\("bell"|split\("-"\)|DegenerateStateError'
        r'|"(?:hybrid|bell)-pqs[12]"\s*,\s*"(?:hybrid|bell)-pqs[12]"'
    )
    package = Path(analytics.__file__).parent
    hits = [
        f"{path.name}: {match.group()}"
        for path in sorted(package.glob("*.py"))
        if path.name != "preparations.py"
        for match in banned.finditer(path.read_text(encoding="utf-8"))
    ]
    assert hits == []
    # omega is one more Pipeline: only config builds it, so only config tells it apart
    omega = re.compile(r'[=!]=\s*"omega"|"omega"\s*[=!]=')
    hits = [
        f"{path.name}: {match.group()}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("preparations.py", "config.py")
        for match in omega.finditer(path.read_text(encoding="utf-8"))
    ]
    assert hits == []
    # a scissors method is told apart where it is simulated and where its closed form is
    method = re.compile(r'[=!]=\s*"pqs[12]"|"pqs[12]"\s*[=!]=')
    hits = [
        f"{path.name}: {match.group()}"
        for path in sorted(package.glob("*.py"))
        if path.name not in ("preparations.py", "analytics.py")
        for match in method.finditer(path.read_text(encoding="utf-8"))
    ]
    assert hits == []


def test_typed_values_are_read_in_config_and_the_tail_budget_named_in_fock():
    # cli hands every descriptor value to config.read_value, which alone parses
    # numbers and checks domains; fock.DEFAULT_TAIL_BOUND is the one tail budget
    package = Path(analytics.__file__).parent
    cli_source = (package / "cli.py").read_text(encoding="utf-8")
    assert re.findall(r"\b(?:float|whole_number|check_domain)\(", cli_source) == []
    literal = re.compile(r"\b1(?:\.0*)?e-0*12\b")
    hits = [
        path.name
        for path in sorted(package.glob("*.py"))
        if path.name != "fock.py" and literal.search(path.read_text(encoding="utf-8"))
    ]
    assert hits == []

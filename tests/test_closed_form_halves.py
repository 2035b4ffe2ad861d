"""Each named closed form is a source half, knob factors and a combination, and a sweep shares them.

``analytics.pf_hybrid`` and ``pf_bell`` read the source (method, delta, phi,
t0) in their source half and the scissors knob in ``analytics.knob_factors``;
their combination mixes the two.  Here the parts, called apart, must give the
one-call forms and the forms as they were written in one piece
(``one_piece_hybrid``, ``one_piece_bell``) bit for bit, and raise the same
errors.  A sweep evaluates one source half per source point, one set of knob
factors per knob value and one cutoff per (delta, t0), keeps none of them past
its return, and a source half that raises is asked again by each of its cells.
"""

import gc
import math
import random
import weakref

import pytest

from polscissors import analytics, preparations, sweep
from polscissors.analytics import (
    DegenerateParameterError,
    ProbabilityUnderflowError,
    alpha_beta,
    f_n,
    k_n,
    n0,
    xi_coefficients,
)
from polscissors.config import AxisSpec, ExperimentConfig
from polscissors.fock import CutoffError
from polscissors.preparations import PIPELINES, analytic_named, closed_form_halves
from polscissors.sweep import STATUS_DEGENERATE, STATUS_OK, STATUS_UNDERFLOW, run_sweep


def one_piece_pqs1(c10_sq, c01_sq, c00_sq, c11_sq, t):
    single = (1.0 - t) * t * (c10_sq + c01_sq)
    p = single + (1.0 - t) ** 2 * c00_sq + t * t * c11_sq
    if p <= 0.0:
        raise DegenerateParameterError("zero heralding probability")
    return analytics.AnalyticPF(p, single / p)


def one_piece_pqs2(c10_sq, c01_sq, c00_sq, c11_sq, gamma_abs):
    g2 = gamma_abs * gamma_abs
    single = (c10_sq + c01_sq) * k_n(gamma_abs, 1) ** 2 * g2
    p = single + c11_sq * k_n(gamma_abs, 2) ** 2 + c00_sq * k_n(gamma_abs, 0) ** 2 * g2 * g2
    if p <= 0.0:
        raise DegenerateParameterError("zero heralding probability")
    return analytics.AnalyticPF(p, single / p)


def one_piece_hybrid(method, delta, phi, t0, knob):
    c = xi_coefficients(delta, phi, t0)
    closed_form = one_piece_pqs1 if method == "pqs1" else one_piece_pqs2
    try:
        return closed_form(abs(c.c10) ** 2, abs(c.c01) ** 2, abs(c.c00) ** 2, 0.0, knob)
    except DegenerateParameterError:
        raise analytics._zero_probability(delta, knob) from None


def one_piece_bell(method, delta, phi, t0, knob):
    a, b = alpha_beta(delta, t0)
    f1a_sq, f0a_sq = f_n(a, 1) ** 2, f_n(a, 0) ** 2
    vac_weight = 2.0 + 2.0 * math.cos(phi)
    norm = n0(delta, phi, t0)
    if method == "pqs1":
        t = knob
        w1 = math.sqrt((1.0 - t) * t) * norm * f_n(b, 1)
        w0 = (1.0 - t) * norm * f_n(b, 0)
        keep = 2.0 * (1.0 - t) * t * f1a_sq
        spill = (1.0 - t) ** 2 * f0a_sq
    else:
        g2 = knob * knob
        w1 = k_n(knob, 1) * knob * norm * f_n(b, 1)
        w0 = k_n(knob, 0) * knob * knob * norm * f_n(b, 0)
        keep = 2.0 * k_n(knob, 1) ** 2 * g2 * f1a_sq
        spill = k_n(knob, 0) ** 2 * g2 * g2 * f0a_sq
    p = keep * (w1 * w1 + w0 * w0) + spill * (2.0 * w1 * w1 + vac_weight * w0 * w0)
    if p <= 0.0:
        raise analytics._zero_probability(delta, knob)
    return analytics.AnalyticPF(p, keep * w1 * w1 / p)


FORMS = {
    "hybrid": (analytics.pf_hybrid, analytics.hybrid_source, analytics.hybrid_pf, one_piece_hybrid),
    "bell": (analytics.pf_bell, analytics.bell_source, analytics.bell_pf, one_piece_bell),
}


def _points(seed=20, count=60):
    """Seeded source points, with the degenerate and underflowing ones, and several knobs each."""
    rng = random.Random(seed)
    edges = [(0.0, math.pi, 0.5), (20.0, 0.3, 0.5), (40.0, 0.3, 0.5), (1e-3, math.pi, 0.5), (1.0, 0.3, 0.0)]
    sources = edges + [
        (rng.uniform(0.0, 3.0), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.0, 1.0)) for _ in range(count)
    ]
    for delta, phi, t0 in sources:
        for method in ("pqs1", "pqs2"):
            top = 1.0 if method == "pqs1" else 0.99
            knobs = [0.0, 1.0] + [rng.uniform(0.0, top) for _ in range(4)]
            yield method, delta, phi, t0, knobs


def _outcome(form, *args):
    """``form(*args)`` as hex floats, or its error's type and message."""
    try:
        pf = form(*args)
    except (ValueError, DegenerateParameterError) as exc:
        return type(exc), str(exc)
    return pf.probability.hex(), pf.fidelity.hex()


def _knob_half(combine, source, knob):
    """All that reads the knob, given the source half: the knob factors, then the combination."""
    return analytics.AnalyticPF(*combine(source, analytics.knob_factors(source.method, knob)))


def _parts(source_half, combine, method, delta, phi, t0, knob):
    return _knob_half(combine, source_half(method, delta, phi, t0), knob)


@pytest.mark.parametrize("kind", sorted(FORMS))
def test_halves_equal_the_one_call_and_one_piece_forms(kind):
    one_call, source_half, combine, one_piece = FORMS[kind]
    errors = set()
    for method, delta, phi, t0, knobs in _points():
        try:
            source = source_half(method, delta, phi, t0)
        except DegenerateParameterError as exc:
            source = exc
        for knob in knobs:
            expected = _outcome(one_piece, method, delta, phi, t0, knob)
            assert _outcome(one_call, method, delta, phi, t0, knob) == expected
            assert _outcome(_parts, source_half, combine, method, delta, phi, t0, knob) == expected
            if not isinstance(source, Exception):  # the one source half serves every knob
                assert _outcome(_knob_half, combine, source, knob) == expected
            if isinstance(expected[0], type):
                errors.add(expected[0])
    assert {ProbabilityUnderflowError, DegenerateParameterError} <= errors


@pytest.mark.parametrize(
    "form,one_piece,top",
    [(analytics.pf_pqs1, one_piece_pqs1, 1.0), (analytics.pf_pqs2, one_piece_pqs2, 0.99)],
    ids=["pqs1", "pqs2"],
)
def test_the_sector_forms_equal_their_one_piece_forms(form, one_piece, top):
    # knob factors plus combination: the same float operations in the same order, on any sector weights
    rng = random.Random(3)
    weights = [(0.0, 0.0, 0.0, 0.0), (0.0, 0.0, 1.0, 0.0), (1e-300, 0.0, 1e-300, 0.0)]
    weights += [tuple(rng.choice([0.0, rng.random(), rng.random() ** 8]) for _ in range(4)) for _ in range(300)]
    for w in weights:
        for knob in [0.0, -0.0, top, 5e-324] + [rng.uniform(0.0, top) for _ in range(3)]:
            assert _outcome(form, *w, knob) == _outcome(one_piece, *w, knob)
    assert _outcome(form, 0.5, 0.5, 0.0, 0.0, 1.0)[0] is (DegenerateParameterError if top == 1.0 else ValueError)


@pytest.mark.parametrize("t", [1.5, -0.1])
@pytest.mark.parametrize("kind", ["pqs1", "hybrid", "bell"])
def test_a_t_outside_the_unit_interval_raises_a_named_error(kind, t):
    if kind == "pqs1":
        form, one_piece, args = analytics.pf_pqs1, one_piece_pqs1, (0.3, 0.3, 0.2, 0.2)
    else:
        form, _, _, one_piece = FORMS[kind]
        args = ("pqs1", 1.0, 0.3, 0.5)
    assert _outcome(form, *args, t) == (ValueError, f"t = {t} outside [0, 1]")
    for edge in (math.nan, -0.0, 0.0, 1.0):  # at the edges and at NaN, no error and the same bits
        assert _outcome(form, *args, edge) == _outcome(one_piece, *args, edge)


@pytest.mark.parametrize("kind", sorted(FORMS))
def test_bad_method_and_t0_raise_before_the_knob_is_read(kind):
    one_call, source_half, _, _ = FORMS[kind]
    for args in (("pqs3", 1.0, 0.3, 0.5), ("pqs1", 1.0, 0.3, 1.5)):
        with pytest.raises(ValueError) as whole:
            one_call(*args, 0.9)
        with pytest.raises(ValueError) as half:
            source_half(*args)
        assert (type(half.value), str(half.value)) == (type(whole.value), str(whole.value))


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_the_sweep_halves_are_the_named_closed_form(name):
    parts = closed_form_halves(name)
    method = PIPELINES[name].method
    for _, delta, phi, t0, knobs in _points(seed=7, count=10):
        for knob in knobs[2:]:
            expected = _outcome(analytic_named, name, delta, phi, t0, knob)
            assert _outcome(_parts, *parts, method, delta, phi, t0, knob) == expected


@pytest.fixture
def source_halves(monkeypatch):
    """Every source half asked for, as (source point, weak reference; None if it raised)."""
    made = []

    class Recorded:
        def __init__(self, half):
            self.method, self.delta, self.weights = half

    def recording(original):
        def source_half(method, delta, phi, t0):
            try:
                half = Recorded(original(method, delta, phi, t0))
            except DegenerateParameterError:
                made.append(((delta, phi, t0), None))
                raise
            made.append(((delta, phi, t0), weakref.ref(half)))
            return half

        return source_half

    for name in ("hybrid_source", "bell_source"):
        monkeypatch.setattr(analytics, name, recording(getattr(analytics, name)))
    return made


def _grid(name, axis1, axis2, **fixed):
    return ExperimentConfig(name, axis1, axis2, backend="analytic", **fixed)


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_a_sweep_makes_one_source_half_per_source_point_and_keeps_none(name, source_halves):
    knob = AxisSpec(PIPELINES[name].knob_axis, 0.03, 0.07, 5)
    delta = AxisSpec("delta", 0.6, 1.4, 4)
    for config in (_grid(name, delta, knob, phi=0.7), _grid(name, knob, delta, phi=0.7)):
        before = len(source_halves)
        grid = run_sweep(config)
        assert [row[-1] for row in grid.rows] == [STATUS_OK] * 20
        assert len(source_halves) - before == 4  # one per delta, shared by the five knobs
        gc.collect()
        assert [point for point, ref in source_halves if ref() is not None] == []


@pytest.fixture
def knob_factor_sets(monkeypatch):
    """Every set of knob factors made, as (method, knob, weak reference)."""
    made = []

    class Recorded(list):
        pass

    def knob_factors(method, knob):
        factors = Recorded(original(method, knob))
        made.append((method, knob, weakref.ref(factors)))
        return factors

    original = analytics.knob_factors
    monkeypatch.setattr(analytics, "knob_factors", knob_factors)
    return made


@pytest.mark.parametrize("name", sorted(PIPELINES))
def test_a_sweep_makes_one_set_of_knob_factors_per_knob_value_and_keeps_none(name, knob_factor_sets):
    method, axis = PIPELINES[name].method, PIPELINES[name].knob_axis
    knob = AxisSpec(axis, 0.03, 0.07, 5)
    delta, phi = AxisSpec("delta", 0.6, 1.4, 4), AxisSpec("phi", 0.0, 3.0, 3)
    grids = [  # the knob as axis2, as axis1, and fixed
        (_grid(name, delta, knob, phi=0.7), knob.values()),
        (_grid(name, knob, delta, phi=0.7), knob.values()),
        (_grid(name, phi, delta, **{axis: 0.05}), [0.05]),
    ]
    for config, knobs in grids:
        before = len(knob_factor_sets)
        grid = run_sweep(config)
        assert {row[-1] for row in grid.rows} == {STATUS_OK}
        assert [(m, k) for m, k, _ in knob_factor_sets[before:]] == [(method, k) for k in knobs]
        gc.collect()
        assert [knob for _, knob, ref in knob_factor_sets if ref() is not None] == []


@pytest.mark.parametrize("name", ["hybrid-pqs2", "bell-pqs2"])  # the config domain keeps t in (0, 1)
def test_knob_factors_keyed_by_position_keep_signed_zeros_apart(name, knob_factor_sets):
    # 0.0 == -0.0, yet a knob axis from 0.0 to -0.0 makes one set of factors per position
    axis = PIPELINES[name].knob_axis
    config = _grid(name, AxisSpec("delta", 0.6, 1.0, 2), AxisSpec(axis, 0.0, -0.0, 2), phi=0.7)
    grid = run_sweep(config)
    assert [str(knob) for _, knob, _ in knob_factor_sets] == ["0.0", "-0.0"]
    assert [row[-1] for row in grid.rows] == [STATUS_DEGENERATE] * 4


def test_a_source_point_per_cell_makes_a_source_half_per_cell(source_halves):
    config = _grid("bell-pqs2", AxisSpec("phi", 0.0, 3.0, 3), AxisSpec("delta", 0.6, 1.0, 3), gamma_abs=0.05)
    run_sweep(config)
    points = [point for point, _ in source_halves]
    assert len(points) == len(set(points)) == 9


def test_a_raising_source_half_is_asked_again_by_each_of_its_cells(source_halves):
    config = _grid(
        "hybrid-pqs2", AxisSpec("delta", 0.0, 40.0, 5), AxisSpec("gamma_abs", 0.0, 0.06, 3), phi=math.pi
    )
    grid = run_sweep(config)
    statuses = [row[-1] for row in grid.rows]
    assert statuses[:3] == [STATUS_DEGENERATE] * 3  # delta 0 at phi pi: the source half raises
    assert {STATUS_OK, STATUS_UNDERFLOW} <= set(statuses[3:])  # the combination raises
    assert [ref for point, ref in source_halves if point[0] == 0.0] == [None] * 3
    assert len(source_halves) == 3 + 4  # the other four deltas once each


def _cutoffs_before_cells(monkeypatch):
    """Log each ``required_cutoff`` call's (delta, t0) and each cell's ``prepare_stages`` call, in order."""
    events = []

    def cutoff(delta, t0, tail_bound):
        events.append((delta, t0))
        return required_cutoff(delta, t0, tail_bound)

    def cell(*args):
        events.append("cell")
        return prepare_stages(*args)

    required_cutoff, prepare_stages = sweep.required_cutoff, sweep.prepare_stages
    monkeypatch.setattr(sweep, "required_cutoff", cutoff)
    monkeypatch.setattr(sweep, "prepare_stages", cell)
    return events


def _asked_before_the_first_cell(events):
    """The (delta, t0) of every cutoff call, after checking that all come before the first cell."""
    first_cell = events.index("cell")
    assert all(e == "cell" for e in events[first_cell:])
    return events[:first_cell]


def test_a_sweep_looks_up_one_cutoff_per_delta_and_t0(monkeypatch):
    events = _cutoffs_before_cells(monkeypatch)
    config = ExperimentConfig(
        "hybrid-pqs1", AxisSpec("t", 0.6, 0.9, 3), AxisSpec("delta", 0.6, 1.0, 3), backend="numeric"
    )
    run_sweep(config)
    # one call per distinct (delta, t0) of the cells, in grid order, before any cell runs
    assert _asked_before_the_first_cell(events) == [(delta, 0.5) for delta in config.axis2.values()]
    assert events.count("cell") == 9


@pytest.mark.parametrize(
    "name,axis1,axis2,fixed",
    [
        # the fixed delta 30 would need cutoff 1119; every cell reads the axis's 0.5..0.6
        ("hybrid-pqs1", AxisSpec("delta", 0.5, 0.6, 2), AxisSpec("phi", 0.0, 1.0, 2), {"delta": 30.0, "t": 0.9}),
        # the fixed t0 = 1.0 would need cutoff 26; the cells' t0 0.4..0.6 need at most 21
        (
            "bell-pqs1",
            AxisSpec("delta", 1.0, 1.5, 2),
            AxisSpec("t0", 0.4, 0.6, 2),
            {"t0": 1.0, "t": 0.9, "max_cutoff": 21},
        ),
    ],
    ids=["fixed-delta", "fixed-t0"],
)
def test_the_fail_fast_cutoff_check_reads_the_cells_parameters(name, axis1, axis2, fixed, monkeypatch):
    events = _cutoffs_before_cells(monkeypatch)
    config = ExperimentConfig(name, axis1, axis2, backend="numeric", **fixed)
    grid = run_sweep(config)
    assert [row[-1] for row in grid.rows] == [STATUS_OK] * 4

    def source_point(v1, v2):
        point = {"t0": 0.5, **fixed, axis1.name: v1, axis2.name: v2}
        return point["delta"], point["t0"]

    cells = [source_point(v1, v2) for v1 in axis1.values() for v2 in axis2.values()]
    asked = _asked_before_the_first_cell(events)
    assert asked == list(dict.fromkeys(cells))
    assert all(delta != 30.0 and t0 != 1.0 for delta, t0 in asked)


def test_an_infeasible_sweep_names_the_largest_delta_of_the_largest_cutoff(monkeypatch):
    # delta 1.99, 1.995 and 2.0 all need cutoff 29 at t0 0.3 and 0.7, so the
    # message names 2.0, as it did when only the axis endpoints were checked
    events = _cutoffs_before_cells(monkeypatch)
    config = ExperimentConfig(
        "bell-pqs1", AxisSpec("delta", 1.99, 2.0, 3), AxisSpec("t0", 0.3, 0.7, 3),
        backend="numeric", t=0.9, max_cutoff=20,
    )
    with pytest.raises(CutoffError, match=r"^delta = 2\.0 needs cutoff 29 > max_cutoff 20$"):
        run_sweep(config)
    assert len(events) == 9 and "cell" not in events


def test_a_sweep_looks_up_the_closed_form_halves_once(monkeypatch):
    calls = []

    def counting(name):
        calls.append(name)
        return original(name)

    original = sweep.closed_form_halves
    monkeypatch.setattr(sweep, "closed_form_halves", counting)
    config = _grid("bell-pqs2", AxisSpec("phi", 0.0, 3.0, 3), AxisSpec("delta", 0.6, 1.0, 3), gamma_abs=0.05)
    assert [row[-1] for row in run_sweep(config).rows] == [STATUS_OK] * 9
    assert calls == ["bell-pqs2"]


def test_a_sweep_builds_one_source_point_per_part_and_again_for_each_raising_cell(monkeypatch):
    # the stage loop keys its source parts by plain tuples: ``SourceParams`` is built
    # only for a missing key, and a source that raises is never kept
    built = []

    def counting(*args):
        built.append(args)
        return original(*args)

    original = preparations.SourceParams
    monkeypatch.setattr(preparations, "SourceParams", counting)
    knob = AxisSpec("t", 0.7, 0.95, 4)
    config = ExperimentConfig("bell-pqs1", AxisSpec("delta", 0.6, 1.8, 4), knob, backend="both", phi=0.7)
    assert [row[-1] for row in run_sweep(config).rows] == [STATUS_OK] * 16
    assert len(built) == 4
    built.clear()
    config = ExperimentConfig("bell-pqs1", AxisSpec("delta", 0.0, 0.6, 2), knob, backend="numeric", phi=math.pi)
    statuses = [row[-1] for row in run_sweep(config).rows]
    assert statuses == [STATUS_DEGENERATE] * 4 + [STATUS_OK] * 4  # delta 0 at phi pi: the source raises
    assert [args[0] for args in built] == [0.0] * 4 + [0.6]


SPECIAL_FLOATS = [
    math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 1 / 3, 0.1, 1e16, 123456789.0, 1e-300,
]


def test_the_row_template_formats_every_float_as_the_f_string_does():
    rng = random.Random(5)
    values = SPECIAL_FLOATS + [rng.uniform(-1e3, 1e3) for _ in range(200)]
    values += [math.ldexp(rng.random(), rng.randint(-1074, 1023)) for _ in range(200)]
    for value in values:
        assert "%.17e" % value == f"{value:.17e}", value.hex()

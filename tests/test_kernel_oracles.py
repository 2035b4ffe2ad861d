"""Bitwise oracles for the heralding and source kernels.

The scissors module splits its ancilla on a two-mode state and tensors that
onto the input once, ``project_number`` checks its targets in one plain loop,
``apply_bs`` caches its pair terms across calls, builds them from hoisted
powers and reads its output occupations from per-call rows, the entangled
sources and a preparation's state are expanded in one pass, and
``inner_product`` reads each common key once.  Each must leave every
state (and every inner product) bit for bit as the plain constructions below
build it: same keys, same insertion order, same real and imaginary parts
(compared with ``float.hex``, so even the sign of a zero counts).
"""

import cmath
import functools
import math
import random

import pytest

from polscissors import analytics, elements, fock, scissors, sources
from polscissors.elements import BeamSplitterSpec, apply_bs
from polscissors.fock import (
    H,
    V,
    FockError,
    ProjectionOutcome,
    PureState,
    _raw_state,
    add,
    inner_product,
    make_state,
    min_cutoff,
    normalize,
    project_number,
    scale,
    tensor,
    vacuum,
)
from polscissors.preparations import PIPELINES, omega_pipeline, prepare_named, prepare_stages
from polscissors.sources import (
    SourceParams,
    coherent,
    heralded_target,
    lambda_circuit,
    lambda_state,
    split_amplitudes,
    xi_direct,
)

from conftest import random_state
from test_elements import apply_bs_reference


def hex_items(state):
    """Every amplitude in insertion order, its parts as exact hex strings."""
    if state is None:
        return None
    return [(key, amp.real.hex(), amp.imag.hex()) for key, amp in state.amplitudes.items()]


def project_number_reference(state, targets):
    """Plain per-key loop: match each measured mode, then drop it from the key.

    The matched amplitudes are kept as they are: the projected component.
    """
    wanted = {mode: (int(occ[0]), int(occ[1])) for mode, occ in targets}
    if len(wanted) == state.mode_count:
        amp = state.amplitude(tuple(wanted[m] for m in range(state.mode_count)))
        return ProjectionOutcome(abs(amp) ** 2, None)
    keep = [m for m in range(state.mode_count) if m not in wanted]
    amps = {}
    prob = 0.0
    for key, amp in state.amplitudes.items():
        if all(key[m] == occ for m, occ in wanted.items()):
            prob += amp.real * amp.real + amp.imag * amp.imag
            amps[tuple(key[m] for m in keep)] = amp
    if not amps:
        return ProjectionOutcome(prob, None)
    return ProjectionOutcome(prob, PureState(len(keep), state.cutoff, amps))


def conditional_reference(state, targets):
    """The conditional state: every matched amplitude over sqrt(P), then compacted."""
    out = project_number_reference(state, targets)
    if out.state is None:
        return None
    norm = out.probability**0.5
    amps = {k: v / norm for k, v in out.state.amplitudes.items()}
    return _raw_state(out.state.mode_count, state.cutoff, amps)


def assert_projection_contract(state, targets):
    """``project_number`` keeps the projected component, whose squared norm is the
    probability and which normalizes to the conditional state, all bit for bit."""
    got = project_number(state, targets)
    ref = project_number_reference(state, targets)
    assert got.probability.hex() == ref.probability.hex()
    assert hex_items(got.state) == hex_items(ref.state)
    if got.state is not None:
        assert got.state.norm_squared() == got.probability
        assert hex_items(normalize(got.state)) == hex_items(conditional_reference(state, targets))
    return got


def qs_detector_state_reference(state, mode, pol, t):
    """The four-step module: tensor the ancilla, tensor the vacuum, split both, mix."""
    n, cutoff = state.mode_count, state.cutoff
    single = (1, 0) if pol == H else (0, 1)
    ancilla = make_state(1, cutoff, [((single,), 1.0)])
    work = tensor(tensor(state, ancilla), vacuum(1, cutoff))
    work = apply_bs(work, BeamSplitterSpec(t, n, n + 1))
    return apply_bs(work, BeamSplitterSpec(0.5, mode, n + 1))


def signed_zero_state(rng, mode_count, cutoff):
    """Random state whose parts are often exactly +0.0 or -0.0."""
    amps = {}
    for _ in range(4 * mode_count + 4):
        key = tuple((rng.randint(0, 2), rng.randint(0, 2)) for _ in range(mode_count))
        parts = [rng.choice((0.0, -0.0, rng.gauss(0, 1))) for _ in range(2)]
        amps[key] = complex(*parts)
    amps = {k: a for k, a in amps.items() if abs(a) >= 1e-14} or {key: 1.0 + 0.0j}
    return PureState(mode_count, cutoff, amps)


def input_states():
    rng = random.Random(7)
    states = [random_state(rng, m, 5) for m in (1, 2, 3)]
    states += [signed_zero_state(rng, m, 4) for m in (2, 3)]
    states.append(lambda_state(SourceParams(0.7, 0.6, 0.4, (0.3,), 10), 3, tail_bound=1e-9))
    return states


@pytest.fixture
def recorded(monkeypatch):
    """Record each scissors module's input and the states its detectors project."""
    modules = []
    original_branches = scissors._qs_branches
    original_project = scissors.project_number

    def branches(state, mode, pol, t, **flags):
        modules.append({"args": (state, mode, pol, t), "projected": []})
        try:
            return original_branches(state, mode, pol, t, **flags)
        finally:
            modules[-1]["done"] = True

    def project(state, targets):
        if modules and "done" not in modules[-1]:
            modules[-1]["projected"].append((state, targets))
        return original_project(state, targets)

    monkeypatch.setattr(scissors, "_qs_branches", branches)
    monkeypatch.setattr(scissors, "project_number", project)
    return modules


class TestScissorsModule:
    @pytest.mark.parametrize("method", ["qs-H", "qs-V", "pqs1"])
    def test_detectors_project_the_four_step_state(self, recorded, method):
        for state in input_states():
            for mode in range(state.mode_count):
                if method == "pqs1":
                    scissors.pqs1_apply(state, mode, 0.83)
                else:
                    scissors.qs_apply(state, mode, method[-1], 0.61)
        assert recorded
        for module in recorded:
            reference = hex_items(qs_detector_state_reference(*module["args"]))
            assert len(module["projected"]) == 2
            for projected, _ in module["projected"]:
                assert hex_items(projected) == reference


class TestProjectNumber:
    TARGETS = [
        [(0, (1, 0))],
        [(1, (0, 0))],
        [(2, (1, 1)), (0, (0, 1))],
        [(1, (0, 0)), (2, (0, 0))],
        [(0, (0, 0)), (1, (1, 0)), (2, (0, 2))],
    ]

    @pytest.mark.parametrize("targets", TARGETS)
    def test_bitwise_equal_to_the_plain_loop(self, targets):
        rng = random.Random(11)
        states = [random_state(rng, 3, 3, max_photons=1) for _ in range(4)]
        states += [signed_zero_state(rng, 3, 3) for _ in range(4)]
        for state in states:
            assert_projection_contract(state, targets)

    def test_one_kept_mode_keeps_a_one_mode_key(self):
        state = random_state(random.Random(3), 2, 2, max_photons=1)
        for occ in ((0, 0), (1, 0), (0, 1), (1, 1)):
            got = assert_projection_contract(state, [(1, occ)])
            assert all(len(key) == 1 for key in (got.state.amplitudes if got.state else ()))

    def test_bad_targets_still_raise(self):
        state = random_state(random.Random(4), 2, 2)
        with pytest.raises(FockError):
            project_number(state, [(0, (0, 0)), (0, (1, 0))])
        with pytest.raises(FockError):
            project_number(state, [(2, (0, 0))])


class TestPairTermCache:
    def test_cache_is_bounded(self):
        info = elements._kept_pair_terms.cache_info()
        assert info.maxsize == elements.PAIR_TERM_CACHE_SIZE

    @pytest.mark.parametrize("modes", [(0, 1), (2, 0)])
    def test_output_does_not_depend_on_earlier_calls(self, modes):
        # one set of keys at three cutoffs, so the same (p, q) pairs meet
        # cutoffs that cut different terms, at two t values; in either call
        # order each output is the uncached plain loop's, bit for bit
        calls = [
            (BeamSplitterSpec(t, *modes), random_state(random.Random(5), 3, cutoff))
            for t in (0.37, 0.5)
            for cutoff in (2, 4, 6)
        ]
        expected = [
            [(k, v.real.hex(), v.imag.hex()) for k, v in apply_bs_reference(state, spec).items()]
            for spec, state in calls
        ]
        for order in (range(len(calls)), reversed(range(len(calls)))):
            elements._kept_pair_terms.cache_clear()
            for i in order:
                spec, state = calls[i]
                assert hex_items(apply_bs(state, spec)) == expected[i]
        # more entries than the cache holds evict the ones these calls need
        for i in range(elements.PAIR_TERM_CACHE_SIZE + 10):
            elements._kept_pair_terms(i % 3, 1, 0.001 + i * 1e-5, 4)
        assert elements._kept_pair_terms.cache_info().currsize == elements.PAIR_TERM_CACHE_SIZE
        for (spec, state), want in zip(calls, expected):
            assert hex_items(apply_bs(state, spec)) == want

    @pytest.mark.parametrize("t", [0.5, 0.37])
    def test_a_cutoff_that_cuts_no_term_shares_the_entries(self, t):
        # every per-polarization photon total p + q is at most 4, so cutoffs 4
        # and 9 cut no term: the second call reads only the first one's entries
        spec = BeamSplitterSpec(t, 0, 1)
        small, large = (random_state(random.Random(7), 3, cutoff) for cutoff in (4, 9))
        elements._kept_pair_terms.cache_clear()
        apply_bs(small, spec)
        misses = elements._kept_pair_terms.cache_info().misses
        assert misses > 0
        out = apply_bs(large, spec)
        assert elements._kept_pair_terms.cache_info().misses == misses
        want = apply_bs_reference(large, spec)
        assert hex_items(out) == [(k, v.real.hex(), v.imag.hex()) for k, v in want.items()]


def reference_items(state, spec, herald=None):
    """``apply_bs_reference``'s items in its order, cut to the herald's pairs when given."""
    a, b = spec.mode_a, spec.mode_b
    return [
        (k, v.real.hex(), v.imag.hex())
        for k, v in apply_bs_reference(state, spec).items()
        if herald is None or (k[a], k[b]) in herald
    ]


class TestSourceCircuitShapes:
    """The states the source circuits hand ``apply_bs``, against the plain loop.

    Unlike the random states above, where input pairs repeat, the first
    splitter of ``xi_circuit`` meets each (key[a], key[b]) pair once.
    """

    def test_xi_circuit_first_splitter(self):
        delta = 1.55
        cutoff = min_cutoff(delta * math.sqrt(2.0))
        state = tensor(sources.cat(delta, 0.7, H, cutoff), coherent(delta, H, cutoff))
        spec = BeamSplitterSpec(0.5, 0, 1)
        pairs = {(key[0], key[1]) for key in state.amplitudes}
        assert len(pairs) == len(state.amplitudes) > 700
        assert hex_items(apply_bs(state, spec)) == reference_items(state, spec)

    @pytest.fixture(scope="class")
    def split_input(self):
        """A circuit-built 3-arm source tensored with the vacuum, as ``lambda_circuit`` splits it."""
        params = SourceParams(0.9, 0.3, 0.5, (0.45,), min_cutoff(0.9 * math.sqrt(2.0)))
        return tensor(lambda_circuit(params, 3), vacuum(1, params.cutoff))

    @pytest.mark.parametrize("modes", [(2, 3), (3, 2)])
    def test_lambda_circuit_split_step(self, split_input, modes):
        spec = BeamSplitterSpec(0.55, *modes)
        assert hex_items(apply_bs(split_input, spec)) == reference_items(split_input, spec)

    def test_heralded_call(self, split_input):
        # every key holds H photons only or V photons only, so each pair's
        # totals are (n, 0) or (0, n); the herald keeps two of the three
        # patterns of totals (2, 0) and one of the two of totals (0, 1)
        herald = {((2, 0), (0, 0)), ((1, 0), (1, 0)), ((0, 1), (0, 0))}
        state = apply_bs(split_input, BeamSplitterSpec(0.55, 2, 3))
        spec = BeamSplitterSpec(0.5, 3, 2)
        want = reference_items(state, spec, herald)
        assert {(k[3], k[2]) for k, *_ in want} == herald
        assert hex_items(apply_bs(state, spec, herald=herald)) == want


def bs_pair_terms_reference(p, q, t):
    """The plain double loop: every power and binomial recomputed per (i, j)."""
    st = math.sqrt(t)
    sr = math.sqrt(1.0 - t)
    terms = {}
    for i in range(p + 1):
        ci = math.comb(p, i) * st**i * sr ** (p - i)
        for j in range(q + 1):
            cj = math.comb(q, j) * sr**j * (-st) ** (q - j)
            terms[i + j] = terms.get(i + j, 0.0) + ci * cj
    base = math.sqrt(math.factorial(p) * math.factorial(q))
    out = []
    for na, c in terms.items():
        nb = p + q - na
        w = c * math.sqrt(math.factorial(na) * math.factorial(nb)) / base
        if w != 0.0:
            out.append((na, nb, w))
    return out


@pytest.mark.parametrize("t", [0.0, 0.37, 0.5, 0.83, 1.0])
def test_bs_pair_terms_bitwise_equal_to_the_double_loop(t):
    for p in range(25):
        for q in range(25):
            got = [(na, nb, w.hex()) for na, nb, w in elements._bs_pair_terms(p, q, t)]
            want = [(na, nb, w.hex()) for na, nb, w in bs_pair_terms_reference(p, q, t)]
            assert got == want, (p, q)


def two_branch_reference(params, n, photon_arms, norm, tail_bound):
    """``norm |H> + norm e^(i phi) |V>`` composed state by state with tensor, add and scale."""
    gammas = split_amplitudes(params, n)

    def branch(pol, sign):
        photon = ((1, 0) if pol == H else (0, 1),)
        factors = [
            make_state(1, params.cutoff, [(photon, 1.0)])
            if k in photon_arms
            else coherent(sign * g, pol, params.cutoff, tail_bound)
            for k, g in enumerate(gammas)
        ]
        return functools.reduce(tensor, factors)

    return add(scale(branch(H, 1.0), norm), scale(branch(V, -1.0), norm * cmath.exp(1j * params.phi)))


def source_grid():
    """Seeded sources over n <= 4 at the phase and split edges, with their tail budgets.

    The cutoffs run past the feasible one, so products fall below the
    compaction tolerance; small amplitudes at phi = pi give a normalization
    far above 1, where a product dropped just below the tolerance would
    survive the scaling.
    """
    rng = random.Random(12)
    edges = (0.0, 1.0, 0.5)
    for n in (2, 3, 4):
        for phi in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
            for tail_bound in (1e-12, 1e-9):
                for delta, ts in ((0.05, (rng.uniform(0.2, 0.8),)), (rng.uniform(0.3, 0.9), edges)):
                    t0 = rng.choice(ts + (rng.random(),))
                    split_ts = tuple(rng.choice(ts + (rng.random(),)) for _ in range(n - 2))
                    cutoff = min_cutoff(delta * math.sqrt(2.0), tail_bound) + 10 - 2 * n
                    yield SourceParams(delta, phi, t0, split_ts, cutoff), n, tail_bound
    # the phase (1, -5e-324) leaves V products of (positive, -0.0), the sign of
    # zero ``add``'s ``0j + v`` clears.  Where a complex times a float promotes
    # the float to a complex, as CPython 3.11 does, the scaling by the norm
    # clears it too; with mixed-mode arithmetic only ``0j + v`` does.
    yield SourceParams(0.6, -5e-324, 0.4, (0.5,), 14), 3, 1e-12


def signed_zero_v_products(params, n, tail_bound):
    """How many V products of the source have a -0.0 imaginary part after the phase."""
    gammas = split_amplitudes(params, n)
    factors = [list(coherent(-g, V, params.cutoff, tail_bound).amplitudes.items()) for g in gammas]
    phase = cmath.exp(1j * params.phi)
    products = (va * vb * phase for _, va in sources._prefix(factors) for _, vb in factors[-1])
    kept = (v for v in products if abs(v) >= fock.DEFAULT_TOL)
    return sum(1 for v in kept if v.imag == 0.0 and math.copysign(1.0, v.imag) < 0.0)


def photon_arm_sets(n):
    return [(0,), (1,), (1, 0), tuple(range(n))]


class TestSources:
    def test_lambda_state_and_targets_bitwise_equal_to_the_composition(self):
        cases = signed_zeros = 0
        for params, n, tail_bound in source_grid():
            norm = analytics.m_n(split_amplitudes(params, n), params.phi)
            want = two_branch_reference(params, n, (), norm, tail_bound)
            assert hex_items(lambda_state(params, n, tail_bound)) == hex_items(want)
            if n == 2:
                assert hex_items(xi_direct(params, tail_bound)) == hex_items(want)
            for arms in photon_arm_sets(n):
                want = two_branch_reference(params, n, arms, 1.0 / math.sqrt(2.0), tail_bound)
                got = heralded_target(params, n, arms, tail_bound)
                assert hex_items(got) == hex_items(want), (params, n, arms)
            cases += 1
            signed_zeros += signed_zero_v_products(params, n, tail_bound) > 0
        assert cases == 49
        assert signed_zeros >= 1

    def test_built_without_tensor_add_or_scale(self, monkeypatch):
        # the one-pass builder makes no intermediate state; the composition
        # above must not quietly come back
        def refuse(*args):
            raise AssertionError("a source was composed state by state")

        for name in ("tensor", "add", "scale"):
            monkeypatch.setattr(fock, name, refuse)
            if hasattr(sources, name):
                monkeypatch.setattr(sources, name, refuse)
        params = SourceParams(0.7, 0.4, 0.45, (0.3, 0.6), 12)
        assert lambda_state(params, 4).amplitudes
        assert heralded_target(params, 4, (1, 0)).amplitudes
        assert xi_direct(SourceParams(0.7, 0.4, 0.45, (), 12)).amplitudes


def product_state(factors, cutoff):
    """A branch's factors tensored into one state, left to right."""
    modes = [PureState(1, cutoff, {(occ,): a for occ, a in f.items()}) for f in factors]
    return functools.reduce(tensor, modes)


def prep_state_reference(result):
    """``PrepResult.state`` composed state by state: each branch tensored, scaled, then summed."""
    terms = [scale(product_state(factors, result.cutoff), c) for c, factors in result.branches]
    return functools.reduce(add, terms)


def prep_results():
    """The four named preparations and seeded mixed-method Omega chains, with their names."""
    for name in sorted(PIPELINES):
        knob = 0.9 if PIPELINES[name].method == "pqs1" else 0.06
        yield name, prepare_named(name, 1.1, 0.4, 0.45, knob)
    rng = random.Random(21)
    for _ in range(12):
        n = rng.randint(2, 4)
        j = rng.randint(1, n)
        methods = tuple(rng.choice(("pqs1", "pqs2")) for _ in range(j))
        knobs = {"t": rng.uniform(0.6, 0.95), "gamma_abs": rng.uniform(0.02, 0.08)}
        splits = tuple(rng.uniform(0.2, 0.8) for _ in range(n - 2))
        delta, phi, t0 = rng.uniform(0.3, 1.2), rng.uniform(0.0, 2 * math.pi), rng.uniform(0.2, 0.8)
        stages = prepare_stages(omega_pipeline(n, j, methods), delta, phi, t0, knobs, splits)
        yield f"omega-n{n}-j{j}-{'-'.join(methods)}", stages[-1]


class TestPrepResultState:
    def test_bitwise_equal_to_the_composition(self):
        cases = 0
        for name, result in prep_results():
            assert result.branches, name
            assert hex_items(result.state) == hex_items(prep_state_reference(result)), name
            cases += 1
        assert cases == 16

    @pytest.mark.parametrize("name,key", [("hybrid-pqs2", ((0, 0), (1, 1))), ("bell-pqs2", ((1, 1), (1, 1)))])
    def test_pqs2_branches_share_keys_beyond_the_vacuum(self, name, key):
        # the expander must sum these, not append a second amplitude
        result = prepare_named(name, 1.1, 0.4, 0.45, 0.06)
        (ch, h), (cv, v) = result.branches
        h, v = product_state(h, result.cutoff).amplitudes, product_state(v, result.cutoff).amplitudes
        assert key in h and key in v
        assert result.state.amplitudes[key] == h[key] * ch + v[key] * cv


def inner_product_reference(a, b):
    """Plain loop over the smaller state's keys: membership test, then two subscripts."""
    small, other = (a, b) if len(a.amplitudes) <= len(b.amplitudes) else (b, a)
    total = 0.0 + 0.0j
    for k in small.amplitudes:
        if k in other.amplitudes:
            total += a.amplitudes[k].conjugate() * b.amplitudes[k]
    return total


def hex_complex(z):
    return z.real.hex(), z.imag.hex()


def hex_inner(a, b):
    return hex_complex(inner_product(a, b))


class TestInnerProduct:
    def pairs(self):
        rng = random.Random(18)
        for _ in range(30):
            modes = rng.choice((1, 2, 3))
            a = random_state(rng, modes, 6, rng.choice((1, 2)))
            b = random_state(rng, modes, 6, rng.choice((1, 2, 3)))
            yield a, b
        params = SourceParams(0.6, 0.4, 0.45, (0.5,), 14)
        yield lambda_circuit(params, 3), lambda_state(params, 3)

    def test_bitwise_equal_to_the_plain_loop_in_both_orders(self):
        sizes = set()
        for a, b in self.pairs():
            sizes.add(len(a.amplitudes) < len(b.amplitudes))
            for x, y in ((a, b), (b, a)):
                assert hex_inner(x, y) == hex_complex(inner_product_reference(x, y))
        assert sizes == {True, False}

    def test_equal_sizes_read_the_first_state_in_its_order(self):
        keys = [((n, 0), (0, m)) for n in range(3) for m in range(3)]
        rng = random.Random(7)

        def state(ks):
            return make_state(2, 4, [(k, complex(rng.gauss(0, 1), rng.gauss(0, 1))) for k in ks])

        # six keys each, three in common, met in opposite orders
        a, b = state(keys[:6]), state(keys[:2:-1])
        assert len(a.amplitudes) == len(b.amplitudes)
        for x, y in ((a, b), (b, a)):
            assert hex_inner(x, y) == hex_complex(inner_product_reference(x, y))

    def test_disjoint_supports_give_a_positive_zero(self):
        a = make_state(2, 4, [(((1, 0), (0, 0)), -0.5j), (((2, 0), (1, 0)), -1.0)])
        b = make_state(
            2, 4, [(((0, 1), (0, 0)), -0.5), (((0, 2), (0, 1)), 1j), (((0, 0), (0, 3)), 2.0)]
        )
        for x, y in ((a, b), (b, a)):
            got = inner_product(x, y)
            assert got == 0j
            assert hex_complex(got) == hex_complex(0j) == hex_complex(inner_product_reference(x, y))

    def test_a_state_with_itself(self):
        for a, b in self.pairs():
            for x in (a, b):
                assert hex_inner(x, x) == hex_complex(inner_product_reference(x, x))

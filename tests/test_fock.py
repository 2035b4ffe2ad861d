import cmath
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from polscissors.fock import (
    DEFAULT_TOL,
    MAX_CUTOFF,
    CutoffError,
    FockError,
    PureState,
    ShapeMismatchError,
    ZeroNormError,
    add,
    coherent_tail_weight,
    dump_lines,
    fidelity,
    inner_product,
    make_state,
    min_cutoff,
    normalize,
    permute_modes,
    project_number,
    prune,
    scale,
    tensor,
    vacuum,
)
from polscissors.elements import SqueezerSpec, apply_squeezer_exact
from polscissors.scissors import pqs2_apply
from polscissors.sources import coherent, expand

from conftest import parse_dump, random_state
from test_kernel_oracles import assert_projection_contract, hex_items


def ket(key, cutoff=4):
    return make_state(len(key), cutoff, [(tuple(key), 1.0)])


def poisson_amp(gamma, n):
    # independent oracle for coherent amplitudes
    return math.exp(-gamma * gamma / 2) * gamma**n / math.sqrt(math.factorial(n))


class TestMakeState:
    def test_basis_ket(self):
        state = make_state(1, 4, [(((1, 0),), 1.0)])
        assert state.amplitude(((1, 0),)) == 1.0
        assert state.norm_squared() == 1.0

    def test_two_term_norm(self):
        state = make_state(
            2,
            4,
            [
                (((1, 0), (0, 0)), 1 / math.sqrt(2)),
                (((0, 1), (0, 0)), 1 / math.sqrt(2)),
            ],
        )
        assert state.norm() == pytest.approx(1.0, abs=1e-15)

    def test_occupation_exceeds_cutoff(self):
        with pytest.raises(CutoffError):
            make_state(1, 4, [(((5, 0),), 1.0)])

    def test_key_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            make_state(2, 4, [(((1, 0),), 1.0)])

    def test_duplicate_keys_accumulate(self):
        state = make_state(1, 4, [(((1, 0),), 0.25), (((1, 0),), 0.75)])
        assert state.amplitude(((1, 0),)) == 1.0

    def test_sub_tolerance_amplitudes_dropped(self):
        state = make_state(1, 4, [(((0, 0),), 1.0), (((1, 0),), 1e-16)])
        assert ((1, 0),) not in state.amplitudes

    def test_states_compare_by_identity(self):
        # equal shapes say nothing of the amplitudes, so == is identity
        h = make_state(1, 2, [(((1, 0),), 1)])
        v = make_state(1, 2, [(((0, 1),), 1)])
        assert h == h and h != v
        assert h != make_state(1, 2, [(((1, 0),), 1)])
        assert len({h, v}) == 2


class TestInnerProduct:
    def test_orthonormal_basis(self):
        assert inner_product(ket([(1, 0)]), ket([(1, 0)])) == 1.0
        assert inner_product(ket([(1, 0)]), ket([(0, 1)])) == 0.0

    def test_coherent_overlap(self):
        # oracle: direct sum of poisson amplitudes
        expected = sum(poisson_amp(1.0, n) * poisson_amp(-1.0, n) for n in range(25))
        got = inner_product(coherent(1.0, "H", 24), coherent(-1.0, "H", 24))
        assert got.real == pytest.approx(expected, abs=1e-14)
        assert got.real == pytest.approx(math.exp(-2.0), abs=1e-10)
        assert got.imag == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            inner_product(ket([(1, 0)]), ket([(1, 0), (0, 0)]))

    @given(
        re1=st.floats(-1, 1),
        im1=st.floats(-1, 1),
        re2=st.floats(-1, 1),
        im2=st.floats(-1, 1),
    )
    @settings(max_examples=30, deadline=None)
    def test_conjugate_symmetry(self, re1, im1, re2, im2):
        a = make_state(1, 3, [(((0, 0),), complex(re1, im1)), (((1, 1),), 0.3)])
        b = make_state(1, 3, [(((0, 0),), complex(re2, im2)), (((2, 0),), 0.7j)])
        assert inner_product(a, b) == pytest.approx(
            inner_product(b, a).conjugate(), abs=1e-14
        )

    def test_sesquilinear_in_second_argument(self, rng):
        a = random_state(rng, 1, 3)
        b = random_state(rng, 1, 3)
        c = random_state(rng, 1, 3)
        lam = 0.3 - 1.2j
        from polscissors.fock import add

        lhs = inner_product(a, add(b, scale(c, lam)))
        rhs = inner_product(a, b) + lam * inner_product(a, c)
        assert lhs == pytest.approx(rhs, abs=1e-12)


class TestFidelity:
    def test_identical_and_orthogonal(self):
        assert fidelity(ket([(1, 0)]), ket([(1, 0)])) == 1.0
        assert fidelity(ket([(1, 0)]), ket([(0, 1)])) == 0.0

    def test_coherent_pair(self):
        got = fidelity(coherent(1.0, "H", 24), coherent(0.9, "H", 24))
        assert got == pytest.approx(math.exp(-0.01), abs=1e-9)

    def test_global_phase_invariance(self, rng):
        a = random_state(rng, 2, 3)
        assert fidelity(scale(a, 1j), a) == pytest.approx(1.0, abs=1e-12)

    def test_scaling_invariance(self, rng):
        a = random_state(rng, 1, 3)
        b = random_state(rng, 1, 3)
        assert fidelity(scale(a, 3.7), b) == pytest.approx(fidelity(a, b), abs=1e-12)

    def test_zero_norm_rejected(self):
        zero = make_state(1, 4, [])
        with pytest.raises(ZeroNormError):
            fidelity(zero, ket([(1, 0)]))


class TestTensor:
    def test_single_photon_with_vacuum(self):
        state = tensor(ket([(1, 0)]), vacuum(1, 4))
        assert state.amplitude(((1, 0), (0, 0))) == 1.0
        assert state.mode_count == 2

    def test_norm_multiplies(self, rng):
        a = random_state(rng, 1, 3)
        b = random_state(rng, 2, 3)
        assert tensor(a, b).norm() == pytest.approx(a.norm() * b.norm(), abs=1e-12)

    def test_double_vacuum_projection_probability(self):
        two = tensor(coherent(1.0, "H", 20), coherent(1.0, "H", 20))
        out = project_number(two, [(0, (0, 0)), (1, (0, 0))])
        assert out.probability == pytest.approx(poisson_amp(1.0, 0) ** 4, abs=1e-12)

    def test_marginal_statistics_preserved(self, rng):
        a = random_state(rng, 1, 3)
        b = random_state(rng, 1, 3)
        joint = tensor(a, b)
        for occ in [(0, 0), (1, 0), (2, 1)]:
            direct = project_number(b, [(0, occ)]).probability
            via_joint = project_number(joint, [(1, occ)]).probability
            assert via_joint == pytest.approx(direct * a.norm_squared(), abs=1e-12)

    def test_cutoff_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            tensor(ket([(1, 0)], cutoff=4), ket([(1, 0)], cutoff=5))


class TestProjection:
    def test_vacuum_on_coherent(self):
        out = project_number(tensor(coherent(1.0, "H", 20), vacuum(1, 20)), [(0, (0, 0))])
        assert out.probability == pytest.approx(math.exp(-1.0), abs=1e-12)

    def test_impossible_outcome(self):
        out = project_number(tensor(ket([(1, 0)], 4), vacuum(1, 4)), [(0, (1, 1))])
        assert out.probability == 0.0
        assert out.state is None

    def test_born_rule_and_mode_removal(self):
        sup = make_state(
            2,
            4,
            [(((1, 0), (0, 0)), 1 / math.sqrt(2)), (((0, 1), (0, 0)), 1 / math.sqrt(2))],
        )
        out = assert_projection_contract(sup, [(0, (1, 0))])
        assert out.probability == pytest.approx(0.5, abs=1e-14)
        assert out.state.mode_count == 1
        assert normalize(out.state).amplitude(((0, 0),)) == pytest.approx(1.0, abs=1e-14)

    def test_full_measurement_leaves_no_state(self):
        sup = make_state(1, 4, [(((1, 0),), 1 / math.sqrt(2)), (((0, 1),), 1 / math.sqrt(2))])
        out = project_number(sup, [(0, (1, 0))])
        assert out.probability == pytest.approx(0.5, abs=1e-14)
        assert out.state is None

    def test_completeness(self, rng):
        state = random_state(rng, 2, 3)
        total = sum(
            project_number(state, [(0, (nh, nv))]).probability
            for nh in range(4)
            for nv in range(4)
        )
        assert total == pytest.approx(state.norm_squared(), abs=1e-10)

    def test_conditional_normalized(self, rng):
        state = random_state(rng, 2, 3)
        out = assert_projection_contract(state, [(1, (1, 0))])
        if out.state is not None:
            assert normalize(out.state).norm() == pytest.approx(1.0, abs=1e-12)


class TestNormalize:
    def test_scaled_ket(self):
        state = normalize(scale(ket([(1, 0)]), 2.0))
        assert state.amplitude(((1, 0),)) == pytest.approx(1.0, abs=1e-15)

    def test_idempotent(self, rng):
        state = random_state(rng, 1, 3)
        again = normalize(normalize(state))
        assert fidelity(state, again) == pytest.approx(1.0, abs=1e-13)
        assert again.norm() == pytest.approx(1.0, abs=1e-13)

    def test_zero_norm(self):
        with pytest.raises(ZeroNormError):
            normalize(make_state(1, 4, []))


class TestTailWeights:
    def test_vacuum_has_no_tail(self):
        assert coherent_tail_weight(0.0, 0) == 0.0
        assert coherent_tail_weight(0.0, 7) == 0.0

    def test_poisson_tail_values(self):
        # oracle: explicit poisson tail sums (log form to dodge factorial overflow)
        def tail(gamma, cutoff):
            mean = gamma * gamma
            return sum(
                math.exp(-mean + n * math.log(mean) - math.lgamma(n + 1))
                for n in range(cutoff + 1, 200)
            )

        assert coherent_tail_weight(1.0, 10) == pytest.approx(tail(1.0, 10), rel=1e-10)
        assert coherent_tail_weight(1.0, 10) < 1e-7
        big = 2.0 * math.sqrt(2.0)
        assert coherent_tail_weight(big, 30) == pytest.approx(tail(big, 30), rel=1e-10)
        assert coherent_tail_weight(big, 35) < 1e-12

    def test_monotone_in_cutoff(self):
        weights = [coherent_tail_weight(1.5, c) for c in range(20)]
        assert all(a >= b for a, b in zip(weights, weights[1:]))

    def test_min_cutoff(self):
        c = min_cutoff(2.0 * math.sqrt(2.0))
        assert coherent_tail_weight(2.0 * math.sqrt(2.0), c) <= 1e-12
        assert coherent_tail_weight(2.0 * math.sqrt(2.0), c - 1) > 1e-12

    def test_underflowing_first_term_keeps_the_tail(self):
        # exp(-900) * 900 underflows, but almost all of Poisson(900) lies past 0
        assert coherent_tail_weight(30.0, 0) == 1.0
        c = min_cutoff(30.0)
        assert c > 30.0**2
        assert coherent_tail_weight(30.0, c) <= 1e-12 < coherent_tail_weight(30.0, c - 1)

    def test_overflowing_mean_keeps_the_whole_tail(self):
        # gamma^2 overflows to inf past gamma ~ 1.34e154: no cutoff keeps the state
        assert coherent_tail_weight(1e200, 5) == 1.0
        with pytest.raises(CutoffError):
            min_cutoff(1e200)

    def test_min_cutoff_is_the_first_cutoff_within_the_bound(self):
        # the reference any faster search must keep: the first cutoff whose
        # tail is at or below the bound, else CutoffError past MAX_CUTOFF
        rng = random.Random(20)
        root = math.sqrt(MAX_CUTOFF)
        gammas = [0.0, 5e-324, 1e-150, 1e-8, 0.3, -1.7, 30.0, 1e200, math.inf]
        gammas += [root - 4.5, root - 1.0, root + 0.5]  # cutoffs just below MAX_CUTOFF, or none
        gammas += [rng.uniform(0.0, 12.0) for _ in range(12)] + [math.exp(rng.uniform(-20, 4)) for _ in range(6)]
        bounds = [1e-18, 1e-15, 1e-12, 1e-9, 1e-6, 1e-3, 0.1, 0.5, 0.9]
        bounds += [10 ** rng.uniform(-18, math.log10(0.9)) for _ in range(8)]
        outcomes = set()
        for gamma in gammas:
            weights = []  # one scan per gamma serves every bound: it stops once the smallest is met
            while len(weights) <= MAX_CUTOFF and (not weights or weights[-1] > min(bounds)):
                weights.append(coherent_tail_weight(gamma, len(weights)))
            for bound in bounds + weights[1:3]:  # a bound equal to a tail weight pins "at or below"
                want = next((c for c, w in enumerate(weights) if not w > bound), None)
                outcomes.add(want is None)
                if want is None:
                    with pytest.raises(CutoffError, match=f"^no feasible cutoff for amplitude {re.escape(str(gamma))}$"):
                        min_cutoff(gamma, bound)
                else:
                    assert min_cutoff(gamma, bound) == want, (gamma, bound)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("gamma", [math.nan, -math.nan])
    def test_a_nan_amplitude_has_no_cutoff(self, gamma):
        # its tail weight reads 0.0 at every cutoff, which the scan alone would take for cutoff 0
        assert coherent_tail_weight(gamma, 0) == 0.0
        with pytest.raises(CutoffError, match="^no feasible cutoff for amplitude nan$"):
            min_cutoff(gamma)


class TestPermute:
    def test_swap(self):
        state = make_state(2, 4, [(((1, 0), (0, 2)), 1.0)])
        swapped = permute_modes(state, [1, 0])
        assert swapped.amplitude(((0, 2), (1, 0))) == 1.0

    def test_identity(self, rng):
        state = random_state(rng, 3, 2)
        assert permute_modes(state, [0, 1, 2]).amplitudes == state.amplitudes


class TestDumpFormat:
    def test_round_trip(self, rng):
        state = random_state(rng, 2, 3)
        rebuilt = parse_dump(dump_lines(state), cutoff=3)
        assert fidelity(state, rebuilt) == pytest.approx(1.0, abs=1e-13)
        assert rebuilt.norm_squared() == pytest.approx(state.norm_squared(), abs=1e-13)

    def test_deterministic_ordering(self):
        state = make_state(1, 4, [(((2, 0),), 0.5), (((0, 1),), 0.5), (((1, 1),), 0.5)])
        lines = dump_lines(state)
        assert lines == sorted(lines)
        assert lines[0].startswith("m0:(0,1)")

    def test_format_shape(self):
        line = dump_lines(ket([(1, 0), (0, 0)]))[0]
        assert line.startswith("m0:(1,0);m1:(0,0) ")
        assert len(line.split(" ")) == 3


def test_compaction_projection_drift(rng):
    # sub-tolerance amplitudes may move projection probabilities only at tol^2 scale
    entries = [(((n, m), (0, 0)), 0.5 if (n, m) == (0, 0) else 5e-15) for n in range(3) for m in range(3)]
    tol = DEFAULT_TOL
    raw = PureState(2, 2, {key: complex(amp) for key, amp in entries})
    compacted = make_state(2, 2, entries)
    bound = 2 * 2**2 * tol**2 * 100  # mode_count * cutoff^2 * tol^2, generous constant
    for nh in range(3):
        for nv in range(3):
            p_raw = project_number(raw, [(0, (nh, nv))]).probability
            p_cmp = project_number(compacted, [(0, (nh, nv))]).probability
            assert abs(p_raw - p_cmp) <= bound


NAN = float("nan")


def odd_amps(seed, modes=2, cutoff=5, count=30):
    """Seeded amplitudes over 1e-17..1 in magnitude, with NaN and -0.0 parts."""
    rng = random.Random(seed)
    amps = {}
    while len(amps) < count:
        key = tuple((rng.randint(0, cutoff), rng.randint(0, cutoff)) for _ in range(modes))
        mag = 10.0 ** rng.uniform(-17.0, 0.0)
        amps[key] = complex(rng.gauss(0, 1) * mag, rng.gauss(0, 1) * mag)
    keys = list(amps)
    rng.shuffle(keys)
    amps[keys[0]] = complex(NAN, 0.25)
    amps[keys[1]] = complex(0.5, -0.0)
    amps[keys[2]] = complex(-0.0, -0.0)
    amps[keys[3]] = complex(-0.0, 3e-15)
    amps[keys[4]] = complex(0.125, NAN)
    return amps


def finite_amps(seed, **kwargs):
    """``odd_amps`` without its two NaN keys: the constructors raise on a NaN."""
    return {k: v for k, v in odd_amps(seed, **kwargs).items() if not cmath.isnan(v)}


def hex_dict(amps):
    return [(k, v.real.hex(), v.imag.hex()) for k, v in amps.items()]


def compact_reference(amps):
    """The comprehension every constructor used to build its output with."""
    return {k: a for k, a in amps.items() if abs(a) >= DEFAULT_TOL}


class TestPrune:
    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("budget", [1e-28, 1e-12, 1e-4])
    def test_matches_the_plain_comprehension_and_keeps_its_input(self, seed, budget):
        amps = finite_amps(seed)
        before = hex_dict(amps)
        state = PureState(2, 5, amps)
        out = prune(state, budget)
        threshold = math.sqrt(budget / len(amps))
        want = {k: v for k, v in amps.items() if abs(v) > threshold}
        assert hex_items(out) == hex_dict(want)
        assert state.amplitudes is amps and hex_dict(amps) == before
        dropped = [abs(v) ** 2 for k, v in amps.items() if k not in want]
        assert math.fsum(dropped) <= budget

    def test_a_zero_budget_or_nothing_to_drop_returns_the_input(self):
        state = PureState(2, 5, odd_amps(0))
        assert prune(state, 0.0) is state
        # smallest magnitude here is 1e-17; the threshold is about 1e-151
        clean = make_state(2, 5, [(k, v) for k, v in odd_amps(1).items() if not cmath.isnan(v)])
        before = hex_items(clean)
        assert prune(clean, 1e-300) is clean and hex_items(clean) == before


class TestConstructorsOwnTheirOutput:
    """Each constructor compacts a dict of its own, never an input's."""

    @pytest.mark.parametrize("seed", range(3))
    def test_add_scale_tensor_normalize_leave_their_inputs(self, seed):
        x = PureState(2, 5, finite_amps(seed))
        y = PureState(2, 5, finite_amps(seed + 10))
        z = PureState(1, 5, finite_amps(seed + 20, modes=1, count=12))
        clean = PureState(2, 5, finite_amps(seed + 30))
        inputs = (x, y, z, clean)
        before = [hex_items(s) for s in inputs]

        def added(a, b):
            amps = dict(a.amplitudes)
            for k, v in b.amplitudes.items():
                amps[k] = amps.get(k, 0.0 + 0.0j) + v
            return amps

        minus_x = scale(x, -1)
        cases = [
            (add(x, y), added(x, y)),
            (add(x, minus_x), added(x, minus_x)),
            (scale(y, 0.5 - 2j), {k: v * (0.5 - 2j) for k, v in y.amplitudes.items()}),
            (scale(y, 1e-16), {k: v * 1e-16 for k, v in y.amplitudes.items()}),
            (tensor(x, z), {ka + kb: va * vb for ka, va in x.amplitudes.items() for kb, vb in z.amplitudes.items()}),
            (normalize(clean), {k: v / clean.norm() for k, v in clean.amplitudes.items()}),
            (normalize(x), {k: v / x.norm() for k, v in x.amplitudes.items()}),
        ]
        for got, raw in cases:
            assert hex_items(got) == hex_dict(compact_reference(raw))
        assert hex_items(add(x, minus_x)) == []
        assert [hex_items(s) for s in inputs] == before

    @pytest.mark.parametrize("seed", range(3))
    def test_make_state_accumulates_then_compacts(self, seed):
        amps = finite_amps(seed)
        entries = list(amps.items()) + [(k, -v) for k, v in list(amps.items())[::3]]
        before = [(k, v.real.hex(), v.imag.hex()) for k, v in entries]
        raw = {}
        for k, v in entries:
            raw[k] = raw.get(k, 0.0 + 0.0j) + complex(v)
        assert hex_items(make_state(2, 5, entries)) == hex_dict(compact_reference(raw))
        assert [(k, v.real.hex(), v.imag.hex()) for k, v in entries] == before
        assert hex_dict(amps) == before[: len(amps)]


class TestNanFailsLoudly:
    """A NaN amplitude raises ``FockError`` naming a key; it is never dropped as if small."""

    def test_a_one_key_nan_state_is_refused_not_empty(self):
        with pytest.raises(FockError, match=r"^NaN amplitude at key \(\(0, 0\),\)$"):
            make_state(1, 2, [(((0, 0),), NAN)])

    @pytest.mark.parametrize("name", ["make_state", "add", "scale", "tensor", "normalize", "prune"])
    @pytest.mark.parametrize("seed", range(3))
    def test_every_constructor_raises_on_a_nan(self, name, seed):
        amps = odd_amps(seed)
        nan_keys = {k for k, v in amps.items() if cmath.isnan(v)}
        x = PureState(2, 5, amps)
        clean = PureState(2, 5, finite_amps(seed + 10))
        z = PureState(1, 5, finite_amps(seed + 20, modes=1, count=12))
        calls = {
            "make_state": (lambda: make_state(2, 5, amps.items()), nan_keys),
            "add": (lambda: add(clean, x), nan_keys),
            "scale": (lambda: scale(x, 0.5 - 2j), nan_keys),
            "tensor": (lambda: tensor(x, z), {ka + kb for ka in nan_keys for kb in z.amplitudes}),
            # the norm is NaN, so every amplitude of the output is
            "normalize": (lambda: normalize(x), set(amps)),
            "prune": (lambda: prune(x, 1e-12), nan_keys),
        }
        call, named = calls[name]
        with pytest.raises(FockError) as excinfo:
            call()
        assert str(excinfo.value) in {f"NaN amplitude at key {k}" for k in named}

    @pytest.mark.parametrize(
        "h,v,message",
        [
            (
                (1.0, ({(0, 0): NAN, (1, 0): 1 + 0j}, {(0, 0): 1 + 0j})),
                (0.0, ({(0, 1): 1 + 0j}, {(0, 0): 1 + 0j})),
                r"NaN amplitude at key \(0, 0\) of arm 0 in branch 0",
            ),
            (
                (0.5, ({(1, 0): 1 + 0j}, {(0, 0): 1 + 0j})),
                (0.5, ({(0, 1): 1 + 0j}, {(0, 2): complex(0.5, NAN)})),
                r"NaN amplitude at key \(0, 2\) of arm 1 in branch 1",
            ),
            (
                (complex(NAN, 0.0), ({(1, 0): 1 + 0j}, {(0, 0): 1 + 0j})),
                (0.5, ({(0, 1): 1 + 0j}, {(0, 0): 1 + 0j})),
                r"NaN coefficient of branch 0",
            ),
        ],
        ids=["factor", "second-branch", "coefficient"],
    )
    def test_expand_refuses_a_nan_before_any_product(self, h, v, message):
        with pytest.raises(FockError, match=f"^{message}$"):
            expand((h, v), 3)

    @pytest.mark.parametrize("herald", [None, (1, 1)])
    def test_the_squeezer_refuses_a_nan_input_amplitude(self, herald):
        state = PureState(2, 6, {((0, 0), (0, 0)): 1 + 0j, ((1, 0), (0, 0)): complex(NAN, 0.0)})
        with pytest.raises(FockError, match=r"^NaN amplitude at key \(\(1, 0\), \(0, 0\)\)$"):
            apply_squeezer_exact(state, SqueezerSpec(0.07, 0, 1), herald)

    def test_a_nan_squeezing_parameter_is_refused_not_heralding_nothing(self):
        with pytest.raises(FockError, match=r"^\|gamma\| = nan must be < 1$"):
            SqueezerSpec(complex(NAN), 0, 1)
        with pytest.raises(FockError, match=r"^\|gamma\| = nan must be < 1$"):
            pqs2_apply(ket([(1, 0)]), 0, complex(NAN))

"""Property test: every linear optical element conserves the squared norm.

The beam splitter drops only components pushed past the cutoff, so its
inputs keep each polarization's photon total over the two modes within the
cutoff (at most ``cutoff // 2`` photons per polarization and mode); the
polarizing beam splitter, the half-wave plate and the phase plate only move
or rephase amplitudes.
"""

import math
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from polscissors.elements import BeamSplitterSpec, apply_bs, apply_hwp, apply_pbs, apply_pol_phase
from polscissors.fock import H, V

from conftest import random_state


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    mode_count=st.integers(2, 3),
    cutoff=st.integers(2, 8),
    t=st.floats(0.0, 1.0),
    phase=st.floats(-2 * math.pi, 2 * math.pi),
    pol=st.sampled_from([H, V]),
    first=st.integers(0, 2),
    step=st.integers(1, 2),
)
def test_elements_conserve_the_squared_norm(seed, mode_count, cutoff, t, phase, pol, first, step):
    state = random_state(random.Random(seed), mode_count, cutoff, cutoff // 2)
    a = first % mode_count
    b = (a + 1 + step % (mode_count - 1)) % mode_count
    for pair in state.amplitudes:
        assert pair[a][0] + pair[b][0] <= cutoff and pair[a][1] + pair[b][1] <= cutoff
    before = state.norm_squared()
    outputs = {
        "bs": apply_bs(state, BeamSplitterSpec(t, a, b)),
        "pbs": apply_pbs(state, a, b),
        "hwp": apply_hwp(state, a),
        "phase": apply_pol_phase(state, a, pol, phase),
    }
    for name, out in outputs.items():
        assert abs(out.norm_squared() - before) <= 1e-12, name

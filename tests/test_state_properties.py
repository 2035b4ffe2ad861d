"""Property test: whatever a ``state`` descriptor holds, ``polscissors state``
exits 0, 2 or 3 and never raises, and a dumped state has unit squared norm.

Each example starts from a valid descriptor of one known name, replaces or
drops some of its keys and may add one more known key, with values from a
fixed pool: small in-domain numbers, text, zero and negative integers, and,
for ``gamma`` and ``delta``, amplitudes whose square overflows a float, and for
``cutoff``, counts far past the largest cutoff.
``tail_bound`` is left at its default: a looser bound drops weight by design,
so the norm property holds only at the default.
"""

import contextlib
import io

from hypothesis import given, settings
from hypothesis import strategies as st

from polscissors import cli

BASES = {
    "coherent": {"gamma": "0.8"},
    "cat": {"delta": "0.8", "phi": "0.3"},
    "xi": {"delta": "0.8", "phi": "0.3", "t0": "0.4"},
    "xi-circuit": {"delta": "0.8", "phi": "0.3", "t0": "0.4"},
    "lambda": {"delta": "0.8", "n": "3", "t1": "0.5"},
    "lambda-circuit": {"delta": "0.8", "n": "3", "t1": "0.5"},
    "target-omega": {"delta": "0.8", "n": "3", "j": "2", "t1": "0.5"},
    "hybrid-pqs1": {"delta": "0.8", "t": "0.9"},
    "hybrid-pqs2": {"delta": "0.8", "gamma_abs": "0.05"},
    "bell-pqs1": {"delta": "0.8", "phi": "0.3", "t": "0.9"},
    "bell-pqs2": {"delta": "0.8", "phi": "0.3", "gamma_abs": "0.05"},
}
KEYS = ["gamma", "delta", "phi", "t0", "t", "gamma_abs", "pol", "cutoff", "n", "j", "t1"]
# None drops the key
POOL = [None, "0.3", "1", "2", "V", "abc", "0", "-1", "-3"]
# amplitudes whose square overflows a float, and cutoffs far past fock.MAX_CUTOFF
HUGE = ["2e154", "1e200"]


def _value(key, valid):
    """The valid value two times in three, else a value from the pool."""
    pool = POOL + HUGE if key in ("gamma", "delta", "cutoff") else POOL
    return st.one_of(st.just(valid), st.just(valid), st.sampled_from(pool))


def _descriptor(name):
    """Each key of the name's base kept, replaced or dropped, plus at most one other key."""
    base = {**BASES[name], "cutoff": None}  # None: the default cutoff
    own = st.fixed_dictionaries({k: _value(k, v) for k, v in base.items()})
    extra = st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(POOL)), max_size=1)
    return st.builds(lambda items, more: (name, {**items, **dict(more)}), own, extra)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(case=st.sampled_from(sorted(BASES)).flatmap(_descriptor))
def test_any_descriptor_dumps_a_unit_state_or_exits_2_or_3(case):
    name, items = case
    descriptor = f"{name}:" + ",".join(f"{k}={v}" for k, v in items.items() if v is not None)
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(["state", "--prep", descriptor, "--min-amplitude", "0"])
    assert code in (0, 2, 3), descriptor
    if code == 0:
        rows = [line.split() for line in out.getvalue().splitlines() if line]
        norm = sum(float(re) ** 2 + float(im) ** 2 for _, re, im in rows)
        assert abs(norm - 1.0) <= 1e-9, descriptor

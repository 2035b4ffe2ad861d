"""Property test: whatever text an ``[experiment]`` key holds, parsing either
returns a config or raises ``ConfigError`` (CLI exit 2), never another error,
and an accepted integer key holds exactly the number its text denotes."""

from decimal import Decimal

from hypothesis import given, settings
from hypothesis import strategies as st

from polscissors.config import ConfigError, ExperimentConfig, parse_config_text

# a valid omega config, so that every key is read and checked
BASE = {
    "preparation": "omega",
    "backend": "numeric",
    "phi": "0.7",
    "t0": "0.5",
    "t": "0.9",
    "gamma_abs": "0.05",
    "repetition_rate": "6.4e6",
    "tail_bound": "1e-12",
    "max_cutoff": "64",
    "omega_n": "3",
    "omega_j": "2",
    "omega_scissors": "pqs1,pqs2",
    "omega_split_ts": "0.4",
}
KEYS = sorted(BASE) + ["delta"]
INTEGER_KEYS = ("max_cutoff", "omega_n", "omega_j")
AXES = """
[axis1]
name = delta
start = 0.6
stop = 1.0
steps = 3

[axis2]
name = phi
start = 0.0
stop = 1.0
steps = 2
"""

EDGES = [
    "", " ", "0", "1", "2", "3", "-5", "2.0", "2.5", "2.9", "12.7", "1e2", "1e400",
    "-1e400", "nan", "inf", "-inf", "sNaN", "1_0", "0x10", "%", "%(x)s", "abc",
    "9007199254740993", "pqs1", "pqs1,pqs3", "0.4,0.5", "both", "omega",
]
TEXTS = st.one_of(
    st.sampled_from(EDGES),
    st.integers().map(str),
    st.floats().map(repr),
    st.decimals().map(str),
    st.text(st.characters(exclude_characters="\r\n"), max_size=12),
)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(key=st.sampled_from(KEYS), text=TEXTS)
def test_any_experiment_value_parses_or_is_a_config_error(key, text):
    body = "\n".join(f"{k} = {v}" for k, v in {**BASE, key: text}.items())
    try:
        config = parse_config_text(f"[experiment]\n{body}\n{AXES}")
    except ConfigError:
        return
    assert isinstance(config, ExperimentConfig)
    if key in INTEGER_KEYS and text.strip():
        assert getattr(config, key) == Decimal(text.strip())

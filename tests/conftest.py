import math
import random

import pytest

from polscissors.fock import FockError, make_state, normalize
from polscissors.preparations import HYBRID_ARMS, KNOB_AXES, Pipeline, prepare_stages


def random_state(rng: random.Random, mode_count: int, cutoff: int, max_photons: int = 2):
    """Random normalized state with occupations up to max_photons per polarization."""
    entries = []
    for _ in range(3 * mode_count + 4):
        key = tuple(
            (rng.randint(0, max_photons), rng.randint(0, max_photons))
            for _ in range(mode_count)
        )
        entries.append((key, complex(rng.gauss(0, 1), rng.gauss(0, 1))))
    return normalize(make_state(mode_count, cutoff, entries))


def random_polarized_coeffs(rng: random.Random, max_photons: int = 2):
    """Random coefficient table over one polarized mode, normalized."""
    coeffs = {
        (nh, nv): complex(rng.gauss(0, 1), rng.gauss(0, 1))
        for nh in range(max_photons + 1)
        for nv in range(max_photons + 1)
    }
    norm = math.sqrt(sum(abs(a) ** 2 for a in coeffs.values()))
    return {k: a / norm for k, a in coeffs.items()}


def parse_dump(lines, cutoff: int):
    """Rebuild a state from its canonical ``fock.dump_lines`` text."""
    entries = []
    mode_count = None
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key_part, re_part, im_part = line.rsplit(" ", 2)
        key = []
        for cell in key_part.split(";"):
            _, occ = cell.split(":")
            nh, nv = occ.strip("()").split(",")
            key.append((int(nh), int(nv)))
        if mode_count is None:
            mode_count = len(key)
        entries.append((tuple(key), complex(float(re_part), float(im_part))))
    if mode_count is None:
        raise FockError("empty dump")
    return make_state(mode_count, cutoff, entries)


def prepare_hybrid(
    method: str,
    delta: float,
    phi: float,
    t0: float,
    knob: float,
    cutoff: int | None = None,
    tail_bound: float = 1e-12,
):
    """Truncate the second arm of the two-arm source; full circuit simulation.

    The heralded branch sign left by the single truncation is removed by a
    feed-forward pi phase on the photon qubit before comparing against the
    plus-branch target.
    """
    pipeline, knobs = Pipeline((method,), HYBRID_ARMS), {KNOB_AXES[method]: knob}
    return prepare_stages(pipeline, delta, phi, t0, knobs, cutoff=cutoff, tail_bound=tail_bound)[-1]


@pytest.fixture
def rng():
    return random.Random(20260809)

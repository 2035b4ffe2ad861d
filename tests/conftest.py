import math
import random
from functools import partial

import pytest

from polscissors import analytics, preparations, scissors
from polscissors.fock import FockError, OccKey, ShapeMismatchError, _raw_state, fidelity, make_state, normalize
from polscissors.preparations import HYBRID_ARMS, KNOB_AXES, Pipeline, prepare_stages, required_cutoff
from polscissors.scissors import ScissorsResult, TransferTable
from polscissors.sources import SourceParams, heralded_target, lambda_state


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


def record_detector_reads(monkeypatch) -> dict[str, list[int]]:
    """From now on, per scissors detector, the key count of every state it reads.

    ``project_number`` detects on the full expansion; ``_detect`` and
    ``_spare_vacuum`` are the one-pass detectors of the herald-first circuits.
    """
    reads: dict[str, list[int]] = {"project_number": [], "_detect": [], "_spare_vacuum": []}
    for name, counts in reads.items():

        def recording(state, *args, detector=getattr(scissors, name), counts=counts):
            counts.append(len(state.amplitudes))
            return detector(state, *args)

        monkeypatch.setattr(scissors, name, recording)
    return reads


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


def g_coefficients(delta: float, phi: float, t0: float, t: float) -> tuple[float, float]:
    """Single-photon / vacuum weights left on the first arm after a pqs1 stage.

    Formed from ``analytics.bell_source`` and the pqs1 ``analytics.knob_factors`` as
    ``analytics.bell_pf`` forms them.
    """
    norm, f1b, f0b = analytics.bell_source("pqs1", delta, phi, t0).weights[:3]
    g1 = math.sqrt((1.0 - t) * t) * norm * f1b
    g0 = (1.0 - t) * norm * f0b
    return g1, g0


def h_coefficients(delta: float, phi: float, t0: float, gamma_abs: float) -> tuple[float, float]:
    """Magnitudes of the pqs2 analog of the g coefficients, formed the same way."""
    norm, f1b, f0b = analytics.bell_source("pqs2", delta, phi, t0).weights[:3]
    h1 = analytics.k_n(gamma_abs, 1) * gamma_abs * norm * f1b
    h0 = analytics.k_n(gamma_abs, 0) * gamma_abs * gamma_abs * norm * f0b
    return h1, h0


def apply_table(table: TransferTable, state, mode: int) -> ScissorsResult:
    """``table``'s map applied to the joint ``state`` on ``mode``, in one pass over its keys.

    The oracle of the factored stage: an occupation without a row heralds
    nothing; it normalizes the first non-empty pattern branch and lists no
    outcomes.
    """
    if not 0 <= mode < state.mode_count:
        raise ShapeMismatchError(f"mode {mode} does not fit the state")
    branches: list[dict[OccKey, complex]] = [{} for _ in range(table.patterns)]
    for key, amp in state.amplitudes.items():
        for p, out, coeff in table.rows.get(key[mode], ()):
            new = key[:mode] + (out,) + key[mode + 1 :]
            branches[p][new] = branches[p].get(new, 0j) + amp * coeff
    total, canonical = 0.0, None
    for branch in branches:
        if not branch:
            continue
        kept = _raw_state(state.mode_count, state.cutoff, branch)
        total += kept.norm_squared()
        if canonical is None:
            canonical = normalize(kept)
    return ScissorsResult((), total, canonical)


def probe_row(circuit, occ, cutoff=None) -> list:
    """The table row of ``occ`` read off ``circuit``'s own output on a probe of ``occ`` alone.

    The probe holds ``|occ>`` in mode 1, beside a vacuum spectator, at
    ``cutoff`` (default max(2, occ)): the test-side oracle of
    ``TransferTable``'s one sector probe.
    """
    result = circuit(make_state(2, cutoff or max(2, *occ), [(((0, 0), occ), 1.0)]), 1)
    row = []
    for p, outcome in enumerate(result.outcomes):
        for (_, out), amp in ({} if outcome.state is None else outcome.state.amplitudes).items():
            row.append((p, out, amp))
    return row


def pattern_agreement(result: ScissorsResult) -> float:
    """The least pairwise fidelity of ``result``'s non-empty outcome states; 1.0 when there are none."""
    states = [o.state for o in result.outcomes if o.state is not None]
    return min((fidelity(a, b) for i, a in enumerate(states) for b in states[i + 1 :]), default=1.0)


def joint_stages(pipeline, delta, phi, t0, knobs, split_ts=()):
    """``prepare_stages`` on the joint route: the tables applied to the full ``lambda_state``."""
    params = SourceParams(delta, phi, t0, split_ts, required_cutoff(delta, t0))
    tables = {}

    def herald(method, knob, state, mode):
        if (method, knob) not in tables:
            circuit = partial(preparations._scissors, method, knob, herald_first=True)
            tables[method, knob] = TransferTable(circuit)
        return apply_table(tables[method, knob], state, mode)

    source = lambda_state(params, pipeline.n)
    target = partial(heralded_target, params, pipeline.n)
    return preparations._run_stages(pipeline, source, knobs, herald, target)


@pytest.fixture
def rng():
    return random.Random(20260809)

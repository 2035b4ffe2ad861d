"""The outside-in tracer against the real package.

Run from the repository root: ``python3 -m pytest perfbench/tests``.
"""

import math
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

from polscissors import config, elements, preparations, scissors, sources  # noqa: E402

import tracer  # noqa: E402
import worker  # noqa: E402


def _bench_module():
    """A stand-in for the benchmark's workload module: it imports the package."""
    mod = types.ModuleType("bench_stub")
    mod.sources = sources
    mod.preparations = preparations
    return mod


def test_install_wraps_cross_module_calls_and_uninstall_restores():
    before = (scissors.apply_bs, sources.analytics, config.AxisSpec.values)
    bench = _bench_module()
    with tracer.Tracer().install(bench_modules=(bench,)) as tr:
        assert scissors.apply_bs is not before[0]
        params = sources.SourceParams(0.6, 0.4, 0.5, (0.5,), 14)
        bench.sources.lambda_circuit(params, 3)
    assert (scissors.apply_bs, sources.analytics, config.AxisSpec.values) == before
    assert elements.apply_bs.__module__ == "polscissors.elements"
    names = {(s.name, s.caller) for s in tr.spans}
    assert ("sources.lambda_circuit", "bench") in names
    assert ("elements.apply_bs", "sources") in names
    assert ("fock.tensor", "sources") in names
    assert ("analytics.cat_norm", "sources") in names
    # xi_circuit is called from inside sources, so it is not a boundary
    assert not any(s.name == "sources.xi_circuit" for s in tr.spans)
    root = next(i for i, s in enumerate(tr.spans) if s.name == "sources.lambda_circuit")
    assert all(s.parent is not None for i, s in enumerate(tr.spans) if i != root)


def test_norm_lost_counts_weight_dropped_at_the_cutoff():
    coh = sources.coherent(1.5, "H", 6, tail_bound=1.0)
    pair = scissors.tensor(coh, coh)
    with tracer.Tracer().install() as tr:
        out = scissors.apply_bs(pair, elements.BeamSplitterSpec(0.5, 0, 1))
    (bs,) = [s for s in tr.spans if s.name == "elements.apply_bs"]
    assert bs.caller == "scissors"
    assert (bs.keys_in, bs.keys_out) == (len(pair.amplitudes), len(out.amplitudes))
    assert bs.norm_lost > 1e-6
    assert math.isclose(bs.norm_lost, pair.norm_squared() - out.norm_squared())


def test_config_methods_are_traced_only_across_modules():
    grid = config.reference_grid("bell-pqs1")
    with tracer.Tracer().install() as tr:
        grid.axis1.values()  # called from this test: caller "bench"
    (span,) = tr.spans
    assert (span.name, span.caller) == ("config.AxisSpec.values", "bench")


def test_herald_waste_counts_match_the_roadmap_exactly():
    found = worker._herald_waste(tracer)
    assert found["bell-pqs1"]["keys_in"] == 124384
    assert found["bell-pqs1"]["keys_out"] == 2444
    assert found["bell-pqs2"]["keys_in"] == 75974
    assert found["bell-pqs2"]["keys_out"] == 110
    assert all(h["exact"] for h in found.values())

"""Sweep CSVs stay byte-identical to the committed golden files.

Each ``tests/golden/<name>.ini`` is a small sweep config and ``<name>.csv`` its
output, written by ``polscissors sweep --config tests/golden/<name>.ini --out
tests/golden/<name>.csv``.  A change that moves one bit of a probability, a
fidelity or a count rate, or the CSV layout, fails here.  Regenerate a golden
file only for an intended change of results, and list the change.
"""

from pathlib import Path

import pytest

from polscissors.config import load_config
from polscissors.sweep import grid_to_csv, run_sweep

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.ini")))
def test_sweep_csv_is_byte_identical_to_golden(name):
    csv = grid_to_csv(run_sweep(load_config(str(GOLDEN / f"{name}.ini"))))
    assert csv == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")

"""Sweep CSVs and CLI reports stay byte-identical to the committed golden files.

Each ``tests/golden/<name>.ini`` is a small sweep config and ``<name>.csv`` its
output, written by ``polscissors sweep --config tests/golden/<name>.ini --out
tests/golden/<name>.csv``.  Each ``tests/golden/<name>.txt`` is the stdout of
the ``polscissors`` command listed for it in ``REPORTS``.  A change that moves
one bit of a probability, a fidelity, a count rate or an amplitude, or the
output layout, fails here.
Regenerate a golden file only for an intended change of results, and list the
change.
"""

from pathlib import Path

import pytest

from polscissors import cli
from polscissors.config import load_config
from polscissors.sweep import grid_to_csv, run_sweep

GOLDEN = Path(__file__).parent / "golden"

STATE = ["state", "--min-amplitude", "0", "--prep"]
REPORTS = {
    "verify-seed1-samples3": ["verify", "--seed", "1", "--samples", "3"],
    "spot-bell-pqs1": ["spot", "--point", "bell-pqs1"],
    "spot-bell-pqs2": ["spot", "--point", "bell-pqs2"],
    "state-bell-pqs1": STATE + ["bell-pqs1:delta=0.8,phi=0.7,t0=0.45,t=0.9"],
    "state-bell-pqs2": STATE + ["bell-pqs2:delta=0.9,phi=1.3,t0=0.5,gamma_abs=0.06"],
    "state-hybrid-pqs1": STATE + ["hybrid-pqs1:delta=1.1,phi=0.4,t0=0.55,t=0.8"],
    "state-hybrid-pqs2": STATE + ["hybrid-pqs2:delta=1.4,phi=2.1,t0=0.6,gamma_abs=0.07"],
    "state-target-omega": STATE + ["target-omega:delta=1,phi=0.7,n=3,j=2,t1=0.4"],
}


@pytest.mark.parametrize("name", sorted(path.stem for path in GOLDEN.glob("*.ini")))
def test_sweep_csv_is_byte_identical_to_golden(name):
    csv = grid_to_csv(run_sweep(load_config(str(GOLDEN / f"{name}.ini"))))
    assert csv == (GOLDEN / f"{name}.csv").read_text(encoding="utf-8")


@pytest.mark.parametrize("name", sorted(REPORTS))
def test_cli_report_is_byte_identical_to_golden(name, capsys):
    assert cli.main(REPORTS[name]) == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.txt").read_text(encoding="utf-8")

"""Every contract output is byte-identical to its committed digest.

``contract_digest.py`` runs the contract outputs in process and digests each
one's stdout, stderr and exit code; ``contract_digests.txt`` holds the
committed digests, one ``<sha256>  <command>`` line each.  A change that
moves an output by design rewrites that file in the same commit:

    PYTHONPATH=src python tests/contract_digest.py > tests/contract_digests.txt
"""

from pathlib import Path

import contract_digest

COMMITTED = Path(__file__).parent / "contract_digests.txt"


def read_committed() -> dict[str, str]:
    """Command label to digest, as the committed file lists them."""
    pairs = (line.split("  ", 1) for line in COMMITTED.read_text().splitlines())
    return {label: sha for sha, label in pairs}


def test_every_contract_output_matches_its_committed_digest():
    committed = read_committed()
    current = dict(contract_digest.digests())
    moved = [label for label in current if label in committed and current[label] != committed[label]]
    missing = [label for label in committed if label not in current]
    new = [label for label in current if label not in committed]
    assert not (moved or missing or new), "\n".join(
        [f"moved: {label}" for label in moved]
        + [f"no longer run: {label}" for label in missing]
        + [f"not committed: {label}" for label in new]
    )


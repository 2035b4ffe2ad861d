"""Rerun the contract digests under each installed Python 3.10-3.13; diff them with the committed file.

    python tests/digests_across_pythons.py

It runs each interpreter under ``$PYENV_ROOT/versions``
(``~/.pyenv/versions`` by default) whose version is 3.10 to 3.13.  Each runs
``contract_digest.py`` on this checkout's ``src``; one line per interpreter
says whether its 78 digests equal ``contract_digests.txt``, with the diff
when they do not.  The exit code is 1 when any interpreter differs or fails.
This is a script, not a test: pytest does not collect it.
"""

import difflib
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
COMMITTED = HERE / "contract_digests.txt"


def pyenv_interpreters() -> list[str]:
    root = Path(os.environ.get("PYENV_ROOT", Path.home() / ".pyenv")) / "versions"
    return [str(path / "bin" / "python") for path in sorted(root.glob("3.1[0-3].*"))]


def main(pythons: list[str]) -> int:
    if not pythons:
        print("no Python 3.10-3.13 interpreter found")
        return 1
    expected = COMMITTED.read_text().splitlines(keepends=True)
    env = dict(os.environ, PYTHONPATH=str(HERE.parent / "src"))
    failed = False
    for python in pythons:
        run = subprocess.run([python, str(HERE / "contract_digest.py")], capture_output=True, text=True, env=env)
        got = run.stdout.splitlines(keepends=True)
        diff = list(difflib.unified_diff(expected, got, COMMITTED.name, python, n=0))
        if run.returncode or diff:
            failed = True
            print(f"differs: {python} (exit {run.returncode})")
            sys.stdout.writelines(diff)
            sys.stdout.write(run.stderr[-2000:])
        else:
            print(f"identical: {python} ({len(got)} digests)")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(pyenv_interpreters()))

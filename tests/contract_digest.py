"""Print one sha256 per contract output, to show a change leaves them byte-identical.

Each output is a ``polscissors`` command run in process through ``cli.main``;
its digest covers its stdout, its stderr and its exit code.  Run it on two
trees and diff what it prints:

    PYTHONPATH=src python tests/contract_digest.py > after.txt

The 77 outputs are ``verify --seed 1..5 --samples 100``, both ``spot``
points, each reference sweep under ``analytic`` and ``both`` in every
format, each golden config under every backend it accepts, and 17 ``state``
dumps: one per descriptor kind, the golden ones, the two Bell points of
the benchmark's herald-waste probe, two circuit sources at the
source-circuits benchmark's cutoffs and two coherent states whose
cutoffs ``min_cutoff`` scans for from 0 and from gamma^2 - 1.  This is a
script, not a test module: pytest does not collect it.
"""

import contextlib
import hashlib
import io
import sys
from pathlib import Path

from polscissors import cli

GOLDEN = Path(__file__).parent / "golden"
PREPARATIONS = ("hybrid-pqs1", "hybrid-pqs2", "bell-pqs1", "bell-pqs2")
STATES = (
    "coherent:gamma=0.8,pol=V",
    "cat:delta=1.1,phi=0.6",
    "xi:delta=0.9,phi=0.7,t0=0.4",
    "xi-circuit:delta=0.9,phi=0.7,t0=0.4",
    "lambda:delta=0.6,phi=0.3,n=3,t1=0.5",
    "lambda-circuit:delta=0.6,phi=0.3,n=3,t1=0.5",
    "target-omega:delta=1,phi=0.7,n=3,j=2,t1=0.4",
    "bell-pqs1:delta=0.8,phi=0.7,t0=0.45,t=0.9",
    "bell-pqs2:delta=0.9,phi=1.3,t0=0.5,gamma_abs=0.06",
    "hybrid-pqs1:delta=1.1,phi=0.4,t0=0.55,t=0.8",
    "hybrid-pqs2:delta=1.4,phi=2.1,t0=0.6,gamma_abs=0.07",
    # the herald-waste points: cutoff 25, past every reference sweep's
    "bell-pqs1:delta=2.0,t=0.9",
    "bell-pqs2:delta=2.0,gamma_abs=0.07",
    # circuit sources at the delta levels of the source-circuits benchmark
    "xi-circuit:delta=1.55,phi=0.7,t0=0.5",
    "lambda-circuit:delta=1.1,phi=0.3,n=4,t1=0.5,t2=0.5",
    # the two starts of the cutoff scan: 0 for a bound above 1/4, gamma^2 - 1 for a tight one
    "coherent:gamma=3.7,tail_bound=0.3",
    "coherent:gamma=6.2,tail_bound=1e-15",
)


def commands():
    for seed in range(1, 6):
        yield ["verify", "--seed", str(seed), "--samples", "100"]
    for point in ("bell-pqs1", "bell-pqs2"):
        yield ["spot", "--point", point]
    for prep in PREPARATIONS:
        for backend in ("analytic", "both"):
            for fmt in ("csv", "json", "matrix"):
                yield ["sweep", "--reference", prep, "--backend", backend, "--format", fmt]
    for ini in sorted(GOLDEN.glob("*.ini")):
        backends = ("numeric",) if ini.stem.startswith("omega") else ("analytic", "numeric", "both")
        for backend in backends:
            yield ["sweep", "--config", str(ini), "--backend", backend]
    for descriptor in STATES:
        yield ["state", "--min-amplitude", "0", "--prep", descriptor]


def digest(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    blob = f"{out.getvalue()}\0{err.getvalue()}\0{code}".encode()
    return hashlib.sha256(blob).hexdigest()


def main():
    for argv in commands():
        label = " ".join(argv).replace(str(GOLDEN), "golden")
        sys.stdout.write(f"{digest(argv)}  {label}\n")


if __name__ == "__main__":
    main()

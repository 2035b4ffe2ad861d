"""Command-line interface.

Subcommands: ``sweep`` (grid runs to CSV/matrix/JSON), ``verify`` (seeded
analytic-vs-numeric cross-validation), ``state`` (canonical state dumps) and
``spot`` (named operating-point checks).

Exit codes: 0 success, 1 verification/spot failure, 2 configuration error,
3 numeric infeasibility (cutoff).
"""

from __future__ import annotations

import argparse
import math
import sys

from .analytics import DegenerateParameterError
from .config import ConfigError, check_domain, load_config, reference_grid
from .fock import CutoffError, dump_lines, min_cutoff
from .preparations import PIPELINES, PREPARATIONS, prepare_named
from .sources import (
    SourceParams,
    cat,
    coherent,
    lambda_circuit,
    lambda_state,
    target_omega,
    xi_circuit,
    xi_direct,
)
from .sweep import grid_to_csv, grid_to_json, grid_to_matrix, run_sweep
from .verify import SPOT_POINTS, run_spot, run_verify

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_CONFIG = 2
EXIT_CUTOFF = 3


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polscissors",
        description="Heralded polarization-entanglement preparation: sweeps, "
        "verification, state dumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sweep = sub.add_parser("sweep", help="run a 2-D parameter sweep")
    group = p_sweep.add_mutually_exclusive_group(required=True)
    group.add_argument("--config", help="config file path")
    group.add_argument(
        "--reference",
        choices=PREPARATIONS,
        help="use the built-in reference grid for this preparation",
    )
    p_sweep.add_argument("--out", help="output file (default: stdout)")
    p_sweep.add_argument("--format", choices=("csv", "matrix", "json"), default="csv")
    p_sweep.add_argument("--backend", choices=("analytic", "numeric", "both"))
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel workers")

    p_verify = sub.add_parser("verify", help="cross-validate simulation vs closed forms")
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--samples", type=int, required=True)
    p_verify.add_argument("--budget", type=float, default=1e-8)

    p_state = sub.add_parser("state", help="dump a state in the canonical text format")
    p_state.add_argument(
        "--prep",
        required=True,
        help="descriptor like 'xi:delta=1,phi=0,t0=0.5' or "
        "'bell-pqs1:delta=0.8,t=0.98'; see README for the full list",
    )
    p_state.add_argument("--out", help="output file (default: stdout)")
    p_state.add_argument(
        "--min-amplitude", type=float, default=1e-10, help="hide smaller amplitudes"
    )

    p_spot = sub.add_parser("spot", help="check a named operating point")
    p_spot.add_argument("--point", required=True, choices=sorted(SPOT_POINTS))
    return parser


def _parse_descriptor(text: str) -> tuple[str, dict]:
    name, _, rest = text.partition(":")
    kwargs: dict = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not key or not value:
                raise ConfigError(f"bad descriptor item {item!r}")
            try:
                number = float(value)
            except ValueError:
                kwargs[key.strip()] = value.strip()
                continue
            if not math.isfinite(number):
                raise ConfigError(f"descriptor value {item!r} is not finite")
            kwargs[key.strip()] = number
    return name.strip(), kwargs


def _descriptor_state(name: str, kw: dict):
    pol = str(kw.pop("pol", "H")).upper()
    if pol not in ("H", "V"):
        raise ConfigError(f"pol must be H or V, got {pol!r}")
    tail = kw.pop("tail_bound", 1e-12)
    check_domain("tail_bound", tail)
    if name == "coherent":
        gamma = kw.pop("gamma")
        cutoff = int(kw.pop("cutoff", max(1, min_cutoff(abs(gamma), tail))))
        return coherent(gamma, pol, cutoff, tail)
    if name == "cat":
        delta, phi = kw.pop("delta"), kw.pop("phi", 0.0)
        cutoff = int(kw.pop("cutoff", max(1, min_cutoff(abs(delta), tail))))
        return cat(delta, phi, pol, cutoff, tail)

    delta = kw.pop("delta")
    phi = kw.pop("phi", 0.0)
    t0 = kw.pop("t0", 0.5)
    check_domain("delta", delta)
    check_domain("t0", t0)
    if name in ("xi", "xi-circuit", "lambda", "lambda-circuit", "target-omega"):
        split_keys = sorted(
            (k for k in kw if k.startswith("t") and k[1:].isdigit()),
            key=lambda k: int(k[1:]),
        )
        split_ts = tuple(kw.pop(k) for k in split_keys)
        for t in split_ts:
            check_domain("omega_split_ts", t)
        cutoff = int(kw.pop("cutoff", max(1, min_cutoff(delta * 2.0**0.5, tail))))
        params = SourceParams(delta, phi, t0, split_ts, cutoff)
        n = 2 if name in ("xi", "xi-circuit") else int(kw.pop("n", 2 + len(split_ts)))
        if n < 2:
            raise ConfigError(f"n = {n} arms, need n >= 2")
        if len(split_ts) != n - 2:
            raise ConfigError(
                f"{n} arms need {n - 2} split transmissivities t1.., got {len(split_ts)}"
            )
        if name == "xi":
            return xi_direct(params, tail)
        if name == "xi-circuit":
            return xi_circuit(params, tail)
        if name in ("lambda", "lambda-circuit"):
            builder = lambda_state if name == "lambda" else lambda_circuit
            return builder(params, n, tail)
        j = int(kw.pop("j"))
        if not 1 <= j <= n:
            raise ConfigError(f"j = {j} outside 1..{n}")
        return target_omega(n, j, params, tail)
    if name in PIPELINES:
        knob_axis = PIPELINES[name].knob_axis
        knob = kw.pop(knob_axis)
        check_domain(knob_axis, knob)
        cutoff = kw.pop("cutoff", None)
        result = prepare_named(
            name, delta, phi, t0, knob,
            cutoff=int(cutoff) if cutoff is not None else None,
            tail_bound=tail,
        )
        if result.state is None:
            raise ConfigError(f"{name} heralds nothing at these parameters")
        return result.state
    raise ConfigError(f"unknown state descriptor {name!r}")


def dump_state(descriptor: str, min_amplitude: float = 1e-10) -> str:
    """Canonical text dump of the state named by a descriptor string."""
    name, kwargs = _parse_descriptor(descriptor)
    try:
        state = _descriptor_state(name, kwargs)
    except KeyError as exc:
        raise ConfigError(f"descriptor {name!r} missing parameter {exc}") from None
    if kwargs:
        raise ConfigError(f"unused descriptor parameters: {sorted(kwargs)}")
    return "\n".join(dump_lines(state, min_amplitude)) + "\n"


def _write(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "sweep":
            if args.config:
                config = load_config(args.config, {"backend": args.backend})
            else:
                config = reference_grid(args.reference, args.backend or "analytic")
            grid = run_sweep(config, jobs=max(1, args.jobs))
            writer = {"csv": grid_to_csv, "matrix": grid_to_matrix, "json": grid_to_json}
            _write(writer[args.format](grid), args.out)
            return EXIT_OK
        if args.command == "verify":
            report = run_verify(args.seed, args.samples, args.budget)
            sys.stdout.write("\n".join(report.lines()) + "\n")
            return EXIT_OK if report.passed else EXIT_VERIFY_FAIL
        if args.command == "state":
            _write(dump_state(args.prep, args.min_amplitude), args.out)
            return EXIT_OK
        if args.command == "spot":
            lines, ok = run_spot(args.point)
            sys.stdout.write("\n".join(lines) + "\n")
            return EXIT_OK if ok else EXIT_VERIFY_FAIL
    except ConfigError as exc:
        sys.stderr.write(f"configuration error: {exc}\n")
        return EXIT_CONFIG
    except CutoffError as exc:
        sys.stderr.write(f"numeric infeasibility: {exc}\n")
        return EXIT_CUTOFF
    except DegenerateParameterError as exc:
        sys.stderr.write(f"configuration error: degenerate parameters ({exc})\n")
        return EXIT_CONFIG
    raise AssertionError("unreachable")


if __name__ == "__main__":
    sys.exit(main())

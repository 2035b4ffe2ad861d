"""Command-line interface.

Subcommands: ``sweep`` (grid runs to CSV/matrix/JSON), ``verify`` (seeded
analytic-vs-numeric cross-validation), ``state`` (canonical state dumps) and
``spot`` (named operating-point checks).

Exit codes: 0 success, 1 verification/spot failure, 2 configuration error,
3 numeric infeasibility (cutoff).
"""

from __future__ import annotations

import argparse
import sys
from functools import partial

from .analytics import DegenerateParameterError, _zero_probability
from .config import ConfigError, load_config, read_value, reference_grid
from .fock import DEFAULT_TAIL_BOUND, CutoffError, dump_lines, min_cutoff
from .preparations import DEFAULT_BUDGET, PIPELINES, PREPARATIONS, prepare_named
from .sources import (
    SourceParams,
    cat,
    coherent,
    lambda_circuit,
    lambda_state,
    target_omega,
)
from .sweep import STATUS_MISMATCH, grid_to_csv, grid_to_json, grid_to_matrix, run_sweep
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

    p_verify = sub.add_parser("verify", help="cross-validate simulation vs closed forms")
    p_verify.add_argument("--seed", type=int, required=True)
    p_verify.add_argument("--samples", required=True, help="samples per check (>= 1)")
    p_verify.add_argument("--budget", default=DEFAULT_BUDGET, help="largest |dP| and |dF| allowed (> 0)")

    p_state = sub.add_parser("state", help="dump a state in the canonical text format")
    p_state.add_argument(
        "--prep",
        required=True,
        help="descriptor like 'xi:delta=1,phi=0,t0=0.5' or "
        "'bell-pqs1:delta=0.8,t=0.98'; see README for the full list",
    )
    p_state.add_argument("--out", help="output file (default: stdout)")
    p_state.add_argument(
        "--min-amplitude", default=1e-10, help="hide smaller amplitudes (>= 0)"
    )

    p_spot = sub.add_parser("spot", help="check a named operating point")
    p_spot.add_argument("--point", required=True, choices=sorted(SPOT_POINTS))
    return parser


def _parse_descriptor(text: str) -> tuple[str, dict[str, str]]:
    """The descriptor's name and its values, still as text."""
    name, _, rest = text.partition(":")
    kwargs: dict[str, str] = {}
    if rest:
        for item in rest.split(","):
            key, _, value = item.partition("=")
            if not key or not value:
                raise ConfigError(f"bad descriptor item {item!r}")
            key = key.strip()
            if key in kwargs:
                raise ConfigError(f"descriptor key {key!r} given twice")
            kwargs[key] = value.strip()
    return name.strip(), kwargs


def _pop(kw: dict[str, str], key: str, *default: float) -> float:
    """Pop descriptor value ``key``, or the default, read by ``read_value``."""
    return read_value(key, kw.pop(key, *default))


def _descriptor_state(name: str, kw: dict[str, str]):
    """Pop and read every value of descriptor ``name``; return its state's builder, not yet run."""
    if name in ("coherent", "cat"):  # the states with a polarization
        pol = kw.pop("pol", "H").upper()
        if pol not in ("H", "V"):
            raise ConfigError(f"pol must be H or V, got {pol!r}")
    tail = _pop(kw, "tail_bound", DEFAULT_TAIL_BOUND)
    if name == "coherent":
        gamma = _pop(kw, "gamma")  # an amplitude: either sign
        cutoff = _pop(kw, "cutoff", max(1, min_cutoff(abs(gamma), tail)))
        return partial(coherent, gamma, pol, cutoff, tail)
    if name == "cat":
        delta, phi = read_value("cat delta", kw.pop("delta")), _pop(kw, "phi", 0.0)
        cutoff = _pop(kw, "cutoff", max(1, min_cutoff(abs(delta), tail)))
        return partial(cat, delta, phi, pol, cutoff, tail)

    delta, phi, t0 = _pop(kw, "delta"), _pop(kw, "phi", 0.0), _pop(kw, "t0", 0.5)
    if name in ("xi", "xi-circuit", "lambda", "lambda-circuit", "target-omega"):
        split_ts = ()  # t1, t2, ... in turn: a t3 without t2, or a t01, stays unused
        while (key := f"t{len(split_ts) + 1}") in kw:
            split_ts += (read_value("omega_split_ts", kw.pop(key)),)
        cutoff = _pop(kw, "cutoff", max(1, min_cutoff(delta * 2.0**0.5, tail)))
        params = SourceParams(delta, phi, t0, split_ts, cutoff)
        n = 2 if name in ("xi", "xi-circuit") else _pop(kw, "n", 2 + len(split_ts))
        if len(split_ts) != n - 2:
            raise ConfigError(
                f"{n} arms need {n - 2} split transmissivities t1.., got {len(split_ts)}"
            )
        if name != "target-omega":
            builder = lambda_state if name in ("xi", "lambda") else lambda_circuit
            return partial(builder, params, n, tail)
        j = _pop(kw, "j")
        if not 1 <= j <= n:
            raise ConfigError(f"j = {j} outside 1..{n}")
        return partial(target_omega, n, j, params, tail)
    if name in PIPELINES:
        knob = _pop(kw, PIPELINES[name].knob_axis)
        cutoff = _pop(kw, "cutoff") if "cutoff" in kw else None

        def heralded():
            result = prepare_named(name, delta, phi, t0, knob, cutoff=cutoff, tail_bound=tail)
            if result.state is None:
                raise _zero_probability(delta, knob)
            return result.state

        return heralded
    raise ConfigError(f"unknown state descriptor {name!r}")


def dump_state(descriptor: str, min_amplitude: float = 1e-10) -> str:
    """Canonical text dump of the state named by a descriptor string; unused keys refuse it unbuilt."""
    name, kwargs = _parse_descriptor(descriptor)
    try:
        build = _descriptor_state(name, kwargs)
    except KeyError as exc:
        raise ConfigError(f"descriptor {name!r} missing parameter {exc}") from None
    if kwargs:
        raise ConfigError(f"unused descriptor parameters: {sorted(kwargs)}")
    return "\n".join(dump_lines(build(), min_amplitude)) + "\n"


def _write(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output file: {exc}") from None
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
            grid = run_sweep(config)
            writer = {"csv": grid_to_csv, "matrix": grid_to_matrix, "json": grid_to_json}
            _write(writer[args.format](grid), args.out)
            return EXIT_VERIFY_FAIL if any(row[-1] == STATUS_MISMATCH for row in grid.rows) else EXIT_OK
        if args.command == "verify":
            samples = read_value("samples", args.samples)
            report = run_verify(args.seed, samples, read_value("budget", args.budget))
            sys.stdout.write("\n".join(report.lines()) + "\n")
            return EXIT_OK if report.passed else EXIT_VERIFY_FAIL
        if args.command == "state":
            _write(dump_state(args.prep, read_value("min_amplitude", args.min_amplitude)), args.out)
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

"""Experiment configuration: file format, validation, reference grids.

Config files are flat ``key = value`` text with bracketed section headers
(INI style).  The ``[experiment]`` section holds the preparation name, fixed
parameters and backend; ``[axis1]`` and ``[axis2]`` define the sweep grid.
Anything else would be ignored, so it is refused.  CLI flags override file values.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass, fields
from decimal import Decimal, InvalidOperation
from functools import cached_property

from .fock import DEFAULT_TAIL_BOUND, MAX_CUTOFF
from .preparations import KNOB_AXES, PIPELINES, PREPARATIONS, Pipeline, omega_pipeline

AXIS_NAMES = ("delta", "t", "gamma_abs", "phi", "t0")
BACKENDS = ("analytic", "numeric", "both")
SECTIONS = ("experiment", "axis1", "axis2")
AXIS_KEYS = ("name", "start", "stop", "steps")
PREPARATION_NAMES = PREPARATIONS + ("omega",)
OMEGA_KEYS = ("omega_n", "omega_j", "omega_scissors", "omega_split_ts")

# Reference grids for the desk-scale surface checks.  The knob ranges are a
# reconstruction calibrated so that every quoted order-of-magnitude claim
# holds pointwise; the exact published axis ranges are not recoverable.
REFERENCE_GRID_DELTA = (0.55, 1.6, 25)
REFERENCE_GRID_T = (0.5, 0.94, 25)
REFERENCE_GRID_GAMMA = (0.03, 0.07, 25)


class ConfigError(ValueError):
    """Bad configuration file or option combination (CLI exit code 2)."""


# Physical range of each bounded parameter; any other parameter, such as phi,
# takes every finite real.
_DOMAINS = {
    "delta": ("[0, inf)", lambda v: v >= 0.0),
    "t0": ("[0, 1]", lambda v: 0.0 <= v <= 1.0),
    "t": ("(0, 1)", lambda v: 0.0 < v < 1.0),
    "gamma_abs": ("[0, 1)", lambda v: 0.0 <= v < 1.0),
    "omega_split_ts": ("[0, 1]", lambda v: 0.0 <= v <= 1.0),
    "tail_bound": ("(0, 1)", lambda v: 0.0 < v < 1.0),
    "max_cutoff": ("[1, inf)", lambda v: v >= 1),
    "cutoff": (f"[1, {MAX_CUTOFF}]", lambda v: 1 <= v <= MAX_CUTOFF),
    "n": ("[2, inf)", lambda v: v >= 2),
    "steps": ("[2, inf)", lambda v: v >= 2),
    "repetition_rate": ("(0, inf)", lambda v: v > 0.0),
    "budget": ("(0, inf)", lambda v: v > 0.0),
    "samples": ("[1, inf)", lambda v: v >= 1),
    "min_amplitude": ("[0, inf)", lambda v: v >= 0.0),
}
# Parameters that count something, read exactly as written; every other parameter is a real number.
_WHOLE_NUMBERS = ("max_cutoff", "omega_n", "omega_j", "steps", "samples", "n", "j", "cutoff")


def check_domain(name: str, value: float, shown: str | float | None = None) -> None:
    """Raise ``ConfigError`` unless ``value`` is finite and in the physical range of ``name``.

    The message shows ``shown``, the value as the user typed it, when given.
    """
    interval, inside = _DOMAINS.get(name, ("(-inf, inf)", lambda v: True))
    if not (math.isfinite(value) and inside(value)):
        raise ConfigError(f"{name} = {value if shown is None else shown} outside {interval}")


_LARGEST_WHOLE = Decimal(sys.float_info.max)


def read_value(name: str, raw: str | float) -> float:
    """The value of parameter ``name`` given as text or a number, checked.

    A counting parameter must denote a whole number exactly as written:
    ``2.5``, ``abc``, ``nan``, ``inf``, anything past the float range
    (``1e400``) and ``2.0000000000000001`` raise ``ConfigError``; nothing is
    truncated or rounded.  Any other parameter must be a finite real.  Either
    must lie in the domain of ``name``.  Config keys, axis bounds, ``state``
    descriptor values and the CLI's numeric options but ``--seed`` are all
    read here.
    """
    if name in _WHOLE_NUMBERS:
        try:
            exact = Decimal(str(raw))
        except InvalidOperation:
            exact = Decimal("nan")
        if not (exact.is_finite() and abs(exact) <= _LARGEST_WHOLE and exact == int(exact)):
            raise ConfigError(f"{name} = {raw!r} is not a whole number in the float range")
        value = int(exact)
    else:
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{name} = {raw!r} is not a number") from None
    check_domain(name, value, raw)
    return value


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"axis name {self.name!r} not one of {AXIS_NAMES}")
        check_domain("steps", self.steps)
        check_domain(self.name, self.start)
        check_domain(self.name, self.stop)

    def values(self) -> list[float]:
        """``steps`` evenly spaced values from ``start``; the last is ``stop`` itself."""
        span = self.stop - self.start
        return [self.start + span * i / (self.steps - 1) for i in range(self.steps - 1)] + [self.stop]


@dataclass(frozen=True)
class ExperimentConfig:
    preparation: str
    axis1: AxisSpec
    axis2: AxisSpec
    backend: str = "analytic"
    phi: float = 0.0
    t0: float = 0.5
    delta: float | None = None
    t: float | None = None
    gamma_abs: float | None = None
    repetition_rate: float | None = None
    tail_bound: float = DEFAULT_TAIL_BOUND
    max_cutoff: int = 64
    omega_n: int | None = None
    omega_j: int | None = None
    omega_scissors: tuple[str, ...] = ()
    omega_split_ts: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if self.preparation not in PREPARATION_NAMES:
            raise ConfigError(
                f"preparation {self.preparation!r} not one of {PREPARATION_NAMES}"
            )
        if self.backend not in BACKENDS:
            raise ConfigError(f"backend {self.backend!r} not one of {BACKENDS}")
        if self.axis1.name == self.axis2.name:
            raise ConfigError("the two axes must sweep different parameters")
        if self.preparation == "omega":
            if self.backend != "numeric":
                raise ConfigError(
                    "the omega preparation has no closed form; use backend = numeric"
                )
            if self.omega_n is None or self.omega_j is None or not self.omega_scissors:
                raise ConfigError(
                    "omega preparation needs omega_n, omega_j and omega_scissors"
                )
            try:
                self.pipeline  # checks n, j and one known method per truncated arm
            except ValueError as exc:
                raise ConfigError(f"omega_n, omega_j, omega_scissors: {exc}") from None
            if len(self.omega_split_ts) != self.omega_n - 2:
                raise ConfigError(
                    f"omega with {self.omega_n} arms needs {self.omega_n - 2} split "
                    "transmissivities in omega_split_ts"
                )
        else:
            given = [name for name in OMEGA_KEYS if getattr(self, name) not in (None, ())]
            if given:
                raise ConfigError(f"{', '.join(given)} given, but preparation {self.preparation} is not omega")
        axis_names = {self.axis1.name, self.axis2.name}
        for name in KNOB_AXES.values():  # a knob the preparation never reads would be ignored
            where = "axis" if name in axis_names else "[experiment] key" if getattr(self, name) is not None else ""
            if where and name not in self._needed_parameters():
                raise ConfigError(f"{where} {name!r} is no knob of {self.preparation}")
        numbers = [(f.name, getattr(self, f.name)) for f in fields(self)]
        numbers += [("omega_split_ts", t) for t in self.omega_split_ts]
        for name, value in numbers:
            if isinstance(value, (int, float)):
                check_domain(name, value)
        for name in self._needed_parameters():
            if name not in axis_names and getattr(self, name) is None:
                raise ConfigError(
                    f"parameter {name!r} is neither an axis nor fixed in [experiment]"
                )

    @property
    def pipeline(self) -> Pipeline:
        """The preparation the sweep runs: a named pipeline or the configured omega."""
        if self.preparation == "omega":
            return omega_pipeline(self.omega_n, self.omega_j, self.omega_scissors)
        return PIPELINES[self.preparation]

    def _needed_parameters(self) -> tuple[str, ...]:
        """delta plus the knob axis of every scissors method the preparation runs."""
        methods = self.pipeline.methods
        return ("delta",) + tuple(axis for m, axis in KNOB_AXES.items() if m in methods)

    @cached_property
    def _fixed_parameters(self) -> dict[str, float]:
        """The parameters a cell starts from: every axis name set in ``[experiment]`` or by default."""
        return {name: getattr(self, name) for name in AXIS_NAMES if getattr(self, name) is not None}

    def cell_parameters(self, v1: float, v2: float) -> dict[str, float]:
        """Fixed parameters overridden by the two axis values for one grid cell."""
        return {**self._fixed_parameters, self.axis1.name: v1, self.axis2.name: v2}


def _check_names(what: str, given, known, required=()) -> None:
    """Refuse an item of ``given`` not ``known`` (it would be ignored) and a missing ``required`` one."""
    for problem, names in (("unknown", set(given) - set(known)), ("missing", set(required) - set(given))):
        if names:
            raise ConfigError(f"{problem} {what}: {sorted(names)}")


def _axis_from_section(section: configparser.SectionProxy) -> AxisSpec:
    _check_names(f"[{section.name}] keys", section, AXIS_KEYS, AXIS_KEYS)
    name = section["name"].strip()
    start, stop = read_value(name, section["start"]), read_value(name, section["stop"])
    return AxisSpec(name, start, stop, read_value("steps", section["steps"]))


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    # no interpolation: a "%" in a value is text, not a reference
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    # configparser copies [DEFAULT]'s keys into every section
    _check_names("sections", parser.sections() + ["DEFAULT"] * bool(parser.defaults()), SECTIONS, SECTIONS)
    exp = dict(parser["experiment"])
    if overrides:
        exp.update({k: v for k, v in overrides.items() if v is not None})
    _check_names("[experiment] keys", exp, {f.name for f in fields(ExperimentConfig)} - {"axis1", "axis2"})
    # only the keys given reach ExperimentConfig, so its defaults are the only
    # ones; a missing preparation reads as "" and fails its check
    values: dict[str, object] = {"preparation": ""}
    for key, raw in exp.items():
        if key in ("preparation", "backend"):
            values[key] = raw.strip()
        elif key in ("omega_scissors", "omega_split_ts"):
            items = tuple(x.strip() for x in raw.split(","))
            if not any(items):
                raise ConfigError(f"{key} is empty; omit it instead")
            if "" in items:
                raise ConfigError(f"{key} = {raw.strip()!r} has an empty item")
            values[key] = items if key == "omega_scissors" else tuple(read_value(key, x) for x in items)
        else:
            values[key] = read_value(key, raw)
    return ExperimentConfig(
        axis1=_axis_from_section(parser["axis1"]),
        axis2=_axis_from_section(parser["axis2"]),
        **values,
    )


def load_config(path: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    return parse_config_text(text, overrides)


def reference_grid(preparation: str, backend: str = "analytic") -> ExperimentConfig:
    """Desk-scale reference sweep for a named hybrid/bell preparation."""
    if preparation not in PIPELINES:
        raise ConfigError(f"no reference grid for {preparation!r}")
    knob = PIPELINES[preparation].knob_axis
    knob_grid = {"t": REFERENCE_GRID_T, "gamma_abs": REFERENCE_GRID_GAMMA}[knob]
    return ExperimentConfig(
        preparation=preparation,
        axis1=AxisSpec("delta", *REFERENCE_GRID_DELTA),
        axis2=AxisSpec(knob, *knob_grid),
        backend=backend,
    )


def config_echo(config: ExperimentConfig) -> list[str]:
    """Deterministic one-line-per-field echo used in output headers."""
    lines = [
        f"preparation = {config.preparation}",
        f"backend = {config.backend}",
        f"phi = {config.phi!r}",
        f"t0 = {config.t0!r}",
    ]
    for name in ("delta", "t", "gamma_abs", "repetition_rate"):
        value = getattr(config, name)
        if value is not None:
            lines.append(f"{name} = {value!r}")
    lines.append(f"tail_bound = {config.tail_bound!r}")
    if config.preparation == "omega":
        lines.append(f"omega_n = {config.omega_n}")
        lines.append(f"omega_j = {config.omega_j}")
        lines.append(f"omega_scissors = {','.join(config.omega_scissors)}")
        if config.omega_split_ts:
            lines.append(
                "omega_split_ts = " + ",".join(repr(x) for x in config.omega_split_ts)
            )
    for label, axis in (("axis1", config.axis1), ("axis2", config.axis2)):
        lines.append(
            f"{label} = {axis.name} from {axis.start!r} to {axis.stop!r} "
            f"in {axis.steps} steps"
        )
    return lines

"""Experiment configuration: file format, validation, reference grids.

Config files are flat ``key = value`` text with bracketed section headers
(INI style).  The ``[experiment]`` section holds the preparation name, fixed
parameters and backend; ``[axis1]`` and ``[axis2]`` define the sweep grid.
CLI flags override file values.
"""

from __future__ import annotations

import configparser
import math
import sys
from dataclasses import dataclass
from decimal import Decimal, InvalidOperation

from .preparations import KNOB_AXES, PIPELINES, PREPARATIONS, Pipeline, omega_pipeline

AXIS_NAMES = ("delta", "t", "gamma_abs", "phi", "t0")
BACKENDS = ("analytic", "numeric", "both")
PREPARATION_NAMES = PREPARATIONS + ("omega",)

# Reference grids for the desk-scale surface checks.  The knob ranges are a
# reconstruction calibrated so that every quoted order-of-magnitude claim
# holds pointwise; the exact published axis ranges are not recoverable.
REFERENCE_GRID_DELTA = (0.55, 1.6, 25)
REFERENCE_GRID_T = (0.5, 0.94, 25)
REFERENCE_GRID_GAMMA = (0.03, 0.07, 25)


class ConfigError(ValueError):
    """Bad configuration file or option combination (CLI exit code 2)."""


# Physical range of each bounded parameter; phi is unbounded.
_DOMAINS = {
    "delta": ("[0, inf)", lambda v: v >= 0.0),
    "t0": ("[0, 1]", lambda v: 0.0 <= v <= 1.0),
    "t": ("(0, 1)", lambda v: 0.0 < v < 1.0),
    "gamma_abs": ("[0, 1)", lambda v: 0.0 <= v < 1.0),
    "omega_split_ts": ("[0, 1]", lambda v: 0.0 <= v <= 1.0),
    "tail_bound": ("(0, 1)", lambda v: 0.0 < v < 1.0),
    "max_cutoff": ("[1, inf)", lambda v: v >= 1),
    "repetition_rate": ("(0, inf)", lambda v: v > 0.0),
}


def check_domain(name: str, value: float) -> None:
    """Raise ``ConfigError`` if ``value`` lies outside the physical range of ``name``."""
    if name in _DOMAINS:
        interval, inside = _DOMAINS[name]
        if not isinstance(value, (int, float)) or not inside(value):
            raise ConfigError(f"{name} = {value} outside {interval}")


_LARGEST_WHOLE = Decimal(sys.float_info.max)


def whole_number(name: str, value: str | float) -> int:
    """``value``, text or number, as the integer it denotes exactly.

    ``2.5``, ``abc``, ``nan``, ``inf`` and anything past the float range
    (``1e400``) raise ``ConfigError``: nothing is truncated or rounded.
    """
    try:
        exact = Decimal(str(value))
    except InvalidOperation:
        exact = Decimal("nan")
    if not (exact.is_finite() and abs(exact) <= _LARGEST_WHOLE and exact == int(exact)):
        raise ConfigError(f"{name} = {value!r} is not a whole number in the float range")
    return int(exact)


@dataclass(frozen=True)
class AxisSpec:
    name: str
    start: float
    stop: float
    steps: int

    def __post_init__(self) -> None:
        if self.name not in AXIS_NAMES:
            raise ConfigError(f"axis name {self.name!r} not one of {AXIS_NAMES}")
        if self.steps < 2:
            raise ConfigError("axis needs at least 2 steps")
        if not (math.isfinite(self.start) and math.isfinite(self.stop)):
            raise ConfigError(
                f"axis {self.name!r} bounds {self.start} and {self.stop} must be finite"
            )

    def values(self) -> list[float]:
        span = self.stop - self.start
        return [self.start + span * i / (self.steps - 1) for i in range(self.steps)]


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
    tail_bound: float = 1e-12
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
        for axis in (self.axis1, self.axis2):
            if axis.name in KNOB_AXES.values() and axis.name not in self._needed_parameters():
                raise ConfigError(f"axis {axis.name!r} is no knob of {self.preparation}")
        for name in ("phi", "t0", "delta", "t", "gamma_abs", "repetition_rate", "tail_bound"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ConfigError(f"{name} = {value} is not finite")
        if not all(math.isfinite(t) for t in self.omega_split_ts):
            raise ConfigError(f"omega_split_ts {self.omega_split_ts} must all be finite")
        bounded = [(name, getattr(self, name)) for name in _DOMAINS if name != "omega_split_ts"]
        bounded += [("omega_split_ts", t) for t in self.omega_split_ts]
        bounded += [(a.name, v) for a in (self.axis1, self.axis2) for v in (a.start, a.stop)]
        for name, value in bounded:
            if value is not None:
                check_domain(name, value)
        axis_names = {self.axis1.name, self.axis2.name}
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

    def cell_parameters(self, v1: float, v2: float) -> dict[str, float]:
        """Fixed parameters overridden by the two axis values for one grid cell."""
        values = {
            "phi": self.phi,
            "t0": self.t0,
            "delta": self.delta,
            "t": self.t,
            "gamma_abs": self.gamma_abs,
        }
        values[self.axis1.name] = v1
        values[self.axis2.name] = v2
        return {k: v for k, v in values.items() if v is not None}


def _axis_from_section(section: configparser.SectionProxy) -> AxisSpec:
    try:
        return AxisSpec(
            name=section["name"].strip(),
            start=float(section["start"]),
            stop=float(section["stop"]),
            steps=int(section["steps"]),
        )
    except KeyError as exc:
        raise ConfigError(f"axis section missing key {exc}") from None
    except ValueError as exc:
        raise ConfigError(f"bad axis value: {exc}") from None


def parse_config_text(text: str, overrides: dict[str, str] | None = None) -> ExperimentConfig:
    # no interpolation: a "%" in a value is text, not a reference
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config: {exc}") from None
    if "experiment" not in parser or "axis1" not in parser or "axis2" not in parser:
        raise ConfigError("config needs [experiment], [axis1] and [axis2] sections")
    exp = dict(parser["experiment"])
    if overrides:
        exp.update({k: v for k, v in overrides.items() if v is not None})

    def fget(key: str) -> float | None:
        raw = exp.pop(key, None)
        if raw is None or raw == "":
            return None
        try:
            return float(raw)
        except ValueError:
            raise ConfigError(f"bad float for {key!r}: {raw!r}") from None

    def iget(key: str) -> int | None:
        raw = exp.pop(key, None)
        return None if raw is None or raw == "" else whole_number(key, raw)

    preparation = exp.pop("preparation", "").strip()
    backend = exp.pop("backend", "analytic").strip()
    phi = fget("phi")
    t0 = fget("t0")
    delta = fget("delta")
    t = fget("t")
    gamma_abs = fget("gamma_abs")
    repetition_rate = fget("repetition_rate")
    tail_bound = fget("tail_bound")
    max_cutoff = iget("max_cutoff")
    omega_n = iget("omega_n")
    omega_j = iget("omega_j")
    scissors_raw = exp.pop("omega_scissors", "")
    split_raw = exp.pop("omega_split_ts", "")
    if exp:
        raise ConfigError(f"unknown [experiment] keys: {sorted(exp)}")
    try:
        split_ts = tuple(float(x) for x in split_raw.split(",") if x.strip())
    except ValueError:
        raise ConfigError(f"bad omega_split_ts: {split_raw!r}") from None
    return ExperimentConfig(
        preparation=preparation,
        axis1=_axis_from_section(parser["axis1"]),
        axis2=_axis_from_section(parser["axis2"]),
        backend=backend,
        phi=0.0 if phi is None else phi,
        t0=0.5 if t0 is None else t0,
        delta=delta,
        t=t,
        gamma_abs=gamma_abs,
        repetition_rate=repetition_rate,
        tail_bound=1e-12 if tail_bound is None else tail_bound,
        max_cutoff=64 if max_cutoff is None else max_cutoff,
        omega_n=omega_n,
        omega_j=omega_j,
        omega_scissors=tuple(m.strip() for m in scissors_raw.split(",") if m.strip()),
        omega_split_ts=split_ts,
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

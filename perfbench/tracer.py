"""Outside-in span tracer for the polscissors package.

Nothing under ``src/`` changes.  ``Tracer.install`` replaces, in the namespace
of each package module, every polscissors function that module imported from
another package module with a wrapper that records a span.  A module imported
whole (``from . import analytics``) is replaced by a proxy that hands out
wrapped functions.  Calls inside one module still go to the plain function,
so every span marks a call across a layer boundary and ``by_<caller>`` names
the module the call came from.  ``uninstall`` puts every original back.

The config layer is reached through methods of the objects ``sweep``
receives, not through imported functions, so those methods are wrapped on
their classes (``CLASS_METHODS``) and take their caller from the calling frame.

Each span records name, caller, start, end, parent span and op id, plus the
basis keys going in and out and, where amplitudes can be dropped
(``NORM_TRACKED``), the squared norm lost.  The counting work happens outside
the timed call and is excluded from every self time.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
import types
from dataclasses import asdict, dataclass

PACKAGE = "polscissors"
LAYERS = (
    "fock",
    "elements",
    "sources",
    "scissors",
    "analytics",
    "preparations",
    "config",
    "sweep",
    "verify",
)
CLASS_METHODS = {"config": {"ExperimentConfig": ("cell_parameters",), "AxisSpec": ("values",)}}
# Boundaries where amplitudes are dropped: beam splitter and squeezer cut at
# the cutoff, prune drops residue below its budget.
NORM_TRACKED = frozenset({"elements.apply_bs", "elements.apply_squeezer_exact", "fock.prune"})


@dataclass(slots=True)
class Span:
    name: str
    caller: str
    parent: int | None
    op: str | None
    start: float = 0.0
    end: float = 0.0
    outer_start: float = 0.0
    outer_end: float = 0.0
    keys_in: int = 0
    keys_out: int = 0
    max_keys: int = 0
    norm_lost: float = 0.0


def _short(module_name: str) -> str:
    return module_name.rsplit(".", 1)[-1]


class _ModuleProxy:
    """Stands in for a package module inside one importing module."""

    def __init__(self, module: types.ModuleType, wrapped: dict[str, object]):
        self._module = module
        self._wrapped = wrapped

    def __getattr__(self, name: str):
        try:
            return self._wrapped[name]
        except KeyError:
            return getattr(self._module, name)


class Tracer:
    """In-memory span recorder; install it, run ops, then read ``spans``."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.op: str | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._layers = {layer: importlib.import_module(f"{PACKAGE}.{layer}") for layer in LAYERS}
        fock, scissors = self._layers["fock"], self._layers["scissors"]
        self._state_type = fock.PureState
        self._outcome_type = fock.ProjectionOutcome
        self._result_type = scissors.ScissorsResult

    # -- installation -------------------------------------------------------

    def install(self, bench_modules: tuple[types.ModuleType, ...] = ()) -> "Tracer":
        """Wrap every cross-module call; ``bench_modules`` are traced as caller ``bench``."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        importers = [(module, layer) for layer, module in self._layers.items()]
        importers += [(module, "bench") for module in bench_modules]
        for module, caller in importers:
            for attr, value in list(vars(module).items()):
                replacement = self._replacement(value, module, caller)
                if replacement is not None:
                    self._undo.append((module, attr, value))
                    setattr(module, attr, replacement)
        for layer, classes in CLASS_METHODS.items():
            for cls_name, methods in classes.items():
                cls = getattr(self._layers[layer], cls_name)
                for method in methods:
                    original = cls.__dict__[method]
                    self._undo.append((cls, method, original))
                    setattr(cls, method, self._wrap_method(original, layer))
        return self

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def _replacement(self, value, importer: types.ModuleType, caller: str):
        if isinstance(value, types.ModuleType):
            if not value.__name__.startswith(f"{PACKAGE}.") or value is importer:
                return None
            wrapped = {
                name: self._wrap(fn, caller)
                for name, fn in vars(value).items()
                if isinstance(fn, types.FunctionType) and fn.__module__ == value.__name__
            }
            return _ModuleProxy(value, wrapped)
        if isinstance(value, types.FunctionType):
            home = value.__module__ or ""
            if home.startswith(f"{PACKAGE}.") and home != importer.__name__:
                return self._wrap(value, caller)
        return None

    def _wrap(self, fn, caller: str):
        name = f"{_short(fn.__module__)}.{fn.__name__}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self._call(fn, name, caller, args, kwargs)

        return traced

    def _wrap_method(self, fn, layer: str):
        name = f"{layer}.{fn.__qualname__}"
        home = f"{PACKAGE}.{layer}"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            module = sys._getframe(1).f_globals.get("__name__", "")
            if module == home:
                return fn(*args, **kwargs)
            caller = _short(module) if module.startswith(f"{PACKAGE}.") else "bench"
            return self._call(fn, name, caller, args, kwargs)

        return traced

    # -- recording ----------------------------------------------------------

    def _call(self, fn, name: str, caller: str, args, kwargs):
        span = Span(name, caller, self._stack[-1] if self._stack else None, self.op)
        span.outer_start = time.perf_counter()
        index = len(self.spans)
        self.spans.append(span)
        states = [a for a in args if isinstance(a, self._state_type)]
        sizes = [len(s.amplitudes) for s in states]
        span.keys_in = sum(sizes)
        track_norm = name in NORM_TRACKED and len(states) == 1
        norm_in = states[0].norm_squared() if track_norm else 0.0
        self._stack.append(index)
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span.end = span.outer_end = time.perf_counter()
            self._stack.pop()
        out = self._state_of(result)
        span.keys_out = len(out.amplitudes) if out is not None else 0
        span.max_keys = max(sizes + [span.keys_out])
        if track_norm and out is not None:
            span.norm_lost = norm_in - out.norm_squared()
        span.outer_end = time.perf_counter()
        return result

    def _state_of(self, result):
        if isinstance(result, self._state_type):
            return result
        if isinstance(result, self._outcome_type):
            return result.state
        if isinstance(result, self._result_type):
            return result.canonical_state
        return None

    def write_jsonl(self, path: str) -> None:
        selfs = self_times(self.spans)
        with open(path, "w", encoding="utf-8") as fh:
            for index, (span, own) in enumerate(zip(self.spans, selfs)):
                fh.write(json.dumps({"id": index, **asdict(span), "self_s": own}) + "\n")


def self_times(spans: list[Span]) -> list[float]:
    """Span duration minus the part of it that child spans cover.

    A child covers its outer interval, which includes the tracer's own counting
    around the call, so that work is charged to neither span.
    """
    own = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            p = spans[s.parent]
            own[s.parent] -= max(0.0, min(p.end, s.outer_end) - max(p.start, s.outer_start))
    return own


@dataclass
class Totals:
    calls: int = 0
    self_s: float = 0.0
    keys_in: int = 0
    keys_out: int = 0
    norm_lost: float = 0.0

    def add(self, span: Span, own: float) -> None:
        self.calls += 1
        self.self_s += own
        self.keys_in += span.keys_in
        self.keys_out += span.keys_out
        self.norm_lost += span.norm_lost


def aggregate(spans: list[Span]) -> tuple[dict[str, Totals], int]:
    """Totals per function and per ``function.by_<caller>``, and the largest state seen."""
    totals: dict[str, Totals] = {}
    for span, own in zip(spans, self_times(spans)):
        for key in (span.name, f"{span.name}.by_{span.caller}"):
            totals.setdefault(key, Totals()).add(span, own)
    return totals, max((s.max_keys for s in spans), default=0)

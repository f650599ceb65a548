"""Span tracing around calls into ddh2mor's public functions.

While a ``Tracer`` is entered it replaces each traced function on every
namespace that binds it.  The package modules import each other's names
with ``from .x import y``, so a call such as ``optim.run -> solve_R`` looks
the name up in ``ddh2mor.optim``, not in ``ddh2mor.ddgrad``; patching only
the defining module would miss it.  Every call records a span (name,
start, end, parent).  Spans stay in memory and are aggregated per name into
calls, inclusive time and self time, which is a span's duration minus the
durations of its child spans.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass

# "<module>.<qualname>" inside the ddh2mor package; a span takes this name,
# with "__init__" shortened to "init"
SPANNED = (
    "matequ.solve_discrete_sylvester",
    "matequ.solve_stein",
    "matequ.pencil_diagnostics",
    "ddgrad.reconstruct_dual",
    "ddgrad.solve_R",
    "ddgrad.solve_S",
    "ddgrad.solve_SB",
    "ddgrad.rom_gramians",
    "ddgrad.data_gradients",
    "dataio.check_assumptions",
    "dataio.save_ensemble",
    "dataio.load_ensemble",
    "dataio.generate_trajectories",
    "optim.run",
    "sysmodel.H2ErrorEvaluator.__init__",
    "sysmodel.H2ErrorEvaluator.relative_error",
    "sysmodel.h2_norm",
    "sysmodel.h2_error",
    "initmor.init_dmdc",
    "initmor.init_loewner",
    "initmor.init_data_bt",
    "initmor.make_stable",
)
# counted without a span, so that the check's time stays in the self time
# of its caller (the line search in optim.run)
COUNTED = ("sysmodel.Rom.satisfies_spectral_bounds",)

PACKAGE = "ddh2mor"


def span_name(target: str) -> str:
    return target.replace("__init__", "init")


@dataclass
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int  # index of the enclosing span in Tracer.spans, -1 at the root


@dataclass
class LayerStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


def _resolve(target: str):
    """(owner, attribute) of a traced target; owner is a module or a class."""
    module, *path = target.split(".")
    owner = importlib.import_module(f"{PACKAGE}.{module}")
    for part in path[:-1]:
        owner = getattr(owner, part)
    return owner, path[-1]


def _bindings(owner, attr: str):
    """Every (namespace, name) that binds the object ``owner.attr``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    original = getattr(owner, attr)
    modules = [m for name, m in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")]
    return [(m, name) for m in modules
            for name, value in list(vars(m).items()) if value is original]


class Tracer:
    """Records spans of the traced functions while entered (one thread)."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = {span_name(t): 0 for t in COUNTED}
        self._open: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def begin(self, name: str) -> Span:
        span = Span(name, time.perf_counter_ns(), 0, self._open[-1] if self._open else -1)
        self._open.append(len(self.spans))
        self.spans.append(span)
        return span

    def end(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._open.pop()

    def _spanned(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(span)
        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    def __enter__(self) -> "Tracer":
        for targets, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for target in targets:
                owner, attr = _resolve(target)
                wrapper = make(span_name(target), getattr(owner, attr))
                for namespace, name in _bindings(owner, attr):
                    self._patched.append((namespace, name, getattr(namespace, name)))
                    setattr(namespace, name, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        while self._patched:
            namespace, name, original = self._patched.pop()
            setattr(namespace, name, original)

    def layers(self, extra_names=()) -> dict[str, LayerStats]:
        """Per-name calls, inclusive and self time; untouched names read zero."""
        stats = {name: LayerStats() for name in
                 [span_name(t) for t in SPANNED] + list(extra_names)}
        child_ns = [0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_ns[span.parent] += span.end_ns - span.start_ns
        for span, inner in zip(self.spans, child_ns):
            entry = stats.setdefault(span.name, LayerStats())
            duration = span.end_ns - span.start_ns
            entry.calls += 1
            entry.total_s += duration * 1e-9
            entry.self_s += (duration - inner) * 1e-9
        for name, calls in self.counts.items():
            stats[name] = LayerStats(calls=calls)
        return stats

    def self_time_s(self) -> float:
        """Sum of all self times, i.e. the time covered by root spans."""
        return sum(s.end_ns - s.start_ns for s in self.spans if s.parent < 0) * 1e-9

    def dump(self) -> list:
        """Spans as [name, start_s, end_s, parent] rows, times from the first span."""
        t0 = self.spans[0].start_ns if self.spans else 0
        return [[s.name, (s.start_ns - t0) * 1e-9, (s.end_ns - t0) * 1e-9, s.parent]
                for s in self.spans]

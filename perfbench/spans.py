"""Span tracer that wraps starbath's public functions from outside the program.

``Tracer.install`` replaces each public function of the layer modules by a
wrapper at every module attribute that binds it, so names a module imported
directly (``starbath.harness.snapshot_at``) are traced as well.  Every call
records a span (name, start, end, parent id) in memory; the per-layer
metrics are computed from the spans after the job returns.  A function the
program no longer has is skipped, and a metric group left without any
function is reported as absent rather than failing the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import sys
import time
import tracemalloc
from dataclasses import dataclass, field

LAYERS = ("model", "evolve", "kernels", "thermo", "gksl", "table", "harness")

# Groups inside the evolve layer; other evolve functions take the group of
# the nearest enclosing evolve span, or ``evolve.other`` at top level.
EVOLVE_GROUPS = {
    "mode_basis": "evolve.mode_basis",
    "diagonalize": "evolve.mode_basis",
    "snapshot_at": "evolve.snapshot",
    "snapshot_series": "evolve.snapshot",
    "system_coefficient_series": "evolve.series",
    "coefficient_rows_series": "evolve.series",
    "cross_term_series": "evolve.series",
}
EVOLVE_OTHER = "evolve.other"

# Methods traced in addition to module functions: (module, class, method).
METHODS = (("table", "ResultTable", "write_csv"),)

MIB = 2.0**20


@dataclass
class Span:
    id: int
    parent: int | None
    name: str
    group: str
    start: float
    end: float = 0.0
    entry: bool = True  # first span of its group on the stack
    work: dict = field(default_factory=dict)
    alloc_base: int = 0
    alloc_peak: int = 0

    @property
    def duration(self) -> float:
        return self.end - self.start


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span duration minus the part of it that its child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, lo, hi = 0.0, None, None
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            a, b = max(c.start, s.start), min(c.end, s.end)
            if b <= a:
                continue
            if hi is None or a > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = a, b
            else:
                hi = max(hi, b)
        if hi is not None:
            covered += hi - lo
        out[s.id] = s.duration - covered
    return out


def _work(name: str, args: tuple, result) -> dict:
    """Computed work of one entry span; empty when the shapes are not the
    ones this benchmark knows, so an API change drops a count, not the run."""
    try:
        if name in ("mode_basis", "diagonalize"):
            n = len(result.eigenvalues)
            return {"gflop": 9.0 * n**3 / 1e9}  # dense symmetric eigh with vectors, ~9 n^3
        if name == "covariance_rows":
            n, rows = args[0].shape[0], len(result)
            return {"rows": rows, "gflop": 4.0 * rows * n * n / 1e9}  # two row-block GEMMs
        if name == "write_csv":
            return {"rows": len(args[0].rows), "bytes": os.path.getsize(result)}
        if name == "write_manifest":
            return {"bytes": os.path.getsize(result)}
    except (AttributeError, IndexError, TypeError, OSError):
        pass
    return {}


class Tracer:
    """Collects spans from wrapped starbath functions.

    ``install`` patches the program in place and ``uninstall`` restores it;
    ``trace`` records one root span around a call with allocation tracking.
    """

    def __init__(self, package: str = "starbath"):
        self.package = package
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []
        self._alloc = False
        self.present: set[str] = set()  # groups with at least one wrapped function

    # --- installation ----------------------------------------------------

    def _targets(self):
        for layer in LAYERS:
            try:
                mod = importlib.import_module(f"{self.package}.{layer}")
            except ImportError:
                continue
            names = getattr(mod, "__all__", [n for n in vars(mod) if not n.startswith("_")])
            for name in names:
                fn = getattr(mod, name, None)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    yield layer, name, fn
        for layer, cls_name, meth in METHODS:
            mod = sys.modules.get(f"{self.package}.{layer}")
            cls = getattr(mod, cls_name, None)
            fn = getattr(cls, meth, None)
            if inspect.isfunction(fn):
                yield layer, meth, fn

    def install(self) -> None:
        wrappers = {}
        for layer, name, fn in self._targets():
            group = EVOLVE_GROUPS.get(name) if layer == "evolve" else layer
            wrappers[id(fn)] = (fn, self._wrap(fn, name, layer, group))
            self.present.add(group or EVOLVE_OTHER)
        modules = [m for n, m in list(sys.modules.items()) if n == self.package or n.startswith(self.package + ".")]
        owners = modules + [getattr(sys.modules.get(f"{self.package}.{layer}"), c, None) for layer, c, _ in METHODS]
        for owner in owners:
            if owner is None:
                continue
            for attr, value in list(vars(owner).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patched.append((owner, attr, value))
                    setattr(owner, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def _wrap(self, fn, name: str, layer: str, group: str | None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self._enter(name, layer, group)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(span)
            if span.entry:
                span.work = _work(name, args, result)
            return result

        return wrapper

    # --- span bookkeeping ------------------------------------------------

    def _enter(self, name: str, layer: str, group: str | None) -> Span:
        parent = self._stack[-1] if self._stack else None
        if group is None:  # evolve helper: inherit the enclosing evolve group
            group = next((s.group for s in reversed(self._stack) if s.group.startswith(layer + ".")), EVOLVE_OTHER)
        span = Span(
            id=len(self.spans),
            parent=parent.id if parent else None,
            name=f"{layer}.{name}",
            group=group,
            start=0.0,
            entry=all(s.group != group for s in self._stack),
        )
        if self._alloc:
            current, peak = tracemalloc.get_traced_memory()
            if parent is not None:
                parent.alloc_peak = max(parent.alloc_peak, peak)
            tracemalloc.reset_peak()
            span.alloc_base = span.alloc_peak = current
        self.spans.append(span)
        self._stack.append(span)
        span.start = time.perf_counter()
        return span

    def _exit(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()
        if self._alloc:
            span.alloc_peak = max(span.alloc_peak, tracemalloc.get_traced_memory()[1])
            if self._stack:
                self._stack[-1].alloc_peak = max(self._stack[-1].alloc_peak, span.alloc_peak)

    def trace(self, fn, *args):
        """Call ``fn(*args)`` under a root span ``harness.cli_main``, with
        allocation tracking on; returns the call's result."""
        self.spans, self._stack = [], []
        tracemalloc.start()
        self._alloc = True
        root = self._enter("cli_main", "harness", "harness")
        try:
            return fn(*args)
        finally:
            self._exit(root)
            self._alloc = False
            tracemalloc.stop()


# --- per-layer metrics ------------------------------------------------------

# metric name -> (group, field, unit); field is "s", "calls", a work key,
# or "peak_alloc_mb".
GROUP_METRICS = {
    "harness.self_s": ("harness", "s", "s"),
    "model.s": ("model", "s", "s"),
    "model.calls": ("model", "calls", "count"),
    "evolve.mode_basis_s": ("evolve.mode_basis", "s", "s"),
    "evolve.mode_basis_calls": ("evolve.mode_basis", "calls", "count"),
    "evolve.mode_basis_gflop": ("evolve.mode_basis", "gflop", "GFLOP"),
    "evolve.mode_basis_peak_alloc_mb": ("evolve.mode_basis", "peak_alloc_mb", "MiB"),
    "evolve.snapshot_s": ("evolve.snapshot", "s", "s"),
    "evolve.snapshot_calls": ("evolve.snapshot", "calls", "count"),
    "evolve.series_s": ("evolve.series", "s", "s"),
    "evolve.series_calls": ("evolve.series", "calls", "count"),
    "evolve.other_s": (EVOLVE_OTHER, "s", "s"),
    "kernels.s": ("kernels", "s", "s"),
    "kernels.calls": ("kernels", "calls", "count"),
    "kernels.rows": ("kernels", "rows", "count"),
    "kernels.gflop": ("kernels", "gflop", "GFLOP"),
    "kernels.peak_alloc_mb": ("kernels", "peak_alloc_mb", "MiB"),
    "thermo.s": ("thermo", "s", "s"),
    "thermo.calls": ("thermo", "calls", "count"),
    "gksl.s": ("gksl", "s", "s"),
    "gksl.calls": ("gksl", "calls", "count"),
    "table.s": ("table", "s", "s"),
    "table.rows": ("table", "rows", "count"),
    "table.bytes": ("table", "bytes", "B"),
}


def layer_metrics(spans: list[Span], present: set[str]) -> tuple[dict[str, float], set[str]]:
    """Aggregate spans into the per-layer metrics.

    Returns (values, absent): a metric whose group had no function to wrap
    is absent and reads 0.  ``calls`` counts entries into a group, so a
    group function calling another of its own group counts once.
    """
    selfs = self_times(spans)
    agg: dict[str, dict[str, float]] = {}
    for s in spans:
        a = agg.setdefault(s.group, {"s": 0.0, "calls": 0, "peak_alloc_mb": 0.0})
        a["s"] += selfs[s.id]
        if s.entry:
            a["calls"] += 1
            a["peak_alloc_mb"] = max(a["peak_alloc_mb"], (s.alloc_peak - s.alloc_base) / MIB)
            for key, value in s.work.items():
                a[key] = a.get(key, 0) + value
    values, absent = {}, set()
    for metric, (group, fld, _) in GROUP_METRICS.items():
        if group not in present and group != "harness":
            absent.add(metric)
        values[metric] = float(agg.get(group, {}).get(fld, 0.0))
    return values, absent

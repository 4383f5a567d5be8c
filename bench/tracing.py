"""Span tracing of the susypainleve layers from outside the package.

The tracer replaces every module-level binding of a public function of the
layer modules (in every susypainleve module that binds it, the package
namespace included) with one wrapper per function that records a span:
name, start, end, parent span and op id.  Spans are kept in flat in-memory
arrays and written out once, when the run ends.  `Jet.__post_init__` is
wrapped with a bare counter instead of a span, because it runs for every jet
built.  `uninstall` restores every binding.

A layer's self time is the duration of its spans minus the part of each
span covered by its child spans (`self_times`).
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import time
from array import array
from dataclasses import dataclass, field
from pathlib import Path

# Package modules that do work, in dependency order.  config does none and is
# not traced.
PACKAGE = "susypainleve"
LAYERS = ("jets", "hyp1f1", "oscillator", "susy", "painleve", "residual", "backlund", "cli")
OP_SPAN = "bench.op"


@dataclass
class Spans:
    """Flat span store; index i is span i, parent -1 marks a root."""

    names: list[str] = field(default_factory=list)
    name_ids: dict[str, int] = field(default_factory=dict)
    name: array = field(default_factory=lambda: array("i"))
    parent: array = field(default_factory=lambda: array("i"))
    op: array = field(default_factory=lambda: array("i"))
    start: array = field(default_factory=lambda: array("d"))
    end: array = field(default_factory=lambda: array("d"))

    def intern(self, name: str) -> int:
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.name_ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1, op: int = 0) -> int:
        """Append a finished span (used to build synthetic trees)."""
        self.name.append(self.intern(name))
        self.parent.append(parent)
        self.op.append(op)
        self.start.append(start)
        self.end.append(end)
        return len(self.name) - 1

    def __len__(self) -> int:
        return len(self.name)

    def write(self, path: Path) -> None:
        """Tab-separated name, start, end, parent, op; gzip-compressed."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("span\tname\tstart\tend\tparent\top\n")
            names = self.names
            for i in range(len(self)):
                fh.write(f"{i}\t{names[self.name[i]]}\t{self.start[i]!r}\t{self.end[i]!r}"
                         f"\t{self.parent[i]}\t{self.op[i]}\n")


def self_times(spans: Spans) -> list[float]:
    """Per span: duration minus the union of its children's intervals.

    Spans are stored in start order, so each parent sees its children in
    start order and the covered length is one sweep.
    """
    n = len(spans)
    start, end, parent = spans.start, spans.end, spans.parent
    covered = [0.0] * n
    reach = [float("-inf")] * n  # end of the union of children seen so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
        if hi > reach[p]:
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


class Tracer:
    """Installs span wrappers on the susypainleve package and collects spans."""

    def __init__(self):
        self.spans = Spans()
        self.stack: list[int] = []
        self.op_id = -1
        self.jets_built = 0
        self.results: dict[int, object] = {}  # span index -> observer summary
        self.observers: dict[str, object] = {}
        self._restore: list[tuple[object, str, object]] = []

    # -- spans from the benchmark's own code --------------------------------------

    def begin(self, name: str) -> int:
        spans = self.spans
        idx = len(spans.name)
        spans.name.append(spans.intern(name))
        spans.parent.append(self.stack[-1] if self.stack else -1)
        spans.op.append(self.op_id)
        spans.end.append(0.0)
        self.stack.append(idx)
        spans.start.append(time.perf_counter())
        return idx

    def finish(self, idx: int) -> None:
        self.spans.end[idx] = time.perf_counter()
        self.stack.pop()

    # -- wrapping -----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        spans, stack = self.spans, self.stack
        name_id = spans.intern(name)
        names, parents, ops, starts, ends = (
            spans.name, spans.parent, spans.op, spans.start, spans.end)
        clock = time.perf_counter
        tracer = self

        observe = self.observers.get(name)
        if observe is not None:
            results = self.results

            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(name_id)
                parents.append(stack[-1] if stack else -1)
                ops.append(tracer.op_id)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    out = fn(*args, **kwargs)
                except Exception as exc:
                    results[idx] = observe(None, exc)
                    raise
                finally:
                    ends[idx] = clock()
                    stack.pop()
                results[idx] = observe(out, None)
                return out
        else:

            def wrapper(*args, **kwargs):
                idx = len(names)
                names.append(name_id)
                parents.append(stack[-1] if stack else -1)
                ops.append(tracer.op_id)
                ends.append(0.0)
                stack.append(idx)
                starts.append(clock())
                try:
                    return fn(*args, **kwargs)
                finally:
                    ends[idx] = clock()
                    stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self, observers: dict | None = None) -> int:
        """Wrap every public layer function at every module-level binding.

        `observers` maps span names (such as "residual.verify_on_grid") to a
        function of (return value, exception) whose result is kept in
        `results` under the span index.  Returns the number of bindings
        replaced.
        """
        self.observers = dict(observers or {})
        package = importlib.import_module(PACKAGE)
        prefix = PACKAGE + "."
        layer_of = {prefix + layer: layer for layer in LAYERS}
        modules = [package] + [importlib.import_module(prefix + layer) for layer in LAYERS]
        wrappers: dict[int, object] = {}
        replaced = 0
        for module in modules:
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = layer_of.get(obj.__module__)
                if layer is None or obj.__name__.startswith("_"):
                    continue
                wrapper = wrappers.get(id(obj))
                if wrapper is None:
                    wrapper = self._wrap(obj, f"{layer}.{obj.__name__}")
                    wrappers[id(obj)] = wrapper
                self._restore.append((module, attr, obj))
                setattr(module, attr, wrapper)
                replaced += 1
        jet_cls = getattr(importlib.import_module(prefix + "jets"), "Jet", None)
        post_init = getattr(jet_cls, "__dict__", {}).get("__post_init__")
        if post_init is not None:
            tracer = self

            def counted_post_init(jet):
                tracer.jets_built += 1
                return post_init(jet)

            self._restore.append((jet_cls, "__post_init__", post_init))
            setattr(jet_cls, "__post_init__", counted_post_init)
        return replaced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# -- per-layer metrics ----------------------------------------------------------------

JET_PRIMITIVES = ("jet_mul", "jet_div", "jet_compose", "jet_exp", "jet_sqrt", "log_derivative")
SUSY_OPERATORS = ("wronskian", "apply_bplus", "apply_aplus", "superpotential_alpha")


def observe_verify(out, exc):
    """(grid points, skipped points) of one verify_on_grid call."""
    report = out if exc is None else getattr(exc, "report", None)
    if report is None:
        return (0, 0)
    return (len(report.grid), report.skipped)


def observe_chain(out, exc):
    """(links, links passed) of one bt_piv_chain call."""
    if exc is not None:
        return (0, 0)
    return (len(out), sum(1 for link in out if link.passed))


OBSERVERS = {"residual.verify_on_grid": observe_verify, "backlund.bt_piv_chain": observe_chain}


def _has_ancestor(spans: Spans, idx: int, accept) -> bool:
    p = spans.parent[idx]
    while p >= 0:
        if accept(spans.names[spans.name[p]]):
            return True
        p = spans.parent[p]
    return False


def layer_metrics(tracer: Tracer, n_ops: int, points: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass over n_ops ops and `points` grid points.

    calls_per_point and built_per_point are per grid point the ops were asked
    to certify; self_s and calls are per op.
    """
    spans = tracer.spans
    selfs = self_times(spans)
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for i in range(len(spans)):
        name = spans.names[spans.name[i]]
        calls[name] = calls.get(name, 0) + 1
        self_s[name] = self_s.get(name, 0.0) + selfs[i]

    def per_point(name):
        return calls.get(name, 0) / points if points else 0.0

    def per_op(value):
        return value / n_ops if n_ops else 0.0

    def layer_self(layer):
        return per_op(sum(v for k, v in self_s.items() if k.startswith(layer + ".")))

    m: dict[str, float] = {}
    m["hyp1f1.kummer.calls_per_point"] = per_point("hyp1f1.kummer")
    m["hyp1f1.kummer.self_s"] = per_op(self_s.get("hyp1f1.kummer", 0.0))
    m["hyp1f1.kummer_jet.self_s"] = per_op(self_s.get("hyp1f1.kummer_jet", 0.0))
    for fn in JET_PRIMITIVES:
        m[f"jets.{fn}.calls_per_point"] = per_point(f"jets.{fn}")
        m[f"jets.{fn}.self_s"] = per_op(self_s.get(f"jets.{fn}", 0.0))
    m["jets.Jet.built_per_point"] = tracer.jets_built / points if points else 0.0
    for fn in ("seed_u", "ladder"):
        m[f"oscillator.{fn}.calls_per_point"] = per_point(f"oscillator.{fn}")
        m[f"oscillator.{fn}.self_s"] = per_op(self_s.get(f"oscillator.{fn}", 0.0))
    for fn in SUSY_OPERATORS:
        m[f"susy.{fn}.calls_per_point"] = per_point(f"susy.{fn}")
        m[f"susy.{fn}.self_s"] = per_op(self_s.get(f"susy.{fn}", 0.0))

    verify_id = spans.name_ids.get("residual.verify_on_grid", -2)
    chain_id = spans.name_ids.get("backlund.bt_piv_chain", -2)
    deviation_id = spans.name_ids.get("residual.pointwise_deviation", -2)
    in_build = grid_points = skipped = links = passed = tried = 0
    for i in range(len(spans)):
        nid = spans.name[i]
        if nid == verify_id:
            n, s = tracer.results.get(i, (0, 0))
            grid_points += n
            skipped += s
            if _has_ancestor(spans, i, lambda name: name.startswith("painleve.")):
                in_build += 1
        elif nid == chain_id:
            n, ok = tracer.results.get(i, (0, 0))
            links += n
            passed += ok
        elif nid == deviation_id and _has_ancestor(
            spans, i, lambda name: name == "backlund.bt_piv_chain"
        ):
            tried += 1
    m["painleve.build.self_s"] = layer_self("painleve")
    m["painleve.build.verify_calls"] = per_op(in_build)
    m["residual.verify_on_grid.self_s"] = per_op(self_s.get("residual.verify_on_grid", 0.0))
    m["residual.points"] = grid_points / points if points else 0.0
    m["residual.skipped_ratio"] = skipped / grid_points if grid_points else 0.0
    infer = ("residual.infer_piv_params", "residual.infer_pv_params")
    m["residual.infer.calls"] = per_op(sum(calls.get(k, 0) for k in infer))
    m["residual.infer.self_s"] = per_op(sum(self_s.get(k, 0.0) for k in infer))
    m["residual.pointwise_deviation.calls"] = per_op(calls.get("residual.pointwise_deviation", 0))
    m["residual.pointwise_deviation.self_s"] = per_op(
        self_s.get("residual.pointwise_deviation", 0.0))
    m["backlund.check_catalog_row.self_s"] = per_op(self_s.get("backlund.check_catalog_row", 0.0))
    m["backlund.bt_piv_chain.self_s"] = per_op(self_s.get("backlund.bt_piv_chain", 0.0))
    m["backlund.branch.tried_per_link"] = tried / links if links else 0.0
    m["backlund.branch.hit_ratio"] = passed / tried if tried else 0.0
    m["cli.main.self_s"] = layer_self("cli")
    return m

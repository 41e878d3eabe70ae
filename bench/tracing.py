"""Spans around the package's public functions, recorded from outside.

``Tracer.install`` wraps every public function of the library modules
(and ``cli.main``) at every place its module name is bound, plus
``DiGraph.__init__``, so each call leaves one span: name, start, end,
parent, and whether it raised.  Spans are kept in flat arrays in memory
and reduced to per-name totals when the run ends.  Nothing in ``src/``
is touched.
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from typing import Callable

# Modules whose public functions are wrapped; ``cli`` contributes only
# ``main``, so argument parsing and rendering count as its self time.
LIBRARY_MODULES = ("digraph", "predicates", "expansion", "compression", "census")

# Spans counted by ``expansion.recheck_share`` when they run under
# ``expand_to_preorder``.
RECHECK = ("compression.verify_compression", "predicates.is_stable", "predicates.locked_status")


class Spans:
    """Flat span storage; a parent always has a smaller index than its children."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.raised = array("b")

    def __len__(self) -> int:
        return len(self.name_id)

    def intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def add(self, name: str, start: float, end: float, parent: int = -1, raised: bool = False) -> int:
        """Append a finished span (used to build span trees by hand)."""
        index = len(self.name_id)
        self.name_id.append(self.intern(name))
        self.parent.append(parent)
        self.start.append(start)
        self.end.append(end)
        self.raised.append(int(raised))
        return index


def summarize(spans: Spans) -> dict[str, dict[str, float]]:
    """Per span name: calls, raised, total and self seconds.

    A span's self time is its duration minus the durations of its direct
    children.  ``recheck_s`` on ``expansion.expand_to_preorder`` is the
    time spent in outermost ``RECHECK`` spans below it.
    """
    n = len(spans)
    names = spans.names
    child = [0.0] * n
    for i in range(n):
        p = spans.parent[i]
        if p >= 0:
            child[p] += spans.end[i] - spans.start[i]
    recheck_ids = {spans._ids[r] for r in RECHECK if r in spans._ids}
    expand_id = spans._ids.get("expansion.expand_to_preorder", -1)
    # 0: outside expansion, 1: under expand_to_preorder, 2: under a recheck span there
    zone = bytearray(n)
    recheck_s = 0.0
    out: dict[str, dict[str, float]] = {}
    for i in range(n):
        name_id = spans.name_id[i]
        duration = spans.end[i] - spans.start[i]
        p = spans.parent[i]
        z = zone[p] if p >= 0 else 0
        if p >= 0 and spans.name_id[p] == expand_id and z == 0:
            z = 1
        if z == 1 and name_id in recheck_ids:
            recheck_s += duration
            z = 2
        zone[i] = z
        entry = out.setdefault(
            names[name_id], {"calls": 0, "raised": 0, "total_s": 0.0, "self_s": 0.0}
        )
        entry["calls"] += 1
        entry["raised"] += spans.raised[i]
        entry["total_s"] += duration
        entry["self_s"] += duration - child[i]
    if "expansion.expand_to_preorder" in out:
        out["expansion.expand_to_preorder"]["recheck_s"] = recheck_s
    return out


class Tracer:
    """Installs and removes the span-recording wrappers."""

    def __init__(self):
        self.spans = Spans()
        self._stack: list[int] = []
        self._undo: list[Callable[[], None]] = []

    def _wrap(self, name: str, fn: Callable) -> Callable:
        spans = self.spans
        name_id = spans.intern(name)
        stack = self._stack
        clock = time.perf_counter
        ids, parents, starts, ends, raised = (
            spans.name_id, spans.parent, spans.start, spans.end, spans.raised,
        )

        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1] if stack else -1)
            raised.append(0)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            except BaseException:
                raised[index] = 1
                raise
            finally:
                ends[index] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def _replace(self, owner, attr: str, new) -> None:
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        setattr(owner, attr, new)
        self._undo.append(lambda: setattr(owner, attr, old))

    def install(self, package: str = "splitclosure") -> None:
        """Wrap the package's public functions wherever they are bound."""
        __import__(f"{package}.cli")
        modules = [m for k, m in sys.modules.items() if k == package or k.startswith(package + ".")]
        targets: list[tuple[str, object]] = []
        for short in LIBRARY_MODULES:
            module = sys.modules[f"{package}.{short}"]
            for attr, obj in vars(module).items():
                if attr.startswith("_") or isinstance(obj, type) or not callable(obj):
                    continue
                if getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isgeneratorfunction(obj):  # a span would time creation only
                    continue
                targets.append((f"{short}.{attr}", obj))
        targets.append(("cli.main", sys.modules[f"{package}.cli"].main))
        for name, original in targets:
            wrapped = self._wrap(name, original)
            for module in modules:
                for attr, obj in list(vars(module).items()):
                    if obj is original:
                        self._replace(module, attr, wrapped)
        digraph_cls = sys.modules[f"{package}.digraph"].DiGraph
        self._replace(digraph_cls, "__init__", self._wrap("digraph.DiGraph", digraph_cls.__init__))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()


def merge(summaries: list[dict]) -> dict:
    """Add up several ``summarize`` results field by field."""
    out: dict[str, dict[str, float]] = {}
    for summary in summaries:
        for name, entry in summary.items():
            target = out.setdefault(name, {})
            for key, value in entry.items():
                target[key] = target.get(key, 0) + value
    return out


# Per-layer metrics: span names reported as calls per operation, and as
# self milliseconds per operation.  The oracle's self time is not
# reported: the current sweep never calls it, so it would read 0 on
# every run; its call count shows when that changes.
CALLS = (
    "digraph.DiGraph",
    "digraph.canonical_form",
    "predicates.is_balanced",
    "predicates.is_stable",
    "predicates.locked_status",
    "predicates.is_preordered",
    "expansion.construction_b",
    "compression.verify_compression",
    "compression.compose",
    "compression.split_vertex",
    "census.graph_from_mask",
    "census.contains_induced",
    "census.oracle_preorder_expansion",
)
SELF_MS = (
    "digraph.DiGraph",
    "digraph.parse_digraph",
    "digraph.emit_digraph",
    "digraph.canonical_form",
    "predicates.is_balanced",
    "predicates.is_stable",
    "predicates.locked_status",
    "predicates.clasps",
    "predicates.property_report",
    "expansion.expand_to_preorder",
    "compression.verify_compression",
    "compression.compose",
    "census.canonical_masks",
    "census.graph_from_mask",
    "census.minimal_obstructions",
    "census.contains_induced",
    "census.validate_theorems",
    "cli.main",
)


def layer_metrics(summary: dict, ops: int, untraced_s: float, traced_s: float) -> dict[str, tuple[float, str]]:
    """Per-layer metrics, name -> (value, unit), from a span summary of
    ``ops`` operations that took ``traced_s`` traced and ``untraced_s``
    untraced."""

    def get(name: str, key: str) -> float:
        return summary.get(name, {}).get(key, 0)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics: dict[str, tuple[float, str]] = {}
    for name in CALLS:
        metrics[f"{name}.calls"] = (get(name, "calls") / ops, "calls/op")
    for name in SELF_MS:
        metrics[f"{name}.self_ms"] = (get(name, "self_s") * 1000 / ops, "ms/op")
    splits = get("expansion.construction_a", "calls") + get("expansion.construction_b", "calls")
    metrics["expansion.splits"] = (splits / ops, "splits/op")
    metrics["expansion.select_per_split"] = (
        ratio(get("expansion.select_construction", "calls"), splits), "ratio"
    )
    metrics["expansion.recheck_share"] = (
        ratio(get("expansion.expand_to_preorder", "recheck_s"), get("expansion.expand_to_preorder", "total_s")),
        "ratio",
    )
    attempts = get("compression.split_vertex", "calls")
    metrics["compression.split_vertex.valid_ratio"] = (
        ratio(attempts - get("compression.split_vertex", "raised"), attempts), "ratio"
    )
    metrics["trace.overhead_ms"] = ((traced_s - untraced_s) * 1000 / ops, "ms/op")
    metrics["trace.overhead_share"] = (ratio(traced_s - untraced_s, untraced_s), "ratio")
    return metrics

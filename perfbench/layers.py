"""Layer tracing from outside the program: wrap public ``repro`` functions.

The benchmark records its per-layer numbers without touching ``src/``.
:func:`install` replaces chosen public functions and methods of the
``repro`` modules with timing wrappers, and :meth:`Tracer.uninstall` puts
the originals back.  Two kinds of wrapper exist:

* *kept* spans (operations, InFine steps, discovery runs, registry and
  serve calls) are few and are stored one by one, with their parent span,
  so the run can be written out as a span tree;
* *aggregated* spans (kernel calls: partition construction, intersection,
  refinement, level validation, joins) run ~100k times a pass, so each
  one only adds to a per-(parent span, operation) aggregate.

Every wrapper also charges its duration to the enclosing wrapped call, so
a layer's self time is its duration minus the part its wrapped children
cover.  Spans are kept in memory and written out once, at the end.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
import threading
import time
from contextlib import contextmanager
from typing import Any, Callable

#: Counter fields of ``Session.kernel_stats()`` summed over tracked sessions.
KERNEL_FIELDS = (
    "mark_hits",
    "mark_misses",
    "partition_hits",
    "partition_misses",
    "partition_evictions",
    "partition_evicted_positions",
    "combined_prefix_hits",
    "combined_prefix_misses",
    "counting_sorts",
    "introsorts",
    "sharded_groupings",
)


def _discovery_name(args: tuple) -> str:
    return f"discovery.{args[0].name}"


def _batch_size(args: tuple) -> int:
    return len(args[1])


#: ``(module, attribute path, span name, kept, item counter)``.  The span
#: name's first component is the layer.  ``item counter`` maps the call's
#: positional arguments to a work count (candidates of a level batch).
TARGETS: tuple[tuple[str, str, Any, bool, Callable | None], ...] = (
    ("repro.datasets.registry", "load_database", "datasets.generate", True, None),
    ("repro.infine.engine", "InFine.run", "infine.run", True, None),
    ("repro.infine.selection", "selection_fds", "infine.selection", True, None),
    ("repro.infine.upstaged", "join_upstaged_fds", "infine.upstage", True, None),
    ("repro.infine.inference", "infer_join_fds", "infine.infer", True, None),
    ("repro.infine.joinfd", "mine_join_fds", "infine.mine", True, None),
    ("repro.discovery.base", "FDDiscoveryAlgorithm.discover", _discovery_name, True, None),
    ("repro.relational.algebra", "equi_join", "relational.equi_join", False, None),
    (
        "repro.relational.partition",
        "StrippedPartition.from_column",
        "relational.partition.from_column",
        False,
        None,
    ),
    (
        "repro.relational.partition",
        "StrippedPartition.from_columns",
        "relational.partition.from_columns",
        False,
        None,
    ),
    (
        "repro.relational.partition",
        "StrippedPartition.intersect",
        "relational.partition.intersect",
        False,
        None,
    ),
    (
        "repro.relational.partition",
        "StrippedPartition.refines",
        "relational.partition.refines",
        False,
        None,
    ),
    (
        "repro.relational.partition",
        "validate_level",
        "relational.validate_level",
        False,
        _batch_size,
    ),
    (
        "repro.relational.partition",
        "validate_level_errors",
        "relational.validate_level",
        False,
        _batch_size,
    ),
    ("repro.registry.store", "RelationRegistry.put", "registry.put", True, None),
    ("repro.registry.store", "RelationRegistry.get", "registry.get", True, None),
    ("repro.serve.server", "Server.submit", "serve.submit", True, None),
    ("repro.serve.server", "Server.status", "serve.status", True, None),
)


class _ThreadState:
    """One thread's span stack, kept spans and aggregates."""

    __slots__ = ("stack", "spans", "aggregates")

    def __init__(self) -> None:
        # Frame: [span id or None, child seconds, nearest kept span id].
        self.stack: list[list] = []
        # Kept span: (id, parent id, name, start, end, child seconds, attrs).
        self.spans: list[tuple] = []
        # (kept parent id, name) -> [calls, seconds, self seconds, items].
        self.aggregates: dict[tuple[int, str], list] = {}


class Tracer:
    """Collects spans and aggregates from the wrapped functions.

    Thread-safe by construction: every thread writes only its own
    :class:`_ThreadState`; the states are merged when read, after the
    traced work has ended.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._states: list[_ThreadState] = []
        self._ids = itertools.count(1)
        self._patches: list[tuple[Any, str, Any]] = []
        self._sessions: list[Any] = []

    # -- recording -------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = _ThreadState()
            with self._lock:
                self._states.append(state)
        return state

    def _enter(self, keep: bool) -> tuple[_ThreadState, list]:
        state = self._state()
        parent_kept = state.stack[-1][2] if state.stack else 0
        span_id = next(self._ids) if keep else None
        frame = [span_id, 0.0, span_id if keep else parent_kept]
        state.stack.append(frame)
        return state, frame

    def _exit(self, state, frame, name, start, end, items=0, attrs=None) -> None:
        state.stack.pop()
        duration = end - start
        if state.stack:
            state.stack[-1][1] += duration
        span_id, child, _ = frame
        if span_id is not None:
            parent = state.stack[-1][2] if state.stack else 0
            state.spans.append((span_id, parent, name, start, end, child, attrs))
            return
        parent = state.stack[-1][2] if state.stack else 0
        key = (parent, name)
        aggregate = state.aggregates.get(key)
        if aggregate is None:
            aggregate = state.aggregates[key] = [0, 0.0, 0.0, 0]
        aggregate[0] += 1
        aggregate[1] += duration
        aggregate[2] += duration - child
        aggregate[3] += items

    @contextmanager
    def span(self, name: str, **attrs):
        """A kept span around a block (operations and passes)."""
        state, frame = self._enter(True)
        start = time.perf_counter()
        try:
            yield
        finally:
            self._exit(state, frame, name, start, time.perf_counter(), attrs=attrs or None)

    def wrap(self, fn: Callable, name, keep: bool, items: Callable | None = None):
        """A timing wrapper of ``fn``; ``name`` is a string or ``f(args)``."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            state, frame = tracer._enter(keep)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                label = name if isinstance(name, str) else name(args)
                count = items(args) if items is not None else 0
                tracer._exit(state, frame, label, start, end, count)

        return wrapper

    # -- patching --------------------------------------------------------------
    def patch(self, owner: Any, attribute: str, replacement: Any) -> None:
        """Replace ``owner.attribute``, remembering the original."""
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def uninstall(self) -> None:
        """Restore every patched attribute (newest first)."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    def track_sessions(self) -> None:
        """Remember every ``repro.Session`` created from now on."""
        from repro.session import Session

        original = Session.__init__
        sessions = self._sessions

        @functools.wraps(original)
        def init(session, *args, **kwargs):
            original(session, *args, **kwargs)
            sessions.append(session)

        self.patch(Session, "__init__", init)

    def kernel_totals(self) -> dict[str, int]:
        """Kernel counters summed over every tracked session."""
        totals = dict.fromkeys(KERNEL_FIELDS, 0)
        for session in self._sessions:
            stats = session.kernel_stats()
            for field in KERNEL_FIELDS:
                totals[field] += stats[field]
        return totals

    # -- reading ---------------------------------------------------------------
    def spans(self) -> list[tuple]:
        """Every kept span, ordered by start time."""
        merged = [span for state in self._states for span in state.spans]
        return sorted(merged, key=lambda span: span[3])

    def operations(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, seconds, self seconds and items."""
        table: dict[str, dict[str, float]] = {}

        def add(name, calls, seconds, self_seconds, items):
            row = table.setdefault(name, {"calls": 0, "s": 0.0, "self_s": 0.0, "items": 0})
            row["calls"] += calls
            row["s"] += seconds
            row["self_s"] += self_seconds
            row["items"] += items

        for state in self._states:
            for _, _, name, start, end, child, _ in state.spans:
                add(name, 1, end - start, end - start - child, 0)
            for (_, name), (calls, seconds, self_seconds, items) in state.aggregates.items():
                add(name, calls, seconds, self_seconds, items)
        return table

    def layer_self_seconds(self, operation_span: str = "op") -> dict[str, float]:
        """Self seconds per layer (first component of the span name).

        The operation spans' own self time is the part of each operation no
        layer span covers; it is reported as the ``untraced`` layer.
        """
        layers: dict[str, float] = {}
        for name, row in self.operations().items():
            if name == operation_span:
                layer = "untraced"
            elif "." in name:
                layer = name.split(".", 1)[0]
            else:
                continue
            layers[layer] = layers.get(layer, 0.0) + row["self_s"]
        return layers

    def coverage(self, operation_span: str = "op") -> float:
        """Share of the operations' wall time that layer spans cover."""
        total = covered = 0.0
        for span in self.spans():
            if span[2] == operation_span:
                total += span[4] - span[3]
                covered += span[5]
        return covered / total if total else 0.0

    def dump(self, path) -> None:
        """Write the kept spans and the kernel aggregates as JSON."""
        spans = [
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "start": start,
                "end": end,
                "child_s": child,
                **({"attrs": attrs} if attrs else {}),
            }
            for span_id, parent, name, start, end, child, attrs in self.spans()
        ]
        aggregates = [
            {"parent": parent, "name": name, "calls": calls, "s": seconds, "self_s": own}
            for state in self._states
            for (parent, name), (calls, seconds, own, _) in state.aggregates.items()
        ]
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"spans": spans, "aggregates": aggregates}, handle)


def _resolve(module_name: str, path: str) -> tuple[Any, str, Any]:
    """``(owner, attribute, function)`` of a dotted attribute path."""
    owner = importlib.import_module(module_name)
    *classes, attribute = path.split(".")
    for part in classes:
        owner = getattr(owner, part)
    return owner, attribute, owner.__dict__[attribute]


def install(tracer: Tracer) -> Tracer:
    """Wrap every :data:`TARGETS` entry and track new sessions.

    Methods are patched on their class.  A module-level function is
    patched in every loaded ``repro`` module that bound it by name, so
    ``from .algebra import equi_join`` callers see the wrapper too; the
    target modules are imported first for that reason.
    """
    resolved = [(_resolve(module, path), spec) for module, path, *spec in TARGETS]
    modules = [
        module
        for name, module in list(sys.modules.items())
        if (name == "repro" or name.startswith("repro.")) and module is not None
    ]
    for (owner, attribute, original), (name, keep, items) in resolved:
        if isinstance(owner, type):
            if isinstance(original, classmethod):
                wrapped = classmethod(tracer.wrap(original.__func__, name, keep, items))
            else:
                wrapped = tracer.wrap(original, name, keep, items)
            tracer.patch(owner, attribute, wrapped)
            continue
        wrapped = tracer.wrap(original, name, keep, items)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is original:
                    tracer.patch(module, key, wrapped)
    tracer.track_sessions()
    return tracer

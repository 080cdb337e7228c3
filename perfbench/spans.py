"""Span recording around each layer's public entry points.

The benchmark wraps, from its own files, the methods through which the
runtime enters each layer (nothing under ``src/`` knows about it).  A
span has a target (the wrapped method, which belongs to one layer), a
start, an end, a parent and a group: spans of one epoch share the
epoch number as group, spans of one serving query share ``-2 - query
id``, and every other span inherits its parent's group (-1: none).

Spans are appended to flat arrays in memory and written out at the
end.  Only calls made while a root span is open are recorded, so set-up
work before :meth:`SpanRecorder.root` is not traced.

A layer's self time is the total duration of its spans minus the time
covered by their direct children; the root span's self time is the
*residual* (the benchmark's own code outside every wrapped call).  Self times plus
the residual add up to the root span's duration.
"""

from __future__ import annotations

import inspect
import json
from array import array
from contextlib import contextmanager
from time import perf_counter
from typing import Callable, Dict, List, Optional, Tuple

import numpy as np

ROOT = "root"


class SpanRecorder:
    def __init__(self) -> None:
        #: target name -> layer name; target ids index this list.
        self.targets: List[Tuple[str, str]] = []
        self._target_ids: Dict[str, int] = {}
        self.target = array("q")
        self.parent = array("q")
        self.group = array("q")
        self.start = array("d")
        self.end = array("d")
        #: Indices of the open spans, innermost last.
        self.stack: List[int] = []
        self._root_target = self.target_id(ROOT, ROOT)

    def target_id(self, target: str, layer: str) -> int:
        if target not in self._target_ids:
            self._target_ids[target] = len(self.targets)
            self.targets.append((target, layer))
        return self._target_ids[target]

    def __len__(self) -> int:
        return len(self.start)

    @contextmanager
    def root(self):
        """Open the root span; everything traced happens inside it."""
        if self.stack:
            raise RuntimeError("the root span is already open")
        idx = len(self.start)
        self.target.append(self._root_target)
        self.parent.append(-1)
        self.group.append(-1)
        self.end.append(0.0)
        self.stack.append(idx)
        self.start.append(perf_counter())
        try:
            yield
        finally:
            self.end[idx] = perf_counter()
            self.stack.pop()

    def wrap(
        self,
        fn: Callable,
        target: str,
        layer: str,
        group_of: Optional[Callable[[tuple], int]] = None,
        group_of_result: Optional[Callable[[object], int]] = None,
    ) -> Callable:
        """``fn`` timed as one span of ``target`` per call.

        ``group_of(args)`` names the span's group from its arguments;
        ``group_of_result(result)`` from its return value (and then also
        regroups the spans the call opened).
        """
        tid = self.target_id(target, layer)
        stack = self.stack
        targets, parents, groups = self.target, self.parent, self.group
        starts, ends = self.start, self.end

        def traced(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = len(starts)
            parent = stack[-1]
            targets.append(tid)
            parents.append(parent)
            groups.append(groups[parent] if group_of is None else group_of(args))
            ends.append(0.0)
            stack.append(idx)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                stack.pop()
            if group_of_result is not None:
                old, new = groups[idx], group_of_result(result)
                for child in range(idx, len(groups)):
                    if groups[child] == old:
                        groups[child] = new
            return result

        traced.__wrapped__ = fn
        return traced

    # ------------------------------------------------------------------
    # Attribution.
    # ------------------------------------------------------------------

    def _arrays(self):
        n = len(self.start)
        if any(end == 0.0 for end in self.end):
            raise RuntimeError("attribution needs every span closed")
        start = np.frombuffer(self.start, dtype=np.float64, count=n)
        end = np.frombuffer(self.end, dtype=np.float64, count=n)
        parent = np.frombuffer(self.parent, dtype=np.int64, count=n)
        target = np.frombuffer(self.target, dtype=np.int64, count=n)
        return start, end, parent, target

    def attribute(self) -> Dict[str, Dict[str, float]]:
        """Per layer: ``self_s`` and ``spans``; the root's self time is
        reported as layer ``root``.  Per target: ``calls``."""
        start, end, parent, target = self._arrays()
        duration = end - start
        nested = parent >= 0
        covered = np.bincount(
            parent[nested], weights=duration[nested], minlength=len(duration)
        )
        self_time = duration - covered
        by_target_time = np.bincount(target, weights=self_time, minlength=len(self.targets))
        by_target_calls = np.bincount(target, minlength=len(self.targets))
        layers: Dict[str, Dict[str, float]] = {}
        calls: Dict[str, int] = {}
        for tid, (name, layer) in enumerate(self.targets):
            entry = layers.setdefault(layer, {"self_s": 0.0, "spans": 0})
            entry["self_s"] += float(by_target_time[tid])
            entry["spans"] += int(by_target_calls[tid])
            calls[name] = int(by_target_calls[tid])
        return {"layers": layers, "calls": calls}

    def root_seconds(self) -> float:
        roots = [i for i, p in enumerate(self.parent) if p == -1]
        return sum(self.end[i] - self.start[i] for i in roots)

    def dump(self, path: str) -> None:
        """Write every span (arrays) and the target table (JSON)."""
        start, end, parent, target = self._arrays()
        group = np.frombuffer(self.group, dtype=np.int64, count=len(self.group))
        np.savez_compressed(
            path,
            start=start,
            end=end,
            parent=parent,
            target=target,
            group=group,
            targets=np.array(json.dumps(self.targets)),
        )


# ----------------------------------------------------------------------
# Instrumenting the layers.
# ----------------------------------------------------------------------


def _public_methods(cls) -> List[str]:
    return [
        name
        for name, value in vars(cls).items()
        if not name.startswith("_") and inspect.isfunction(value)
    ]


def _all_subclasses(cls) -> List[type]:
    seen, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


def _epoch_of_last(args) -> int:
    return getattr(args[-1], "epoch", -1)


def _query_group(query_id) -> int:
    return -2 - query_id if isinstance(query_id, int) else -1


class Instrumentation:
    """Class-level wrappers around each layer's entry points.

    ``install()`` patches the classes; ``remove()`` restores them.
    Wrapping only adds timing around calls: the wrapped methods run in
    the same order with the same arguments, so virtual time, outputs
    and counts are unchanged (the runner checks that).
    """

    def __init__(self, recorder: SpanRecorder) -> None:
        self.recorder = recorder
        self._saved: List[Tuple[type, str, object]] = []

    def _patch(self, cls, name, layer, **grouping) -> None:
        original = vars(cls)[name]
        self._saved.append((cls, name, original))
        target = "%s.%s" % (cls.__name__, name)
        setattr(cls, name, self.recorder.wrap(original, target, layer, **grouping))

    def install(self) -> "Instrumentation":
        # Import every module that defines vertex classes, so the
        # subclass walk below finds them all.
        import repro.algorithms  # noqa: F401
        import repro.lib  # noqa: F401
        import repro.opt.fused  # noqa: F401
        from repro.core.progress import ProgressState
        from repro.core.vertex import Vertex
        from repro.runtime.async_checkpoint import AsyncCheckpointManager
        from repro.runtime.checkpoint import RecoveryManager
        from repro.runtime.cluster import _Worker
        from repro.runtime.protocol import CentralAccumulator, ProgressView, ProtocolNode
        from repro.runtime.supervisor import PhiAccrualDetector, Supervisor
        from repro.serve import SessionManager, SharedArrangement
        from repro.sim.des import Simulator
        from repro.sim.network import Network

        # sim.des: the dispatch loop; every scheduled callback becomes a
        # runtime.cluster span, so des self time excludes the callbacks.
        self._patch(Simulator, "run", "des")
        self._patch(Simulator, "step", "des")
        for name in ("schedule_at", "schedule_background"):
            self._wrap_scheduler(Simulator, name)

        for method in ("submit", "receive"):
            self._patch(ProtocolNode, method, "protocol")
        self._patch(CentralAccumulator, "accumulate", "protocol")

        for cls in [ProgressState] + _all_subclasses(ProgressState) + [ProgressView]:
            for method in _public_methods(cls):
                self._patch(cls, method, "progress")

        self._patch(Network, "send", "network")

        # A vertex body's send_by / notify_at enter the runtime through
        # the worker's harness interface: that part is cluster time.
        for method in ("send", "request_notification"):
            self._patch(_Worker, method, "cluster")
        for cls in [Vertex] + _all_subclasses(Vertex):
            for method in ("on_recv", "on_notify"):
                if method in vars(cls):
                    self._patch(cls, method, "vertex", group_of=_epoch_of_last)

        self._patch(SessionManager, "submit", "serve", group_of_result=_query_group)
        self._patch(SessionManager, "pump", "serve")
        for method in ("apply", "lookup", "compact"):
            self._patch(SharedArrangement, method, "serve")

        # The input journal and output dedup (journal_epoch, pump,
        # note_release) run on every workload as the input and output
        # path; only snapshot work counts as checkpoint time.
        for method in ("begin_checkpoint", "complete_checkpoint", "take_snapshot"):
            self._patch(RecoveryManager, method, "checkpoint")
        for method in ("request_cycle", "begin_cycle", "on_marker", "try_deferred_cut",
                       "snapshot_worker", "register_inflight", "on_delivery",
                       "filter_replayed"):
            self._patch(AsyncCheckpointManager, method, "checkpoint")
        self._patch(RecoveryManager, "fail_process", "recovery")
        self._patch(RecoveryManager, "rollback_to", "recovery")
        for method in ("partial_rollback", "note_global_restore", "abandon_cycle"):
            self._patch(AsyncCheckpointManager, method, "recovery")

        self._patch(PhiAccrualDetector, "heartbeat", "supervisor")
        self._patch(PhiAccrualDetector, "phi", "supervisor")
        for method in ("_send_heartbeat", "_on_heartbeat", "_check", "_suspect"):
            self._patch(Supervisor, method, "supervisor")
        return self

    def _wrap_scheduler(self, cls, name) -> None:
        original = vars(cls)[name]
        self._saved.append((cls, name, original))
        wrap = self.recorder.wrap

        def schedule(sim, when, callback):
            return original(sim, when, wrap(callback, "event", "cluster"))

        setattr(cls, name, schedule)

    def remove(self) -> None:
        while self._saved:
            cls, name, original = self._saved.pop()
            setattr(cls, name, original)

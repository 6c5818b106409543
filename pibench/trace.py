"""Span tracing from outside the program.

The benchmark wraps public functions of each layer (module attributes and
class methods) for the traced blocks of a run and unwraps them after, so
no tracing code lives in ``src/``.  Spans are kept in memory: name,
start, end, parent span and statement id, per thread.  A span's self
time is its duration minus the time its child spans cover.
"""

from __future__ import annotations

import contextlib
import itertools
import json
import os
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional

_NAME, _START, _END, _PARENT, _STMT, _THREAD, _PHASE = range(7)


class Tracer:
    """In-memory span recorder with install/uninstall of wrappers."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.counters: Dict[str, float] = defaultdict(float)
        self.phase = "setup"
        self._local = threading.local()
        self._stmt_ids = itertools.count(1)
        self._saved: List[tuple] = []

    # ------------------------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter(self, name: str) -> list:
        stack = self._stack()
        if stack:
            parent = stack[-1]
            stmt = self.spans[parent][_STMT]
        else:
            parent, stmt = -1, next(self._stmt_ids)
        span = [name, time.perf_counter_ns(), 0, parent, stmt, threading.get_ident(), self.phase]
        self.spans.append(span)
        stack.append(len(self.spans) - 1)
        return span

    def _exit(self, span: list) -> None:
        span[_END] = time.perf_counter_ns()
        self._stack().pop()

    @contextlib.contextmanager
    def span(self, name: str):
        s = self._enter(name)
        try:
            yield s
        finally:
            self._exit(s)

    def count(self, name: str, amount: float = 1.0) -> None:
        if self.phase == "run":
            self.counters[name] += amount

    # ------------------------------------------------------------------
    def wrap(
        self,
        owner,
        attr: str,
        name,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper.

        ``name`` is a span name or ``f(args, kwargs) -> name``;
        ``before(args, kwargs)`` may return state handed to
        ``after(args, kwargs, result, state)`` for counters.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            state = before(args, kwargs) if before is not None else None
            s = tracer._enter(label)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._exit(s)
            if after is not None:
                after(args, kwargs, result, state)
            return result

        wrapper.__wrapped__ = original
        setattr(owner, attr, wrapper)
        self._saved.append((owner, attr, original))

    def install(self) -> None:
        install_targets(self)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # ------------------------------------------------------------------
    def totals(self, phase: str) -> Dict[str, Dict[str, float]]:
        """Per span name: count, inclusive ns and self ns in ``phase``."""
        child_ns = defaultdict(int)
        for s in self.spans:
            if s[_PARENT] >= 0 and s[_END]:
                child_ns[s[_PARENT]] += s[_END] - s[_START]
        out: Dict[str, Dict[str, float]] = {}
        for i, s in enumerate(self.spans):
            if s[_PHASE] != phase or not s[_END]:
                continue
            dur = s[_END] - s[_START]
            t = out.setdefault(s[_NAME], {"count": 0, "incl_ns": 0, "self_ns": 0})
            t["count"] += 1
            t["incl_ns"] += dur
            t["self_ns"] += dur - child_ns[i]
        return out

    def durations_s(self, name: str, phase: str) -> List[float]:
        """Inclusive durations of every ``name`` span in ``phase``."""
        return [
            (s[_END] - s[_START]) / 1e9
            for s in self.spans
            if s[_NAME] == name and s[_PHASE] == phase and s[_END]
        ]

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            for i, s in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": i, "name": s[_NAME], "start_ns": s[_START], "end_ns": s[_END],
                    "parent": s[_PARENT], "stmt": s[_STMT], "thread": s[_THREAD],
                    "phase": s[_PHASE],
                }) + "\n")


class _NullTracer:
    """Stand-in for untraced runs: spans cost one call and record nothing."""

    phase = "setup"

    @contextlib.contextmanager
    def span(self, name: str):
        yield None

    def count(self, name: str, amount: float = 1.0) -> None:
        pass

    def install(self) -> None:
        pass

    def uninstall(self) -> None:
        pass


NULL_TRACER = _NullTracer()


# ----------------------------------------------------------------------
# what is wrapped: one span per layer boundary
# ----------------------------------------------------------------------
SORT_OPERATORS = ("Sort", "TopN", "MergeUnion")


def install_targets(tracer: Tracer) -> None:
    """Wrap the public entry points of each layer."""
    from repro.bitmap import sharded
    from repro.core import manager, patchindex
    from repro.engine import operators, parallel
    from repro.plan import executor, nodes, optimizer
    from repro.server import server
    from repro.sql import session
    from repro.storage import recovery, table, wal

    # sql: parse / bind / prepare / run
    tracer.wrap(session, "parse_statement", "sql.parse")
    tracer.wrap(server, "parse_statement", "sql.parse")
    tracer.wrap(session, "bind_statement", "sql.bind")

    def count_rewrite(args, kwargs, prepared, state):
        if prepared.kind == "read":
            tracer.count("plan.reads")
            if prepared.plan is not None and _has_node(prepared.plan, nodes.PatchScanNode):
                tracer.count("plan.rewritten_reads")

    tracer.wrap(session.SQLSession, "prepare_parsed", "sql.prepare", after=count_rewrite)
    tracer.wrap(session.SQLSession, "run_prepared", "sql.run")

    # plan: optimize / execute (lowering and glue; operators are engine)
    tracer.wrap(optimizer.Optimizer, "optimize", "plan.optimize")
    tracer.wrap(session, "execute_plan", "plan.execute")

    # engine: every physical operator, sorts apart, and morsel fan-out
    classes = [
        c for c in list(vars(operators).values()) + list(vars(executor).values())
        if isinstance(c, type) and issubclass(c, operators.Operator) and "execute" in vars(c)
    ]
    for cls in {c: None for c in classes}:
        is_sort = any(b.__name__ in SORT_OPERATORS for b in cls.__mro__)
        tracer.wrap(cls, "execute", "engine.sort" if is_sort else "engine.operator")
    tracer.wrap(parallel.ExecutionContext, "map", "engine.map")

    # core: patch masks, maintenance per event kind, rebuilds
    tracer.wrap(patchindex.PatchIndex, "patch_mask", "core.patch_mask")
    tracer.wrap(
        manager, "apply_update",
        lambda args, kwargs: "core.maintain_" + args[2].kind,
        before=lambda args, kwargs: args[0].num_patches,
        after=lambda args, kwargs, result, before: tracer.count(
            "core.patches_added", max(0, args[0].num_patches - before)
        ),
    )
    tracer.wrap(patchindex.PatchIndex, "rebuild", "core.rebuild")

    # bitmap
    tracer.wrap(sharded.ShardedBitmap, "set", "bitmap.set")
    tracer.wrap(sharded.ShardedBitmap, "set_many", "bitmap.set")
    tracer.wrap(sharded.ShardedBitmap, "bulk_delete", "bitmap.bulk_delete")
    tracer.wrap(sharded.ShardedBitmap, "condense", "bitmap.condense")

    # storage: table writes (hooks are child spans), WAL, checkpoints, recovery
    for attr in ("insert", "modify", "delete"):
        tracer.wrap(table.Table, attr, "storage.table_write")
    tracer.wrap(
        wal.WriteAheadLog, "append", "storage.wal_append",
        after=lambda args, kwargs, start, state: tracer.count(
            "storage.wal_bytes", args[0].offset - start
        ),
    )
    tracer.wrap(
        wal.DurabilityManager, "checkpoint", "storage.checkpoint",
        after=lambda args, kwargs, path, state: tracer.count(
            "storage.checkpoint_bytes", os.path.getsize(path)
        ),
    )
    tracer.wrap(wal, "restore_catalog", "storage.restore")
    tracer.wrap(recovery, "run_recovery", "storage.recovery")


def _has_node(plan, node_type) -> bool:
    if isinstance(plan, node_type):
        return True
    return any(_has_node(c, node_type) for c in plan.children())


# ----------------------------------------------------------------------
# per-layer metrics
# ----------------------------------------------------------------------
#: (metric, span, field): span time per statement of the traced blocks, in
#: ms.  Self time, except maintenance: ``apply_update`` is reported
#: whole, since the NUC collision join it runs is maintenance work (its
#: operators also count in ``engine.operator_ms``)
PER_OP_TIMES = [
    ("sql.parse_ms", "sql.parse", "self_ns"),
    ("sql.bind_ms", "sql.bind", "self_ns"),
    ("sql.prepare_ms", "sql.prepare", "self_ns"),
    ("plan.optimize_ms", "plan.optimize", "self_ns"),
    ("plan.execute_ms", "plan.execute", "self_ns"),
    ("engine.operator_ms", "engine.operator", "self_ns"),
    ("engine.sort_ms", "engine.sort", "self_ns"),
    ("engine.map_ms", "engine.map", "self_ns"),
    ("core.patch_mask_ms", "core.patch_mask", "self_ns"),
    ("core.maintain_insert_ms", "core.maintain_insert", "incl_ns"),
    ("core.maintain_modify_ms", "core.maintain_modify", "incl_ns"),
    ("core.maintain_delete_ms", "core.maintain_delete", "incl_ns"),
    ("bitmap.set_ms", "bitmap.set", "self_ns"),
    ("bitmap.bulk_delete_ms", "bitmap.bulk_delete", "self_ns"),
    ("bitmap.condense_ms", "bitmap.condense", "self_ns"),
    ("storage.table_write_ms", "storage.table_write", "self_ns"),
    ("storage.wal_append_ms", "storage.wal_append", "self_ns"),
    ("storage.checkpoint_ms", "storage.checkpoint", "self_ns"),
]
#: (metric, span): calls per statement of the traced blocks
PER_OP_COUNTS = [
    ("engine.map_calls", "engine.map"),
    ("core.rebuilds", "core.rebuild"),
    ("bitmap.condense_count", "bitmap.condense"),
    ("storage.checkpoint_count", "storage.checkpoint"),
]


def run_metrics(totals: Dict, counters: Dict, ops: int) -> Dict[str, tuple]:
    """Per-layer metrics of the traced blocks as ``name -> (value, unit)``."""
    ops = max(1, ops)
    out: Dict[str, tuple] = {}
    for metric, span, field in PER_OP_TIMES:
        out[metric] = (totals.get(span, {}).get(field, 0) / 1e6 / ops, "ms/op")
    for metric, span in PER_OP_COUNTS:
        out[metric] = (totals.get(span, {}).get("count", 0) / ops, "1/op")
    reads = counters.get("plan.reads", 0)
    out["plan.rewrite_frac"] = (
        counters.get("plan.rewritten_reads", 0) / reads if reads else 0.0, "frac"
    )
    out["core.patches_added"] = (counters.get("core.patches_added", 0) / ops, "1/op")
    appends = totals.get("storage.wal_append", {}).get("count", 0)
    out["storage.wal_bytes_per_write"] = (
        counters.get("storage.wal_bytes", 0) / appends if appends else 0.0, "B"
    )
    ckpts = totals.get("storage.checkpoint", {}).get("count", 0)
    out["storage.checkpoint_bytes"] = (
        counters.get("storage.checkpoint_bytes", 0) / ckpts if ckpts else 0.0, "B"
    )
    return out


def recover_metrics(totals: Dict, reopen_s: List[float]) -> Dict[str, tuple]:
    """Median reopen time, and checkpoint restore and WAL scan+replay
    time per reopen (all 0 without reopens)."""
    reopens = max(1, len(reopen_s))
    restore = totals.get("storage.restore", {}).get("incl_ns", 0)
    whole = totals.get("storage.recovery", {}).get("incl_ns", 0)
    ordered = sorted(reopen_s)
    return {
        "storage.recover_s": (ordered[len(ordered) // 2] if ordered else 0.0, "s"),
        "storage.restore_ms": (restore / 1e6 / reopens, "ms"),
        "storage.replay_ms": ((whole - restore) / 1e6 / reopens, "ms"),
    }

"""Outside-in tracing: wrap the layers' public callables at run time.

``TABLE`` names, per layer, the functions whose calls become spans; no
file under ``src/`` is edited. A span records its name, layer, start,
end, the span that caused it and the op it served; spans stay in memory
until the run ends. A layer's self time is its spans' running time minus
the running time of the spans they caused, so the layers' self times add
up to the traced wall time.

Per-page functions (``BufferPool.fetch``, ``DiskManager.read_page``,
``Schema.accepts``) are deliberately absent: a span around a call that
short measures the span. Their work shows up as exact counts instead
(pool hits/misses, clock snapshots).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

_PLAN_NODES = (
    "SeqScanPlan", "BTreeScanPlan", "HashLookupJoinPlan",
    "BuildHashJoinPlan", "ProjectPlan", "FilterPlan",
)

#: (layer, module, qualified name). A target that no longer exists is
#: skipped and counted in ``Tracer.missing``.
TABLE: tuple[tuple[str, str, str], ...] = (
    ("core", "repro.core.manager", "ProcedureManager.define_procedure"),
    ("core", "repro.core.manager", "ProcedureManager.access"),
    ("core", "repro.core.manager", "ProcedureManager.update"),
    ("shard", "repro.shard.engine", "ShardedStrategy.define"),
    ("shard", "repro.shard.engine", "ShardedStrategy.access"),
    ("shard", "repro.shard.engine", "ShardedStrategy.on_update"),
    ("shard", "repro.shard.router", "ShardRouter.route_values"),
    ("shard", "repro.shard.router", "ShardRouter.route_runs"),
    ("locks", "repro.locks.ilocks", "ILockTable.set_locks"),
    ("locks", "repro.locks.ilocks", "ILockTable.clear_locks"),
    ("locks", "repro.locks.ilocks", "ILockTable.conflicting_procedures"),
    ("locks", "repro.locks.ilocks",
     "ILockTable.conflicting_procedures_batch"),
    ("locks", "repro.locks.ilocks",
     "ILockTable.conflicting_procedures_swept"),
    ("rete", "repro.rete.network", "ReteNetwork.add_procedure"),
    ("rete", "repro.rete.network", "ReteNetwork.apply_update"),
    ("rete", "repro.rete.network", "ReteNetwork.apply_update_batch"),
    ("rete", "repro.rete.network", "ReteNetwork.read_result"),
    ("query", "repro.query.executor", "execute_plan"),
    # Always Recompute runs its stored plan without execute_plan, so the
    # operators themselves are spans too; nested ones net out as children.
    *(("query", "repro.query.plan", f"{node}.execute")
      for node in _PLAN_NODES),
    ("storage", "repro.storage.catalog", "Relation.insert"),
    ("storage", "repro.storage.catalog", "Relation.delete"),
    ("storage", "repro.storage.catalog", "Relation.update"),
    ("storage", "repro.storage.catalog", "Relation.update_clustered"),
    ("storage", "repro.storage.catalog", "Relation.read"),
    ("storage", "repro.storage.catalog", "Relation.fetch_batched"),
    ("storage", "repro.storage.matstore", "MaterializedStore.apply_delta"),
    ("storage", "repro.storage.matstore", "MaterializedStore.refresh"),
    ("storage", "repro.storage.matstore", "MaterializedStore.read_all"),
    ("storage", "repro.storage.matstore", "MaterializedStore.probe_many"),
    ("storage", "repro.storage.heap", "HeapFile.read"),
    ("serve", "repro.serve.cache", "ResultCache.get_or_compute"),
    ("serve", "repro.serve.cache", "ResultCache.on_update"),
    ("serve", "repro.serve.app", "ProcedureApp.handle"),
    ("concurrent", "repro.concurrent.admission", "AdmissionGate.try_admit"),
    ("concurrent", "repro.concurrent.admission", "AdmissionGate.release"),
)

#: ``Tracer.op_id`` while no op is running (set-up, oracle).
NO_OP = -1

_ABSENT = object()


class _Awaitable:
    """Lets a coroutine ``await`` a plain iterator of its steps."""

    __slots__ = ("_steps",)

    def __init__(self, steps: Iterator) -> None:
        self._steps = steps

    def __await__(self) -> Iterator:
        return self._steps


@dataclass
class Busy:
    """Running time (children included) and calls of one target."""

    seconds: float = 0.0
    calls: int = 0


@dataclass
class TraceSummary:
    """What the harness reads off a finished trace. Timed spans are the
    ones that served an op; set-up spans ran before the first op."""

    self_s: dict[str, float] = field(default_factory=dict)
    first_pass_calls: dict[str, int] = field(default_factory=dict)
    busy: dict[str, Busy] = field(default_factory=dict)
    setup_busy: dict[str, Busy] = field(default_factory=dict)
    #: Plan executions not nested in another query-layer span.
    root_plans: Busy = field(default_factory=Busy)
    first_pass_root_plans: int = 0


class Tracer:
    """Installs the wrappers, collects spans, removes the wrappers."""

    def __init__(
        self, table: tuple[tuple[str, str, str], ...] = TABLE
    ) -> None:
        self.table = table
        #: The op being served; the harness sets it before each op.
        self.op_id = NO_OP
        #: (id, parent id, op, target index, start, end, busy s, self s)
        self.spans: list[tuple] = []
        #: (layer, name) per target index.
        self.targets: list[tuple[str, str]] = []
        self.missing = 0
        self._stack: list[list] = []  # open spans: [id, children's busy s]
        self._next_id = 1
        self._class_patches: list[tuple[type, str, object]] = []
        self._function_patches: list[tuple[str, str, Callable, Callable]] = []

    # -- wrapping ------------------------------------------------------------

    def wrap(self, layer: str, name: str, fn: Callable) -> Callable:
        """``fn`` with every call recorded as a span of ``layer``.

        A plain function is timed from call to return. A generator or
        coroutine function is timed over the slices in which it actually
        runs — creation is free and time spent suspended belongs to
        whoever ran meanwhile.
        """
        index = len(self.targets)
        self.targets.append((layer, name))
        if inspect.iscoroutinefunction(fn):

            @functools.wraps(fn)
            async def coroutine_wrapper(*args, **kwargs):
                steps = fn(*args, **kwargs).__await__()
                return await _Awaitable(self._run_sliced(steps, index))

            return coroutine_wrapper
        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def generator_wrapper(*args, **kwargs):
                return self._run_sliced(fn(*args, **kwargs), index)

            return generator_wrapper

        stack, spans, clock = self._stack, self.spans, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1] if stack else None
            op_id = self.op_id
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                busy = end - start
                if parent is not None:
                    parent[1] += busy
                spans.append((
                    span_id, parent[0] if parent is not None else 0,
                    op_id, index, start, end, busy, busy - frame[1],
                ))

        return wrapper

    def _run_sliced(self, steps: Iterator, index: int) -> Iterator:
        """Drive ``steps`` (a generator, or a coroutine's iterator) as
        one span whose running time is the sum of its slices."""
        stack, clock = self._stack, time.perf_counter
        span_id = self._next_id
        self._next_id = span_id + 1
        parent_id = stack[-1][0] if stack else 0
        op_id = self.op_id
        frame = [span_id, 0.0]
        busy = 0.0
        first = end = clock()
        step, arg = steps.send, None
        try:
            while True:
                self.op_id = op_id
                stack.append(frame)
                start = clock()
                try:
                    yielded = step(arg)
                except StopIteration as stop:
                    return stop.value
                finally:
                    end = clock()
                    stack.pop()
                    busy += end - start
                    if stack:
                        stack[-1][1] += end - start
                try:
                    arg = yield yielded
                    step = steps.send
                except BaseException as exc:  # forwarded: close, cancel
                    arg, step = exc, steps.throw
        finally:
            self.spans.append((
                span_id, parent_id, op_id, index, first, end, busy,
                busy - frame[1],
            ))

    # -- install / uninstall ---------------------------------------------------

    def install(self) -> None:
        for layer, module_name, qualname in self.table:
            owner_name, _, attr = qualname.rpartition(".")
            try:
                module = importlib.import_module(module_name)
                owner = getattr(module, owner_name) if owner_name else module
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing += 1
                continue
            if not inspect.isfunction(original):
                self.missing += 1
                continue
            wrapper = self.wrap(layer, qualname, original)
            if owner_name:
                # getattr found it, possibly on a base class; the patch
                # goes on the named class only.
                previous = vars(owner).get(attr, _ABSENT)
                self._class_patches.append((owner, attr, previous))
                setattr(owner, attr, wrapper)
            else:
                # `from m import f` gives every importer its own binding.
                package = module_name.partition(".")[0]
                self._function_patches.append(
                    (package, attr, original, wrapper)
                )
                _rebind(package, attr, original, wrapper)

    def uninstall(self) -> None:
        for owner, attr, previous in reversed(self._class_patches):
            if previous is _ABSENT:
                delattr(owner, attr)
            else:
                setattr(owner, attr, previous)
        self._class_patches.clear()
        for package, attr, original, wrapper in self._function_patches:
            # Also catches modules first imported while tracing.
            _rebind(package, attr, wrapper, original)
        self._function_patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc_info) -> None:
        self.uninstall()

    # -- reading the trace -------------------------------------------------------

    def summarize(self, first_pass_ops: int) -> TraceSummary:
        summary = TraceSummary()
        layer_of = [layer for layer, _name in self.targets]
        span_layer = {span[0]: layer_of[span[3]] for span in self.spans}
        for span_id, parent, op, index, _s, _e, busy, self_s in self.spans:
            layer, name = self.targets[index]
            if op == NO_OP:
                target = summary.setup_busy.setdefault(name, Busy())
                target.seconds += busy
                target.calls += 1
                continue
            first_pass = op < first_pass_ops
            summary.self_s[layer] = summary.self_s.get(layer, 0.0) + self_s
            target = summary.busy.setdefault(name, Busy())
            target.seconds += busy
            target.calls += 1
            if first_pass:
                summary.first_pass_calls[layer] = (
                    summary.first_pass_calls.get(layer, 0) + 1
                )
            if layer == "query" and span_layer.get(parent) != "query":
                summary.root_plans.seconds += busy
                summary.root_plans.calls += 1
                summary.first_pass_root_plans += first_pass
        return summary

    def write_jsonl(self, path: str) -> None:
        """One span per line, times in ms from the first span's start."""
        epoch = min((span[4] for span in self.spans), default=0.0)
        with open(path, "w") as out:
            for span_id, parent, op, index, start, end, busy, self_s in (
                self.spans
            ):
                layer, name = self.targets[index]
                out.write(json.dumps({
                    "id": span_id, "parent": parent, "op": op,
                    "layer": layer, "name": name,
                    "start_ms": (start - epoch) * 1e3,
                    "end_ms": (end - epoch) * 1e3,
                    "busy_ms": busy * 1e3, "self_ms": self_s * 1e3,
                }) + "\n")


def _rebind(package: str, attr: str, old: Callable, new: Callable) -> None:
    """Point every ``package`` module's ``attr`` that is ``old`` at ``new``."""
    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] != package or module is None:
            continue
        if vars(module).get(attr) is old:
            setattr(module, attr, new)

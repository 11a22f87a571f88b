"""Span tracer for the benchmark's traced run.

The tracer never edits the program: for the length of one traced pass it
replaces public callables of each layer with timing wrappers, at class
level (or, for a function another module imported by name, at module
level), and puts the originals back afterwards, checking that every
patched attribute holds its original again.

Two kinds of span are recorded:

* *stored spans* -- one tuple per call (operation id, span id, parent id,
  name, start, end, time covered by children) for the coarse layer
  boundaries: an operation, ``SynchronousSimulator.run``, the spectral
  set-up of an election, archive fetch/add, checkpoint store calls and
  the engine call inside a query;
* *leaf spans* -- per-node ``step`` and ``quiescent_until``, adversary
  hooks, ``MetricsCollector.record_*`` and the cell fold run hundreds of
  thousands of times per second, so they are folded into a count and a
  total per name instead of being stored one by one.  Their durations
  still count as covered time of the enclosing stored span, so self
  times stay exact.

A leaf called while another leaf is running (a composed adversary calling
its parts, a node delegating to a parent class's ``step``) is not timed
again: the outer leaf already covers it.  All spans are kept in memory
and summarised when the pass ends.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager
from typing import Callable, Dict, Iterator, List, Optional, Tuple

#: Names of the patch groups: a pooled sweep installs only the groups
#: whose calls run in the parent process (wrappers inherited by pool
#: workers would slow the workers without reporting back).
ALL_GROUPS = ("graphs", "election", "core", "dynamics", "parallel", "streaming", "archive")
PARENT_GROUPS = ("parallel", "streaming", "archive")

_ADVERSARY_HOOKS = ("begin_round", "node_active", "node_crashed", "on_message")

#: A stored span: (op id, span id, parent span id, name, start, end, covered)
Span = Tuple[int, int, int, str, float, float, float]


def _subclasses(root: type) -> List[type]:
    """``root`` and every class derived from it, each once, in a fixed order."""
    seen: Dict[type, None] = {root: None}
    queue = [root]
    while queue:
        for sub in queue.pop(0).__subclasses__():
            if sub not in seen:
                seen[sub] = None
                queue.append(sub)
    return sorted(seen, key=lambda cls: (cls.__module__, cls.__qualname__))


class Tracer:
    """Records spans and counters while its patches are installed."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        #: leaf name -> [calls, seconds]
        self.leaves: Dict[str, List[float]] = {}
        self.counters: Dict[str, float] = {}
        #: self-check failures: wrapper counts that disagree with the
        #: program's own counters
        self.problems: List[str] = []
        self._stack: List[list] = []
        self._next_span = 0
        self._op = 0
        self._leaf_active = False
        self._patches: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------------ #
    # spans
    # ------------------------------------------------------------------ #
    def _open(self, name: str) -> list:
        self._next_span += 1
        frame = [self._next_span, name, time.perf_counter(), 0.0]
        self._stack.append(frame)
        return frame

    def _close(self, frame: list) -> None:
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, covered = frame
        parent = self._stack[-1] if self._stack else None
        self.spans.append(
            (self._op, span_id, parent[0] if parent else 0, name, start, end, covered)
        )
        if parent is not None:
            parent[3] += end - start

    @contextmanager
    def operation(self, name: str) -> Iterator[None]:
        """One closed-loop operation: a root span with a fresh operation id."""
        self._op += 1
        frame = self._open(name)
        try:
            yield
        finally:
            self._close(frame)

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    # ------------------------------------------------------------------ #
    # wrappers
    # ------------------------------------------------------------------ #
    def _span_wrapper(self, name: str, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = tracer._open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._close(frame)

        return wrapper

    def _leaf_wrapper(
        self,
        name: str,
        fn: Callable,
        observe: Optional[Callable[[tuple, dict, object], None]] = None,
    ) -> Callable:
        tracer = self
        stat = self.leaves.setdefault(name, [0, 0.0])
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if tracer._leaf_active:
                return fn(*args, **kwargs)
            tracer._leaf_active = True
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                tracer._leaf_active = False
                stat[0] += 1
                stat[1] += elapsed
                if stack:
                    stack[-1][3] += elapsed
            if observe is not None:
                observe(args, kwargs, result)
            return result

        return wrapper

    def _observe_step(self, args, kwargs, outbox) -> None:
        sent = len(outbox) if outbox else 0
        counters = self.counters
        counters["step.outbox"] = counters.get("step.outbox", 0) + sent
        if not sent:
            counters["step.silent"] = counters.get("step.silent", 0) + 1

    def _observe_round(self, args, kwargs, _result) -> None:
        # The simulator calls ``record_round()`` once per executed round
        # and ``record_round(jump)`` once per fast-forward.
        if len(args) > 1 or kwargs:
            jump = args[1] if len(args) > 1 else kwargs["count"]
            self.count("rounds.fast_forwarded", jump)
        else:
            self.count("rounds.executed")

    def _simulator_run_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(sim, *args, **kwargs):
            metrics = sim.metrics
            counters = tracer.counters
            before = (
                metrics.sent_messages,
                metrics.delivered_messages,
                metrics.dropped_messages,
                sim.pending_delayed(),
                metrics.rounds,
                counters.get("rounds.executed", 0),
                counters.get("rounds.fast_forwarded", 0),
                counters.get("step.outbox", 0),
            )
            frame = tracer._open("simulator.run")
            try:
                return fn(sim, *args, **kwargs)
            finally:
                tracer._close(frame)
                tracer._after_simulator_run(sim, before)

        return wrapper

    def _after_simulator_run(self, sim, before) -> None:
        metrics = sim.metrics
        counters = self.counters
        sent, delivered, dropped = (
            metrics.sent_messages,
            metrics.delivered_messages,
            metrics.dropped_messages,
        )
        pending = sim.pending_delayed()
        executed = counters.get("rounds.executed", 0) - before[5]
        skipped = counters.get("rounds.fast_forwarded", 0) - before[6]
        outbox = counters.get("step.outbox", 0) - before[7]
        self.count("simulator.runs")
        self.count("messages.sent", sent - before[0])
        self.count("messages.delivered", delivered - before[1])
        self.count("messages.dropped", dropped - before[2])
        self.count("messages.pending", pending - before[3])
        self.count("simulator.node_rounds", executed * sim.topology.num_nodes)
        if executed + skipped != metrics.rounds - before[4]:
            self.problems.append(
                f"simulator.rounds {executed + skipped} != MetricsCollector.rounds "
                f"delta {metrics.rounds - before[4]}"
            )
        if sim.adversary is None and outbox != sent - before[0]:
            self.problems.append(
                f"step outboxes sum to {outbox} but messages.sent grew by "
                f"{sent - before[0]} on a run without an adversary"
            )
        if sent != delivered + dropped + pending:
            self.problems.append(
                f"conservation: sent {sent} != delivered {delivered} + "
                f"dropped {dropped} + pending {pending}"
            )

    def _archive_fetch_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(archive, keys):
            frame = tracer._open("archive.fetch")
            try:
                hits = fn(archive, keys)
            finally:
                tracer._close(frame)
            tracer.count("archive.fetch_rows", len(hits))
            return hits

        return wrapper

    def _archive_add_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(archive, records):
            frame = tracer._open("archive.add")
            try:
                added = fn(archive, records)
            finally:
                tracer._close(frame)
            tracer.count("archive.add_rows", len(records))
            tracer.count("archive.added", added)
            return added

        return wrapper

    def _store_flush_wrapper(self, fn: Callable) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(store):
            size = store.path.stat().st_size if store.path.exists() else 0
            frame = tracer._open("store.flush")
            try:
                return fn(store)
            finally:
                tracer._close(frame)
                grown = (store.path.stat().st_size if store.path.exists() else 0) - size
                # Attribute the bytes to the nearest caller outside the
                # store (a flush may run inside ``store.add``).
                context = next(
                    (f[1] for f in reversed(tracer._stack) if not f[1].startswith("store.")),
                    "",
                )
                tracer.count(f"store.bytes@{context}", max(0, grown))

        return wrapper

    # ------------------------------------------------------------------ #
    # install / restore
    # ------------------------------------------------------------------ #
    def _patch(self, owner, attr: str, wrapped) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapped)

    def _patch_method(self, cls: type, attr: str, make: Callable[[Callable], Callable]) -> None:
        if attr in cls.__dict__:
            self._patch(cls, attr, make(cls.__dict__[attr]))

    def install(self, groups=ALL_GROUPS) -> None:
        """Wrap the public entry points of ``groups`` (see module doc)."""
        import repro.archive.query as archive_query
        import repro.baselines  # noqa: F401  (registers every node class)
        import repro.dynamics  # noqa: F401  (registers every adversary class)
        import repro.election  # noqa: F401
        from repro.analysis.streaming import CellAggregatingSink
        from repro.archive.store import ResultArchive
        from repro.core.faults import FaultAdversary
        from repro.core.metrics import MetricsCollector
        from repro.core.node import ProtocolNode
        from repro.core.simulator import SynchronousSimulator
        from repro.election.irrevocable import IrrevocableConfig
        from repro.parallel.store import JsonlCheckpointStore

        if self._patches:
            raise RuntimeError("tracer already installed")
        if "graphs" in groups:
            original = IrrevocableConfig.__dict__["from_topology"].__func__
            self._patch(
                IrrevocableConfig,
                "from_topology",
                classmethod(self._span_wrapper("graphs.tmix", original)),
            )
        if "election" in groups:
            for cls in _subclasses(ProtocolNode):
                self._patch_method(
                    cls, "step", lambda fn: self._leaf_wrapper("election.step", fn, self._observe_step)
                )
                self._patch_method(
                    cls, "quiescent_until", lambda fn: self._leaf_wrapper("election.quiescent", fn)
                )
        if "core" in groups:
            self._patch_method(SynchronousSimulator, "run", self._simulator_run_wrapper)
            for attr in sorted(MetricsCollector.__dict__):
                if attr.startswith("record_"):
                    observe = self._observe_round if attr == "record_round" else None
                    self._patch_method(
                        MetricsCollector,
                        attr,
                        lambda fn, observe=observe: self._leaf_wrapper("metrics.record", fn, observe),
                    )
        if "dynamics" in groups:
            for cls in _subclasses(FaultAdversary):
                for hook in _ADVERSARY_HOOKS:
                    self._patch_method(
                        cls, hook, lambda fn: self._leaf_wrapper("dynamics.hook", fn)
                    )
        if "parallel" in groups:
            for attr in ("add", "load"):
                self._patch_method(
                    JsonlCheckpointStore, attr, lambda fn, attr=attr: self._span_wrapper(f"store.{attr}", fn)
                )
            self._patch_method(JsonlCheckpointStore, "flush", self._store_flush_wrapper)
        if "streaming" in groups:
            self._patch_method(
                CellAggregatingSink, "emit", lambda fn: self._leaf_wrapper("streaming.fold", fn)
            )
        if "archive" in groups:
            self._patch_method(ResultArchive, "fetch", self._archive_fetch_wrapper)
            self._patch_method(ResultArchive, "add_records", self._archive_add_wrapper)
            # query.py imported run_experiments by name: patch its binding.
            self._patch(
                archive_query,
                "run_experiments",
                self._span_wrapper("archive.engine", archive_query.run_experiments),
            )

    def uninstall(self) -> None:
        """Put every original attribute back, newest patch first.

        Raises if any attribute does not hold its original afterwards, so
        a traced pass can never leak wrappers into later timings.
        """
        restored = []
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
            restored.append((owner, attr, original))
        leaked = [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in restored
            if owner.__dict__.get(attr) is not original
        ]
        if leaked:
            raise RuntimeError("tracer left wrapped: " + ", ".join(leaked))

    @contextmanager
    def installed(self, groups=ALL_GROUPS) -> Iterator["Tracer"]:
        self.install(groups)
        try:
            yield self
        finally:
            self.uninstall()

    # ------------------------------------------------------------------ #
    # queries over the recorded spans
    # ------------------------------------------------------------------ #
    def leaf(self, name: str) -> Tuple[int, float]:
        calls, seconds = self.leaves.get(name, (0, 0.0))
        return int(calls), float(seconds)

    def total(self, name: str) -> float:
        """Summed duration of every stored span called ``name``."""
        return sum(end - start for _, _, _, span, start, end, _ in self.spans if span == name)

    def self_time(self, name: str) -> float:
        """Summed self time (duration minus covered) of spans called ``name``."""
        return sum(
            end - start - covered
            for _, _, _, span, start, end, covered in self.spans
            if span == name
        )

    def children_of(self, parent_prefix: str) -> List[Tuple[Span, Span]]:
        """(parent, child) pairs for stored spans whose parent name starts with the prefix."""
        by_id = {span[1]: span for span in self.spans}
        pairs = []
        for span in self.spans:
            parent = by_id.get(span[2])
            if parent is not None and parent[3].startswith(parent_prefix):
                pairs.append((parent, span))
        return pairs

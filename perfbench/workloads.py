"""The benchmark's four workloads, driven through ``repro.api`` only.

Every workload is a closed loop with one client: the next operation
starts only when the previous one has returned.  All inputs (topology
seeds, election seeds, query grid order, fill seeds) derive from the
workload seed; the program receives only the generated inputs.

Each operation checks its own output and returns an :class:`Outcome`;
a failed check is counted, never raised, so one bad answer shows in
``failed`` instead of hiding the rest of the run.
"""

from __future__ import annotations

import random
import shutil
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro import api
from repro.analysis.streaming import ResultSink
from repro.dynamics import robustness_specs
from repro.dynamics.spec import AdversarySpec
from repro.election import safety_violations
from repro.graphs import generators
from repro.obs import TelemetrySink
from repro.workloads import mixed_suite, sweep_specs

#: The pool size of the traced run's pooled ``sweep-faults`` pass; every
#: timed operation runs in-process.
SWEEP_WORKERS = 2


@dataclass
class Outcome:
    """What one closed-loop operation did and whether its output checked out."""

    kind: str
    seconds: float
    #: election runs completed (or, for a query, answered)
    runs: int
    #: operations for ``fail_frac``: elections, sweep tasks or queries
    attempted: int
    failed: int = 0
    #: latencies of single elections measured inside the operation
    run_seconds: List[float] = field(default_factory=list)
    problems: List[str] = field(default_factory=list)
    #: per-operation extras (telemetry summaries, query reports)
    info: Dict[str, object] = field(default_factory=dict)
    #: factor to the reference machine speed, set by the run loop
    scale: float = 1.0


def conservation_problem(metrics, pending: Optional[int]) -> Optional[str]:
    """Check ``sent == delivered + dropped + pending`` on one run's metrics.

    ``pending`` is the simulator's delayed-message queue when known.  A
    result does not carry it, so with ``pending=None`` the check bounds it
    instead: the queue holds only delayed messages, so
    ``0 <= sent - delivered - dropped <= delayed``.
    """
    gap = metrics.sent_messages - metrics.delivered_messages - metrics.dropped_messages
    if pending is not None:
        ok = gap == pending
    else:
        ok = 0 <= gap <= metrics.delayed_messages
    if ok:
        return None
    return (
        f"conservation: sent {metrics.sent_messages} != delivered "
        f"{metrics.delivered_messages} + dropped {metrics.dropped_messages} "
        f"+ pending ({'bounded by delayed ' + str(metrics.delayed_messages) if pending is None else pending})"
    )


def _cells(results) -> Dict[Tuple[str, str], Dict[str, object]]:
    """Cells keyed by (experiment, topology), wall-clock columns dropped."""
    return {
        (result.name, cell.topology_name): {
            key: value
            for key, value in cell.as_dict().items()
            if "wall_clock" not in key
        }
        for result in results
        for cell in result.cells
    }


class _RunSink(ResultSink):
    """Checks every run the engine folds and keeps its measured latency."""

    def __init__(self, *, baseline=lambda name: False, keep=lambda seed_index: True) -> None:
        self.runs = 0
        self.bad_runs = 0
        self.problems: List[str] = []
        self.run_seconds: List[float] = []
        self._baseline = baseline
        self._keep = keep

    def emit(self, spec_name, topology_index, seed_index, result, wall_clock_seconds):
        self.runs += 1
        problems = []
        if self._baseline(spec_name) and safety_violations([result]):
            problems.append(f"{spec_name}/{result.topology_name}: baseline safety violation")
        problem = conservation_problem(result.metrics, None)
        if problem is not None:
            problems.append(f"{spec_name}/{result.topology_name}: {problem}")
        if problems:
            self.bad_runs += 1
            self.problems.extend(problems)
        if self._keep(seed_index):
            self.run_seconds.append(wall_clock_seconds)


class Workload:
    """Base class: seeded inputs, a timed set-up and one operation kind."""

    name = ""
    #: operations per cycle; a run stops only on a cycle boundary, so
    #: every run holds the same mix
    cycle = 1
    #: timed set-ups per run; ``setup_s`` is their median
    setup_repeats = 9
    #: set-ups run back to back inside one timing (its time is divided
    #: by this), so that a set-up of a millisecond is timed steadily
    setup_batch = 40

    def __init__(self, seed: int, work: Path) -> None:
        self.seed = seed
        self.work = work

    def setup(self) -> None:
        raise NotImplementedError

    def plan(self):
        """An endless, seed-determined stream of operation inputs."""
        raise NotImplementedError

    def execute(self, op, tracer=None) -> Outcome:
        raise NotImplementedError

    @staticmethod
    def _operation(tracer, name: str):
        return tracer.operation(name) if tracer is not None else nullcontext()


class Election(Workload):
    """One ``api.run`` per operation, cycling through fixed topologies."""

    protocol = ""
    cycle = 3

    def topologies(self, rng: random.Random):
        raise NotImplementedError

    def setup(self) -> None:
        self.graphs = self.topologies(random.Random(f"{self.name}/{self.seed}/topologies"))
        self.cycle = len(self.graphs)

    def plan(self):
        rng = random.Random(f"{self.name}/{self.seed}/elections")
        while True:
            for index in range(len(self.graphs)):
                yield index, rng.randrange(2**31)

    def execute(self, op, tracer=None) -> Outcome:
        index, seed = op
        with self._operation(tracer, "op.election"):
            start = time.perf_counter()
            result = api.run(self.protocol, self.graphs[index], seed=seed)
            seconds = time.perf_counter() - start
        problems = [
            f"{bad.topology_name} seed {seed}: safety violation ({bad.outcome.num_leaders} leaders)"
            for bad in safety_violations([result])
        ]
        # Without an adversary nothing is ever delayed: pending is 0.
        problem = conservation_problem(result.metrics, 0)
        if problem is not None:
            problems.append(f"{result.topology_name} seed {seed}: {problem}")
        return Outcome(
            "election",
            seconds,
            runs=1,
            attempted=1,
            failed=1 if problems else 0,
            run_seconds=[seconds],
            problems=problems,
            info={"elected": result.success},
        )


class ElectKnownN(Election):
    """Irrevocable (known-n) elections: quiescence and fast-forward heavy."""

    name = "elect-known-n"
    protocol = "irrevocable"

    def topologies(self, rng):
        # Small enough that one run holds dozens of elections: an
        # election's cost varies about 3x with the number of candidates.
        return [
            generators.random_regular(48, 8, seed=rng.randrange(2**31)),
            generators.torus_2d(6, 6),
            generators.cycle(24),
        ]


class ElectUnknownN(Election):
    """Revocable (unknown-n) elections: every node steps and sends every round."""

    name = "elect-unknown-n"
    protocol = "revocable"

    def topologies(self, rng):
        # Near-equal cost, so the median latency rests on every sample.
        return [generators.complete(4), generators.path(3), generators.cycle(4)]


def fault_ladder() -> List[Optional[AdversarySpec]]:
    """Baseline plus one rung each shaped like the lossy, laggy and crashy scenarios."""
    return [
        None,
        AdversarySpec.create("loss", p=0.05),
        AdversarySpec.create("delay", p=0.1, max_delay=2),
        AdversarySpec.create("crash", p=0.1, horizon=3),
    ]


class SweepFaults(Workload):
    """One in-process ``api.sweep`` per operation over an adversary ladder.

    Each sweep covers one ``mixed_suite`` topology, so a cycle of six
    sweeps covers the whole grid.  Timed sweeps run with ``workers=1``:
    pooled sweeps on the 2-CPU reference VM spread up to 0.25 over ten
    seeds and shifted 23-30% between two sets of runs, and the reference
    kernel timed around them did not track them (see README).  The
    traced run adds one pooled sweep for the pool's own metrics.
    """

    name = "sweep-faults"
    algorithms = ("flooding", "irrevocable")
    #: sweeps per cycle, each over its own slice of the topologies
    parts = 6
    cycle = parts
    #: election seeds per sweep
    seeds_per_sweep = 1

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}/topologies")
        self.graphs = mixed_suite(seed=rng.randrange(2**31))
        self.ladder = fault_ladder()
        self.sweep_dir = self.work / "sweeps"
        shutil.rmtree(self.sweep_dir, ignore_errors=True)
        self.sweep_dir.mkdir(parents=True)
        self._sweeps = 0

    def plan(self):
        rng = random.Random(f"{self.name}/{self.seed}/elections")
        while True:
            for part in range(self.parts):
                yield part, tuple(rng.randrange(2**31) for _ in range(self.seeds_per_sweep))

    def pooled_op(self):
        """One sweep over the whole grid, for the traced run's pooled pass."""
        rng = random.Random(f"{self.name}/{self.seed}/pooled")
        return None, tuple(rng.randrange(2**31) for _ in range(self.seeds_per_sweep))

    def specs(self, part: Optional[int], seeds: Sequence[int]):
        graphs = self.graphs
        if part is not None:
            size = len(graphs) // self.parts
            graphs = graphs[part * size:(part + 1) * size]
        return robustness_specs(list(self.algorithms), graphs, self.ladder, seeds=tuple(seeds))

    @property
    def adversarial_share(self) -> float:
        return sum(spec is not None for spec in self.ladder) / len(self.ladder)

    def execute(self, op, tracer=None, *, workers: int = 1) -> Outcome:
        part, seeds = op
        specs = self.specs(part, seeds)
        self._sweeps += 1
        checkpoint = self.sweep_dir / f"sweep-{self._sweeps}.jsonl"
        telemetry = (
            TelemetrySink(self.sweep_dir / f"telemetry-{self._sweeps}.jsonl")
            if tracer is not None
            else None
        )
        config = api.SweepConfig(workers=workers, checkpoint=checkpoint, telemetry=telemetry)
        sink = _RunSink(baseline=lambda name: "@" not in name)
        expected = sum(len(spec.topologies) * len(spec.seeds) for spec in specs)
        with self._operation(tracer, "op.sweep"):
            start = time.perf_counter()
            results = api.sweep(specs, config=config, sinks=[sink])
            seconds = time.perf_counter() - start
        problems = list(sink.problems)
        missing = 0
        for result in results:
            for cell in result.cells:
                if cell.runs != len(seeds):
                    missing += abs(len(seeds) - cell.runs)
                    problems.append(
                        f"{result.name}/{cell.topology_name}: folded {cell.runs} of {len(seeds)} seeds"
                    )
        if sink.runs != expected:
            problems.append(f"sweep folded {sink.runs} runs, expected {expected}")
            missing = max(missing, abs(expected - sink.runs))
        info: Dict[str, object] = {"checkpoint_bytes": checkpoint.stat().st_size}
        if telemetry is not None:
            info["telemetry"] = telemetry.summary()
        checkpoint.unlink()
        return Outcome(
            "sweep" if part is None else f"sweep-part-{part}",
            seconds,
            runs=sink.runs,
            attempted=expected,
            failed=min(expected, sink.bad_runs + missing),
            run_seconds=sink.run_seconds,
            problems=problems,
            info=info,
        )


class QueryArchive(Workload):
    """Hit and fill queries against an archive filled during set-up."""

    name = "query-archive"
    variants = ("flooding", "flooding:c=3")
    #: seed windows archived at set-up; a hit query reads one whole window
    windows = 2
    seeds_per_window = 20
    #: The loop alternates: a client re-reads an archived window, then
    #: extends a window by one seed.  The two kinds cost about the same
    #: (hit 0.14 s, fill 0.12 s on the 2-CPU reference VM), so each holds
    #: about half the query time, and ``op_s.p50`` averages their medians.
    pattern = ("hit", "fill")
    cycle = len(pattern)
    setup_repeats = 3
    setup_batch = 1

    def setup(self) -> None:
        rng = random.Random(f"{self.name}/{self.seed}/inputs")
        self.graphs = mixed_suite(seed=rng.randrange(2**31))
        drawn = rng.sample(range(2**31), self.windows * self.seeds_per_window)
        self.window_seeds = [
            tuple(drawn[i * self.seeds_per_window:(i + 1) * self.seeds_per_window])
            for i in range(self.windows)
        ]
        self.archive = self.work / "archive.sqlite"
        self.archive.unlink(missing_ok=True)
        self.reference = []
        self.setup_problems: List[str] = []
        for seeds in self.window_seeds:
            answer = api.query(self.hit_specs(seeds), archive=self.archive)
            if answer.report.simulated_runs != answer.report.requested_runs:
                self.setup_problems.append(
                    f"set-up query simulated {answer.report.simulated_runs} of "
                    f"{answer.report.requested_runs} runs on a fresh archive"
                )
            self.reference.append(_cells(answer.results))
        self._fill_rng = random.Random(f"{self.name}/{self.seed}/fills")
        self._used = set(drawn)

    def hit_specs(self, seeds):
        return sweep_specs(list(self.variants), self.graphs, seeds=seeds, collect_profile=False)

    def plan(self):
        rng = random.Random(f"{self.name}/{self.seed}/order")
        while True:
            for kind in self.pattern:
                yield kind, rng.randrange(self.windows)

    def _fresh_seed(self) -> int:
        while True:
            seed = self._fill_rng.randrange(2**31)
            if seed not in self._used:
                self._used.add(seed)
                return seed

    def execute(self, op, tracer=None) -> Outcome:
        kind, window = op
        telemetry = None
        if tracer is not None:
            telemetry = TelemetrySink(self.work / "query-telemetry.jsonl")
        config = api.SweepConfig(telemetry=telemetry)
        problems: List[str] = []
        if kind == "hit":
            specs = self.hit_specs(self.window_seeds[window])
            sink = _RunSink(keep=lambda seed_index: False)
        else:
            # One flooding variant over a window's seeds plus one new seed.
            # Task keys carry the seed's index in the grid, so the window's
            # seeds keep their archived positions and only the new seed's
            # runs (the last index) miss.
            seeds = self.window_seeds[window] + (self._fresh_seed(),)
            specs = sweep_specs([self.variants[0]], self.graphs, seeds=seeds, collect_profile=False)
            last = len(seeds) - 1
            sink = _RunSink(keep=lambda seed_index: seed_index == last)
        planned = len(self.graphs) if kind == "fill" else 0
        with self._operation(tracer, f"op.query.{kind}"):
            start = time.perf_counter()
            answer = api.query(specs, archive=self.archive, config=config, sinks=[sink])
            seconds = time.perf_counter() - start
        report = answer.report
        problems.extend(sink.problems)
        if kind == "hit" and _cells(answer.results) != self.reference[window]:
            problems.append(f"hit query on window {window} differs from the set-up cells")
        if report.simulated_runs != planned:
            problems.append(f"{kind} query simulated {report.simulated_runs} runs, planned {planned}")
        if report.archive_added != planned:
            problems.append(f"{kind} query added {report.archive_added} runs, planned {planned}")
        info: Dict[str, object] = {"report": report}
        if telemetry is not None:
            info["telemetry"] = telemetry.summary()
        return Outcome(
            kind,
            seconds,
            runs=report.requested_runs,
            attempted=1,
            failed=1 if problems else 0,
            run_seconds=sink.run_seconds,
            problems=problems,
            info=info,
        )


WORKLOADS = {
    cls.name: cls for cls in (ElectKnownN, ElectUnknownN, SweepFaults, QueryArchive)
}

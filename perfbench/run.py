#!/usr/bin/env python3
"""The repository benchmark: four closed-loop workloads over ``repro.api``.

Run from the root of a checkout::

    python3 perfbench/run.py --workload elect-known-n --seed 1 --seconds 15 --trace 0

Workloads (see ``BENCHMARK.json`` for why each exists):
``elect-known-n``, ``elect-unknown-n``, ``sweep-faults``, ``query-archive``.

``--trace 0`` times the workload with nothing patched and prints the
end-to-end metrics.  ``--trace 1`` first runs the workload untraced for
half of ``--seconds``, then replays the same inputs with the span tracer
(:mod:`tracing`) installed, and prints the per-layer metrics plus the
tracing overhead (traced over untraced operation time).  On
``sweep-faults``, whose timed sweeps run in-process, one extra pooled
(``workers=2``) sweep over the whole grid yields the pool's dispatch,
queue wait and worker use from the program's own ``TelemetrySink``.

Times are scaled to a reference machine speed measured between
operations (:mod:`speed`); the table also prints them as measured.  An
operation that leaves the interpreter slowed for everyone (a thread left
running, a trace or profile hook, ``tracemalloc``), which the scaling
would hide, fails its check.

Every operation checks its output; failed checks are counted in
``failed`` and make ``correct`` false.  The last line of standard output
is one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.  The line before it is a ``BENCH-RECORD`` JSON object
stamped with the machine, Python, git revision and workload seed.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: name -> unit of the end-to-end metrics (``--trace 0``)
END_TO_END = {
    "setup_s": "s",
    "runs_per_s": "runs/s",
    "op_s.p50": "s",
    "peak_rss_mb": "MB",
}

#: name -> unit of the per-layer metrics (``--trace 1``)
PER_LAYER = {
    "trace.overhead": "ratio",
    "graphs.tmix_s": "s",
    "election.step_calls": "count",
    "election.step_s": "s",
    "election.silent_step_frac": "ratio",
    "election.quiescent_calls": "count",
    "election.quiescent_s": "s",
    "simulator.run_s": "s",
    "simulator.self_s": "s",
    "simulator.rounds": "count",
    "simulator.rounds_executed": "count",
    "simulator.ff_frac": "ratio",
    "simulator.active_frac": "ratio",
    "metrics.record_calls": "count",
    "metrics.record_s": "s",
    "messages.sent": "count",
    "messages.delivered": "count",
    "messages.dropped": "count",
    "messages.pending": "count",
    "dynamics.hook_calls": "count",
    "dynamics.hook_s": "s",
    "parallel.simulate_s": "s",
    "parallel.queue_wait_s": "s",
    "parallel.worker_util": "ratio",
    "parallel.batches": "count",
    "parallel.batch_size.mean": "count",
    "parallel.redispatched": "count",
    "parallel.checkpoint_flushes": "count",
    "parallel.checkpoint_flush_s": "s",
    "parallel.checkpoint_bytes": "bytes",
    "streaming.fold_calls": "count",
    "streaming.fold_s": "s",
    "archive.fetch_rows": "count",
    "archive.fetch_s": "s",
    "archive.stage_s": "s",
    "archive.restore_s": "s",
    "archive.engine_s": "s",
    "archive.add_rows": "count",
    "archive.add_s": "s",
    "archive.self_s": "s",
    "archive.hit_rate": "ratio",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def _percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-int(q * len(ordered) * 1000) // 1000))
    return ordered[min(rank, len(ordered)) - 1]


def drive(workload, ops, kernel, interpreter, *, seconds: Optional[float] = None, tracer=None, **execute_kwargs):
    """Run operations one after another (a closed loop with one client).

    With ``seconds``, ``ops`` is the workload's endless plan and the loop
    stops at the first cycle boundary after ``seconds`` of wall time;
    otherwise ``ops`` is a finite list replayed in full.  The reference
    ``kernel`` is timed between operations to set each outcome's
    ``scale``; an operation after which the interpreter's state
    differs from ``interpreter`` fails.  Returns the outcomes and the
    inputs that ran.
    """
    outcomes = []
    done = []
    start = time.perf_counter()
    reference = kernel.time()
    for op in ops:
        before = dict(tracer.counters) if tracer is not None else None
        problems_before = len(tracer.problems) if tracer is not None else 0
        outcome = workload.execute(op, tracer, **execute_kwargs)
        after = kernel.time()
        outcome.scale = speed.scale(reference, after)
        reference = after
        left = speed.interpreter_state()
        if left != interpreter:
            outcome.problems.append(
                f"operation left the interpreter at {left}, was {interpreter}: "
                "that slows the reference kernel as much as the program, so the "
                "scaled times would hide it"
            )
            outcome.failed = max(outcome.failed, 1)
        if tracer is not None:
            fresh = _archive_self_check(outcome, tracer, before) + tracer.problems[problems_before:]
            if fresh:
                outcome.problems.extend(fresh)
                outcome.failed = max(outcome.failed, min(outcome.attempted, len(fresh)))
        outcomes.append(outcome)
        done.append(op)
        if (
            seconds is not None
            and len(done) % workload.cycle == 0
            and time.perf_counter() - start >= seconds
        ):
            break
    return outcomes, done


def _archive_self_check(outcome, tracer, before) -> List[str]:
    """Archive row counts seen by the wrappers must match the query's report."""
    report = outcome.info.get("report")
    if report is None:
        return []

    def delta(name):
        return tracer.counters.get(name, 0) - before.get(name, 0)

    checks = (
        ("archive.fetch_rows", report.archived_runs),
        ("archive.add_rows", report.simulated_runs),
        ("archive.added", report.archive_added),
    )
    return [
        f"tracer {name} {delta(name)} != QueryReport {expected}"
        for name, expected in checks
        if delta(name) != expected
    ]


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest of its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0  # ru_maxrss is in KiB on Linux


def busy_seconds(outcomes, scaled: bool = True) -> float:
    """Summed operation time, at reference speed unless ``scaled`` is false."""
    return sum(o.seconds * (o.scale if scaled else 1.0) for o in outcomes)


def end_to_end(outcomes, setups, scaled: bool = True) -> Dict[str, float]:
    """The gated metrics: at reference speed, or as measured with ``scaled=False``."""
    def at_speed(seconds, factor):
        return seconds * factor if scaled else seconds

    return {
        "setup_s": statistics.median(at_speed(s, f) for s, f in setups),
        "runs_per_s": sum(o.runs for o in outcomes) / busy_seconds(outcomes, scaled),
        "op_s.p50": op_p50([(o.kind, at_speed(o.seconds, o.scale)) for o in outcomes]),
        "peak_rss_mb": peak_rss_mb(),
    }


def op_p50(samples: Sequence[Tuple[str, float]]) -> float:
    """Median latency of one operation, from ``(kind, seconds)`` samples.

    A workload that mixes operation kinds (hit and fill queries) gets
    the mean of each kind's median, so every kind moves the figure by its
    share of a cycle's time, whatever the kinds' relative costs.
    """
    by_kind: Dict[str, List[float]] = {}
    for kind, seconds in samples:
        by_kind.setdefault(kind, []).append(seconds)
    return statistics.fmean(statistics.median(values) for values in by_kind.values())


def latency_summary(outcomes) -> List[Tuple[str, str]]:
    """Per-kind latencies for the table, with their sample counts.

    A p90 is shown only when at least ten samples lie beyond it (100 or
    more samples); with fewer the percentile would rest on a handful of
    values.
    """
    samples = {
        "run_s": [s * o.scale for o in outcomes for s in o.run_seconds],
        "query_s": [o.seconds * o.scale for o in outcomes if o.kind == "hit"],
        "fill_s": [o.seconds * o.scale for o in outcomes if o.kind == "fill"],
    }
    rows = []
    for name, values in samples.items():
        if not values:
            continue
        rows.append((f"{name}.p50", f"{statistics.median(values):.6f} s (n={len(values)})"))
        if len(values) >= 100:
            rows.append((f"{name}.p90", f"{_percentile(values, 0.90):.6f} s (n={len(values)})"))
        else:
            rows.append((f"{name}.p90", f"not reported: n={len(values)} < 100"))
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    rows.append(("fail_frac", f"{_ratio(failed, attempted):.6f} ratio ({failed}/{attempted})"))
    return rows


def per_layer(core, parent, outcomes, overhead: float) -> Dict[str, float]:
    """Per-layer metrics from the traced passes.

    ``core`` is the tracer that saw the simulator, ``parent`` the one that
    saw the engine and archive calls (on ``sweep-faults``, the pooled
    pass), and ``outcomes`` the operations of the ``parent`` pass (their
    telemetry and query reports).
    """
    c = core.counters
    step_calls, step_s = core.leaf("election.step")
    q_calls, q_s = core.leaf("election.quiescent")
    rec_calls, rec_s = core.leaf("metrics.record")
    hook_calls, hook_s = core.leaf("dynamics.hook")
    fold_calls, fold_s = parent.leaf("streaming.fold")
    executed = c.get("rounds.executed", 0)
    rounds = executed + c.get("rounds.fast_forwarded", 0)

    summaries = [o.info["telemetry"] for o in outcomes if "telemetry" in o.info]
    busy = sum(w["busy_seconds"] for s in summaries for w in s["worker_utilization"])
    capacity = sum((s["elapsed_seconds"] or 0.0) * (s["workers"] or 1) for s in summaries)
    scheduler = [s["scheduler"] for s in summaries if s["scheduler"]]
    batches = sum(s["batches"] for s in scheduler)
    flush = [s["driver_spans"].get("checkpoint.flush") for s in summaries]
    reports = [o.info["report"] for o in outcomes if "report" in o.info]
    restore = [
        o.info["telemetry"]["driver_spans"].get("restore")
        for o in outcomes
        if "report" in o.info
    ]

    stage_s, reload_s = _staging_split(parent)
    metrics = {
        "trace.overhead": overhead,
        "graphs.tmix_s": core.total("graphs.tmix"),
        "election.step_calls": step_calls,
        "election.step_s": step_s,
        "election.silent_step_frac": _ratio(c.get("step.silent", 0), step_calls),
        "election.quiescent_calls": q_calls,
        "election.quiescent_s": q_s,
        "simulator.run_s": core.total("simulator.run"),
        "simulator.self_s": core.self_time("simulator.run"),
        "simulator.rounds": rounds,
        "simulator.rounds_executed": executed,
        "simulator.ff_frac": _ratio(rounds - executed, rounds),
        "simulator.active_frac": _ratio(step_calls, c.get("simulator.node_rounds", 0)),
        "metrics.record_calls": rec_calls,
        "metrics.record_s": rec_s,
        "messages.sent": c.get("messages.sent", 0),
        "messages.delivered": c.get("messages.delivered", 0),
        "messages.dropped": c.get("messages.dropped", 0),
        "messages.pending": c.get("messages.pending", 0),
        "dynamics.hook_calls": hook_calls,
        "dynamics.hook_s": hook_s,
        "parallel.simulate_s": sum(s["totals"]["simulate_seconds"] for s in summaries),
        "parallel.queue_wait_s": sum(s["totals"]["queue_wait_seconds"] for s in summaries),
        "parallel.worker_util": _ratio(busy, capacity),
        "parallel.batches": batches,
        "parallel.batch_size.mean": _ratio(sum(s["dispatched_tasks"] for s in scheduler), batches),
        "parallel.redispatched": sum(s["redispatched_tasks"] for s in scheduler),
        "parallel.checkpoint_flushes": sum(f["count"] for f in flush if f),
        "parallel.checkpoint_flush_s": sum(f["total_seconds"] for f in flush if f),
        "parallel.checkpoint_bytes": sum(o.info.get("checkpoint_bytes", 0) for o in outcomes)
        + parent.counters.get("store.bytes@archive.engine", 0),
        "streaming.fold_calls": fold_calls,
        "streaming.fold_s": fold_s,
        "archive.fetch_rows": parent.counters.get("archive.fetch_rows", 0),
        "archive.fetch_s": parent.total("archive.fetch"),
        "archive.stage_s": stage_s,
        "archive.restore_s": sum(r["total_seconds"] for r in restore if r) + reload_s,
        "archive.engine_s": parent.total("archive.engine"),
        "archive.add_rows": parent.counters.get("archive.add_rows", 0),
        "archive.add_s": parent.total("archive.add"),
        "archive.self_s": sum(
            parent.self_time(name) for name in ("op.query.hit", "op.query.fill")
        ),
        "archive.hit_rate": _ratio(
            sum(r.archived_runs for r in reports), sum(r.requested_runs for r in reports)
        ),
    }
    return metrics


def _staging_split(tracer) -> Tuple[float, float]:
    """Checkpoint-store time directly under a query: (staging, post-engine reload).

    A query stages its archive hits into a checkpoint before the engine
    call and reloads that checkpoint after it to find the new runs.
    """
    engine_start: Dict[int, float] = {}
    for parent, child in tracer.children_of("op.query."):
        if child[3] == "archive.engine":
            engine_start[parent[1]] = child[4]
    stage = reload = 0.0
    for parent, child in tracer.children_of("op.query."):
        if not child[3].startswith("store."):
            continue
        seconds = child[5] - child[4]
        if child[4] < engine_start.get(parent[1], float("inf")):
            stage += seconds
        else:
            reload += seconds
    return stage, reload


def stamp(args) -> Dict[str, object]:
    """Machine, interpreter and revision the numbers were measured on."""

    def git(*command: str) -> Optional[str]:
        try:
            done = subprocess.run(
                ["git", "-C", str(ROOT), *command],
                capture_output=True,
                text=True,
                timeout=30,
            )
        except (OSError, subprocess.SubprocessError):
            return None
        return done.stdout.strip() if done.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = git("status", "--porcelain", "--untracked-files=no") if sha else None
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "git_sha": sha,
        "git_dirty": bool(dirty) if sha else None,
    }


def _declared_metrics(key: str) -> Optional[List[str]]:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        return None
    return [entry["name"] for entry in json.loads(path.read_text())[key]]


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: program source not found at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from tracing import ALL_GROUPS, PARENT_GROUPS, Tracer
    from workloads import SWEEP_WORKERS, WORKLOADS, SweepFaults

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    work = ROOT / ".bench_work" / f"run-{os.getpid()}"
    (work / "tmp").mkdir(parents=True)
    # Keep every temporary file (the query layer stages through tempfile)
    # inside the checkout.
    tempfile.tempdir = str(work / "tmp")
    os.environ["TMPDIR"] = tempfile.tempdir
    try:
        interpreter = speed.interpreter_state()
        workload = WORKLOADS[args.workload](args.seed, work)
        kernel = speed.ReferenceKernel()
        setups = []  # (seconds per set-up, scale)
        reference = kernel.time()
        for _ in range(workload.setup_repeats):
            start = time.perf_counter()
            for _ in range(workload.setup_batch):
                workload.setup()
            seconds = (time.perf_counter() - start) / workload.setup_batch
            after = kernel.time()
            setups.append((seconds, speed.scale(reference, after)))
            reference = after
        setup_problems = list(getattr(workload, "setup_problems", []))

        # Untraced timing comes first, before any tracer is installed in
        # this process; ``Tracer.uninstall`` verifies the restore.
        outcomes, done = drive(
            workload, workload.plan(), kernel, interpreter, seconds=args.seconds / 2 if args.trace else args.seconds
        )
        measured = end_to_end(outcomes, setups, scaled=False)
        if args.trace == 0:
            values = end_to_end(outcomes, setups)
            units, traced_outcomes = END_TO_END, []
        else:
            tracer = Tracer()
            with tracer.installed(ALL_GROUPS):
                traced_outcomes, _ = drive(workload, done, kernel, interpreter, tracer=tracer)
            overhead = busy_seconds(traced_outcomes) / busy_seconds(outcomes)
            engine, engine_outcomes = tracer, list(traced_outcomes)
            if isinstance(workload, SweepFaults):
                # The pool's dispatch and queue wait: one pooled sweep over
                # the whole grid, with only parent-side wrappers installed.
                engine = Tracer()
                with engine.installed(PARENT_GROUPS):
                    engine_outcomes, _ = drive(
                        workload, [workload.pooled_op()], kernel, interpreter,
                        tracer=engine, workers=SWEEP_WORKERS,
                    )
                traced_outcomes += engine_outcomes
            values = per_layer(tracer, engine, engine_outcomes, overhead)
            units = PER_LAYER

        everything = outcomes + traced_outcomes
        attempted = sum(o.attempted for o in everything)
        failed = sum(o.failed for o in everything) + len(setup_problems)
        problems = setup_problems + [p for o in everything for p in o.problems]

        print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
              f"{len(outcomes)} operations in {busy_seconds(outcomes, False):.3f} s, "
              f"set-up {len(setups)}x{workload.setup_batch}; times at reference speed (see speed.py)")
        for name, value in values.items():
            print(f"  {name:<30} {value:>16.6f} {units[name]}")
        for name, value in measured.items():
            print(f"  {name + ' (as measured)':<30} {value:>16.6f} {END_TO_END[name]}")
        latency = latency_summary(outcomes)
        for name, text in latency:
            print(f"  {name:<30} {text}")
        for problem in problems[:20]:
            print(f"  CHECK FAILED: {problem}")
        record = {
            "stamp": stamp(args),
            "metrics": values,
            "latency": dict(latency),
            "as_measured": measured,
            "operations": len(outcomes),
            "busy_s": busy_seconds(outcomes, False),
            "scales": [o.scale for o in outcomes],
            "setup_runs_s": setups,
            # How much of the workload has each property a later change
            # may target (traced runs only).
            "properties": {
                "adversarial_task_share": getattr(workload, "adversarial_share", 0.0),
                **{k: values[k] for k in ("simulator.ff_frac", "simulator.active_frac", "archive.hit_rate") if k in values},
            },
        }
        print("BENCH-RECORD " + json.dumps(record, sort_keys=True, default=str))

        declared = _declared_metrics("per_layer" if args.trace else "end_to_end")
        if declared is not None and sorted(declared) != sorted(values):
            print(f"perfbench: metrics {sorted(values)} do not match BENCHMARK.json {sorted(declared)}", file=sys.stderr)
            return 1
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())

"""Equivalence suite for the two simulator cores (``backend="round"|"event"``).

The event-driven core is a pure performance optimisation: it skips
quiescent nodes and fast-forwards over quiescent stretches of rounds, but
every observable of a run — metrics, election outcomes, per-node results,
traces, fault events — must be bit-for-bit identical to the round-robin
core.  This file pins that contract across

* the raw simulator (plain and under every adversary family),
* the irrevocable election pipeline (quiescence predicates engaged),
* the experiment engine in all execution modes: serial, pooled, pooled
  with the spawn start method, and sharded-with-checkpoint,
* robustness curves over a dynamic scenario,
* checkpoint identity: the backend never enters task keys, so a sweep
  checkpointed under one core replays under the other.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import ExperimentSpec, run_experiment
from repro.core import (
    BACKENDS,
    Message,
    ProtocolNode,
    SimulationError,
    SynchronousSimulator,
    backend_scope,
    build_nodes,
    default_backend,
    set_default_backend,
)
from repro.core.errors import ConfigurationError
from repro.dynamics import AdversarySpec, make_adversary, robustness_specs
from repro.election import run_irrevocable_election
from repro.graphs import cycle, grid_2d, random_regular, star
from repro.parallel import expand_run_tasks, run_experiments
from repro.protocols import ProtocolRunner
from repro.workloads import dynamic_scenario

ADVERSARY_GRID = [
    None,
    AdversarySpec.create("loss", p=0.1),
    AdversarySpec.create("delay", p=0.2, max_delay=3),
    AdversarySpec.create("skew", p=0.4, max_skew=3),
    AdversarySpec.create("churn", p_down=0.1, p_up=0.5),
    AdversarySpec.create("crash", p=0.2, horizon=4),
    AdversarySpec.create(
        "composed", models="loss+delay", **{"loss.p": 0.1, "delay.p": 0.2}
    ),
    AdversarySpec.create(
        "composed", models="skew+delay", **{"skew.p": 0.3, "delay.p": 0.1}
    ),
]


class Ping(Message):
    pass


class ChatterNode(ProtocolNode):
    """Never quiescent: sends through every port each round."""

    def __init__(self, num_ports: int, rng: random.Random) -> None:
        super().__init__(num_ports, rng)
        self.received = 0

    def step(self, round_index, inbox):
        self.received += len(inbox)
        return {port: Ping() for port in self.ports()}

    def result(self):
        return {"received": self.received}


def _chatter_fingerprint(backend, adversary_spec):
    adversary = (
        make_adversary(adversary_spec, 7) if adversary_spec is not None else None
    )
    topology = cycle(8)
    nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
    simulator = SynchronousSimulator(
        topology, nodes, adversary=adversary, backend=backend
    )
    result = simulator.run(12)
    return (
        result.metrics.as_dict(),
        result.rounds_executed,
        result.results(),
        simulator.pending_delayed(),
    )


def _election_fingerprint(backend, topology, seed):
    with backend_scope(backend):
        result = run_irrevocable_election(topology, seed=seed)
    return result.as_dict()


def _comparable(cells):
    rows = []
    for cell in cells:
        row = cell.as_dict()
        row.pop("mean_wall_clock_seconds")
        rows.append(row)
    return rows


def _flooding_spec(adversary=None, name="flooding-backend-eq"):
    return ExperimentSpec(
        name=name,
        protocol="flooding",
        topologies=[cycle(8), star(8), grid_2d(3, 3)],
        seeds=(0, 1, 2),
        collect_profile=False,
        adversary=adversary,
    )


class TestSimulatorCoreEquivalence:
    @pytest.mark.parametrize(
        "adversary_spec",
        ADVERSARY_GRID,
        ids=lambda s: s.token() if s is not None else "plain",
    )
    def test_chatter_identical_under_every_adversary(self, adversary_spec):
        assert _chatter_fingerprint("round", adversary_spec) == _chatter_fingerprint(
            "event", adversary_spec
        )

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize(
        "topology_factory",
        [lambda: cycle(8), lambda: random_regular(16, 4, seed=7)],
        ids=["cycle8", "rr16d4"],
    )
    def test_irrevocable_election_bit_identical(self, topology_factory, seed):
        # The election pipeline is the quiescence-heavy workload: its
        # nodes implement quiescent_until, so the event core actually
        # skips work here — and must still match bit for bit.
        topology = topology_factory()
        assert _election_fingerprint("round", topology, seed) == _election_fingerprint(
            "event", topology, seed
        )

    def test_irrevocable_runner_matches_across_backends(self):
        irrevocable_runner = ProtocolRunner("irrevocable")
        with backend_scope("round"):
            reference = irrevocable_runner(cycle(8), 1).as_dict()
        with backend_scope("event"):
            assert irrevocable_runner(cycle(8), 1).as_dict() == reference


class TestExperimentEngineEquivalence:
    @pytest.mark.parametrize(
        "adversary",
        ADVERSARY_GRID,
        ids=lambda s: s.token() if s is not None else "plain",
    )
    def test_serial_sweep_identical_across_cores(self, adversary):
        spec = _flooding_spec(adversary)
        reference = run_experiment(spec, backend="round")
        event = run_experiment(spec, backend="event")
        assert _comparable(event.cells) == _comparable(reference.cells)

    def test_all_execution_modes_and_cores_identical(self, tmp_path):
        # serial/round is the reference; every (execution mode, core)
        # combination must reproduce its cells exactly.
        from repro.parallel import manifest_path, merge_shard_checkpoints

        spec = _flooding_spec(AdversarySpec.create("loss", p=0.1))
        reference = _comparable(run_experiment(spec, backend="round").cells)

        assert _comparable(run_experiment(spec, backend="event").cells) == reference
        for backend in ("round", "event"):
            pooled = run_experiment(spec, workers=2, backend=backend)
            assert _comparable(pooled.cells) == reference
        spawned = run_experiment(
            spec, workers=2, start_method="spawn", backend="event"
        )
        assert _comparable(spawned.cells) == reference

        checkpoint = tmp_path / "ck" / "sweep.json"
        for shard_index in (0, 1):
            run_experiments(
                [spec], checkpoint=checkpoint, shard=(shard_index, 2), backend="event"
            )
        merge_shard_checkpoints(manifest_path(checkpoint), checkpoint)
        replayed = run_experiment(spec, checkpoint=checkpoint)
        assert _comparable(replayed.cells) == reference

    def test_robustness_curve_identical_across_cores(self):
        specs = robustness_specs(
            ["flooding"], [cycle(8)], dynamic_scenario("lossy"), seeds=(0, 1)
        )
        for spec in specs:
            reference = run_experiment(spec, backend="round")
            event = run_experiment(spec, backend="event")
            assert _comparable(event.cells) == _comparable(reference.cells)

    def test_backend_not_in_task_keys_and_checkpoints_interchange(self, tmp_path):
        # Task keys identify (spec, topology, seed, adversary) — never the
        # simulator core — so a checkpoint written under one core must
        # replay (not recompute) under the other.
        spec = _flooding_spec(AdversarySpec.create("delay", p=0.2, max_delay=3))
        keys = sorted(task.key for task in expand_run_tasks(spec))
        assert all("round" not in key and "event" not in key for key in keys)

        checkpoint = tmp_path / "sweep.json"
        written = run_experiment(spec, checkpoint=checkpoint, backend="round")
        replayed = run_experiment(spec, checkpoint=checkpoint, backend="event")
        assert _comparable(replayed.cells) == _comparable(written.cells)


class TestBackendSelection:
    def test_auto_resolves_to_event(self):
        assert default_backend() == "event"
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
        assert SynchronousSimulator(topology, nodes).backend == "event"

    def test_scopes_nest_and_restore(self):
        with backend_scope("round"):
            assert default_backend() == "round"
            with backend_scope("event"):
                assert default_backend() == "event"
            assert default_backend() == "round"
        assert default_backend() == "event"

    def test_explicit_argument_wins_over_scope(self):
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
        with backend_scope("round"):
            simulator = SynchronousSimulator(topology, nodes, backend="event")
        assert simulator.backend == "event"

    def test_process_default_reaches_auto(self):
        try:
            set_default_backend("round")
            assert default_backend() == "round"
        finally:
            set_default_backend("auto")
        assert default_backend() == "event"

    def test_invalid_backend_rejected_everywhere(self):
        topology = cycle(4)
        nodes = build_nodes(topology, lambda i, p, rng: ChatterNode(p, rng), seed=0)
        with pytest.raises(SimulationError, match="warp"):
            SynchronousSimulator(topology, nodes, backend="warp")
        with pytest.raises(SimulationError, match="warp"):
            set_default_backend("warp")
        with pytest.raises(SimulationError, match="warp"):
            with backend_scope("warp"):
                pass  # pragma: no cover - the scope must refuse to open
        with pytest.raises(ConfigurationError, match="warp"):
            run_experiments([_flooding_spec()], backend="warp")
        assert "warp" not in BACKENDS

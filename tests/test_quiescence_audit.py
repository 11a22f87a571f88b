"""Audit of the quiescence contract on every step the event core skips.

:meth:`ProtocolNode.quiescent_until` lets the event-driven simulator core
elide steps it is promised are no-ops.  The backend-equivalence suite
checks the end result; this file checks the promise itself, step by step:
each time the event core runs an irrevocable election and leaves a node
asleep for a stretch of rounds, a ``copy.deepcopy`` of that node is
stepped through the stretch with empty inboxes, as the round core would
have done, and every such step must

* return an empty outbox,
* draw nothing from the node's RNG (the copy's RNG is replaced by a
  guard that fails on any use, which implies an unchanged
  ``rng.getstate()``), and
* leave ``result()`` and the broadcast ``summaries()`` unchanged
  (``rounds_executed`` excepted: it may drift while a node sleeps, see
  :meth:`IrrevocableLeaderElectionNode.quiescent_until`).
"""

from __future__ import annotations

import copy
import random
from typing import Dict, List, Optional, Tuple

import pytest

from repro.core import SynchronousSimulator, build_nodes
from repro.election import IrrevocableConfig, IrrevocableLeaderElectionNode
from repro.graphs import Topology, complete, cycle, path, random_regular, torus_2d


def _broadcast_view(node: IrrevocableLeaderElectionNode) -> List[Dict[str, object]]:
    summaries = node._broadcast.summaries()
    for summary in summaries:
        del summary["rounds_executed"]
    return summaries


class _DrawGuard:
    """Stands in for a sleeping node's RNG: any use at all fails the audit.

    Stronger, and much cheaper per step, than comparing ``getstate()``
    after every skipped step.
    """

    def __getattr__(self, name: str):
        raise AssertionError(f"a skipped step used rng.{name}")


class AuditedNode(IrrevocableLeaderElectionNode):
    """Irrevocable node that audits each stretch of rounds it slept through."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.asleep_from: Optional[int] = None
        self.audited_steps = 0

    def quiescent_until(self, round_index: int) -> int:
        # Queried after every executed step (and once before the run): the
        # node is not stepped again before the next step() call.
        self.asleep_from = round_index
        return super().quiescent_until(round_index)

    def step(self, round_index, inbox):
        self.audit_skipped(round_index)
        return super().step(round_index, inbox)

    def audit_skipped(self, until: int) -> None:
        """Replay the skipped rounds ``[asleep_from, until)`` on a copy."""
        start, self.asleep_from = self.asleep_from, None
        if start is None or start >= until:
            return
        # The memo entry swaps in the guard without copying the RNG state.
        twin = copy.deepcopy(self, {id(self.rng): _DrawGuard()})
        result = self.result()
        broadcast = _broadcast_view(self)
        for round_index in range(start, until):
            outbox = IrrevocableLeaderElectionNode.step(twin, round_index, {})
            assert outbox == {}, f"skipped round {round_index} sent {outbox!r}"
            assert twin.result() == result, round_index
            assert _broadcast_view(twin) == broadcast, round_index
        self.audited_steps += until - start


def run_audited(topology: Topology, seed: int) -> Tuple[List[AuditedNode], int]:
    """One irrevocable election on the event core; returns the nodes and rounds."""
    config = IrrevocableConfig.from_topology(topology)

    def factory(index: int, num_ports: int, rng: random.Random) -> AuditedNode:
        return AuditedNode(num_ports, rng, config=config)

    nodes = build_nodes(topology, factory, seed=seed)
    simulator = SynchronousSimulator(topology, nodes, backend="event")
    result = simulator.run(config.total_rounds())
    for node in nodes:
        if not node.halted:  # pragma: no cover - every node halts at the decision
            node.audit_skipped(result.total_rounds)
    return nodes, result.total_rounds


TOPOLOGIES = {
    "random_regular:48:8": lambda: random_regular(48, 8, seed=7),
    "torus_2d:6:6": lambda: torus_2d(6, 6),
    "cycle:24": lambda: cycle(24),
    "path:12": lambda: path(12),
    "complete:8": lambda: complete(8),
}


@pytest.mark.parametrize("seed", [1, 2, 3])
@pytest.mark.parametrize("name", sorted(TOPOLOGIES))
def test_every_skipped_step_is_a_no_op(name: str, seed: int) -> None:
    nodes, rounds = run_audited(TOPOLOGIES[name](), seed)
    assert all(node.halted for node in nodes)
    audited = sum(node.audited_steps for node in nodes)
    # The event core must actually skip steps here, or the audit is vacuous.
    assert audited > 0
    assert audited < len(nodes) * rounds

"""Picklable ``(topology, seed)`` runners bound to a protocol spec.

The experiment layer drives algorithms through ``runner(topology, seed)``
callables.  :class:`ProtocolRunner` is the one such callable: a frozen
dataclass of a :class:`~repro.protocols.spec.ProtocolSpec` and an optional
:class:`~repro.dynamics.spec.AdversarySpec`, so parameterised protocol
variants under any fault model flow through the parallel engine's worker
pool unchanged.
"""

from __future__ import annotations

from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Optional, Union

from ..core.faults import fault_scope
from ..dynamics.spec import AdversarySpec, adversary_factory
from ..election.base import LeaderElectionResult
from ..graphs.topology import Topology
from .registry import ProtocolDefinition
from .spec import ProtocolSpec

__all__ = ["ProtocolRunner"]


@dataclass(frozen=True)
class ProtocolRunner:
    """``spec``'s protocol, invoked as a plain ``(topology, seed)`` runner.

    ``spec`` may also be given as its string spelling ``"name:k=v,..."``,
    which is parsed and validated here.

    With an ``adversary``, every simulator the protocol builds during the
    run — the paper's protocols build several, one per phase — is
    constructed inside a :func:`repro.core.faults.fault_scope` and gets a
    fresh adversary instance bound to the run seed.

    The registry entry is captured at *construction* time (in the parent
    process, where the protocol is registered) and travels inside the
    pickle — the factory is a module-level callable, pickled by reference.
    Resolving by name at call time instead would strand custom
    ``register_protocol`` entries on ``spawn``-start workers, whose fresh
    interpreters never ran the parent's registration.
    """

    spec: Union[ProtocolSpec, str]
    adversary: Optional[AdversarySpec] = None
    definition: ProtocolDefinition = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if isinstance(self.spec, str):
            object.__setattr__(self, "spec", ProtocolSpec.parse(self.spec))
        definition = self.spec.definition()
        object.__setattr__(self, "definition", definition)
        # Validate once here, not per run: the mapping is invariant for a
        # frozen spec, and this keeps the safety net for raw-constructed
        # (non-create/parse) specs out of the per-run hot path.
        object.__setattr__(
            self,
            "_validated",
            definition.schema.validate(self.spec.name, dict(self.spec.params)),
        )

    def __call__(self, topology: Topology, seed: int) -> LeaderElectionResult:
        scope = (
            nullcontext()
            if self.adversary is None
            else fault_scope(adversary_factory(self.adversary, seed))
        )
        with scope:
            result = self.definition.factory(topology, seed, **self._validated)
        # Record the configuration and the execution model on the run
        # itself, so checkpoint records and JSONL exports always say which
        # constants and which faults produced a number.
        parameters = {**result.parameters, "protocol": self.spec.token()}
        if self.adversary is not None:
            parameters["adversary"] = self.adversary.as_dict()
        result.parameters = parameters
        return result


"""First-class protocol configuration: registry, schemas, sweepable specs.

``repro.protocols`` makes protocol constants a grid axis.  The registry
(:data:`PROTOCOLS`) maps protocol names to a typed parameter schema and an
entry-point factory; :class:`ProtocolSpec` is the declarative, picklable
value that travels through experiment grids (string round-trip
``"irrevocable:c=3,x_multiplier=1.5"``); :class:`ProtocolRunner` adapts a
spec to the ``runner(topology, seed)`` shape the experiment engine
executes.  See :mod:`repro.workloads.suites.param_grid` for building
parameter grids and the CLI's ``repro-le protocols`` for the registry's
live schema listing.
"""

from .registry import (
    PROTOCOLS,
    ProtocolDefinition,
    describe_protocols,
    protocol_by_name,
    register_protocol,
    run_protocol,
)
from .runners import ProtocolRunner
from .schema import ParamSpec, ProtocolSchema
from .spec import ProtocolSpec, parse_protocol_params

__all__ = [
    "PROTOCOLS",
    "ParamSpec",
    "ProtocolDefinition",
    "ProtocolRunner",
    "ProtocolSchema",
    "ProtocolSpec",
    "describe_protocols",
    "parse_protocol_params",
    "protocol_by_name",
    "register_protocol",
    "run_protocol",
]

"""Adversarial network dynamics: fault injection, churn, robustness sweeps.

The paper assumes a static, reliable, round-synchronous network; its
central quantities — mixing time, conductance, the isoperimetric number —
are exactly what degrades when that assumption slips.  ``repro.dynamics``
turns the repo from a reproduction of one execution model into a
robustness-analysis system over a family of them:

* :mod:`~repro.dynamics.adversaries` — concrete fault models (message
  loss, bounded delay, link churn, crash-stop), all deterministic
  functions of the run seed;
* :mod:`~repro.dynamics.spec` — picklable :class:`AdversarySpec` grid
  values plus the :data:`ADVERSARIES` registry behind
  ``repro-le sweep --adversary``;
* :mod:`~repro.dynamics.sweeps` — (algorithm × adversary) robustness
  grids as ordinary experiment specs.

The simulator-side hook lives in :mod:`repro.core.faults`, and a run
enters it through :class:`~repro.protocols.runners.ProtocolRunner`'s
``adversary``; dropped and delayed messages surface as first-class
:class:`~repro.core.metrics.Metrics` counters and as trace events, and
adversarial runs flow through the parallel engine and its checkpoints
bit-identically to serial execution (``tests/test_dynamics.py``).
"""

from .adversaries import (
    AsynchronyAdversary,
    ComposedAdversary,
    CrashStopAdversary,
    LinkChurnAdversary,
    MessageDelayAdversary,
    MessageLossAdversary,
    SeededAdversary,
)
from .spec import (
    ADVERSARIES,
    AdversarySpec,
    adversary_factory,
    make_adversary,
    parse_adversary_params,
    spec_from_cli,
)
from .sweeps import adversary_grid, composed_spec, robustness_specs

__all__ = [
    "ADVERSARIES",
    "AdversarySpec",
    "AsynchronyAdversary",
    "ComposedAdversary",
    "CrashStopAdversary",
    "LinkChurnAdversary",
    "MessageDelayAdversary",
    "MessageLossAdversary",
    "SeededAdversary",
    "adversary_factory",
    "adversary_grid",
    "composed_spec",
    "make_adversary",
    "parse_adversary_params",
    "robustness_specs",
    "spec_from_cli",
]

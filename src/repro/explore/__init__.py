"""repro.explore — adversarial fault-timing exploration.

The paper injects faults at random iteration boundaries; this package
asks the sharper question: *when is the worst possible moment to fail?*
It gives fault timing a structural coordinate system (phase anchors
measured by a probe run), a frozen schedule format aimed at those
anchors (``at-phase`` scenario specs), search strategies that sweep the
anchor space for the worst-case makespan (``worst-of``), and livelock
guards that turn a design bug under repeated failure-during-recovery
into a structured error instead of a hang.

Entry points: ``Session.explore(...)`` on the :mod:`repro.api` facade,
``match-bench explore`` on the CLI, and the ``at-phase:<schedule>`` /
``worst-of:<budget>`` scenario kinds anywhere a fault spec is accepted.

Import layering: the eager surface (schedule grammar, timelines,
guards, scenario kinds) has no dependency on the engine/config layer,
so :mod:`repro.faults.scenarios` can import it at registration time;
the heavyweight pieces (:mod:`.engine`, :mod:`.strategies`) load
lazily on first attribute access.
"""

from __future__ import annotations

from . import kinds  # noqa: F401  (registers at-phase / worst-of)
from .guards import DEFAULT_LIMIT, ProgressGuard
from .schedule import AnchoredFault, FaultSchedule
from .timeline import (
    PhaseHook,
    PhaseRecorder,
    PhaseSpan,
    PhaseTimeline,
    PhaseWindow,
    probe_timeline,
)

#: lazily exposed: these pull in the engine/config layer
_LAZY = {
    "ExploreContext": "engine",
    "ExploreOutcome": "engine",
    "explore": "engine",
    "explore_stream": "engine",
    "lower_schedule": "engine",
    "lower_scenario": "engine",
    "worst_case_plan": "engine",
    "STRATEGIES": "strategies",
    "SearchStrategy": "strategies",
}


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(
            "module %r has no attribute %r" % (__name__, name))
    import importlib

    return getattr(importlib.import_module("." + module, __name__), name)


__all__ = [
    "AnchoredFault",
    "DEFAULT_LIMIT",
    "ExploreContext",
    "ExploreOutcome",
    "FaultSchedule",
    "PhaseHook",
    "PhaseRecorder",
    "PhaseSpan",
    "PhaseTimeline",
    "PhaseWindow",
    "ProgressGuard",
    "STRATEGIES",
    "SearchStrategy",
    "explore",
    "explore_stream",
    "lower_schedule",
    "lower_scenario",
    "probe_timeline",
    "worst_case_plan",
]

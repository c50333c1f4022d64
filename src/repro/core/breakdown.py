"""Execution-time breakdown, matching the paper's stacked bars.

Figures 5/6/8/9 split total execution into *Application*, *Write
Checkpoints* and (with failures) *Recovery*; checkpoint *reads* are
measured but excluded from the bars because they are tiny (§V-C).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..faults.plans import FaultEvent, TimedFault


@dataclass
class TimeBreakdown:
    """Virtual-second totals for one experiment run."""

    total_seconds: float = 0.0
    ckpt_write_seconds: float = 0.0
    recovery_seconds: float = 0.0
    ckpt_read_seconds: float = 0.0

    @property
    def application_seconds(self) -> float:
        """Everything that is not checkpointing or MPI recovery."""
        return max(0.0, self.total_seconds - self.ckpt_write_seconds
                   - self.recovery_seconds - self.ckpt_read_seconds)

    def as_dict(self) -> dict:
        return {
            "application": self.application_seconds,
            "write_checkpoints": self.ckpt_write_seconds,
            "recovery": self.recovery_seconds,
            "read_checkpoints": self.ckpt_read_seconds,
            "total": self.total_seconds,
        }

    def __str__(self):
        return ("total=%.2fs app=%.2fs ckpt=%.2fs recovery=%.2fs "
                "(read=%.3fs)" % (self.total_seconds,
                                  self.application_seconds,
                                  self.ckpt_write_seconds,
                                  self.recovery_seconds,
                                  self.ckpt_read_seconds))


@dataclass
class RunResult:
    """Outcome of one experiment run (one repetition)."""

    config_label: str
    breakdown: TimeBreakdown
    verified: bool
    ckpt_count: int = 0
    recovery_episodes: int = 0
    relaunches: int = 0
    fault_events: tuple = ()
    details: dict = field(default_factory=dict)


def breakdown_to_dict(breakdown: TimeBreakdown) -> dict:
    """JSON-safe form; floats round-trip exactly (json uses repr)."""
    return {
        "total_seconds": breakdown.total_seconds,
        "ckpt_write_seconds": breakdown.ckpt_write_seconds,
        "recovery_seconds": breakdown.recovery_seconds,
        "ckpt_read_seconds": breakdown.ckpt_read_seconds,
    }


def breakdown_from_dict(data: dict) -> TimeBreakdown:
    return TimeBreakdown(**data)


def _fault_event_to_wire(event) -> list:
    """Wire form of one fault event.

    Iteration-indexed events keep the original 3-element shape so every
    pre-existing store record and determinism pin stays byte-identical;
    exact-time events (``TimedFault``, iteration == -1) need their
    ``time``/``epoch`` carried too or replay-from-store would decode a
    different experiment.
    """
    if isinstance(event, TimedFault):
        return [event.rank, event.iteration, event.kind,
                event.time, event.epoch]
    return [event.rank, event.iteration, event.kind]


def _fault_event_from_wire(entry):
    if len(entry) == 5:
        rank, _iteration, kind, time, epoch = entry
        return TimedFault(time=time, rank=rank, kind=kind, epoch=epoch)
    rank, iteration, kind = entry
    return FaultEvent(rank, iteration, kind)


def result_fingerprint(result: RunResult) -> dict:
    """Full-precision, JSON-safe fingerprint of one run.

    The single definition shared by the determinism-pin capture script
    (``tests/data/capture_seed.py``) and the determinism regression
    test, so the recorded and replayed sides can never drift apart.
    ``repr()`` keeps exact float bits; the test compares exactly.
    """
    b = result.breakdown
    return {
        "total_seconds": repr(b.total_seconds),
        "ckpt_write_seconds": repr(b.ckpt_write_seconds),
        "recovery_seconds": repr(b.recovery_seconds),
        "ckpt_read_seconds": repr(b.ckpt_read_seconds),
        "verified": result.verified,
        "ckpt_count": result.ckpt_count,
        "recovery_episodes": result.recovery_episodes,
        "relaunches": result.relaunches,
        "fault_events": [_fault_event_to_wire(e)
                         for e in result.fault_events],
        "runtime_stats": result.details["runtime_stats"],
    }


def run_result_to_dict(result: RunResult) -> dict:
    """Serialize a run for the campaign result store (lossless for
    everything campaign summaries and reports consume)."""
    return {
        "config_label": result.config_label,
        "breakdown": breakdown_to_dict(result.breakdown),
        "verified": bool(result.verified),
        "ckpt_count": result.ckpt_count,
        "recovery_episodes": result.recovery_episodes,
        "relaunches": result.relaunches,
        "fault_events": [_fault_event_to_wire(e)
                         for e in result.fault_events],
        "details": result.details,
    }


def run_result_from_dict(data: dict) -> RunResult:
    return RunResult(
        config_label=data["config_label"],
        breakdown=breakdown_from_dict(data["breakdown"]),
        verified=data["verified"],
        ckpt_count=data.get("ckpt_count", 0),
        recovery_episodes=data.get("recovery_episodes", 0),
        relaunches=data.get("relaunches", 0),
        fault_events=tuple(_fault_event_from_wire(entry)
                           for entry in data.get("fault_events", ())),
        details=data.get("details", {}),
    )


def try_run_result_from_dict(data):
    """``run_result_from_dict`` or ``None`` on undecodable payloads.

    The single definition of "usable record" shared by the engine's
    resume path, store summarisation and the completeness check, so the
    three can never disagree about which stored runs count: foreign
    tools, old schemas or hand-edited records yield ``None`` (the run
    is simply treated as not-done; re-running is always safe because
    runs are deterministic).
    """
    from ..errors import ConfigurationError

    try:
        return run_result_from_dict(data)
    except (ConfigurationError, KeyError, TypeError, ValueError):
        return None


def average_breakdowns(breakdowns) -> TimeBreakdown:
    """Mean of several repetitions (the paper averages five runs)."""
    breakdowns = list(breakdowns)
    n = len(breakdowns)
    if n == 0:
        raise ValueError("cannot average zero runs")
    return TimeBreakdown(
        total_seconds=sum(b.total_seconds for b in breakdowns) / n,
        ckpt_write_seconds=sum(b.ckpt_write_seconds
                               for b in breakdowns) / n,
        recovery_seconds=sum(b.recovery_seconds for b in breakdowns) / n,
        ckpt_read_seconds=sum(b.ckpt_read_seconds for b in breakdowns) / n,
    )

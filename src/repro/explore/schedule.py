"""Phase-anchored fault schedules: *what to break, relative to when*.

A :class:`FaultSchedule` is a frozen list of :class:`AnchoredFault`
events, each naming a phase window instead of a wall-clock instant:
*"0.5 s into the second L1 checkpoint write, kill rank 3"*. Anchoring
makes schedules portable across configurations (the same schedule aims
at the same structural moment whether the window opens at t=4.1 s or
t=19.7 s) and is what lets a search enumerate *interesting* instants —
phase boundaries — instead of sweeping a continuum.

Schedules serialize to a compact one-line spec so they fit the
existing scenario grammar (``at-phase:<spec>``), campaign run keys and
result stores. The spec grammar is deliberately **colon-free**
(``parse_scenario_spec`` splits on ``:``) — events are joined by
``;``, each event is::

    anchor[~occurrence][+offset][@rRANK | @nNODE]

* ``anchor`` — a phase name from the probed timeline's catalog
  (``ckpt.L1.write``, ``ulfm.shrink``, ``reinit.rollback``, ...);
* ``~occurrence`` — which numbered window of that anchor (default 0,
  the first);
* ``+offset`` — seconds into the window (default 0.0, the boundary);
* ``@rRANK`` — kill that exact rank; ``@nNODE`` — fail that whole
  node. Default: the window's first participating rank.

Examples::

    ckpt.L1.write+0.5                   # mid-write, default victim
    ckpt.L1.write~2@n3                  # 3rd write window, node 3 dies
    ckpt.L1.write;ulfm.shrink@r0        # second fault inside the repair
                                        # the first one triggers

Lowering to exact-time :class:`~repro.faults.plans.TimedFault` events
is **iterative** (see :mod:`repro.explore.engine`): event *k* resolves
against a timeline probed with events ``0..k-1`` already replayed, so a
later event may anchor to a recovery phase an earlier event provokes.
This module only resolves a single event against a given timeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

from .timeline import PhaseTimeline
from ..errors import ConfigurationError
from ..faults.plans import TimedFault

_ATOM = re.compile(
    r"^(?P<anchor>[A-Za-z][\w.\-]*)"
    r"(?:~(?P<occurrence>\d+))?"
    r"(?:\+(?P<offset>\d+(?:\.\d+)?))?"
    r"(?:@(?P<victim>[rn]\d+))?$")


@dataclass(frozen=True)
class AnchoredFault:
    """One fault aimed at a phase window.

    ``rank`` and ``node`` are exclusive; both ``None`` means "the
    window's first participating rank" (resolved at lowering time).
    """

    anchor: str
    occurrence: int = 0
    offset: float = 0.0
    rank: int | None = None
    node: int | None = None

    def __post_init__(self):
        if not self.anchor:
            raise ConfigurationError("anchored fault needs an anchor name")
        if self.occurrence < 0 or self.offset < 0.0:
            raise ConfigurationError(
                "anchored fault needs non-negative occurrence/offset")
        if self.rank is not None and self.node is not None:
            raise ConfigurationError(
                "anchored fault takes a rank or a node, not both")

    @property
    def kind(self) -> str:
        return "node" if self.node is not None else "process"

    # -- spec atoms ----------------------------------------------------------
    def to_atom(self) -> str:
        """The canonical spec atom (defaults omitted)."""
        atom = self.anchor
        if self.occurrence:
            atom += "~%d" % self.occurrence
        if self.offset:
            # shortest digits that parse back to this exact float, never
            # in exponent form (the atom grammar has none)
            atom += "+" + np.format_float_positional(self.offset, trim="-")
        if self.rank is not None:
            atom += "@r%d" % self.rank
        elif self.node is not None:
            atom += "@n%d" % self.node
        return atom

    @classmethod
    def parse_atom(cls, atom: str) -> "AnchoredFault":
        match = _ATOM.match(atom.strip())
        if match is None:
            raise ConfigurationError(
                "bad schedule atom %r (grammar: "
                "anchor[~occurrence][+offset][@rRANK|@nNODE])" % (atom,))
        victim = match.group("victim")
        return cls(
            anchor=match.group("anchor"),
            occurrence=int(match.group("occurrence") or 0),
            offset=float(match.group("offset") or 0.0),
            rank=int(victim[1:]) if victim and victim[0] == "r" else None,
            node=int(victim[1:]) if victim and victim[0] == "n" else None)

    # -- lowering ------------------------------------------------------------
    def lower(self, timeline: PhaseTimeline, nprocs: int,
              nnodes: int) -> TimedFault:
        """Resolve this event to an exact-time kill using ``timeline``.

        Node victims are mapped to a representative rank through the
        default block placement (the runtime then fails the whole node
        that rank lives on).
        """
        from ..cluster.machine import block_placement

        window = timeline.resolve(self.anchor, self.occurrence)
        when = window.start + self.offset
        if self.node is not None:
            per_node, occupied = block_placement(nprocs, nnodes)
            rank = self.node * per_node
            if self.node >= occupied or rank >= nprocs:
                raise ConfigurationError(
                    "schedule targets node %d but the job occupies "
                    "nodes 0..%d" % (self.node, occupied - 1))
            return TimedFault(time=when, rank=rank, kind="node",
                              epoch=window.epoch)
        if self.rank is not None:
            if self.rank >= nprocs:
                raise ConfigurationError(
                    "schedule targets rank %d but the job has %d ranks"
                    % (self.rank, nprocs))
            rank = self.rank
        else:
            live = [r for r in window.ranks if 0 <= r < nprocs]
            rank = live[0] if live else 0
        return TimedFault(time=when, rank=rank, epoch=window.epoch)


@dataclass(frozen=True)
class FaultSchedule:
    """An ordered, frozen sequence of :class:`AnchoredFault` events."""

    events: tuple = ()

    def __post_init__(self):
        if not all(isinstance(e, AnchoredFault) for e in self.events):
            raise ConfigurationError(
                "FaultSchedule takes AnchoredFault events")

    def __len__(self) -> int:
        return len(self.events)

    # -- spec ----------------------------------------------------------------
    def to_spec(self) -> str:
        """The canonical one-line spec (round-trips through parse)."""
        return ";".join(e.to_atom() for e in self.events)

    @classmethod
    def parse(cls, spec: str) -> "FaultSchedule":
        atoms = [a for a in (part.strip() for part in spec.split(";")) if a]
        if not atoms:
            raise ConfigurationError(
                "empty fault schedule (need at least one "
                "anchor[~occ][+offset][@victim] atom)")
        return cls(events=tuple(
            AnchoredFault.parse_atom(atom) for atom in atoms))

    # -- serialization -------------------------------------------------------
    def to_dict(self) -> dict:
        return {"spec": self.to_spec()}

    @classmethod
    def from_dict(cls, data: dict) -> "FaultSchedule":
        return cls.parse(data["spec"])


__all__ = ["AnchoredFault", "FaultSchedule"]

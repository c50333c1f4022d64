"""Trace spans: campaign events + phase hooks -> Chrome trace JSON.

Two signal sources merge into one hierarchical trace:

* the **campaign event stream** (``repro.core.events``) supplies the
  outer spans — the campaign itself and every unit attempt, stamped
  with wall time (``time.perf_counter``) as the events pass through
  :meth:`Tracer.observe`;
* the **phase-hook protocol** (``repro.explore.timeline.PhaseHook``)
  supplies the inner spans — ``ckpt.L<n>.write/read``, ULFM repair
  steps, Reinit rollback, Restart redeploy — recorded in *virtual*
  simulator seconds inside the run and linearly mapped into the unit's
  wall window at export time (``args.sim_start/sim_end`` keep the raw
  coordinates). A traced unit is ``execute_unit(unit, phase_hook=
  PhaseRecorder())``: the engine hands the recorder in as an argument
  and ships ``recorder.to_wire()`` plus the iteration high-water mark
  on :class:`~repro.core.events.UnitCompleted` (through the worker pipe
  under the spawn worker); nothing in this module runs inside a unit.

The export format is the Chrome trace-event JSON array form wrapped in
``{"traceEvents": [...]}`` — load it in Perfetto / ``chrome://tracing``.
Nesting is positional: the campaign span lives on track (pid 1, tid 0),
each in-flight unit claims the lowest free track >= 1 for its duration
(mirroring worker-slot occupancy), and a unit's phase spans render on
its track inside its span. Every unit span carries its ``run_key`` so
traces correlate with stores and determinism pins.

This module owns the wall-clock reads the rest of the tree must not
make (``WALLCLOCK_SANCTIONED_DIRS`` in the contracts manifest): virtual
sim time stays untouched — a tracer *observes* runs, it never feeds
time back into them.
"""

from __future__ import annotations

import heapq
import json
import time

from ..core import events as ev
from ..errors import ConfigurationError

# -- the tracer --------------------------------------------------------------

class _UnitTrack:
    """Book-keeping for one in-flight unit span."""

    __slots__ = ("unit", "tid", "start", "attempt")

    def __init__(self, unit, tid, start, attempt=1):
        self.unit = unit
        self.tid = tid
        self.start = start
        self.attempt = attempt


class Tracer:
    """Observe a campaign event stream; export Chrome trace JSON.

    Feed every event from :meth:`repro.api.Session.stream` through
    :meth:`observe`; call :meth:`to_chrome` (or :meth:`write`) after
    the stream ends. Timestamps are microseconds relative to the first
    observed event, taken from ``time.perf_counter`` at observe time.
    """

    PID = 1

    def __init__(self, name="campaign"):
        self.name = name
        self._t0 = None
        self._events = []        # finished chrome events
        self._campaign = None    # (start_us, meta dict)
        self._open = {}          # unit.key -> _UnitTrack
        self._free_tids = []     # min-heap of released unit tracks
        self._next_tid = 1
        self._counts = {"completed": 0, "failed": 0, "skipped": 0,
                        "retried": 0}

    # -- clock ---------------------------------------------------------
    def _now_us(self):
        now = time.perf_counter()
        if self._t0 is None:
            self._t0 = now
        return (now - self._t0) * 1e6

    # -- track allocation ----------------------------------------------
    def _claim_tid(self):
        if self._free_tids:
            return heapq.heappop(self._free_tids)
        tid = self._next_tid
        self._next_tid += 1
        return tid

    def _release_tid(self, tid):
        heapq.heappush(self._free_tids, tid)

    # -- event intake ----------------------------------------------------
    def observe(self, event):
        """Fold one campaign event into the trace (unknown kinds pass)."""
        now = self._now_us()
        if isinstance(event, ev.CampaignStarted):
            self._campaign = (now, {"total": event.total,
                                    "pending": event.pending,
                                    "resumed": event.resumed,
                                    "jobs": event.jobs})
        elif isinstance(event, ev.UnitStarted):
            track = _UnitTrack(event.unit, self._claim_tid(), now)
            self._open[event.unit.key] = track
        elif isinstance(event, ev.UnitCompleted):
            self._close_unit(event.unit, now, "completed",
                             result=event.result, phases=event.phases,
                             iterations=event.iterations)
            self._counts["completed"] += 1
        elif isinstance(event, ev.UnitFailed):
            self._close_unit(event.unit, now, "failed",
                             error=str(event.error))
            self._counts["failed"] += 1
        elif isinstance(event, ev.UnitRetrying):
            self._retry_unit(event, now)
            self._counts["retried"] += 1
        elif isinstance(event, ev.UnitSkipped):
            self._events.append({
                "name": "resume:%s" % event.unit.describe(), "ph": "i",
                "cat": "unit", "ts": now, "pid": self.PID, "tid": 0,
                "s": "t", "args": {"run_key": event.unit.key}})
            self._counts["skipped"] += 1
        elif isinstance(event, (ev.CampaignFinished, ev.CampaignAborted)):
            self._finish_campaign(event, now)
        return event

    def _unit_args(self, unit, outcome, result=None, error=None, attempt=1,
                   iterations=-1):
        args = {"run_key": unit.key, "label": unit.config.label(),
                "rep": unit.rep, "outcome": outcome, "attempt": attempt}
        if result is not None:
            args["makespan_sim_sec"] = result.breakdown.total_seconds
            args["verified"] = result.verified
        if iterations >= 0:
            args["iterations"] = iterations
        if error is not None:
            args["error"] = error
        return args

    def _close_unit(self, unit, now, outcome, result=None, error=None,
                    phases=(), iterations=-1):
        track = self._open.pop(unit.key, None)
        if track is None:
            # completion without a observed start (e.g. a consumer that
            # filters events): record an instant, keep the trace valid
            self._events.append({
                "name": unit.describe(), "ph": "i", "cat": "unit",
                "ts": now, "pid": self.PID, "tid": 0, "s": "t",
                "args": self._unit_args(unit, outcome, result, error)})
            return
        start, tid = track.start, track.tid
        self._events.append({
            "name": unit.describe(), "ph": "X", "cat": "unit",
            "ts": start, "dur": max(0.0, now - start),
            "pid": self.PID, "tid": tid,
            "args": self._unit_args(unit, outcome, result, error,
                                    track.attempt, iterations)})
        if phases and result is not None:
            self._emit_phases(unit, phases, result, start, now, tid)
        self._release_tid(tid)

    def _retry_unit(self, event, now):
        """Close the failed attempt's span; the redispatch reopens it."""
        track = self._open.get(event.unit.key)
        self._events.append({
            "name": "retry:%s" % event.unit.describe(), "ph": "i",
            "cat": "unit", "ts": now, "pid": self.PID,
            "tid": track.tid if track else 0, "s": "t",
            "args": {"run_key": event.unit.key, "attempt": event.attempt,
                     "delay": event.delay}})
        if track is not None:
            track.attempt = event.attempt + 1

    def _emit_phases(self, unit, phases, result, start, end, tid):
        """Map virtual-time phase spans into the unit's wall window."""
        makespan = result.breakdown.total_seconds
        window = max(0.0, end - start)
        scale = (window / makespan) if makespan > 0 else 0.0
        for row in phases:
            anchor, rank, v_start, v_end, epoch = row
            ts = start + min(window, max(0.0, v_start * scale))
            te = start + min(window, max(0.0, v_end * scale))
            self._events.append({
                "name": anchor, "ph": "X", "cat": "phase",
                "ts": ts, "dur": max(0.0, te - ts),
                "pid": self.PID, "tid": tid,
                "args": {"run_key": unit.key, "rank": rank, "epoch": epoch,
                         "sim_start": v_start, "sim_end": v_end}})

    def _finish_campaign(self, event, now):
        start, meta = self._campaign if self._campaign else (now, {})
        args = dict(meta)
        args.update(self._counts)
        if isinstance(event, ev.CampaignAborted):
            args["aborted"] = event.reason
        self._events.append({
            "name": self.name, "ph": "X", "cat": "campaign",
            "ts": start, "dur": max(0.0, now - start),
            "pid": self.PID, "tid": 0, "args": args})

    # -- export --------------------------------------------------------
    def to_chrome(self):
        """The trace as a Chrome trace-event JSON object."""
        events = sorted(self._events,
                        key=lambda e: (e["ts"], e["tid"], e["name"]))
        return {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"producer": "repro.obs", "name": self.name},
        }

    def write(self, path):
        payload = self.to_chrome()
        problems = validate_trace(payload)
        if problems:
            raise ConfigurationError(
                "refusing to write malformed trace: %s" % "; ".join(problems))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=1)
            fh.write("\n")
        return path


# -- validation --------------------------------------------------------------

def validate_trace(payload):
    """Structural checks on an exported trace; returns a problem list.

    Pins the obs-smoke contract: one campaign span, every unit span
    nested inside it with a ``run_key``, every phase span inside a unit
    span on the same track.
    """
    problems = []
    if not isinstance(payload, dict) or "traceEvents" not in payload:
        return ["payload is not a {traceEvents: [...]} object"]
    events = payload["traceEvents"]
    if not isinstance(events, list) or not events:
        return ["traceEvents is empty"]
    campaigns, units = [], []
    for i, event in enumerate(events):
        for field_name in ("name", "ph", "ts", "pid", "tid"):
            if field_name not in event:
                problems.append("event %d missing %r" % (i, field_name))
        if event.get("ph") == "X" and event.get("dur", -1) < 0:
            problems.append("event %d: X event with negative/missing dur"
                            % i)
        cat = event.get("cat")
        if cat == "campaign" and event.get("ph") == "X":
            campaigns.append(event)
        elif cat == "unit" and event.get("ph") == "X":
            units.append(event)
    if len(campaigns) != 1:
        problems.append("expected exactly 1 campaign span, found %d"
                        % len(campaigns))
        return problems
    campaign = campaigns[0]
    c_start = campaign["ts"]
    c_end = c_start + campaign.get("dur", 0.0)
    slack = 1.0  # microsecond tolerance for float mapping
    for event in units:
        name = event.get("name", "?")
        if "run_key" not in event.get("args", {}):
            problems.append("unit span %r has no run_key arg" % name)
        if (event["ts"] < c_start - slack
                or event["ts"] + event.get("dur", 0.0) > c_end + slack):
            problems.append("unit span %r escapes the campaign span" % name)
    unit_windows = [(e["tid"], e["ts"], e["ts"] + e.get("dur", 0.0))
                    for e in units]
    for event in events:
        if event.get("cat") != "phase" or event.get("ph") != "X":
            continue
        ts = event["ts"]
        te = ts + event.get("dur", 0.0)
        tid = event["tid"]
        inside = any(tid == u_tid and ts >= u_start - slack
                     and te <= u_end + slack
                     for u_tid, u_start, u_end in unit_windows)
        if not inside:
            problems.append("phase span %r not nested in a unit span"
                            % event.get("name", "?"))
    return problems

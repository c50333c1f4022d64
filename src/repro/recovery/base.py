"""Common interface for the three MPI recovery strategies.

A recovery strategy owns the job-level control flow: how a job reacts to
a process failure (teardown + redeploy, runtime-level global restart, or
application-level communicator repair) and how much virtual time each
reaction costs. :class:`repro.core.designs.DesignBase` builds every
job's Runtime from a strategy's hooks — ``errhandler``, ``overhead``,
``install``, ``on_abort`` — and reads the run's recovery episodes back
with ``take_episodes``.
"""

from __future__ import annotations

from ..simmpi.errhandler import ErrHandler


def overlap_clusters(items, span) -> list:
    """Group ``items`` — sorted by start — into clusters of overlapping
    spans; ``span(item)`` gives its ``(start, end)``.

    An item joins the current cluster unless it starts strictly after
    every item so far has ended (touching endpoints join). Used for
    ULFM's repair episodes and the explorer's phase windows alike.
    """
    clusters = []
    cluster_end = None
    for item in items:
        start, end = span(item)
        if not clusters or start > cluster_end:
            clusters.append([item])
        else:
            clusters[-1].append(item)
        cluster_end = end if cluster_end is None else max(cluster_end, end)
    return clusters


class RecoveryStrategy:
    """Base class; concrete strategies override the hooks they need."""

    name = "base"
    #: error handler of the job's world communicator
    errhandler = ErrHandler.FATAL
    #: failure-free overhead model of the runtime (None: the default)
    overhead = None

    def __init__(self):
        #: per-episode recovery seconds of the current run, in order
        self.episodes: list = []

    def install(self, runtime) -> None:
        """Attach runtime-level hooks to a freshly built runtime."""

    def on_abort(self, nprocs: int):
        """The job aborted: seconds until it is redeployed, or None when
        the abort is fatal."""
        return None

    def take_episodes(self) -> list:
        """The run's per-episode recovery seconds; resets the record."""
        episodes, self.episodes = self.episodes, []
        return episodes

"""The FTI programming interface (per rank), mirroring Figure 1 of the paper.

Lifecycle inside a rank's main::

    fti = Fti(mpi, cluster, registry, config)
    yield from fti.init()
    fti.protect(0, iteration_cell)
    fti.protect(1, state_array)
    while iterating:
        if fti.status() != 0:
            it = yield from fti.recover()
        if it % cfg.ckpt_stride == 0:
            yield from fti.checkpoint(it)
    yield from fti.finalize()

All timing (serialization, storage writes, the completion collective) is
charged on the calling rank's virtual clock; the per-rank totals are kept
in :attr:`Fti.stats` for the harness's execution-time breakdown.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .config import FtiConfig
from .levels import LEVELS, IoSpecs
from .metadata import CheckpointRegistry
from .serializer import ProtectedSet, ScalarRef
from ..errors import NoCheckpointError
from ..obs.metrics import REGISTRY as OBS_REGISTRY
from ..simmpi import ops
from ..simmpi.communicator import Communicator  # noqa: F401  (re-exported type)

#: telemetry counters (docs/OBSERVABILITY.md); pure observation — they
#: never touch virtual time, so the DET-WALLCLOCK discipline of this
#: subtree is intact. In spawn-pool workers these accumulate in the
#: worker's registry and ride the result pipe back to the campaign.
_CKPT_WRITES = OBS_REGISTRY.counter(
    "match_fti_ckpt_writes_total",
    "Completed collective checkpoint writes, by FTI level")
_CKPT_READS = OBS_REGISTRY.counter(
    "match_fti_ckpt_reads_total",
    "Per-rank checkpoint restores (FTI_Recover), by FTI level")


@dataclass
class FtiStats:
    """Per-rank timing/volume accounting for the breakdown figures."""

    ckpt_seconds: float = 0.0
    recover_seconds: float = 0.0
    ckpt_count: int = 0
    recover_count: int = 0
    bytes_written: int = 0
    bytes_read: int = 0


def group_members(rank: int, nprocs: int, group_size: int) -> range:
    """The ranks of ``rank``'s L3 encoding group — a pure function of
    its arguments, so every rank names the same groups.

    Ranks split into contiguous runs of ``group_size``, the last one
    shorter when ``nprocs`` is no multiple. A last run of one rank
    cannot encode alone: it joins the run before it, making one group
    of ``group_size + 1``.
    """
    start = rank // group_size * group_size
    if 0 < start == nprocs - 1:  # this rank is that lone tail
        start -= group_size
    end = start + group_size
    if end >= nprocs - 1:  # the last group: clipped, or taking the tail in
        end = nprocs
    return range(start, end)


class Fti:
    """One rank's FTI instance."""

    #: coordination overhead of FTI's internal collectives per log2(P)
    COORD_ALPHA = 0.02

    def __init__(self, mpi, cluster, registry: CheckpointRegistry,
                 config: FtiConfig | None = None,
                 stats: FtiStats | None = None):
        self.mpi = mpi
        self.cluster = cluster
        self.registry = registry
        self.config = config or FtiConfig()
        self.protected = ProtectedSet()
        #: accepts an external stats object so accounting survives the
        #: re-instantiation that Restart/Reinit/ULFM recovery causes
        self.stats = stats if stats is not None else FtiStats()
        self.rank = mpi.rank
        self.nprocs = mpi.size
        self.node_id = cluster.node_of(mpi.rank)
        self._level = LEVELS[self.config.level]()
        self._status = 0
        self._initialized = False
        self._nominal_bytes = 0
        self.group_comm = self._build_group_comm()
        #: what the level's nominal I/O formulas price against
        self._io = IoSpecs(
            config=self.config, node=cluster.node_spec,
            network=cluster.network, pfs_bandwidth=cluster.pfs.bandwidth,
            nprocs=self.nprocs, nnodes=cluster.nnodes,
            group_size=self.group_comm.size)

    def _build_group_comm(self) -> Communicator:
        members = group_members(self.rank, self.nprocs,
                                self.config.group_size)
        return self.mpi.cached_comm(list(members),
                                    "fti.group%d" % members[0])

    # -- lifecycle -----------------------------------------------------------
    def init(self):
        """``FTI_Init``: detect restart state; small coordination bcast."""
        has_ckpt = self.registry.has_checkpoint()
        agreed = yield from self.mpi.bcast(1 if has_ckpt else 0, root=0,
                                           nbytes=8)
        self._status = 1 if agreed else 0
        self._initialized = True

    def status(self) -> int:
        """``FTI_Status``: 0 on a fresh start, 1 when recovery is needed."""
        return self._status

    def protect(self, var_id: int, obj, name: str = "") -> None:
        """``FTI_Protect``: register a data object for checkpointing."""
        self.protected.protect(var_id, obj, name)

    def set_nominal_bytes(self, nbytes: int) -> None:
        """Declare the nominal checkpoint volume of this rank.

        Applications execute on capped arrays but their real counterparts
        checkpoint far more data; I/O time is inflated to the nominal
        volume (DESIGN.md substitution #4). Zero disables inflation.
        """
        self._nominal_bytes = int(nbytes)

    def _inflation_factor(self, actual_len: int) -> float:
        if self._nominal_bytes <= 0 or actual_len <= 0:
            return 1.0
        return max(1.0, self._nominal_bytes / actual_len)

    def unprotect(self, var_id: int) -> None:
        self.protected.unprotect(var_id)

    # -- checkpoint ---------------------------------------------------------------
    def checkpoint(self, iteration: int):
        """``FTI_Checkpoint``: persist every protected object.

        Charges serialization compute, level-specific storage/network time
        and FTI's completion collective on this rank's clock.
        """
        self._require_init()
        t0 = self.mpi.now()
        blob = self.protected.serialize()
        factor = self._inflation_factor(len(blob))
        # serialization cost: one read of the data + one write of the blob,
        # at the nominal data volume
        yield from self.mpi.compute(bytes_moved=2.0 * len(blob) * factor)
        record = self.registry.open_checkpoint(iteration, self.config.level,
                                               self.nprocs)
        anchor = "ckpt.L%d.write" % self.config.level
        self.mpi.phase_enter(anchor)
        t_io = self.mpi.now()
        entry = yield from self._level.write(self, self.mpi, blob, record)
        io_seconds = self.mpi.now() - t_io
        # top up measured I/O time to the modeled nominal-volume cost
        if self._nominal_bytes > 0:
            nominal_io = self._level.nominal_write_seconds(
                self._io, self._nominal_bytes)
            if nominal_io > io_seconds:
                yield from self.mpi.sleep(nominal_io - io_seconds)
        self.mpi.phase_exit(anchor)
        record.commit_rank(entry)
        # FTI's internal coordination: metadata agreement + group collectives
        yield from self.mpi.compute(
            seconds=self.COORD_ALPHA * math.log2(max(2, self.nprocs)))
        yield from self.mpi.allreduce(1, op=ops.SUM, nbytes=8)
        if record.complete:
            _CKPT_WRITES.inc(level=str(self.config.level))
            for victim in self.registry.garbage_collect(self.config.keep_last):
                self._level.delete(self, victim)
        self.stats.ckpt_count += 1
        self.stats.bytes_written += int(len(blob) * factor)
        self.stats.ckpt_seconds += self.mpi.now() - t0

    # -- recovery --------------------------------------------------------------------
    def recover(self):
        """``FTI_Recover``: restore protected objects from the newest
        complete checkpoint; returns its iteration number.

        The paper measures this in milliseconds (reads come from RAMFS),
        which is why the figures omit it; we charge it anyway.
        """
        self._require_init()
        t0 = self.mpi.now()
        record = self.registry.latest_complete()
        if record is None:
            raise NoCheckpointError("no complete checkpoint to recover from")
        anchor = "ckpt.L%d.read" % self.config.level
        self.mpi.phase_enter(anchor)
        t_io = self.mpi.now()
        blob = yield from self._level.read(self, self.mpi, record)
        io_seconds = self.mpi.now() - t_io
        factor = self._inflation_factor(len(blob))
        if self._nominal_bytes > 0:
            nominal_io = self._level.nominal_read_seconds(
                self._io, self._nominal_bytes)
            if nominal_io > io_seconds:
                yield from self.mpi.sleep(nominal_io - io_seconds)
        self.mpi.phase_exit(anchor)
        self.protected.deserialize_into(blob)
        yield from self.mpi.compute(bytes_moved=2.0 * len(blob) * factor)
        self._status = 0
        _CKPT_READS.inc(level=str(self.config.level))
        self.stats.recover_count += 1
        self.stats.bytes_read += int(len(blob) * factor)
        self.stats.recover_seconds += self.mpi.now() - t0
        return record.iteration

    def finalize(self):
        """``FTI_Finalize``: final synchronisation (keeps checkpoints)."""
        self._require_init()
        yield from self.mpi.barrier()
        self._initialized = False

    # -- helpers --------------------------------------------------------------------
    def checkpoint_due(self, iteration: int) -> bool:
        """True when the paper's ``iter % stride == 0`` policy fires."""
        return iteration > 0 and iteration % self.config.ckpt_stride == 0

    def protected_bytes(self) -> int:
        return self.protected.total_bytes()

    def _require_init(self) -> None:
        if not self._initialized:
            raise NoCheckpointError(
                "FTI_Init was not called (or finalize already ran)")


__all__ = ["Fti", "FtiConfig", "FtiStats", "ScalarRef"]

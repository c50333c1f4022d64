"""Storage tiers of the simulated cluster.

FTI really writes serialized checkpoint bytes into these stores, so failure
semantics are honest: killing a node destroys its RAMFS/SSD contents (L1
checkpoints die with it) while a partner node's copy or the parallel file
system survives. Write/read durations come from the tier's bandwidth.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..errors import ConfigurationError, SimulationError


@dataclass
class StoredObject:
    """One blob in a store, keyed by path."""

    path: str
    data: bytes
    written_at: float = 0.0


class ByteStore:
    """A flat path -> bytes store with a bandwidth and a small fixed latency."""

    def __init__(self, name: str, bandwidth: float, latency: float = 1e-4,
                 capacity_bytes: int | None = None):
        if bandwidth <= 0:
            raise ConfigurationError("store %r bandwidth must be positive" % name)
        self.name = name
        self.bandwidth = bandwidth
        self.latency = latency
        self.capacity_bytes = capacity_bytes
        self._objects: dict[str, StoredObject] = {}
        self.bytes_written = 0
        self.bytes_read = 0

    # -- capacity ----------------------------------------------------------
    def used_bytes(self) -> int:
        return sum(len(o.data) for o in self._objects.values())

    def _check_capacity(self, incoming: int) -> None:
        if self.capacity_bytes is None:
            return
        if self.used_bytes() + incoming > self.capacity_bytes:
            raise SimulationError(
                "store %r out of capacity (%d + %d > %d bytes)"
                % (self.name, self.used_bytes(), incoming, self.capacity_bytes)
            )

    # -- I/O ---------------------------------------------------------------
    def write(self, path: str, data: bytes, now: float = 0.0) -> float:
        """Store ``data`` at ``path``; returns the modeled write duration."""
        existing = self._objects.get(path)
        incoming = len(data) - (len(existing.data) if existing else 0)
        self._check_capacity(max(0, incoming))
        self._objects[path] = StoredObject(path, data, now)
        self.bytes_written += len(data)
        return self.latency + len(data) / self.bandwidth

    def read(self, path: str) -> tuple:
        """Return ``(data, duration)`` for ``path``; KeyError if missing."""
        obj = self._objects[path]
        self.bytes_read += len(obj.data)
        return obj.data, self.latency + len(obj.data) / self.bandwidth

    def exists(self, path: str) -> bool:
        return path in self._objects

    def delete(self, path: str) -> None:
        self._objects.pop(path, None)

    def paths(self, prefix: str = "") -> list:
        return sorted(p for p in self._objects if p.startswith(prefix))

    def wipe(self) -> None:
        """Destroy every object (what a node crash does to volatile tiers)."""
        self._objects.clear()


@dataclass
class NodeStorage:
    """Per-node volatile tiers: RAMFS (/dev/shm) and local SSD."""

    node_id: int
    ramfs: ByteStore = field(default=None)
    ssd: ByteStore = field(default=None)

    @classmethod
    def for_node(cls, node_id: int, ramfs_bandwidth: float,
                 ssd_bandwidth: float) -> "NodeStorage":
        return cls(
            node_id=node_id,
            ramfs=ByteStore("node%d:/dev/shm" % node_id, ramfs_bandwidth,
                            latency=2e-5),
            ssd=ByteStore("node%d:ssd" % node_id, ssd_bandwidth, latency=1e-4),
        )

    def wipe(self) -> None:
        self.ramfs.wipe()
        self.ssd.wipe()


#: the default PFS's aggregate bandwidth, bytes/s (also what the
#: analytic cost model prices L4 writes against)
PFS_BANDWIDTH = 5.0e10


class ParallelFileSystem(ByteStore):
    """Shared PFS (Lustre-style): durable, bandwidth shared across writers.

    Concurrency is priced by dividing aggregate bandwidth among concurrent
    writers; the FTI L4 layer passes the writer count.
    """

    def __init__(self, aggregate_bandwidth: float = PFS_BANDWIDTH,
                 latency: float = 2e-3):
        super().__init__("pfs", aggregate_bandwidth, latency)

    def write_shared(self, path: str, data: bytes, concurrent_writers: int,
                     now: float = 0.0) -> float:
        """Write under contention from ``concurrent_writers`` peers."""
        if concurrent_writers < 1:
            raise ConfigurationError("need at least one writer")
        duration = self.write(path, data, now)
        # the base write() already charged full bandwidth; rescale for share
        share = self.bandwidth / concurrent_writers
        return self.latency + len(data) / share

    def read_shared(self, path: str, concurrent_readers: int) -> tuple:
        data, _ = self.read(path)
        share = self.bandwidth / max(1, concurrent_readers)
        return data, self.latency + len(data) / share

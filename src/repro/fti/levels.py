"""The four FTI reliability levels as write/read strategies.

Each strategy is a pair of generator methods driven by the per-rank FTI
instance: ``write`` persists one rank's blob (charging storage and network
time on that rank's virtual clock) and ``read`` retrieves it at recovery,
falling back to redundancy when the primary copy is gone.

* **L1** — blob on the local node's RAMFS (or SSD). Dies with the node.
* **L2** — L1 plus a full copy on the ring-neighbour node.
* **L3** — L1 plus Reed-Solomon parity across a group of ranks: the group
  survives the loss of half its nodes.
* **L4** — flush to the parallel file system, optionally differential.

Each level also states its **nominal-volume** write/read path once, as
``nominal_write_seconds(io, nbytes)`` / ``nominal_read_seconds`` over an
:class:`IoSpecs` — plain specs, no live job — so ``Fti.checkpoint`` /
``recover`` (topping measured I/O up to the nominal volume) and the
analytic cost model (:mod:`repro.modeling.costs`) price the same
formula through the same function.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

from .config import MEMCPY_BANDWIDTH_SHARE, FtiConfig
from .metadata import CheckpointRegistry, RankEntry
from .rs_encoding import _padded_block, rs_code
from ..cluster.network import Network
from ..cluster.node import NodeSpec
from ..errors import (
    CorruptCheckpointError,
    InsufficientRedundancyError,
    NoCheckpointError,
)


def _local_store(fti):
    storage = fti.cluster.node_storage[fti.node_id]
    return storage.ssd if fti.config.use_ssd else storage.ramfs


def _blob_path(fti, ckpt_id: int, rank: int) -> str:
    return "fti/ckpt%06d/rank%05d.fti" % (ckpt_id, rank)


class IoSpecs(NamedTuple):
    """What a level's nominal I/O path is priced against: the policy,
    the machine specs and the job shape — buildable from a live
    ``Fti`` + ``Cluster`` or from a cost model's parameters alike
    (a tuple: the model builds one per priced cell)."""

    config: FtiConfig
    node: NodeSpec
    network: Network
    pfs_bandwidth: float
    nprocs: int
    nnodes: int
    #: ranks in this rank's L3 encoding group
    group_size: int
    memcpy_share: float = MEMCPY_BANDWIDTH_SHARE

    def local_bandwidth(self) -> float:
        return (self.node.ssd_bandwidth if self.config.use_ssd
                else self.node.ramfs_bandwidth)

    def memcpy_bandwidth(self) -> float:
        """One rank's share of its node's memory bandwidth for
        checkpoint memcpy (co-located ranks split it)."""
        rpn = max(1, -(-self.nprocs // self.nnodes))
        return self.node.memory_bandwidth * self.memcpy_share / rpn

    def memory_contention(self) -> float:
        """RAMFS writes are memcpy: once the ranks sharing a node demand
        more than the node's memory bandwidth, writes slow down — the
        paper's "modest increase with more processes" (§V-C)."""
        return max(1.0, self.node.ramfs_bandwidth / self.memcpy_bandwidth())


class L1Local:
    """Level 1: node-local checkpoint (the paper's evaluated mode)."""

    level = 1

    # -- nominal-volume cost models (capped-execution inflation) ---------
    @staticmethod
    def nominal_write_seconds(io: IoSpecs, nbytes: int) -> float:
        """Modeled write time for a nominal-size blob at this level."""
        return nbytes / io.local_bandwidth() * io.memory_contention()

    @staticmethod
    def nominal_read_seconds(io: IoSpecs, nbytes: int) -> float:
        """The happy path reads the surviving local copy at every
        level: the L1 write path's cost."""
        return L1Local.nominal_write_seconds(io, nbytes)

    def write(self, fti, mpi, blob: bytes, record):
        store = _local_store(fti)
        path = _blob_path(fti, record.ckpt_id, mpi.rank)
        yield from mpi.store_write(store, path, blob)
        entry = RankEntry(rank=mpi.rank, node_id=fti.node_id, path=path,
                          nbytes=len(blob),
                          crc32=CheckpointRegistry.checksum(blob))
        return entry

    def read(self, fti, mpi, record):
        entry = record.entry(mpi.rank)
        store = fti.cluster.node_storage[entry.node_id]
        store = store.ssd if fti.config.use_ssd else store.ramfs
        if not store.exists(entry.path):
            raise NoCheckpointError(
                "L1 blob of rank %d lost with node %d"
                % (mpi.rank, entry.node_id))
        blob = yield from mpi.store_read(store, entry.path)
        _verify(blob, entry)
        return blob

    def delete(self, fti, record):
        entry = record.entries.get(fti.rank)
        if entry is None:
            return
        store = fti.cluster.node_storage[entry.node_id]
        store = store.ssd if fti.config.use_ssd else store.ramfs
        store.delete(entry.path)


class L2Partner(L1Local):
    """Level 2: L1 plus a copy on the partner (ring neighbour) node."""

    level = 2

    @staticmethod
    def nominal_write_seconds(io: IoSpecs, nbytes: int) -> float:
        base = L1Local.nominal_write_seconds(io, nbytes)
        transfer = nbytes / io.network.spec.beta_inter
        partner_write = nbytes / io.node.ramfs_bandwidth
        return base + transfer + partner_write

    def write(self, fti, mpi, blob: bytes, record):
        entry = yield from L1Local.write(self, fti, mpi, blob, record)
        partner = fti.cluster.partner_node(fti.node_id)
        partner_store = fti.cluster.node_storage[partner].ramfs
        partner_path = entry.path + ".partner"
        transfer = fti.cluster.network.ptp_time(len(blob), intra_node=False)
        yield from mpi.sleep(transfer)
        yield from mpi.store_write(partner_store, partner_path, blob)
        entry.partner_node = partner
        entry.partner_path = partner_path
        return entry

    def read(self, fti, mpi, record):
        try:
            blob = yield from L1Local.read(self, fti, mpi, record)
            return blob
        except (NoCheckpointError, CorruptCheckpointError):
            pass
        entry = record.entry(mpi.rank)
        partner_store = fti.cluster.node_storage[entry.partner_node].ramfs
        if not partner_store.exists(entry.partner_path):
            raise InsufficientRedundancyError(
                "both L2 copies of rank %d are gone" % mpi.rank)
        transfer = fti.cluster.network.ptp_time(entry.nbytes,
                                                intra_node=False)
        yield from mpi.sleep(transfer)
        blob = yield from mpi.store_read(partner_store, entry.partner_path)
        _verify(blob, entry)
        return blob

    def delete(self, fti, record):
        L1Local.delete(self, fti, record)
        entry = record.entries.get(fti.rank)
        if entry is not None and entry.partner_node is not None:
            self_store = fti.cluster.node_storage[entry.partner_node].ramfs
            self_store.delete(entry.partner_path)


class L3ReedSolomon(L1Local):
    """Level 3: RS(k, k) parity across a checkpoint group.

    Group ``g`` of size ``k`` holds ``k`` data shards (the blobs) and
    ``k`` parity shards, one of each per member node. Any ``k`` surviving
    shards rebuild all blobs — i.e. the group survives losing half its
    nodes, as the paper describes.
    """

    level = 3

    @staticmethod
    def nominal_write_seconds(io: IoSpecs, nbytes: int) -> float:
        base = L1Local.nominal_write_seconds(io, nbytes)
        k = io.group_size
        allgather = io.network.allgather_time(k, nbytes)
        encode = 2.0 * k * nbytes / io.memcpy_bandwidth()
        parity_write = nbytes / io.local_bandwidth()
        return base + allgather + encode + parity_write

    def write(self, fti, mpi, blob: bytes, record):
        entry = yield from L1Local.write(self, fti, mpi, blob, record)
        group_comm = fti.group_comm
        group_ranks = group_comm.world_ranks
        k = len(group_ranks)
        blobs = yield from mpi.allgather(blob, comm=group_comm,
                                         nbytes=len(blob))
        padded = _padded_block(blobs)
        padded_len = padded.shape[1]
        # encode cost: touching k shards twice per parity row, vectorised;
        # a rank computes one row, its own parity shard
        yield from mpi.compute(bytes_moved=2.0 * k * padded_len)
        my_index = group_comm.rank_of(mpi.rank)
        parity, = rs_code(k, k).member(my_index).encode(padded)
        store = _local_store(fti)
        parity_path = entry.path + ".rs"
        yield from mpi.store_write(store, parity_path, parity)
        entry.parity_path = parity_path
        entry.group_index = my_index
        entry.group_ranks = tuple(group_ranks)
        entry.padded_len = padded_len
        return entry

    def read(self, fti, mpi, record):
        try:
            blob = yield from L1Local.read(self, fti, mpi, record)
            return blob
        except (NoCheckpointError, CorruptCheckpointError):
            pass
        entry = record.entry(mpi.rank)
        group_ranks = entry.group_ranks
        k = len(group_ranks)
        shards: dict[int, bytes] = {}
        bytes_pulled = 0
        for member in group_ranks:
            member_entry = record.entry(member)
            idx = member_entry.group_index
            store = fti.cluster.node_storage[member_entry.node_id]
            store = store.ssd if fti.config.use_ssd else store.ramfs
            if store.exists(member_entry.path):
                raw, _ = store.read(member_entry.path)
                # the row write's _padded_block made of this blob
                shard = (raw + b"\x80")[:entry.padded_len].ljust(
                    entry.padded_len, b"\x00")
                shards[idx] = shard
                bytes_pulled += len(shard)
            if (member_entry.parity_path
                    and store.exists(member_entry.parity_path)):
                raw, _ = store.read(member_entry.parity_path)
                shards[k + idx] = raw
                bytes_pulled += len(raw)
            if len(shards) >= k:
                break
        if len(shards) < k:
            raise InsufficientRedundancyError(
                "group of rank %d lost more than half its shards"
                % mpi.rank)
        transfer = fti.cluster.network.ptp_time(bytes_pulled,
                                                intra_node=False)
        yield from mpi.sleep(transfer)
        yield from mpi.compute(bytes_moved=2.0 * k * entry.padded_len)
        mine, = rs_code(k, k).member(entry.group_index).decode(
            shards, entry.padded_len)
        blob = _strip_pad(mine)
        _verify(blob, entry)
        return blob

    def delete(self, fti, record):
        L1Local.delete(self, fti, record)
        entry = record.entries.get(fti.rank)
        if entry is not None and entry.parity_path is not None:
            store = fti.cluster.node_storage[entry.node_id]
            store = store.ssd if fti.config.use_ssd else store.ramfs
            store.delete(entry.parity_path)


class L4Pfs(L1Local):
    """Level 4: flush to the parallel file system; differential option.

    Differential checkpointing hashes fixed-size blocks of the blob and
    rewrites only the blocks that changed since the previous L4
    checkpoint, charging PFS time for the changed fraction only.
    """

    level = 4

    @staticmethod
    def nominal_write_seconds(io: IoSpecs, nbytes: int) -> float:
        base = L1Local.nominal_write_seconds(io, nbytes)
        share = io.pfs_bandwidth / max(1, io.nprocs)
        return base + nbytes / share

    def write(self, fti, mpi, blob: bytes, record):
        entry = yield from L1Local.write(self, fti, mpi, blob, record)
        pfs = fti.cluster.pfs
        pfs_path = entry.path + ".pfs"
        changed_bytes = len(blob)
        if fti.config.differential:
            changed_bytes = self._changed_bytes(fti, blob)
        pfs.write(pfs_path, blob, now=mpi.now())
        share = pfs.bandwidth / max(1, fti.nprocs)
        yield from mpi.sleep(pfs.latency + changed_bytes / share)
        entry.pfs_path = pfs_path
        return entry

    def _changed_bytes(self, fti, blob: bytes) -> int:
        block = fti.config.diff_block_bytes
        old_hashes = fti.registry.diff_hashes.setdefault(fti.rank, {})
        new_hashes, changed = {}, 0
        for index in range(0, len(blob), block):
            chunk = blob[index:index + block]
            digest = hashlib.blake2b(chunk, digest_size=16).digest()
            new_hashes[index // block] = digest
            if old_hashes.get(index // block) != digest:
                changed += len(chunk)
        fti.registry.diff_hashes[fti.rank] = new_hashes
        return changed

    def read(self, fti, mpi, record):
        try:
            blob = yield from L1Local.read(self, fti, mpi, record)
            return blob
        except (NoCheckpointError, CorruptCheckpointError):
            pass
        entry = record.entry(mpi.rank)
        pfs = fti.cluster.pfs
        if entry.pfs_path is None or not pfs.exists(entry.pfs_path):
            raise InsufficientRedundancyError(
                "rank %d has neither local nor PFS checkpoint" % mpi.rank)
        blob, duration = pfs.read_shared(entry.pfs_path, fti.nprocs)
        yield from mpi.sleep(duration)
        _verify(blob, entry)
        return blob

    def delete(self, fti, record):
        L1Local.delete(self, fti, record)
        entry = record.entries.get(fti.rank)
        if entry is not None and entry.pfs_path is not None:
            fti.cluster.pfs.delete(entry.pfs_path)


def _verify(blob: bytes, entry) -> None:
    if CheckpointRegistry.checksum(blob) != entry.crc32:
        raise CorruptCheckpointError(
            "rank %d checkpoint failed CRC verification" % entry.rank)


def _strip_pad(padded: bytes) -> bytes:
    """Undo :func:`pad_to_equal_length`: drop trailing zeros and the 0x80."""
    stripped = padded.rstrip(b"\x00")
    if not stripped.endswith(b"\x80"):
        raise CorruptCheckpointError("RS-decoded blob has a corrupt pad")
    return stripped[:-1]


LEVELS = {1: L1Local, 2: L2Partner, 3: L3ReedSolomon, 4: L4Pfs}

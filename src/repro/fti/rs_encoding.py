"""Systematic Reed-Solomon erasure coding across a checkpoint group.

FTI's L3 (§II-C): the checkpoints of a group of ``k`` ranks are encoded
with RS so that the group survives the loss of *half its nodes* — i.e.
``k`` data shards plus ``k`` parity shards, any ``k`` of which rebuild
everything. Shard ``i`` (data) and parity shard ``i`` both live on rank
``i``'s node, so losing a node destroys exactly two of ``2k`` shards.

The code is systematic: data shards are stored verbatim, so the failure-
free read path never pays a decode.

A group member needs one row of either product — its own parity shard
when writing, its own data shard when recovering — so the checkpoint
levels work through :meth:`ReedSolomonCode.member` views, which run a
1 x k mat-vec where the full code runs k of them.
"""

from __future__ import annotations

import copy
from functools import lru_cache

import numpy as np

from .gf256 import gf_mat_inv, gf_mat_vec, vandermonde
from ..errors import ConfigurationError, InsufficientRedundancyError


@lru_cache(maxsize=64)
def rs_code(k: int, m: int) -> "ReedSolomonCode":
    """Shared :class:`ReedSolomonCode` instance for ``(k, m)``.

    Building the systematic generator costs a Vandermonde build plus a
    GF matrix inversion; checkpoint groups reuse the same geometry for
    every checkpoint of a job, so the code object is cached process-wide
    (it is immutable after construction).
    """
    return ReedSolomonCode(k, m)


class ReedSolomonCode:
    """RS(k data, m parity) over GF(256), systematic form."""

    def __init__(self, k: int, m: int):
        if k < 1 or m < 0 or k + m > 255:
            raise ConfigurationError(
                "need 1 <= k, 0 <= m, k+m <= 255; got k=%d m=%d" % (k, m))
        self.k = k
        self.m = m
        # Build a (k+m) x k generator whose top k x k block is identity:
        # start from Vandermonde (any k rows independent), then normalise.
        v = vandermonde(k + m, k)
        top_inv = gf_mat_inv(v[:k, :])
        self.generator = gf_mat_vec(v, top_inv)  # (k+m) x k, systematic
        self.parity_matrix = self.generator[k:, :]
        #: the output rows ``encode`` / ``decode`` produce: all of them,
        #: or the one row of a :meth:`member` view
        self._rows = slice(None)
        self._decode_cache: dict = {}
        self._members: dict = {}

    def member(self, index: int) -> "ReedSolomonCode":
        """This code as group member ``index`` runs it: ``encode``
        returns ``[parity shard index]`` and ``decode`` ``[data shard
        index]`` — the same bytes as that entry of the full result, for
        one row's work. Views are cached and share the generator and
        the decode-matrix cache with the code they were taken from."""
        view = self._members.get(index)
        if view is None:
            if not 0 <= index < min(self.k, self.m):
                raise ConfigurationError(
                    "member index %d outside RS(%d, %d)"
                    % (index, self.k, self.m))
            view = self._members[index] = copy.copy(self)
            view._rows = slice(index, index + 1)
        return view

    # -- encoding -----------------------------------------------------------
    def encode(self, data_shards) -> list:
        """Compute ``m`` parity shards from ``k`` equal-length data shards
        (a list of bytes, or the rows of a ``k x n`` uint8 block).

        Returns the parity shards as ``bytes``; data shards are unchanged
        (systematic code).
        """
        block = self._as_block(data_shards)
        parity = gf_mat_vec(self.parity_matrix[self._rows], block)
        return [row.tobytes() for row in parity]

    # -- decoding -------------------------------------------------------------
    def decode(self, shards: dict, shard_len: int) -> list:
        """Rebuild all ``k`` data shards from any ``k`` surviving shards.

        ``shards`` maps shard index (0..k+m-1; <k are data, >=k parity) to
        bytes. Raises :class:`InsufficientRedundancyError` with fewer than
        ``k`` survivors.
        """
        use = sorted(shards)[:self.k]
        if len(use) < self.k:
            raise InsufficientRedundancyError(
                "need %d shards to decode, have %d" % (self.k, len(use)))
        if use[-1] < self.k:  # every data shard survived: nothing to solve
            return [bytes(shards[i]) for i in range(self.k)[self._rows]]
        inv = self._decode_matrix(tuple(use))
        block = np.empty((self.k, shard_len), dtype=np.uint8)
        for row, idx in enumerate(use):
            shard = np.frombuffer(shards[idx], dtype=np.uint8)
            if shard.size != shard_len:
                raise ConfigurationError(
                    "shard %d has length %d, expected %d"
                    % (idx, shard.size, shard_len))
            block[row] = shard
        data = gf_mat_vec(inv[self._rows], block)
        return [row.tobytes() for row in data]

    # -- helpers -----------------------------------------------------------------
    def _decode_matrix(self, use: tuple) -> np.ndarray:
        """Inverse of the generator rows for one survivor set, cached:
        repeated recoveries from the same loss pattern skip the
        Gauss-Jordan elimination."""
        cache = self._decode_cache
        inv = cache.get(use)
        if inv is None:
            if len(cache) >= 128:
                cache.clear()
            inv = cache[use] = gf_mat_inv(self.generator[list(use), :])
        return inv

    def _as_block(self, data_shards) -> np.ndarray:
        if len(data_shards) != self.k:
            raise ConfigurationError(
                "expected %d data shards, got %d" % (self.k, len(data_shards)))
        if isinstance(data_shards, np.ndarray) and data_shards.ndim == 2:
            return data_shards
        lengths = {len(s) for s in data_shards}
        if len(lengths) != 1:
            raise ConfigurationError(
                "data shards must be equal length, got %s" % sorted(lengths))
        block = np.empty((self.k, lengths.pop()), dtype=np.uint8)
        for i, shard in enumerate(data_shards):
            block[i] = np.frombuffer(shard, dtype=np.uint8)
        return block


def _padded_block(blobs: list) -> np.ndarray:
    """The ``len(blobs) x n`` uint8 block whose row ``i`` is blob ``i``,
    a 0x80 terminator and zeros, ``n`` being the longest blob plus one."""
    block = np.zeros((len(blobs), max(map(len, blobs)) + 1), dtype=np.uint8)
    for row, blob in zip(block, blobs):
        row[:len(blob)] = np.frombuffer(blob, dtype=np.uint8)
        row[len(blob)] = 0x80
    return block


def pad_to_equal_length(blobs: list) -> tuple:
    """Pad byte blobs to a common length; returns (padded, original_lengths).

    The common length is the max plus a 0x80 terminator-style pad so that
    all-zero tails cannot be confused with data (lengths are stored in
    metadata anyway; the pad byte is belt and braces).
    """
    return ([row.tobytes() for row in _padded_block(blobs)],
            [len(b) for b in blobs])

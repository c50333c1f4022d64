"""Reed-Solomon edge cases: survivor-set corners and code caching."""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import InsufficientRedundancyError
from repro.fti.rs_encoding import ReedSolomonCode, pad_to_equal_length, rs_code


def _group(k: int, nbytes: int = 400):
    rng = np.random.default_rng(k * 1000 + nbytes)
    blobs = [rng.integers(0, 256, size=nbytes - i, dtype=np.uint8).tobytes()
             for i in range(k)]
    padded, _ = pad_to_equal_length(blobs)
    code = rs_code(k, k)
    parity = code.encode(padded)
    return code, padded, parity


def test_decode_from_exactly_k_all_parity_survivors():
    k = 5
    code, padded, parity = _group(k)
    shards = {k + i: parity[i] for i in range(k)}  # every data shard lost
    decoded = code.decode(shards, len(padded[0]))
    assert decoded == [bytes(p) for p in padded]


def test_decode_from_mixed_data_and_parity_survivors():
    k = 6
    code, padded, parity = _group(k)
    # lose data shards 0,2,4 — recover from the survivors plus parity 0..2
    shards = {1: padded[1], 3: padded[3], 5: padded[5],
              k + 0: parity[0], k + 1: parity[1], k + 2: parity[2]}
    decoded = code.decode(shards, len(padded[0]))
    assert decoded == [bytes(p) for p in padded]


def test_systematic_fast_path_returns_data_verbatim():
    k = 4
    code, padded, parity = _group(k)
    # all data shards present (plus a parity shard that must be ignored)
    shards = {i: padded[i] for i in range(k)}
    shards[k + 2] = parity[2]
    decoded = code.decode(shards, len(padded[0]))
    assert decoded == [bytes(p) for p in padded]


def test_too_few_survivors_raises():
    k = 4
    code, padded, parity = _group(k)
    shards = {0: padded[0], k + 1: parity[1], k + 3: parity[3]}
    with pytest.raises(InsufficientRedundancyError):
        code.decode(shards, len(padded[0]))


def test_code_object_is_cached_per_geometry():
    assert rs_code(8, 8) is rs_code(8, 8)
    assert rs_code(8, 8) is not rs_code(4, 4)
    # the cached object is what repeated checkpoints of one group reuse:
    # its generator must be identical across lookups (no rebuild)
    g1 = rs_code(8, 8).generator
    g2 = rs_code(8, 8).generator
    assert g1 is g2


def test_decode_matrix_cache_reused_for_same_loss_pattern():
    k = 5
    code, padded, parity = _group(k)
    # rs_code(k, k) is process-wide: drop what earlier L3 runs decoded
    code._decode_cache.clear()
    shards = {k + i: parity[i] for i in range(k)}
    code.decode(shards, len(padded[0]))
    cache = code._decode_cache
    assert len(cache) == 1
    first = next(iter(cache.values()))
    code.decode(shards, len(padded[0]))
    assert next(iter(code._decode_cache.values())) is first


def test_fresh_instance_matches_cached_instance():
    k = 6
    fresh = ReedSolomonCode(k, k)
    cached = rs_code(k, k)
    assert np.array_equal(fresh.generator, cached.generator)
    assert np.array_equal(fresh.parity_matrix, cached.parity_matrix)

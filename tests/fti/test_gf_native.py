"""GF(256) mat-vec: native == numpy; own-row RS == the full code's row.

``gf_mat_vec`` runs in C when :mod:`repro.native` loaded and as a numpy
table-row loop otherwise; both are integer lookups + XOR, so the bytes
must match exactly. L3 works through ``ReedSolomonCode.member`` views
that compute one row; the full ``encode`` / ``decode`` are the reference
they are compared with here. The golden digest pins the ``.rs`` files an
L3 checkpoint leaves behind to what the pre-view (full-matrix) code wrote.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.native as native
from repro.cluster import Cluster
from repro.errors import ConfigurationError
from repro.fti import CheckpointRegistry, Fti, FtiConfig, ScalarRef
from repro.fti.gf256 import _MUL_TABLE, gf_mat_vec
from repro.fti.rs_encoding import ReedSolomonCode, rs_code
from repro.simmpi import Runtime


def reference_mat_vec(matrix, shards):
    """The definition, one table gather and an XOR reduction."""
    products = _MUL_TABLE[matrix[:, :, None], shards[None, :, :]]
    return np.bitwise_xor.reduce(products, axis=1)


def force_numpy(patch):
    """From here until ``patch`` is undone, the loader reports no library
    — what ``REPRO_NO_NATIVE=1`` or a missing compiler does."""
    patch.setattr(native, "_lib", None)
    patch.setattr(native, "_lib_tried", True)


def both_paths(matrix, shards, monkeypatch):
    served = gf_mat_vec(matrix, shards)
    with monkeypatch.context() as patch:
        force_numpy(patch)
        fallback = gf_mat_vec(matrix, shards)
    return served, fallback


# -- the kernel ---------------------------------------------------------------
@pytest.mark.parametrize("n", [0, 1, 7, 4096 + 3])
@pytest.mark.parametrize("r,k", [(1, 1), (1, 4), (4, 4), (3, 8), (16, 8)])
def test_native_equals_numpy_equals_definition(r, k, n, monkeypatch):
    rng = np.random.default_rng(r * 100003 + k * 1009 + n)
    matrix = rng.integers(0, 256, size=(r, k), dtype=np.uint8)
    shards = rng.integers(0, 256, size=(k, n), dtype=np.uint8)
    served, fallback = both_paths(matrix, shards, monkeypatch)
    assert served.dtype == fallback.dtype == np.uint8
    assert served.shape == fallback.shape == (r, n)
    assert served.tobytes() == fallback.tobytes()
    assert served.tobytes() == reference_mat_vec(matrix, shards).tobytes()


def test_non_contiguous_operands(monkeypatch):
    rng = np.random.default_rng(3)
    matrix = rng.integers(0, 256, size=(6, 10), dtype=np.uint8)[::2, ::2]
    shards = rng.integers(0, 256, size=(5, 2000), dtype=np.uint8)[:, ::2]
    assert not matrix.flags.c_contiguous and not shards.flags.c_contiguous
    served, fallback = both_paths(matrix, shards, monkeypatch)
    want = reference_mat_vec(matrix, shards)
    assert served.tobytes() == fallback.tobytes() == want.tobytes()


def test_read_only_frombuffer_shards(monkeypatch):
    rng = np.random.default_rng(4)
    raw = rng.integers(0, 256, size=4 * 333, dtype=np.uint8).tobytes()
    shards = np.frombuffer(raw, dtype=np.uint8).reshape(4, 333)
    assert not shards.flags.writeable
    matrix = rs_code(4, 4).parity_matrix[1:2]
    served, fallback = both_paths(matrix, shards, monkeypatch)
    want = reference_mat_vec(matrix, shards)
    assert served.tobytes() == fallback.tobytes() == want.tobytes()
    assert shards.tobytes() == raw  # operands untouched


def test_shape_mismatch_rejected_on_both_paths(monkeypatch):
    matrix = np.ones((2, 3), dtype=np.uint8)
    shards = np.ones((4, 5), dtype=np.uint8)
    with pytest.raises(ConfigurationError):
        gf_mat_vec(matrix, shards)
    force_numpy(monkeypatch)
    with pytest.raises(ConfigurationError):
        gf_mat_vec(matrix, shards)


def test_gf_symbol_lives_in_the_stencils_object():
    """One loader, one object: whichever client asks gets every kernel."""
    from repro.apps.kernels._accel import native_kernels

    lib = native_kernels()
    assert lib is native.native_kernels()
    if lib is not None:
        for symbol in ("apply_27pt", "apply_7pt", "gf_mat_vec"):
            assert hasattr(lib, symbol)


def test_loaded_gauge_reports_the_path_taken(monkeypatch):
    from repro.obs.metrics import REGISTRY

    gauge = REGISTRY.get("match_native_kernels_loaded")
    before = gauge.value()
    monkeypatch.setattr(native, "_lib", None)
    try:
        monkeypatch.setattr(native, "_lib_tried", False)
        monkeypatch.setenv("REPRO_NO_NATIVE", "1")
        assert native.native_kernels() is None
        assert gauge.value() == 0
        monkeypatch.setattr(native, "_lib_tried", False)
        monkeypatch.delenv("REPRO_NO_NATIVE")
        loaded = native.native_kernels() is not None
        assert gauge.value() == int(loaded)
    finally:
        gauge.set(before)


# -- own row == the full code's row -------------------------------------------
@settings(max_examples=60, deadline=None)
@given(st.integers(1, 9), st.integers(0, 300), st.randoms(use_true_random=False))
def test_member_encode_is_row_of_full_encode(k, n, rnd):
    code = ReedSolomonCode(k, k)
    data = [bytes(rnd.randrange(256) for _ in range(n)) for _ in range(k)]
    full = code.encode(data)
    block = np.frombuffer(b"".join(data), dtype=np.uint8).reshape(k, n)
    for i in range(k):
        assert code.member(i).encode(data) == [full[i]]
        assert code.member(i).encode(block) == [full[i]]
    assert code.encode(block) == full


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 8), st.integers(1, 200), st.randoms(use_true_random=False),
       st.data())
def test_member_decode_is_entry_of_full_decode(k, n, rnd, draw):
    code = ReedSolomonCode(k, k)
    data = [bytes(rnd.randrange(256) for _ in range(n)) for _ in range(k)]
    everything = dict(enumerate(data + code.encode(data)))
    survivors = draw.draw(st.sets(st.sampled_from(range(2 * k)), min_size=k))
    shards = {i: everything[i] for i in survivors}
    full = code.decode(shards, n)
    assert full == data
    for i in range(k):
        assert code.member(i).decode(shards, n) == [full[i]]


def test_member_views_are_cached_and_share_state():
    code = rs_code(4, 4)
    view = code.member(2)
    assert code.member(2) is view
    assert view.generator is code.generator
    assert view._decode_cache is code._decode_cache
    assert (view.k, view.m) == (4, 4)
    for bad in (-1, 4):
        with pytest.raises(ConfigurationError):
            code.member(bad)


def test_numpy_path_member_rows(monkeypatch):
    force_numpy(monkeypatch)
    code = ReedSolomonCode(5, 5)
    rng = np.random.default_rng(9)
    data = [rng.integers(0, 256, size=97, dtype=np.uint8).tobytes()
            for _ in range(5)]
    full = code.encode(data)
    assert [code.member(i).encode(data)[0] for i in range(5)] == full


# -- what an L3 checkpoint leaves in node storage -----------------------------
#: sha256 over (path, bytes) of every ``.rs`` file, in path order, that
#: :func:`l3_checkpoint` leaves — recorded at the parent of the change
#: that introduced member views, whose L3 wrote ``encode(...)[my_index]``
GOLDEN_RS_DIGEST = (
    "ceb3a19031ea4d0ebc1d3d541f7dc241a7c01403c63b8fcfe6c120cef90a2408")


def l3_checkpoint(cluster, registry, nprocs=8):
    """One L3 checkpoint of blobs whose lengths differ by rank, so the
    pad is exercised."""
    config = FtiConfig(level=3, ckpt_stride=1, group_size=4)

    def entry(mpi):
        fti = Fti(mpi, cluster, registry, config)
        yield from fti.init()
        rng = np.random.default_rng(1000 + mpi.rank)
        x = rng.random(40 + 3 * mpi.rank)
        it = ScalarRef(1)
        fti.protect(0, it)
        fti.protect(1, x)
        yield from fti.checkpoint(1)
        yield from fti.finalize()

    Runtime(cluster, nprocs, entry).run()


def rs_files_digest(cluster) -> tuple:
    digest = hashlib.sha256()
    count = 0
    for storage in cluster.node_storage:
        for path in sorted(storage.ramfs.paths()):
            if path.endswith(".rs"):
                data, _ = storage.ramfs.read(path)
                digest.update(path.encode() + b"\0" + data)
                count += 1
    return count, digest.hexdigest()


def test_l3_parity_files_match_golden_digest(monkeypatch):
    cluster = Cluster(nnodes=4)
    l3_checkpoint(cluster, CheckpointRegistry())
    assert rs_files_digest(cluster) == (8, GOLDEN_RS_DIGEST)
    # and the numpy path writes the same files
    force_numpy(monkeypatch)
    cluster = Cluster(nnodes=4)
    l3_checkpoint(cluster, CheckpointRegistry())
    assert rs_files_digest(cluster) == (8, GOLDEN_RS_DIGEST)

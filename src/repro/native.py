"""The one native (C) loader: source hash -> temp build -> ctypes.

Two layers have inner loops that numpy serves poorly — the proxy apps'
tiny stencils (:mod:`repro.apps.kernels._accel`) and FTI's GF(256)
mat-vec (:mod:`repro.fti.gf256`). Each keeps its own C source and its
own call; this module concatenates the sources, compiles **one** shared
object with the system C compiler at the first kernel call (never at
import) and hands both clients the same :mod:`ctypes` handle. With no
compiler, a read-only temp directory or ``REPRO_NO_NATIVE=1`` it
returns ``None`` and every client silently runs its numpy reference
(nothing is ever installed).

**Determinism contract.** A client's C kernel must produce the bytes of
its numpy reference: the stencils repeat the reference's per-element
floating-point operation sequence (hence ``-ffp-contract=off``, no
fused multiply-add), the GF kernel is integer table lookups and XOR.
``tests/apps/test_native_kernels.py`` and ``tests/fti/test_gf_native.py``
assert the equivalence byte for byte; simulated makespans do not depend
on which path runs.

``match_native_kernels_loaded`` (0/1) records which way the load went.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile

from .obs.metrics import REGISTRY as OBS_REGISTRY

_CFLAGS = ["-O3", "-fPIC", "-shared", "-ffp-contract=off"]

_LOADED = OBS_REGISTRY.gauge(
    "match_native_kernels_loaded",
    "1 when the compiled C kernels serve this process, 0 on the numpy "
    "fallback (no compiler, or REPRO_NO_NATIVE set)")

_lib = None
_lib_tried = False


def _build_library():
    """Compile the clients' sources into a cached shared object; None
    on any failure (no compiler, read-only filesystem, ...).

    A client defines ``NATIVE_SOURCE`` (C text) and ``NATIVE_SIGNATURES``
    (``{symbol: argtypes}``; every kernel returns void). Both are
    imported here, not at the top — they import this module — so
    whichever calls first gets the whole object."""
    from .apps.kernels import _accel
    from .fti import gf256

    clients = (_accel, gf256)
    source = "".join(client.NATIVE_SOURCE for client in clients)
    tag = hashlib.sha256(source.encode()).hexdigest()[:16]
    uid = getattr(os, "getuid", lambda: 0)()
    cache_dir = os.path.join(tempfile.gettempdir(),
                             "repro-match-native-%d" % uid)
    so_path = os.path.join(cache_dir, "kernels-%s.so" % tag)
    if not os.path.exists(so_path):
        try:
            os.makedirs(cache_dir, exist_ok=True)
            src_path = os.path.join(cache_dir, "kernels-%s.c" % tag)
            with open(src_path, "w") as fh:
                fh.write(source)
            for compiler in ("cc", "gcc", "clang"):
                proc = subprocess.run(
                    [compiler] + _CFLAGS + ["-o", so_path + ".tmp", src_path],
                    capture_output=True)
                if proc.returncode == 0:
                    os.replace(so_path + ".tmp", so_path)
                    break
            else:
                return None
        except OSError:
            return None
    try:
        lib = ctypes.CDLL(so_path)
    except OSError:
        return None
    for client in clients:
        for name, argtypes in client.NATIVE_SIGNATURES.items():
            fn = getattr(lib, name)
            fn.argtypes = argtypes
            fn.restype = None
    return lib


def native_kernels():
    """The loaded ctypes library, or None when unavailable/disabled."""
    global _lib, _lib_tried
    if not _lib_tried:
        _lib_tried = True
        if not os.environ.get("REPRO_NO_NATIVE"):
            _lib = _build_library()
        _LOADED.set(int(_lib is not None))
    return _lib

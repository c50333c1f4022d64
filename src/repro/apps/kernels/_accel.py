"""Native (C) stencil kernels, bit-identical to the numpy path.

The capped proxy-app grids are tiny (~10^3 cells), so the numpy stencil
implementations are dominated by per-call dispatch overhead — at 512
simulated ranks the 27-point stencil alone is a quarter of wall-clock.
This module holds the stencils' C source and their call; compiling and
loading is :mod:`repro.native`'s job (one shared object for every
native kernel in the tree, silent numpy fallback, ``REPRO_NO_NATIVE=1``
to force it).

**Determinism contract.** The C kernels perform the *exact same
per-element floating-point operation sequence* as the numpy reference
(subtractions applied shift-by-shift in the same order) and are compiled
with ``-ffp-contract=off`` so no fused-multiply-add can change rounding.
``tests/apps/test_native_kernels.py`` asserts bit-identical outputs
against the pure-numpy reference; simulated makespans do not depend on
which path runs.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ...native import native_kernels

NATIVE_SOURCE = r"""
#include <stddef.h>
#include <string.h>

/* Both kernels work in "padded space": the input is copied into the
   interior of a zero-bordered (nx+2, ny+2, nz+2) workspace, and each
   stencil shift becomes ONE long contiguous pass over the output
   workspace (halo cells accumulate garbage that is never read back),
   which the compiler auto-vectorises. Per-element operation order is
   identical to the numpy reference: out = c*u, then one subtraction per
   shift, shifts in the reference's iteration order. */

static void pack_pad(const double *restrict u, double *restrict pad,
                     ptrdiff_t nx, ptrdiff_t ny, ptrdiff_t nz)
{
    const ptrdiff_t py = ny + 2, pz = nz + 2;
    ptrdiff_t i, j;
    for (i = 0; i < nx; i++)
        for (j = 0; j < ny; j++)
            memcpy(pad + ((i + 1) * py + j + 1) * pz + 1,
                   u + (i * ny + j) * nz, nz * sizeof(double));
}

static void unpack_pad(const double *restrict opad, double *restrict out,
                       ptrdiff_t nx, ptrdiff_t ny, ptrdiff_t nz)
{
    const ptrdiff_t py = ny + 2, pz = nz + 2;
    ptrdiff_t i, j;
    for (i = 0; i < nx; i++)
        for (j = 0; j < ny; j++)
            memcpy(out + (i * ny + j) * nz,
                   opad + ((i + 1) * py + j + 1) * pz + 1,
                   nz * sizeof(double));
}

static void scale_into(const double *restrict pad, double *restrict opad,
                       double c, ptrdiff_t total)
{
    ptrdiff_t t;
    for (t = 0; t < total; t++)
        opad[t] = c * pad[t];
}

static void sub_shift(double *restrict opad, const double *restrict pad,
                      ptrdiff_t off, ptrdiff_t first, ptrdiff_t span)
{
    double *o = opad + first;
    const double *p = pad + first + off;
    ptrdiff_t t;
    for (t = 0; t < span; t++)
        o[t] -= p[t];
}

void apply_27pt(const double *restrict u, double *restrict out,
                double *restrict pad, double *restrict opad,
                ptrdiff_t nx, ptrdiff_t ny, ptrdiff_t nz)
{
    const ptrdiff_t py = ny + 2, pz = nz + 2;
    const ptrdiff_t total = (nx + 2) * py * pz;
    const ptrdiff_t first = (py + 1) * pz + 1;
    const ptrdiff_t span = ((nx - 1) * py + (ny - 1)) * pz + nz;
    ptrdiff_t s;
    pack_pad(u, pad, nx, ny, nz);
    scale_into(pad, opad, 27.0, total);
    for (s = 0; s < 27; s++) {
        const ptrdiff_t di = s / 9, dj = (s / 3) % 3, dk = s % 3;
        sub_shift(opad, pad, ((di - 1) * py + (dj - 1)) * pz + (dk - 1),
                  first, span);
    }
    unpack_pad(opad, out, nx, ny, nz);
}

void apply_7pt(const double *restrict u, double *restrict out,
               double *restrict pad, double *restrict opad,
               ptrdiff_t nx, ptrdiff_t ny, ptrdiff_t nz)
{
    const ptrdiff_t py = ny + 2, pz = nz + 2;
    const ptrdiff_t total = (nx + 2) * py * pz;
    const ptrdiff_t first = (py + 1) * pz + 1;
    const ptrdiff_t span = ((nx - 1) * py + (ny - 1)) * pz + nz;
    /* numpy reference order: axis 0 shift -1, +1; axis 1; axis 2 */
    const ptrdiff_t offs[6] = { -(py * pz), py * pz, -pz, pz, -1, 1 };
    ptrdiff_t s;
    pack_pad(u, pad, nx, ny, nz);
    scale_into(pad, opad, 6.0, total);
    for (s = 0; s < 6; s++)
        sub_shift(opad, pad, offs[s], first, span);
    unpack_pad(opad, out, nx, ny, nz);
}
"""

_STENCIL_ARGS = [ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] * 3
NATIVE_SIGNATURES = {"apply_27pt": _STENCIL_ARGS, "apply_7pt": _STENCIL_ARGS}

#: (nx, ny, nz) -> (pad, opad) float64 workspaces; pad borders stay zero
_workspaces: dict = {}


def _usable(u: np.ndarray) -> bool:
    return (u.dtype == np.float64 and u.ndim == 3
            and u.flags.c_contiguous and u.size > 0)


def _workspace(shape: tuple):
    ws = _workspaces.get(shape)
    if ws is None:
        padded = (shape[0] + 2, shape[1] + 2, shape[2] + 2)
        ws = _workspaces[shape] = (np.zeros(padded), np.empty(padded))
    return ws


def native_apply(name: str, u: np.ndarray):
    """Run kernel ``name`` natively; returns None if the native path
    cannot serve this input (caller falls back to numpy)."""
    lib = native_kernels()
    if lib is None or not _usable(u):
        return None
    pad, opad = _workspace(u.shape)
    out = np.empty_like(u)
    getattr(lib, name)(u.ctypes.data, out.ctypes.data,
                       pad.ctypes.data, opad.ctypes.data, *u.shape)
    return out

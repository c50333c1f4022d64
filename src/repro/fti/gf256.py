"""GF(2^8) arithmetic for Reed-Solomon erasure coding (FTI's L3 level).

Field elements are bytes; addition is XOR; multiplication uses exp/log
tables over the primitive polynomial x^8 + x^4 + x^3 + x^2 + 1 (0x11D),
the standard choice for storage RS codes. The bulk paths are table-
driven: a precomputed 256x256 product table turns a matrix product into
one table row per coefficient, looked up through a shard and XORed into
the output row. :func:`gf_mat_vec` runs that loop in C when the native
library (:mod:`repro.native`) loaded and in numpy otherwise — integer
lookups and XOR either way, so the bytes are the same by construction.
"""

from __future__ import annotations

import ctypes

import numpy as np

from ..errors import ConfigurationError
from ..native import native_kernels

NATIVE_SOURCE = r"""
#include <stddef.h>
#include <string.h>

/* out (r x n) = mat (r x k) * shards (k x n) over GF(256); mul is the
   256 x 256 product table, so one coefficient is one 256-byte row. */
void gf_mat_vec(const unsigned char *restrict mul,
                const unsigned char *restrict mat,
                const unsigned char *restrict shards,
                unsigned char *restrict out,
                ptrdiff_t r, ptrdiff_t k, ptrdiff_t n)
{
    ptrdiff_t i, j, t;
    memset(out, 0, r * n);
    for (i = 0; i < r; i++) {
        unsigned char *o = out + i * n;
        for (j = 0; j < k; j++) {
            const unsigned char *row = mul + 256 * (ptrdiff_t)mat[i * k + j];
            const unsigned char *s = shards + j * n;
            for (t = 0; t < n; t++)
                o[t] ^= row[s[t]];
        }
    }
}
"""

NATIVE_SIGNATURES = {
    "gf_mat_vec": [ctypes.c_void_p] * 4 + [ctypes.c_ssize_t] * 3}

_PRIMITIVE_POLY = 0x11D
FIELD_SIZE = 256

# -- table construction (module import time, ~microseconds) -----------------
_EXP = np.zeros(512, dtype=np.uint8)
_LOG = np.zeros(256, dtype=np.int32)
_x = 1
for _i in range(255):
    _EXP[_i] = _x
    _LOG[_x] = _i
    _x <<= 1
    if _x & 0x100:
        _x ^= _PRIMITIVE_POLY
_EXP[255:510] = _EXP[:255]  # wraparound so exp lookups never need a modulo

#: full product table: _MUL_TABLE[a, b] == a*b in GF(256) (64 KiB)
_MUL_TABLE = _EXP[_LOG[:, None] + _LOG[None, :]].astype(np.uint8)
_MUL_TABLE[0, :] = 0
_MUL_TABLE[:, 0] = 0


def gf_add(a: int, b: int) -> int:
    """Field addition (and subtraction): XOR."""
    return a ^ b


def gf_mul(a: int, b: int) -> int:
    """Field multiplication via the product table."""
    return int(_MUL_TABLE[a, b])


def gf_div(a: int, b: int) -> int:
    """Field division; raises on division by zero."""
    if b == 0:
        raise ZeroDivisionError("GF(256) division by zero")
    if a == 0:
        return 0
    return int(_EXP[(int(_LOG[a]) - int(_LOG[b])) % 255])


def gf_inv(a: int) -> int:
    """Multiplicative inverse."""
    if a == 0:
        raise ZeroDivisionError("zero has no inverse in GF(256)")
    return int(_EXP[255 - int(_LOG[a])])


def gf_pow(a: int, n: int) -> int:
    """``a**n`` in the field."""
    if a == 0:
        return 0 if n > 0 else 1
    return int(_EXP[(int(_LOG[a]) * n) % 255])


def gf_mul_vector(scalar: int, vec: np.ndarray) -> np.ndarray:
    """Multiply a uint8 vector by a scalar, element-wise in GF(256)."""
    return _MUL_TABLE[scalar][vec]


def gf_mat_vec(matrix: np.ndarray, shards: np.ndarray) -> np.ndarray:
    """GF(256) matrix (r x k) times shard block (k x n) -> (r x n).

    ``shards`` rows are uint8 vectors; the result row ``i`` is
    ``sum_j matrix[i, j] * shards[j]`` with field arithmetic.
    """
    r, k = matrix.shape
    if shards.shape[0] != k:
        raise ConfigurationError(
            "matrix/shard shape mismatch: %s vs %s"
            % (matrix.shape, shards.shape))
    n = shards.shape[1]
    mat = np.ascontiguousarray(matrix, dtype=np.uint8)
    block = np.ascontiguousarray(shards, dtype=np.uint8)
    lib = native_kernels()
    if lib is not None:
        out = np.empty((r, n), dtype=np.uint8)
        lib.gf_mat_vec(_MUL_TABLE.ctypes.data, mat.ctypes.data,
                       block.ctypes.data, out.ctypes.data, r, k, n)
        return out
    out = np.zeros((r, n), dtype=np.uint8)
    product = np.empty(n, dtype=np.uint8)
    for out_row, coefficients in zip(out, mat):
        for coefficient, shard in zip(coefficients, block):
            # uint8 indexes cannot leave a 256-entry row: "wrap" only
            # spares take() the bounce buffer of its checking mode
            np.take(_MUL_TABLE[coefficient], shard, out=product, mode="wrap")
            np.bitwise_xor(out_row, product, out=out_row)
    return out


def gf_mat_inv(matrix: np.ndarray) -> np.ndarray:
    """Invert a square GF(256) matrix by Gauss-Jordan elimination.

    Row updates are whole-matrix table gathers (no per-row Python loop).
    Raises :class:`numpy.linalg.LinAlgError` if singular.
    """
    n = matrix.shape[0]
    if matrix.shape != (n, n):
        raise ConfigurationError("matrix must be square")
    aug = np.concatenate(
        [matrix.astype(np.uint8), np.eye(n, dtype=np.uint8)], axis=1)
    for col in range(n):
        nonzero = np.nonzero(aug[col:, col])[0]
        if nonzero.size == 0:
            raise np.linalg.LinAlgError("singular GF(256) matrix")
        pivot = col + int(nonzero[0])
        if pivot != col:
            aug[[col, pivot]] = aug[[pivot, col]]
        inv_p = gf_inv(int(aug[col, col]))
        aug[col] = _MUL_TABLE[inv_p][aug[col]]
        # eliminate the pivot column from every other row at once
        factors = aug[:, col].copy()
        factors[col] = 0
        aug ^= _MUL_TABLE[factors[:, None], aug[col][None, :]]
    return aug[:, n:].copy()


def vandermonde(rows: int, cols: int) -> np.ndarray:
    """Vandermonde matrix V[i, j] = (i+1)^j over GF(256).

    Any ``cols`` rows of it are linearly independent for rows < 255,
    which is the property erasure codes need.
    """
    if rows >= FIELD_SIZE:
        raise ConfigurationError("at most 255 rows in GF(256) Vandermonde")
    logs = _LOG[np.arange(1, rows + 1)]
    powers = (logs[:, None] * np.arange(cols)[None, :]) % 255
    v = _EXP[powers].astype(np.uint8)
    # a^0 == 1 for every a, including the table's log(1) == 0 row
    v[:, 0] = 1
    return v

"""LAPACK's banded Hermitian positive-definite solve, zpbsv, taken from the
LAPACK that numpy already links.

numpy wraps no banded solver, and importing scipy.linalg for this one
routine costs a process about 27 MiB of resident memory.  numpy's wheels
ship OpenBLAS built with 64-bit integers, which exports zpbsv under a
suffixed name; the handle of numpy's own linalg extension finds it
through the extension's dependencies, so nothing new is mapped.  Where no
known name resolves (another BLAS, or a platform whose handle does not
search dependencies), the solve goes through scipy.linalg.lapack.zpbsv,
imported on first use.
"""

from __future__ import annotations

import ctypes

import numpy as np

from .zak import memo

# OpenBLAS ILP64 names: numpy >= 2 wheels, then numpy 1.2x wheels.
_SYMBOLS = ("scipy_zpbsv_64_", "zpbsv_64_")

_INT = ctypes.POINTER(ctypes.c_int64)


@memo(maxsize=1)
def _foreign():
    """The first of _SYMBOLS in numpy's LAPACK, typed for ctypes and looked
    up once per process, or None where none resolves."""
    try:
        from numpy.linalg import _umath_linalg
        lib = ctypes.CDLL(_umath_linalg.__file__)
    except (ImportError, AttributeError, OSError):
        return None
    for name in _SYMBOLS:
        try:
            fn = getattr(lib, name)
        except AttributeError:
            continue
        # UPLO, N, KD, NRHS, AB, LDAB, B, LDB, INFO, then UPLO's hidden
        # Fortran length.
        fn.argtypes = [ctypes.c_char_p, _INT, _INT, _INT, ctypes.c_void_p, _INT,
                       ctypes.c_void_p, _INT, _INT, ctypes.c_size_t]
        fn.restype = None
        return fn
    return None


def _check(band, rhs) -> None:
    if not (isinstance(band, np.ndarray) and band.dtype == np.complex128
            and band.ndim == 2 and min(band.shape) >= 1):
        raise ValueError("band must be a complex128 (kd + 1, n) array, kd >= 0, n >= 1")
    if not (band.flags.f_contiguous and band.flags.writeable):
        raise ValueError("band must be Fortran-contiguous and writeable")
    if not (isinstance(rhs, np.ndarray) and rhs.dtype == np.complex128
            and rhs.shape == band.shape[1:]):
        raise ValueError(f"right-hand side must be a complex128 vector of "
                         f"length {band.shape[1]}")
    if not (rhs.flags.c_contiguous and rhs.flags.writeable):
        raise ValueError("right-hand side must be contiguous and writeable")


def zpbsv(band: np.ndarray, rhs: np.ndarray) -> int:
    """Solve A x = rhs in place for a Hermitian positive-definite band A.

    band holds A's lower band in LAPACK's layout, (kd + 1, n) in column
    major order with band[i - j, j] = A[i, j] for j <= i <= j + kd.
    On return band holds the Cholesky factor L of A = L L^H in the same
    layout, and rhs holds x.  Returns LAPACK's info: 0 on success, k > 0
    when the leading minor of order k is not positive definite.  Raises
    ValueError on a malformed argument, before any foreign call.
    """
    _check(band, rhs)
    solve = _foreign()
    if solve is None:
        from scipy.linalg.lapack import zpbsv as f2py_zpbsv
        # f2py solves in place on the layouts _check admits.
        *_, info = f2py_zpbsv(band, rhs, lower=1, overwrite_ab=1, overwrite_b=1)
        return int(info)
    kd, n = band.shape[0] - 1, band.shape[1]
    n_, kd_, nrhs, ldab, ldb, info = (ctypes.c_int64(v) for v in (n, kd, 1, kd + 1, n, 0))
    solve(b"L", n_, kd_, nrhs, band.ctypes.data, ldab, rhs.ctypes.data, ldb, info, 1)
    return info.value

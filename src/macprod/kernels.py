"""f64 hot loops: numpy convolution, and recurrence stepping in C via ctypes.

``convolve`` is the oracle's truncated Cauchy product: ``np.convolve`` cut
to the operands' length up to 1025 entries (a series through z^1024), and
above that a recursive split into halves that never forms the block past
the cut.

``recurrence_steps`` runs the C loop in ``_STEP_C`` below.  It is compiled
with the system C compiler on first use, never at import, and cached as
``__pycache__/_step-<sha256 of the source>.<platform>.so`` next to this file
(written to a temporary file, then renamed into place), then loaded with
``ctypes``.  The loop accumulates in ascending index order and spells out
the complex product without fused multiply-adds, so it agrees bit for bit
with the pure-Python fallback in ``_kernels_py``.  The fallback runs when
no compiler is found, when the cache directory cannot be written, or when
``MACPROD_PURE=1`` is set before import.
"""

from __future__ import annotations

import functools
import os
import types

import numpy as np

from . import _kernels_py

_PURE = os.environ.get("MACPROD_PURE") == "1"

_STEP_C = r"""
/* u[n+1] = sum_i rows[n-n0][i] * u[n-i] for n = n0 .. n0+count-1, over
   complex values stored as interleaved (re, im) doubles */
void recurrence_steps(const double *rows, double *u, long n0, long count, long width)
{
    for (long j = 0; j < count; j++) {
        const double *row = rows + 2 * j * width;
        const double *v = u + 2 * (n0 + j);
        double re = 0.0, im = 0.0;
        for (long i = 0; i < width; i++) {
            double ar = row[2 * i], ai = row[2 * i + 1];
            double br = v[-2 * i], bi = v[-2 * i + 1];
            re = re + (ar * br - ai * bi);
            im = im + (ar * bi + ai * br);
        }
        u[2 * (n0 + j + 1)] = re;
        u[2 * (n0 + j + 1) + 1] = im;
    }
}
"""


def _build():
    """Compile and load _STEP_C; None without a compiler or a writable cache."""
    import ctypes
    import hashlib
    import subprocess
    import sysconfig
    import tempfile

    cache = os.path.join(os.path.dirname(os.path.abspath(__file__)), "__pycache__")
    digest = hashlib.sha256(_STEP_C.encode()).hexdigest()[:16]
    path = os.path.join(cache, f"_step-{digest}.{sysconfig.get_platform()}.so")
    try:
        if not os.path.exists(path):
            os.makedirs(cache, exist_ok=True)
            fd, tmp = tempfile.mkstemp(suffix=".so", dir=cache)
            os.close(fd)
            try:
                subprocess.run(
                    ["cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC",
                     "-x", "c", "-", "-o", tmp],
                    input=_STEP_C, text=True, capture_output=True, check=True, timeout=120,
                )
                os.replace(tmp, path)
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)
        fn = ctypes.CDLL(path).recurrence_steps
    except (OSError, AttributeError, subprocess.SubprocessError):
        return None
    fn.restype = None
    fn.argtypes = [ctypes.c_void_p, ctypes.c_void_p] + [ctypes.c_long] * 3

    def recurrence_steps(rows, u, n0):
        buf = np.ascontiguousarray(u)
        fn(rows.ctypes.data, buf.ctypes.data, n0, rows.shape[0], rows.shape[1])
        if buf is not u:
            u[:] = buf

    return types.SimpleNamespace(recurrence_steps=recurrence_steps)


@functools.cache
def _c_impl():
    """The compiled implementation, or None; built once per process."""
    return None if _PURE else _build()


def implementation_name() -> str:
    return "python" if _c_impl() is None else "compiled"


#: longest operands convolved whole: a series through z^1024.  On a 2-core
#: x86-64 host (numpy 2.4), one split alone ran 7-12 % faster than
#: ``np.convolve`` at 769-1281 entries (medians of 1500 interleaved calls),
#: 20-26 % at 1537-2049, and the recursion about half the time from 4097.
#: Yet in f64 ``verify`` requests at N = 1024, splitting at 1025 entries
#: made the whole request 0.1-1.8 % slower in 6 of 7 alternating benchmark
#: pairs (median 0.7 %) and changed nothing in the seventh.
_CONV_WHOLE = 1025


def _truncated(a, b) -> np.ndarray:
    """The first len(a) entries of a * b.  Longer operands split in halves,
    a = a0 + z^h a1 and b = b0 + z^h b1 with 2h >= len(a), so the a1 b1 block
    lies past the cut and is never formed: a0 b0 whole, the cross terms as
    two truncated products of half the length, about half the work of
    ``np.convolve``."""
    n = len(a)
    if n <= _CONV_WHOLE:
        return np.convolve(a, b)[:n]
    h = (n + 1) // 2
    m = n - h
    out = np.zeros(n, dtype=np.complex128)
    out[: 2 * h - 1] = np.convolve(a[:h], b[:h])[:n]
    out[h:] += _truncated(a[:m], b[h:]) + _truncated(a[h:], b[:m])
    return out


def convolve(a, b) -> np.ndarray:
    """Truncated Cauchy product of two equal-length complex128 arrays."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError("convolve operands must share one length")
    return _truncated(a, b)


def recurrence_steps(rows, u, n0: int, impl=None) -> None:
    """Advance u in place: u[n+1] = sum_i rows[n - n0, i] * u[n-i]."""
    rows = np.ascontiguousarray(rows, dtype=np.complex128)
    if rows.ndim != 2 or u.dtype != np.complex128:
        raise ValueError("rows must be 2-D and u complex128")
    if rows.shape[0] != len(u) - 1 - n0:
        raise ValueError("row count must cover exactly the steps n0..N-1")
    if rows.shape[1] > n0 + 1:
        raise ValueError("a row wider than n0 + 1 reaches before u[0]")
    (impl or _c_impl() or _kernels_py).recurrence_steps(rows, u, n0)


def implementations():
    """Each available implementation keyed by name (for parity tests and benchmarks)."""
    table = {"python": _kernels_py}
    if _c_impl() is not None:
        table["compiled"] = _c_impl()
    return table

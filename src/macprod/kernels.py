"""f64 hot loops: numpy convolution, and recurrence stepping in C via ctypes.

``convolve`` is the oracle's truncated Cauchy product: ``np.convolve`` cut
to the operands' length up to 1025 entries (a series through z^1024), and
above that a recursive split into halves that never forms the block past
the cut.  Two real operands are multiplied in float64, anything else in
complex128.

``recurrence_steps`` runs the C loop in ``_STEP_C`` below.  It takes a
recurrence's row polynomials as data and evaluates them at each step in long
double: each polynomial as the sum, from 0, of its coefficients times the
powers of the step index, highest power first (which rounds the leading
term once less than Horner's scheme), then one reciprocal of the
denominator (by Smith's method when complex, as numpy divides) and one
product per entry, rounded once to double.  The step then runs in double.
Lags whose polynomial is zero are skipped.  The loop stops only at the
first index whose denominator vanishes.  A row entry or value past double
becomes inf or NaN and is stepped on, so every value that reads it is not
finite either; the caller's one finiteness check of the output reports it.

The loop is compiled with the system C compiler on first use, never at
import, and cached as ``__pycache__/_step-<sha256 of the source>.<platform>.so``
next to this file (written to a temporary file, then renamed into place),
then loaded with ``ctypes``.  It is compiled without fused multiply-adds and
keeps every operation's order, so it agrees bit for bit with the fallback
in ``_kernels_py``, which does the same operations in numpy long double.
The fallback runs only when the loop cannot be built: no compiler is found,
or the cache directory cannot be written.

This module and ``_kernels_py`` serve f64 paths only; the rest of the
package imports them inside the f64 functions that call them, so an exact
command loads neither them nor numpy.
"""

from __future__ import annotations

import functools
import os
import types

import numpy as np

from . import _kernels_py

_STEP_C = r"""
#include <math.h>
#include <stdlib.h>

/* sum_t p[t] n^(width-1-t), accumulated from 0 in ascending t */
static long double poly(const long double *p, const long double *pw, long width, long stride)
{
    long double acc = 0;
    for (long t = 0; t < width; t++)
        acc += p[t * stride] * pw[t];
    return acc;
}

/* u[j+1] = sum_i e_i u[j-i] for j = n0 .. n0+count-1, over complex values
   stored as interleaved (re, im) doubles.  The step at j has index
   m = m0 + j - n0 and reads polynomial set (m + 1) % sets of c: k + 2
   polynomials in m of width coefficients, highest power first, long double
   (re, im) pairs when cplx.  e_i = P_{i+1}(m) * (1 / P_0(m)).  Returns the
   first m whose P_0 vanishes, u stepped up to it, -1 when every step ran,
   or -2 when the work space cannot be allocated.  An entry or value past
   double is stepped on as inf or NaN, which IEEE arithmetic carries into
   every later value that reads it. */
long recurrence_steps(const long double *c, int cplx, long sets, long k, long width,
                      double *u, long n0, long count, long m0)
{
    const long stride = cplx ? 2 : 1, size = stride * width;
    /* the powers m^(width-1) .. m^0, then per set the number of lags whose
       polynomial is nonzero and those lags */
    long double *pw = malloc(sizeof(long double) * width);
    long *lags = malloc(sizeof(long) * sets * (k + 2)), bad = -1;
    if (pw == NULL || lags == NULL) {
        free(pw);
        free(lags);
        return -2;
    }
    for (long s = 0; s < sets; s++) {
        long *nz = lags + s * (k + 2);
        nz[0] = 0;
        for (long i = 0; i <= k; i++) {
            const long double *p = c + (s * (k + 2) + i + 1) * size;
            for (long t = 0; t < size; t++)
                if (p[t] != 0) {
                    nz[++nz[0]] = i;
                    break;
                }
        }
    }
    pw[width - 1] = 1;
    for (long j = 0; j < count; j++) {
        const long m = m0 + j, s = (m + 1) % sets, *nz = lags + s * (k + 2);
        const long double *P = c + s * (k + 2) * size;
        if (width > 1)
            pw[width - 2] = m;
        for (long t = width - 3; t >= 0; t--)
            pw[t] = pw[t + 1] * pw[width - 2];
        long double dr = poly(P, pw, width, stride), ir, ii = 0;
        long double di = cplx ? poly(P + 1, pw, width, stride) : 0;
        if (dr == 0 && di == 0) {
            bad = m;
            break;
        }
        if (!cplx) {
            ir = 1 / dr;
        } else if (fabsl(dr) >= fabsl(di)) {
            /* 1 / (dr + di i) by Smith's method, as numpy divides */
            long double rat = di / dr, scl = 1 / (dr + di * rat);
            ir = scl;
            ii = (0 - rat) * scl;
        } else {
            long double rat = dr / di, scl = 1 / (di + dr * rat);
            ir = (rat + 0) * scl;
            ii = -scl;
        }
        const double *v = u + 2 * (n0 + j);
        double re = 0.0, im = 0.0;
        for (long t = 1; t <= nz[0]; t++) {
            const long i = nz[t];
            const long double *p = P + (i + 1) * size;
            long double nr = poly(p, pw, width, stride);
            double ar, ai = 0.0;
            if (cplx) {
                long double ni = poly(p + 1, pw, width, stride);
                ar = (double)(nr * ir - ni * ii);
                ai = (double)(nr * ii + ni * ir);
            } else {
                ar = (double)(nr * ir);
            }
            double br = v[-2 * i], bi = v[-2 * i + 1];
            re = re + (ar * br - ai * bi);
            im = im + (ar * bi + ai * br);
        }
        u[2 * (n0 + j + 1)] = re;
        u[2 * (n0 + j + 1) + 1] = im;
    }
    free(pw);
    free(lags);
    return bad;
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
    fn.restype = ctypes.c_long
    fn.argtypes = [ctypes.c_void_p, ctypes.c_int] + [ctypes.c_long] * 3
    fn.argtypes += [ctypes.c_void_p] + [ctypes.c_long] * 3

    def recurrence_steps(polys, u, n0, first):
        buf = np.ascontiguousarray(u)
        sets, size, width = polys.shape
        bad = fn(polys.ctypes.data, np.iscomplexobj(polys), sets, size - 2, width,
                 buf.ctypes.data, n0, len(u) - 1 - n0, first)
        if bad == -2:
            raise MemoryError("no memory for the f64 kernel's work space")
        if buf is not u:
            u[:] = buf
        return None if bad < 0 else bad

    return types.SimpleNamespace(recurrence_steps=recurrence_steps)


@functools.cache
def _c_impl():
    """The compiled implementation, or None; built once per process."""
    return _build()


def implementation_name() -> str:
    return "python" if _c_impl() is None else "compiled"


#: longest operands convolved whole: a series through z^1024.  On a 2-core
#: x86-64 host (numpy 2.4, medians of interleaved calls), one split of two
#: float64 operands against ``np.convolve``: 12-13 % slower at 769 entries,
#: 0-5 % slower at 1025, between 7 % faster and 5 % slower at 1281, and
#: 14-15 % faster at 1537, 19 % at 2049, 40 % at 4097; of two complex128
#: operands, 3-8 % faster at 769-1025 and 16-24 % faster from 1537.  Most
#: oracle products are real, and in f64 ``verify`` requests at N = 1024
#: splitting real products at 1025 entries did not help: 3.36 against
#: 3.38 ms and 3.28 against 3.15 ms a request (medians of 12 and 20
#: alternated passes over every id).
_CONV_WHOLE = 1025


def _truncated(a, b) -> np.ndarray:
    """The first len(a) entries of a * b, in the operands' dtype.  Longer
    operands split in halves, a = a0 + z^h a1 and b = b0 + z^h b1 with
    2h >= len(a), so the a1 b1 block lies past the cut and is never formed:
    a0 b0 whole, the cross terms as two truncated products of half the
    length, about half the work of ``np.convolve``."""
    n = len(a)
    if n <= _CONV_WHOLE:
        return np.convolve(a, b)[:n]
    h = (n + 1) // 2
    m = n - h
    out = np.zeros(n, dtype=a.dtype)
    out[: 2 * h - 1] = np.convolve(a[:h], b[:h])[:n]
    out[h:] += _truncated(a[:m], b[h:]) + _truncated(a[h:], b[:m])
    return out


def convolve(a, b) -> np.ndarray:
    """Truncated Cauchy product of two equal-length complex128 arrays, as
    complex128.  When both are real it is formed from their float64 real
    parts, and every imaginary part is +0.0."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if a.shape != b.shape:
        raise ValueError("convolve operands must share one length")
    if a.imag.any() or b.imag.any():
        return _truncated(a, b)
    out = np.zeros(len(a), dtype=np.complex128)
    out.real = _truncated(a.real.copy(), b.real.copy())
    return out


def recurrence_steps(polys, u, n0: int, first: int | None = None, impl=None):
    """Advance u in place from u[n0] to its end over row polynomials.

    ``polys`` has shape (sets, k + 2, width): per set, the polynomials
    P_0, P_1, ..., P_{k+1} of a step index m, highest power first, long
    double (complex when any is).  The step that writes u[j+1] has index
    m = first + j - n0 (``first`` defaults to n0) and reads set (m + 1) %
    sets, so set s steps the entries of sequence s of an interleaved stream:
    u[j+1] = sum_i P_{i+1}(m) / P_0(m) * u[j-i].  Returns the first m whose
    P_0 vanishes, u stepped up to it, or None.  An entry or value past double
    is stepped on as inf or NaN, which carries into every value that reads it.
    """
    polys = np.ascontiguousarray(
        polys, dtype=np.clongdouble if np.iscomplexobj(polys) else np.longdouble
    )
    first = n0 if first is None else first
    if polys.ndim != 3 or polys.shape[1] < 2 or 0 in polys.shape:
        raise ValueError("polys must have the shape (sets, k + 2, width)")
    if u.ndim != 1 or u.dtype != np.complex128:
        raise ValueError("u must be a complex128 vector")
    if not polys.shape[1] - 2 <= n0 < len(u):
        raise ValueError("a step of order k from u[n0] reads u[n0 - k] .. u[n0]")
    if first < 0:
        raise ValueError("step indices start at 0")
    return (impl or _c_impl() or _kernels_py).recurrence_steps(polys, u, n0, first)


def implementations():
    """Each available implementation keyed by name (for parity tests and benchmarks)."""
    table = {"python": _kernels_py}
    if _c_impl() is not None:
        table["compiled"] = _c_impl()
    return table

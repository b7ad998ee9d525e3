"""Fallback for the f64 stepping loop when the C loop cannot be built.

``rows`` does the C loop's long double operations in numpy, vectorised over
the steps, in the same order; ``recurrence_steps`` then steps in Python
complex arithmetic in ascending lag order, as the C loop does.  The two
implementations agree bit for bit on the same inputs.
"""

from __future__ import annotations

import numpy as np


def _poly(coeffs, V):
    """sum_t coeffs[t] V[t], accumulated from 0 in ascending t."""
    acc = np.zeros(V.shape[1], dtype=np.longdouble)
    for c, v in zip(coeffs, V):
        acc += c * v
    return acc


def rows(polys, first, count):
    """The entries P_{i+1}(m) * (1 / P_0(m)) of the steps m = first ..
    first+count-1 over ``polys`` (see ``kernels.recurrence_steps``), each
    rounded once to double, as a (count, k+1) complex128 array, zero at the
    lags whose polynomial is zero (inf or NaN where an entry leaves double);
    and the number of steps before the first whose P_0 vanishes."""
    sets, size, width = polys.shape
    cplx = np.iscomplexobj(polys)
    out = np.zeros((count, size - 1), dtype=np.complex128)
    bad = np.zeros(count, dtype=bool)
    with np.errstate(all="ignore"):
        for s, P in enumerate(polys):
            j = np.arange((s - 1 - first) % sets, count, sets)  # steps with (m + 1) % sets == s
            V = np.empty((width, len(j)), dtype=np.longdouble)  # m^(width-1) .. m^0
            V[-1] = 1
            if width > 1:
                V[-2] = first + j
            for t in range(width - 3, -1, -1):
                V[t] = V[t + 1] * V[-2]
            dr = _poly(P[0].real, V)
            di = _poly(P[0].imag, V) if cplx else 0
            bad[j] = (dr == 0) & (di == 0)
            if cplx:  # 1 / (dr + di i) by Smith's method, as numpy divides
                big = abs(dr) >= abs(di)
                rat = np.where(big, di / dr, dr / di)
                scl = 1 / np.where(big, dr + di * rat, di + dr * rat)
                ir = np.where(big, scl, (rat + 0) * scl)
                ii = np.where(big, (0 - rat) * scl, -scl)
            else:
                ir = 1 / dr
            for i in range(size - 1):
                if not P[i + 1].any():
                    continue
                nr = _poly(P[i + 1].real, V)
                if cplx:
                    ni = _poly(P[i + 1].imag, V)
                    out.real[j, i] = nr * ir - ni * ii
                    out.imag[j, i] = nr * ii + ni * ir
                else:
                    out.real[j, i] = nr * ir
    return out, int(np.argmax(bad)) if bad.any() else count


def recurrence_steps(polys, u, n0, first):
    count = len(u) - 1 - n0
    R, good = rows(polys, first, count)
    sets = len(polys)
    lags = [[i for i in range(len(P) - 1) if P[i + 1].any()] for P in polys]
    uv = u.tolist()
    for j, row in enumerate(R[:good].tolist()):
        n = n0 + j
        acc = 0j
        for i in lags[(first + j + 1) % sets]:
            acc = acc + row[i] * uv[n - i]
        uv[n + 1] = acc
    u[:] = uv
    return None if good == count else first + good

"""Fallback for the f64 stepping loop when the C loop cannot be built.

Same accumulation order as the C loop in ``kernels`` (ascending index), so
the two implementations agree bit for bit on the same inputs.
"""

from __future__ import annotations


def recurrence_steps(rows, u, n0):
    rv = rows.tolist()
    uv = u.tolist()
    width = len(rv[0]) if rv else 0
    for j, row in enumerate(rv):
        n = n0 + j
        acc = 0j
        for i in range(width):
            acc = acc + row[i] * uv[n - i]
        uv[n + 1] = acc
    u[:] = uv

"""Generic engine for linear recurrences with index-dependent coefficients.

A :class:`RecurrenceSpec` describes u[n+1] = sum_{i=0}^{k} row(n)[i] * u[n-i]
for n >= n0, started from the seed values u[0..n0].  The engine keeps the
evaluation order fixed (i ascending), so repeated runs are bit-identical in
both backends.

The f64 path evaluates the coefficient rows for all steps at once and hands
the sequential stepping to the kernel layer, so an f64 row closure must
broadcast over an index vector: plain arithmetic on n does.

A :class:`ComboSpec` combines two recurrence branches entrywise.  A
:class:`SystemSpec` steps several coupled sequences together instead; the
f64 backend serves products whose single recurrence is unstable in floats
that way.

``run`` is the one entry point: it accepts every spec kind and dispatches on
it.  It is a pure function over immutable specs; concurrent runs are safe.
A single run is inherently sequential (each step consumes the previous k+1
values), so no internal parallelism is attempted.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import kernels
from .numerics import NonFiniteError, SingularIndexError, get_backend
from .series_oracle import CoeffStream

COMBINERS = ("(u-v)/2", "(u+v)/2", "(u-v)/(2i)")


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order, start index, seeds, and coefficient-row function."""

    order: int
    start: int
    seeds: tuple
    row: Callable
    backend: str
    meta: tuple = field(default=())
    den_factors: Callable | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("recurrence order must be positive")
        if self.start < self.order:
            raise ValueError(
                f"start index {self.start} below order {self.order}: "
                "the first step would reach before u_0"
            )
        if len(self.seeds) != self.start + 1:
            raise ValueError(
                f"expected {self.start + 1} seeds (u_0..u_{self.start}), "
                f"got {len(self.seeds)}"
            )


@dataclass(frozen=True)
class ComboSpec:
    """Two recurrence branches combined entrywise."""

    left: RecurrenceSpec
    right: RecurrenceSpec
    combiner: str
    meta: tuple = field(default=())

    def __post_init__(self):
        if self.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {self.combiner!r}")
        if self.left.backend != self.right.backend:
            raise ValueError("combo branches must share one backend")

    @property
    def backend(self):
        return self.left.backend


@dataclass(frozen=True)
class SystemSpec:
    """Coupled sequences stepped together; the product is component 0.

    ``init`` holds every component's entry 0.  ``step(ys, n)`` appends entry n
    to each component list in ``ys``; it reads entries below n, and entry n of
    components it has already advanced.
    """

    init: tuple
    step: Callable
    backend: str
    meta: tuple = field(default=())


def _meta_get(meta, key, default=None):
    for k, v in meta:
        if k == key:
            return v
    return default


def _singular(spec: RecurrenceSpec, n: int, cause=None):
    names = None
    if spec.den_factors is not None:
        zero = []
        for name, value in spec.den_factors(n):
            if not value:
                zero.append(name)
        names = ", ".join(zero) or None
    factor = names or "a row denominator"
    err = SingularIndexError(
        f"recurrence row is singular at n={n}: {factor} vanishes",
        index=n,
        factor=names,
    )
    if cause is not None:
        raise err from cause
    raise err


def _run_generic(spec: RecurrenceSpec, N: int) -> list:
    bk = get_backend(spec.backend)
    values = list(spec.seeds[: N + 1])
    k = spec.order
    for n in range(spec.start, N):
        try:
            row = spec.row(bk.index(n))
        except ZeroDivisionError as exc:
            _singular(spec, n, exc)
        acc = bk.coerce(row[0]) * values[n]
        for i in range(1, k + 1):
            acc = acc + bk.coerce(row[i]) * values[n - i]
        values.append(acc)
    return values


def _run_f64(spec: RecurrenceSpec, N: int) -> list:
    n0, k = spec.start, spec.order
    u = np.zeros(N + 1, dtype=np.complex128)
    m = min(n0, N)
    u[: m + 1] = spec.seeds[: m + 1]
    if N > n0:
        ns = np.arange(n0, N, dtype=np.float64)
        rows = np.empty((N - n0, k + 1), dtype=np.complex128)
        with np.errstate(all="ignore"):
            raw = spec.row(ns)
        for i in range(k + 1):
            rows[:, i] = raw[i]
        bad = ~np.isfinite(rows)
        if bad.any():
            _singular(spec, n0 + int(np.argwhere(bad.any(axis=1))[0][0]))
        kernels.recurrence_steps(rows, u, n0)
        finite = np.isfinite(u)
        if not finite.all():
            n_bad = int(np.argmin(finite))
            raise NonFiniteError(
                f"recurrence overflowed to a non-finite value at n={n_bad}",
                index=n_bad,
            )
    return u.tolist()


def _run_system(spec: SystemSpec, N: int) -> list:
    ys = [[v] for v in spec.init]
    for n in range(1, N + 1):
        spec.step(ys, n)
    values = ys[0]
    if spec.backend == "f64":
        for n, v in enumerate(values):
            if not cmath.isfinite(v):
                raise NonFiniteError(
                    f"coupled recurrence overflowed to a non-finite value at n={n}",
                    index=n,
                )
    return values


def _run_combo(combo: ComboSpec, N: int) -> list:
    left = run(combo.left, N).coeffs
    right = run(combo.right, N).coeffs
    bk = get_backend(combo.backend)
    half = bk.one() / 2
    if combo.combiner == "(u-v)/2":
        values = [(u - v) * half for u, v in zip(left, right)]
    elif combo.combiner == "(u+v)/2":
        values = [(u + v) * half for u, v in zip(left, right)]
    else:  # (u-v)/(2i): multiply by 1/(2i) = -i/2
        scale = -bk.imaginary_unit() / 2
        values = [(u - v) * scale for u, v in zip(left, right)]
    if combo.backend == "f64":
        for n, v in enumerate(values):
            if not cmath.isfinite(v):
                raise NonFiniteError(f"combo produced a non-finite entry at n={n}", index=n)
    return values


def run(spec, N: int) -> CoeffStream:
    """Evaluate any spec through u_N (seeds pass through unchanged)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if isinstance(spec, ComboSpec):
        values = _run_combo(spec, N)
    elif isinstance(spec, SystemSpec):
        values = _run_system(spec, N)
    elif spec.backend == "f64":
        values = _run_f64(spec, N)
    else:
        values = _run_generic(spec, N)
    return CoeffStream(
        tuple(values),
        _meta_get(spec.meta, "base", "product"),
        "recurrence",
        spec.backend,
        spec.meta,
    )

"""Generic engine for linear recurrences with index-dependent coefficients.

A :class:`RecurrenceSpec` describes u[n+1] = sum_{i=0}^{k} row(n)[i] * u[n-i]
for n >= n0, started from the seed values u[0..n0].  A row is plain
arithmetic on n (+, -, *, / and nonnegative integer powers), which both
backends rely on.

The exact path steps integer row polynomials.  A catalogue spec brings them
along (``RecurrenceSpec.integral``): the families evaluate each product
operator in integers, one group over P_0(n+1).  For a row that a caller
passes as a plain callable, the engine traces it once per run instead: it
calls the row at a symbolic index (``_compile``), so each entry comes back
as a ratio of polynomials in n; that is the row's own formula, nothing is
sampled.  Entries over the same denominator form one group, and each
group's polynomials are scaled to Gaussian-integer coefficients
(``_integral``), evaluated by Horner's rule at the integer n.  A row that
compares, branches on or converts n raises :class:`RowContractError`.

Either way the stream steps in integers, fraction-free (``step_exact``): the
window u_{n-k} .. u_n is held as integer numerators over one running
denominator D, a complex group denominator is made real by its conjugate,
and the only reduction is the gcd of each step's new denominator factor
with the new numerator, which is cheap because that factor is a small
integer.  It keeps D equal to the window's least common denominator in
practice, and each output is one ``Fraction`` over D, wrapped in
:class:`GaussianRational`.  A stream whose coefficients and seeds are real
carries no imaginary half.  Pi-linear seeds q0 + q1*pi step by linearity as
two rational streams (the K and E streams are pi/2 times a rational stream,
arccos-M is rational + pi * rational), so :class:`PiLinear` never enters the
loop, and a stream whose seeds are all zero is not stepped.  Seeds that are
not exact scalars step in their own arithmetic.

The f64 path evaluates the coefficient rows for a block of steps at once and
hands the sequential stepping to the kernel layer, block by block, so an f64
row must broadcast over an index vector, returning k+1 rows of entries (the
catalogue's rows are one long double matrix product per block).  It keeps
the evaluation order fixed (i ascending), so repeated runs are
bit-identical.  An f64 spec may also step several coupled sequences as one
(``interleave``: entry n of sequence j is stream entry interleave*n + j,
and the run returns sequence 0), or convolve its stream with a polynomial
factor's coefficients (``taps``); the f64 backend serves products whose
single recurrence is unstable in floats those ways.  An f64 run returns a
complex128 array, and a combo's two f64 branches combine as arrays.

A :class:`ComboSpec` combines two recurrence branches entrywise.

``run`` is the one entry point: it accepts every spec kind and dispatches on
it.  It is a pure function over immutable specs; concurrent runs are safe.
A single run is inherently sequential (each step consumes the previous k+1
values), so no internal parallelism is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

import numpy as np

from . import kernels
from .numerics import (
    GaussianRational,
    NonFiniteError,
    PiLinear,
    SingularIndexError,
    get_backend,
)
from .series_oracle import CoeffStream

COMBINERS = ("(u-v)/2", "(u+v)/2", "(u-v)/(2i)")
_ZERO = GaussianRational(0)


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order, start index, seeds, and coefficient-row function.

    ``row(n)`` returns the k+1 entries for step n and must be plain
    arithmetic on n; exact entries are ints, Fractions or Gaussian rationals.
    ``integral``, when given, is the same row as integer polynomial groups
    (the form ``_integral`` returns); the exact engine then steps with it
    and never traces ``row``.  The catalogue's builders supply it.

    f64 only: with ``interleave`` s > 1 the stream holds s sequences, entry
    s*n + j being entry n of sequence j, and the run returns sequence 0;
    with ``taps`` it returns the stream convolved with them, cut at u_N.
    """

    order: int
    start: int
    seeds: tuple
    row: Callable
    backend: str
    meta: tuple = field(default=())
    den_factors: Callable | None = None
    integral: tuple | None = None
    interleave: int = 1
    taps: tuple = ()

    def __post_init__(self):
        if (self.interleave != 1 or self.taps) and self.backend != "f64":
            raise ValueError("interleave and taps apply to f64 specs only")
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


def _meta_get(meta, key, default=None):
    for k, v in meta:
        if k == key:
            return v
    return default


def _singular(den_factors, n: int, cause=None):
    names = None
    if den_factors is not None:
        zero = []
        for name, value in den_factors(n):
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


#: what an exact row may do with its index; RowContractError quotes it
_CONTRACT = (
    "an exact row must be plain arithmetic on n (+, -, *, / and nonnegative "
    "integer powers, over ints, Fractions and Gaussian rationals); it may not "
    "compare, branch on or convert n"
)


class RowContractError(ValueError):
    """An exact row is not plain arithmetic on its index n."""


def _trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _padd(x, y):
    if len(x) < len(y):
        x, y = y, x
    return _trim([xi + yi for xi, yi in zip(x, y)] + list(x[len(y):]))


def _pmul(x, y):
    out = [0] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        if xi:
            for j, yj in enumerate(y):
                out[i + j] = out[i + j] + xi * yj
    return _trim(out)


class _Symbolic:
    """num(n)/den(n) for polynomials num, den in the index n (coefficients
    lowest power first): what a row computes when it is called at symbolic n."""

    __slots__ = ("num", "den")

    def __init__(self, num, den=(1,)):
        self.num = num
        self.den = den

    @staticmethod
    def lift(value):
        if isinstance(value, _Symbolic):
            return value
        if isinstance(value, (int, Fraction, GaussianRational)):
            return _Symbolic((value,))
        return None

    def __add__(self, other):
        o = self.lift(other)
        if o is None:
            return NotImplemented
        if self.den == o.den:
            return _Symbolic(_padd(self.num, o.num), self.den)
        num = _padd(_pmul(self.num, o.den), _pmul(o.num, self.den))
        return _Symbolic(num, _pmul(self.den, o.den))

    __radd__ = __add__

    def __neg__(self):
        return _Symbolic(tuple(-c for c in self.num), self.den)

    def __pos__(self):
        return self

    def __sub__(self, other):
        o = self.lift(other)
        return NotImplemented if o is None else self + -o

    def __rsub__(self, other):
        o = self.lift(other)
        return NotImplemented if o is None else o + -self

    def __mul__(self, other):
        o = self.lift(other)
        if o is None:
            return NotImplemented
        return _Symbolic(_pmul(self.num, o.num), _pmul(self.den, o.den))

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self.lift(other)
        if o is None:
            return NotImplemented
        return _Symbolic(_pmul(self.num, o.den), _pmul(self.den, o.num))

    def __rtruediv__(self, other):
        o = self.lift(other)
        return NotImplemented if o is None else o / self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        acc = _Symbolic((1,))
        for _ in range(exponent):
            acc = acc * self
        return acc

    def _no_value(self, *other):
        raise RowContractError(_CONTRACT)

    # n has no truth value and no order: a row that asks for one branches on n
    __bool__ = __eq__ = __ne__ = __lt__ = __le__ = __gt__ = __ge__ = _no_value
    __hash__ = None


def _compile(spec: RecurrenceSpec) -> list:
    """The row as groups ``(den, [(i, num), ...])``: entry i is num(n)/den(n).

    The row is called once, at the symbolic index, so the groups are the row's
    own formula.  Each denominator is scaled monic and entries over the same
    one share a group; a constant denominator folds into its numerators
    (``den`` is None).  Zero entries are left out.  Polynomials are stored
    highest power first, for Horner's rule.
    """
    try:
        row = spec.row(_Symbolic((0, 1)))
        entries = [_Symbolic.lift(row[i]) for i in range(spec.order + 1)]
    except ZeroDivisionError as exc:
        _singular(spec.den_factors, spec.start, exc)
    except (TypeError, AttributeError) as exc:
        raise RowContractError(f"{_CONTRACT}; the row raised: {exc}") from exc
    if any(e is None for e in entries):
        raise RowContractError(f"{_CONTRACT}; a row entry is not an exact scalar")
    groups = {}
    for i, e in enumerate(entries):
        num, den = e.num, e.den
        if den[-1]:  # a zero denominator stays, so the first step reports it
            inv = Fraction(1) / den[-1]
            num = tuple(c * inv for c in num)
            den = tuple(c * inv for c in den)
        if len(num) > 1 or num[0]:
            groups.setdefault(den, []).append((i, num[::-1]))
    if not groups:  # every entry is zero: keep one, so the steps yield zeros
        return [(None, [(0, (0,))])]
    return [
        (None if den == (1,) else den[::-1], terms) for den, terms in groups.items()
    ]


def _horner(poly, n):
    acc = poly[0]
    for c in poly[1:]:
        acc = acc * n + c
    return acc


def _integral(groups) -> list:
    """The groups over the Gaussian integers: each polynomial becomes a pair
    (real part, imaginary part) of integer polynomials, its group scaled by the
    lcm of the group's coefficient denominators.  A zero part is ``(0,)``."""
    out = []
    for den, terms in groups:
        polys = [
            [c if isinstance(c, GaussianRational) else GaussianRational(c) for c in poly]
            for poly in [num for _, num in terms] + [den or (1,)]
        ]
        scale = math.lcm(*(x.denominator for poly in polys for c in poly for x in (c.re, c.im)))

        def scaled(xs):
            xs = tuple(int(x * scale) for x in xs)
            return xs if any(xs) else (0,)

        *nums, den = [(scaled(c.re for c in poly), scaled(c.im for c in poly)) for poly in polys]
        if den == ((1,), (0,)):
            den = None
        out.append((den, [(i, num) for (i, _), num in zip(terms, nums)]))
    return out


def _step(spec: RecurrenceSpec, groups, u: list, N: int) -> list:
    """u_{start+1} .. u_N from ``u`` = u_0 .. u_start in the values' own
    arithmetic, one division per group and step: the path for seeds that are
    not exact scalars."""
    for n in range(spec.start, N):
        total = None
        for den, terms in groups:
            acc = None
            for i, num in terms:
                term = _horner(num, n) * u[n - i]
                acc = term if acc is None else acc + term
            if den is not None:
                d = _horner(den, n)
                if not d:
                    _singular(spec.den_factors, n)
                acc = acc / d
            total = acc if total is None else total + acc
        u.append(total)
    return u[spec.start + 1:]


def _stream(integral, window: list, n0: int, N: int, den_factors) -> list:
    """u_{n0+1} .. u_N of one Gaussian-rational stream from the window
    u_{n0-k} .. u_{n0}, stepped over the ``_integral`` groups in integers.

    The window u_{n-k} .. u_n is held as integer numerators (real, and
    imaginary unless the seeds and every coefficient are real) over one
    running denominator D.  A step sums c_i(n) * U_{n-i} per group, takes a
    complex group denominator e + fi to the real e^2 + f^2 through e - fi,
    and adds the groups over the lcm M of their denominators.  The factor
    g = gcd(M, new numerator) cancels at once; D and the k older numerators
    are then scaled by M/g.  Each output is one ``Fraction`` over D.
    """
    k = len(window) - 1
    real = not any(s.im for s in window) and all(
        poly[1] == (0,)
        for den, terms in integral
        for poly in [num for _, num in terms] + ([den] if den else [])
    )
    D = math.lcm(*(x.denominator for s in window for x in (s.re, s.im)))
    wr = [s.re.numerator * (D // s.re.denominator) for s in window]
    wi = None if real else [s.im.numerator * (D // s.im.denominator) for s in window]
    groups = [
        (
            den and (den[0], den[1] if den[1] != (0,) else None),
            [(k - i, a, b if b != (0,) else None) for i, (a, b) in terms],
        )
        for den, terms in integral
    ]
    out_re, out_im = [], []
    for n in range(n0, N):
        sums = []
        for den, terms in groups:
            xr = xi = 0
            for j, a, b in terms:
                c = _horner(a, n)
                xr += c * wr[j]
                if wi is not None:
                    xi += c * wi[j]
                    if b is not None:
                        d = _horner(b, n)
                        xr -= d * wi[j]
                        xi += d * wr[j]
            m = 1
            if den is not None:
                m = _horner(den[0], n)
                f = 0 if den[1] is None else _horner(den[1], n)
                if f:  # x / (e + fi) = x (e - fi) / (e^2 + f^2)
                    xr, xi, m = xr * m + xi * f, xi * m - xr * f, m * m + f * f
                elif not m:
                    _singular(den_factors, n)
            sums.append((xr, xi, m))
        M = math.lcm(*(m for _, _, m in sums))
        xr = sum(x * (M // m) for x, _, m in sums)
        xi = sum(y * (M // m) for _, y, m in sums)
        g = math.gcd(M, xr, xi)
        if g > 1:
            M, xr, xi = M // g, xr // g, xi // g
        D *= M
        wr = [w * M for w in wr[1:]] + [xr]
        out_re.append(Fraction(xr, D))
        if wi is not None:
            wi = [w * M for w in wi[1:]] + [xi]
            out_im.append(Fraction(xi, D))
    if wi is None:
        zero = Fraction(0)
        return [GaussianRational(x, zero) for x in out_re]
    return [GaussianRational(x, y) for x, y in zip(out_re, out_im)]


def step_exact(integral, window: list, n0: int, N: int, den_factors=None) -> list:
    """u_{n0+1} .. u_N from the window u_{n0-k} .. u_{n0} of exact scalars,
    stepped over ``_integral`` groups.

    q0 + q1*pi steps as two rational streams, so pi never enters the loop,
    and a stream whose window is all zero is not stepped.
    """
    window = [GaussianRational(s) if isinstance(s, (int, Fraction)) else s for s in window]
    pi = any(isinstance(s, PiLinear) for s in window)
    parts = [[s.q0 if isinstance(s, PiLinear) else s for s in window]]
    if pi:
        parts.append([s.q1 if isinstance(s, PiLinear) else _ZERO for s in window])
    live = [any(part) for part in parts]
    if not any(live):  # still step one, so a singular row is reported
        live[0] = True
    streams = [
        _stream(integral, part, n0, N, den_factors) if on else [_ZERO] * (N - n0)
        for part, on in zip(parts, live)
    ]
    if pi:
        return [PiLinear(q0, q1) for q0, q1 in zip(*streams)]
    return streams[0]


def _run_generic(spec: RecurrenceSpec, N: int) -> list:
    values = list(spec.seeds[: N + 1])
    if N <= spec.start:
        return values
    integral = spec.integral
    if integral is None:
        groups = _compile(spec)
        seeds = [GaussianRational(s) if isinstance(s, (int, Fraction)) else s for s in spec.seeds]
        if not all(isinstance(s, (GaussianRational, PiLinear)) for s in seeds):
            return values + _step(spec, groups, seeds, N)  # any type with + and *
        integral = _integral(groups)
    window = list(spec.seeds[spec.start - spec.order:])
    return values + step_exact(integral, window, spec.start, N, spec.den_factors)


#: f64 steps per row evaluation.  A run's temporaries then stay a few tens of
#: KB at any N and are reused from the heap.  Rows for all N steps at once
#: take about 1 MB at N = 8192, which the allocator hands back to the system
#: after each run, so the next run faults in ~220 fresh pages: more time than
#: the C stepping loop takes.
_F64_BLOCK = 1024


def _run_f64(spec: RecurrenceSpec, N: int) -> np.ndarray:
    n0, k, s = spec.start, spec.order, spec.interleave
    M = s * N  # the stream index of u_N
    u = np.zeros(M + 1, dtype=np.complex128)
    m = min(n0, M)
    u[: m + 1] = spec.seeds[: m + 1]
    for lo in range(n0, M, _F64_BLOCK):
        hi = min(lo + _F64_BLOCK, M)
        rows = np.empty((hi - lo, k + 1), dtype=np.complex128)
        with np.errstate(all="ignore"):
            raw = spec.row(np.arange(lo, hi, dtype=np.float64))
            for i in range(k + 1):
                rows[:, i] = raw[i]
        bad = ~np.isfinite(rows)
        if bad.any():
            _singular(spec.den_factors, lo + int(np.argwhere(bad.any(axis=1))[0][0]))
        kernels.recurrence_steps(rows, u[lo - k : hi + 1], k)
    if s > 1:
        u = u[::s].copy()
    if spec.taps:
        with np.errstate(all="ignore"):
            u = np.convolve(u, spec.taps)[: N + 1]
    finite = np.isfinite(u)
    if M > n0 and not finite.all():
        n_bad = int(np.argmin(finite))
        raise NonFiniteError(
            f"recurrence overflowed to a non-finite value at n={n_bad}",
            index=n_bad,
        )
    return u


def _run_combo(combo: ComboSpec, N: int):
    bk = get_backend(combo.backend)
    if combo.backend == "f64":
        return _combine_f64(combo, bk, N)
    left = run(combo.left, N).coeffs
    right = run(combo.right, N).coeffs
    half = bk.one() / 2
    if combo.combiner == "(u-v)/2":
        values = [(u - v) * half for u, v in zip(left, right)]
    elif combo.combiner == "(u+v)/2":
        values = [(u + v) * half for u, v in zip(left, right)]
    else:  # (u-v)/(2i): multiply by 1/(2i) = -i/2
        scale = -bk.imaginary_unit() / 2
        values = [(u - v) * scale for u, v in zip(left, right)]
    return values


def _combine_f64(combo: ComboSpec, bk, N: int) -> np.ndarray:
    """``_run_combo`` on arrays: numpy's complex product is Python's formula,
    so the entries are the same bits."""
    left, right = _run_f64(combo.left, N), _run_f64(combo.right, N)
    if combo.combiner == "(u-v)/2":
        values = (left - right) * (bk.one() / 2)
    elif combo.combiner == "(u+v)/2":
        values = (left + right) * (bk.one() / 2)
    else:
        values = (left - right) * (-bk.imaginary_unit() / 2)
    finite = np.isfinite(values)
    if not finite.all():
        n = int(np.argmin(finite))
        raise NonFiniteError(f"combo produced a non-finite entry at n={n}", index=n)
    return values


def run(spec, N: int) -> CoeffStream:
    """Evaluate any spec through u_N (seeds pass through unchanged)."""
    if N < 0:
        raise ValueError("N must be nonnegative")
    if isinstance(spec, ComboSpec):
        values = _run_combo(spec, N)
    elif spec.backend == "f64":
        values = _run_f64(spec, N)
    else:
        values = _run_generic(spec, N)
    return CoeffStream(
        values,
        _meta_get(spec.meta, "base", "product"),
        "recurrence",
        spec.backend,
        spec.meta,
    )

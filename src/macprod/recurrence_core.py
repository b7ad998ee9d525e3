"""Generic engine for linear recurrences with polynomial coefficients.

A :class:`RecurrenceSpec` describes u[n+1] = sum_{i=0}^{k} row(n)[i] * u[n-i]
for n >= n0, started from the seed values u[0..n0]; n0 is the last seed's
index, and u at negative indices is 0, so the seeds may stop below the
order k (the families' seeds are the catalogue's u_0, or u_0 and u_1).  A
spec is plain data: the row is given as polynomials in n
(``RecurrenceSpec.polys``), each entry a numerator polynomial over one
denominator polynomial; a step whose row denominator vanishes is reported
at its n (``SingularIndexError``).

The exact path has the polynomials in integers: the families evaluate each
product operator in integers, every entry over the one denominator
P_0(n+1).  ``_run_generic`` runs every exact single stream, stepping it
with them fraction-free (``_stream``): the window u_{n-k} .. u_n is held as
integer numerators over one running denominator D, a complex row
denominator is made real by its conjugate, and the only reduction is the
gcd of each step's denominator with the new numerator, which is cheap
because that denominator is a small integer.  It keeps D equal to the
window's least common denominator in practice, and each output part is one
``Fraction`` over its step's D, wrapped in :class:`GaussianRational`.  A
stream whose coefficients and seeds are real carries no imaginary half.
Pi-linear seeds q0 + q1*pi step by linearity as two rational streams (the
K and E streams are pi/2 times a rational stream, arccos-M is rational +
pi * rational), so :class:`PiLinear` never enters the loop, and a stream
whose seeds are all zero is not stepped (unless no stream is live: one is
stepped then, so a singular row is reported).

The f64 path steps every entry after the seeds in ``kernels.recurrence_steps``,
which evaluates each row from the long double row polynomials, steps it, and
reports the first index whose row denominator vanishes.  Two calls of that
one loop cover a run: the entries from the last seed through u_k, k the
order, on a long double copy of the seeds (at small n a step can cancel),
rounded once into the complex128 stream; then the rest of the stream in
double.  Any other failure is an entry or value past double, which IEEE
arithmetic carries as inf or NaN into every value computed from it, so one
finiteness check of the output reports it at its first non-finite
coefficient.  With s sets of polynomials it steps s coupled sequences as one
(entry n of sequence j is stream entry s*n + j, stepped by set j, and the
run returns sequence 0), or convolves its stream with the coefficients of a
binomial factor (``binomial``); the f64 backend serves products whose single
recurrence is unstable in floats those ways.  An f64 run returns a
complex128 array, and a combo's two f64 branches combine as arrays.

A :class:`ComboSpec` combines two recurrence branches entrywise.  A sin/cos
product at real parameters (the exp-X branches at +ip and -ip) carries one
branch: its right branch is the complex conjugate of the left, and a run
steps the left branch alone; exact forms only the part of each entry its
combiner reads (the imaginary part for sin, the real part for cos).

Only the f64 path imports numpy and the kernels, when it first runs; exact
specs are built and stepped without them.  Specs compare and hash by
identity.

``run`` is the one entry point: it accepts every spec kind and dispatches on
it.  It is a pure function over immutable specs; concurrent runs are safe.
A single run is inherently sequential (each step consumes the previous k+1
values), so no internal parallelism is attempted.
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction

from .numerics import (
    F64,
    CoeffStream,
    GaussianRational,
    PiLinear,
    SingularIndexError,
    _finite_or_raise,
    _Record,
    _set,
)

_FRACTION_ZERO = Fraction(0)
#: per combiner: whether it adds or subtracts the branches, its scale on a
#: backend (1/(2i) = -i/2), and the exact result's (real, imaginary) parts
#: from those of h = (u +- v)/2: h itself, or -i h for (u - v)/(2i) (a zero
#: part is not negated: that would make a new Fraction)
_COMBINE = {
    "(u-v)/2": (operator.sub, lambda bk: bk.one() / 2, lambda re, im: (re, im)),
    "(u+v)/2": (operator.add, lambda bk: bk.one() / 2, lambda re, im: (re, im)),
    "(u-v)/(2i)": (
        operator.sub, lambda bk: -bk.imaginary_unit() / 2, lambda re, im: (im, -re if re else re)
    ),
}
COMBINERS = tuple(_COMBINE)
_ZERO = GaussianRational(0)


def _integer_row(polys, order: int) -> bool:
    """Whether ``polys`` is an exact row ``(den, terms)`` of that order (see
    :class:`RecurrenceSpec`)."""

    def poly(p):
        return (
            isinstance(p, tuple)
            and len(p) == 2
            and all(isinstance(part, tuple) and part and all(isinstance(x, int) for x in part)
                    for part in p)
        )

    try:
        den, terms = polys
        return poly(den) and all(i in range(order + 1) and poly(num) for i, num in terms)
    except (TypeError, ValueError):
        return False


class RecurrenceSpec(_Record):
    """Order, seeds u_0 .. u_n0, and the row as polynomials in the step index n.

    The seeds are nonempty, and may stop below the order: u at negative
    indices is 0.  The start index n0 is derived: the last seed's index,
    ``len(seeds) - 1``.

    ``polys`` is the row.  Exact: the pair ``(den, terms)`` in integers,
    entry i being num_i(n) / den(n), ``terms`` holding ``(i, num_i)`` for the
    nonzero entries, and each polynomial a pair (real part, imaginary part)
    of integer coefficient tuples, highest power first, a zero part being
    ``(0,)``.  f64: an array of shape (sets, k + 2, width), long double
    (complex when any coefficient is), per set P_0, P_1, ..., P_{k+1}
    highest power first, entry i being P_{i+1}(n) / P_0(n) (see
    ``kernels.recurrence_steps``).

    f64 only: with s sets of polynomials the stream holds s sequences, entry
    s*n + j being entry n of sequence j, and the run returns sequence 0;
    with ``binomial`` = (p, theta) it returns the stream convolved with the
    coefficients of (1 - theta z)^p, cut at u_N.  p is an ``int`` where it
    is a nonnegative integer (the coefficients past C(p, p) vanish), a
    complex otherwise.
    """

    __slots__ = ("order", "seeds", "polys", "backend", "binomial")

    def __init__(self, order: int, seeds: tuple, polys, backend: str, binomial: tuple = ()):
        _set(self, "order", order)
        _set(self, "seeds", seeds)
        _set(self, "polys", polys)
        _set(self, "backend", backend)
        _set(self, "binomial", binomial)
        if self.order < 1:
            raise ValueError("recurrence order must be positive")
        if self.binomial and self.backend != "f64":
            raise ValueError("binomial applies to f64 specs only")
        if self.backend == "f64":
            import numpy as np

            polys = self.polys
            if not (isinstance(polys, np.ndarray) and polys.ndim == 3
                    and polys.shape[1] == self.order + 2):
                raise ValueError(
                    "an f64 spec steps an array of polys of shape (sets, order + 2, width)"
                )
        elif not _integer_row(self.polys, self.order):
            raise ValueError(
                "an exact spec steps the integer row polys = (den, terms), "
                "terms holding (i, num_i) for 0 <= i <= order"
            )
        if not self.seeds:
            raise ValueError("a recurrence needs at least one seed, u_0")

    @property
    def start(self) -> int:
        return len(self.seeds) - 1


class ComboSpec(_Record):
    """Two recurrence branches combined entrywise by ``combiner``.

    ``right`` None is the complex conjugate of ``left``, and a run steps the
    left branch only: f64 combines it with its conjugate, and exact reads
    the result from its real or imaginary part.  Exact branches carry
    Gaussian-rational seeds, never pi (the exact combos are the ``-combo``
    ids over M and F, seeded with 1), and combine on the entries'
    ``Fraction`` parts.
    """

    __slots__ = ("left", "right", "combiner")

    def __init__(self, left: RecurrenceSpec, right: RecurrenceSpec | None, combiner: str):
        _set(self, "left", left)
        _set(self, "right", right)
        _set(self, "combiner", combiner)
        if self.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {self.combiner!r}")
        right = self.right or self.left
        if self.left.backend != right.backend:
            raise ValueError("combo branches must share one backend")
        if self.backend != "f64" and any(
            type(s) is not GaussianRational for b in (self.left, right) for s in b.seeds
        ):
            raise ValueError("a combo's exact seeds must be Gaussian rationals, without pi")

    @property
    def backend(self):
        return self.left.backend


def _singular(n: int):
    raise SingularIndexError(f"recurrence row is singular at n={n}: its denominator vanishes",
                             index=n)


def _horner(poly, x):
    """poly (highest power first) at x: a scalar or an index vector."""
    acc = poly[0]
    for c in poly[1:]:
        acc = acc * x + c
    return acc


def _stream(polys, window: list, n0: int, N: int):
    """u_{n0+1} .. u_N of one Gaussian-rational stream from the window
    u_{n0-k} .. u_{n0}, stepped over the integer row ``polys``, as integer
    numerators of the real and imaginary parts (None for a real stream) and
    their denominators.

    The window u_{n-k} .. u_n is held as integer numerators (real, and
    imaginary unless the seeds and every coefficient are real) over one
    running denominator D.  A step sums c_i(n) * U_{n-i} and takes a complex
    denominator e + fi to the real e^2 + f^2 through e - fi.  The factor
    g = gcd(den, new numerator) cancels at once; D and the k older numerators
    are then scaled by den/g, whatever its sign.  Entry n's value is its
    numerators over that step's D.
    """
    (den_re, den_im), terms = polys
    k = len(window) - 1
    real = not any(s.im for s in window) and all(
        im == (0,) for im in [den_im] + [b for _, (_, b) in terms]
    )
    D = math.lcm(*(x.denominator for s in window for x in (s.re, s.im)))
    wr = [s.re.numerator * (D // s.re.denominator) for s in window]
    wi = None if real else [s.im.numerator * (D // s.im.denominator) for s in window]
    den_im = None if den_im == (0,) else den_im
    terms = [(k - i, a, b if b != (0,) else None) for i, (a, b) in terms]
    out_re, out_im, dens = [], None if real else [], []
    for n in range(n0, N):
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
        m = _horner(den_re, n)
        f = 0 if den_im is None else _horner(den_im, n)
        if f:  # x / (e + fi) = x (e - fi) / (e^2 + f^2)
            xr, xi, m = xr * m + xi * f, xi * m - xr * f, m * m + f * f
        elif not m:
            _singular(n)
        g = math.gcd(m, xr, xi)
        if g > 1:
            m, xr, xi = m // g, xr // g, xi // g
        D *= m
        wr = [w * m for w in wr[1:]] + [xr]
        out_re.append(xr)
        if wi is not None:
            wi = [w * m for w in wi[1:]] + [xi]
            out_im.append(xi)
        dens.append(D)
    return out_re, out_im, dens


def _values(stream) -> list:
    """The entries of a ``_stream`` as Gaussian rationals, each part one
    ``Fraction`` over its step's D, which normalises it."""
    re, im, dens = stream
    if im is None:
        return [GaussianRational(x, _FRACTION_ZERO) for x in map(Fraction, re, dens)]
    return list(map(GaussianRational, map(Fraction, re, dens), map(Fraction, im, dens)))


def _window(spec: RecurrenceSpec) -> list:
    """u_{n0-k} .. u_{n0}, n0 the last seed's index: the seeds, 0 at
    negative indices."""
    return ([_ZERO] * spec.order + list(spec.seeds))[-spec.order - 1:]


def _run_generic(spec: RecurrenceSpec, N: int) -> list:
    """u_0 .. u_N of an exact spec, stepped over its integer row (see
    :class:`RecurrenceSpec`).

    q0 + q1*pi steps as two rational streams, so pi never enters the loop,
    and a stream whose window is all zero is not stepped.
    """
    values = list(spec.seeds[: N + 1])
    n0 = spec.start
    if N <= n0:
        return values
    window = [GaussianRational(s) if isinstance(s, (int, Fraction)) else s
              for s in _window(spec)]
    pi = any(isinstance(s, PiLinear) for s in window)
    parts = [[s.q0 if isinstance(s, PiLinear) else s for s in window]]
    if pi:
        parts.append([s.q1 if isinstance(s, PiLinear) else _ZERO for s in window])
    live = [any(p) for p in parts]
    if not any(live):  # still step one, so a singular row is reported
        live[0] = True
    streams = [
        _values(_stream(spec.polys, p, n0, N)) if on else [_ZERO] * (N - n0)
        for p, on in zip(parts, live)
    ]
    if pi:
        return values + [PiLinear(q0, q1) for q0, q1 in zip(*streams)]
    return values + streams[0]


def _run_f64(spec: RecurrenceSpec, N: int):
    import numpy as np

    from . import kernels

    n0, s = spec.start, len(spec.polys)
    M = s * N  # the stream index of u_N
    try:
        u = np.zeros(M + 1, dtype=np.complex128)
    except ValueError as exc:  # past numpy's largest dimension, refused before allocating
        raise MemoryError(str(exc)) from None
    u[: n0 + 1] = spec.seeds[: M + 1]  # the seeds through u_M
    # the steps through u_k on a long double copy: at small n a step can cancel
    k, bad = max(n0, min(M, spec.order)), None
    if k > n0:
        wide = np.array([*spec.seeds] + [0] * (k - n0), dtype=np.clongdouble)
        bad = kernels.recurrence_steps(spec.polys, wide, n0)
        with np.errstate(over="ignore"):  # past double is inf: reported below
            u[n0 + 1: k + 1] = wide[n0 + 1:]
    if bad is None and M > k:
        bad = kernels.recurrence_steps(spec.polys, u, k)
    if bad is not None:
        _singular(bad)
    if s > 1:
        u = u[::s].copy()
    if spec.binomial:
        p, theta = spec.binomial
        with np.errstate(all="ignore"):  # taps past double are inf or NaN: reported below
            taps = _binomial_taps(p, theta, N)
            if isinstance(p, int):  # a polynomial's min(p, N) + 1 taps
                u = np.convolve(u, taps)[: N + 1]
            else:  # all N + 1 taps: the truncated product
                u = kernels.convolve(u, taps)
    _finite_or_raise(u, "recurrence")  # seeds and long double steps too
    return u


def _binomial_taps(p, theta, N: int):
    """C(p, j) (-theta)^j for j <= N: the coefficients of (1 - theta z)^p
    that a run through u_N reads.  At an ``int`` p, a nonnegative integer,
    only those for j <= min(p, N): the rest vanish, and a huge p costs no
    more than p = N."""
    import numpy as np

    if isinstance(p, int):
        j = np.arange(min(p, N))
        p = float(p)
    else:
        j = np.arange(N)
    return np.cumprod(np.concatenate(([1], -theta * (p - j) / (j + 1))))


def _half(combine, x, y):
    """combine(x, y) / 2 of two Fractions; 0 at once when both are 0 (the
    imaginary parts of real branches)."""
    return combine(x, y) / 2 if x or y else _FRACTION_ZERO


def _conjugate_combo(spec: RecurrenceSpec, N: int, combine, parts) -> list:
    """A conjugate combo from its left branch u alone: (u + conj u)/2 = Re u
    and (u - conj u)/2 = i Im u, so only u's real part (for +) or its
    imaginary part (for -) is formed, one ``Fraction`` per entry.  The
    stream is stepped even where its seeds are all zero, so a singular row
    is reported."""
    add = combine is operator.add
    values = [s.re if add else s.im for s in spec.seeds[: N + 1]]
    if N > spec.start:
        re, im, dens = _stream(spec.polys, _window(spec), spec.start, N)
        nums = re if add else im
        values += [_FRACTION_ZERO] * len(dens) if nums is None else map(Fraction, nums, dens)
    return [
        GaussianRational(*parts(*((x, _FRACTION_ZERO) if add else (_FRACTION_ZERO, x))))
        for x in values
    ]


def _run_combo(combo: ComboSpec, N: int):
    """The branches combined entrywise; numpy's complex product is Python's
    formula, so f64 arrays give the entries Python scalars would.  Exact
    entries (Gaussian rationals: a combo's seeds carry no pi) combine on
    their ``Fraction`` parts, to the values and types of the
    Gaussian-rational formula.  A one-branch combo steps its left branch
    only."""
    combine, scale, parts = _COMBINE[combo.combiner]
    if combo.backend != "f64":
        if combo.right is None:
            return _conjugate_combo(combo.left, N, combine, parts)
        return [
            GaussianRational(*parts(_half(combine, u.re, v.re), _half(combine, u.im, v.im)))
            for u, v in zip(_run_generic(combo.left, N), _run_generic(combo.right, N))
        ]
    u = _run_f64(combo.left, N)
    v = u.conj() if combo.right is None else _run_f64(combo.right, N)
    values = combine(u, v) * scale(F64)
    _finite_or_raise(values, "combo")
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
    return CoeffStream(values, spec.backend)

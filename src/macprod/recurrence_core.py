"""Generic engine for linear recurrences with polynomial coefficients.

A :class:`RecurrenceSpec` describes u[n+1] = sum_{i=0}^{k} row(n)[i] * u[n-i]
for n >= n0, started from the seed values u[0..n0]; n0 is the last seed's
index.  It is plain data: the row is given as polynomials in n
(``RecurrenceSpec.polys``), each entry a numerator polynomial over one
denominator polynomial, and the factors of that denominator are named
polynomials too, for the message that reports a singular row.

The exact path has the polynomials in integers: the families evaluate each
product operator in integers, every entry over the one denominator
P_0(n+1).  The stream steps with them fraction-free (``step_exact``): the
window u_{n-k} .. u_n is held as integer numerators over one running
denominator D, a complex row denominator is made real by its conjugate, and
the only reduction is the gcd of each step's denominator with the new
numerator, which is cheap because that denominator is a small integer.  It
keeps D equal to the window's least common denominator in practice, and
each output part is one ``Fraction`` over its step's D, wrapped in
:class:`GaussianRational`.  A stream whose coefficients and seeds are real
carries no imaginary half.  Pi-linear seeds q0 + q1*pi step by linearity as
two rational streams (the K and E streams are pi/2 times a rational stream,
arccos-M is rational + pi * rational), so :class:`PiLinear` never enters
the loop, and a stream whose seeds are all zero is not stepped.

The f64 path hands its long double row polynomials and the whole stream to
one call of ``kernels.recurrence_steps``, which evaluates each row and steps
it, and reports the first index whose row denominator vanishes.  Any other
failure is an entry or value past double, which IEEE arithmetic carries as
inf or NaN into every value computed from it, so one finiteness check of the
output reports it at its first non-finite coefficient.  It may step several
coupled sequences as one (``interleave``: entry n of sequence j is stream
entry interleave*n + j, stepped by its own set of polynomials, and the run
returns sequence 0), or convolve its stream with a polynomial factor's
coefficients (``taps``); the f64 backend serves products whose single
recurrence is unstable in floats those ways.  An f64 run returns a
complex128 array, and a combo's two f64 branches combine as arrays.

A :class:`ComboSpec` combines two recurrence branches entrywise.  When the
right branch is the complex conjugate of the left (a sin/cos product at
real parameters: the exp-X branches at +ip and -ip), it says so, and a run
steps the left branch alone; exact forms only the part of each entry its
combiner reads (the imaginary part for sin, the real part for cos).

Only the f64 path imports numpy and the kernels, when it first runs; exact
specs are built, compared, hashed and stepped without them.

``run`` is the one entry point: it accepts every spec kind and dispatches on
it.  It is a pure function over immutable specs; concurrent runs are safe.
A single run is inherently sequential (each step consumes the previous k+1
values), so no internal parallelism is attempted.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from .numerics import GaussianRational, PiLinear, SingularIndexError, get_backend
from .series_oracle import CoeffStream, _finite_or_raise

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


@dataclass(frozen=True)
class RecurrenceSpec:
    """Order, seeds u_0 .. u_n0, and the row as polynomials in the step index n.

    ``polys`` is the row.  Exact: the pair ``(den, terms)`` in integers,
    entry i being num_i(n) / den(n), ``terms`` holding ``(i, num_i)`` for the
    nonzero entries, and each polynomial a pair (real part, imaginary part)
    of integer coefficient tuples, highest power first, a zero part being
    ``(0,)``.  f64: an array of shape (interleave, k + 2, width), long
    double (complex when any coefficient is), per sequence P_0, P_1, ...,
    P_{k+1} highest power first, entry i being P_{i+1}(n) / P_0(n) (see
    ``kernels.recurrence_steps``).

    ``den_factors`` names the factors of the row denominator, each as
    ``(name, polynomial in n)`` with the coefficients highest power first,
    for example ``(("n+1", (1, 1)), ("c+n", (1, c)))``; a singular row is
    reported with the names of those that vanish.

    The start index n0 is derived: the last seed's index, ``len(seeds) - 1``.

    f64 only: with ``interleave`` s > 1 the stream holds s sequences, entry
    s*n + j being entry n of sequence j, and the run returns sequence 0;
    with ``taps`` it returns the stream convolved with them, cut at u_N.
    """

    order: int
    seeds: tuple
    polys: object
    backend: str
    meta: tuple = field(default=())
    den_factors: tuple = ()
    interleave: int = 1
    taps: tuple = ()

    @property
    def start(self) -> int:
        return len(self.seeds) - 1

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("recurrence order must be positive")
        if (self.interleave != 1 or self.taps) and self.backend != "f64":
            raise ValueError("interleave and taps apply to f64 specs only")
        if self.backend == "f64":
            import numpy as np

            if not (
                isinstance(self.polys, np.ndarray)
                and self.polys.ndim == 3
                and self.polys.shape[:2] == (self.interleave, self.order + 2)
            ):
                raise ValueError(
                    "an f64 spec steps an array of polys of shape (interleave, order + 2, width)"
                )
        elif not _integer_row(self.polys, self.order):
            raise ValueError(
                "an exact spec steps the integer row polys = (den, terms), "
                "terms holding (i, num_i) for 0 <= i <= order"
            )
        if self.start < self.order:
            raise ValueError(
                f"start index {self.start} (seeds u_0..u_{self.start}) below order "
                f"{self.order}: the first step would reach before u_0"
            )

    def _fields(self):
        return tuple(getattr(self, f.name) for f in fields(self))

    def __eq__(self, other):
        """Field by field; f64 polys by shape, dtype and value, so -0.0
        equals 0.0."""
        if other.__class__ is not self.__class__:
            return NotImplemented
        return all(map(_same, self._fields(), other._fields()))

    def __hash__(self):
        return hash(tuple(map(_hashable, self._fields())))


def _numpy_if_array(*xs):
    """numpy when one of ``xs`` is a numpy array, else None.  Arrays occur
    in f64 specs only, which have loaded numpy, so exact specs compare and
    hash without importing it."""
    np = sys.modules.get("numpy")
    return np if np is not None and any(isinstance(x, np.ndarray) for x in xs) else None


def _same(x, y) -> bool:
    np = _numpy_if_array(x, y)
    if np is not None:
        return (
            isinstance(x, np.ndarray)
            and isinstance(y, np.ndarray)
            and x.shape == y.shape
            and x.dtype == y.dtype
            and (x is y or np.array_equal(x, y))
        )
    return x == y


def _hashable(x):
    """x, or an array as its shape, dtype and the bytes of its values plus
    +0 (which makes every zero +0.0) rounded to double, which are equal for
    arrays that are equal by value."""
    np = _numpy_if_array(x)
    if np is None:
        return x
    double = np.complex128 if np.iscomplexobj(x) else np.float64
    return x.shape, x.dtype.str, (x + 0).astype(double).tobytes()


def conjugated(spec: RecurrenceSpec) -> RecurrenceSpec:
    """The spec whose stream is the complex conjugate of ``spec``'s: its
    seeds, row polynomials and taps conjugated."""
    if spec.backend == "f64":
        import numpy as np

        polys = np.conj(spec.polys)
        polys.flags.writeable = False
    else:
        den, terms = spec.polys
        polys = (_conj_poly(den), tuple((i, _conj_poly(num)) for i, num in terms))
    return replace(
        spec,
        seeds=tuple(s.conjugate() for s in spec.seeds),
        polys=polys,
        taps=tuple(t.conjugate() for t in spec.taps),
    )


def _conj_poly(poly):
    re, im = poly
    return re, tuple(-x for x in im)


@dataclass(frozen=True)
class ComboSpec:
    """Two recurrence branches combined entrywise.

    With ``conjugate`` the right branch is ``conjugated(left)``, and a run
    steps the left branch only: f64 combines it with its conjugate, and
    exact reads the result from its real and imaginary parts.
    """

    left: RecurrenceSpec
    right: RecurrenceSpec
    combiner: str
    meta: tuple = field(default=())
    conjugate: bool = False

    def __post_init__(self):
        if self.combiner not in COMBINERS:
            raise ValueError(f"unknown combiner {self.combiner!r}")
        if self.left.backend != self.right.backend:
            raise ValueError("combo branches must share one backend")
        if self.conjugate and self.right != conjugated(self.left):
            raise ValueError("a conjugate combo's right branch is its left branch conjugated")

    @property
    def backend(self):
        return self.left.backend


def _meta_get(meta, key, default=None):
    for k, v in meta:
        if k == key:
            return v
    return default


def _singular(den_factors, n: int):
    names = ", ".join(name for name, poly in den_factors if not _horner(poly, n)) or None
    raise SingularIndexError(
        f"recurrence row is singular at n={n}: {names or 'a row denominator'} vanishes",
        index=n,
        factor=names,
    )


def _horner(poly, x):
    """poly (highest power first) at x: a scalar or an index vector."""
    acc = poly[0]
    for c in poly[1:]:
        acc = acc * x + c
    return acc


def _stream(polys, window: list, n0: int, N: int, den_factors):
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
            _singular(den_factors, n)
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


def _values(stream, part=None) -> list:
    """The entries of a ``_stream`` as Gaussian rationals, each part one
    ``Fraction`` over its step's D, which normalises it; or with ``part``
    ("re" or "im") only the ``Fraction`` of that part."""
    re, im, dens = stream
    if part is not None:
        nums = re if part == "re" else im
        return [_FRACTION_ZERO] * len(dens) if nums is None else list(map(Fraction, nums, dens))
    if im is None:
        return [GaussianRational(x, _FRACTION_ZERO) for x in map(Fraction, re, dens)]
    return list(map(GaussianRational, map(Fraction, re, dens), map(Fraction, im, dens)))


def step_exact(polys, window: list, n0: int, N: int, den_factors=(), part=None) -> list:
    """u_{n0+1} .. u_N from the window u_{n0-k} .. u_{n0} of exact scalars,
    stepped over the integer row ``polys`` (see :class:`RecurrenceSpec`).
    With ``part`` ("re" or "im"), for a window without pi, only the
    ``Fraction`` of that part of each entry is formed.

    q0 + q1*pi steps as two rational streams, so pi never enters the loop,
    and a stream whose window is all zero is not stepped.
    """
    window = [GaussianRational(s) if isinstance(s, (int, Fraction)) else s for s in window]
    pi = any(isinstance(s, PiLinear) for s in window)
    parts = [[s.q0 if isinstance(s, PiLinear) else s for s in window]]
    if pi:
        parts.append([s.q1 if isinstance(s, PiLinear) else _ZERO for s in window])
    live = [any(p) for p in parts]
    if not any(live):  # still step one, so a singular row is reported
        live[0] = True
    zero = _ZERO if part is None else _FRACTION_ZERO
    streams = [
        _values(_stream(polys, p, n0, N, den_factors), part) if on else [zero] * (N - n0)
        for p, on in zip(parts, live)
    ]
    if pi:
        return [PiLinear(q0, q1) for q0, q1 in zip(*streams)]
    return streams[0]


def _run_generic(spec: RecurrenceSpec, N: int, part=None) -> list:
    """u_0 .. u_N, or with ``part`` only that part of each entry (seeds
    without pi)."""
    values = list(spec.seeds[: N + 1])
    if part is not None:
        values = [getattr(v if isinstance(v, GaussianRational) else GaussianRational(v), part)
                  for v in values]
    if N <= spec.start:
        return values
    window = list(spec.seeds[spec.start - spec.order:])
    return values + step_exact(spec.polys, window, spec.start, N, spec.den_factors, part)


def _run_f64(spec: RecurrenceSpec, N: int):
    import numpy as np

    from . import kernels

    n0, s = spec.start, spec.interleave
    M = s * N  # the stream index of u_N
    u = np.zeros(M + 1, dtype=np.complex128)
    m = min(n0, M)
    u[: m + 1] = spec.seeds[: m + 1]
    if M > n0:
        bad = kernels.recurrence_steps(spec.polys, u, n0)
        if bad is not None:
            _singular(spec.den_factors, bad)
    if s > 1:
        u = u[::s].copy()
    if spec.taps:
        with np.errstate(all="ignore"):
            u = np.convolve(u, spec.taps)[: N + 1]
    _finite_or_raise(u, "recurrence")  # seeds too: a build's first steps can overflow
    return u


def _half(combine, x, y):
    """combine(x, y) / 2 of two Fractions; 0 at once when both are 0 (the
    imaginary parts of real branches)."""
    return combine(x, y) / 2 if x or y else _FRACTION_ZERO


def _conjugate_combo(spec: RecurrenceSpec, N: int, combine, parts) -> list:
    """A conjugate combo from its left branch u alone: (u + conj u)/2 = Re u
    and (u - conj u)/2 = i Im u, so only u's real part (for +) or its
    imaginary part (for -) is formed."""
    add = combine is operator.add
    return [
        GaussianRational(*parts(*((x, _FRACTION_ZERO) if add else (_FRACTION_ZERO, x))))
        for x in _run_generic(spec, N, "re" if add else "im")
    ]


def _run_combo(combo: ComboSpec, N: int):
    """The branches combined entrywise; numpy's complex product is Python's
    formula, so f64 arrays give the entries Python scalars would.  Exact
    Gaussian-rational entries combine on their ``Fraction`` parts, to the
    values and types of the Gaussian-rational formula.  A conjugate combo
    steps its left branch only; one with pi-linear seeds, which no family
    builds, steps both."""
    bk = get_backend(combo.backend)
    combine, scale, parts = _COMBINE[combo.combiner]
    scale = scale(bk)
    if combo.backend != "f64":
        if combo.conjugate and not any(isinstance(s, PiLinear) for s in combo.left.seeds):
            return _conjugate_combo(combo.left, N, combine, parts)
        out = []
        for u, v in zip(run(combo.left, N).coeffs, run(combo.right, N).coeffs):
            if type(u) is not GaussianRational or type(v) is not GaussianRational:
                out.append(combine(u, v) * scale)
                continue
            half = (_half(combine, u.re, v.re), _half(combine, u.im, v.im))
            out.append(GaussianRational(*parts(*half)))
        return out
    u = _run_f64(combo.left, N)
    v = u.conj() if combo.conjugate else _run_f64(combo.right, N)
    values = combine(u, v) * scale
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
    return CoeffStream(
        values,
        _meta_get(spec.meta, "base", "product"),
        "recurrence",
        spec.backend,
        spec.meta,
    )

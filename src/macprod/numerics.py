"""Scalar arithmetic shared by every other module.

Two backends coexist:

* ``exact``: Gaussian rationals (complex numbers with :class:`~fractions.Fraction`
  real and imaginary parts), optionally extended by a term linear in pi
  (:class:`PiLinear`).  Everything is computed exactly; results are always in
  canonical form because ``Fraction`` normalises eagerly.
* ``f64``: plain double-precision complex numbers.  A non-finite value is an
  error condition, never a silently propagated result.

Values never migrate between backends implicitly.  :func:`approximate` is the
single, one-way bridge from exact values to floats.

The coefficient stream that both the recurrence engine and the oracle
return (:class:`CoeffStream`) lives here too, so the two sides share this
module and nothing else: neither imports the other.  So does the base of
the package's record types (:class:`_Record`): classes with fixed fields in
``__slots__``, which no module builds with ``dataclasses``, since that
import (and the ``inspect`` it brings) would cost every command's start.

All scalar values are immutable after construction and every operation is a
pure function, so everything here is safe for unrestricted concurrent use.
"""

from __future__ import annotations

import cmath
import math
import re
from fractions import Fraction

__all__ = [
    "Rational",
    "GaussianRational",
    "PiLinear",
    "ParseError",
    "BackendMismatchError",
    "NonFiniteError",
    "PiDegreeError",
    "ParameterDomainError",
    "SingularIndexError",
    "pochhammer",
    "parse_scalar",
    "format_scalar",
    "fraction_text",
    "approximate",
    "get_backend",
    "EXACT",
    "F64",
    "BACKENDS",
    "DEFAULT_TOLERANCE",
    "CoeffStream",
]

# The exact real scalar: arbitrary-precision, eagerly normalised, den > 0.
Rational = Fraction


class ParseError(ValueError):
    """Scalar text does not match the grammar; the message names the token."""


class BackendMismatchError(ValueError):
    """A value was offered to a backend that cannot represent it exactly."""


class NonFiniteError(ArithmeticError):
    """A float-backend computation produced NaN or infinity."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


class PiDegreeError(ArithmeticError):
    """An operation would need a pi**2 term, which is not representable."""


class ParameterDomainError(ValueError):
    """A family parameter violates its validity predicate."""


class SingularIndexError(ArithmeticError):
    """A recurrence row denominator vanished at some index n."""

    def __init__(self, message, index=None):
        super().__init__(message)
        self.index = index


def _frac(value) -> Fraction:
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    raise TypeError(f"cannot build an exact rational from {type(value).__name__}")


class GaussianRational:
    """A complex number with exact rational real and imaginary parts.

    Closed under +, -, *, and / (division by zero raises).  Mixing with the
    float backend is a TypeError; ints and ``Fraction`` values are accepted as
    backend-neutral exact literals.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        self.re = _frac(re)
        self.im = _frac(im)

    @property
    def is_zero(self) -> bool:
        return not self.re and not self.im

    @staticmethod
    def _coerce(other):
        if isinstance(other, GaussianRational):
            return other
        if isinstance(other, (int, Fraction)):
            return GaussianRational(other)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(o.re - self.re, o.im - self.im)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return GaussianRational(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        norm = o.re * o.re + o.im * o.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def conjugate(self):
        return GaussianRational(self.re, -self.im)

    def __pos__(self):
        return self

    def __pow__(self, exponent):
        if not isinstance(exponent, int) or exponent < 0:
            return NotImplemented
        acc = _GR_ONE
        base = self
        e = exponent
        while e:
            if e & 1:
                acc = acc * base
            e >>= 1
            if e:
                base = base * base
        return acc

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            if isinstance(other, PiLinear):
                return other == self
            return NotImplemented
        return self.re == o.re and self.im == o.im

    def __hash__(self):
        if not self.im:
            return hash(self.re)
        return hash((self.re, self.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        return format_scalar(self)


_GR_ZERO = GaussianRational(0)
_GR_ONE = GaussianRational(1)


class PiLinear:
    """An exact value q0 + q1*pi with Gaussian-rational q0, q1.

    The pi-degree is capped at one: a product in which both factors carry a
    pi term would need pi**2 and raises :class:`PiDegreeError` instead of
    guessing.
    """

    __slots__ = ("q0", "q1")

    def __init__(self, q0=0, q1=0):
        self.q0 = q0 if isinstance(q0, GaussianRational) else GaussianRational(q0)
        self.q1 = q1 if isinstance(q1, GaussianRational) else GaussianRational(q1)

    @staticmethod
    def _coerce(other):
        if isinstance(other, PiLinear):
            return other
        g = GaussianRational._coerce(other)
        if g is None:
            return None
        return PiLinear(g)

    @property
    def is_zero(self) -> bool:
        return self.q0.is_zero and self.q1.is_zero

    def __add__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PiLinear(self.q0 + o.q0, self.q1 + o.q1)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PiLinear(self.q0 - o.q0, self.q1 - o.q1)

    def __rsub__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return PiLinear(o.q0 - self.q0, o.q1 - self.q1)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if not self.q1.is_zero and not o.q1.is_zero:
            raise PiDegreeError("product of two pi-carrying values needs pi**2")
        return PiLinear(
            self.q0 * o.q0,
            self.q0 * o.q1 + self.q1 * o.q0,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.is_zero:
            raise ZeroDivisionError("division by zero")
        if o.q1.is_zero:
            return PiLinear(self.q0 / o.q0, self.q1 / o.q0)
        if o.q0.is_zero:
            # dividing by a pure-pi value strips one pi from the dividend
            if not self.q0.is_zero:
                raise PiDegreeError("division by a pure-pi value needs 1/pi")
            return PiLinear(self.q1 / o.q1)
        raise PiDegreeError("division by a mixed pi-linear value is not representable")

    def __rtruediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return o / self

    def __neg__(self):
        return PiLinear(-self.q0, -self.q1)

    def conjugate(self):
        return PiLinear(self.q0.conjugate(), self.q1.conjugate())

    def __pos__(self):
        return self

    def __eq__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        return self.q0 == o.q0 and self.q1 == o.q1

    def __hash__(self):
        if self.q1.is_zero:
            return hash(self.q0)
        return hash((self.q0.re, self.q0.im, self.q1.re, self.q1.im))

    def __bool__(self):
        return not self.is_zero

    def __repr__(self):
        return f"PiLinear({self.q0!r}, {self.q1!r})"

    def __str__(self):
        return format_scalar(self)


def pochhammer(x, n: int):
    """Rising factorial x(x+1)...(x+n-1); the empty product (n=0) is 1."""
    if n < 0:
        raise ValueError("pochhammer index must be nonnegative")
    if isinstance(x, (complex, float)):
        acc = complex(1.0)
        x = complex(x)
    elif isinstance(x, (GaussianRational, PiLinear)):
        acc = _GR_ONE
    elif isinstance(x, (int, Fraction)):
        acc = Fraction(1)
    else:
        raise TypeError(f"unsupported scalar type {type(x).__name__}")
    for k in range(n):
        acc = acc * (x + k)
    if isinstance(acc, complex) and not cmath.isfinite(acc):
        raise NonFiniteError(f"pochhammer overflowed at n={n}")
    return acc


# ---------------------------------------------------------------------------
# text grammar: rational "N/D" | integer | decimal (float backend only)
# | complex "RE+IMi" / "RE-IMi"
# ---------------------------------------------------------------------------

_NUM = r"(?:\d+/\d+|\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)"
_SCALAR_RE = re.compile(rf"^(?P<first>[+-]?{_NUM})(?P<second>[+-]{_NUM})?(?P<iunit>i)?$")


def _int(digits: str) -> int:
    """``int(digits)``, also past ``int``'s digit limit (see ``_int_text``)."""
    try:
        return int(digits)
    except ValueError:
        from decimal import Decimal

        return int(Decimal(digits))


def _parse_real(token: str, exact: bool):
    if "/" in token:
        num, den = map(_int, token.lstrip("+-").split("/", 1))
        if den == 0:
            raise ParseError(f"zero denominator in {token!r}")
        return Fraction(-num if token[0] == "-" else num, den)
    if "." in token or "e" in token or "E" in token:
        if exact:
            raise BackendMismatchError(
                f"decimal token {token!r} is not exact; use the f64 backend or a rational"
            )
        return float(token)
    value = _int(token)
    return Fraction(value) if exact else float(value)


def parse_scalar(text: str, backend="exact"):
    """Parse scalar text under the named backend.

    Exact backend returns :class:`GaussianRational`; the f64 backend returns a
    finite Python complex.  Text outside the grammar, or whose value is not a
    finite double (``1e400``, an integer past double), raises
    :class:`ParseError` naming it.
    """
    bk = get_backend(backend)
    exact = bk is EXACT
    stripped = text.strip()
    m = _SCALAR_RE.match(stripped)
    if m is None:
        raise ParseError(f"malformed scalar text {stripped!r}")
    first, second, iunit = m.group("first"), m.group("second"), m.group("iunit")
    if iunit:
        if second is None:
            re_part, im_part = None, first
        else:
            re_part, im_part = first, second
    else:
        if second is not None:
            raise ParseError(f"missing imaginary unit after {second!r} in {stripped!r}")
        re_part, im_part = first, None
    zero = Fraction(0) if exact else 0.0
    try:
        re_val = zero if re_part is None else _parse_real(re_part, exact)
        im_val = zero if im_part is None else _parse_real(im_part, exact)
        if exact:
            return GaussianRational(re_val, im_val)
        value = complex(re_val, im_val)
    except OverflowError:  # f64: an integer or N/D past double
        value = complex(math.inf)
    if not cmath.isfinite(value):
        raise ParseError(f"scalar text {stripped!r} is not finite in f64")
    return value


def _format_float(x: float) -> str:
    return repr(float(x))


def _int_text(n: int) -> str:
    """n in decimal.  ``str`` refuses ints past the interpreter's digit limit
    (4300 by default); ``Decimal`` has none, so long values print without
    changing that process-wide limit."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal

        return str(Decimal(n))


def fraction_text(x) -> str:
    """An int or Fraction as "N" or "N/D", at any length; ``str`` of a
    Fraction is that text."""
    try:
        return str(x)
    except ValueError:
        num = _int_text(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_int_text(x.denominator)}"


def format_scalar(x) -> str:
    """Render a scalar in the same grammar :func:`parse_scalar` accepts.

    PiLinear values do not fit the flag grammar; they render all four
    rationals as ``(q0)+(q1)pi`` for human consumption (structured output
    carries the four parts as separate fields instead).
    """
    if isinstance(x, PiLinear):
        if x.q1.is_zero:
            return format_scalar(x.q0)
        return f"({format_scalar(x.q0)})+({format_scalar(x.q1)})pi"
    if isinstance(x, GaussianRational):
        if not x.im:
            return fraction_text(x.re)
        sign = "+" if x.im > 0 else "-"
        return f"{fraction_text(x.re)}{sign}{fraction_text(abs(x.im))}i"
    if isinstance(x, (Fraction, int)):
        return fraction_text(x)
    if isinstance(x, (complex, float)):
        z = complex(x)
        if z.imag == 0.0:
            return _format_float(z.real)
        sign = "+" if z.imag > 0 or z.imag != z.imag else "-"
        return f"{_format_float(z.real)}{sign}{_format_float(abs(z.imag))}i"
    raise TypeError(f"unsupported scalar type {type(x).__name__}")


def approximate(x) -> complex:
    """Convert any scalar to a finite double-precision complex number;
    NonFiniteError where it has none (an exact part past double)."""
    if isinstance(x, PiLinear):
        value = approximate(x.q0) + approximate(x.q1) * math.pi
    elif isinstance(x, (GaussianRational, int, Fraction)):
        re, im = (x.re, x.im) if isinstance(x, GaussianRational) else (x, 0)
        try:
            value = complex(float(re), float(im))
        except OverflowError:  # float() of an int or Fraction past double
            value = math.inf
    elif isinstance(x, (complex, float)):
        value = complex(x)
    else:
        raise TypeError(f"unsupported scalar type {type(x).__name__}")
    if not cmath.isfinite(value):
        raise NonFiniteError("approximation produced a non-finite value")
    return value


# ---------------------------------------------------------------------------
# backends
# ---------------------------------------------------------------------------


class ExactBackend:
    """Arbitrary-precision Gaussian rationals with the pi-linear extension."""

    name = "exact"

    def zero(self):
        return _GR_ZERO

    def one(self):
        return _GR_ONE

    def imaginary_unit(self):
        return GaussianRational(0, 1)

    def half_pi(self):
        return PiLinear(0, GaussianRational(Fraction(1, 2)))

    def coerce(self, value):
        if isinstance(value, (GaussianRational, PiLinear)):
            return value
        if isinstance(value, (int, Fraction)):
            return GaussianRational(value)
        raise BackendMismatchError(
            f"{type(value).__name__} value cannot enter the exact backend implicitly"
        )


class FloatBackend:
    """Double-precision complex numbers; non-finite values raise."""

    name = "f64"

    def zero(self):
        return complex(0.0)

    def one(self):
        return complex(1.0)

    def imaginary_unit(self):
        return complex(0.0, 1.0)

    def half_pi(self):
        return complex(math.pi / 2)

    def coerce(self, value):
        if isinstance(value, (GaussianRational, PiLinear)):
            raise BackendMismatchError(
                "exact values enter the f64 backend only through approximate()"
            )
        value = complex(value)
        if not cmath.isfinite(value):
            raise NonFiniteError("non-finite value offered to the f64 backend")
        return value


EXACT = ExactBackend()
F64 = FloatBackend()
BACKENDS = {"exact": EXACT, "f64": F64}

#: the default bound of an f64 comparison, on |x - y| / max(1, |y|); it lives
#: here so the CLI's help can quote it without loading the referee
DEFAULT_TOLERANCE = 1e-8


def get_backend(backend):
    """Resolve a backend id (or pass a backend object through)."""
    if isinstance(backend, (ExactBackend, FloatBackend)):
        return backend
    try:
        return BACKENDS[backend]
    except KeyError:
        raise ParseError(f"unknown backend {backend!r}; expected 'exact' or 'f64'") from None


def infer_backend(*values):
    """Pick the backend implied by the given scalar values."""
    for v in values:
        if isinstance(v, (complex, float)):
            return F64
    return EXACT


def is_nonpositive_integer(value) -> bool:
    """True when the scalar is 0, -1, -2, ... (the excluded c values)."""
    if isinstance(value, PiLinear):
        return value.q1.is_zero and is_nonpositive_integer(value.q0)
    if isinstance(value, GaussianRational):
        return not value.im and value.re.denominator == 1 and value.re <= 0
    if isinstance(value, Fraction):
        return value.denominator == 1 and value <= 0
    if isinstance(value, int):
        return value <= 0
    z = complex(value)
    return z.imag == 0.0 and z.real <= 0 and float(z.real).is_integer()


def scalar_equals_int(value, k: int) -> bool:
    if isinstance(value, (GaussianRational, PiLinear, int, Fraction)):
        return value == k
    return complex(value) == complex(k)


# ---------------------------------------------------------------------------
# records
# ---------------------------------------------------------------------------

_set = object.__setattr__


class _Record:
    """Base of the package's record types.  Each subclass names its fields in
    ``__slots__`` and sets them once, in its ``__init__``, through ``_set``;
    assigning or deleting an attribute afterwards raises AttributeError.  The
    repr lists the fields in order, and a record pickles as its class applied
    to them.  Records compare and hash by identity (see :class:`_Value`)."""

    __slots__ = ()

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._fields()


class _Value(_Record):
    """A record that compares and hashes by its fields, and equals only
    records of its own class."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())


# ---------------------------------------------------------------------------
# coefficient streams
# ---------------------------------------------------------------------------


class CoeffStream(_Record):
    """A finite prefix u_0..u_N of a Maclaurin coefficient sequence and the
    backend that computed it, which fixes its form: a tuple in the exact
    backend, a read-only complex128 array in f64.  Streams compare and hash
    by identity; compare their ``coeffs``."""

    __slots__ = ("coeffs", "backend")

    def __init__(self, coeffs, backend: str):
        # coeffs: a tuple (exact) or numpy.ndarray (f64); backend: "exact" | "f64"
        if backend == "f64":
            import numpy as np

            coeffs = np.asarray(coeffs, dtype=np.complex128)
            coeffs.flags.writeable = False
        else:
            coeffs = tuple(coeffs)
        _set(self, "coeffs", coeffs)
        _set(self, "backend", backend)
        if not len(coeffs):
            raise ValueError("a coefficient stream holds at least u_0")

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]


def _finite_or_raise(values, what: str):
    """Raise NonFiniteError naming the first non-finite entry of an f64 sequence."""
    import numpy as np

    finite = np.isfinite(values)
    if not finite.all():
        n = int(np.argmin(finite))
        raise NonFiniteError(f"{what} produced a non-finite entry at n={n}", index=n)

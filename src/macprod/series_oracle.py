"""Ground-truth coefficient streams built by direct series arithmetic.

Everything here is computed straight from defining series and convolution,
never from the recurrence tables in :mod:`macprod.families`, so these streams
can referee those tables.

Every factor series but one is a hypergeometric term: its first nonzero
entry times a running product of a term ratio r(n) that is rational in n
(``_term_series``).  Exact builds multiply the ratios in one at a time;
f64 builds evaluate r over an index array and take ``np.cumprod``.  The
inverse-tangent exponential series is generated from the first-order ODE
it satisfies, (1 + z^2) f'(z) = -p f(z), which gives the two-term relation
f[n+1] = (-p*f[n] - (n-1)*f[n-1]) / (n+1); this is independent of the
five-term product recurrences it is later used to check.

An exact stream holds a tuple of exact scalars, an f64 stream a read-only
complex128 array.  numpy is imported by the f64 functions only, so the exact
oracle runs without it.
"""

from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .numerics import (
    EXACT,
    GaussianRational,
    NonFiniteError,
    ParameterDomainError,
    PiDegreeError,
    PiLinear,
    get_backend,
    infer_backend,
    is_nonpositive_integer,
)

ELEMENTARY_KINDS = (
    "exp",
    "sin",
    "cos",
    "sinh",
    "cosh",
    "arcsin",
    "arccos",
    "binom",
    "exp_arctan",
)

#: the Gauss parameters (a, b, c) behind each elliptic base:
#: K(sqrt z) = (pi/2) F(1/2, 1/2; 1; z) and E(sqrt z) = (pi/2) F(-1/2, 1/2; 1; z)
ELLIPTIC_ABC = {
    "K": (Fraction(1, 2), Fraction(1, 2), 1),
    "E": (Fraction(-1, 2), Fraction(1, 2), 1),
}


@dataclass(frozen=True)
class Elementary:
    """A parameterised elementary factor h(z)."""

    kind: str
    p: object = None
    theta: object = None

    def __post_init__(self):
        if self.kind not in ELEMENTARY_KINDS:
            raise ParameterDomainError(f"unknown elementary kind {self.kind!r}")
        if self.p is None:
            raise ParameterDomainError(f"{self.kind} requires parameter p")
        if self.kind == "binom":
            if self.theta is None:
                raise ParameterDomainError("binom requires parameter theta")
        elif self.theta is not None:
            raise ParameterDomainError(f"{self.kind} takes no theta parameter")


@dataclass(frozen=True)
class CoeffStream:
    """A finite prefix u_0..u_N of a Maclaurin coefficient sequence: a tuple
    in the exact backend, a read-only complex128 array in f64."""

    coeffs: object  # tuple (exact) or numpy.ndarray (f64)
    base: str  # "M" | "F" | "K" | "E" | "elementary" | "product"
    provenance: str  # "oracle" | "recurrence"
    backend: str  # "exact" | "f64"
    params: tuple = field(default=())

    def __post_init__(self):
        if self.backend == "f64":
            import numpy as np

            coeffs = np.asarray(self.coeffs, dtype=np.complex128)
            coeffs.flags.writeable = False
        else:
            coeffs = tuple(self.coeffs)
        object.__setattr__(self, "coeffs", coeffs)
        if not len(coeffs):
            raise ValueError("a coefficient stream holds at least u_0")

    def __len__(self):
        return len(self.coeffs)

    def __getitem__(self, n):
        return self.coeffs[n]


def _check_c(c):
    if is_nonpositive_integer(c):
        raise ParameterDomainError(
            "parameter c must not be zero or a negative integer"
        )


def _finite_or_raise(values, what: str):
    """Raise NonFiniteError naming the first non-finite entry of an f64 sequence."""
    import numpy as np

    finite = np.isfinite(values)
    if not finite.all():
        n = int(np.argmin(finite))
        raise NonFiniteError(f"{what} produced a non-finite entry at n={n}", index=n)


def _term_series(bk, N: int, first, ratio, start: int = 0, step: int = 1):
    """Entries 0..N of a series that is nonzero only at start, start + step,
    ...: ``first`` at ``start``, and each later one the entry ``step`` before
    it, at index k, times ratio(k).  f64 evaluates ``ratio`` once over all
    those k as an array."""
    if bk is EXACT:
        out = [bk.zero()] * (N + 1)
        if start <= N:
            ratios = map(ratio, range(start, N - step + 1, step))
            out[start::step] = itertools.accumulate(ratios, operator.mul, initial=first)
        return out
    import numpy as np

    out = np.zeros(N + 1, dtype=np.complex128)
    if start <= N:
        terms = np.empty(len(out[start::step]), dtype=np.complex128)
        terms[0] = first
        with np.errstate(all="ignore"):
            terms[1:] = ratio(np.arange(start, N - step + 1, step, dtype=np.float64))
            np.cumprod(terms, out=out[start::step])
    return out


def _oracle(values, base: str, bk, what: str) -> CoeffStream:
    if bk is not EXACT:
        _finite_or_raise(values, what)
    return CoeffStream(values, base, "oracle", bk.name)


def kummer_series(a, c, N: int, backend=None) -> CoeffStream:
    """Coefficients of the confluent series: entry n is (a)_n / ((c)_n n!)."""
    bk = get_backend(backend) if backend is not None else infer_backend(a, c)
    _check_c(c)
    a, c = bk.coerce(a), bk.coerce(c)
    out = _term_series(bk, N, bk.one(), lambda k: (a + k) / ((c + k) * (k + 1)))
    return _oracle(out, "M", bk, "kummer_series")


def gauss_series(a, b, c, N: int, backend=None) -> CoeffStream:
    """Coefficients of the Gauss series: entry n is (a)_n (b)_n / ((c)_n n!)."""
    bk = get_backend(backend) if backend is not None else infer_backend(a, b, c)
    _check_c(c)
    a, b, c = bk.coerce(a), bk.coerce(b), bk.coerce(c)
    out = _term_series(bk, N, bk.one(), lambda k: (a + k) * (b + k) / ((c + k) * (k + 1)))
    return _oracle(out, "F", bk, "gauss_series")


def elementary_series(h: Elementary, N: int, backend=None) -> CoeffStream:
    """Maclaurin coefficients of the elementary factor h(z) through z^N."""
    bk = get_backend(backend) if backend is not None else infer_backend(h.p, h.theta)
    p = bk.coerce(h.p)
    kind = h.kind

    if kind == "exp":
        out = _term_series(bk, N, bk.one(), lambda k: p / (k + 1))
    elif kind in ("sin", "sinh", "cos", "cosh"):
        w = -p * p if kind in ("sin", "cos") else p * p
        first, start = (p, 1) if kind in ("sin", "sinh") else (bk.one(), 0)
        out = _term_series(bk, N, first, lambda k: w / ((k + 1) * (k + 2)), start, 2)
    elif kind == "binom":
        theta = bk.coerce(h.theta)
        out = _term_series(bk, N, bk.one(), lambda k: -theta * (p - k) / (k + 1))
    elif kind == "arcsin":
        # entry 2k+1 is (2k)! p^(2k+1) / (4^k (k!)^2 (2k+1)); the whole ratio
        # multiplies the running term, which stays below the float range
        # wherever the entries do
        p2 = p * p
        out = _term_series(bk, N, p, lambda k: p2 * (k * k) / ((k + 1) * (k + 2)), 1, 2)
    elif kind == "arccos":
        inner = elementary_series(Elementary("arcsin", p=h.p), N, bk).coeffs
        out = [-v for v in inner] if bk is EXACT else -inner
        out[0] = bk.half_pi() + out[0]
    elif kind == "exp_arctan":
        out = [bk.one()]
        if N >= 1:
            out.append(-p)
        for n in range(1, N):
            out.append((-p * out[n] - (n - 1) * out[n - 1]) / (n + 1))
    else:  # pragma: no cover - guarded by Elementary validation
        raise ParameterDomainError(f"unknown elementary kind {kind!r}")
    return _oracle(out, "elementary", bk, f"elementary_series({kind})")


def cauchy_product(A: CoeffStream, B: CoeffStream) -> CoeffStream:
    """Entrywise convolution: entry n is sum_{k<=n} A_k B_{n-k}."""
    if A.backend != B.backend:
        raise ValueError(
            f"cauchy_product backends differ: {A.backend} vs {B.backend}"
        )
    if len(A) != len(B):
        raise ValueError("cauchy_product operands must share one length")
    if A.backend == "f64":
        import numpy as np

        from . import kernels

        coeffs = kernels.convolve(A.coeffs, B.coeffs)
        over = ~np.isfinite(coeffs)
        if over.any():
            coeffs[over] = _scaled_convolve(A.coeffs, B.coeffs)[over]
        _finite_or_raise(coeffs, "cauchy_product")
    else:
        coeffs = _exact_cauchy(A.coeffs, B.coeffs)
    return CoeffStream(coeffs, "product", "oracle", A.backend)


def _ldexp(x, e):
    import numpy as np

    out = np.empty_like(x)
    out.real, out.imag = np.ldexp(x.real, e), np.ldexp(x.imag, e)
    return out


def _scaled_convolve(a, b):
    """The truncated product of two f64 series whose terms overflow though
    some of its entries need not: both factors scaled by 2^(-s n), with
    s = ceil(max over n >= 1 of log2|x_n| / n) across both (0 where that is
    not finite), convolved, and scaled back.  Powers of two are exact
    outside underflow, which moves entry n of the scaled product by at most
    (n + 1)(max|a'| + max|b'|) 2^-1075; an entry that is not 2^53 times as
    large is returned as inf."""
    import numpy as np

    from . import kernels

    n = np.arange(len(a))
    with np.errstate(divide="ignore"):
        rate = max(np.max(np.log2(np.abs(x[1:])) / n[1:], initial=-np.inf) for x in (a, b))
    e = -(math.ceil(rate) if np.isfinite(rate) else 0) * n
    a, b = _ldexp(a, e), _ldexp(b, e)
    out = kernels.convolve(a, b)
    floor = np.ldexp(len(a) * (np.abs(a).max() + np.abs(b).max()), -1022)
    out[~(np.abs(out) >= floor)] = np.inf
    return _ldexp(out, -e)


def _parts(values) -> list:
    """An exact series as its four rational parts (re q0, im q0, re q1, im q1
    of q0 + q1*pi), each as (integer numerators, common denominator), or None
    where the part is zero throughout."""
    parts = [[], [], [], []]
    for v in values:
        q0, q1 = (v.q0, v.q1) if isinstance(v, PiLinear) else (v, None)
        q0 = q0 if isinstance(q0, GaussianRational) else GaussianRational(q0)
        for part, x in zip(parts, (q0.re, q0.im) + ((q1.re, q1.im) if q1 else (0, 0))):
            part.append(x)
    out = []
    for part in parts:
        if not any(part):
            out.append(None)
            continue
        den = math.lcm(*(x.denominator for x in part))
        out.append(([x.numerator * (den // x.denominator) for x in part], den))
    return out


def _int_convolve(x: list, y: list) -> list:
    """sum_{k<=n} x_k y_{n-k} for n < len(x), by one big-integer product
    (Kronecker substitution): each sequence is packed into the slots of one
    integer, slots wide enough that no output overflows its own."""
    n = len(x)
    ax, ay = max(map(abs, x)), max(map(abs, y))
    bound = max(n * ax * ay, ax, ay)
    w = (bound.bit_length() + 8) // 8  # bytes per slot, sign bit included
    z = (_pack(x, w) * _pack(y, w)) & ((1 << (8 * w * n)) - 1)
    data = z.to_bytes(w * n, "little")
    half, carry, out = 1 << (8 * w - 1), 0, []
    for i in range(0, w * n, w):
        v = int.from_bytes(data[i : i + w], "little") + carry
        carry = v >= half  # the slot holds a negative entry, borrowed from the next
        out.append(v - (half << 1) if carry else v)
    return out


def _pack(xs: list, w: int) -> int:
    """sum_i xs[i] * 2^(8 w i) for signed xs[i] with |xs[i]| < 2^(8 w - 1)."""
    pos = b"".join((v if v > 0 else 0).to_bytes(w, "little") for v in xs)
    neg = b"".join((-v if v < 0 else 0).to_bytes(w, "little") for v in xs)
    return int.from_bytes(pos, "little") - int.from_bytes(neg, "little")


#: which output part the product of part i of A and part j of B adds to, and
#: its sign: i*i = -1, and pi*pi is not representable
_PART_PRODUCT = {
    (i, j): ((i | j) & 2 | (i ^ j) & 1, -1 if i & j & 1 else 1)
    for i in range(4)
    for j in range(4)
    if not i & j & 2
}


def _exact_cauchy(av, bv) -> tuple:
    """The exact Cauchy product in integers: each part of each factor over its
    own lcm, one integer convolution per pair of nonzero parts, and one
    Fraction per output part."""
    N = len(av) - 1
    pi_a = [n for n, v in enumerate(av) if isinstance(v, PiLinear) and v.q1]
    pi_b = [n for n, v in enumerate(bv) if isinstance(v, PiLinear) and v.q1]
    if pi_a and pi_b and pi_a[0] + pi_b[0] <= N:
        raise PiDegreeError("product of two pi-carrying values needs pi**2")
    pa, pb = _parts(av), _parts(bv)
    terms = [[] for _ in range(4)]  # per output part: (sign, numerators, den)
    for (i, j), (out, sign) in _PART_PRODUCT.items():
        if pa[i] is not None and pb[j] is not None:
            (x, dx), (y, dy) = pa[i], pb[j]
            terms[out].append((sign, _int_convolve(x, y), dx * dy))
    cols = []
    for part in terms:
        den = math.lcm(*(d for _, _, d in part))
        nums = [0] * (N + 1)
        for sign, conv, d in part:
            scale = sign * (den // d)
            nums = [acc + scale * c for acc, c in zip(nums, conv)]
        cols.append([Fraction(num, den) for num in nums])
    # as in a termwise sum, entry n is pi-linear once either factor has a
    # PiLinear entry at or below n
    pi_typed = itertools.accumulate(
        (isinstance(x, PiLinear) or isinstance(y, PiLinear) for x, y in zip(av, bv)),
        operator.or_,
    )
    return tuple(
        PiLinear(GaussianRational(r0, i0), GaussianRational(r1, i1))
        if typed
        else GaussianRational(r0, i0)
        for typed, r0, i0, r1, i1 in zip(pi_typed, *cols)
    )


def scale_stream(A: CoeffStream, s) -> CoeffStream:
    """Multiply every entry by the scalar s (backend of the entries)."""
    if A.backend == "f64":
        coeffs = s * A.coeffs
        _finite_or_raise(coeffs, "scale_stream")
    else:
        coeffs = tuple(s * v for v in A.coeffs)
    return CoeffStream(coeffs, A.base, A.provenance, A.backend, A.params)


def unit_stream(N: int, backend="exact") -> CoeffStream:
    """The multiplicative identity (1, 0, 0, ...) for convolution."""
    bk = get_backend(backend)
    coeffs = (bk.one(),) + (bk.zero(),) * N
    return CoeffStream(coeffs, "elementary", "oracle", bk.name)


def hyper_base_series(base: str, N: int, backend="exact", a=None, b=None, c=None) -> CoeffStream:
    """Oracle stream of the bare special-function factor.

    M and F take their parameters from the caller; the elliptic bases are
    pi/2 times F at their fixed parameters (``ELLIPTIC_ABC``).
    """
    bk = get_backend(backend)
    if base == "M":
        return kummer_series(a, c, N, bk)
    if base == "F":
        return gauss_series(a, b, c, N, bk)
    if base in ELLIPTIC_ABC:
        inner = gauss_series(*ELLIPTIC_ABC[base], N, bk)
        stream = scale_stream(inner, bk.half_pi())
        return CoeffStream(stream.coeffs, base, "oracle", bk.name)
    raise ParameterDomainError(f"unknown base {base!r}")

"""One builder per supported product family.

Every family couples an elementary factor h(z) with a hypergeometric-type
base (Kummer M, Gauss F, or the elliptic specialisations K, E) and encodes
the seed coefficients plus the coefficient-row table of its linear
recurrence.  Seeds and most rows are transcribed closed forms; the row shared
by arcsin-M and arccos-M is the z^(n+1) coefficient of their product ODE,
derived by D-finite closure (``scripts/derive_arcsin_M_row.py`` rebuilds and
checks it).  Nothing is derived from the convolution oracle, so
:mod:`macprod.verify` can use the oracle as an independent referee.

Each product has one table; two identities supply the rest:

* sinh(pz) = -i sin(ipz) and cosh(pz) = cos(ipz).  The sin/cos seeds and
  rows take the signed square w of the frequency besides p: w = p^2 builds
  sin and cos, w = -p^2 builds sinh and cosh.  Both are real at real p, so
  the one-time exact row compile runs in Fraction, which it would not at ip.
* K(sqrt z) = (pi/2) F(1/2, 1/2; 1; z) and E(sqrt z) = (pi/2) F(-1/2, 1/2;
  1; z).  Every K and E id is built from the F tables at those (a, b, c),
  and its seeds carry the factor pi/2.

Since sinh(pz), cosh(pz) = (e^(pz) -+ e^(-pz))/2 and sin(pz), cos(pz) =
(e^(ipz) -+ e^(-ipz))/(2i or 2), every sin/cos/sinh/cosh product is the
base's exp-X product at +q and at -q, combined entrywise, with q = ip for
sin/cos and q = p for sinh/cosh.  The ``-combo`` ids are built that way
from the exp-X seeds and row (``_mk_branches``); there are no separate
branch tables.

The exact backend steps the catalogued recurrence of every single id.  In
f64 the high-order singles (sin/cos/sinh/cosh over every base, arcsin-M,
arccos-M) would amplify roundoff along parasitic solutions, so their f64
requests are served by stable formulations: the same exp-X branches for the
trig/hyp products, coupled first-order recurrences for the inverse-sine
products.

Builders are pure and the returned specs are immutable; the row closures use
only scalar arithmetic, which lets the f64 engine evaluate them over a whole
index vector at once.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

from .numerics import (
    GaussianRational,
    ParameterDomainError,
    get_backend,
    is_nonpositive_integer,
    scalar_equals_int,
)
from .recurrence_core import ComboSpec, RecurrenceSpec, SystemSpec
from .series_oracle import Elementary

__all__ = [
    "Params",
    "FamilyInfo",
    "CatalogueError",
    "list_families",
    "get_family",
    "build",
    "build_M_family",
    "build_F_family",
    "build_elliptic_family",
    "elementary_factor",
]


class CatalogueError(KeyError):
    """Unknown family id or illegal base/h/formulation combination."""


@dataclass(frozen=True)
class Params:
    """Parameter tuple; unused slots stay None."""

    a: object = None
    b: object = None
    c: object = None
    p: object = None
    theta: object = None

    def present(self):
        return tuple(
            name for name in ("a", "b", "c", "p", "theta")
            if getattr(self, name) is not None
        )


@dataclass(frozen=True)
class FamilyInfo:
    """Catalogue row: identity, arity, order, start index, radius note."""

    id: str
    base: str  # "M" | "F" | "K" | "E"
    h: str  # elementary kind (series_oracle naming)
    formulation: str  # "single" | "combo"
    order: int
    start: int
    radius: str  # "entire" | "1" | "1/|theta|" | "1/|p|"
    param_names: tuple
    c_excludes_2: bool = False


# id fragment for each elementary kind
_H_TOKEN = {
    "exp": "exp",
    "sin": "sin",
    "cos": "cos",
    "sinh": "sinh",
    "cosh": "cosh",
    "arcsin": "arcsin",
    "arccos": "arccos",
    "binom": "binom",
    "exp_arctan": "arctanexp",
}
_TOKEN_H = {v: k for k, v in _H_TOKEN.items()}


def _rising(x, m: int):
    """x (x+1) ... (x+m-1) for small positive m."""
    acc = x
    for j in range(1, m):
        acc = acc * (x + j)
    return acc


def _den_low(params):
    c = params.c

    def factors(n):
        return (("n+1", n + 1), ("c+n", c + n))

    return factors


def _den_high(params):
    c = params.c

    def factors(n):
        return (
            ("c-2", c - 2),
            ("c", c),
            ("n", n),
            ("n+1", n + 1),
            ("c+n-1", c + n - 1),
            ("c+n", c + n),
        )

    return factors


def _den_elliptic(params):
    def factors(n):
        return (("n", n), ("n+1", n + 1))

    return factors


# ---------------------------------------------------------------------------
# M-base tables
# ---------------------------------------------------------------------------


def _exp_M_seeds(a, c, p):
    return [1, a / c + p]


def _exp_M_row(a, c, p):
    def row(n):
        d = (n + 1) * (c + n)
        return ((a + c * p + 2 * n * p + n) / d, -(p * (p + 1)) / d)

    return row


def _binom_M_seeds(a, c, p, th):
    u2 = ((a * a + a) / (c * c + c) - 2 * a * th * p / c + th * th * (p - 1) * p) / 2
    return [1, a / c - th * p, u2]


def _binom_M_row(a, c, p, th):
    def row(n):
        d = (n + 1) * (c + n)
        b0 = (a + 2 * th * n * (c + n - 1) - th * p * (c + 2 * n) + n) / d
        b1 = th * (-2 * a - th * (n - p - 1) * (c + n - p - 2) - 2 * n + p + 2) / d
        b2 = th * th * (a + n - p - 2) / d
        return (b0, b1, b2)

    return row


def _arctanexp_M_seeds(a, c, p):
    u2 = ((a * a + a) / (c * c + c) - 2 * a * p / c + p * p) / 2
    u3 = (
        3 * a * p * p / c
        - 3 * a * (a + 1) * p / (c * (c + 1))
        + a * (a + 1) * (a + 2) / (c * (c + 1) * (c + 2))
        - p ** 3
        + 2 * p
    ) / 6
    u4 = (
        6 * a * (a + 1) * (c + 2) * (c + 3) * p * p
        - 4 * a * (c + 1) * (c + 2) * (c + 3) * (p * p - 2) * p
        - 4 * a * (a + 1) * (a + 2) * (c + 3) * p
        + a * (a + 1) * (a + 2) * (a + 3)
        + c * (c + 1) * (c + 2) * (c + 3) * (p * p - 8) * p * p
    ) / (24 * c * (c + 1) * (c + 2) * (c + 3))
    return [1, a / c - p, u2, u3, u4]


def _arctanexp_M_row(a, c, p):
    def row(n):
        d = (n + 1) * (c + n)
        b0 = (a - p * (c + 2 * n) + n) / d
        b1 = (-2 * (n - 1) * (c + n - 2) - p * p + p) / d
        b2 = (2 * (a + n - 2) - p * (c + 2 * n - 6)) / d
        b3 = (p - (n - 3) * (c + n - 4)) / d
        b4 = (a + n - 4) / d
        return (b0, b1, b2, b3, b4)

    return row


def _sin_M_seeds(a, c, p, w):
    p3 = p * w
    p5 = p3 * w
    return [
        0,
        p,
        a * p / c,
        a * (a + 1) * p / (2 * c * (c + 1)) - p3 / 6,
        _rising(a, 3) * p / (6 * _rising(c, 3)) - a * p3 / (6 * c),
        -_rising(a, 2) * p3 / (12 * _rising(c, 2))
        + _rising(a, 4) * p / (24 * _rising(c, 4))
        + p5 / 120,
    ]


def _cos_M_seeds(a, c, p, w):
    p2, p4 = w, w * w
    return [
        1,
        a / c,
        ((a * a + a) / (c * c + c) - p2) / 2,
        a * ((a + 1) * (a + 2) / ((c + 1) * (c + 2)) - 3 * p2) / (6 * c),
        (
            -6 * a * (a + 1) * p2 / (c * (c + 1))
            + _rising(a, 4) / _rising(c, 4)
            + p4
        ) / 24,
        a
        * (
            -10 * (a + 1) * (a + 2) * p2 / ((c + 1) * (c + 2))
            + _rising(a + 1, 4) / _rising(c + 1, 4)
            + 5 * p4
        )
        / (120 * c),
    ]


def _sin_M_row(a, c, p, w):
    a2 = a * a
    p2 = w
    p4 = p2 * p2

    def row(n):
        dlow = (c - 2) * c * (n + 1) * (c + n)
        d = dlow * n * (c + n - 1)
        b0 = (
            2
            * (
                a * (c * c - 2 * c * n + c - 2 * (n - 2) ** 2)
                + c * (n - 1) * (2 * c + n - 5)
            )
            / dlow
        )
        b1 = (
            -(n - 4) * (n - 3) * (n - 2) * (n - 1) * (4 * p2 + 1)
            + 2 * (n - 3) * (n - 2) * (n - 1) * (4 * a - c * (4 * p2 + 3))
            + (n - 2)
            * (n - 1)
            * (8 * a2 + a * (4 * c + 6) - 6 * c * ((c - 2) * p2 + c) + c)
            + 2
            * (n - 1)
            * (a2 * (4 * c - 2) - 3 * a * (c - 1) * c + c * (-c * c + c + 2) * p2)
            - (c - 2) * (a2 * (c + 2) - a * c + c * c * (c + 1) * p2)
        ) / d
        b2 = (
            -2 * p2 * (c - 3) * (a * (3 * c + 8) - 2 * c * c + c - 32)
            + 2
            * p2
            * (
                n * (-10 * a + c * (3 * c - 31) + 104)
                + 6 * (c - 6) * n ** 2
                + 4 * n ** 3
            )
            - 2
            * (a + n - 3)
            * (2 * a2 - a * (c - 2 * n + 3) - (n - 2) * (2 * c + n - 4))
        ) / d
        b3 = -(
            p2 * (12 * a2 - 2 * a * (6 * c + 5) + c * (6 * c - 1))
            + 2 * (n - 3) * (a + c * (4 * p2 + 3) * p2)
            + (a - 1) * a
            + 5 * (c - 2) * c * p4
            + (n - 4) * (n - 3) * (8 * p4 + 6 * p2 + 1)
        ) / d
        b4 = (
            2
            * p2
            * (p2 * (-6 * a + 5 * c + 4 * (n - 4)) - 3 * a + 2 * c + n - 4)
            / d
        )
        b5 = -p2 * (4 * p4 + 5 * p2 + 1) / d
        return (b0, b1, b2, b3, b4, b5)

    return row


def _arcsin_M_seeds(a, c, p):
    p3 = p ** 3
    p5 = p3 * p * p
    p7 = p5 * p * p
    p9 = p7 * p * p
    p11 = p9 * p * p
    R = _rising
    return [
        0,
        p,
        a * p / c,
        a * (a + 1) * p / (2 * c * (c + 1)) + p3 / 6,
        a * p3 / (6 * c) + R(a, 3) * p / (6 * R(c, 3)),
        R(a, 2) * p3 / (12 * R(c, 2)) + R(a, 4) * p / (24 * R(c, 4)) + 3 * p5 / 40,
        3 * a * p5 / (40 * c)
        + R(a, 3) * p3 / (36 * R(c, 3))
        + R(a, 5) * p / (120 * R(c, 5)),
        3 * R(a, 2) * p5 / (80 * R(c, 2))
        + R(a, 4) * p3 / (144 * R(c, 4))
        + R(a, 6) * p / (720 * R(c, 6))
        + 5 * p7 / 112,
        5 * a * p7 / (112 * c)
        + R(a, 3) * p5 / (80 * R(c, 3))
        + R(a, 5) * p3 / (720 * R(c, 5))
        + R(a, 7) * p / (5040 * R(c, 7)),
        5 * R(a, 2) * p7 / (224 * R(c, 2))
        + R(a, 4) * p5 / (320 * R(c, 4))
        + R(a, 6) * p3 / (4320 * R(c, 6))
        + R(a, 8) * p / (40320 * R(c, 8))
        + 35 * p9 / 1152,
        35 * a * p9 / (1152 * c)
        + 5 * R(a, 3) * p7 / (672 * R(c, 3))
        + R(a, 5) * p5 / (1600 * R(c, 5))
        + R(a, 7) * p3 / (30240 * R(c, 7))
        + R(a, 9) * p / (362880 * R(c, 9)),
        35 * R(a, 2) * p9 / (2304 * R(c, 2))
        + 5 * R(a, 4) * p7 / (2688 * R(c, 4))
        + R(a, 6) * p5 / (9600 * R(c, 6))
        + R(a, 8) * p3 / (241920 * R(c, 8))
        + R(a, 10) * p / (3628800 * R(c, 10))
        + 63 * p11 / 2816,
    ]


def _arccos_M_seeds(a, c, p, pi):
    p3 = p ** 3
    p5 = p3 * p * p
    p7 = p5 * p * p
    p9 = p7 * p * p
    p11 = p9 * p * p
    R = _rising
    return [
        pi / 2,
        pi * a / (2 * c) - p,
        pi * R(a, 2) / (4 * R(c, 2)) - a * p / c,
        -R(a, 2) * p / (2 * R(c, 2)) + pi * R(a, 3) / (12 * R(c, 3)) - p3 / 6,
        -a * p3 / (6 * c)
        - R(a, 3) * p / (6 * R(c, 3))
        + pi * R(a, 4) / (48 * R(c, 4)),
        -R(a, 2) * p3 / (12 * R(c, 2))
        - R(a, 4) * p / (24 * R(c, 4))
        + pi * R(a, 5) / (240 * R(c, 5))
        - 3 * p5 / 40,
        -3 * a * p5 / (40 * c)
        - R(a, 3) * p3 / (36 * R(c, 3))
        - R(a, 5) * p / (120 * R(c, 5))
        + pi * R(a, 6) / (1440 * R(c, 6)),
        -3 * R(a, 2) * p5 / (80 * R(c, 2))
        - R(a, 4) * p3 / (144 * R(c, 4))
        - R(a, 6) * p / (720 * R(c, 6))
        + pi * R(a, 7) / (10080 * R(c, 7))
        - 5 * p7 / 112,
        -5 * a * p7 / (112 * c)
        - R(a, 3) * p5 / (80 * R(c, 3))
        - R(a, 5) * p3 / (720 * R(c, 5))
        - R(a, 7) * p / (5040 * R(c, 7))
        + pi * R(a, 8) / (80640 * R(c, 8)),
        -5 * R(a, 2) * p7 / (224 * R(c, 2))
        - R(a, 4) * p5 / (320 * R(c, 4))
        - R(a, 6) * p3 / (4320 * R(c, 6))
        - R(a, 8) * p / (40320 * R(c, 8))
        + pi * R(a, 9) / (725760 * R(c, 9))
        - 35 * p9 / 1152,
        -35 * a * p9 / (1152 * c)
        - 5 * R(a, 3) * p7 / (672 * R(c, 3))
        - R(a, 5) * p5 / (1600 * R(c, 5))
        - R(a, 7) * p3 / (30240 * R(c, 7))
        - R(a, 9) * p / (362880 * R(c, 9))
        + pi * R(a, 10) / (7257600 * R(c, 10)),
        -35 * R(a, 2) * p9 / (2304 * R(c, 2))
        - 5 * R(a, 4) * p7 / (2688 * R(c, 4))
        - R(a, 6) * p5 / (9600 * R(c, 6))
        - R(a, 8) * p3 / (241920 * R(c, 8))
        - R(a, 10) * p / (3628800 * R(c, 10))
        + pi * R(a, 11) / (79833600 * R(c, 11))
        - 63 * p11 / 2816,
    ]


#: Product ODE of arcsin(pz) (or arccos(pz)) and M(a,c;z), written
#: sum_j z^j P_j(theta) y = 0 in the Euler operator theta = z d/dz.  Entry j
#: lists the terms (coef, m, t, i, l) of P_j, each coef * p^(2m) theta^t a^i c^l.
#: They are spelled as text because a literal of ~400 nested tuples raises the
#: peak memory of compiling this module by over 1 MB.
#: Derived by D-finite closure from (1 - p^2 z^2) s'' - p^2 z s' = 0 and
#: z m'' + (c - z) m' - a m = 0; scripts/derive_arcsin_M_row.py rebuilds and
#: checks it.  P_0(theta) = (c-2) c theta (theta-1) (theta+c-2) (theta+c-1).
_ARCSIN_M_OPERATOR = tuple(
    tuple(tuple(int(x) for x in term.split()) for term in poly.split(","))
    for poly in (
        # P_0
        "4 0 1 0 1, -8 0 1 0 2, 5 0 1 0 3, -1 0 1 0 4, -10 0 2 0 1, 15 0 2 0 2, -7 0 2 0 3, "
        "1 0 2 0 4, 8 0 3 0 1, -8 0 3 0 2, 2 0 3 0 3, -2 0 4 0 1, 1 0 4 0 2",
        # P_1
        "10 0 1 0 1, -14 0 1 0 2, 4 0 1 0 3, -16 0 1 1 0, 18 0 1 1 1, -2 0 1 1 3, -22 0 2 0 1, "
        "20 0 2 0 2, -4 0 2 0 3, 32 0 2 1 0, -22 0 2 1 1, 2 0 2 1 2, 14 0 3 0 1, -6 0 3 0 2, "
        "-20 0 3 1 0, 8 0 3 1 1, -2 0 4 0 1, 4 0 4 1 0",
        # P_2
        "2 0 0 1 1, -1 0 0 1 2, -4 0 0 2 0, 1 0 0 2 2, -6 0 1 0 0, 13 0 1 0 1, -6 0 1 0 2, "
        "-10 0 1 1 0, -2 0 1 1 1, 6 0 1 1 2, 12 0 1 2 0, -8 0 1 2 1, 11 0 2 0 0, -19 0 2 0 1, "
        "6 0 2 0 2, 18 0 2 1 0, -4 0 2 1 1, -8 0 2 2 0, -6 0 3 0 0, 6 0 3 0 1, -8 0 3 1 0, "
        "1 0 4 0 0, -12 1 1 0 0, -2 1 1 0 1, 29 1 1 0 2, -18 1 1 0 3, 3 1 1 0 4, 22 1 2 0 0, "
        "22 1 2 0 1, -51 1 2 0 2, 25 1 2 0 3, -4 1 2 0 4, -12 1 3 0 0, -24 1 3 0 1, 30 1 3 0 2, "
        "-8 1 3 0 3, 2 1 4 0 0, 8 1 4 0 1, -4 1 4 0 2",
        # P_3
        "-2 0 0 1 0, 2 0 0 1 1, -2 0 0 2 0, -2 0 0 2 1, 4 0 0 3 0, -4 0 1 0 0, 4 0 1 0 1, "
        "2 0 1 1 0, -6 0 1 1 1, 8 0 1 2 0, 6 0 2 0 0, -4 0 2 0 1, 2 0 2 1 0, -2 0 3 0 0, "
        "-4 1 0 1 0, -4 1 0 1 1, 1 1 0 1 2, 1 1 0 1 3, -8 1 1 0 0, -37 1 1 0 1, 51 1 1 0 2, "
        "-12 1 1 0 3, 70 1 1 1 0, -74 1 1 1 1, -2 1 1 1 2, 8 1 1 1 3, 12 1 2 0 0, 73 1 2 0 1, "
        "-71 1 2 0 2, 16 1 2 0 3, -122 1 2 1 0, 76 1 2 1 1, -8 1 2 1 2, -4 1 3 0 0, "
        "-52 1 3 0 1, 24 1 3 0 2, 72 1 3 1 0, -32 1 3 1 1, 8 1 4 0 1, -16 1 4 1 0",
        # P_4
        "-1 0 0 1 0, 1 0 0 2 0, -1 0 1 0 0, 2 0 1 1 0, 1 0 2 0 0, -2 1 0 1 0, -9 1 0 1 1, "
        "1 1 0 1 2, 24 1 0 2 0, 4 1 0 2 1, -4 1 0 2 2, 20 1 1 0 0, -48 1 1 0 1, 18 1 1 0 2, "
        "46 1 1 1 0, 12 1 1 1 1, -24 1 1 1 2, -40 1 1 2 0, 32 1 1 2 1, -38 1 2 0 0, 67 1 2 0 1, "
        "-24 1 2 0 2, -60 1 2 1 0, 16 1 2 1 1, 32 1 2 2 0, 22 1 3 0 0, -24 1 3 0 1, 32 1 3 1 0, "
        "-4 1 4 0 0, -6 2 1 0 0, 31 2 1 0 1, -43 2 1 0 2, 21 2 1 0 3, -3 2 1 0 4, 5 2 2 0 0, "
        "-45 2 2 0 1, 63 2 2 0 2, -33 2 2 0 3, 6 2 2 0 4, 4 2 3 0 0, 30 2 3 0 1, -42 2 3 0 2, "
        "12 2 3 0 3, -3 2 4 0 0, -12 2 4 0 1, 6 2 4 0 2",
        # P_5
        "8 1 0 1 0, -5 1 0 1 1, 4 1 0 2 0, 8 1 0 2 1, -16 1 0 3 0, 15 1 1 0 0, -12 1 1 0 1, "
        "-10 1 1 1 0, 24 1 1 1 1, -32 1 1 2 0, -21 1 2 0 0, 16 1 2 0 1, -8 1 2 1 0, 8 1 3 0 0, "
        "-4 2 0 1 0, 16 2 0 1 1, -3 2 0 1 3, -5 2 1 0 0, 62 2 1 0 1, -60 2 1 0 2, 12 2 1 0 3, "
        "-76 2 1 1 0, 96 2 1 1 1, 6 2 1 1 2, -12 2 1 1 3, 3 2 2 0 0, -87 2 2 0 1, 93 2 2 0 2, "
        "-24 2 2 0 3, 156 2 2 1 0, -96 2 2 1 1, 12 2 2 1 2, 6 2 3 0 0, 72 2 3 0 1, -36 2 3 0 2, "
        "-96 2 3 1 0, 48 2 3 1 1, -12 2 4 0 1, 24 2 4 1 0",
        # P_6
        "3 1 0 1 0, -4 1 0 2 0, 3 1 1 0 0, -8 1 1 1 0, -4 1 2 0 0, -4 2 0 1 0, 9 2 0 1 1, "
        "3 2 0 1 2, -33 2 0 2 0, -12 2 0 2 1, 6 2 0 2 2, -31 2 1 0 0, 57 2 1 0 1, -18 2 1 0 2, "
        "-60 2 1 1 0, -24 2 1 1 1, 36 2 1 1 2, 48 2 1 2 0, -48 2 1 2 1, 48 2 2 0 0, "
        "-87 2 2 0 1, 36 2 2 0 2, 72 2 2 1 0, -24 2 2 1 1, -48 2 2 2 0, -30 2 3 0 0, "
        "36 2 3 0 1, -48 2 3 1 0, 6 2 4 0 0, 9 3 1 0 0, -24 3 1 0 1, 22 3 1 0 2, -8 3 1 0 3, "
        "1 3 1 0 4, -19 3 2 0 0, 37 3 2 0 1, -33 3 2 0 2, 19 3 2 0 3, -4 3 2 0 4, 10 3 3 0 0, "
        "-20 3 3 0 1, 26 3 3 0 2, -8 3 3 0 3, 8 3 4 0 1, -4 3 4 0 2",
        # P_7
        "-9 2 0 1 0, 3 2 0 1 1, -12 2 0 2 1, 24 2 0 3 0, -18 2 1 0 0, 12 2 1 0 1, 18 2 1 1 0, "
        "-36 2 1 1 1, 48 2 1 2 0, 27 2 2 0 0, -24 2 2 0 1, 12 2 2 1 0, -12 2 3 0 0, -1 3 0 1 0, "
        "-11 3 0 1 1, -3 3 0 1 2, 3 3 0 1 3, 4 3 1 0 0, -35 3 1 0 1, 23 3 1 0 2, -4 3 1 0 3, "
        "24 3 1 1 0, -42 3 1 1 1, -6 3 1 1 2, 8 3 1 1 3, -15 3 2 0 0, 43 3 2 0 1, -53 3 2 0 2, "
        "16 3 2 0 3, -74 3 2 1 0, 52 3 2 1 1, -8 3 2 1 2, -44 3 3 0 1, 24 3 3 0 2, 56 3 3 1 0, "
        "-32 3 3 1 1, 8 3 4 0 1, -16 3 4 1 0",
        # P_8
        "-3 2 0 1 0, 6 2 0 2 0, -3 2 1 0 0, 12 2 1 1 0, 6 2 2 0 0, 5 3 0 1 0, 1 3 0 1 1, "
        "-5 3 0 1 2, 10 3 0 2 0, 12 3 0 2 1, -4 3 0 2 2, 17 3 1 0 0, -22 3 1 0 1, 6 3 1 0 2, "
        "22 3 1 1 0, 20 3 1 1 1, -24 3 1 1 2, -24 3 1 2 0, 32 3 1 2 1, -26 3 2 0 0, 49 3 2 0 1, "
        "-24 3 2 0 2, -36 3 2 1 0, 16 3 2 1 1, 32 3 2 2 0, 18 3 3 0 0, -24 3 3 0 1, 32 3 3 1 0, "
        "-4 3 4 0 0, 1 4 2 0 0, -4 4 2 0 1, 6 4 2 0 2, -4 4 2 0 3, 1 4 2 0 4, -2 4 3 0 0, "
        "6 4 3 0 1, -6 4 3 0 2, 2 4 3 0 3, 1 4 4 0 0, -2 4 4 0 1, 1 4 4 0 2",
        # P_9
        "2 3 0 1 0, 1 3 0 1 1, -4 3 0 2 0, 8 3 0 2 1, -16 3 0 3 0, 7 3 1 0 0, -4 3 1 0 1, "
        "-14 3 1 1 0, 24 3 1 1 1, -32 3 1 2 0, -15 3 2 0 0, 16 3 2 0 1, -8 3 2 1 0, 8 3 3 0 0, "
        "-1 4 0 1 1, 2 4 0 1 2, -1 4 0 1 3, -2 4 1 1 0, 2 4 1 1 1, 2 4 1 1 2, -2 4 1 1 3, "
        "-7 4 2 0 1, 11 4 2 0 2, -4 4 2 0 3, 8 4 2 1 0, -10 4 2 1 1, 2 4 2 1 2, -2 4 3 0 0, "
        "10 4 3 0 1, -6 4 3 0 2, -12 4 3 1 0, 8 4 3 1 1, -2 4 4 0 1, 4 4 4 1 0",
        # P_10
        "1 3 0 1 0, -4 3 0 2 0, 1 3 1 0 0, -8 3 1 1 0, -4 3 2 0 0, 1 4 0 1 0, -3 4 0 1 1, "
        "2 4 0 1 2, 3 4 0 2 0, -4 4 0 2 1, 1 4 0 2 2, 2 4 1 1 0, -6 4 1 1 1, 6 4 1 1 2, "
        "4 4 1 2 0, -8 4 1 2 1, 5 4 2 0 0, -10 4 2 0 1, 6 4 2 0 2, 6 4 2 1 0, -4 4 2 1 1, "
        "-8 4 2 2 0, -4 4 3 0 0, 6 4 3 0 1, -8 4 3 1 0, 1 4 4 0 0",
        # P_11
        "1 4 0 1 0, -1 4 0 1 1, 2 4 0 2 0, -2 4 0 2 1, 4 4 0 3 0, 4 4 1 1 0, -6 4 1 1 1, "
        "8 4 1 2 0, 3 4 2 0 0, -4 4 2 0 1, 2 4 2 1 0, -2 4 3 0 0",
        # P_12
        "1 4 0 2 0, 2 4 1 1 0, 1 4 2 0 0",
    )
)


def _arcsin_M_row(a, c, p):
    """Row entry i is -P_{i+1}(n-i) / P_0(n+1): the z^(n+1) coefficient of the ODE.

    The n-polynomial coefficients are evaluated once per build; P_0(n+1) is
    the declared denominator (c-2) c n (n+1) (c+n-1) (c+n).
    """
    powers = {}  # p^(2m) a^i c^l, shared by the terms of every P_j

    def monomial(m, i, l):
        if (m, i, l) not in powers:
            powers[m, i, l] = (p * p) ** m * a**i * c**l
        return powers[m, i, l]

    polys = []
    for terms in _ARCSIN_M_OPERATOR:
        coeffs = [0] * 5  # theta^0 .. theta^4
        for coef, m, t, i, l in terms:
            coeffs[t] = coeffs[t] + coef * monomial(m, i, l)
        polys.append(coeffs[::-1])

    def horner(coeffs, x):
        acc = coeffs[0]
        for co in coeffs[1:]:
            acc = acc * x + co
        return acc

    def row(n):
        d = horner(polys[0], n + 1)
        return tuple(-horner(polys[i + 1], n - i) / d for i in range(12))

    return row


def _arcsin_M_system(a, c, p, s0, g0):
    """Coupled first-order recurrences behind the arcsin/arccos-M product.

    With s = arcsin(pz) or arccos(pz) and m = M(a,c;z), the components are
    the coefficients of y1 = s m, y2 = s m', y3 = s' m and y4 = s' m'; entries
    at negative index are 0.  They follow from (1 - p^2 z^2) s'' = p^2 z s'
    and z m'' = (z - c) m' + a m, whose only singularities are 0 and +-1/p,
    whereas the order-11 scalar recurrence also carries the apparent
    singularities of the product ODE.  Returns (entry 0 of each, step).
    """
    p2 = p * p
    ap2 = a * p2

    def step(ys, n):
        # every term is (scalar factor) * (entry), factors formed first, so an
        # entry near the float range is never scaled up by n on the way
        y1, y2, y3, y4 = ys
        y3_2 = y3[n - 2] if n >= 2 else 0
        y4_2 = y4[n - 2] if n >= 2 else 0
        y4_3 = y4[n - 3] if n >= 3 else 0
        r = 1 / n
        s = 1 / (n + c)
        y1.append(r * y2[n - 1] + r * y3[n - 1])
        y3.append(p2 * (n - 1) * r * y3_2 + r * y4[n - 1] - p2 * r * y4_3)
        y2.append(s * y2[n - 1] + s * y4[n - 1] + a * s * y1[n])
        y4.append(
            s * y4[n - 1] + p2 * (n + c - 1) * s * y4_2 - p2 * s * y4_3
            + a * s * y3[n] - ap2 * s * y3_2
        )

    return (s0, s0 * a / c, g0, g0 * a / c), step


# ---------------------------------------------------------------------------
# F-base tables
# ---------------------------------------------------------------------------


def _exp_F_seeds(a, b, c, p):
    u2 = (
        a * (1 + a) * b * (1 + b) / (2 * c * (1 + c))
        + a * b * p / c
        + p * p / 2
    )
    return [1, a * b / c + p, u2]


def _exp_F_row(a, b, c, p):
    def row(n):
        d = (n + 1) * (c + n)
        b0 = ((a + n) * (b + n) + p * (c + 2 * n)) / d
        b1 = -p * (a + b + 2 * n + p - 1) / d
        b2 = p * p / d
        return (b0, b1, b2)

    return row


def _binom_F_seeds(a, b, c, p, th):
    u2 = (
        -a * b * th * p / c
        + a * (a + 1) * b * (b + 1) / (2 * c * (c + 1))
        + th * th * (p - 1) * p / 2
    )
    return [1, a * b / c - th * p, u2]


def _binom_F_row(a, b, c, p, th):
    def row(n):
        d = (n + 1) * (c + n)
        a0 = ((a + n) * (b + n) + 2 * th * n * (c + n - 1) - th * p * (c + 2 * n)) / d
        a1 = (
            th
            * (
                a * (p - 2 * (b + n - 1))
                + b * (-2 * n + p + 2)
                + (c - 2) * th
                - (n - p) * (th * (c + n - p - 3) + 2 * n)
                + 4 * n
                - p
                - 2
            )
            / d
        )
        a2 = th * th * (a + n - p - 2) * (b + n - p - 2) / d
        return (a0, a1, a2)

    return row


def _arctanexp_F_seeds(a, b, c, p):
    R = _rising
    u2 = -a * b * p / c + R(a, 2) * R(b, 2) / (2 * R(c, 2)) + p * p / 2
    u3 = (
        a * b * p * p / (2 * c)
        - R(a, 2) * R(b, 2) * p / (2 * R(c, 2))
        + R(a, 3) * R(b, 3) / (6 * R(c, 3))
        + (p - p ** 3 / 2) / 3
    )
    u4 = (
        6 * R(a, 2) * R(b, 2) * p * p / R(c, 2)
        - 4 * a * b * (p * p - 2) * p / c
        - 4 * R(a, 3) * R(b, 3) * p / R(c, 3)
        + R(a, 4) * R(b, 4) / R(c, 4)
        + p ** 4
        - 8 * p * p
    ) / 24
    return [1, a * b / c - p, u2, u3, u4]


def _arctanexp_F_row(a, b, c, p):
    def row(n):
        d = (n + 1) * (c + n)
        b0 = ((a + n) * (b + n) - p * (c + 2 * n)) / d
        b1 = (p * (a + b + 2 * n - 1) - 2 * (n - 1) * (c + n - 2) - p * p) / d
        b2 = (2 * (a + n - 2) * (b + n - 2) - p * (c + 2 * n - 6) + p * p) / d
        b3 = (p * (a + b + 2 * n - 7) - (n - 3) * (c + n - 4)) / d
        b4 = (a + n - 4) * (b + n - 4) / d
        return (b0, b1, b2, b3, b4)

    return row


def _sin_F_seeds(a, b, c, p, w):
    R = _rising
    p3 = p * w
    p5 = p3 * w
    p7 = p5 * w
    p9 = p7 * w
    return [
        0,
        p,
        a * b * p / c,
        R(a, 2) * R(b, 2) * p / (2 * R(c, 2)) - p3 / 6,
        R(a, 3) * R(b, 3) * p / (6 * R(c, 3)) - a * b * p3 / (6 * c),
        -R(a, 2) * R(b, 2) * p3 / (12 * R(c, 2))
        + R(a, 4) * R(b, 4) * p / (24 * R(c, 4))
        + p5 / 120,
        a * b * p5 / (120 * c)
        - R(a, 3) * R(b, 3) * p3 / (36 * R(c, 3))
        + R(a, 5) * R(b, 5) * p / (120 * R(c, 5)),
        R(a, 2) * R(b, 2) * p5 / (240 * R(c, 2))
        - R(a, 4) * R(b, 4) * p3 / (144 * R(c, 4))
        + R(a, 6) * R(b, 6) * p / (720 * R(c, 6))
        - p7 / 5040,
        -a * b * p7 / (5040 * c)
        + R(a, 3) * R(b, 3) * p5 / (720 * R(c, 3))
        - R(a, 5) * R(b, 5) * p3 / (720 * R(c, 5))
        + R(a, 7) * R(b, 7) * p / (5040 * R(c, 7)),
        -R(a, 2) * R(b, 2) * p7 / (10080 * R(c, 2))
        + R(a, 4) * R(b, 4) * p5 / (2880 * R(c, 4))
        - R(a, 6) * R(b, 6) * p3 / (4320 * R(c, 6))
        + R(a, 8) * R(b, 8) * p / (40320 * R(c, 8))
        + p9 / 362880,
    ]


def _cos_F_seeds(a, b, c, p, w):
    R = _rising
    p2 = w
    p4 = p2 * p2
    p6 = p4 * p2
    p8 = p6 * p2
    return [
        1,
        a * b / c,
        R(a, 2) * R(b, 2) / (2 * R(c, 2)) - p2 / 2,
        R(a, 3) * R(b, 3) / (6 * R(c, 3)) - a * b * p2 / (2 * c),
        -R(a, 2) * R(b, 2) * p2 / (4 * R(c, 2))
        + R(a, 4) * R(b, 4) / (24 * R(c, 4))
        + p4 / 24,
        a * b * p4 / (24 * c)
        - R(a, 3) * R(b, 3) * p2 / (12 * R(c, 3))
        + R(a, 5) * R(b, 5) / (120 * R(c, 5)),
        R(a, 2) * R(b, 2) * p4 / (48 * R(c, 2))
        - R(a, 4) * R(b, 4) * p2 / (48 * R(c, 4))
        + R(a, 6) * R(b, 6) / (720 * R(c, 6))
        - p6 / 720,
        -a * b * p6 / (720 * c)
        + R(a, 3) * R(b, 3) * p4 / (144 * R(c, 3))
        - R(a, 5) * R(b, 5) * p2 / (240 * R(c, 5))
        + R(a, 7) * R(b, 7) / (5040 * R(c, 7)),
        -R(a, 2) * R(b, 2) * p6 / (1440 * R(c, 2))
        + R(a, 4) * R(b, 4) * p4 / (576 * R(c, 4))
        - R(a, 6) * R(b, 6) * p2 / (1440 * R(c, 6))
        + R(a, 8) * R(b, 8) / (40320 * R(c, 8))
        + p8 / 40320,
        a * b * p8 / (40320 * c)
        - R(a, 3) * R(b, 3) * p6 / (4320 * R(c, 3))
        + R(a, 5) * R(b, 5) * p4 / (2880 * R(c, 5))
        - R(a, 7) * R(b, 7) * p2 / (10080 * R(c, 7))
        + R(a, 9) * R(b, 9) / (362880 * R(c, 9)),
    ]


def _sin_F_row(a, b, c, p, w):
    a2 = a * a
    a3 = a2 * a
    a4 = a3 * a
    b2_ = b * b
    b3_ = b2_ * b
    b4_ = b3_ * b
    p2 = w
    p4 = p2 * p2
    p6 = p4 * p2

    def row(n):
        dlow = (c - 2) * c * (n + 1) * (c + n)
        d = dlow * n * (c + n - 1)
        g0 = (
            2 * (n - 1) ** 2 * (a * (c - 2 * b) + c * (b + c - 3))
            + 4 * (c - 2) * (n - 1) * (c * (a + b) - a * b)
            + 2 * a * b * (c - 2) * (c + 1)
        ) / dlow
        g1 = (
            -(n - 4)
            * (n - 3)
            * (n - 2)
            * (n - 1)
            * (a2 + 4 * c * (a + b) - 10 * a * b + b2_ + c * c - 6 * c + 4 * p2 - 1)
            + 2
            * (n - 3)
            * (n - 2)
            * (n - 1)
            * (
                a2 * (4 * b - 3 * c)
                + a * (2 * (b - 1) * c + 4 * b * (b + 3) - 3 * c * c)
                - c * (b * (3 * b + 3 * c + 2) + c + 4 * p2 - 13)
            )
            + (n - 2)
            * (n - 1)
            * (
                a2 * (8 * b2_ + b * (4 * c + 6) - 6 * c * c + c)
                + a
                * (
                    -(10 * b + 7) * c * c
                    + 4 * (b * (b + 3) + 3) * c
                    + 6 * b * (b + 1)
                )
                + c
                * (
                    b2_ * (1 - 6 * c)
                    + b * (12 - 7 * c)
                    - 6 * (c - 2) * p2
                    + c
                    + 11
                )
            )
            + 2
            * (n - 1)
            * (
                a2 * b * (b * (4 * c - 2) - 3 * (c - 1) * c)
                - a * b * c * (3 * b * (c - 1) + c - 5)
                + c * (-c * c + c + 2) * p2
            )
            - (c - 2)
            * (
                a2 * b * (b * (c + 2) - c)
                - a * b * (b + 1) * c
                + c * c * (c + 1) * p2
            )
        ) / d
        g2 = (
            2
            * (
                (n - 5)
                * (n - 4)
                * (n - 3)
                * (n - 2)
                * (a2 + a * (c - 4 * b) + (b - 1) * (b + c + 1) + 8 * p2)
                + (n - 4)
                * (n - 3)
                * (n - 2)
                * (
                    a3
                    + a2 * (-5 * b + 3 * c + 2)
                    + a * (-5 * b2_ + 2 * b * (c - 7) + 3 * c + 4 * p2 - 1)
                    + (b + 3 * c + 1) * (b2_ + b + 4 * p2 - 2)
                )
                - (n - 3)
                * (n - 2)
                * (
                    a3 * (b - 2 * c)
                    + a2 * (b * (10 * b + 9) - 4 * (b + 1) * c)
                    + a * (b * (b + 1) * (b - 4 * c + 8) - 6 * c * p2 + 2 * c)
                    + 2 * c * (-b3_ - 2 * b2_ - 3 * p2 * (b + c - 3) + b + 2)
                )
                - (n - 2)
                * (
                    a3 * b * (4 * b - 3 * c + 2)
                    + a2 * b * (2 * b + 1) * (2 * b - c)
                    + a * p2 * (10 * b - 3 * c * c + c)
                    - a * (b - 1) * b * (b * (3 * c - 2) + 4 * c - 2)
                    + c * p2 * (-3 * b * c + b - c * c + 9)
                )
                + (c + 1)
                * p2
                * (c * c * (2 * a + 2 * b + 1) - 3 * (a + 1) * (b + 1) * c + 4 * a * b)
                - (a - 1)
                * a
                * (b - 1)
                * b
                * (-c * (a + b + 1) + 2 * a * b + a + b + 1)
            )
            / d
        )
        g3 = -(
            (n - 6) * (n - 5) * (n - 4) * (n - 3) * ((a - b) ** 2 + 24 * p2 - 1)
            + 2
            * (n - 5)
            * (n - 4)
            * (n - 3)
            * (
                a3
                - a2 * (b - 2)
                - a * (b * (b + 4) - 12 * p2 + 1)
                + b3_
                + 2 * b2_
                + 12 * p2 * (b + c + 1)
                - b
                - 2
            )
            + (n - 4)
            * (n - 3)
            * (
                a4
                + a3 * (2 * b + 3)
                + a2 * (-3 * b * (2 * b + 1) + 6 * p2 + 1)
                + a * (12 * p2 * (b + 2 * c) + b * (b * (2 * b - 3) - 8) - 3)
                + 6 * p2 * (b2_ + 4 * b * c + (c - 6) * c - 1)
                + (b + 1) ** 2 * (b2_ + b - 2)
                + 8 * p4
            )
            + 2
            * (n - 3)
            * (
                a4 * b
                - a3 * b2_
                - a2 * (b3_ + b - 3 * c * p2)
                + a * b2_ * (b2_ - 1)
                + a * p2 * (b * (6 * c - 40) + c * (3 * c + 2))
                + c * p2 * (b * (3 * b + 3 * c + 2) + c + 4 * p2 - 13)
            )
            + a4 * (b - 1) * b
            + a3 * b * (-2 * b2_ + b + 1)
            + a2
            * (
                b4_
                + b3_
                + p2 * (12 * b2_ - 2 * b * (6 * c + 5) + c * (6 * c - 1))
                - 3 * b2_
                + b
            )
            + a * p2 * ((6 * b + 7) * c * c - 4 * (b * (3 * b + 2) + 3) * c + 2 * b * (11 - 5 * b))
            - a * (b - 1) ** 2 * b * (b + 1)
            + c * p2 * (b2_ * (6 * c - 1) + b * (7 * c - 12) + 5 * (c - 2) * p2 - c - 11)
        ) / d
        # the p2 prefactor wraps the entire bracket: attaching it only to the
        # trailing blocks fails the convolution oracle, for sin-F and for
        # sinh-F (w = -p^2) alike
        g4 = (
            2
            * p2
            * (
                8 * (n - 7) * (n - 6) * (n - 5) * (n - 4)
                + 4 * (n - 6) * (n - 5) * (n - 4) * (3 * (a + b + 1) + c)
                + 2 * (n - 5) * (n - 4) * (3 * (a + b - 1) * (a + b + c + 1) + 8 * p2)
                + (n - 4)
                * (
                    a3
                    + a2 * (3 * b + 3 * c + 2)
                    + a * (b * (3 * b + 6 * c - 46) + 3 * c + 4 * p2 - 1)
                    + (b + 3 * c + 1) * (b2_ + b + 4 * p2 - 2)
                )
                + a3 * (2 * c - 3 * b)
                + a2 * (3 * b * (2 * b - 5) + 4 * c)
                - a * (p2 * (6 * b - 5 * c) - 4 * b * c + 3 * b * (b * (b + 5) - 4) + 2 * c)
                + 5 * c * p2 * (b + c - 3)
                + 2 * (b - 1) * (b + 1) * (b + 2) * c
            )
            / d
        )
        g5 = (
            p2
            * (
                -4 * (n - 8) * (n - 7) * (n - 6) * (n - 5)
                - 8 * (n - 7) * (n - 6) * (n - 5) * (a + b + 1)
                - 6 * (n - 6) * (n - 5) * ((a + b) ** 2 + 8 * p2 - 1)
                - 2
                * (n - 5)
                * (
                    a3
                    + 3 * a2 * b
                    + 2 * a2
                    + 3 * a * b2_
                    + 12 * p2 * (a + b + c + 1)
                    - 16 * a * b
                    - a
                    + b3_
                    + 2 * b2_
                    - b
                    - 2
                )
                - a4
                + a3 * (2 * b - 3)
                - a2 * (b * (6 * b - 11) + 5 * p2 + 1)
                + a * (2 * p2 * (13 * b - 10 * c) + b * (b * (2 * b + 11) - 12) + 3)
                - 5 * p2 * (b2_ + 4 * b * c + (c - 6) * c - 1)
                - (b + 1) ** 2 * (b2_ + b - 2)
                - 4 * p4
            )
            / d
        )
        g6 = (
            2
            * p4
            * (
                5 * a2
                + a * (-8 * b + 5 * c + 12 * n - 72)
                + 5 * b2_
                + 5 * b * c
                + 12 * b * (n - 6)
                + 4 * n * (c + 4 * n)
                - 29 * c
                - 196 * n
                + 8 * p2
                + 595
            )
            / d
        )
        g7 = (
            -p4
            * (
                5 * a2
                - 2 * a * (b - 4 * n + 28)
                + 5 * b2_
                + 8 * b * (n - 7)
                + 8 * (n - 14) * n
                + 24 * p2
                + 387
            )
            / d
        )
        g8 = 16 * p6 / d
        g9 = -4 * p6 / d
        return (g0, g1, g2, g3, g4, g5, g6, g7, g8, g9)

    return row


# ---------------------------------------------------------------------------
# catalogue assembly
# ---------------------------------------------------------------------------


def _validate(info: FamilyInfo, params: Params):
    given = set(params.present())
    wanted = set(info.param_names)
    missing = sorted(wanted - given)
    extra = sorted(given - wanted)
    if missing:
        raise ParameterDomainError(
            f"family {info.id} requires parameter(s) {', '.join(missing)}"
        )
    if extra:
        raise ParameterDomainError(
            f"family {info.id} does not take parameter(s) {', '.join(extra)}"
        )
    if "c" in wanted:
        if is_nonpositive_integer(params.c):
            raise ParameterDomainError(
                f"family {info.id}: c must not be zero or a negative integer"
            )
        if info.c_excludes_2 and scalar_equals_int(params.c, 2):
            raise ParameterDomainError(
                f"family {info.id}: c = 2 makes the (c-2) row factor vanish; "
                "use the convolution oracle for this parameter point"
            )


def params_snapshot(params: Params, bk):
    """(name, formatted value) for every parameter that is set."""
    return tuple(
        (name, bk.format(getattr(params, name))) for name in params.present()
    )


def _meta(info: FamilyInfo, bk, params: Params):
    return (
        ("family", info.id),
        ("base", info.base),
        ("radius", info.radius),
        ("params", params_snapshot(params, bk)),
    )


def _field(value):
    """A real exact value as a plain Fraction, anything else unchanged: seeds
    and the one-time row compile then run in Fraction arithmetic, not in
    Gaussian rationals."""
    if isinstance(value, GaussianRational) and not value.im:
        return value.re
    return value


def _spec(info, bk, meta, seeds, row, den):
    """A recurrence that steps right after its seeds; K and E seeds carry pi/2."""
    if info.base in ("K", "E"):
        seeds = [bk.half_pi() * bk.coerce(s) for s in seeds]
    k = len(seeds) - 1
    return RecurrenceSpec(
        order=k,
        start=k,
        seeds=tuple(bk.coerce(s) for s in seeds),
        row=row,
        backend=bk.name,
        meta=meta,
        den_factors=den,
    )


_REGISTRY: dict[str, FamilyInfo] = {}
_BUILDERS: dict[str, Callable] = {}


def _register(info: FamilyInfo, builder: Callable):
    if info.id in _REGISTRY:
        raise ValueError(f"duplicate family id {info.id}")
    _REGISTRY[info.id] = info
    _BUILDERS[info.id] = builder


def _info(id, base, h, formulation, order, start, radius, names, c2=False):
    return FamilyInfo(id, base, h, formulation, order, start, radius, names, c2)


#: fixed Gauss parameters behind each elliptic base: K -> (1/2,1/2,1),
#: E -> (-1/2,1/2,1); expressed via integer halves to stay backend-generic
_ELLIPTIC_A_NUM = {"K": 1, "E": -1}


def _elliptic_abc(base, bk):
    two = bk.coerce(2)
    a = bk.coerce(_ELLIPTIC_A_NUM[base]) / two
    b = bk.one() / two
    c = bk.one()
    return a, b, c


def _args(info, params, bk):
    """The table arguments of a family: its parameters in ``info.param_names``
    order, behind the F table's fixed (a, b, c) for K and E."""
    args = [getattr(params, name) for name in info.param_names]
    if info.base in _ELLIPTIC_A_NUM:
        return [*(_field(x) for x in _elliptic_abc(info.base, bk)), *args]
    return args


def _mk(seeds_fn, row_fn, den):
    """A single recurrence; ``seeds_fn`` and ``row_fn`` take ``_args``, ``den``
    takes the Params."""

    def mk(info, params, bk):
        args = _args(info, params, bk)
        meta = _meta(info, bk, params)
        return _spec(info, bk, meta, seeds_fn(*args), row_fn(*args), den(params))

    return mk


def _at_w(fn, sign):
    """A sin/cos table ``fn(..., p, w)`` called as ``fn(..., p)``, with w the
    signed square sign * p^2 of the frequency: p^2 for sin and cos, -p^2 for
    sinh(pz) = -i sin(ipz) and cosh(pz) = cos(ipz)."""

    def at(*args):
        return fn(*args, sign * args[-1] * args[-1])

    return at


#: how the branches exp(+-pz) (sinh, cosh) or exp(+-ipz) (sin, cos) combine
_COMBINER = {"sinh": "(u-v)/2", "cosh": "(u+v)/2", "sin": "(u-v)/(2i)", "cos": "(u+v)/2"}


def _mk_branches(seeds_fn, row_fn, den):
    """A sin/cos/sinh/cosh product as the exp-X product at +q and at -q,
    combined entrywise: q = ip for sin and cos, q = p for sinh and cosh.

    ``seeds_fn``, ``row_fn`` and ``den`` are those of the base's exp-X family.
    """

    def mk(info, params, bk):
        meta = _meta(info, bk, params)
        q = bk.imaginary_unit() * params.p if info.h in ("sin", "cos") else params.p

        def branch(p):
            args = _args(info, replace(params, p=p), bk)
            return _spec(info, bk, meta, seeds_fn(*args), row_fn(*args), den(params))

        return ComboSpec(branch(q), branch(-q), _COMBINER[info.h], meta)

    return mk


def _f64_route(exact_builder, f64_builder):
    """Exact requests step the catalogue's single recurrence; f64 requests are
    served by a formulation that stays accurate in floats.

    Forward stepping of the high-order single recurrences amplifies roundoff
    along their parasitic solutions (Gautschi, SIAM Rev. 1967), so in f64 they
    would return wrong numbers without any error.
    """

    def mk(info, params, bk):
        builder = f64_builder if bk.name == "f64" else exact_builder
        return builder(info, params, bk)

    return mk


def _binom_poly_system(base: RecurrenceSpec, p: int, th):
    """binom-X at a nonnegative integer p as the Cauchy product u = h * b of
    the coefficients h of the polynomial (1 - theta z)^p with b, the exp-X
    stream at p = 0 (the base series, stepped by its first- or second-order
    row): u_n = sum_{j <= min(n, p)} C(p, j) (-theta)^j b_{n-j}.
    Returns (entry 0 of u, b and h, step)."""
    seeds, row, k = base.seeds, base.row, base.order

    def step(ys, n):
        u, b, h = ys
        if n < len(seeds):
            b.append(seeds[n])
        else:
            r = row(n - 1)
            b.append(sum(r[i] * b[n - 1 - i] for i in range(k + 1)))
        h.append(h[-1] * -th * (p - n + 1) / n)  # 0 from n = p + 1 on
        u.append(sum(h[j] * b[n - j] for j in range(min(n, p) + 1)))

    return (seeds[0], seeds[0], 1.0 + 0j), step


def _mk_binom(seeds_fn, row_fn, den, exp_seeds_fn, exp_row_fn):
    """The binom-X recurrence, except in f64 at a nonnegative integer p.

    There the wanted solution of the order-2 recurrence is a polynomial times
    the base, while the other one grows like theta^n: for |theta| > 1 forward
    stepping loses every digit without an error (Gautschi, SIAM Rev. 1967).
    Those requests convolve the base stream with the binomial's p + 1
    coefficients instead (``_binom_poly_system``).
    """
    recurrence = _mk(seeds_fn, row_fn, den)

    def f64(info, params, bk):
        p = params.p
        if p.imag or p.real < 0 or not p.real.is_integer():
            return recurrence(info, params, bk)
        args = _args(info, replace(params, p=bk.zero()), bk)[:-1]  # theta dropped
        meta = _meta(info, bk, params)
        base = _spec(info, bk, meta, exp_seeds_fn(*args), exp_row_fn(*args), den(params))
        init, step = _binom_poly_system(base, int(p.real), params.theta)
        return SystemSpec(init, step, bk.name, meta)

    return _f64_route(recurrence, f64)


# -- M base -----------------------------------------------------------------

_M_P = ("a", "c", "p")
_M_BRANCHES = _mk_branches(_exp_M_seeds, _exp_M_row, _den_low)


def _mk_arcsin_M_system(info, params, bk):
    a, c, p = params.a, params.c, params.p
    s0, g0 = (bk.zero(), p) if info.h == "arcsin" else (bk.half_pi(), -p)
    init, step = _arcsin_M_system(a, c, p, s0, g0)
    return SystemSpec(init, step, bk.name, _meta(info, bk, params))


def _mk_arccos_M(info, params, bk):
    a, c, p = params.a, params.c, params.p
    seeds = _arccos_M_seeds(a, c, p, bk.half_pi() * 2)
    meta = _meta(info, bk, params)
    return _spec(info, bk, meta, seeds, _arcsin_M_row(a, c, p), _den_high(params))


_register(
    _info("exp-M", "M", "exp", "single", 1, 1, "entire", _M_P),
    _mk(_exp_M_seeds, _exp_M_row, _den_low),
)
for _h in ("sinh", "cosh", "sin", "cos"):
    _register(_info(f"{_h}-M-combo", "M", _h, "combo", 1, 1, "entire", _M_P), _M_BRANCHES)
_register(
    _info("binom-M", "M", "binom", "single", 2, 2, "1/|theta|", _M_P + ("theta",)),
    _mk_binom(_binom_M_seeds, _binom_M_row, _den_low, _exp_M_seeds, _exp_M_row),
)
_register(
    _info("arctanexp-M", "M", "exp_arctan", "single", 4, 4, "entire", _M_P),
    _mk(_arctanexp_M_seeds, _arctanexp_M_row, _den_low),
)
for _h, _seeds, _sign in (
    ("sin", _sin_M_seeds, 1),
    ("cos", _cos_M_seeds, 1),
    ("sinh", _sin_M_seeds, -1),
    ("cosh", _cos_M_seeds, -1),
):
    _register(
        _info(f"{_h}-M", "M", _h, "single", 5, 5, "entire", _M_P, c2=True),
        _f64_route(
            _mk(_at_w(_seeds, _sign), _at_w(_sin_M_row, _sign), _den_high), _M_BRANCHES
        ),
    )
_register(
    _info("arcsin-M", "M", "arcsin", "single", 11, 11, "1/|p|", _M_P, c2=True),
    _f64_route(_mk(_arcsin_M_seeds, _arcsin_M_row, _den_high), _mk_arcsin_M_system),
)
_register(
    _info("arccos-M", "M", "arccos", "single", 11, 11, "1/|p|", _M_P, c2=True),
    _f64_route(_mk_arccos_M, _mk_arcsin_M_system),
)

# -- F base -----------------------------------------------------------------

_F_P = ("a", "b", "c", "p")
_F_BRANCHES = _mk_branches(_exp_F_seeds, _exp_F_row, _den_low)

_register(
    _info("exp-F", "F", "exp", "single", 2, 2, "1", _F_P),
    _mk(_exp_F_seeds, _exp_F_row, _den_low),
)
for _h in ("sinh", "cosh", "sin", "cos"):
    _register(_info(f"{_h}-F-combo", "F", _h, "combo", 2, 2, "1", _F_P), _F_BRANCHES)
_register(
    _info("binom-F", "F", "binom", "single", 2, 2, "1/|theta|", _F_P + ("theta",)),
    _mk_binom(_binom_F_seeds, _binom_F_row, _den_low, _exp_F_seeds, _exp_F_row),
)
_register(
    _info("arctanexp-F", "F", "exp_arctan", "single", 4, 4, "1", _F_P),
    _mk(_arctanexp_F_seeds, _arctanexp_F_row, _den_low),
)
_F_TRIG = (
    ("sin", _sin_F_seeds, 1),
    ("cos", _cos_F_seeds, 1),
    ("sinh", _sin_F_seeds, -1),
    ("cosh", _cos_F_seeds, -1),
)
for _h, _seeds, _sign in _F_TRIG:
    _register(
        _info(f"{_h}-F", "F", _h, "single", 9, 9, "1", _F_P, c2=True),
        _f64_route(
            _mk(_at_w(_seeds, _sign), _at_w(_sin_F_row, _sign), _den_high), _F_BRANCHES
        ),
    )

# -- elliptic bases: the F tables at (a, b, c) = (+-1/2, 1/2, 1) ------------

_ELLIPTIC_BRANCHES = _mk_branches(_exp_F_seeds, _exp_F_row, _den_elliptic)

for _base in ("K", "E"):
    _register(
        _info(f"exp-{_base}", _base, "exp", "single", 2, 2, "1", ("p",)),
        _mk(_exp_F_seeds, _exp_F_row, _den_elliptic),
    )
    _register(
        _info(f"binom-{_base}", _base, "binom", "single", 2, 2, "1/|theta|", ("p", "theta")),
        _mk_binom(_binom_F_seeds, _binom_F_row, _den_elliptic, _exp_F_seeds, _exp_F_row),
    )
    _register(
        _info(f"arctanexp-{_base}", _base, "exp_arctan", "single", 4, 4, "1", ("p",)),
        _mk(_arctanexp_F_seeds, _arctanexp_F_row, _den_elliptic),
    )
    for _h, _seeds, _sign in _F_TRIG:
        _register(
            _info(f"{_h}-{_base}", _base, _h, "single", 9, 9, "1", ("p",)),
            _f64_route(
                _mk(_at_w(_seeds, _sign), _at_w(_sin_F_row, _sign), _den_elliptic),
                _ELLIPTIC_BRANCHES,
            ),
        )


# ---------------------------------------------------------------------------
# public surface
# ---------------------------------------------------------------------------


def list_families() -> tuple:
    """The complete catalogue, in stable registration order."""
    return tuple(_REGISTRY.values())


def get_family(family_id: str) -> FamilyInfo:
    try:
        return _REGISTRY[family_id]
    except KeyError:
        known = ", ".join(_REGISTRY)
        raise CatalogueError(
            f"unknown family {family_id!r}; known ids: {known}"
        ) from None


def conform_params(params, bk) -> Params:
    """``params`` (a Params or a plain dict) with every set value coerced by ``bk``."""
    if isinstance(params, dict):
        params = Params(**params)
    fields = {}
    for name in ("a", "b", "c", "p", "theta"):
        value = getattr(params, name)
        fields[name] = None if value is None else bk.coerce(value)
    return Params(**fields)


def build(family_id: str, params, backend="exact"):
    """Build the recurrence (or combo) spec for one family.

    ``params`` is a :class:`Params` or a plain dict.  Values are coerced by
    the requested backend: the exact backend accepts ints, Fractions, and
    Gaussian rationals; the f64 backend accepts ints, floats, and complex.
    """
    bk = get_backend(backend)
    info = get_family(family_id)
    pp = conform_params(params, bk)
    _validate(info, pp)
    if bk.name == "exact":
        pp = Params(**{name: _field(getattr(pp, name)) for name in pp.present()})
    return _BUILDERS[family_id](info, pp, bk)


def _resolve_id(base: str, h: str, formulation: str) -> str:
    token = _H_TOKEN.get(h, h)
    if token not in _TOKEN_H:
        raise CatalogueError(f"unknown elementary kind {h!r}")
    suffix = "-combo" if formulation == "combo" else ""
    family_id = f"{token}-{base}{suffix}"
    if family_id not in _REGISTRY:
        raise CatalogueError(
            f"no {formulation} formulation of {token} over base {base}"
        )
    return family_id


def build_M_family(h: str, formulation: str, params, backend="exact"):
    return build(_resolve_id("M", h, formulation), params, backend)


def build_F_family(h: str, formulation: str, params, backend="exact"):
    return build(_resolve_id("F", h, formulation), params, backend)


def build_elliptic_family(kind: str, h: str, params, backend="exact"):
    if kind not in ("K", "E"):
        raise CatalogueError(f"elliptic base must be K or E, not {kind!r}")
    return build(_resolve_id(kind, h, "single"), params, backend)


def elementary_factor(info: FamilyInfo, params: Params) -> Elementary:
    """The h(z) factor of a family, as an oracle-side description."""
    if info.h == "binom":
        return Elementary("binom", p=params.p, theta=params.theta)
    return Elementary(info.h, p=params.p)

"""The family catalogue, and the recurrence spec that serves each request.

Every family couples an elementary factor h(z) with a hypergeometric-type
base (Kummer M, Gauss F, or the elliptic specialisations K, E).  Its
recurrence is the z^(n+1) coefficient of the product's ODE, written
sum_j z^j P_j(theta) y = 0 in the Euler operator theta = z d/dz:

    P_0(n+1) u[n+1] = -sum_i P_{i+1}(n-i) u[n-i],

so row entry i is -P_{i+1}(n-i) / P_0(n+1).  Nine such operators serve the
whole catalogue (``_OPERATORS``): exp, binom, arctanexp and sin over M and
F, and arcsin over M.  They come from D-finite closure of h's ODE with
Kummer's or Gauss's equation; ``scripts/derive_operators.py`` rebuilds and
checks them, and checks the paper's closed-form seeds against them.
Nothing is derived from the convolution oracle, and nothing here imports
it, not even the elliptic parameters, so :mod:`macprod.verify` can use the
oracle as an independent referee.

A spec keeps only the catalogue's seeds, u_0 (exp, binom, arctanexp) or
u_0 and u_1 (trig/hyp, arcsin, arccos), and the engine steps the table from
there, with u at negative indices taken as 0.  That is possible because at
an admissible c, P_0(n+1) = (n+1)(c+n) of a first-order h vanishes at no
n >= 0, and (c-2) c n (n+1) (c+n-1) (c+n) of sin and arcsin only at n = 0,
the step to the seed u_1.  Four identities let one table serve several
products:

* cos(pz) solves the ODE of sin(pz), and arccos(pz) = pi/2 - arcsin(pz)
  that of arcsin(pz); they differ only in u_0 and u_1.
* sinh(pz) = -i sin(ipz) and cosh(pz) = cos(ipz).  The sin table is written
  in the signed square w of the frequency: w = p^2 builds sin and cos,
  w = -p^2 builds sinh and cosh, so the arithmetic stays real at real p.
* K(sqrt z) = (pi/2) F(1/2, 1/2; 1; z) and E(sqrt z) = (pi/2) F(-1/2, 1/2;
  1; z).  Every K and E id is built from the F tables at those (a, b, c)
  (``_ELLIPTIC_ABC``), and its seeds carry the factor pi/2.
* sinh(pz), cosh(pz) = (e^(pz) -+ e^(-pz))/2 and sin(pz), cos(pz) =
  (e^(ipz) -+ e^(-ipz))/(2i or 2), so every sin/cos/sinh/cosh product is
  the base's exp-X product at +q and at -q, combined entrywise, with q = ip
  for sin/cos and q = p for sinh/cosh.  The ``-combo`` ids are built that
  way from the exp tables (``_mk_branches``).  At real parameters the sin/cos
  branch at -ip is the complex conjugate of the one at +ip, so the combo
  carries the +ip branch alone, and only it is stepped.

Both backends get a table's row from one plan (``_plan``), made once per
table: an integer matrix that maps the values of the table's monomials to
the coefficients of P_0(n+1), -P_1(n), -P_2(n-1), ... as polynomials in n,
with the Taylor shift and the signs applied.  The plan is built in Python
integers, and its long double copy is made on its first f64 use, so exact
builds never import numpy.  Exact builds
(``_integer_rows``) put in the monomials' values as Gaussian integers,
each parameter's denominator cleared by the largest power it reaches, and
get the integer row polynomials the exact engine steps.  f64 builds
(``_float_polys``) put them in as long doubles (complex only when a
parameter is) and hand the row polynomials to the f64 kernel, which
evaluates each row in long double as it steps, so each entry is its
correctly rounded double but for rare near-ties where long double is wider
than double (x87's is).  The kernel takes every f64 route's first steps,
through u_k, on a long double stream as well: at small n a step can cancel.

One rule (``_family``) makes every catalogue row from its base, h and
formulation, and one router (``_route``) decides which formulation serves a
request.  The exact backend steps the table of every single id.  In f64 the
high-order singles (sin/cos/sinh/cosh over every base, arcsin-M, arccos-M)
would amplify roundoff along parasitic solutions, so their f64 requests are
served by stable formulations: the same exp-X branches for the trig/hyp
products, four coupled first-order recurrences for the inverse-sine
products, interleaved into one order-11 recurrence with one set of
polynomials per sequence, which the f64 kernel steps.  binom at a
nonnegative integer p is the exp-X stream at p = 0 convolved with the
coefficients of (1 - theta z)^p, of which a run forms the min(p, N) + 1 it
reads; at any other p with |theta| > 1, where binom's own table loses its
digits, the same convolution runs with N + 1 coefficients.  Only the exp,
binom and arctanexp tables are evaluated in f64.

Builds are pure, and the returned specs are immutable plain data, the row
polynomials and the seeds, so a spec pickles.
"""

from __future__ import annotations

import functools
import math
import operator
from fractions import Fraction

from .numerics import (
    ParameterDomainError,
    PiLinear,
    _set,
    _Value,
    format_scalar,
    get_backend,
    is_nonpositive_integer,
    scalar_equals_int,
)

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
]


class CatalogueError(KeyError):
    """Unknown family id or illegal base/h/formulation combination."""


class Params(_Value):
    """Parameter tuple; unused slots stay None."""

    __slots__ = ("a", "b", "c", "p", "theta")

    def __init__(self, a=None, b=None, c=None, p=None, theta=None):
        _set(self, "a", a)
        _set(self, "b", b)
        _set(self, "c", c)
        _set(self, "p", p)
        _set(self, "theta", theta)

    def present(self):
        return tuple(
            name for name in ("a", "b", "c", "p", "theta")
            if getattr(self, name) is not None
        )


class FamilyInfo(_Value):
    """Catalogue row: identity, arity, order, radius note."""

    __slots__ = ("id", "base", "h", "formulation", "order", "radius", "param_names",
                 "c_excludes_2")

    def __init__(self, id: str, base: str, h: str, formulation: str, order: int, radius: str,
                 param_names: tuple, c_excludes_2: bool = False):
        _set(self, "id", id)
        _set(self, "base", base)  # "M" | "F" | "K" | "E"
        _set(self, "h", h)  # elementary kind (series_oracle naming)
        _set(self, "formulation", formulation)  # "single" | "combo"
        _set(self, "order", order)
        # "entire" | "1" | "1/|theta|" | "1/|p|" | "min(1,1/|theta|)"
        _set(self, "radius", radius)
        _set(self, "param_names", param_names)
        _set(self, "c_excludes_2", c_excludes_2)

    @property
    def start(self) -> int:
        """The start index n0 that ``list`` shows: the order k, the first n
        whose step reads k + 1 entries from u_0 on.  A spec holds only the
        catalogue's seeds, u_0 or u_0 and u_1, and its run steps them up to
        u_k with u at negative indices taken as 0."""
        return self.order


#: the F table's (a, b, c) behind each elliptic base (see the module
#: docstring); the oracle keeps its own, so the referee never reads the tables'
_ELLIPTIC_ABC = {
    "K": (Fraction(1, 2), Fraction(1, 2), 1),
    "E": (Fraction(-1, 2), Fraction(1, 2), 1),
}


# ---------------------------------------------------------------------------
# the nine product operators
# ---------------------------------------------------------------------------

#: Each product ODE as sum_j z^j P_j(theta) y = 0.  Per operator: its
#: variables, then one string per P_j of terms "coef t e_1 e_2 ...", each
#: coef theta^t x_1^e_1 x_2^e_2 ... over the variables x_k.  theta^t is the
#: Euler operator; the variable theta is the binomial's parameter, and w is
#: the signed square of the frequency (see the module docstring).  P_0 is
#: theta (theta + c - 1) for a first-order h and
#: (c-2) c theta (theta-1) (theta+c-2) (theta+c-1) for sin and arcsin.
#: The terms are spelled as text because a literal of ~1100 nested tuples
#: raises the peak memory of compiling this module by over 1 MB.
#: scripts/derive_operators.py derives them (--emit prints this literal).
_OPERATORS = {
    "exp-M": (
        "a c p",
        # P_0
        "-1 1 0 0 0, 1 2 0 0 0, 1 1 0 1 0",
        # P_1
        "-1 1 0 0 0, -2 1 0 0 1, -1 0 0 1 1, -1 0 1 0 0",
        # P_2
        "1 0 0 0 1, 1 0 0 0 2",
    ),
    "exp-F": (
        "a b c p",
        # P_0
        "-1 1 0 0 0 0, 1 2 0 0 0 0, 1 1 0 0 1 0",
        # P_1
        "-1 2 0 0 0 0, -2 1 0 0 0 1, -1 0 0 0 1 1, -1 1 0 1 0 0, -1 1 1 0 0 0, -1 0 1 1 0 0",
        # P_2
        "1 0 0 0 0 1, 2 1 0 0 0 1, 1 0 0 0 0 2, 1 0 0 1 0 1, 1 0 1 0 0 1",
        # P_3
        "-1 0 0 0 0 2",
    ),
    "binom-M": (
        "a c p theta",
        # P_0
        "-1 1 0 0 0 0, 1 2 0 0 0 0, 1 1 0 1 0 0",
        # P_1
        "-1 1 0 0 0 0, 2 1 0 0 0 1, -2 2 0 0 0 1, 2 1 0 0 1 1, -2 1 0 1 0 1, 1 0 0 1 1 1, "
        "-1 0 1 0 0 0",
        # P_2
        "2 1 0 0 0 1, -1 1 0 0 0 2, 1 2 0 0 0 2, -1 0 0 0 1 1, 1 0 0 0 1 2, -2 1 0 0 1 2, "
        "1 0 0 0 2 2, 1 1 0 1 0 2, -1 0 0 1 1 2, 2 0 1 0 0 1",
        # P_3
        "-1 1 0 0 0 2, 1 0 0 0 1 2, -1 0 1 0 0 2",
    ),
    "binom-F": (
        "a b c p theta",
        # P_0
        "-1 1 0 0 0 0 0, 1 2 0 0 0 0 0, 1 1 0 0 1 0 0",
        # P_1
        "-1 2 0 0 0 0 0, 2 1 0 0 0 0 1, -2 2 0 0 0 0 1, 2 1 0 0 0 1 1, -2 1 0 0 1 0 1, "
        "1 0 0 0 1 1 1, -1 1 0 1 0 0 0, -1 1 1 0 0 0 0, -1 0 1 1 0 0 0",
        # P_2
        "2 2 0 0 0 0 1, -1 1 0 0 0 0 2, 1 2 0 0 0 0 2, -1 0 0 0 0 1 1, -2 1 0 0 0 1 1, "
        "1 0 0 0 0 1 2, -2 1 0 0 0 1 2, 1 0 0 0 0 2 2, 1 1 0 0 1 0 2, -1 0 0 0 1 1 2, "
        "2 1 0 1 0 0 1, -1 0 0 1 0 1 1, 2 1 1 0 0 0 1, -1 0 1 0 0 1 1, 2 0 1 1 0 0 1",
        # P_3
        "-1 2 0 0 0 0 2, 2 1 0 0 0 1 2, -1 0 0 0 0 2 2, -1 1 0 1 0 0 2, 1 0 0 1 0 1 2, "
        "-1 1 1 0 0 0 2, 1 0 1 0 0 1 2, -1 0 1 1 0 0 2",
    ),
    "arctanexp-M": (
        "a c p",
        # P_0
        "-1 1 0 0 0, 1 2 0 0 0, 1 1 0 1 0",
        # P_1
        "-1 1 0 0 0, 2 1 0 0 1, 1 0 0 1 1, -1 0 1 0 0",
        # P_2
        "-2 1 0 0 0, 2 2 0 0 0, -1 0 0 0 1, 1 0 0 0 2, 2 1 0 1 0",
        # P_3
        "-2 1 0 0 0, -2 0 0 0 1, 2 1 0 0 1, 1 0 0 1 1, -2 0 1 0 0",
        # P_4
        "-1 1 0 0 0, 1 2 0 0 0, -1 0 0 0 1, 1 1 0 1 0",
        # P_5
        "-1 1 0 0 0, -1 0 1 0 0",
    ),
    "arctanexp-F": (
        "a b c p",
        # P_0
        "-1 1 0 0 0 0, 1 2 0 0 0 0, 1 1 0 0 1 0",
        # P_1
        "-1 2 0 0 0 0, 2 1 0 0 0 1, 1 0 0 0 1 1, -1 1 0 1 0 0, -1 1 1 0 0 0, -1 0 1 1 0 0",
        # P_2
        "-2 1 0 0 0 0, 2 2 0 0 0 0, -1 0 0 0 0 1, -2 1 0 0 0 1, 1 0 0 0 0 2, 2 1 0 0 1 0, "
        "-1 0 0 1 0 1, -1 0 1 0 0 1",
        # P_3
        "-2 2 0 0 0 0, -2 0 0 0 0 1, 2 1 0 0 0 1, -1 0 0 0 0 2, 1 0 0 0 1 1, -2 1 0 1 0 0, "
        "-2 1 1 0 0 0, -2 0 1 1 0 0",
        # P_4
        "-1 1 0 0 0 0, 1 2 0 0 0 0, 1 0 0 0 0 1, -2 1 0 0 0 1, 1 1 0 0 1 0, -1 0 0 1 0 1, "
        "-1 0 1 0 0 1",
        # P_5
        "-1 2 0 0 0 0, -1 1 0 1 0 0, -1 1 1 0 0 0, -1 0 1 1 0 0",
    ),
    "sin-M": (
        "a c w",
        # P_0
        "4 1 0 1 0, -10 2 0 1 0, 8 3 0 1 0, -2 4 0 1 0, -8 1 0 2 0, 15 2 0 2 0, -8 3 0 2 0, "
        "1 4 0 2 0, 5 1 0 3 0, -7 2 0 3 0, 2 3 0 3 0, -1 1 0 4 0, 1 2 0 4 0",
        # P_1
        "10 1 0 1 0, -22 2 0 1 0, 14 3 0 1 0, -2 4 0 1 0, -14 1 0 2 0, 20 2 0 2 0, -6 3 0 2 0, "
        "4 1 0 3 0, -4 2 0 3 0, -16 1 1 0 0, 32 2 1 0 0, -20 3 1 0 0, 4 4 1 0 0, 18 1 1 1 0, "
        "-22 2 1 1 0, 8 3 1 1 0, 2 2 1 2 0, -2 1 1 3 0",
        # P_2
        "-6 1 0 0 0, 11 2 0 0 0, -6 3 0 0 0, 1 4 0 0 0, -24 1 0 0 1, 44 2 0 0 1, -24 3 0 0 1, "
        "4 4 0 0 1, 13 1 0 1 0, -19 2 0 1 0, 6 3 0 1 0, 24 1 0 1 1, -36 2 0 1 1, 8 3 0 1 1, "
        "-6 1 0 2 0, 6 2 0 2 0, -2 0 0 2 1, -8 1 0 2 1, 6 2 0 2 1, -1 0 0 3 1, 2 1 0 3 1, "
        "1 0 0 4 1, -10 1 1 0 0, 18 2 1 0 0, -8 3 1 0 0, 2 0 1 1 0, -2 1 1 1 0, -4 2 1 1 0, "
        "-1 0 1 2 0, 6 1 1 2 0, -4 0 2 0 0, 12 1 2 0 0, -8 2 2 0 0, -8 1 2 1 0, 1 0 2 2 0",
        # P_3
        "-4 1 0 0 0, 6 2 0 0 0, -2 3 0 0 0, -16 1 0 0 1, 24 2 0 0 1, -8 3 0 0 1, 4 1 0 1 0, "
        "-4 2 0 1 0, 6 0 0 1 1, 14 1 0 1 1, -12 2 0 1 1, 2 0 0 2 1, -6 1 0 2 1, -4 0 0 3 1, "
        "-2 0 1 0 0, 2 1 1 0 0, 2 2 1 0 0, -8 0 1 0 1, 20 1 1 0 1, 2 0 1 1 0, -6 1 1 1 0, "
        "-2 0 1 1 1, 6 0 1 2 1, -2 0 2 0 0, 8 1 2 0 0, -2 0 2 1 0, 4 0 3 0 0",
        # P_4
        "-1 1 0 0 0, 1 2 0 0 0, -6 1 0 0 1, 6 2 0 0 1, -8 1 0 0 2, 8 2 0 0 2, -1 0 0 1 1, "
        "6 1 0 1 1, -10 0 0 1 2, 8 1 0 1 2, 6 0 0 2 1, 5 0 0 2 2, -1 0 1 0 0, 2 1 1 0 0, "
        "-10 0 1 0 1, -12 0 1 1 1, 1 0 2 0 0, 12 0 2 0 1",
        # P_5
        "-2 1 0 0 1, -8 1 0 0 2, -4 0 0 1 1, -10 0 0 1 2, 6 0 1 0 1, 12 0 1 0 2",
        # P_6
        "1 0 0 0 1, 5 0 0 0 2, 4 0 0 0 3",
    ),
    "sin-F": (
        "a b c w",
        # P_0
        "4 1 0 0 1 0, -10 2 0 0 1 0, 8 3 0 0 1 0, -2 4 0 0 1 0, -8 1 0 0 2 0, 15 2 0 0 2 0, "
        "-8 3 0 0 2 0, 1 4 0 0 2 0, 5 1 0 0 3 0, -7 2 0 0 3 0, 2 3 0 0 3 0, -1 1 0 0 4 0, "
        "1 2 0 0 4 0",
        # P_1
        "-6 1 0 0 1 0, 18 2 0 0 1 0, -18 3 0 0 1 0, 6 4 0 0 1 0, 8 1 0 0 2 0, -18 2 0 0 2 0, "
        "12 3 0 0 2 0, -2 4 0 0 2 0, -2 1 0 0 3 0, 4 2 0 0 3 0, -2 3 0 0 3 0, 10 1 0 1 1 0, "
        "-22 2 0 1 1 0, 14 3 0 1 1 0, -2 4 0 1 1 0, -14 1 0 1 2 0, 20 2 0 1 2 0, -6 3 0 1 2 0, "
        "4 1 0 1 3 0, -4 2 0 1 3 0, 10 1 1 0 1 0, -22 2 1 0 1 0, 14 3 1 0 1 0, -2 4 1 0 1 0, "
        "-14 1 1 0 2 0, 20 2 1 0 2 0, -6 3 1 0 2 0, 4 1 1 0 3 0, -4 2 1 0 3 0, -16 1 1 1 0 0, "
        "32 2 1 1 0 0, -20 3 1 1 0 0, 4 4 1 1 0 0, 18 1 1 1 1 0, -22 2 1 1 1 0, 8 3 1 1 1 0, "
        "2 2 1 1 2 0, -2 1 1 1 3 0",
        # P_2
        "6 1 0 0 0 0, -11 2 0 0 0 0, 6 3 0 0 0 0, -1 4 0 0 0 0, -24 1 0 0 0 1, 44 2 0 0 0 1, "
        "-24 3 0 0 0 1, 4 4 0 0 0 1, -5 1 0 0 1 0, 1 2 0 0 1 0, 10 3 0 0 1 0, -6 4 0 0 1 0, "
        "24 1 0 0 1 1, -36 2 0 0 1 1, 8 3 0 0 1 1, -1 1 0 0 2 0, 4 2 0 0 2 0, -4 3 0 0 2 0, "
        "1 4 0 0 2 0, -2 0 0 0 2 1, -8 1 0 0 2 1, 6 2 0 0 2 1, -1 0 0 0 3 1, 2 1 0 0 3 1, "
        "1 0 0 0 4 1, -4 1 0 1 1 0, 20 2 0 1 1 0, -20 3 0 1 1 0, 4 4 0 1 1 0, 5 1 0 1 2 0, "
        "-11 2 0 1 2 0, 6 3 0 1 2 0, -6 1 0 2 0 0, 11 2 0 2 0 0, -6 3 0 2 0 0, 1 4 0 2 0 0, "
        "13 1 0 2 1 0, -19 2 0 2 1 0, 6 3 0 2 1 0, -6 1 0 2 2 0, 6 2 0 2 2 0, -4 1 1 0 1 0, "
        "20 2 1 0 1 0, -20 3 1 0 1 0, 4 4 1 0 1 0, 5 1 1 0 2 0, -11 2 1 0 2 0, 6 3 1 0 2 0, "
        "18 1 1 1 0 0, -44 2 1 1 0 0, 36 3 1 1 0 0, -10 4 1 1 0 0, 2 0 1 1 1 0, -6 1 1 1 1 0, "
        "-4 3 1 1 1 0, -1 0 1 1 2 0, -8 1 1 1 2 0, 10 2 1 1 2 0, -10 1 1 2 0 0, 18 2 1 2 0 0, "
        "-8 3 1 2 0 0, 2 0 1 2 1 0, -2 1 1 2 1 0, -4 2 1 2 1 0, -1 0 1 2 2 0, 6 1 1 2 2 0, "
        "-6 1 2 0 0 0, 11 2 2 0 0 0, -6 3 2 0 0 0, 1 4 2 0 0 0, 13 1 2 0 1 0, -19 2 2 0 1 0, "
        "6 3 2 0 1 0, -6 1 2 0 2 0, 6 2 2 0 2 0, -10 1 2 1 0 0, 18 2 2 1 0 0, -8 3 2 1 0 0, "
        "2 0 2 1 1 0, -2 1 2 1 1 0, -4 2 2 1 1 0, -1 0 2 1 2 0, 6 1 2 1 2 0, -4 0 2 2 0 0, "
        "12 1 2 2 0 0, -8 2 2 2 0 0, -8 1 2 2 1 0, 1 0 2 2 2 0",
        # P_3
        "-4 1 0 0 0 0, 10 2 0 0 0 0, -8 3 0 0 0 0, 2 4 0 0 0 0, 80 1 0 0 0 1, -152 2 0 0 0 1, "
        "88 3 0 0 0 1, -16 4 0 0 0 1, 4 1 0 0 1 0, -6 2 0 0 1 0, 2 4 0 0 1 0, 6 0 0 0 1 1, "
        "-66 1 0 0 1 1, 108 2 0 0 1 1, -24 3 0 0 1 1, 4 0 0 0 2 1, 12 1 0 0 2 1, "
        "-12 2 0 0 2 1, -2 0 0 0 3 1, -2 1 0 0 3 1, 4 1 0 1 0 0, -6 2 0 1 0 0, 2 3 0 1 0 0, "
        "-16 1 0 1 0 1, 24 2 0 1 0 1, -8 3 0 1 0 1, -4 1 0 1 1 0, 6 3 0 1 1 0, -2 4 0 1 1 0, "
        "6 0 0 1 1 1, 14 1 0 1 1 1, -12 2 0 1 1 1, 2 0 0 1 2 1, -6 1 0 1 2 1, -4 0 0 1 3 1, "
        "4 1 0 2 0 0, -10 2 0 2 0 0, 8 3 0 2 0 0, -2 4 0 2 0 0, -4 1 0 2 1 0, 10 2 0 2 1 0, "
        "-6 3 0 2 1 0, -4 1 0 3 0 0, 6 2 0 3 0 0, -2 3 0 3 0 0, 4 1 0 3 1 0, -4 2 0 3 1 0, "
        "4 1 1 0 0 0, -6 2 1 0 0 0, 2 3 1 0 0 0, -16 1 1 0 0 1, 24 2 1 0 0 1, -8 3 1 0 0 1, "
        "-4 1 1 0 1 0, 6 3 1 0 1 0, -2 4 1 0 1 0, 6 0 1 0 1 1, 14 1 1 0 1 1, -12 2 1 0 1 1, "
        "2 0 1 0 2 1, -6 1 1 0 2 1, -4 0 1 0 3 1, 2 0 1 1 0 0, -12 1 1 1 0 0, 20 2 1 1 0 0, "
        "-20 3 1 1 0 0, 8 4 1 1 0 0, -8 0 1 1 0 1, 20 1 1 1 0 1, -2 0 1 1 1 0, 8 1 1 1 1 0, "
        "4 2 1 1 1 0, -4 3 1 1 1 0, -2 0 1 1 1 1, 6 0 1 1 2 1, 2 1 1 2 0 0, -12 2 1 2 0 0, "
        "10 3 1 2 0 0, 6 1 1 2 1 0, -8 2 1 2 1 0, -2 0 1 3 0 0, 2 1 1 3 0 0, 2 2 1 3 0 0, "
        "2 0 1 3 1 0, -6 1 1 3 1 0, 4 1 2 0 0 0, -10 2 2 0 0 0, 8 3 2 0 0 0, -2 4 2 0 0 0, "
        "-4 1 2 0 1 0, 10 2 2 0 1 0, -6 3 2 0 1 0, 2 1 2 1 0 0, -12 2 2 1 0 0, 10 3 2 1 0 0, "
        "6 1 2 1 1 0, -8 2 2 1 1 0, 2 0 2 2 0 0, -16 1 2 2 0 0, 20 2 2 2 0 0, 2 0 2 2 1 0, "
        "-4 1 2 2 1 0, -2 0 2 3 0 0, 8 1 2 3 0 0, -2 0 2 3 1 0, -4 1 3 0 0 0, 6 2 3 0 0 0, "
        "-2 3 3 0 0 0, 4 1 3 0 1 0, -4 2 3 0 1 0, -2 0 3 1 0 0, 2 1 3 1 0 0, 2 2 3 1 0 0, "
        "2 0 3 1 1 0, -6 1 3 1 1 0, -2 0 3 2 0 0, 8 1 3 2 0 0, -2 0 3 2 1 0, 4 0 3 3 0 0",
        # P_4
        "-1 2 0 0 0 0, 2 3 0 0 0 0, -1 4 0 0 0 0, -90 1 0 0 0 1, 186 2 0 0 0 1, "
        "-120 3 0 0 0 1, 24 4 0 0 0 1, -8 1 0 0 0 2, 8 2 0 0 0 2, -11 0 0 0 1 1, 58 1 0 0 1 1, "
        "-108 2 0 0 1 1, 24 3 0 0 1 1, -10 0 0 0 1 2, 8 1 0 0 1 2, -1 0 0 0 2 1, -4 1 0 0 2 1, "
        "6 2 0 0 2 1, 5 0 0 0 2 2, -1 1 0 1 0 0, 3 2 0 1 0 0, -2 3 0 1 0 0, 48 1 0 1 0 1, "
        "-72 2 0 1 0 1, 24 3 0 1 0 1, -12 0 0 1 1 1, -20 1 0 1 1 1, 24 2 0 1 1 1, 7 0 0 1 2 1, "
        "6 1 0 1 2 1, 1 1 0 2 0 0, -2 3 0 2 0 0, 1 4 0 2 0 0, -6 1 0 2 0 1, 6 2 0 2 0 1, "
        "-1 0 0 2 1 1, 6 1 0 2 1 1, 6 0 0 2 2 1, 1 1 0 3 0 0, -3 2 0 3 0 0, 2 3 0 3 0 0, "
        "-1 1 0 4 0 0, 1 2 0 4 0 0, -1 1 1 0 0 0, 3 2 1 0 0 0, -2 3 1 0 0 0, 48 1 1 0 0 1, "
        "-72 2 1 0 0 1, 24 3 1 0 0 1, -12 0 1 0 1 1, -20 1 1 0 1 1, 24 2 1 0 1 1, 7 0 1 0 2 1, "
        "6 1 1 0 2 1, -1 0 1 1 0 0, 4 1 1 1 0 0, -6 2 1 1 0 0, 4 3 1 1 0 0, -2 4 1 1 0 0, "
        "22 0 1 1 0 1, -92 1 1 1 0 1, 12 2 1 1 0 1, -8 0 1 1 1 1, 12 1 1 1 1 1, 6 0 1 1 2 1, "
        "1 0 1 2 0 0, -3 1 1 2 0 0, 3 2 1 2 0 0, -2 3 1 2 0 0, -10 0 1 2 0 1, -12 0 1 2 1 1, "
        "1 0 1 3 0 0, -2 1 1 3 0 0, 2 2 1 3 0 0, -1 0 1 4 0 0, 2 1 1 4 0 0, 1 1 2 0 0 0, "
        "-2 3 2 0 0 0, 1 4 2 0 0 0, -6 1 2 0 0 1, 6 2 2 0 0 1, -1 0 2 0 1 1, 6 1 2 0 1 1, "
        "6 0 2 0 2 1, 1 0 2 1 0 0, -3 1 2 1 0 0, 3 2 2 1 0 0, -2 3 2 1 0 0, -10 0 2 1 0 1, "
        "-12 0 2 1 1 1, -3 0 2 2 0 0, 6 1 2 2 0 0, -6 2 2 2 0 0, 12 0 2 2 0 1, 1 0 2 3 0 0, "
        "-2 1 2 3 0 0, 1 0 2 4 0 0, 1 1 3 0 0 0, -3 2 3 0 0 0, 2 3 3 0 0 0, 1 0 3 1 0 0, "
        "-2 1 3 1 0 0, 2 2 3 1 0 0, 1 0 3 2 0 0, -2 1 3 2 0 0, -2 0 3 3 0 0, -1 1 4 0 0 0, "
        "1 2 4 0 0 0, -1 0 4 1 0 0, 2 1 4 1 0 0, 1 0 4 2 0 0",
        # P_5
        "40 1 0 0 0 1, -92 2 0 0 0 1, 72 3 0 0 0 1, -16 4 0 0 0 1, 24 1 0 0 0 2, "
        "-32 2 0 0 0 2, 8 0 0 0 1 1, -16 1 0 0 1 1, 36 2 0 0 1 1, -8 3 0 0 1 1, 30 0 0 0 1 2, "
        "-24 1 0 0 1 2, -10 0 0 0 2 2, -46 1 0 1 0 1, 72 2 0 1 0 1, -24 3 0 1 0 1, "
        "-8 1 0 1 0 2, 4 0 0 1 1 1, 6 1 0 1 1 1, -12 2 0 1 1 1, -10 0 0 1 1 2, 8 1 0 2 0 1, "
        "-12 2 0 2 0 1, -8 0 0 2 1 1, -6 1 0 2 1 1, -2 1 0 3 0 1, -4 0 0 3 1 1, -46 1 1 0 0 1, "
        "72 2 1 0 0 1, -24 3 1 0 0 1, -8 1 1 0 0 2, 4 0 1 0 1 1, 6 1 1 0 1 1, -12 2 1 0 1 1, "
        "-10 0 1 0 1 2, -24 0 1 1 0 1, 116 1 1 1 0 1, -24 2 1 1 0 1, 12 0 1 1 0 2, "
        "-8 0 1 1 1 1, -12 1 1 1 1 1, 30 0 1 2 0 1, -6 1 1 2 0 1, 6 0 1 3 0 1, 8 1 2 0 0 1, "
        "-12 2 2 0 0 1, -8 0 2 0 1 1, -6 1 2 0 1 1, 30 0 2 1 0 1, -6 1 2 1 0 1, -12 0 2 2 0 1, "
        "-2 1 3 0 0 1, -4 0 3 0 1 1, 6 0 3 1 0 1",
        # P_6
        "-2 0 0 0 0 1, -6 1 0 0 0 1, 14 2 0 0 0 1, -16 3 0 0 0 1, 4 4 0 0 0 1, -5 0 0 0 0 2, "
        "-24 1 0 0 0 2, 48 2 0 0 0 2, 4 0 0 0 0 3, -30 0 0 0 1 2, 24 1 0 0 1 2, 5 0 0 0 2 2, "
        "-3 0 0 1 0 1, 14 1 0 1 0 1, -24 2 0 1 0 1, 8 3 0 1 0 1, 24 1 0 1 0 2, 20 0 0 1 1 2, "
        "1 0 0 2 0 1, -2 1 0 2 0 1, 6 2 0 2 0 1, 5 0 0 2 0 2, 3 0 0 3 0 1, 2 1 0 3 0 1, "
        "1 0 0 4 0 1, -3 0 1 0 0 1, 14 1 1 0 0 1, -24 2 1 0 0 1, 8 3 1 0 0 1, 24 1 1 0 0 2, "
        "20 0 1 0 1 2, 12 0 1 1 0 1, -44 1 1 1 0 1, 12 2 1 1 0 1, -26 0 1 1 0 2, "
        "-11 0 1 2 0 1, 6 1 1 2 0 1, -2 0 1 3 0 1, 1 0 2 0 0 1, -2 1 2 0 0 1, 6 2 2 0 0 1, "
        "5 0 2 0 0 2, -11 0 2 1 0 1, 6 1 2 1 0 1, 6 0 2 2 0 1, 3 0 3 0 0 1, 2 1 3 0 0 1, "
        "-2 0 3 1 0 1, 1 0 4 0 0 1",
        # P_7
        "10 0 0 0 0 2, 8 1 0 0 0 2, -32 2 0 0 0 2, -16 0 0 0 0 3, 10 0 0 0 1 2, -8 1 0 0 1 2, "
        "-24 1 0 1 0 2, -10 0 0 1 1 2, -10 0 0 2 0 2, -24 1 1 0 0 2, -10 0 1 0 1 2, "
        "16 0 1 1 0 2, -10 0 2 0 0 2",
        # P_8
        "-5 0 0 0 0 2, 8 2 0 0 0 2, 24 0 0 0 0 3, 8 1 0 1 0 2, 5 0 0 2 0 2, 8 1 1 0 0 2, "
        "-2 0 1 1 0 2, 5 0 2 0 0 2",
        # P_9
        "-16 0 0 0 0 3",
        # P_10
        "4 0 0 0 0 3",
    ),
    "arcsin-M": (
        "a c w",
        # P_0
        "4 1 0 1 0, -10 2 0 1 0, 8 3 0 1 0, -2 4 0 1 0, -8 1 0 2 0, 15 2 0 2 0, -8 3 0 2 0, "
        "1 4 0 2 0, 5 1 0 3 0, -7 2 0 3 0, 2 3 0 3 0, -1 1 0 4 0, 1 2 0 4 0",
        # P_1
        "10 1 0 1 0, -22 2 0 1 0, 14 3 0 1 0, -2 4 0 1 0, -14 1 0 2 0, 20 2 0 2 0, -6 3 0 2 0, "
        "4 1 0 3 0, -4 2 0 3 0, -16 1 1 0 0, 32 2 1 0 0, -20 3 1 0 0, 4 4 1 0 0, 18 1 1 1 0, "
        "-22 2 1 1 0, 8 3 1 1 0, 2 2 1 2 0, -2 1 1 3 0",
        # P_2
        "-6 1 0 0 0, 11 2 0 0 0, -6 3 0 0 0, 1 4 0 0 0, -12 1 0 0 1, 22 2 0 0 1, -12 3 0 0 1, "
        "2 4 0 0 1, 13 1 0 1 0, -19 2 0 1 0, 6 3 0 1 0, -2 1 0 1 1, 22 2 0 1 1, -24 3 0 1 1, "
        "8 4 0 1 1, -6 1 0 2 0, 6 2 0 2 0, 29 1 0 2 1, -51 2 0 2 1, 30 3 0 2 1, -4 4 0 2 1, "
        "-18 1 0 3 1, 25 2 0 3 1, -8 3 0 3 1, 3 1 0 4 1, -4 2 0 4 1, -10 1 1 0 0, 18 2 1 0 0, "
        "-8 3 1 0 0, 2 0 1 1 0, -2 1 1 1 0, -4 2 1 1 0, -1 0 1 2 0, 6 1 1 2 0, -4 0 2 0 0, "
        "12 1 2 0 0, -8 2 2 0 0, -8 1 2 1 0, 1 0 2 2 0",
        # P_3
        "-4 1 0 0 0, 6 2 0 0 0, -2 3 0 0 0, -8 1 0 0 1, 12 2 0 0 1, -4 3 0 0 1, 4 1 0 1 0, "
        "-4 2 0 1 0, -37 1 0 1 1, 73 2 0 1 1, -52 3 0 1 1, 8 4 0 1 1, 51 1 0 2 1, -71 2 0 2 1, "
        "24 3 0 2 1, -12 1 0 3 1, 16 2 0 3 1, -2 0 1 0 0, 2 1 1 0 0, 2 2 1 0 0, -4 0 1 0 1, "
        "70 1 1 0 1, -122 2 1 0 1, 72 3 1 0 1, -16 4 1 0 1, 2 0 1 1 0, -6 1 1 1 0, -4 0 1 1 1, "
        "-74 1 1 1 1, 76 2 1 1 1, -32 3 1 1 1, 1 0 1 2 1, -2 1 1 2 1, -8 2 1 2 1, 1 0 1 3 1, "
        "8 1 1 3 1, -2 0 2 0 0, 8 1 2 0 0, -2 0 2 1 0, 4 0 3 0 0",
        # P_4
        "-1 1 0 0 0, 1 2 0 0 0, 20 1 0 0 1, -38 2 0 0 1, 22 3 0 0 1, -4 4 0 0 1, -6 1 0 0 2, "
        "5 2 0 0 2, 4 3 0 0 2, -3 4 0 0 2, -48 1 0 1 1, 67 2 0 1 1, -24 3 0 1 1, 31 1 0 1 2, "
        "-45 2 0 1 2, 30 3 0 1 2, -12 4 0 1 2, 18 1 0 2 1, -24 2 0 2 1, -43 1 0 2 2, "
        "63 2 0 2 2, -42 3 0 2 2, 6 4 0 2 2, 21 1 0 3 2, -33 2 0 3 2, 12 3 0 3 2, -3 1 0 4 2, "
        "6 2 0 4 2, -1 0 1 0 0, 2 1 1 0 0, -2 0 1 0 1, 46 1 1 0 1, -60 2 1 0 1, 32 3 1 0 1, "
        "-9 0 1 1 1, 12 1 1 1 1, 16 2 1 1 1, 1 0 1 2 1, -24 1 1 2 1, 1 0 2 0 0, 24 0 2 0 1, "
        "-40 1 2 0 1, 32 2 2 0 1, 4 0 2 1 1, 32 1 2 1 1, -4 0 2 2 1",
        # P_5
        "15 1 0 0 1, -21 2 0 0 1, 8 3 0 0 1, -5 1 0 0 2, 3 2 0 0 2, 6 3 0 0 2, -12 1 0 1 1, "
        "16 2 0 1 1, 62 1 0 1 2, -87 2 0 1 2, 72 3 0 1 2, -12 4 0 1 2, -60 1 0 2 2, "
        "93 2 0 2 2, -36 3 0 2 2, 12 1 0 3 2, -24 2 0 3 2, 8 0 1 0 1, -10 1 1 0 1, -8 2 1 0 1, "
        "-4 0 1 0 2, -76 1 1 0 2, 156 2 1 0 2, -96 3 1 0 2, 24 4 1 0 2, -5 0 1 1 1, "
        "24 1 1 1 1, 16 0 1 1 2, 96 1 1 1 2, -96 2 1 1 2, 48 3 1 1 2, 6 1 1 2 2, 12 2 1 2 2, "
        "-3 0 1 3 2, -12 1 1 3 2, 4 0 2 0 1, -32 1 2 0 1, 8 0 2 1 1, -16 0 3 0 1",
        # P_6
        "3 1 0 0 1, -4 2 0 0 1, -31 1 0 0 2, 48 2 0 0 2, -30 3 0 0 2, 6 4 0 0 2, 9 1 0 0 3, "
        "-19 2 0 0 3, 10 3 0 0 3, 57 1 0 1 2, -87 2 0 1 2, 36 3 0 1 2, -24 1 0 1 3, "
        "37 2 0 1 3, -20 3 0 1 3, 8 4 0 1 3, -18 1 0 2 2, 36 2 0 2 2, 22 1 0 2 3, -33 2 0 2 3, "
        "26 3 0 2 3, -4 4 0 2 3, -8 1 0 3 3, 19 2 0 3 3, -8 3 0 3 3, 1 1 0 4 3, -4 2 0 4 3, "
        "3 0 1 0 1, -8 1 1 0 1, -4 0 1 0 2, -60 1 1 0 2, 72 2 1 0 2, -48 3 1 0 2, 9 0 1 1 2, "
        "-24 1 1 1 2, -24 2 1 1 2, 3 0 1 2 2, 36 1 1 2 2, -4 0 2 0 1, -33 0 2 0 2, 48 1 2 0 2, "
        "-48 2 2 0 2, -12 0 2 1 2, -48 1 2 1 2, 6 0 2 2 2",
        # P_7
        "-18 1 0 0 2, 27 2 0 0 2, -12 3 0 0 2, 4 1 0 0 3, -15 2 0 0 3, 12 1 0 1 2, "
        "-24 2 0 1 2, -35 1 0 1 3, 43 2 0 1 3, -44 3 0 1 3, 8 4 0 1 3, 23 1 0 2 3, "
        "-53 2 0 2 3, 24 3 0 2 3, -4 1 0 3 3, 16 2 0 3 3, -9 0 1 0 2, 18 1 1 0 2, 12 2 1 0 2, "
        "-1 0 1 0 3, 24 1 1 0 3, -74 2 1 0 3, 56 3 1 0 3, -16 4 1 0 3, 3 0 1 1 2, -36 1 1 1 2, "
        "-11 0 1 1 3, -42 1 1 1 3, 52 2 1 1 3, -32 3 1 1 3, -3 0 1 2 3, -6 1 1 2 3, "
        "-8 2 1 2 3, 3 0 1 3 3, 8 1 1 3 3, 48 1 2 0 2, -12 0 2 1 2, 24 0 3 0 2",
        # P_8
        "-3 1 0 0 2, 6 2 0 0 2, 17 1 0 0 3, -26 2 0 0 3, 18 3 0 0 3, -4 4 0 0 3, 1 2 0 0 4, "
        "-2 3 0 0 4, 1 4 0 0 4, -22 1 0 1 3, 49 2 0 1 3, -24 3 0 1 3, -4 2 0 1 4, 6 3 0 1 4, "
        "-2 4 0 1 4, 6 1 0 2 3, -24 2 0 2 3, 6 2 0 2 4, -6 3 0 2 4, 1 4 0 2 4, -4 2 0 3 4, "
        "2 3 0 3 4, 1 2 0 4 4, -3 0 1 0 2, 12 1 1 0 2, 5 0 1 0 3, 22 1 1 0 3, -36 2 1 0 3, "
        "32 3 1 0 3, 1 0 1 1 3, 20 1 1 1 3, 16 2 1 1 3, -5 0 1 2 3, -24 1 1 2 3, 6 0 2 0 2, "
        "10 0 2 0 3, -24 1 2 0 3, 32 2 2 0 3, 12 0 2 1 3, 32 1 2 1 3, -4 0 2 2 3",
        # P_9
        "7 1 0 0 3, -15 2 0 0 3, 8 3 0 0 3, -2 3 0 0 4, -4 1 0 1 3, 16 2 0 1 3, -7 2 0 1 4, "
        "10 3 0 1 4, -2 4 0 1 4, 11 2 0 2 4, -6 3 0 2 4, -4 2 0 3 4, 2 0 1 0 3, -14 1 1 0 3, "
        "-8 2 1 0 3, -2 1 1 0 4, 8 2 1 0 4, -12 3 1 0 4, 4 4 1 0 4, 1 0 1 1 3, 24 1 1 1 3, "
        "-1 0 1 1 4, 2 1 1 1 4, -10 2 1 1 4, 8 3 1 1 4, 2 0 1 2 4, 2 1 1 2 4, 2 2 1 2 4, "
        "-1 0 1 3 4, -2 1 1 3 4, -4 0 2 0 3, -32 1 2 0 3, 8 0 2 1 3, -16 0 3 0 3",
        # P_10
        "1 1 0 0 3, -4 2 0 0 3, 5 2 0 0 4, -4 3 0 0 4, 1 4 0 0 4, -10 2 0 1 4, 6 3 0 1 4, "
        "6 2 0 2 4, 1 0 1 0 3, -8 1 1 0 3, 1 0 1 0 4, 2 1 1 0 4, 6 2 1 0 4, -8 3 1 0 4, "
        "-3 0 1 1 4, -6 1 1 1 4, -4 2 1 1 4, 2 0 1 2 4, 6 1 1 2 4, -4 0 2 0 3, 3 0 2 0 4, "
        "4 1 2 0 4, -8 2 2 0 4, -4 0 2 1 4, -8 1 2 1 4, 1 0 2 2 4",
        # P_11
        "3 2 0 0 4, -2 3 0 0 4, -4 2 0 1 4, 1 0 1 0 4, 4 1 1 0 4, 2 2 1 0 4, -1 0 1 1 4, "
        "-6 1 1 1 4, 2 0 2 0 4, 8 1 2 0 4, -2 0 2 1 4, 4 0 3 0 4",
        # P_12
        "1 2 0 0 4, 2 1 1 0 4, 1 0 2 0 4",
    ),
}


def _parse(entry):
    """(variables, number of P_j, theta degree, highest exponent of each
    variable, monomials).  A monomial is its exponents with the (j, t, coef)
    of its terms."""
    names, *polys = entry
    monomials = {}
    for j, poly in enumerate(polys):
        for term in poly.split(","):
            coef, t, *exps = map(int, term.split())
            monomials.setdefault(tuple(exps), []).append((j, t, coef))
    degree = max(t for uses in monomials.values() for _, t, _ in uses)
    names = tuple(names.split())
    top = tuple(max(exps[k] for exps in monomials) for k in range(len(names)))
    monomials = tuple((exps, tuple(uses)) for exps, uses in monomials.items())
    return names, len(polys), degree, top, monomials


class _Plan:
    """An operator's recurrence row as a linear map of its monomials' values:
    one matrix row per coefficient of P_0(n+1), -P_1(n), -P_2(n-1), ...

    The matrix is held as Python integers, its nonzero entries row by row;
    its long double copy and the exponent array are made on first f64 use."""

    def __init__(self, names, top, exps, cols, factors, spans, width):
        self.names = names  # the variables
        self.top = top  # the highest exponent of each variable
        self.exps = exps  # per monomial, the exponent of each variable
        self.cols = cols  # the monomial of each nonzero entry, row by row
        self.gather = operator.itemgetter(*cols)  # the values at those monomials
        self.factors = factors  # the nonzero entries, row by row
        self.spans = spans  # per row, its (start, end) in factors
        self.width = width  # coefficients per polynomial: the theta degree + 1

    def times(self, values):
        """The matrix times the integer ``values`` of the monomials."""
        products = list(map(operator.mul, self.factors, self.gather(values)))
        return [sum(products[a:b]) for a, b in self.spans]

    def matrix(self):
        """The whole integer matrix, as a list of rows."""
        rows = []
        for a, b in self.spans:
            row = [0] * len(self.exps)
            for m, x in zip(self.cols[a:b], self.factors[a:b]):
                row[m] = x
            rows.append(row)
        return rows

    @functools.cached_property
    def wide(self):
        """The whole matrix in long double."""
        import numpy as np

        return np.array(self.matrix(), dtype=np.int64).astype(np.longdouble)

    @functools.cached_property
    def exps_array(self):
        """``exps`` as an integer array."""
        import numpy as np

        return np.array(self.exps)


@functools.cache
def _plan(entry):
    """Operator ``entry``'s row: the integer matrix that maps the values of
    its monomials to the coefficients of P_0(n+1), -P_1(n), -P_2(n-1), ...
    as polynomials in n, highest power first (each P_j Taylor-shifted by
    1 - j).  Both backends evaluate this one matrix.  The cache is keyed on
    the entry itself, so a replaced table gets a plan of its own."""
    names, size, degree, top, monomials = _parse(entry)
    width = degree + 1
    # (n + s)^t = sum_l C(t, l) s^l n^(t-l), n^(t-l) at row offset degree - t + l
    shift = [[[(degree - t + l, math.comb(t, l) * (1 - j) ** l) for l in range(t + 1)]
              for t in range(width)] for j in range(size)]
    rows = [{} for _ in range(size * width)]  # per row, monomial -> entry
    for m, (_, uses) in enumerate(monomials):
        for j, t, coef in uses:
            coef = -coef if j else coef
            for r, x in shift[j][t]:
                if x:
                    row = rows[j * width + r]
                    row[m] = row.get(m, 0) + coef * x
    cols, factors, spans = [], [], []
    for row in rows:  # monomials enter each row in increasing order
        start = len(factors)
        for m, x in row.items():
            if x:
                cols.append(m)
                factors.append(x)
        spans.append((start, len(factors)))
    exps = tuple(exps for exps, _ in monomials)
    return _Plan(names, top, exps, tuple(cols), tuple(factors), tuple(spans), width)


def _int_parts(x):
    """A Gaussian rational x as (re, im, q) with integers re, im, q > 0 and
    x = (re + im i) / q."""
    q = math.lcm(x.re.denominator, x.im.denominator)
    return x.re.numerator * (q // x.re.denominator), x.im.numerator * (q // x.im.denominator), q


def _trim(coeffs):
    """A polynomial, highest power first, without leading zeros; zero is (0,)."""
    k = 0
    while k < len(coeffs) - 1 and not coeffs[k]:
        k += 1
    return tuple(coeffs[k:])


def _integer_rows(name, values) -> tuple:
    """Operator ``name`` at exact ``values`` as the exact engine's integer
    row ``(den, terms)``: den is P_0(n+1), entry i's numerator -P_{i+1}(n-i),
    each a pair (real part, imaginary part) of integer polynomials in n.

    Each parameter is an integer, or a Gaussian integer, over its
    denominator q.  Scaled by prod q^E over the variables (highest exponent
    E), every monomial value is a Gaussian integer; its real and imaginary
    parts go through the plan's matrix (the imaginary ones only when some
    is nonzero), and the rows are divided by their content."""
    plan = _plan(_OPERATORS[name])
    powers = []  # per variable, x^e q^(E-e) for e = 0 .. E, as (re, im)
    for (r, i, q), E in zip((_int_parts(values[x]) for x in plan.names), plan.top):
        pw, xr, xi = [], 1, 0
        for e in range(E + 1):
            pw.append((xr * q ** (E - e), xi * q ** (E - e)))
            xr, xi = xr * r - xi * i, xr * i + xi * r
        powers.append(pw)
    re, im = [], []
    for exps in plan.exps:
        xr, xi = 1, 0
        for pw, e in zip(powers, exps):
            yr, yi = pw[e]
            xr, xi = xr * yr - xi * yi, xr * yi + xi * yr
        re.append(xr)
        im.append(xi)
    re = plan.times(re)
    im = plan.times(im) if any(im) else [0] * len(re)
    g = math.gcd(*re, *im)  # the content
    if g > 1:
        re, im = [x // g for x in re], [x // g for x in im]
    w = plan.width
    den, *nums = [(_trim(re[k:k + w]), _trim(im[k:k + w])) for k in range(0, len(re), w)]
    return den, tuple((i, num) for i, num in enumerate(nums) if num != ((0,), (0,)))


def _float_polys(name, values):
    """The row polynomials of operator ``name`` at f64 ``values``: the
    coefficients of P_0(n+1), -P_1(n), -P_2(n-1), ... in n, highest power
    first, as the one set of a read-only (1, k+2, degree+1) long double
    array (complex only when a parameter is).  A coefficient rounded to
    double would repeat one error at every step, which forward-unstable
    recurrences amplify.  In x87 long double (64-bit significand), every row
    entry comes out as its correctly rounded double but for rare near-ties;
    where long double is no wider than double, the arithmetic is double's."""
    import numpy as np

    plan = _plan(_OPERATORS[name])
    xs = [values[x] for x in plan.names]
    if any(x.imag for x in xs):
        x = np.array(xs, dtype=np.clongdouble)
    else:
        x = np.array([x.real for x in xs], dtype=np.longdouble)
    # numpy raises to a small integer power by repeated products, also in complex
    polys = (plan.wide @ (x**plan.exps_array).prod(axis=1)).reshape(1, -1, plan.width)
    polys.flags.writeable = False
    return polys


def _arcsin_M_interleaved(info, params, bk):
    """arcsin-M or arccos-M in f64: coupled first-order recurrences behind
    the product, stepped as one order-11 recurrence.

    With s = arcsin(pz) or arccos(pz) and m = M(a,c;z), the sequences are
    the coefficients of y1 = s m and y2 = s m', and w3 and w4, the
    coefficients of s' m and s' m' divided by n + 1; entry n of y1, w3, y2,
    w4 is at stream index 4n, 4n + 1, 4n + 2, 4n + 3, and entries at
    negative index are 0.  For n >= 1:

        y1[n] = y2[n-1]/n + w3[n-1]
        w3[n] = (n w4[n-1] + p^2 (n-1)^2 w3[n-2] - p^2 (n-2) w4[n-3]) / (n (n+1))
        y2[n] = (a y1[n] + n w4[n-1] + y2[n-1]) / (n+c)
        w4[n] = (a (n+1) w3[n] + n w4[n-1] + p^2 (n+c-1)(n-1) w4[n-2]
                 - a p^2 (n-1) w3[n-2] - p^2 (n-2) w4[n-3]) / ((n+1)(n+c))

    They follow from (1 - p^2 z^2) s'' = p^2 z s' and z m'' = (z - c) m' + a m,
    whose only singularities are 0 and +-1/p, whereas the order-11 scalar
    recurrence also carries the apparent singularities of the product ODE.
    Each row entry is one of these scalar factors, so an entry near the float
    range is never scaled up by n on the way; and s' m and s' m' are about
    n times the product, so they are carried divided by n + 1, and leave
    double no sooner than u_n does.

    The step that writes entry n of sequence j has stream index
    m = 4n + j - 1, and its term at lag i reads stream entry m - i.  Times
    4 (y1, y2) or 16 (w3, w4), with 4n = m + 1 - j, its denominator is 4n,
    16 n (n + 1), 4 (n + c) or 16 (n + 1)(n + c), and its numerators are
    constants or p^2 times forms in m of degree at most 2: one set of
    polynomials (P_0, then lags 0 .. 11, as (m^2, m, 1) coefficients) per
    sequence.  The spec's seeds are the four entries at n = 0, stream
    entries 0 .. 3 (w3 and w4 equal s' m and s' m' there); P_0 never
    vanishes past them.
    """
    import numpy as np

    from .recurrence_core import RecurrenceSpec

    a, c, p = params.a, params.c, params.p
    s0, g0 = _h01(info.h, p, bk)
    x = np.array([a, c, p], dtype=np.clongdouble)
    if not x.imag.any():
        x = x.real.copy()
    A, C, p2 = x[0], x[1], x[2] * x[2]
    P = np.zeros((4, 13, 3), dtype=x.dtype)
    P[0, 0], P[0, 2], P[0, 3] = (0, 1, 1), (0, 0, 4), (0, 1, 1)
    P[1, 0], P[1, 2] = (1, 4, 0), (0, 4, 0)
    P[1, 8], P[1, 10] = (p2, -8 * p2, 16 * p2), (0, -4 * p2, 32 * p2)
    P[2, 0], P[2, 2], P[2, 3], P[2, 4] = (0, 1, 4 * C - 1), (0, 0, 4 * A), (0, 1, -1), (0, 0, 4)
    P[3, 0], P[3, 2], P[3, 4] = (1, 4 * C, 8 * C - 4), (0, 4 * A, 8 * A), (0, 4, -8)
    P[3, 8] = (p2, p2 * (4 * C - 12), p2 * (36 - 24 * C))
    P[3, 10], P[3, 12] = (0, -4 * A * p2, 24 * A * p2), (0, -4 * p2, 40 * p2)
    P.flags.writeable = False
    return RecurrenceSpec(11, (s0, g0, s0 * a / c, g0 * a / c), P, bk.name)


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
    pi = [name for name in info.param_names if isinstance(getattr(params, name), PiLinear)]
    if pi:
        raise ParameterDomainError(
            f"family {info.id}: parameter {pi[0]} carries pi; the tables take Gaussian rationals"
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


def params_snapshot(params: Params):
    """(name, formatted value) for every parameter that is set."""
    return tuple(
        (name, format_scalar(getattr(params, name))) for name in params.present()
    )


#: the operator behind each elementary kind, per base table (M or F)
_TABLE = {
    "exp": "exp", "binom": "binom", "exp_arctan": "arctanexp",
    "sin": "sin", "cos": "sin", "sinh": "sin", "cosh": "sin",
    "arcsin": "arcsin", "arccos": "arcsin",
}
_SECOND_ORDER = ("sin", "cos", "sinh", "cosh", "arcsin", "arccos")


def _table(h, base):
    return f"{_TABLE[h]}-{'M' if base == 'M' else 'F'}"


def _order(name):
    """The recurrence order of operator ``name``: its number of P_j minus 2."""
    return len(_OPERATORS[name]) - 3  # the first entry names the variables


def _values(info, params, bk):
    """The table variables of a family: a, b, c (the F table's fixed values
    for K and E), p, theta, and for the sin and arcsin tables w, the signed
    square of the frequency (-p^2 for sinh and cosh)."""
    if info.base in _ELLIPTIC_ABC:
        a, b, c = (bk.coerce(x) for x in _ELLIPTIC_ABC[info.base])
    else:
        a, b, c = params.a, params.b, params.c
    values = {"a": a, "b": b, "c": c, "p": params.p, "theta": params.theta}
    if info.h in _SECOND_ORDER:
        w = params.p * params.p
        values["w"] = -w if info.h in ("sinh", "cosh") else w
    return values


def _h01(h, p, bk):
    """The first two Maclaurin coefficients h_0, h_1 of a second-order h."""
    return {
        "sin": (bk.zero(), p), "sinh": (bk.zero(), p), "arcsin": (bk.zero(), p),
        "cos": (bk.one(), bk.zero()), "cosh": (bk.one(), bk.zero()),
        "arccos": (bk.half_pi(), -p),
    }[h]


def _seeds(info, values, bk):
    """u_0, and for a second-order h u_1 = h_1 + h_0 m_1: the table steps the rest."""
    if info.h not in _SECOND_ORDER:
        return [bk.one()]
    h0, h1 = _h01(info.h, values["p"], bk)
    m1 = values["a"] * (values["b"] if info.base != "M" else 1) / values["c"]
    return [h0, h1 + h0 * m1]


def _spec(info, bk, name, values, seeds):
    """A single recurrence from operator ``name`` at ``values``, seeded with
    the catalogue's u_0 (u_1); K and E seeds carry pi/2."""
    from .recurrence_core import RecurrenceSpec

    if info.base in _ELLIPTIC_ABC:
        seeds = [bk.half_pi() * bk.coerce(s) for s in seeds]
    polys = _integer_rows(name, values) if bk.name == "exact" else _float_polys(name, values)
    return RecurrenceSpec(_order(name), tuple(bk.coerce(s) for s in seeds), polys, bk.name)


def _mk_single(info, params, bk):
    """The family's own table, stepped from its u_0 (u_1)."""
    values = _values(info, params, bk)
    name = _table(info.h, info.base)
    return _spec(info, bk, name, values, _seeds(info, values, bk))


def _exp_spec(info, params, bk, p):
    """The base's exp-X recurrence at frequency p."""
    values = dict(_values(info, params, bk), p=p)
    name = _table("exp", info.base)
    return _spec(info, bk, name, values, [bk.one()])


#: how the branches exp(+-pz) (sinh, cosh) or exp(+-ipz) (sin, cos) combine
_COMBINER = {"sinh": "(u-v)/2", "cosh": "(u+v)/2", "sin": "(u-v)/(2i)", "cos": "(u+v)/2"}


def _mk_branches(info, params, bk):
    """A sin/cos/sinh/cosh product as the exp-X product at +q and at -q,
    combined entrywise: q = ip for sin and cos, q = p for sinh and cosh.

    For sin and cos at real parameters the branch at -ip is the complex
    conjugate of the one at +ip, so the combo carries that one branch alone
    (its right branch None), and the run steps it."""
    from .recurrence_core import ComboSpec

    combiner = _COMBINER[info.h]
    trig = info.h in ("sin", "cos")
    q = bk.imaginary_unit() * params.p if trig else params.p
    left = _exp_spec(info, params, bk, q)
    values = [getattr(params, name) for name in params.present()]
    if trig and all(x == x.conjugate() for x in values):
        return ComboSpec(left, None, combiner)
    return ComboSpec(left, _exp_spec(info, params, bk, -q), combiner)


def _binomial(info, params, bk):
    """binom-X in f64 as the exp-X recurrence at p = 0 (the base series b),
    whose stream the run convolves with the coefficients of
    (1 - theta z)^p: u_n = sum_{j <= n} C(p, j) (-theta)^j b_{n-j}.  At a
    nonnegative integer p, passed as an ``int``, the run forms only the
    min(p, N) + 1 nonzero ones it reads, so a huge p costs no more."""
    from .recurrence_core import RecurrenceSpec

    base = _exp_spec(info, params, bk, bk.zero())
    p = int(params.p.real) if _polynomial_power(params.p) else params.p
    return RecurrenceSpec(base.order, base.seeds, base.polys, base.backend,
                          binomial=(p, params.theta))


_TRIG_HYP = ("sin", "cos", "sinh", "cosh")


def _polynomial_power(p) -> bool:
    """Whether an f64 ``p`` is a nonnegative integer, where (1 - theta z)^p
    is a polynomial."""
    return not p.imag and p.real >= 0 and p.real.is_integer()


def _route(info, params, bk):
    """The spec of the formulation that serves a request.  This is the one
    place where that is decided:

    * a combo id: its exp-X branches (``ComboSpec``), in both backends;
    * an exact single: its own table (``RecurrenceSpec``);
    * f64 sin/cos/sinh/cosh: the exp-X branches, as for the combo ids;
    * f64 arcsin/arccos: the interleaved first-order system (four sets of polys);
    * f64 binom at a nonnegative integer p or at |theta| > 1: the base
      series convolved with the coefficients of (1 - theta z)^p
      (``binomial`` is (p, theta));
    * anything else: its own table.

    Forward stepping of the high-order single recurrences amplifies roundoff
    along their parasitic solutions (Gautschi, SIAM Rev. 1967), so in f64
    they would return wrong numbers without any error.  So would binom's
    order-2 table at |theta| > 1: at a nonnegative integer p the wanted
    solution is a polynomial times the base while the other one grows like
    theta^n, and at any other p the other one outgrows it by a power of n,
    so forward stepping loses the digits.  The exact backend steps every
    single id's own table.
    """
    f64 = bk.name == "f64"
    if info.formulation == "combo" or f64 and info.h in _TRIG_HYP:
        return _mk_branches(info, params, bk)
    if f64 and info.h in ("arcsin", "arccos"):
        return _arcsin_M_interleaved(info, params, bk)
    if f64 and info.h == "binom" and (_polynomial_power(params.p) or abs(params.theta) > 1):
        return _binomial(info, params, bk)
    return _mk_single(info, params, bk)


#: an id names its kind h by h itself, but for this one
_ID_NAME = {"exp_arctan": "arctanexp"}
#: the parameters of each base besides p (K and E fix a, b and c)
_BASE_PARAMS = {"M": ("a", "c"), "F": ("a", "b", "c"), "K": (), "E": ()}
#: the radius of h's series, where it is finite (``disc_radius`` computes it)
_H_RADIUS = {"binom": "1/|theta|", "arcsin": "1/|p|", "arccos": "1/|p|", "exp_arctan": "1"}
#: (h, formulation, bases) of each product, in catalogue order per base; the
#: combos are the kinds with a combiner, in its order
_PRODUCTS = (
    ("exp", "single", "MFKE"),
    *((h, "combo", "MF") for h in _COMBINER),
    ("binom", "single", "MFKE"),
    ("exp_arctan", "single", "MFKE"),
    *((h, "single", "MFKE") for h in _TRIG_HYP),
    ("arcsin", "single", "M"),
    ("arccos", "single", "M"),
)


def _family(base, h, formulation) -> FamilyInfo:
    """The catalogue row of h over ``base`` in ``formulation``.  Its order is
    its table's (the exp table's for a combo), and its radius the smaller of
    the base's (infinite for M, 1 otherwise) and h's.  c = 2 is excluded
    where the table has the factor c - 2: a second-order h's own table,
    over a base whose c is a parameter."""
    combo = formulation == "combo"
    names = _BASE_PARAMS[base] + ("p",) + (("theta",) if h == "binom" else ())
    radius = _H_RADIUS.get(h, "entire")
    if base != "M":
        radius = "1" if radius in ("entire", "1") else f"min(1,{radius})"
    return FamilyInfo(f"{_ID_NAME.get(h, h)}-{base}{'-combo' if combo else ''}", base, h,
                      formulation, _order(_table("exp" if combo else h, base)), radius, names,
                      "c" in names and not combo and h in _SECOND_ORDER)


_REGISTRY = {
    info.id: info
    for info in (_family(base, h, formulation)
                 for base in "MFKE" for h, formulation, bases in _PRODUCTS if base in bases)
}


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


def disc_radius(info: FamilyInfo, params: Params) -> float:
    """The radius of the disc where the family's series converges, at f64
    ``params``: the smaller of the base's (infinite for M, 1 for F, K and E)
    and the elementary factor's (1/|theta| for binom, 1/|p| for arcsin and
    arccos, 1 for arctanexp at p != 0, whose arctan branches at +-i, and
    infinite otherwise).  ``FamilyInfo.radius`` is its text.  binom at a
    nonnegative integer p is a polynomial times the base, so it has the
    base's radius there."""
    radius = math.inf if info.base == "M" else 1.0
    if info.h == "binom" and _polynomial_power(params.p):
        return radius
    if info.h in ("binom", "arcsin", "arccos"):
        t = abs(params.theta if info.h == "binom" else params.p)
        radius = min(radius, 1 / t if t else math.inf)
    elif info.h == "exp_arctan" and params.p:
        radius = min(radius, 1.0)
    return radius


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
    return _route(info, pp, bk)


def _resolve_id(base: str, h: str, formulation: str) -> str:
    token = _ID_NAME.get(h, h)
    if token not in {family_id.partition("-")[0] for family_id in _REGISTRY}:
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


"""Derive the nine product operators behind the catalogue from their ODEs.

Development tool; needs sympy, which macprod itself does not depend on.

    PYTHONPATH=src python scripts/derive_operators.py                 # check all
    PYTHONPATH=src python scripts/derive_operators.py --only sin-F    # check one
    PYTHONPATH=src python scripts/derive_operators.py --emit          # print tables

Each product y = h m pairs an elementary factor h with a base m.  h solves a
first-order ODE (exp, binom, arctanexp) or a second-order one (sin, arcsin),
and m solves Kummer's equation z m'' + (c - z) m' - a m = 0 (base M) or
Gauss's equation z (1 - z) m'' + (c - (a + b + 1) z) m' - a b m = 0 (base F).
y lies in the span of the products h^(i) m^(j) over the rational functions
in z, so y, y', ... are linearly dependent there (D-finite closure; Stanley
1980; Salvy & Zimmermann, GFUN, 1994).  The dependency, cleared of
denominators and content and multiplied by the least power of z that makes
it polynomial, is an operator sum_j z^j P_j(theta) in the Euler operator
theta = z d/dz.  Its z^(n+1) coefficient gives

    P_0(n+1) u[n+1] = -sum_i P_{i+1}(n-i) u[n-i],

so row entry i is -P_{i+1}(n-i) / P_0(n+1), with u at negative indices 0.

Two operators serve more than their own product: cos(pz) solves the ODE of
sin(pz), so cos shares the sin tables, and sinh/cosh use them at w = -p^2;
arccos(pz) = pi/2 - arcsin(pz) solves the ODE of arcsin(pz).  The sin and
arcsin tables are written in w (w = p^2 for arcsin), the only way p enters
their ODEs.

The check (the default) derives each operator and compares it, polynomial by
polynomial, with ``families._OPERATORS``.  It then checks the paper's
closed-form seeds: every seed past u_0 (first-order h) or u_1 (second-order
h) must satisfy the table's recurrence symbolically, which is why the
program keeps only u_0 and u_1 and steps the table to its start index.
Finally it compares the rows of a built exact spec with the derived rows at
one rational point.  It never uses the convolution oracle.  ``--emit``
prints the ``_OPERATORS`` literal instead.  Exit status: 0 when everything
agrees, 1 otherwise.  Each operator's derivation time is printed.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction

import sympy as sp

z, T, n = sp.symbols("z theta_op n")
a, b, c, p, th, w = sp.symbols("a b c p theta w")

#: base -> (beta0, beta1) with m'' = beta1 m' + beta0 m, and its table variables
BASES = {
    "M": ((a / z, (z - c) / z), (a, c)),
    "F": ((a * b / (z * (1 - z)), ((a + b + 1) * z - c) / (z * (1 - z))), (a, b, c)),
}

#: elementary kind -> (alphas, variables) with h^(r) = sum_k alphas[k] h^(k)
ELEMENTARY = {
    "exp": ((p,), (p,)),
    "binom": ((-p * th / (1 - th * z),), (p, th)),
    "arctanexp": ((-p / (1 + z**2),), (p,)),
    "sin": ((-w, 0), (w,)),
    "arcsin": ((0, w * z / (1 - w * z**2)), (w,)),
}

#: the nine operators, in the order of ``families._OPERATORS``
OPERATORS = (
    "exp-M", "exp-F", "binom-M", "binom-F", "arctanexp-M", "arctanexp-F",
    "sin-M", "sin-F", "arcsin-M",
)

#: table variable -> its name in families (theta is the binomial's parameter)
NAMES = {a: "a", b: "b", c: "c", p: "p", th: "theta", w: "w"}


def _falling(x, k):
    out = sp.Integer(1)
    for i in range(k):
        out *= x - i
    return out


def variables(name):
    h, base = name.split("-")
    return BASES[base][1] + ELEMENTARY[h][1]


def derive(name):
    """The P_j(theta), j = 0.., of one product ODE, as expanded sympy expressions."""
    h, base = name.split("-")
    (beta0, beta1), _ = BASES[base]
    alphas, _ = ELEMENTARY[h]
    r = len(alphas)
    basis = [(i, j) for i in range(r) for j in range(2)]  # h^(i) m^(j)
    index = {e: k for k, e in enumerate(basis)}
    A = sp.zeros(len(basis), len(basis))  # (h^(i) m^(j))' = row of A . basis
    for (i, j), row in index.items():
        if i + 1 < r:
            A[row, index[i + 1, j]] += 1
        else:
            for k, alpha in enumerate(alphas):
                A[row, index[k, j]] += alpha
        if j == 0:
            A[row, index[i, 1]] += 1
        else:
            A[row, index[i, 1]] += beta1
            A[row, index[i, 0]] += beta0
    rows = [sp.Matrix([[1] + [0] * (len(basis) - 1)])]  # y^(k) = rows[k] . basis
    for _ in range(len(basis)):
        rows.append((rows[-1].diff(z) + rows[-1] * A).applyfunc(sp.cancel))
    (kernel,) = sp.Matrix.vstack(*rows).T.nullspace()
    kernel = [sp.cancel(x) for x in kernel]
    den = sp.lcm([sp.fraction(x)[1] for x in kernel])
    coeffs = [sp.cancel(x * den) for x in kernel]
    content = sp.gcd_list(coeffs)
    coeffs = [sp.Poly(sp.cancel(x / content), z) for x in coeffs]
    # sum_k C_k(z) D^k = z^-s sum_k C_k(z) z^(s-k) theta (theta-1) ... (theta-k+1)
    shift = max(k - min(e for (e,) in C.monoms()) for k, C in enumerate(coeffs) if not C.is_zero)
    P = {}
    for k, C in enumerate(coeffs):
        for (e,), co in C.terms():
            j = e - k + shift
            P[j] = P.get(j, 0) + co * _falling(T, k)
    P = [sp.expand(P.get(j, 0)) for j in range(max(P) + 1)]
    if r == 1:  # scale P_0 to the catalogue's row denominator at theta = n + 1
        lead = T * (T + c - 1)
    else:
        lead = c * (c - 2) * T * (T - 1) * (T + c - 2) * (T + c - 1)
    ratio = sp.cancel(P[0] / lead)
    if not ratio.is_number:
        raise AssertionError(f"{name}: unexpected P_0 {sp.factor(P[0])}")
    return [sp.expand(Pj / ratio) for Pj in P]


def operator_terms(name, P):
    """Per P_j, its terms (coef, t, e_1, ...): coef theta^t prod_k x_k^(e_k)."""
    table = []
    for Pj in P:
        terms = [
            (int(co), *exps) for exps, co in sp.Poly(Pj, T, *variables(name)).terms()
        ]
        table.append(tuple(sorted(terms, key=lambda x: (x[2:], x[1]))))
    return table


def _wrap(items, indent, width):
    lines, piece = [], ""
    for k, item in enumerate(items):
        item += ", " if k + 1 < len(items) else ""
        if piece and len(indent) + len(piece) + len(item.rstrip()) + 3 > width:
            lines.append(f'{indent}"{piece}"')
            piece = ""
        piece += item
    lines.append(f'{indent}"{piece}",')
    return lines


def emit(tables, width: int = 96) -> str:
    """The tables as families.py spells them: per operator its variable
    names, then one string of "coef t e_1 e_2 ..." terms per P_j."""
    lines = ["_OPERATORS = {"]
    for name, table in tables.items():
        names = " ".join(NAMES[x] for x in variables(name))
        lines.append(f'    "{name}": (')
        lines.append(f'        "{names}",')
        for j, terms in enumerate(table):
            lines.append(f"        # P_{j}")
            lines += _wrap([" ".join(map(str, term)) for term in terms], " " * 8, width)
        lines.append("    ),")
    lines.append("}")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# the paper's closed-form seeds u_0 .. u_start
# ---------------------------------------------------------------------------


def _R(x, m):
    return sp.rf(x, m)


def _seeds_M():
    R = _R
    p3, p5, p7, p9, p11 = (p**k for k in (3, 5, 7, 9, 11))
    exp = [1, a / c + p]
    binom = [1, a / c - th * p,
             ((a * a + a) / (c * c + c) - 2 * a * th * p / c + th * th * (p - 1) * p) / 2]
    arctanexp = [
        1,
        a / c - p,
        ((a * a + a) / (c * c + c) - 2 * a * p / c + p * p) / 2,
        (3 * a * p * p / c - 3 * a * (a + 1) * p / (c * (c + 1))
         + a * (a + 1) * (a + 2) / (c * (c + 1) * (c + 2)) - p**3 + 2 * p) / 6,
        (6 * a * (a + 1) * (c + 2) * (c + 3) * p * p
         - 4 * a * (c + 1) * (c + 2) * (c + 3) * (p * p - 2) * p
         - 4 * a * (a + 1) * (a + 2) * (c + 3) * p
         + a * (a + 1) * (a + 2) * (a + 3)
         + c * (c + 1) * (c + 2) * (c + 3) * (p * p - 8) * p * p)
        / (24 * c * (c + 1) * (c + 2) * (c + 3)),
    ]
    q3, q5 = p * w, p * w * w  # sin at w = p^2, sinh at w = -p^2
    sin = [
        0, p, a * p / c,
        a * (a + 1) * p / (2 * c * (c + 1)) - q3 / 6,
        R(a, 3) * p / (6 * R(c, 3)) - a * q3 / (6 * c),
        -R(a, 2) * q3 / (12 * R(c, 2)) + R(a, 4) * p / (24 * R(c, 4)) + q5 / 120,
    ]
    cos = [
        1, a / c,
        ((a * a + a) / (c * c + c) - w) / 2,
        a * ((a + 1) * (a + 2) / ((c + 1) * (c + 2)) - 3 * w) / (6 * c),
        (-6 * a * (a + 1) * w / (c * (c + 1)) + R(a, 4) / R(c, 4) + w * w) / 24,
        a * (-10 * (a + 1) * (a + 2) * w / ((c + 1) * (c + 2))
             + R(a + 1, 4) / R(c + 1, 4) + 5 * w * w) / (120 * c),
    ]
    arcsin = [
        0, p, a * p / c,
        a * (a + 1) * p / (2 * c * (c + 1)) + p3 / 6,
        a * p3 / (6 * c) + R(a, 3) * p / (6 * R(c, 3)),
        R(a, 2) * p3 / (12 * R(c, 2)) + R(a, 4) * p / (24 * R(c, 4)) + 3 * p5 / 40,
        3 * a * p5 / (40 * c) + R(a, 3) * p3 / (36 * R(c, 3)) + R(a, 5) * p / (120 * R(c, 5)),
        3 * R(a, 2) * p5 / (80 * R(c, 2)) + R(a, 4) * p3 / (144 * R(c, 4))
        + R(a, 6) * p / (720 * R(c, 6)) + 5 * p7 / 112,
        5 * a * p7 / (112 * c) + R(a, 3) * p5 / (80 * R(c, 3))
        + R(a, 5) * p3 / (720 * R(c, 5)) + R(a, 7) * p / (5040 * R(c, 7)),
        5 * R(a, 2) * p7 / (224 * R(c, 2)) + R(a, 4) * p5 / (320 * R(c, 4))
        + R(a, 6) * p3 / (4320 * R(c, 6)) + R(a, 8) * p / (40320 * R(c, 8)) + 35 * p9 / 1152,
        35 * a * p9 / (1152 * c) + 5 * R(a, 3) * p7 / (672 * R(c, 3))
        + R(a, 5) * p5 / (1600 * R(c, 5)) + R(a, 7) * p3 / (30240 * R(c, 7))
        + R(a, 9) * p / (362880 * R(c, 9)),
        35 * R(a, 2) * p9 / (2304 * R(c, 2)) + 5 * R(a, 4) * p7 / (2688 * R(c, 4))
        + R(a, 6) * p5 / (9600 * R(c, 6)) + R(a, 8) * p3 / (241920 * R(c, 8))
        + R(a, 10) * p / (3628800 * R(c, 10)) + 63 * p11 / 2816,
    ]
    pi = sp.pi
    arccos = [
        pi / 2,
        pi * a / (2 * c) - p,
        pi * R(a, 2) / (4 * R(c, 2)) - a * p / c,
        -R(a, 2) * p / (2 * R(c, 2)) + pi * R(a, 3) / (12 * R(c, 3)) - p3 / 6,
        -a * p3 / (6 * c) - R(a, 3) * p / (6 * R(c, 3)) + pi * R(a, 4) / (48 * R(c, 4)),
        -R(a, 2) * p3 / (12 * R(c, 2)) - R(a, 4) * p / (24 * R(c, 4))
        + pi * R(a, 5) / (240 * R(c, 5)) - 3 * p5 / 40,
        -3 * a * p5 / (40 * c) - R(a, 3) * p3 / (36 * R(c, 3)) - R(a, 5) * p / (120 * R(c, 5))
        + pi * R(a, 6) / (1440 * R(c, 6)),
        -3 * R(a, 2) * p5 / (80 * R(c, 2)) - R(a, 4) * p3 / (144 * R(c, 4))
        - R(a, 6) * p / (720 * R(c, 6)) + pi * R(a, 7) / (10080 * R(c, 7)) - 5 * p7 / 112,
        -5 * a * p7 / (112 * c) - R(a, 3) * p5 / (80 * R(c, 3)) - R(a, 5) * p3 / (720 * R(c, 5))
        - R(a, 7) * p / (5040 * R(c, 7)) + pi * R(a, 8) / (80640 * R(c, 8)),
        -5 * R(a, 2) * p7 / (224 * R(c, 2)) - R(a, 4) * p5 / (320 * R(c, 4))
        - R(a, 6) * p3 / (4320 * R(c, 6)) - R(a, 8) * p / (40320 * R(c, 8))
        + pi * R(a, 9) / (725760 * R(c, 9)) - 35 * p9 / 1152,
        -35 * a * p9 / (1152 * c) - 5 * R(a, 3) * p7 / (672 * R(c, 3))
        - R(a, 5) * p5 / (1600 * R(c, 5)) - R(a, 7) * p3 / (30240 * R(c, 7))
        - R(a, 9) * p / (362880 * R(c, 9)) + pi * R(a, 10) / (7257600 * R(c, 10)),
        -35 * R(a, 2) * p9 / (2304 * R(c, 2)) - 5 * R(a, 4) * p7 / (2688 * R(c, 4))
        - R(a, 6) * p5 / (9600 * R(c, 6)) - R(a, 8) * p3 / (241920 * R(c, 8))
        - R(a, 10) * p / (3628800 * R(c, 10)) + pi * R(a, 11) / (79833600 * R(c, 11))
        - 63 * p11 / 2816,
    ]
    return {
        "exp-M": [exp], "binom-M": [binom], "arctanexp-M": [arctanexp],
        "sin-M": [sin, cos], "arcsin-M": [arcsin, arccos],
    }


def _seeds_F():
    R = _R

    def r(m):  # (a)_m (b)_m / (c)_m
        return R(a, m) * R(b, m) / R(c, m)

    exp = [1, a * b / c + p, r(2) / 2 + a * b * p / c + p * p / 2]
    binom = [1, a * b / c - th * p,
             -a * b * th * p / c + r(2) / 2 + th * th * (p - 1) * p / 2]
    arctanexp = [
        1,
        a * b / c - p,
        -a * b * p / c + r(2) / 2 + p * p / 2,
        a * b * p * p / (2 * c) - r(2) * p / 2 + r(3) / 6 + (p - p**3 / 2) / 3,
        (6 * r(2) * p * p - 4 * a * b * (p * p - 2) * p / c - 4 * r(3) * p + r(4)
         + p**4 - 8 * p * p) / 24,
    ]
    q = [p * w**k for k in range(5)]  # p^(2k+1) at w = p^2
    sin = [
        0, p, r(1) * p,
        r(2) * p / 2 - q[1] / 6,
        r(3) * p / 6 - r(1) * q[1] / 6,
        -r(2) * q[1] / 12 + r(4) * p / 24 + q[2] / 120,
        r(1) * q[2] / 120 - r(3) * q[1] / 36 + r(5) * p / 120,
        r(2) * q[2] / 240 - r(4) * q[1] / 144 + r(6) * p / 720 - q[3] / 5040,
        -r(1) * q[3] / 5040 + r(3) * q[2] / 720 - r(5) * q[1] / 720 + r(7) * p / 5040,
        -r(2) * q[3] / 10080 + r(4) * q[2] / 2880 - r(6) * q[1] / 4320 + r(8) * p / 40320
        + q[4] / 362880,
    ]
    e = [w**k for k in range(5)]  # p^(2k) at w = p^2
    cos = [
        1, r(1),
        r(2) / 2 - e[1] / 2,
        r(3) / 6 - r(1) * e[1] / 2,
        -r(2) * e[1] / 4 + r(4) / 24 + e[2] / 24,
        r(1) * e[2] / 24 - r(3) * e[1] / 12 + r(5) / 120,
        r(2) * e[2] / 48 - r(4) * e[1] / 48 + r(6) / 720 - e[3] / 720,
        -r(1) * e[3] / 720 + r(3) * e[2] / 144 - r(5) * e[1] / 240 + r(7) / 5040,
        -r(2) * e[3] / 1440 + r(4) * e[2] / 576 - r(6) * e[1] / 1440 + r(8) / 40320 + e[4] / 40320,
        r(1) * e[4] / 40320 - r(3) * e[3] / 4320 + r(5) * e[2] / 2880 - r(7) * e[1] / 10080
        + r(9) / 362880,
    ]
    return {"exp-F": [exp], "binom-F": [binom], "arctanexp-F": [arctanexp], "sin-F": [sin, cos]}


SEEDS = {**_seeds_M(), **_seeds_F()}


def check_seeds(name, P) -> list:
    """Seeds past u_0 (u_1) that do not satisfy the table's recurrence."""
    problems = []
    free = 1 if len(ELEMENTARY[name.split("-")[0]][0]) == 1 else 2
    for seeds in SEEDS[name]:
        seeds = [sp.sympify(s) for s in seeds]
        for m in range(free, len(seeds)):  # the z^m coefficient, u[m] on the left
            total = sum(
                P[j].subs(T, m - j) * seeds[m - j] for j in range(len(P)) if m - j >= 0
            )
            if name == "arcsin-M":
                total = total.subs(w, p**2)
            if sp.cancel(sp.together(total)) != 0:
                problems.append(f"{name}: seed u_{m} of {len(seeds)} breaks the recurrence")
    return problems


def check_table(name, P) -> list:
    """Mismatches between the derivation and the shipped table."""
    from macprod import families

    problems = []
    names, size, _, _, monomials = families._parse(families._OPERATORS[name])
    xs = variables(name)
    if names != tuple(NAMES[x] for x in xs):
        problems.append(f"{name}: table variables {names}")
    if size != len(P):
        problems.append(f"{name}: table has {size} polynomials, derivation {len(P)}")
    got = [sp.Integer(0)] * size
    for exps, uses in monomials:
        monomial = sp.Mul(*(x**e for x, e in zip(xs, exps)))
        for j, t, coef in uses:
            got[j] += coef * T**t * monomial
    for j, (Gj, Pj) in enumerate(zip(got, P)):
        if sp.expand(Gj - Pj) != 0:
            problems.append(f"{name}: P_{j} differs from the derivation")
    return problems


#: one rational point for the built-spec check; the F values give K and E nothing
POINT = {a: Fraction(2, 7), b: Fraction(-5, 3), c: Fraction(11, 4), p: Fraction(3, 5),
         th: Fraction(5, 3)}

#: a family id built from each operator
FAMILY = {
    "exp-M": "exp-M", "exp-F": "exp-F", "binom-M": "binom-M", "binom-F": "binom-F",
    "arctanexp-M": "arctanexp-M", "arctanexp-F": "arctanexp-F",
    "sin-M": "sinh-M", "sin-F": "sin-F", "arcsin-M": "arccos-M",
}


def check_rows(name, P) -> list:
    """Row entries of the built exact spec, its integer polynomials num_i(n)
    over den(n), against -P_{i+1}(n-i)/P_0(n+1)."""
    from macprod import families

    family = FAMILY[name]
    info = families.get_family(family)
    spec = families.build(family, {k: POINT[sp.Symbol(k)] for k in info.param_names})
    values = {x: sp.Rational(v.numerator, v.denominator) for x, v in POINT.items()}
    values[w] = -values[p] ** 2 if family.startswith("sinh") else values[p] ** 2
    den, terms = spec.polys
    nums = dict(terms)

    def at(poly, m):  # a pair (real part, imaginary part), highest power first
        re, im = (sp.Poly(list(part), T).eval(m) for part in poly)
        return re + sp.I * im

    problems = []
    for m in (spec.order, spec.order + 5, 40):  # n = k: the first row whose lags all reach u_0
        lead = P[0].subs(T, m + 1).subs(values)
        for i in range(spec.order + 1):
            entry = at(nums[i], m) / at(den, m) if i in nums else 0
            want = -P[i + 1].subs(T, m - i).subs(values) / lead
            if entry != want:
                problems.append(f"{family}: row entry {i} at n={m} differs from the derivation")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--emit", action="store_true", help="print the table literal")
    parser.add_argument("--only", action="append", choices=OPERATORS, help="one operator")
    args = parser.parse_args(argv)
    tables, problems = {}, []
    for name in args.only or OPERATORS:
        t0 = time.perf_counter()
        P = derive(name)
        took = time.perf_counter() - t0
        terms = sum(map(len, operator_terms(name, P)))
        print(f"{name}: derived in {took:.2f} s, {len(P)} polynomials, {terms} terms",
              file=sys.stderr)
        if args.emit:
            tables[name] = operator_terms(name, P)
            continue
        problems += check_table(name, P) + check_seeds(name, P) + check_rows(name, P)
    if args.emit:
        print(emit(tables))
        return 0
    for line in problems:
        print(line)
    print("every operator agrees with its derivation" if not problems else
          f"{len(problems)} mismatch(es)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

"""Reference coefficients from the defining series, and the output checks.

The references never call macprod.  Each product h(z) * B(z) is the Cauchy
product of two factor series generated here from their definitions:

* exact: Fractions, with a separate rational coefficient of pi, so a value
  is q0 + q1*pi.  Checks demand equality, never a tolerance.
* f64: factors in numpy longdouble, product by numpy convolution.  The
  float64 product is used only where its rounding bound is far below the
  tolerance; otherwise the convolution is redone in longdouble.

Checks run outside the timed loop.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

#: f64 metric |x - y| / max(1, |y|) <= TOLERANCE (macprod's DEFAULT_TOLERANCE)
TOLERANCE = 1e-8
#: largest rounding bound accepted for a float64 reference, relative to max(1, |y|)
_REF_ERROR = TOLERANCE / 100
_F64_MAX = np.finfo(np.float64).max
_EPS64 = np.finfo(np.float64).eps


def _cumprod(first, ratios):
    """[first, first*r0, first*r0*r1, ...]"""
    out = np.empty(len(ratios) + 1, dtype=ratios.dtype)
    out[0] = first
    out[1:] = ratios
    return np.multiply.accumulate(out)


def _factor(kind: str, params: dict, num, n):
    """h(z) at indices n = 0..N as (rational, pi) arrays; pi may be None."""
    p = num(params["p"])
    one = num(1)
    out = np.zeros(len(n), dtype=n.dtype)
    if kind == "exp":
        out = _cumprod(one, p / n[1:])
    elif kind in ("sin", "sinh", "arcsin", "arccos"):
        m = n[3::2]
        if kind == "sin":
            ratios = -p * p / ((m - 1) * m)
        elif kind == "sinh":
            ratios = p * p / ((m - 1) * m)
        else:
            # entry 2k+1 of arcsin(pz) is (2k)! p^(2k+1) / (4^k (k!)^2 (2k+1))
            ratios = p * p * (m - 2) * (m - 2) / ((m - 1) * m)
        if len(n) > 1:
            out[1::2] = _cumprod(p, ratios)
    elif kind in ("cos", "cosh"):
        m = n[2::2]
        sign = -1 if kind == "cos" else 1
        out[0::2] = _cumprod(one, sign * p * p / ((m - 1) * m))
    elif kind == "binom":
        # (1 - theta z)^p
        theta = num(params["theta"])
        m = n[:-1]
        out = _cumprod(one, (p - m) * (-theta) / (m + 1))
    elif kind == "exp_arctan":
        # g = exp(-p arctan z) solves (1 + z^2) g' = -p g, so
        # (n+1) g[n+1] = -p g[n] - (n-1) g[n-1]
        out[0] = one
        if len(n) > 1:
            out[1] = -p
        for k in range(1, len(n) - 1):
            out[k + 1] = (-p * out[k] - (k - 1) * out[k - 1]) / (k + 1)
    else:
        raise ValueError(f"unknown elementary kind {kind!r}")
    if kind == "arccos":
        # arccos(pz) = pi/2 - arcsin(pz)
        pi = np.zeros(len(n), dtype=n.dtype)
        pi[0] = one / 2
        return -out, pi
    return out, None


def _base(base: str, params: dict, num, n):
    """The hypergeometric factor at indices n = 0..N as (rational, pi) arrays."""
    one = num(1)
    if base in ("M", "F"):
        a, c = num(params["a"]), num(params["c"])
        b = num(params["b"]) if base == "F" else None
    else:
        # K(sqrt z) = (pi/2) F(1/2,1/2;1;z), E(sqrt z) = (pi/2) F(-1/2,1/2;1;z)
        a, b, c = (one / 2 if base == "K" else -one / 2), one / 2, one
    m = n[:-1]
    ratios = (a + m) / ((c + m) * (m + 1))
    if b is not None:
        ratios = ratios * (b + m)
    out = _cumprod(one, ratios)
    if base in ("K", "E"):
        return None, out / 2
    return out, None


def _parts(family, params: dict, N: int, exact: bool):
    if exact:
        num, n = Fraction, np.arange(N + 1, dtype=object)
    else:
        num, n = _longdouble, np.arange(N + 1, dtype=np.longdouble)
    return _factor(family.h, params, num, n), _base(family.base, params, num, n)


def exact_reference(family, params: dict, N: int):
    """(rational, pi) coefficient arrays of the product through z^N."""
    (h_rat, h_pi), (b_rat, b_pi) = _parts(family, params, N, exact=True)
    if h_pi is not None and b_pi is not None:
        raise ValueError("a pi^2 term is outside the q0 + q1*pi form")

    def conv(x, y):
        return np.convolve(x, y)[: N + 1]

    zeros = np.zeros(N + 1, dtype=object)
    rat = conv(h_rat, b_rat) if b_rat is not None else zeros
    if b_pi is not None:
        pi = conv(h_rat, b_pi)
    elif h_pi is not None:
        pi = conv(h_pi, b_rat)
    else:
        pi = zeros
    return rat, pi


def _longdouble(q: Fraction):
    return np.longdouble(q.numerator) / np.longdouble(q.denominator)


def _total(parts) -> np.ndarray:
    rat, pi = parts
    if pi is None:
        return rat
    total = pi * np.longdouble("3.14159265358979323846264338327950288")
    return total if rat is None else total + rat


def _f64_factors(family, params: dict, N: int):
    """Both factors in longdouble, each cut after its last entry that can matter.

    A dropped tail changes no product entry by more than 1e-20 in absolute
    terms, far below the check's 1e-8 * max(1, |y|); cutting it turns the
    O(N^2) product into O(N * L) when a factor decays (entire h, Kummer M).
    """
    h, b = _parts(family, params, N, exact=False)
    h, b = _total(h), _total(b)
    out = []
    for x, other in ((h, b), (b, h)):
        scale = np.max(np.abs(other)) * (N + 1)
        keep = np.nonzero(np.abs(x) * scale >= 1e-20)[0]
        out.append(x[: keep[-1] + 1] if len(keep) else x[:1])
    return out


def _product(h, b, N: int):
    y = np.convolve(h, b)[: N + 1]
    return np.concatenate([y, np.zeros(N + 1 - len(y), dtype=y.dtype)])


def finite_in_f64(family, params: dict, N: int) -> bool:
    """Whether every true coefficient 0..N of the product is finite in float64."""
    h, b = _f64_factors(family, params, N)
    if np.max(np.abs(h)) * np.max(np.abs(b)) * (N + 1) < _F64_MAX:
        return True  # no entry of the product can exceed this bound
    return bool(np.all(np.abs(_product(h, b, N)) < _F64_MAX))


def f64_reference(family, params: dict, N: int) -> np.ndarray:
    """float64 coefficients 0..N of the product (assumes finite_in_f64)."""
    h, b = _f64_factors(family, params, N)
    with np.errstate(all="ignore"):
        if max(np.max(np.abs(h)), np.max(np.abs(b))) < _F64_MAX:
            h64, b64 = h.astype(np.float64), b.astype(np.float64)
            y = _product(h64, b64, N)
            bound = _product(np.abs(h64), np.abs(b64), N) * (N + 3) * _EPS64
            if np.all(bound <= _REF_ERROR * np.maximum(1.0, np.abs(y))):
                return y
    return _product(h, b, N).astype(np.float64)


# ---------------------------------------------------------------------------
# output checks
# ---------------------------------------------------------------------------


def check_f64_table(doc, family_id: str, want: np.ndarray) -> bool:
    """A `coeffs --backend f64` document against the float64 reference."""
    try:
        recs = doc["coeffs"]
        if (doc["family"], doc["backend"]) != (family_id, "f64") or len(recs) != len(want):
            return False
        if any(r["n"] != n for n, r in enumerate(recs)):
            return False
        got = np.array([complex(r["re"], r["im"]) for r in recs])
    except (KeyError, TypeError, ValueError):
        return False
    with np.errstate(all="ignore"):
        err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    return bool(np.all(err <= TOLERANCE))


def check_exact_table(doc, family_id: str, want) -> bool:
    """A `coeffs --backend exact` document: every part equals the reference."""
    rat, pi = want
    try:
        recs = doc["coeffs"]
        if (doc["family"], doc["backend"]) != (family_id, "exact") or len(recs) != len(rat):
            return False
        return all(
            r["n"] == n
            and Fraction(r["re"]) == rat[n]
            and Fraction(r["im"]) == 0
            and Fraction(r["pi_re"]) == pi[n]
            and Fraction(r["pi_im"]) == 0
            for n, r in enumerate(recs)
        )
    except (KeyError, TypeError, ValueError, ZeroDivisionError):
        return False


def check_verify_report(doc, family_id: str, N: int, verdict: str) -> bool:
    """A `verify` report: right request echoed, verdict equal to the reference check's."""
    try:
        return (doc["family"], doc["N"], doc["backend"], doc["verdict"]) == (
            family_id,
            N,
            "f64",
            verdict,
        )
    except (KeyError, TypeError):
        return False


def self_test(catalogue) -> list:
    """Problems found when the checks are fed the reference and corruptions of it."""
    fams = {f.id: f for f in catalogue}
    problems = []

    exp_f = fams["exp-F"]
    params = {"a": Fraction(1, 3), "b": Fraction(2, 5), "c": Fraction(7, 4), "p": Fraction(1)}
    y = f64_reference(exp_f, params, 63)
    doc = {
        "family": exp_f.id,
        "backend": "f64",
        "coeffs": [{"n": n, "re": float(v), "im": 0.0} for n, v in enumerate(y)],
    }
    if not check_f64_table(doc, exp_f.id, y):
        problems.append("f64 check rejects the reference stream")
    n = int(np.argmax(np.abs(y)))
    doc["coeffs"][n]["re"] *= 1 + 1e-6
    if check_f64_table(doc, exp_f.id, y):
        problems.append("f64 check accepts an entry perturbed by 1e-6 relative")

    arccos_m = fams["arccos-M"]
    params = {"a": Fraction(-3, 4), "c": Fraction(7, 5), "p": Fraction(2, 3)}
    rat, pi = exact_reference(arccos_m, params, 12)

    def exact_doc():
        return {
            "family": arccos_m.id,
            "backend": "exact",
            "coeffs": [
                {"n": n, "re": str(q0), "im": "0", "pi_re": str(q1), "pi_im": "0"}
                for n, (q0, q1) in enumerate(zip(rat, pi))
            ],
        }

    if not check_exact_table(exact_doc(), arccos_m.id, (rat, pi)):
        problems.append("exact check rejects the reference stream")
    doc = exact_doc()
    q = rat[3]
    doc["coeffs"][3]["re"] = str(Fraction(q.numerator + 1, q.denominator))
    if check_exact_table(doc, arccos_m.id, (rat, pi)):
        problems.append("exact check accepts a numerator off by one")
    doc = exact_doc()
    doc["coeffs"][0]["pi_re"] = str(pi[0] + 1)
    if check_exact_table(doc, arccos_m.id, (rat, pi)):
        problems.append("exact check accepts a wrong pi part")

    report = {"family": "exp-F", "N": 1024, "backend": "f64", "verdict": "pass"}
    if not check_verify_report(report, "exp-F", 1024, "pass"):
        problems.append("verify check rejects a matching report")
    if check_verify_report(report, "exp-F", 1024, "fail"):
        problems.append("verify check accepts a report with the wrong verdict")
    return problems

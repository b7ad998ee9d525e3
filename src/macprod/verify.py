"""Referee: recurrence output vs the convolution oracle, and path timings.

This is the one module that imports both the recurrence path (``families``
and ``recurrence_core``) and the oracle (``series_oracle``).  The two share
only ``numerics`` and ``kernels``, of which the oracle uses ``convolve``
alone.

Exact-backend comparisons demand equality (the identities are algebraic, so
tolerance would only hide bugs); f64 comparisons use the relative metric
|x - y| / max(1, |y|) with the oracle value as y, which degrades to an
absolute bound where the oracle entry vanishes.

Exact comparisons run without numpy; the f64 comparison imports it.

Every report computation is a pure function, so distinct (family, params)
reports may be computed concurrently; sweeps emit reports in deterministic
catalogue order regardless.
"""

from __future__ import annotations

import time
from fractions import Fraction
from random import Random

from .families import (
    CatalogueError,
    Params,
    build,
    conform_params,
    get_family,
    list_families,
    params_snapshot,
)
from .numerics import (
    DEFAULT_TOLERANCE,
    EXACT,
    NonFiniteError,
    SingularIndexError,
    _set,
    _Value,
    approximate,
    get_backend,
)
from .recurrence_core import run
from .series_oracle import (
    ELLIPTIC_ABC,
    Elementary,
    cauchy_product,
    elementary_series,
    hyper_base_series,
    scale_stream,
)

#: combo-vs-single pairs and elliptic-vs-specialized-F pairs, by left id
_COMBO_PAIRS = {i.id: i.id.removesuffix("-combo") for i in list_families()
                if i.formulation == "combo"}
_ELLIPTIC_PAIRS = {i.id: i.id[:-1] + "F" for i in list_families() if i.base in ELLIPTIC_ABC}


class DeviationReport(_Value):
    """How far one stream lies from its reference, and the verdict."""

    __slots__ = ("family", "params", "N", "backend", "max_abs", "max_rel", "first_mismatch",
                 "verdict", "comparison")

    def __init__(self, family: str, params: tuple, N: int, backend: str, max_abs: float,
                 max_rel: float, first_mismatch: int | None, verdict: str,
                 comparison: str = "oracle"):
        _set(self, "family", family)
        _set(self, "params", params)
        _set(self, "N", N)
        _set(self, "backend", backend)
        _set(self, "max_abs", max_abs)
        _set(self, "max_rel", max_rel)
        _set(self, "first_mismatch", first_mismatch)
        _set(self, "verdict", verdict)  # "pass" | "fail"
        _set(self, "comparison", comparison)

    @property
    def passed(self) -> bool:
        return self.verdict == "pass"

    def to_dict(self) -> dict:
        return dict(zip(self.__slots__, self._fields()), params=dict(self.params))


class BenchReport(_Value):
    """The best wall time in seconds, over the repetitions, of the recurrence
    path and of the oracle path at one size."""

    __slots__ = ("family", "N", "repetitions", "recurrence_time", "oracle_time")

    def __init__(self, family: str, N: int, repetitions: int, recurrence_time: float,
                 oracle_time: float):
        _set(self, "family", family)
        _set(self, "N", N)
        _set(self, "repetitions", repetitions)
        _set(self, "recurrence_time", recurrence_time)
        _set(self, "oracle_time", oracle_time)

    @property
    def ratio(self) -> float:
        return self.oracle_time / self.recurrence_time

    def to_dict(self) -> dict:
        return dict(zip(self.__slots__, self._fields()), ratio=self.ratio)


def _compare_streams(got, want, backend, tolerance, family, params, comparison):
    """Deviation report for stream ``got`` against reference ``want``."""
    bk = get_backend(backend)
    N = len(want) - 1
    if bk is EXACT:
        max_abs = 0.0
        max_rel = 0.0
        first = None
        for n, (x, y) in enumerate(zip(got.coeffs, want.coeffs)):
            if x != y:
                if first is None:
                    first = n
                try:
                    dx = abs(approximate(x) - approximate(y))
                    max_rel = max(max_rel, dx / max(1.0, abs(approximate(y))))
                except NonFiniteError:
                    dx = float("inf")
                    max_rel = float("inf")
                max_abs = max(max_abs, dx)
        verdict = "pass" if first is None else "fail"
    else:
        import numpy as np

        m = min(len(got), len(want))
        x, y = got.coeffs[:m], want.coeffs[:m]
        with np.errstate(invalid="ignore", over="ignore"):
            dx = np.abs(x - y)
            rel = dx / np.maximum(1.0, np.abs(y))
        # a deviation that is not a number (inf - inf, inf / inf) is unbounded
        dx[np.isnan(dx)] = np.inf
        rel[np.isnan(rel)] = np.inf
        max_abs = float(dx.max())
        max_rel = float(rel.max())
        beyond = rel > tolerance
        first = int(np.argmax(beyond)) if beyond.any() else None
        verdict = "pass" if max_rel <= tolerance else "fail"
    return DeviationReport(
        family=family,
        params=params,
        N=N,
        backend=bk.name,
        max_abs=max_abs,
        max_rel=max_rel,
        first_mismatch=first,
        verdict=verdict,
        comparison=comparison,
    )


def elementary_factor(info, params: Params) -> Elementary:
    """The h(z) factor of a family, as the oracle describes it."""
    if info.h == "binom":
        return Elementary("binom", p=params.p, theta=params.theta)
    return Elementary(info.h, p=params.p)


def oracle_stream(family_id: str, params: Params, N: int, backend="exact"):
    """Independent product stream: h-series convolved with the base series."""
    bk = get_backend(backend)
    info = get_family(family_id)
    h = elementary_series(elementary_factor(info, params), N, bk)
    base = hyper_base_series(info.base, N, bk, a=params.a, b=params.b, c=params.c)
    return cauchy_product(h, base)


def recurrence_stream(family_id: str, params: Params, N: int, backend="exact"):
    return run(build(family_id, params, backend), N)


def compare_oracle(
    family_id: str,
    params,
    N: int,
    backend="exact",
    tolerance: float = DEFAULT_TOLERANCE,
) -> DeviationReport:
    """Run one family and compare it entrywise against the convolution oracle."""
    bk = get_backend(backend)
    spec = build(family_id, params, bk)  # validates params
    pp = conform_params(params, bk)
    got = run(spec, N)
    want = oracle_stream(family_id, pp, N, bk)
    return _compare_streams(
        got, want, bk, tolerance, family_id, params_snapshot(pp), "oracle"
    )


def compare_formulations(
    pairing: str,
    family_id: str,
    params,
    N: int,
    backend="exact",
    tolerance: float = DEFAULT_TOLERANCE,
) -> DeviationReport:
    """Compare two formulations of the same product.

    ``combo-vs-single`` pairs a combo id with its single-recurrence id;
    ``elliptic-vs-specialized-F`` pairs an elliptic id with pi/2 times the
    matching F family at the fixed elliptic parameters.
    """
    bk = get_backend(backend)
    if pairing == "combo-vs-single":
        try:
            other = _COMBO_PAIRS[family_id]
        except KeyError:
            raise CatalogueError(
                f"{family_id!r} has no combo-vs-single pairing"
            ) from None
        pp = conform_params(params, bk)
        got = recurrence_stream(family_id, pp, N, bk)
        want = recurrence_stream(other, pp, N, bk)
    elif pairing == "elliptic-vs-specialized-F":
        try:
            other = _ELLIPTIC_PAIRS[family_id]
        except KeyError:
            raise CatalogueError(
                f"{family_id!r} has no elliptic-vs-specialized-F pairing"
            ) from None
        info = get_family(family_id)
        pp = conform_params(params, bk)
        got = recurrence_stream(family_id, pp, N, bk)
        f_params = Params(*ELLIPTIC_ABC[info.base], p=pp.p, theta=pp.theta)
        f_stream = recurrence_stream(other, f_params, N, bk)
        want = scale_stream(f_stream, bk.half_pi())
    else:
        raise CatalogueError(f"unknown pairing {pairing!r}")
    return _compare_streams(
        got, want, bk, tolerance, family_id, params_snapshot(pp), pairing
    )


def bench(family_id: str, params, N: int, repetitions: int = 3) -> BenchReport:
    """Wall-time the recurrence path against the O(N^2) oracle path (f64)."""
    if repetitions < 1:
        raise ValueError("repetitions must be at least 1")
    bk = get_backend("f64")
    pp = conform_params(params, bk)
    # each path runs once untimed first (which also validates the request),
    # so no repetition times first use: loading the C loop, numpy's first calls
    recurrence_stream(family_id, pp, N, bk)
    oracle_stream(family_id, pp, N, bk)
    rec_best = float("inf")
    ora_best = float("inf")
    for _ in range(repetitions):
        t0 = time.perf_counter()
        recurrence_stream(family_id, pp, N, bk)
        rec_best = min(rec_best, time.perf_counter() - t0)
        t0 = time.perf_counter()
        oracle_stream(family_id, pp, N, bk)
        ora_best = min(ora_best, time.perf_counter() - t0)
    return BenchReport(
        family=family_id,
        N=N,
        repetitions=repetitions,
        recurrence_time=rec_best,
        oracle_time=ora_best,
    )


# ---------------------------------------------------------------------------
# deterministic random sweeps
# ---------------------------------------------------------------------------


def _draw_fraction(rng: Random, bound: int) -> Fraction:
    """num/den with |value| <= bound and 1 <= den <= 12, |num| <= 12."""
    den = rng.randint(1, 12)
    top = min(12, bound * den)
    return Fraction(rng.randint(-top, top), den)


def draw_params(info, rng: Random) -> Params:
    """One valid exact parameter draw for a family."""
    fields = {}
    for name in info.param_names:
        if name == "c":
            while True:
                c = _draw_fraction(rng, 12)
                if c.denominator == 1 and c <= 0:
                    continue
                if info.c_excludes_2 and c == 2:
                    continue
                fields["c"] = c
                break
        elif name in ("p", "theta"):
            fields[name] = _draw_fraction(rng, 2)
        else:
            fields[name] = _draw_fraction(rng, 12)
    return Params(**fields)


def sweep(
    seed: int,
    trials: int,
    N: int,
    backend="exact",
    tolerance: float = DEFAULT_TOLERANCE,
    families=None,
):
    """Deterministic random verification across the catalogue.

    Returns one report per (family, trial), in catalogue order.  Failures are
    reports with verdict "fail", never exceptions: a comparison whose run
    overflows or meets a singular row reports infinite deviation from the
    index where that happened.
    """
    bk = get_backend(backend)
    rng = Random(seed)
    infos = list_families() if families is None else [get_family(f) for f in families]
    reports = []
    for info in infos:
        for _ in range(trials):
            params = draw_params(info, rng)
            try:
                rep = compare_oracle(info.id, params, N, bk, tolerance)
            except (NonFiniteError, SingularIndexError) as exc:
                rep = DeviationReport(
                    family=info.id,
                    params=params_snapshot(conform_params(params, bk)),
                    N=N,
                    backend=bk.name,
                    max_abs=float("inf"),
                    max_rel=float("inf"),
                    first_mismatch=exc.index,
                    verdict="fail",
                )
            reports.append(rep)
    return reports

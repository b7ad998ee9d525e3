"""Command-line surface: coefficient tables, point evaluation, verification
sweeps, benchmarks, and the family catalogue.

Standard output carries data only (JSON, CSV, or plain scalars); every
diagnostic goes to standard error.  Exit codes: 0 success, 1 verification
finding, 2 validation or parse failure, 3 numeric failure.

numpy is imported where an f64 path begins (an f64 build, run, oracle,
comparison or output, and so ``eval`` and ``bench``), never at start-up:
``list``, ``--help``, validation errors and exact ``coeffs`` and ``verify``
run without it.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from dataclasses import replace

from . import verify as verify_mod
from .families import (
    CatalogueError,
    Params,
    build,
    get_family,
    list_families,
    params_snapshot,
)
from .numerics import (
    BackendMismatchError,
    NonFiniteError,
    ParameterDomainError,
    ParseError,
    PiLinear,
    SingularIndexError,
    format_scalar,
    fraction_text,
    get_backend,
    parse_scalar,
)
from .recurrence_core import run

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3

_PARAM_FLAGS = ("a", "b", "c", "p", "theta")


def _add_param_flags(sub):
    for name in _PARAM_FLAGS:
        sub.add_argument(
            f"--{name}",
            default=None,
            metavar="SCALAR",
            help=f"N, N/D or RE+IMi; write a negative value as --{name}=-3/4",
        )


def _parse_params(args, bk) -> Params:
    fields = {}
    for name in _PARAM_FLAGS:
        raw = getattr(args, name)
        fields[name] = None if raw is None else parse_scalar(raw, bk)
    return Params(**fields)


def _exact_texts(v) -> tuple:
    """The texts of an exact entry's parts: re, im, pi_re, pi_im."""
    if isinstance(v, PiLinear):
        q0, q1 = v.q0, v.q1
        return tuple(map(fraction_text, (q0.re, q0.im, q1.re, q1.im)))
    return fraction_text(v.re), fraction_text(v.im), "0", "0"


#: one coefficient record from its index n and the texts of its parts (re,
#: im, and for exact pi_re, pi_im), per (format, exact); JSON keys sorted
_RECORDS = {
    ("json", True): '{{"im":"{2}","n":{0},"pi_im":"{4}","pi_re":"{3}","re":"{1}"}}',
    ("json", False): '{{"im":{2},"n":{0},"re":{1}}}',
    ("csv", True): "{0},{1},{2},{3},{4}",
    ("csv", False): "{0},{1},{2}",
}


def _coeff_lines(coeffs, exact: bool, fmt: str) -> list:
    """One line of text per coefficient, written straight from its parts:
    exact parts as rational strings, f64 parts as ``repr`` of the float,
    which is also how ``json`` writes a finite float (a run never returns a
    non-finite entry: it raises instead)."""
    if exact:
        texts = map(_exact_texts, coeffs)
    else:
        texts = zip(map(repr, coeffs.real.tolist()), map(repr, coeffs.imag.tolist()))
    record = _RECORDS[fmt, exact].format
    return [record(n, *parts) for n, parts in enumerate(texts)]


def _normalized(coeffs, bk):
    """The stream divided by pi/2.  In f64 this is Python's complex division
    by (pi/2, 0), part by part, so every bit and zero sign matches it; numpy's
    complex division multiplies by a reciprocal instead."""
    half_pi = bk.half_pi()
    if bk.name == "exact":
        return tuple(v / half_pi for v in coeffs)
    import numpy as np

    out = np.empty_like(coeffs)
    out.real = (coeffs.real + coeffs.imag * 0.0) / half_pi.real
    out.imag = (coeffs.imag - coeffs.real * 0.0) / half_pi.real
    return out


def emit_json(doc) -> str:
    """Canonical one-line JSON (sorted keys, no spaces); byte-stable on round-trip."""
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


def cmd_coeffs(args) -> int:
    bk = get_backend(args.backend)
    info = get_family(args.family)
    if args.normalized and info.base not in ("K", "E"):
        raise ParameterDomainError(
            "--normalized applies only to the K and E families"
        )
    if args.count < 1:
        raise ParameterDomainError("--count must be at least 1")
    params = _parse_params(args, bk)
    stream = run(build(args.family, params, bk), args.count - 1)
    coeffs = _normalized(stream.coeffs, bk) if args.normalized else stream.coeffs
    exact = bk.name == "exact"
    lines = _coeff_lines(coeffs, exact, args.format)
    if args.format == "json":
        doc = {
            "family": info.id,
            "base": info.base,
            "params": dict(params_snapshot(params)),
            "backend": bk.name,
            "normalized": bool(args.normalized),
            "coeffs": [],
        }
        head, _, tail = emit_json(doc).partition('"coeffs":[]')
        sys.stdout.write(f'{head}"coeffs":[{",".join(lines)}]{tail}')
    else:
        cols = "n,re,im" + (",pi_re,pi_im" if exact else "")
        sys.stdout.write("\n".join([cols, *lines]) + "\n")
    return EXIT_OK


def _numeric_radius(info, params) -> float:
    """The disc radius as a number; "1/|theta|" and "1/|p|" read the f64 params."""
    if info.radius == "entire":
        return float("inf")
    if info.radius == "1":
        return 1.0
    t = abs(getattr(params, info.radius[3:-1]))
    return float("inf") if t == 0 else 1.0 / t


def cmd_eval(args) -> int:
    bk = get_backend("f64")
    info = get_family(args.family)
    if args.count < 0:
        raise ParameterDomainError("--count must be nonnegative")
    params = _parse_params(args, bk)
    z = parse_scalar(args.z, bk)
    stream = run(build(args.family, params, bk), args.count)
    radius = _numeric_radius(info, params)
    if abs(z) >= radius:
        print(
            f"warning: |z| = {abs(z):.6g} is outside the stated disc "
            f"(radius {radius:.6g}); the truncated sum is still computed",
            file=sys.stderr,
        )
    acc = complex(0.0)
    for v in reversed(stream.coeffs.tolist()):
        acc = acc * z + v
    if not cmath.isfinite(acc):
        raise NonFiniteError("evaluation overflowed")
    sys.stdout.write(format_scalar(acc) + "\n")
    return EXIT_OK


def cmd_verify(args) -> int:
    bk = get_backend(args.backend)
    if args.count < 0:
        raise ParameterDomainError("--count must be nonnegative")
    if args.trials < 1:
        raise ParameterDomainError("--trials must be at least 1")
    explicit = [n for n in _PARAM_FLAGS if getattr(args, n) is not None]
    reports = []
    if args.family is not None and explicit:
        params = _parse_params(args, bk)
        reports.append(
            verify_mod.compare_oracle(
                args.family, params, args.count, bk, args.tolerance
            )
        )
    else:
        families = None if args.family is None else [args.family]
        reports = verify_mod.sweep(
            args.seed,
            args.trials,
            args.count,
            bk,
            args.tolerance,
            families=families,
        )
    failures = 0
    for rep in reports:
        sys.stdout.write(emit_json(rep.to_dict()))
        if not rep.passed:
            failures += 1
    print(
        f"{len(reports)} comparison(s), {failures} finding(s)",
        file=sys.stderr,
    )
    return EXIT_FINDING if failures else EXIT_OK


def cmd_bench(args) -> int:
    bk = get_backend("f64")
    defaults = {"a": 0.5, "b": 1 / 3, "c": 1.25, "p": 1.0, "theta": 0.5}
    info = get_family(args.family)
    if args.count < 0:
        raise ParameterDomainError("--count must be nonnegative")
    if args.reps < 1:
        raise ParameterDomainError("--reps must be at least 1")
    params = _parse_params(args, bk)
    missing = [name for name in info.param_names if getattr(params, name) is None]
    params = replace(params, **{name: complex(defaults[name]) for name in missing})
    report = verify_mod.bench(args.family, params, args.count, args.reps)
    sys.stdout.write(emit_json(report.to_dict()))
    from . import kernels

    if kernels.implementation_name() == "python":
        print(
            "note: recurrence stepping ran on the pure-Python fallback "
            "(the C loop could not be built: no C compiler, or no writable cache)",
            file=sys.stderr,
        )
    return EXIT_OK


def cmd_list(args) -> int:
    rows = []
    for info in list_families():
        rows.append(
            (
                info.id,
                info.base,
                info.h,
                info.formulation,
                f"k={info.order}",
                f"n0={info.start}",
                info.radius,
                ",".join(info.param_names),
            )
        )
    widths = [max(len(r[i]) for r in rows) for i in range(len(rows[0]))]
    for r in rows:
        sys.stdout.write(
            "  ".join(field.ljust(w) for field, w in zip(r, widths)).rstrip() + "\n"
        )
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="macprod",
        description=(
            "Maclaurin coefficients of elementary-times-hypergeometric products "
            "via linear recurrences, cross-checked against a convolution oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeffs = sub.add_parser("coeffs", help="emit a coefficient table")
    p_coeffs.add_argument("--family", required=True)
    p_coeffs.add_argument("--count", type=int, required=True, help="number of coefficients")
    p_coeffs.add_argument("--backend", choices=("exact", "f64"), default="exact")
    p_coeffs.add_argument("--format", choices=("json", "csv"), default="json")
    p_coeffs.add_argument(
        "--normalized",
        action="store_true",
        help="divide the K/E stream by pi/2 (elliptic families only)",
    )
    _add_param_flags(p_coeffs)
    p_coeffs.set_defaults(func=cmd_coeffs)

    p_eval = sub.add_parser("eval", help="Horner-evaluate the truncated sum at z")
    p_eval.add_argument("--family", required=True)
    p_eval.add_argument("--z", required=True, metavar="SCALAR")
    p_eval.add_argument("--count", type=int, required=True, help="truncation degree N")
    _add_param_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_verify = sub.add_parser("verify", help="compare recurrences against the oracle")
    p_verify.add_argument("--seed", type=int, default=1)
    p_verify.add_argument("--trials", type=int, default=3)
    p_verify.add_argument("--count", type=int, default=40, help="highest index N")
    p_verify.add_argument("--backend", choices=("exact", "f64"), default="exact")
    p_verify.add_argument(
        "--tolerance", type=float, default=verify_mod.DEFAULT_TOLERANCE
    )
    p_verify.add_argument("--family", default=None)
    _add_param_flags(p_verify)
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="time the recurrence vs the oracle (f64)")
    p_bench.add_argument("--family", required=True)
    p_bench.add_argument("--count", type=int, required=True, help="highest index N")
    p_bench.add_argument("--reps", type=int, default=3)
    _add_param_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    p_list = sub.add_parser("list", help="print the family catalogue")
    p_list.set_defaults(func=cmd_list)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (
        ParseError,
        BackendMismatchError,
        ParameterDomainError,
        CatalogueError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except (SingularIndexError, NonFiniteError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    sys.exit(main())

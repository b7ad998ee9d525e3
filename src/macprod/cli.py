"""Command-line surface: coefficient tables, point evaluation, verification
sweeps, benchmarks, and the family catalogue.

Standard output carries data only (JSON, CSV, or plain scalars); every
diagnostic goes to standard error.  Exit codes: 0 success, 1 verification
finding, 2 validation or parse failure (a ``--count`` whose stream cannot
be allocated included), 3 numeric failure, 141 (128 + SIGPIPE, as a shell
reports it) standard output closed by its reader.

Each module is imported where its work begins, never at start-up: numpy
where an f64 path begins (an f64 build, run, oracle, comparison or output,
and so ``eval`` and ``bench``), the engine (``recurrence_core``) where a
build or run begins, and the referee (``verify``, which brings the
``series_oracle``) where a comparison begins.  So ``list``, ``--help`` and
validation errors load only this module, ``families`` and ``numerics``;
``coeffs`` and ``eval`` add the engine but not the oracle, and only
``verify`` and ``bench`` load the referee and the oracle.

A request whose first token names its command, as every documented
invocation does, is parsed by one ``ArgumentParser``, that command's own
(:func:`_parse`); only other argv build the full parser of five subparsers.
Neither is cached, nor is the terminal width read once for them.  Either
would speed up a request further, but ``perfbench/run.py`` keeps a record
per request it sends, so its ``peak_rss_mb`` grows with the request rate: a
cache would take it past its bound, the width read once to within about a
point of it.
"""

from __future__ import annotations

import argparse
import cmath
import os
import sys

from .families import (
    CatalogueError,
    Params,
    build,
    disc_radius,
    get_family,
    list_families,
    params_snapshot,
)
from .numerics import (
    DEFAULT_TOLERANCE,
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

EXIT_OK = 0
EXIT_FINDING = 1
EXIT_VALIDATION = 2
EXIT_NUMERIC = 3
EXIT_BROKEN_PIPE = 141

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


def run(spec, N: int):
    """The engine's ``run``, imported where a build is first run.  It stays a
    name of this module, so a tracer can wrap ``cli.run``."""
    from .recurrence_core import run

    return run(spec, N)


def emit_json(doc) -> str:
    """Canonical one-line JSON (sorted keys, no spaces); byte-stable on round-trip."""
    import json

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


def cmd_eval(args) -> int:
    bk = get_backend("f64")
    info = get_family(args.family)
    if args.count < 0:
        raise ParameterDomainError("--count must be nonnegative")
    params = _parse_params(args, bk)
    z = parse_scalar(args.z, bk)
    stream = run(build(args.family, params, bk), args.count)
    radius = disc_radius(info, params)
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
    # --seed, --trials and --tolerance default to None, so that a flag the
    # user gives and the request does not read is refused
    trials = 3 if args.trials is None else args.trials
    tolerance = DEFAULT_TOLERANCE if args.tolerance is None else args.tolerance
    if args.count < 0:
        raise ParameterDomainError("--count must be nonnegative")
    if trials < 1:
        raise ParameterDomainError("--trials must be at least 1")
    if not tolerance >= 0:
        raise ParameterDomainError("--tolerance must be a nonnegative number")
    explicit = [n for n in _PARAM_FLAGS if getattr(args, n) is not None]
    if explicit and args.family is None:
        raise ParameterDomainError(f"--{explicit[0]} needs --family")
    sweep_only = [f"--{n}" for n in ("seed", "trials") if getattr(args, n) is not None]
    if explicit and sweep_only:
        raise ParameterDomainError(
            f"{' and '.join(sweep_only)} apply to a sweep; explicit parameters run one comparison"
        )
    if bk.name == "exact" and args.tolerance is not None:
        raise ParameterDomainError("--tolerance applies to f64; exact comparisons demand equality")
    from . import verify

    if explicit:
        params = _parse_params(args, bk)
        reports = [verify.compare_oracle(args.family, params, args.count, bk, tolerance)]
    else:
        families = None if args.family is None else [args.family]
        reports = verify.sweep(
            1 if args.seed is None else args.seed,
            trials,
            args.count,
            bk,
            tolerance,
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
    values = {name: getattr(params, name) for name in _PARAM_FLAGS}
    values.update((name, complex(defaults[name])) for name in info.param_names
                  if values[name] is None)
    params = Params(**values)
    from . import kernels, verify

    report = verify.bench(args.family, params, args.count, args.reps)
    sys.stdout.write(emit_json(report.to_dict()))
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


def _coeffs_flags(sub):
    sub.add_argument("--family", required=True)
    sub.add_argument("--count", type=int, required=True, help="number of coefficients")
    sub.add_argument("--backend", choices=("exact", "f64"), default="exact")
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    sub.add_argument(
        "--normalized",
        action="store_true",
        help="divide the K/E stream by pi/2 (elliptic families only)",
    )
    _add_param_flags(sub)


def _eval_flags(sub):
    sub.add_argument("--family", required=True)
    sub.add_argument("--z", required=True, metavar="SCALAR")
    sub.add_argument("--count", type=int, required=True, help="truncation degree N")
    _add_param_flags(sub)


def _verify_flags(sub):
    sub.add_argument("--seed", type=int, help="sweeps only (default 1)")
    sub.add_argument("--trials", type=int, help="sweeps only (default 3)")
    sub.add_argument("--count", type=int, default=40, help="highest index N")
    sub.add_argument("--backend", choices=("exact", "f64"), default="exact")
    sub.add_argument(
        "--tolerance", type=float,
        help=f"f64 only (default {DEFAULT_TOLERANCE:g})",
    )
    sub.add_argument("--family", default=None)
    _add_param_flags(sub)


def _bench_flags(sub):
    sub.add_argument("--family", required=True)
    sub.add_argument("--count", type=int, required=True, help="highest index N")
    sub.add_argument("--reps", type=int, default=3)
    _add_param_flags(sub)


#: each command's help line, flag adder and handler, in the order of the
#: usage line's choices
_COMMANDS = {
    "coeffs": ("emit a coefficient table", _coeffs_flags, cmd_coeffs),
    "eval": ("Horner-evaluate the truncated sum at z", _eval_flags, cmd_eval),
    "verify": ("compare recurrences against the oracle", _verify_flags, cmd_verify),
    "bench": ("time the recurrence vs the oracle (f64)", _bench_flags, cmd_bench),
    "list": ("print the family catalogue", lambda sub: None, cmd_list),
}


def _build_parser(command) -> argparse.ArgumentParser:
    """The full parser: a subparser for every command, ``command``'s with its
    flags and handler (none when ``command`` is None), the others bare.
    :func:`_parse` builds it only for an argv whose first token does not name
    a command (``--help coeffs``, an option before the command, an unknown
    or missing command), and to report tokens that a leading command's own
    parser left over, so that those print the top-level usage line."""
    parser = argparse.ArgumentParser(
        prog="macprod",
        description=(
            "Maclaurin coefficients of elementary-times-hypergeometric products "
            "via linear recurrences, cross-checked against a convolution oracle."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, add_flags, handler) in _COMMANDS.items():
        p_command = sub.add_parser(name, help=help_text)
        if name == command:
            add_flags(p_command)
            p_command.set_defaults(func=handler)
    return parser


def _parse(argv: list) -> argparse.Namespace:
    """The parsed request; argparse raises ``SystemExit`` on ``--help`` and
    on a parse error.

    Where the first token names the command, as in every documented
    invocation, one parser parses the rest: that command's own, with the
    prog, flags and handler of its subparser in the full parser, so its help
    and errors keep their bytes.  Tokens it leaves over are reported by the
    full parser, as its ``parse_args`` would report them.  Any other argv
    goes to the full parser, built for the first token that names a command
    (the top level takes no option with a value, so argparse dispatches to
    that one).

    Each call builds its parsers anew, with argparse's own help formatter;
    the module docstring says why neither is cached nor given the terminal
    width once."""
    if argv and argv[0] in _COMMANDS:
        command = argv[0]
        _, add_flags, handler = _COMMANDS[command]
        parser = argparse.ArgumentParser(prog=f"macprod {command}")
        add_flags(parser)
        parser.set_defaults(func=handler)
        args, extras = parser.parse_known_args(argv[1:])
        if extras:
            _build_parser(None).error(f"unrecognized arguments: {' '.join(extras)}")
        return args
    command = next((token for token in argv if token in _COMMANDS), None)
    return _build_parser(command).parse_args(argv)


def main(argv=None) -> int:
    """Run one request; the return value is its exit code.  Its argv is
    parsed by :func:`_parse`, which builds one parser for a request whose
    first token names the command and the full parser otherwise."""
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    # argparse stores [] for a flag whose value is "--", bypassing type and choices
    for name, value in vars(args).items():
        if isinstance(value, list):
            print(f"error: argument --{name}: expected one argument", file=sys.stderr)
            return EXIT_VALIDATION
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: say nothing, and point stdout at the
        # null device, so the interpreter's last flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
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
    except MemoryError:  # the stream's size comes from --count
        print(f"error: --count {args.count} is too large for memory", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())

import json
import math
import os
import subprocess
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from macprod import cli, kernels, numerics
from macprod.families import build, get_family, list_families, params_snapshot
from macprod.numerics import GaussianRational, PiLinear, approximate, format_scalar, get_backend
from macprod.recurrence_core import run

SRC = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
USAGE = "usage: macprod [-h] {coeffs,eval,verify,bench,list} ...\n"
INVERSE_SINE = ("arcsin-M", "arccos-M")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCoeffs:
    def test_exp_K_normalized_matches_table(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "coeffs", "--family", "exp-K", "--p", "1", "--count", "3",
            "--backend", "exact", "--normalized",
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["family"] == "exp-K"
        assert doc["base"] == "K"
        assert doc["normalized"] is True
        assert [c["re"] for c in doc["coeffs"]] == ["1", "5/4", "57/64"]
        assert all(c["pi_re"] == "0" for c in doc["coeffs"])

    def test_exp_K_unnormalized_carries_half_pi(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "coeffs", "--family", "exp-K", "--p", "1", "--count", "2",
            "--backend", "exact",
        )
        doc = json.loads(out)
        assert [c["pi_re"] for c in doc["coeffs"]] == ["1/2", "5/8"]
        assert [c["re"] for c in doc["coeffs"]] == ["0", "0"]

    def test_exp_M_degenerate_f64(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "coeffs", "--family", "exp-M", "--a", "0", "--c", "3", "--p", "2",
            "--count", "3", "--backend", "f64",
        )
        assert code == 0
        doc = json.loads(out)
        assert [c["re"] for c in doc["coeffs"]] == [1.0, 2.0, 2.0]

    def test_sin_F_prefix(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "coeffs", "--family", "sin-F", "--a", "1", "--b", "1", "--c", "1",
            "--p", "1", "--count", "4", "--backend", "exact",
        )
        doc = json.loads(out)
        assert [c["re"] for c in doc["coeffs"]] == ["0", "1", "1", "5/6"]

    def test_json_round_trip_byte_stable(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "coeffs", "--family", "exp-F", "--a", "1/2", "--b", "1/3", "--c", "5/4",
            "--p", "1", "--count", "8", "--backend", "f64",
        )
        doc = json.loads(out)
        assert cli.emit_json(doc) == out

    def test_csv_matches_json(self, capsys):
        args = (
            "coeffs", "--family", "exp-F", "--a", "1/2", "--b", "1/3", "--c", "5/4",
            "--p", "1", "--count", "6", "--backend", "exact",
        )
        _, json_out, _ = run_cli(capsys, *args, "--format", "json")
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        doc = json.loads(json_out)
        lines = csv_out.strip().splitlines()
        assert lines[0] == "n,re,im,pi_re,pi_im"
        assert len(lines) == 1 + len(doc["coeffs"])
        for rec, line in zip(doc["coeffs"], lines[1:]):
            n, re_s, im_s, pre, pim = line.split(",")
            assert int(n) == rec["n"]
            assert re_s == rec["re"]
            assert im_s == rec["im"]
            assert pre == rec["pi_re"]
            assert pim == rec["pi_im"]

    def test_complex_entries_exact(self, capsys):
        # the u-branch of a trig combo is genuinely complex; model it through
        # a family with complex parameter input instead
        code, out, _ = run_cli(
            capsys,
            "coeffs", "--family", "exp-M", "--a", "1/2+1/3i", "--c", "2", "--p", "1",
            "--count", "2", "--backend", "exact",
        )
        doc = json.loads(out)
        assert doc["coeffs"][1]["re"] == "5/4"
        assert doc["coeffs"][1]["im"] == "1/6"

    def test_entries_past_the_int_digit_limit(self, capsys):
        # u_1024 of exp-F here has more digits than str(int) prints by default
        params = {
            "a": Fraction(1, 3), "b": Fraction(-5, 4), "c": Fraction(7, 5), "p": Fraction(3, 2)
        }
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(
            capsys,
            "coeffs", "--family", "exp-F", "--backend", "exact", "--count", "1025",
            *(f"--{k}={v}" for k, v in params.items()),
        )
        assert code == 0, err
        assert sys.get_int_max_str_digits() == limit
        num, den = json.loads(out)["coeffs"][1024]["re"].split("/")
        assert len(den) > 4300
        want = run(build("exp-F", params), 1024).coeffs[1024]
        assert Fraction(int(Decimal(num)), int(Decimal(den))) == want.re

    def test_format_scalar_is_the_writers_text(self):
        # str() of an exact scalar and the record writer share one formatter,
        # which prints parts past the int digit limit
        big = GaussianRational(Fraction(10**5000, 3), Fraction(-(10**5000) - 1, 7))
        lines = cli._coeff_lines([big, PiLinear(1, big)], True, "csv")
        _, re, im, _, _ = lines[0].split(",")
        assert str(big) == format_scalar(big) == f"{re}{im}i"
        _, re, im, pi_re, pi_im = lines[1].split(",")
        assert (re, im) == ("1", "0")
        assert format_scalar(PiLinear(1, big)) == f"(1)+({pi_re}{pi_im}i)pi"

    ONES = "1" * 5000

    @pytest.mark.parametrize("a", [ONES, f"1/{ONES}", f"-{ONES}/3"], ids=["int", "1/D", "-N/3"])
    def test_parameters_past_the_int_digit_limit(self, capsys, a):
        # scalar text is read past the limit as entries are written past it
        code, out, err = run_cli(capsys, "coeffs", "--family", "exp-M", f"--a={a}", "--c=1",
                                 "--p=1", "--count", "3")
        assert (code, err) == (0, "")
        doc = json.loads(out)
        assert doc["params"]["a"] == a
        u1 = Fraction(*(int(Decimal(x)) for x in doc["coeffs"][1]["re"].split("/")))
        assert u1 == 1 + Fraction(*(int(Decimal(x)) for x in a.split("/")))

    @pytest.mark.parametrize("a", [ONES, f"{ONES}/3"], ids=["int", "N/3"])
    def test_parameters_past_double_in_f64(self, capsys, a):
        code, out, err = run_cli(capsys, "coeffs", "--family", "exp-M", f"--a={a}", "--c=1",
                                 "--p=1", "--count", "3", "--backend", "f64")
        assert (code, out) == (2, "")
        assert err == f"error: scalar text {a!r} is not finite in f64\n"


def _fraction_text(x):
    num = numerics._int_text(x.numerator)
    return num if x.denominator == 1 else f"{num}/{numerics._int_text(x.denominator)}"


def _dict_records(coeffs, backend_name):
    """One dict per entry, as ``coeffs`` built them before the record
    writer: the reference its text is checked against."""
    if backend_name == "exact":
        records = []
        for n, v in enumerate(coeffs):
            if isinstance(v, PiLinear):
                q0, q1 = v.q0, v.q1
            elif isinstance(v, GaussianRational):
                q0, q1 = v, GaussianRational(0)
            else:
                q0, q1 = GaussianRational(Fraction(v)), GaussianRational(0)
            re_s, im_s, pre, pim = (_fraction_text(x) for x in (q0.re, q0.im, q1.re, q1.im))
            records.append({"n": n, "re": re_s, "im": im_s, "pi_re": pre, "pi_im": pim})
        return records
    return [
        {"n": n, "re": re, "im": im}
        for n, (re, im) in enumerate(zip(coeffs.real.tolist(), coeffs.imag.tolist()))
    ]


def _dict_csv(records, exact):
    cols = ["n", "re", "im"] + (["pi_re", "pi_im"] if exact else [])
    lines = [",".join(cols)]
    for rec in records:
        lines.append(",".join(repr(rec[c]) if isinstance(rec[c], float) else str(rec[c]) for c in cols))
    return "\n".join(lines) + "\n"


def reference_coeffs(argv):
    """What ``coeffs`` printed before the record writer: the dict records
    through ``emit_json`` (JSON) or joined by column (CSV)."""
    args = cli._build_parser("coeffs").parse_args(argv)
    bk = get_backend(args.backend)
    info = get_family(args.family)
    params = cli._parse_params(args, bk)
    stream = run(build(args.family, params, bk), args.count - 1)
    coeffs = cli._normalized(stream.coeffs, bk) if args.normalized else stream.coeffs
    records = _dict_records(coeffs, bk.name)
    if args.format == "csv":
        return _dict_csv(records, bk.name == "exact")
    doc = {
        "family": info.id,
        "base": info.base,
        "params": dict(params_snapshot(params)),
        "backend": bk.name,
        "normalized": bool(args.normalized),
        "coeffs": records,
    }
    return cli.emit_json(doc)


class TestRecordWriter:
    """Each coefficient record is written as text straight from the entry's
    parts; the text equals what the dict records printed through
    ``emit_json`` (JSON) or the column join (CSV)."""

    POINTS = {
        "real": {"a": "1/3", "b": "-5/4", "c": "7/5", "p": "3/2", "theta": "2/3"},
        "complex": {"a": "1/3+1/2i", "b": "-5/4", "c": "7/5-1/3i", "p": "3/2+2i",
                    "theta": "2/3-1/5i"},
    }

    def argv(self, info, point, *extra, count=41, backend="exact"):
        flags = [f"--{name}={self.POINTS[point][name]}" for name in info.param_names]
        return ["coeffs", "--family", info.id, "--count", str(count), "--backend", backend,
                *flags, *extra]

    def check(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == reference_coeffs(argv)
        return out

    @pytest.mark.parametrize("point", ["real", "complex"])
    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_exact_json(self, capsys, info, point):
        self.check(capsys, self.argv(info, point))

    @pytest.mark.parametrize("info", list_families(), ids=lambda i: i.id)
    def test_csv(self, capsys, info):
        self.check(capsys, self.argv(info, "complex", "--format", "csv"))
        self.check(capsys, self.argv(info, "real", "--format", "csv", count=65, backend="f64"))

    @pytest.mark.parametrize("backend", ["exact", "f64"])
    @pytest.mark.parametrize(
        "info", [i for i in list_families() if i.base in ("K", "E")], ids=lambda i: i.id
    )
    def test_normalized(self, capsys, info, backend):
        for point in self.POINTS:
            self.check(capsys, self.argv(info, point, "--normalized", backend=backend))

    @pytest.mark.parametrize("point", ["real", "complex"])
    def test_arccos_pi_parts(self, capsys, point):
        out = self.check(capsys, self.argv(get_family("arccos-M"), point))
        coeffs = json.loads(out)["coeffs"]
        assert coeffs[0]["pi_re"] == "1/2"
        assert all(c["pi_re"] != "0" for c in coeffs[:3])
        assert (point == "complex") == any(c["pi_im"] != "0" for c in coeffs)

    def test_entries_past_the_int_digit_limit(self, capsys):
        argv = self.argv(get_family("exp-F"), "real", count=1025)
        out = self.check(capsys, argv)
        assert len(json.loads(out)["coeffs"][1024]["re"]) > 2 * 4300
        csv = argv + ["--format", "csv"]
        self.check(capsys, csv)

    def test_f64_extreme_floats(self):
        import numpy as np

        # a signed zero, the least subnormal and the largest finite double
        coeffs = np.array([
            complex(-0.0, 5e-324), complex(1.7976931348623157e308, -0.0),
            complex(-5e-324, -1.7976931348623157e308), complex(0.1, 1 / 3),
        ])
        records = _dict_records(coeffs, "f64")
        json_lines = cli._coeff_lines(coeffs, False, "json")
        assert "[" + ",".join(json_lines) + "]" == cli.emit_json(records)[:-1]
        assert json_lines[0] == '{"im":5e-324,"n":0,"re":-0.0}'
        csv_lines = cli._coeff_lines(coeffs, False, "csv")
        assert "\n".join(["n,re,im", *csv_lines]) + "\n" == _dict_csv(records, False)

    @pytest.mark.parametrize(
        "family, flags, frequency",
        [
            ("exp-M", ["--a=1", "--c=2"], "--p=1e155"),
            ("exp-M", ["--a=1", "--c=2"], "--p=1e300"),
            ("sinh-M-combo", ["--a=1", "--c=2"], "--p=1e155"),
            ("sin-M-combo", ["--a=1", "--c=2"], "--p=1e155"),
            ("exp-K", ["--normalized"], "--p=1e155"),
            ("binom-M", ["--a=1", "--c=2", "--p=3"], "--theta=1e155"),
            ("arcsin-M", ["--a=1/2", "--c=5/4"], "--p=30"),
        ],
    )
    def test_non_finite_never_reaches_the_writer(self, capsys, monkeypatch, family, flags,
                                                 frequency):
        # an f64 run raises on a non-finite entry, so the request exits 3
        # before any record is written; at a small frequency it is written
        # from a finite array
        written = []
        write = cli._coeff_lines
        monkeypatch.setattr(cli, "_coeff_lines", lambda *a: written.append(a) or write(*a))
        argv = ["coeffs", "--family", family, "--backend", "f64", "--count", "400", *flags]
        code, out, _ = run_cli(capsys, *argv, frequency)
        assert (code, out, written) == (3, "", [])
        code, out, _ = run_cli(capsys, *argv, frequency.split("=")[0] + "=1/3")
        assert code == 0 and out and len(written) == 1
        assert all(math.isfinite(x) for x in written[0][0].view(float).tolist())


class TestOverflowMessage:
    """An f64 overflow is reported once, at the first coefficient past
    double, and nothing else reaches stderr."""

    @pytest.mark.parametrize(
        "family, flags",
        [
            ("exp-M", ["--a=1", "--c=2", "--p=1e155"]),
            ("sinh-M-combo", ["--a=1", "--c=2", "--p=1e155"]),
            ("exp-K", ["--normalized", "--p=1e155"]),
            ("arcsin-M", ["--a=1/2", "--c=5/4", "--p=1e155"]),
            ("arctanexp-M", ["--a=1/2", "--c=5/4", "--p=1e155"]),
            ("binom-M", ["--a=1", "--c=2", "--p=3", "--theta=1e155"]),
            ("arccos-M", ["--a=1/2", "--c=5/4", "--p=1e155"]),
        ],
    )
    def test_first_non_finite_coefficient(self, family, flags):
        # the inverse-sine products are finite through u_2 = +-p a / c = +-4e154,
        # and exact u_3 is about -+1.7e464
        bad = 3 if family in INVERSE_SINE else 2
        proc = self.coeffs(family, flags, 8)
        assert (proc.returncode, proc.stdout) == (3, "")
        assert proc.stderr == (
            f"numeric failure: recurrence produced a non-finite entry at n={bad}\n")

    @pytest.mark.parametrize("family", INVERSE_SINE)
    def test_inverse_sine_is_finite_up_to_it(self, family):
        # every f64 route's first steps run in long double, so the inner
        # sequences, which carry p^2, do not overflow before the product does
        flags = ["--a=1/2", "--c=5/4", "--p=1e155"]
        proc = self.coeffs(family, flags, 3)
        assert (proc.returncode, proc.stderr) == (0, "")
        got = [complex(r["re"], r["im"]) for r in json.loads(proc.stdout)["coeffs"]]
        params = {"a": Fraction(1, 2), "c": Fraction(5, 4), "p": Fraction(10**155)}
        assert got == [complex(approximate(v)) for v in run(build(family, params), 2).coeffs]
        assert got[2] == (4e154 if family == "arcsin-M" else -4e154)

    @staticmethod
    def coeffs(family, flags, count):
        return subprocess.run(
            [sys.executable, "-m", "macprod.cli", "coeffs", "--family", family,
             "--backend", "f64", "--count", str(count), *flags],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=SRC), timeout=300,
        )


class TestFloatOutputBytes:
    """f64 output is the same text as before streams became arrays; the
    literals were printed by the tree whose f64 streams were tuples."""

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "coeffs", "--family", "sin-F", "--backend", "f64", "--count", "6", "--format", "csv",
            "--a", "1/2", "--b=-2/3", "--c", "5/4", "--p", "3/4",
        )
        assert code == 0
        assert out == (
            "n,re,im\n0,0.0,-0.0\n1,0.75,-0.0\n2,-0.19999999999999998,0.0\n"
            "3,-0.09253472222222223,0.0\n4,0.011152659069325721,-0.0\n"
            "5,0.00041116939972510314,-0.0\n"
        )

    def test_json_normalized(self, capsys):
        # division by pi/2 keeps the sign of each zero part
        code, out, _ = run_cli(
            capsys,
            "coeffs", "--family", "sin-E", "--backend", "f64", "--count", "3", "--normalized",
            "--p=-1/3+1/2i",
        )
        assert code == 0
        assert out == (
            '{"backend":"f64","base":"E","coeffs":[{"im":-0.0,"n":0,"re":0.0},'
            '{"im":0.5,"n":1,"re":-0.3333333333333333},'
            '{"im":-0.125,"n":2,"re":0.08333333333333334}],"family":"sin-E",'
            '"normalized":true,"params":{"p":"-0.3333333333333333+0.5i"}}\n'
        )

    def test_eval(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--family", "cosh-M-combo", "--count", "30", "--z", "0.4-0.2i",
            "--a", "1/3", "--c", "7/5", "--p", "5/4",
        )
        assert code == 0
        assert out == "1.1978291448205414-0.20741912900205817i\n"


class TestExitCodes:
    def test_validation_error_is_2(self, capsys):
        code, out, err = run_cli(
            capsys,
            "coeffs", "--family", "sin-M", "--a", "1/2", "--c", "2", "--p", "1",
            "--count", "4",
        )
        assert code == 2
        assert out == ""
        assert "c-2" in err or "c = 2" in err

    def test_unknown_family_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "coeffs", "--family", "tan-M", "--count", "4"
        )
        assert code == 2
        assert "unknown family" in err

    def test_normalized_outside_elliptic_is_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "coeffs", "--family", "exp-M", "--a", "1", "--c", "2", "--p", "1",
            "--count", "4", "--normalized",
        )
        assert code == 2
        assert "normalized" in err

    def test_parse_error_is_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "coeffs", "--family", "exp-M", "--a", "1//2", "--c", "2", "--p", "1",
            "--count", "4",
        )
        assert code == 2

    def test_missing_param_is_2(self, capsys):
        code, _, err = run_cli(
            capsys, "coeffs", "--family", "exp-F", "--a", "1", "--count", "4"
        )
        assert code == 2
        assert "requires" in err

    def test_decimal_under_exact_is_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "coeffs", "--family", "exp-M", "--a", "0.5", "--c", "2", "--p", "1",
            "--count", "4", "--backend", "exact",
        )
        assert code == 2

    @pytest.mark.parametrize("argv, message", [
        (("coeffs", "--count", "0"), "--count must be at least 1"),
        (("eval", "--z=1/2", "--count", "-1"), "--count must be nonnegative"),
    ], ids=["coeffs-0", "eval-minus-1"])
    def test_count_out_of_range_is_2(self, capsys, argv, message):
        flags = ["--family", "exp-M", "--a=1", "--c=2", "--p=1"]
        code, out, err = run_cli(capsys, argv[0], *flags, *argv[1:])
        assert (code, out, err) == (2, "", f"error: {message}\n")

    @pytest.mark.parametrize("count", ["100000000000000000000", "144115188075855872"],
                             ids=["past-numpy-dimension", "2-EiB"])
    @pytest.mark.parametrize("argv", [
        ("coeffs", "--backend", "f64", "--family", "exp-M", "--a=1", "--c=1", "--p=1"),
        ("eval", "--family", "exp-M", "--a=1", "--c=1", "--p=1", "--z=1/2"),
        ("verify", "--backend", "f64", "--family", "exp-M", "--a=1", "--c=1", "--p=1"),
        ("verify", "--backend", "f64", "--family", "exp-M"),
        ("bench", "--family", "exp-M"),
    ], ids=["coeffs", "eval", "verify", "verify-sweep", "bench"])
    def test_count_past_memory_is_2(self, capsys, argv, count):
        # numpy refuses either stream size before it allocates anything
        code, out, err = run_cli(capsys, *argv, "--count", count)
        assert (code, out, err) == (2, "", f"error: --count {count} is too large for memory\n")

    @pytest.mark.parametrize("argv", [
        ("list",),
        ("coeffs", "--family", "exp-M", "--a=1", "--c=2", "--p=1", "--count", "5"),
        ("eval", "--family", "exp-M", "--a=1", "--c=2", "--p=1", "--z=1/2", "--count", "5"),
    ], ids=["list", "coeffs", "eval"])
    def test_closed_stdout_is_141(self, argv):
        # the reader closes its end before the command writes, as `| head -1`
        # does once it has its line: no traceback, and 128 + SIGPIPE, as a
        # shell reports a process that SIGPIPE ended
        with subprocess.Popen([sys.executable, "-m", "macprod.cli", *argv],
                              stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                              env=dict(os.environ, PYTHONPATH=SRC)) as proc:
            proc.stdout.close()
            err = proc.stderr.read()
        assert (proc.returncode, err) == (cli.EXIT_BROKEN_PIPE, b"")
        assert cli.EXIT_BROKEN_PIPE == 141

    @pytest.mark.parametrize("argv, token", [
        (("coeffs", "--backend", "f64", "--family", "exp-M", "--a=-1e400", "--c=1", "--p=1",
          "--count", "3"), "-1e400"),
        (("eval", "--family", "exp-M", "--a=1", "--c=1", "--p=1", "--z=1e400", "--count", "3"),
         "1e400"),
        (("eval", "--family", "exp-M", "--a=1", "--c=1", "--p=1", "--z=1" + "0" * 400,
          "--count", "3"), "1" + "0" * 400),
        (("verify", "--backend", "f64", "--family", "exp-M", "--a=1", "--c=1", "--p=1e309i",
          "--count", "3"), "1e309i"),
        (("bench", "--family", "exp-F", "--a=1", "--b=1", "--c=1", "--p=1e400", "--count", "3"),
         "1e400"),
    ], ids=["coeffs-a", "eval-z", "eval-z-integer", "verify-p", "bench-p"])
    def test_f64_scalar_past_double_is_2(self, capsys, argv, token):
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: scalar text '{token}' is not finite in f64\n"

    def test_overflow_is_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "coeffs", "--family", "exp-M", "--a", "1", "--c", "2", "--p", "1e155",
            "--count", "8", "--backend", "f64",
        )
        assert code == 3
        assert "numeric" in err

    def test_binomial_at_huge_integer_p(self, capsys):
        # p = 1e100 takes the polynomial route; only the taps through u_N are
        # formed, and u_4 = C(p, 4) / 16 is past double
        flags = ("--backend", "f64", "--family", "binom-M", "--a=1", "--c=2", "--p=1e100",
                 "--theta=1/2")
        code, out, _ = run_cli(capsys, "coeffs", *flags, "--count", "4")
        assert code == 0
        got = [complex(r["re"], r["im"]) for r in json.loads(out)["coeffs"]]
        exact = run(build("binom-M", {"a": 1, "c": 2, "p": Fraction(1e100),
                                      "theta": Fraction(1, 2)}), 3).coeffs
        for x, y in zip(got, exact):
            assert abs(x - approximate(y)) <= 1e-12 * abs(approximate(y))
        code, out, err = run_cli(capsys, "coeffs", *flags, "--count", "8")
        assert (code, out) == (3, "")
        assert err == "numeric failure: recurrence produced a non-finite entry at n=4\n"

    def test_overflow_on_interleaved_route_is_3(self, capsys):
        code, _, err = run_cli(
            capsys,
            "coeffs", "--family", "arcsin-M", "--a", "1/2", "--c", "5/4", "--p", "30",
            "--count", "400", "--backend", "f64",
        )
        assert code == 3
        assert "at n=213" in err  # exact u_213 is the first entry past double

    @pytest.mark.parametrize("family", INVERSE_SINE)
    @pytest.mark.parametrize("p, n", [
        ("1.6595869074376105e44", 7), ("2511886431509.5923", 25), ("91201083.93559115", 39),
    ])
    def test_last_finite_entry_on_interleaved_route(self, capsys, family, p, n):
        # exact u_n at the binary p is a finite double near the top of the
        # range; the route's inner sequences must not leave double before it
        flags = ["--family", family, "--a=1/2", "--c=5/4", f"--p={p}", "--count", str(n + 1)]
        code, out, err = run_cli(capsys, "coeffs", "--backend", "f64", *flags)
        assert (code, err) == (0, "")
        got = json.loads(out)["coeffs"][n]
        params = {"a": Fraction(1, 2), "c": Fraction(5, 4), "p": Fraction(float(p))}
        want = approximate(run(build(family, params), n).coeffs[n])
        assert abs(complex(got["re"], got["im"]) - want) <= 1e-13 * abs(want)

    def test_argparse_error_is_2(self, capsys):
        assert cli.main(["coeffs", "--badflag"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("argv, err", [
        (("list", "extra"), USAGE + "macprod: error: unrecognized arguments: extra\n"),
        (("verify", "--seed", "1", "x"), USAGE + "macprod: error: unrecognized arguments: x\n"),
        (("frobnicate",), USAGE + "macprod: error: argument command: invalid choice: "
         "'frobnicate' (choose from 'coeffs', 'eval', 'verify', 'bench', 'list')\n"),
        ((), USAGE + "macprod: error: the following arguments are required: command\n"),
        (("coeffs",),
         "usage: macprod coeffs [-h] --family FAMILY --count COUNT\n"
         "                      [--backend {exact,f64}] [--format {json,csv}]\n"
         "                      [--normalized] [--a SCALAR] [--b SCALAR] [--c SCALAR]\n"
         "                      [--p SCALAR] [--theta SCALAR]\n"
         "macprod coeffs: error: the following arguments are required: --family, --count\n"),
        (("--x", "coeffs", "--family", "exp-M", "--count", "3"),
         USAGE + "macprod: error: unrecognized arguments: --x\n"),
    ], ids=["list-extra", "verify-extra", "unknown-command", "no-argv", "coeffs-bare",
            "option-first"])
    def test_top_level_parse_errors(self, capsys, monkeypatch, argv, err):
        # whether the first token names a command or not, the usage line and
        # the error list all five commands
        monkeypatch.setenv("COLUMNS", "80")
        assert run_cli(capsys, *argv) == (2, "", err)


    @pytest.mark.parametrize(
        "argv, flag",
        [
            (("verify", "--family", "exp-M", "--count", "-1", "--a", "1", "--c", "2", "--p", "1"),
             "--count"),
            (("verify", "--family", "exp-M", "--count", "-1"), "--count"),
            (("verify", "--trials", "0"), "--trials"),
            (("verify", "--trials", "-2", "--family", "exp-M"), "--trials"),
            (("verify", "--p=1", "--count", "4", "--trials", "1"), "--family"),
            (("verify", "--backend", "f64", "--tolerance", "nan", "--family", "exp-M"),
             "--tolerance"),
            (("verify", "--backend", "f64", "--tolerance=-1", "--family", "exp-M"),
             "--tolerance"),
            (("verify", "--family", "exp-M", "--a=1", "--c=2", "--p=1", "--trials", "5",
              "--seed", "3", "--count", "8"), "--trials"),
            (("verify", "--family", "exp-M", "--a=1", "--c=2", "--p=1", "--seed", "3"),
             "--seed"),
            (("verify", "--backend", "exact", "--tolerance", "0.5"), "--tolerance"),
            (("bench", "--family", "exp-M", "--count", "-3"), "--count"),
            (("bench", "--family", "exp-M", "--count", "8", "--reps", "0"), "--reps"),
        ],
    )
    def test_bad_counts_are_2(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and flag in err
        assert "Traceback" not in err

    @pytest.mark.parametrize("argv, flag", [
        (("coeffs", "--family=--", "--count", "3"), "--family"),
        (("coeffs", "--family", "exp-M", "--a=--", "--c=1", "--p=1", "--count", "3"), "--a"),
        (("eval", "--family", "exp-M", "--a=1", "--c=1", "--p=1", "--z=--", "--count", "3"),
         "--z"),
        (("coeffs", "--family", "exp-M", "--a=1", "--c=1", "--p=1", "--count=--"), "--count"),
        (("coeffs", "--family", "exp-M", "--a=1", "--c=1", "--p=1", "--count", "3",
          "--backend=--"), "--backend"),
    ])
    def test_a_flag_valued_dash_dash_is_2(self, capsys, argv, flag):
        # argparse stores [] for such a flag, whatever its type or choices
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: argument {flag}: expected one argument\n"


class TestEval:
    def test_truncated_exponential(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--family", "exp-M", "--a", "0", "--c", "3", "--p", "1",
            "--z", "1", "--count", "30",
        )
        assert code == 0
        assert abs(float(out.strip()) - math.e) < 1e-12

    def test_elliptic_at_origin(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--family", "exp-K", "--p", "0", "--z", "0", "--count", "5",
        )
        assert abs(float(out.strip()) - math.pi / 2) < 1e-15

    def test_binomial_cancellation(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "eval", "--family", "binom-F", "--a", "1", "--b", "5/4", "--c", "5/4",
            "--p", "1", "--theta", "1", "--z", "1/2", "--count", "60",
        )
        assert abs(float(out.strip()) - 1.0) < 1e-12

    def test_outside_disc_warns_but_proceeds(self, capsys):
        code, out, err = run_cli(
            capsys,
            "eval", "--family", "binom-F", "--a", "1", "--b", "5/4", "--c", "5/4",
            "--p", "1", "--theta", "1", "--z", "1", "--count", "10",
        )
        assert code == 0
        assert "warning" in err
        assert out.strip()

    @pytest.mark.parametrize("family, flags", [
        ("arctanexp-M", ["--a=1/2", "--c=3/2", "--p=1"]),
        ("binom-F", ["--a=1/2", "--b=1/3", "--c=3/2", "--p=1/2", "--theta=1/4"]),
        ("binom-K", ["--p=1/2", "--theta=1/4"]),
        ("binom-E", ["--p=1/2", "--theta=1/4"]),
    ])
    def test_warns_past_the_true_radius(self, capsys, family, flags):
        # arctan z branches at +-i, and F, K and E converge only in |z| < 1,
        # so each sum diverges at z = 2, inside the 1/|theta| = 4 of binom
        for z, warned in (("2", True), ("1/2", False)):
            code, out, err = run_cli(capsys, "eval", "--family", family, *flags, f"--z={z}",
                                     "--count", "40")
            assert code == 0
            assert out.strip()
            assert ("warning" in err) is warned, z

    @pytest.mark.parametrize("family, flags, z, warned", [
        ("binom-M", ["--a=1/2", "--c=3/2", "--p=2", "--theta=2"], "1", False),
        ("binom-F", ["--a=1/2", "--b=1/3", "--c=3/2", "--p=0", "--theta=4"], "1/2", False),
        ("binom-F", ["--a=1/2", "--b=1/3", "--c=3/2", "--p=2", "--theta=4"], "2", True),
    ])
    def test_polynomial_binomial_has_the_base_radius(self, capsys, family, flags, z, warned):
        # at a nonnegative integer p, (1 - theta z)^p is a polynomial, so
        # 1/|theta| bounds nothing: binom-M is entire, binom-F converges in |z| < 1
        code, out, err = run_cli(capsys, "eval", "--family", family, *flags, f"--z={z}",
                                 "--count", "40")
        assert code == 0
        assert out.strip()
        assert ("warning" in err) is warned
        if warned:
            assert "(radius 1)" in err

    def test_horner_overflow_is_3(self, capsys):
        # every coefficient of exp-M is finite, but u_2 z^2 at z = 1e300 is not
        code, out, err = run_cli(capsys, "eval", "--family", "exp-M", "--a=1", "--c=2", "--p=1",
                                 "--z=1e300", "--count", "3")
        assert (code, out) == (3, "")
        assert err == "numeric failure: evaluation overflowed\n"

    def test_arcsin_outside_branch_point_warns(self, capsys):
        # arcsin(pz) branches at z = 1/p
        code, out, err = run_cli(
            capsys,
            "eval", "--family", "arcsin-M", "--a", "1", "--c", "3/2", "--p", "1",
            "--z", "2", "--count", "30",
        )
        assert code == 0
        assert "warning" in err
        assert out.strip()


class TestCallOrder:
    ARGVS = [
        ["coeffs", "--family", "exp-F", "--a=1/3", "--b=-5/4", "--c=7/5", "--p=3/2",
         "--count", "6"],
        ["coeffs", "--backend", "f64", "--format", "csv", "--family", "binom-K", "--p=1/2",
         "--theta=3/4", "--count", "5"],
        ["coeffs", "--family", "exp-K", "--p=1", "--count", "4", "--normalized"],
        ["verify", "--family", "sin-M", "--count", "12"],
        ["eval", "--family", "exp-M", "--a=0", "--c=3", "--p=1", "--z=1", "--count", "30"],
        ["list"],
        ["coeffs", "--help"],
        ["frobnicate"],
        [],
    ]

    def test_each_call_prints_what_it_prints_alone(self, capsys, monkeypatch):
        # one process, the same argvs forward and then reversed: no call may
        # depend on what ran before it
        monkeypatch.setenv("COLUMNS", "80")
        forward = [run_cli(capsys, *argv) for argv in self.ARGVS]
        backward = [run_cli(capsys, *argv) for argv in reversed(self.ARGVS)]
        assert forward == backward[::-1]
        assert [code for code, _, _ in forward] == [0] * 7 + [2, 2]


class TestVerifyCommand:
    def test_single_family_with_params(self, capsys):
        code, out, err = run_cli(
            capsys,
            "verify", "--family", "exp-M", "--a", "1", "--c", "2", "--p", "1",
            "--count", "24",
        )
        assert code == 0
        report = json.loads(out)
        assert report["verdict"] == "pass"
        assert report["family"] == "exp-M"
        assert "finding" in err

    def test_arccos_exact_single(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--family", "arccos-M", "--a", "1/3", "--c", "7/5", "--p", "1",
            "--count", "11",
        )
        assert code == 0

    def test_validation_exit_2(self, capsys):
        code, _, err = run_cli(
            capsys,
            "verify", "--family", "sin-M", "--a", "1/2", "--c", "2", "--p", "1",
        )
        assert code == 2
        assert "c-2" in err or "c = 2" in err

    def test_seeded_sweep_reproducible(self, capsys):
        args = (
            "verify", "--seed", "1", "--trials", "2", "--count", "16",
            "--family", "exp-F",
        )
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert (code1, out1) == (code2, out2)
        assert code1 == 0
        assert len(out1.strip().splitlines()) == 2

    def test_f64_sweep_on_stable_family(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "verify", "--family", "exp-K", "--backend", "f64", "--seed", "3",
            "--trials", "2", "--count", "32",
        )
        assert code == 0

    def test_report_lines_round_trip(self, capsys):
        _, out, _ = run_cli(
            capsys,
            "verify", "--family", "exp-M", "--a", "1", "--c", "2", "--p", "1",
            "--count", "16",
        )
        for line in out.splitlines():
            assert cli.emit_json(json.loads(line)) == line + "\n"


class TestBenchCommand:
    def test_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys, "bench", "--family", "exp-M", "--count", "16", "--reps", "1"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] > 0
        assert doc["N"] == 16


    def test_rejects_parameters_the_family_does_not_take(self, capsys):
        code, out, err = run_cli(
            capsys, "bench", "--family", "exp-M", "--count", "16", "--reps", "1",
            "--theta=2", "--b=3",
        )
        assert code == 2
        assert out == ""
        assert err == "error: family exp-M does not take parameter(s) b, theta\n"

    def test_fallback_noted_on_stderr_only(self, capsys, monkeypatch):
        # the C loop cannot be built: the fallback runs and says so
        argv = ["bench", "--family", "exp-M", "--count", "16", "--reps", "1"]
        with monkeypatch.context() as m:
            m.setattr(kernels, "_c_impl", lambda: None)
            code, out, err = run_cli(capsys, *argv)
        assert code == 0
        lines = err.splitlines()
        assert len(lines) == 1 and "pure-Python fallback" in lines[0]
        doc = json.loads(out)
        assert out == cli.emit_json(doc)
        assert doc["family"] == "exp-M" and doc["N"] == 16
        if kernels.implementation_name() == "compiled":
            _, out, err = run_cli(capsys, *argv)
            assert err == ""
            assert json.loads(out).keys() == doc.keys()


class TestListCommand:
    def test_row_count_matches_catalogue(self, capsys):
        code, out, _ = run_cli(capsys, "list")
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == len(list_families())

    def test_contains_high_order_shapes(self, capsys):
        _, out, _ = run_cli(capsys, "list")
        arcsin_line = next(l for l in out.splitlines() if l.startswith("arcsin-M"))
        assert "k=11" in arcsin_line and "n0=11" in arcsin_line
        sinh_line = next(l for l in out.splitlines() if l.startswith("sinh-F "))
        assert "k=9" in sinh_line and "n0=9" in sinh_line


class TestExactStartsWithoutNumpy:
    """Exact commands never import numpy: listing, help, validation errors,
    exact ``coeffs`` of every id and an exact ``verify`` sweep run in one
    fresh process without loading it.  An f64 ``coeffs`` that follows in the
    same process prints what it prints in a fresh one."""

    VALUES = {"a": "1/3", "b": "-5/4", "c": "7/3", "p": "1/2", "theta": "2/3"}
    F64 = ["coeffs", "--family", "sin-F", "--backend", "f64", "--count", "65",
           "--a=1/3", "--b=-5/4", "--c=7/3", "--p=1/2"]
    SCRIPT = """
import contextlib, io, sys
import macprod
from macprod import cli

def call(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, out.getvalue()

values = {values!r}
assert call("list")[0] == 0
assert call("--help")[0] == 0
assert call("coeffs", "--family", "exp-F", "--count", "0", "--a=1", "--b=1", "--c=1", "--p=1")[0] == 2
assert call("coeffs", "--family", "exp-M", "--count", "3", "--a=x", "--c=1", "--p=1")[0] == 2
for info in macprod.list_families():
    flags = [f"--{{name}}={{values[name]}}" for name in info.param_names]
    assert call("coeffs", "--family", info.id, "--count", "41", *flags)[0] == 0, info.id
assert call("verify", "--trials", "1")[0] == 0
print("numpy" in sys.modules)
code, out = call(*{f64!r})
assert code == 0
sys.stdout.write(out)
"""

    def test_exact_commands_leave_numpy_unloaded(self):
        import os
        import subprocess

        import macprod

        src = os.path.dirname(os.path.dirname(os.path.abspath(macprod.__file__)))
        env = dict(os.environ, PYTHONPATH=src)
        script = self.SCRIPT.format(values=self.VALUES, f64=self.F64)
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=env, timeout=300)
        assert proc.returncode == 0, proc.stderr
        loaded, f64_out = proc.stdout.split("\n", 1)
        assert loaded == "False"
        fresh = subprocess.run([sys.executable, "-m", "macprod.cli", *self.F64],
                               capture_output=True, text=True, env=env, timeout=300)
        assert fresh.returncode == 0, fresh.stderr
        assert f64_out == fresh.stdout


class TestStartImports:
    """Each command imports only the modules it runs, checked in fresh
    processes: ``list``, ``--help`` and validation errors load neither the
    engine, the oracle nor the referee; ``coeffs`` and ``eval`` load the
    engine but neither the oracle nor the referee; and ``import macprod``
    loads no submodule until a name is read.  No command loads
    ``dataclasses``, and none that runs without numpy loads ``inspect``."""

    FLAGS = ["--a=1/3", "--b=-5/4", "--c=7/5", "--p=3/2"]
    SCRIPT = """
import contextlib, io, json, sys
from macprod import cli

with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    code = cli.main({argv!r})
print(json.dumps([code, sorted(sys.modules)]))
"""

    def fresh(self, code):
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=dict(os.environ, PYTHONPATH=SRC), timeout=300)
        assert proc.returncode == 0, proc.stderr
        return json.loads(proc.stdout)

    def command(self, *argv):
        """(exit code, the modules loaded) of one ``cli.main`` call in a fresh process."""
        code, modules = self.fresh(self.SCRIPT.format(argv=list(argv)))
        return code, set(modules)

    @pytest.mark.parametrize("argv, want", [
        (["list"], 0),
        (["--help"], 0),
        (["verify", "--help"], 0),
        (["coeffs", "--family", "no-such-id", "--count", "3"], 2),
        (["coeffs", "--family", "exp-M", "--count", "3", "--a=x", "--c=1", "--p=1"], 2),
    ])
    def test_catalogue_help_and_errors_load_no_engine(self, argv, want):
        code, modules = self.command(*argv)
        assert code == want
        assert {m for m in modules if m.startswith("macprod.")} == {
            "macprod.cli", "macprod.families", "macprod.numerics"}
        assert "numpy" not in modules
        assert not {"dataclasses", "inspect"} & modules

    @pytest.mark.parametrize("backend", ["exact", "f64"])
    def test_coeffs_loads_no_referee(self, backend):
        code, modules = self.command("coeffs", "--family", "exp-F", "--backend", backend,
                                     "--count", "41", *self.FLAGS)
        assert code == 0
        assert "macprod.recurrence_core" in modules
        assert not {"macprod.series_oracle", "macprod.verify"} & modules
        assert "dataclasses" not in modules
        if backend == "exact":
            assert "inspect" not in modules

    def test_eval_loads_no_referee(self):
        code, modules = self.command("eval", "--family", "arcsin-M", "--z=1/2", "--count", "41",
                                     "--a=1/3", "--c=7/5", "--p=3/2")
        assert code == 0
        assert "macprod.recurrence_core" in modules
        assert not {"macprod.series_oracle", "macprod.verify"} & modules
        assert "dataclasses" not in modules

    @pytest.mark.parametrize("argv", [
        ["verify", "--family", "exp-F", "--count", "40", *FLAGS],
        ["verify", "--family", "exp-F", "--backend", "f64", "--count", "64", *FLAGS],
        ["bench", "--family", "exp-F", "--count", "64", "--reps", "1", *FLAGS],
    ])
    def test_verify_and_bench_load_no_dataclasses(self, argv):
        code, modules = self.command(*argv)
        assert code == 0
        assert "macprod.verify" in modules
        assert "dataclasses" not in modules

    def test_verify_help_quotes_the_referees_default_tolerance(self, capsys):
        from macprod import verify

        code, out, _ = run_cli(capsys, "verify", "--help")
        assert code == 0
        assert f"(default {verify.DEFAULT_TOLERANCE:g})" in " ".join(out.split())
        assert verify.DEFAULT_TOLERANCE is numerics.DEFAULT_TOLERANCE

    def test_f64_builds_load_no_kernels(self):
        # every f64 route's first steps run in the engine, in long double, so
        # a build that is not run never loads the stepping loop
        code = """
import json, sys
from macprod.families import build, list_families
for info in list_families():
    for p in (0.375, 2.0):  # binom-* at an integer p takes the taps route
        build(info.id, {k: p if k == "p" else 0.375 for k in info.param_names}, "f64")
print(json.dumps(sorted(sys.modules)))
"""
        modules = self.fresh(code)
        assert {"numpy", "macprod.recurrence_core"} <= set(modules)
        assert not {"macprod.kernels", "macprod._kernels_py"} & set(modules)

    def test_import_macprod_loads_no_submodule(self):
        code = "import json, sys, macprod; print(json.dumps(sorted(sys.modules)))"
        assert [m for m in self.fresh(code) if m.startswith("macprod")] == ["macprod"]


class TestPackageExports:
    """``macprod`` exports the names of its submodules, each imported on first access."""

    SOURCES = {
        "families": ["Params", "build", "build_M_family", "build_F_family",
                     "build_elliptic_family", "get_family", "list_families"],
        "numerics": ["CoeffStream", "EXACT", "F64", "GaussianRational", "PiLinear", "Rational",
                     "approximate", "format_scalar", "get_backend", "parse_scalar", "pochhammer"],
        "recurrence_core": ["RecurrenceSpec", "ComboSpec", "run"],
        "series_oracle": ["Elementary", "cauchy_product", "elementary_series", "gauss_series",
                          "hyper_base_series", "kummer_series"],
        "verify": ["DeviationReport", "BenchReport", "compare_oracle", "compare_formulations",
                   "bench", "sweep"],
    }

    def test_every_export_is_its_submodules_object(self):
        import importlib

        import macprod

        names = [name for names in self.SOURCES.values() for name in names]
        assert macprod.__all__ == [*names, "__version__"]
        for module, names in self.SOURCES.items():
            mod = importlib.import_module(f"macprod.{module}")
            for name in names:
                assert getattr(macprod, name) is getattr(mod, name), name
        assert set(macprod.__all__) <= set(dir(macprod))

    def test_the_stream_type_is_one_object(self):
        from macprod import recurrence_core, series_oracle

        assert series_oracle.CoeffStream is numerics.CoeffStream
        assert recurrence_core.CoeffStream is numerics.CoeffStream

    def test_star_import_binds_every_export(self):
        import macprod

        namespace = {}
        exec("from macprod import *", namespace)
        for name in macprod.__all__:
            assert namespace[name] is getattr(macprod, name), name

    def test_other_names_raise_attribute_error(self):
        import macprod

        with pytest.raises(AttributeError, match="nope"):
            macprod.nope
        assert not hasattr(macprod, "__nope__")

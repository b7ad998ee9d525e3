import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from macprod import _kernels_py, kernels
from macprod.families import Params, conform_params, get_family
from macprod.numerics import EXACT, GaussianRational, approximate
from macprod.series_oracle import cauchy_product, elementary_series, hyper_base_series
from macprod.verify import elementary_factor


def _random_complex(rng, n):
    return (rng.standard_normal(n) + 1j * rng.standard_normal(n)).astype(np.complex128)


class TestConvolve:
    def test_matches_direct_sum(self):
        rng = np.random.default_rng(1)
        a = _random_complex(rng, 40)
        b = _random_complex(rng, 40)
        out = kernels.convolve(a, b)
        want = np.array(
            [sum(a[k] * b[n - k] for k in range(n + 1)) for n in range(40)]
        )
        assert np.allclose(out, want, rtol=1e-12, atol=0)

    def test_matches_numpy_prefix(self):
        rng = np.random.default_rng(2)
        a = _random_complex(rng, 64)
        b = _random_complex(rng, 64)
        out = kernels.convolve(a, b)
        assert np.allclose(out, np.convolve(a, b)[:64], rtol=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            kernels.convolve(np.zeros(3, complex), np.zeros(4, complex))

    def test_accuracy_against_exact_oracle(self):
        # f64 operands rounded from exact series; the exact product is the
        # referee.  Metric |x - y| / max(1, |y|), as verify's f64 comparison.
        # Measured at most 1.1e-16 (one ulp at 1); the bound allows 9 ulps at 1,
        # well below the a-priori 257 eps (2.9e-14) for sums of 257 products.
        N = 256
        bound = 1e-15
        cases = [
            ("exp-M", Params(a=Fraction(1, 3), c=Fraction(7, 5), p=Fraction(3, 2))),
            ("binom-F", Params(a=Fraction(1, 3), b=Fraction(-5, 4), c=Fraction(7, 5),
                               p=Fraction(3, 2), theta=Fraction(1, 2))),
            ("cos-M", Params(a=Fraction(1, 3), c=Fraction(7, 5),
                             p=GaussianRational(Fraction(1, 2), Fraction(1, 3)))),
        ]
        for family_id, params in cases:
            info = get_family(family_id)
            pp = conform_params(params, EXACT)
            h = elementary_series(elementary_factor(info, pp), N, EXACT)
            base = hyper_base_series(info.base, N, EXACT, a=pp.a, b=pp.b, c=pp.c)
            want = np.array([approximate(v) for v in cauchy_product(h, base).coeffs])
            got = kernels.convolve(
                [approximate(v) for v in h.coeffs], [approximate(v) for v in base.coeffs]
            )
            err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
            assert err.max() <= bound, (family_id, err.max())
        assert any(v.imag for v in want), "one case must have complex coefficients"


    @pytest.mark.parametrize("N", [kernels._CONV_WHOLE + 1, 4097])
    def test_split_product_at_long_lengths(self, N):
        # past _CONV_WHOLE entries the product splits in halves; Gaussian-integer
        # operands below 2^10 keep every partial sum exact in f64, so the
        # result must equal the exact product in integer arithmetic
        rng = np.random.default_rng(N)
        parts = rng.integers(-1024, 1024, size=(4, N))
        a, b = parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]
        re = np.convolve(parts[0], parts[2])[:N] - np.convolve(parts[1], parts[3])[:N]
        im = np.convolve(parts[0], parts[3])[:N] + np.convolve(parts[1], parts[2])[:N]
        got = kernels.convolve(a, b)
        assert np.array_equal(got.real, re) and np.array_equal(got.imag, im)
        # one real operand keeps the complex product
        got = kernels.convolve(parts[0].astype(np.complex128), b)
        re, im = np.convolve(parts[0], parts[2])[:N], np.convolve(parts[0], parts[3])[:N]
        assert np.array_equal(got.real, re) and np.array_equal(got.imag, im)
        # and rounded operands stay within a few ulps of the largest entry
        x, y = _random_complex(rng, N), _random_complex(rng, N)
        want = np.convolve(x, y)[:N]
        assert np.abs(kernels.convolve(x, y) - want).max() <= 1e-14 * np.abs(want).max()

    @pytest.mark.parametrize("N", [40, kernels._CONV_WHOLE + 1, 4097])
    def test_real_operands_give_the_real_product(self, N):
        # two real operands multiply in float64; integers below 2^10 keep
        # every partial sum exact, so the result is the integer product
        rng = np.random.default_rng(N + 1)
        x, y = rng.integers(-1024, 1024, size=(2, N))
        got = kernels.convolve(x.astype(np.complex128), y.astype(np.complex128))
        assert got.dtype == np.complex128
        assert np.array_equal(got.real, np.convolve(x, y)[:N])
        assert not got.imag.any() and not np.signbit(got.imag).any()


#: the stream dtypes the kernel steps: double and long double
STREAMS = [np.complex128, np.clongdouble]


def _same(a, b) -> bool:
    """Whether two streams hold the same values, the signs of zeros too: bit
    for bit but for NaN payloads and a long double's padding bytes."""
    signs = [np.array_equal(np.signbit(x), np.signbit(y))
             for x, y in ((a.real, b.real), (a.imag, b.imag))]
    return a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True) and all(signs)


def _random_polys(rng, sets, k, width, cplx):
    """Random row polynomials with P_0 kept away from zero and some lags zero."""
    P = rng.standard_normal((sets, k + 2, width)).astype(np.longdouble)
    if cplx:
        P = P + 1j * rng.standard_normal(P.shape).astype(np.longdouble)
    P[:, 0, -1] += 8 * np.sign(P[:, 0, -1].real)
    P[:, 0, :-1] /= 1000  # |P_0(m)| grows with m, so the stream stays bounded
    P[:, 1:, :-1] /= 1000
    P[:, 1:] *= 0.25 / (k + 1)
    P[rng.random((sets, k + 2)) < 0.3] = 0
    P[:, 0, -1] = np.where(P[:, 0, -1] == 0, 9, P[:, 0, -1])
    return P


class TestRecurrenceSteps:
    def test_known_solution(self):
        # u[n+1] = u[n] / 2 from u[0..1]: P_0 = 2, P_1 = 1, P_2 = 0
        polys = np.array([[[2], [1], [0]]], dtype=np.longdouble)
        u = np.zeros(12, dtype=np.complex128)
        u[0] = 4.0
        u[1] = 2.0
        assert kernels.recurrence_steps(polys, u, 1) is None
        assert np.allclose(u, 4.0 * 0.5 ** np.arange(12))

    def test_shape_validation(self):
        u = np.zeros(10, complex)
        for polys, n0 in (
            (np.zeros((3, 2)), 1),  # not one set per sequence
            (np.zeros((1, 1, 2)), 1),  # no P_1
            (np.ones((0, 3, 1)), 1),  # no set
            (np.ones((1, 3, 0)), 1),  # no coefficient
            (np.ones((1, 3, 1)), 10),  # u[10] is past the end
            (np.ones((1, 3, 1)), -1),  # u[-1] is before the start
        ):
            with pytest.raises(ValueError):
                kernels.recurrence_steps(polys, u, n0)
        # not a complex128 or complex long double vector
        for v in (np.zeros(10), np.zeros(10, np.complex64), np.zeros((2, 5), complex)):
            with pytest.raises(ValueError, match="complex128 or complex long double vector"):
                kernels.recurrence_steps(np.ones((1, 3, 1)), v, 1)

    @pytest.mark.parametrize("dtype", STREAMS)
    @pytest.mark.parametrize("order, n0", [(2, 1), (1, 0), (3, 0)])
    def test_steps_below_the_order_read_zero_before_u0(self, order, n0, dtype):
        # u[m+1] = (m + 1) u[m] + 2 u[m-1] + ... + (order + 1) u[m-order],
        # from seeds that stop below the order: the lags past m read u below
        # index 0, which is 0.  u is a view into an array whose entries
        # before it are 7 + 7j, so a read before u[0] (or a Python index
        # that wraps to u's end) changes the integers the loop writes
        polys = np.zeros((1, order + 2, 2), dtype=np.longdouble)
        polys[0, 0] = 0, 1
        polys[0, 1] = 1, 1
        for i in range(1, order + 1):
            polys[0, i + 1] = 0, i + 1
        want = [3, -1][: n0 + 1]
        for m in range(n0, 12):
            want.append(sum(c * want[m - i] for i, c in enumerate([m + 1, *range(2, order + 2)])
                            if m - i >= 0))
        for impl in kernels.implementations().values():
            base = np.full(16, 7 + 7j, dtype=dtype)
            u = base[3:]
            u[:] = 0
            u[: n0 + 1] = want[: n0 + 1]
            assert kernels.recurrence_steps(polys, u, n0, impl=impl) is None
            assert u.tolist() == want
            assert (base[:3] == 7 + 7j).all()

    def test_strided_u_steps_as_the_contiguous_one(self):
        # every other entry of a longer array: the compiled loop steps a
        # contiguous copy and writes it back
        polys = _random_polys(np.random.default_rng(11), 2, 3, 2, True)
        want = np.zeros(40, dtype=np.complex128)
        want[:4] = [1.0, 0.5j, -0.25, 2.0]
        kernels.recurrence_steps(polys, want, 3)
        for impl in kernels.implementations().values():
            base = np.zeros(80, dtype=np.complex128)
            u = base[::2]
            u[:4] = want[:4]
            assert kernels.recurrence_steps(polys, u, 3, impl=impl) is None
            assert np.array_equal(u.copy().view(np.uint64), want.view(np.uint64))
            assert not base[1::2].any()

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("sets", [1, 4])
    def test_implementations_agree_bitwise(self, sets, cplx):
        self.check_agree(sets, cplx, np.complex128)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("sets", [1, 4])
    def test_implementations_agree_bitwise_in_long_double(self, sets, cplx):
        self.check_agree(sets, cplx, np.clongdouble)

    @staticmethod
    def check_agree(sets, cplx, dtype):
        impls = kernels.implementations()
        if len(impls) < 2:
            pytest.skip("compiled kernels unavailable")
        rng = np.random.default_rng(4 + sets + 2 * cplx)
        polys = _random_polys(rng, sets, 4, 3, cplx)
        results = []
        for impl in impls.values():
            u = np.zeros(308, dtype=dtype)  # the steps from index 7, after 3 zeros
            u[3:8] = [1.0, 0.9, 0.8, 0.7, 0.6]
            assert kernels.recurrence_steps(polys, u, 7, impl=impl) is None
            results.append(u)
        assert np.isfinite(results[0]).all()
        assert _same(results[0], results[1])

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_rows_match_the_steps(self, cplx):
        self.check_rows(cplx, np.complex128)

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    def test_rows_match_the_steps_in_long_double(self, cplx):
        self.check_rows(cplx, np.clongdouble)

    @staticmethod
    def check_rows(cplx, dtype):
        # the fallback's entries, in the stream's dtype, are what the loop
        # multiplies by: one step from unit vectors reads each entry back
        rng = np.random.default_rng(7)
        polys = _random_polys(rng, 2, 3, 2, cplx)
        polys[1, 2] = 0  # set 1 has no lag 1
        rows, good = _kernels_py.rows(polys, 5, 6, dtype)
        assert good == 6 and rows.dtype == dtype
        for impl in kernels.implementations().values():
            for m in range(5, 11):
                for i in range(4):
                    u = np.zeros(m + 2, dtype=dtype)  # the one step at index m
                    u[m - i] = 1
                    kernels.recurrence_steps(polys, u, m, impl=impl)
                    assert u[m + 1] == rows[m - 5, i]
        assert (rows[1::2, 1] == 0).all()  # set 1 steps m = 6, 8, 10

    @pytest.mark.parametrize("cplx", [False, True], ids=["real", "complex"])
    @pytest.mark.parametrize("fault", ["denominator", "entry"])
    def test_first_bad_index(self, fault, cplx):
        # P_0 = m - 40 vanishes at m = 40, and the loop stops there; or the
        # entry 1e306 m^2 / P_0 leaves double and the loop steps on: P_0 = 8
        # from m = 38 (1e306 * 38^2 / 8 > 1.798e308), and P_0 = 8 + 8i, the
        # parts 1e306 m^2 / 16 and its negative, from m = 54.  From
        # u = (1, 0, ...) every value is 0 until that entry, so no value
        # overflows first, and the values are not finite from the one it writes
        dtype = np.clongdouble if cplx else np.longdouble
        polys = np.zeros((1, 3, 3), dtype=dtype)
        if fault == "denominator":
            polys[0, 0] = 0, 1, -40
            polys[0, 1] = 0, 0, 1
            bad = 40
        else:
            polys[0, 0] = 0, 0, 8
            polys[0, 1] = 1e306, 0, 0
            bad = 54 if cplx else 38
        if cplx:
            polys[0, 0] *= 1 + 1j
        results = []
        for impl in kernels.implementations().values():
            u = np.zeros(70, dtype=np.complex128)
            if fault == "denominator":
                u[0] = u[1] = 1
                assert kernels.recurrence_steps(polys, u, 1, impl=impl) == bad
                assert np.all(u[bad + 1:] == 0) and np.all(u[: bad + 1] != 0)  # stepped up to it
                results.append(u.view(np.uint64))
            else:
                u[0] = 1
                assert kernels.recurrence_steps(polys, u, 1, impl=impl) is None
                finite = np.isfinite(u)
                assert finite[: bad + 1].all() and not finite[bad + 1:].any()
                results.append(finite)
        assert np.array_equal(results[0], results[-1])

    @pytest.mark.parametrize("dtype", STREAMS)
    def test_singular_row_below_the_order(self, dtype):
        # order 3 from u_0 alone, P_0 = m - 2: the steps at m = 0 and 1 read
        # u below index 0, the one at m = 2 is singular and returns its index
        polys = np.zeros((1, 5, 2), dtype=np.longdouble)
        polys[0, 0] = 1, -2
        polys[0, 1:] = 0, 1
        results = []
        for impl in kernels.implementations().values():
            u = np.zeros(9, dtype=dtype)
            u[0] = 4
            assert kernels.recurrence_steps(polys, u, 0, impl=impl) == 2
            assert u.tolist() == [4, -2, -2, 0, 0, 0, 0, 0, 0]  # stepped up to it
            results.append(u)
        assert _same(results[0], results[-1])


class TestSelection:
    def test_default_prefers_compiled_when_built(self):
        impls = kernels.implementations()
        if "compiled" in impls:
            assert kernels.implementation_name() == "compiled"

    def test_built_loop_loads_without_subprocess(self):
        # only a cache miss compiles, so a process that finds the loop built
        # never imports subprocess
        if kernels._c_impl() is None:
            pytest.skip("the C loop cannot be built here")
        code = (
            "import contextlib, io, sys; from macprod import cli, kernels\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = cli.main(['coeffs', '--family', 'exp-F', '--backend', 'f64', '--count',"
            " '40', '--a=1/2', '--b=1/3', '--c=5/4', '--p=1'])\n"
            "print(code, kernels.implementation_name(), 'subprocess' in sys.modules)"
        )
        src = os.path.dirname(os.path.dirname(kernels.__file__))
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=src), timeout=120)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == ["0", "compiled", "False"]

    def _fresh_copy_run(self, root, path_env):
        """Run one f64 request on a copy of the package with no build cache;
        return (stdout lines, files added to the copy)."""
        pkg = root / "macprod"
        shutil.copytree(
            os.path.dirname(kernels.__file__), pkg, ignore=shutil.ignore_patterns("__pycache__")
        )
        before = set(pkg.rglob("*"))
        code = (
            "import macprod.kernels as k; from macprod import cli; "
            "cli.main(['coeffs', '--family', 'exp-F', '--backend', 'f64', '--count', '40', "
            "'--a=1/2', '--b=1/3', '--c=5/4', '--p=1']); print(k.implementation_name())"
        )
        env = dict(os.environ, PYTHONPATH=str(root), PATH=path_env, PYTHONDONTWRITEBYTECODE="1")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
        )
        assert out.returncode == 0, out.stderr
        added = sorted(str(p.relative_to(pkg)) for p in set(pkg.rglob("*")) - before if p.is_file())
        return out.stdout.splitlines(), added

    def _compiled_run(self, root):
        if shutil.which("cc") is None:
            pytest.skip("no C compiler")
        lines, added = self._fresh_copy_run(root, os.environ.get("PATH", ""))
        assert lines[-1] == "compiled"
        assert len(added) == 1
        assert re.fullmatch(r"__pycache__/_step-[0-9a-f]{16}\.[\w.-]+\.so", added[0])
        return lines

    def test_builds_on_first_use_into_pycache_only(self, tmp_path):
        self._compiled_run(tmp_path)

    def test_no_compiler_falls_back_with_same_output(self, tmp_path):
        empty = tmp_path / "empty-path"
        empty.mkdir()
        (tmp_path / "no-cc").mkdir()
        lines, added = self._fresh_copy_run(tmp_path / "no-cc", str(empty))
        assert lines[-1] == "python"
        assert added == []
        if shutil.which("cc") is not None:
            (tmp_path / "cc").mkdir()
            assert lines[:-1] == self._compiled_run(tmp_path / "cc")[:-1]

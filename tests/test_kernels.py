import os
import re
import shutil
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

from macprod import kernels
from macprod.families import Params, conform_params, elementary_factor, get_family
from macprod.numerics import EXACT, GaussianRational, approximate
from macprod.series_oracle import cauchy_product, elementary_series, hyper_base_series


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
        # and rounded operands stay within a few ulps of the largest entry
        x, y = _random_complex(rng, N), _random_complex(rng, N)
        want = np.convolve(x, y)[:N]
        assert np.abs(kernels.convolve(x, y) - want).max() <= 1e-14 * np.abs(want).max()


class TestRecurrenceSteps:
    def test_known_solution(self):
        # u[n+1] = u[n]/2 from u[0..1]
        rows = np.full((10, 2), 0.0, dtype=np.complex128)
        rows[:, 0] = 0.5
        u = np.zeros(12, dtype=np.complex128)
        u[0] = 4.0
        u[1] = 2.0
        kernels.recurrence_steps(rows, u, 1)
        assert np.allclose(u, 4.0 * 0.5 ** np.arange(12))

    def test_row_count_validation(self):
        with pytest.raises(ValueError):
            kernels.recurrence_steps(
                np.zeros((3, 2), complex), np.zeros(10, complex), 1
            )

    def test_implementations_agree_bitwise(self):
        impls = kernels.implementations()
        if len(impls) < 2:
            pytest.skip("compiled kernels unavailable")
        rng = np.random.default_rng(4)
        rows = (0.3 * rng.standard_normal((300, 5)) + 0.1j * rng.standard_normal((300, 5)))
        results = []
        for impl in impls.values():
            u = np.zeros(305, dtype=np.complex128)
            u[:5] = [1.0, 0.9, 0.8, 0.7, 0.6]
            kernels.recurrence_steps(rows, u, 4, impl=impl)
            results.append(u)
        assert np.all(results[0] == results[1])


class TestSelection:
    def test_pure_python_override(self):
        code = (
            "import macprod.kernels as k; "
            "print(k.implementation_name())"
        )
        env = dict(os.environ, MACPROD_PURE="1")
        out = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, env=env
        )
        assert out.returncode == 0
        assert out.stdout.split() == ["python"]

    def test_default_prefers_compiled_when_built(self):
        if os.environ.get("MACPROD_PURE") == "1":
            pytest.skip("pure-Python override active")
        impls = kernels.implementations()
        if "compiled" in impls:
            assert kernels.implementation_name() == "compiled"

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
        env.pop("MACPROD_PURE", None)
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

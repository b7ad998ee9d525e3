from fractions import Fraction
from random import Random
from zlib import crc32

import numpy as np
import pytest

from macprod.families import get_family

from macprod.numerics import (
    EXACT,
    GaussianRational,
    NonFiniteError,
    ParameterDomainError,
    PiDegreeError,
    PiLinear,
    approximate,
)
from macprod.series_oracle import (
    ELEMENTARY_KINDS,
    CoeffStream,
    Elementary,
    cauchy_product,
    elementary_series,
    gauss_series,
    hyper_base_series,
    kummer_series,
    scale_stream,
)
from macprod.verify import draw_params

G = GaussianRational


def gr(num, den=1):
    return G(Fraction(num, den))


def unit(N, backend="exact"):
    """The identity (1, 0, 0, ...) of the Cauchy product, through z^N."""
    one, zero = (gr(1), gr(0)) if backend == "exact" else (1 + 0j, 0j)
    return CoeffStream((one,) + (zero,) * N, backend)


class TestKummer:
    def test_a_equals_c_is_exponential(self):
        s = kummer_series(gr(7, 3), gr(7, 3), 4)
        assert s.coeffs == (gr(1), gr(1), gr(1, 2), gr(1, 6), gr(1, 24))

    def test_entry_two(self):
        s = kummer_series(gr(1), gr(2), 4)
        assert s[2] == gr(1, 6)

    def test_zero_a_truncates(self):
        s = kummer_series(gr(0), gr(5, 2), 3)
        assert s.coeffs == (gr(1), gr(0), gr(0), gr(0))

    def test_invalid_c(self):
        with pytest.raises(ParameterDomainError):
            kummer_series(gr(1), gr(-3), 4)
        with pytest.raises(ParameterDomainError):
            kummer_series(gr(1), gr(0), 4)


class TestGauss:
    def test_geometric(self):
        s = gauss_series(gr(1), gr(1), gr(1), 3)
        assert s.coeffs == (gr(1), gr(1), gr(1), gr(1))

    def test_entry_one_half_params(self):
        s = gauss_series(gr(1, 2), gr(1, 2), gr(1), 2)
        assert s[1] == gr(1, 4)

    def test_zero_b(self):
        s = gauss_series(gr(3), gr(0), gr(2), 2)
        assert s.coeffs == (gr(1), gr(0), gr(0))

    def test_contiguous_to_binomial(self):
        # F(a,b;b;z) = (1-z)^(-a)
        a = gr(5, 7)
        left = gauss_series(a, gr(3, 2), gr(3, 2), 12)
        right = elementary_series(Elementary("binom", p=-a, theta=gr(1)), 12)
        assert left.coeffs == right.coeffs


class TestElementary:
    def test_exp_arctan_prefix(self):
        p = gr(5, 3)
        s = elementary_series(Elementary("exp_arctan", p=p), 3)
        assert s.coeffs == (
            gr(1),
            -p,
            p * p / 2,
            (2 * p - p ** 3) / 6,
        )

    def test_exp_arctan_at_zero(self):
        s = elementary_series(Elementary("exp_arctan", p=gr(0)), 6)
        assert s.coeffs == unit(6).coeffs

    def test_arcsin_entry_five(self):
        p = gr(2, 5)
        s = elementary_series(Elementary("arcsin", p=p), 5)
        assert s[5] == 3 * p ** 5 / 40

    def test_arcsin_f64_near_float_range(self):
        # |u_n| ~ 2^n / n^1.5 stays finite through n = 1023; the update must not
        # overshoot the float range before it divides
        exact = elementary_series(Elementary("arcsin", p=gr(2)), 1023)
        fl = elementary_series(Elementary("arcsin", p=2.0), 1023, "f64")
        want = approximate(exact[1023])
        assert abs(fl[1023] - want) <= 1e-12 * abs(want)

    def test_binomial_linear(self):
        s = elementary_series(Elementary("binom", p=gr(1), theta=gr(1)), 3)
        assert s.coeffs == (gr(1), gr(-1), gr(0), gr(0))

    def test_arccos_is_half_pi_minus_arcsin(self):
        p = gr(3, 4)
        arccos = elementary_series(Elementary("arccos", p=p), 9)
        arcsin = elementary_series(Elementary("arcsin", p=p), 9)
        half_pi = EXACT.half_pi()
        expect = tuple(
            half_pi * u - v
            for u, v in zip(unit(9).coeffs, arcsin.coeffs)
        )
        assert arccos.coeffs == expect

    def test_pythagorean_convolution(self):
        p = gr(4, 7)
        sin = elementary_series(Elementary("sin", p=p), 24)
        cos = elementary_series(Elementary("cos", p=p), 24)
        total = tuple(
            x + y
            for x, y in zip(
                cauchy_product(sin, sin).coeffs, cauchy_product(cos, cos).coeffs
            )
        )
        assert total == unit(24).coeffs

    def test_arity_validation(self):
        with pytest.raises(ParameterDomainError):
            Elementary("sin", p=gr(1), theta=gr(1))
        with pytest.raises(ParameterDomainError):
            Elementary("binom", p=gr(1))
        with pytest.raises(ParameterDomainError):
            Elementary("tan", p=gr(1))
        with pytest.raises(ParameterDomainError, match="exp requires parameter p"):
            Elementary("exp")


def random_stream(rng, N):
    coeffs = tuple(
        G(Fraction(rng.randint(-9, 9), rng.randint(1, 9))) for _ in range(N + 1)
    )
    return CoeffStream(coeffs, "exact")


class TestCauchyProduct:
    def test_exp_squared(self):
        e = elementary_series(Elementary("exp", p=gr(1)), 8)
        sq = cauchy_product(e, e)
        e2 = elementary_series(Elementary("exp", p=gr(2)), 8)
        assert sq.coeffs == e2.coeffs

    def test_exp_times_kummer_entry(self):
        e = elementary_series(Elementary("exp", p=gr(1)), 4)
        m = kummer_series(gr(1), gr(2), 4)
        assert cauchy_product(e, m)[2] == gr(7, 6)

    def test_identity(self):
        rng = Random(3)
        A = random_stream(rng, 12)
        assert cauchy_product(A, unit(12)).coeffs == A.coeffs

    def test_commutative_associative(self):
        rng = Random(4)
        for _ in range(5):
            A = random_stream(rng, 16)
            B = random_stream(rng, 16)
            C = random_stream(rng, 16)
            AB = cauchy_product(A, B)
            assert AB.coeffs == cauchy_product(B, A).coeffs
            assert (
                cauchy_product(AB, C).coeffs
                == cauchy_product(A, cauchy_product(B, C)).coeffs
            )

    @staticmethod
    def mixed_stream(rng, N, pi_from=None):
        """Complex entries; PiLinear from ``pi_from`` on, with a pi term there
        and a zero one (still PiLinear) after it."""

        def rational():
            return Fraction(rng.randint(-9, 9), rng.randint(1, 9))

        coeffs = []
        for n in range(N + 1):
            v = G(rational(), rational())
            if pi_from is not None and n >= pi_from:
                v = PiLinear(v, G(rational(), rational()) if n == pi_from else G(0))
            coeffs.append(v)
        return CoeffStream(tuple(coeffs), "exact")

    @pytest.mark.parametrize("pi_a, pi_b", [(None, None), (3, None), (None, 0), (5, 6)])
    def test_equals_termwise_sum(self, pi_a, pi_b):
        # reference: the sum of the entries' own products, left to right
        rng = Random(7)
        N = 10
        A, B = self.mixed_stream(rng, N, pi_a), self.mixed_stream(rng, N, pi_b)
        want = tuple(
            sum((A[k] * B[n - k] for k in range(1, n + 1)), A[0] * B[n]) for n in range(N + 1)
        )
        got = cauchy_product(A, B).coeffs
        assert got == want
        assert [repr(v) for v in got] == [repr(v) for v in want]

    def test_pi_squared_raises(self):
        rng = Random(8)
        A, B = self.mixed_stream(rng, 10, 4), self.mixed_stream(rng, 10, 6)
        with pytest.raises(PiDegreeError):
            cauchy_product(A, B)

    def test_backend_mismatch(self):
        A = unit(4, "exact")
        B = unit(4, "f64")
        with pytest.raises(ValueError, match="backend"):
            cauchy_product(A, B)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            cauchy_product(unit(4), unit(5))


class TestFiniteChecks:
    """An f64 oracle stream that overflows raises at its first non-finite entry."""

    def test_series_names_first_overflow(self):
        # (1e200)^n / n! is finite at n = 0, 1 and overflows from n = 2 on
        with pytest.raises(NonFiniteError, match="at n=2") as exc:
            elementary_series(Elementary("exp", p=1e200), 8, "f64")
        assert exc.value.index == 2

    @pytest.mark.parametrize(
        "kind, p, theta, index",
        [("sin", 1e160, None, 3), ("cosh", 1e155, None, 2), ("arcsin", 1e160, None, 3),
         ("binom", 0.5, 1e200, 2)],
    )
    def test_running_product_names_first_overflow(self, kind, p, theta, index):
        # indices as the per-entry loop that built these series reported them
        with pytest.raises(NonFiniteError, match=f"at n={index}") as exc:
            elementary_series(Elementary(kind, p=p, theta=theta), 8, "f64")
        assert exc.value.index == index

    def test_no_overflow_before_the_division(self):
        # entry 1017 of (1 + 2z)^(-4/5) is about 1e306; the entry before it
        # times theta (p - n) overflows unless the ratio is formed first
        s = elementary_series(Elementary("binom", p=-0.8, theta=-2.0), 1024, "f64")
        assert np.isfinite(s.coeffs).all()
        assert 1e305 < abs(s[1017]) < 1e307

    def test_kummer_series_names_first_overflow(self):
        with pytest.raises(NonFiniteError) as exc:
            kummer_series(1e200, 1.0, 6, "f64")
        assert exc.value.index == 2

    def test_gauss_series_names_first_overflow(self):
        with pytest.raises(NonFiniteError) as exc:
            gauss_series(1e200, 1e200, 1.0, 6, "f64")
        assert exc.value.index == 1

    def test_product_names_first_overflow(self):
        # entries 0..2 are 1, 1e300 and 1e10; entry 3 is 1e300 * 1e10
        A = CoeffStream((1 + 0j, 1e300 + 0j, 0j, 0j, 1j), "f64")
        B = CoeffStream((1 + 0j, 0j, 1e10j, 0j, 0j), "f64")
        with pytest.raises(NonFiniteError, match="cauchy_product.*at n=3") as exc:
            cauchy_product(A, B)
        assert exc.value.index == 3

    def test_finite_product_passes(self):
        A = CoeffStream((1 + 0j, 1e300 + 0j, 0j), "f64")
        B = CoeffStream((1 + 0j, 1 + 0j, 0j), "f64")
        assert cauchy_product(A, B).coeffs.tolist() == [1 + 0j, 1e300 + 1 + 0j, 1e300 + 0j]


class TestFloatSeries:
    """The f64 series (running products of the term ratio) against the exact
    series rounded, at N = 1024: entry n within (n + 1) * 1e-15 relative,
    relative to the smallest normal double where the entries underflow."""

    N = 1024
    TINY = np.finfo(np.float64).tiny

    def _check(self, fl, exact):
        assert fl.backend == "f64" and fl.coeffs.dtype == np.complex128
        for n, (x, y) in enumerate(zip(fl.coeffs, exact.coeffs)):
            ya = approximate(y)
            assert abs(x - ya) <= (n + 1) * 1e-15 * max(abs(ya), self.TINY), n

    @staticmethod
    def _draws(family_id, count=3):
        info = get_family(family_id)
        rng = Random(crc32(family_id.encode()))
        return [draw_params(info, rng) for _ in range(count)]

    @pytest.mark.parametrize("kind", ELEMENTARY_KINDS)
    def test_elementary(self, kind):
        family_id = {"exp_arctan": "arctanexp-M"}.get(kind, f"{kind}-M")
        for pe in self._draws(family_id):
            h = Elementary(kind, p=pe.p, theta=pe.theta)
            hf = Elementary(kind, p=approximate(pe.p),
                            theta=None if pe.theta is None else approximate(pe.theta))
            self._check(elementary_series(hf, self.N, "f64"), elementary_series(h, self.N, EXACT))

    @pytest.mark.parametrize("base", ["M", "F", "K", "E"])
    def test_base(self, base):
        for pe in self._draws(f"exp-{base}"):
            exact = hyper_base_series(base, self.N, EXACT, a=pe.a, b=pe.b, c=pe.c)
            fl = hyper_base_series(
                base, self.N, "f64",
                **{k: None if v is None else approximate(v)
                   for k, v in (("a", pe.a), ("b", pe.b), ("c", pe.c))},
            )
            self._check(fl, exact)


class TestBases:
    def test_elliptic_k_carries_half_pi(self):
        s = hyper_base_series("K", 3)
        half_pi = EXACT.half_pi()
        gauss = gauss_series(Fraction(1, 2), Fraction(1, 2), 1, 3)
        assert s.coeffs == scale_stream(gauss, half_pi).coeffs

    def test_elliptic_e_value(self):
        s = hyper_base_series("E", 2)
        half_pi = EXACT.half_pi()
        # E(sqrt z): (pi/2)(1 - z/4 - 3 z^2/64 - ...)
        assert s[1] == half_pi * gr(-1, 4)
        assert s[2] == half_pi * gr(-3, 64)

    def test_f64_backend(self):
        s = hyper_base_series("K", 2, "f64")
        assert s.backend == "f64"
        assert abs(s[0] - 1.5707963267948966) < 1e-15

    def test_float_parameters_infer_f64(self):
        # no backend given: a float parameter picks f64, exact ones exact
        s = kummer_series(0.5, 1.5, 3)
        assert s.backend == "f64"
        assert s.coeffs.tolist() == pytest.approx([1, 1 / 3, 1 / 10, 1 / 42], rel=1e-15)
        assert kummer_series(Fraction(1, 2), Fraction(3, 2), 3).backend == "exact"

    def test_unknown_base(self):
        with pytest.raises(ParameterDomainError, match="unknown base 'Q'"):
            hyper_base_series("Q", 3)

import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macprod.numerics import (
    EXACT,
    F64,
    BackendMismatchError,
    GaussianRational,
    NonFiniteError,
    ParseError,
    PiDegreeError,
    PiLinear,
    approximate,
    format_scalar,
    get_backend,
    parse_scalar,
    pochhammer,
)

fractions = st.fractions(min_value=-1_000, max_value=1_000, max_denominator=1_000)
gaussians = st.builds(GaussianRational, fractions, fractions)
nonzero_gaussians = gaussians.filter(lambda g: not g.is_zero)


class TestParse:
    def test_complex_rational(self):
        assert parse_scalar("1/2+3/4i", "exact") == GaussianRational(
            Fraction(1, 2), Fraction(3, 4)
        )

    def test_negative_rational(self):
        assert parse_scalar("-3/4", "exact") == GaussianRational(Fraction(-3, 4))

    def test_decimal_float_backend(self):
        assert parse_scalar("0.25", "f64") == 0.25 + 0j

    def test_decimal_rejected_exact(self):
        with pytest.raises(BackendMismatchError, match="0.25"):
            parse_scalar("0.25", "exact")

    def test_malformed_names_token(self):
        with pytest.raises(ParseError, match="1//2"):
            parse_scalar("1//2", "exact")

    def test_missing_imaginary_unit(self):
        with pytest.raises(ParseError):
            parse_scalar("1+2", "exact")

    def test_integer(self):
        assert parse_scalar("-7", "exact") == GaussianRational(-7)
        assert parse_scalar("-7", "f64") == complex(-7)

    def test_pure_imaginary(self):
        assert parse_scalar("2i", "exact") == GaussianRational(0, 2)

    def test_zero_denominator(self):
        with pytest.raises(ParseError):
            parse_scalar("1/0", "exact")

    @given(gaussians)
    def test_roundtrip_exact(self, g):
        assert parse_scalar(format_scalar(g), "exact") == g

    def test_unknown_backend(self):
        with pytest.raises(ParseError):
            get_backend("f32")


class TestGaussianRationalField:
    @given(gaussians, gaussians, gaussians)
    def test_add_mul_associative(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)

    @given(gaussians, gaussians, gaussians)
    def test_distributive(self, x, y, z):
        assert x * (y + z) == x * y + x * z

    @given(nonzero_gaussians)
    def test_multiplicative_inverse(self, x):
        assert x * (GaussianRational(1) / x) == GaussianRational(1)

    @given(gaussians, nonzero_gaussians)
    def test_division_inverts_multiplication(self, x, y):
        assert (x * y) / y == x

    @given(gaussians, gaussians)
    def test_canonical_form(self, x, y):
        # Fraction normalises eagerly: positive denominator, reduced terms
        for v in (x + y, x - y, x * y):
            for part in (v.re, v.im):
                assert part.denominator > 0
                assert math.gcd(abs(part.numerator), part.denominator) == 1

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            GaussianRational(1) / GaussianRational(0)

    def test_no_implicit_float_mixing(self):
        with pytest.raises(TypeError):
            GaussianRational(1) + 0.5


class TestPiLinear:
    def test_pi_squared_rejected(self):
        pi = PiLinear(0, 1)
        with pytest.raises(PiDegreeError):
            pi * pi

    def test_scaling_stays_linear(self):
        half_pi = EXACT.half_pi()
        v = half_pi * GaussianRational(Fraction(2, 3)) + GaussianRational(1, 2)
        assert v.q1 == GaussianRational(Fraction(1, 3))
        assert v.q0 == GaussianRational(1, 2)

    def test_division_by_pure_pi(self):
        half_pi = EXACT.half_pi()
        v = half_pi * GaussianRational(Fraction(5, 7))
        assert v / half_pi == GaussianRational(Fraction(5, 7))

    def test_division_mixed_rejected(self):
        with pytest.raises(PiDegreeError):
            PiLinear(1, 1) / PiLinear(1, 1)

    def test_pi_free_equals_gaussian(self):
        assert PiLinear(GaussianRational(Fraction(1, 2))) == GaussianRational(
            Fraction(1, 2)
        )

    def test_division_by_pi_needs_pi_free_zero(self):
        with pytest.raises(PiDegreeError):
            PiLinear(1, 1) / PiLinear(0, 1)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(GaussianRational(3), 0) == GaussianRational(1)

    def test_rising_integer(self):
        assert pochhammer(GaussianRational(2), 3) == GaussianRational(24)

    def test_rising_half(self):
        assert pochhammer(Fraction(1, 2), 2) == Fraction(3, 4)

    def test_negative_index(self):
        with pytest.raises(ValueError):
            pochhammer(GaussianRational(1), -1)

    def test_float_overflow(self):
        with pytest.raises(NonFiniteError):
            pochhammer(complex(1e300), 3)

    @pytest.mark.parametrize("x", [Fraction(1, 2), Fraction(-7, 3), Fraction(4)])
    def test_shift_identity(self, x):
        # (x)_{m+n} = (x)_m (x+m)_n over the full 0..30 grid
        for m in range(0, 31):
            left_m = pochhammer(x, m)
            for n in range(0, 31):
                assert pochhammer(x, m + n) == left_m * pochhammer(x + m, n)


class TestApproximate:
    def test_half_pi(self):
        assert approximate(EXACT.half_pi()) == complex(1.5707963267948966)

    def test_rational(self):
        assert approximate(GaussianRational(Fraction(7, 6))) == complex(
            1.1666666666666667
        )

    def test_complex_identity(self):
        assert approximate(complex(1, -1)) == complex(1, -1)

    @given(
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
        st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**6),
    )
    @settings(max_examples=300)
    def test_multiplicative_homomorphism(self, x, y):
        gx, gy = GaussianRational(x), GaussianRational(y)
        lhs = approximate(gx * gy)
        rhs = approximate(gx) * approximate(gy)
        scale = max(1.0, abs(rhs))
        assert abs(lhs - rhs) <= 4 * 2.220446049250313e-16 * scale

    @pytest.mark.parametrize(
        "x",
        [
            Fraction(10**400, 3),
            10**400,
            GaussianRational(1, Fraction(10**400)),
            PiLinear(0, GaussianRational(-(10**400))),
        ],
    )
    def test_past_double_is_non_finite(self, x):
        # float() of an int or Fraction past double raises OverflowError
        with pytest.raises(NonFiniteError):
            approximate(x)

    def test_one_way_only(self):
        with pytest.raises(BackendMismatchError):
            F64.coerce(GaussianRational(1))

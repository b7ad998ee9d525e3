import inspect
import math
import pickle
import re
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from macprod.families import FamilyInfo, Params
from macprod.numerics import (
    EXACT,
    F64,
    BackendMismatchError,
    CoeffStream,
    GaussianRational,
    NonFiniteError,
    ParameterDomainError,
    ParseError,
    PiDegreeError,
    PiLinear,
    approximate,
    format_scalar,
    get_backend,
    is_nonpositive_integer,
    parse_scalar,
    pochhammer,
)
from macprod.recurrence_core import ComboSpec, RecurrenceSpec
from macprod.series_oracle import Elementary
from macprod.verify import BenchReport, DeviationReport

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

    @pytest.mark.parametrize(
        "text", ["1e400", "-1e400", "1e309i", "1+1e400i", "1" + "0" * 400, "-1" + "0" * 400 + "/3"],
        ids=["1e400", "-1e400", "1e309i", "1+1e400i", "10^400", "-10^400/3"],
    )
    def test_past_double_is_a_parse_error_in_f64(self, text):
        # input text, not a failure of the computation
        with pytest.raises(ParseError, match=re.escape(f"scalar text '{text}' is not finite")):
            parse_scalar(text, "f64")

    @given(gaussians)
    def test_roundtrip_exact(self, g):
        assert parse_scalar(format_scalar(g), "exact") == g
        assert format_scalar(PiLinear(g)) == format_scalar(g)  # a pi part of 0 is not written

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

    @pytest.mark.parametrize("x", [GaussianRational(1, 2), PiLinear(1, 1)],
                             ids=["gaussian", "pi-linear"])
    @pytest.mark.parametrize("op", [
        lambda x: x + 0.5, lambda x: 0.5 + x, lambda x: x - 0.5, lambda x: 0.5 - x,
        lambda x: x * 0.5, lambda x: 0.5 * x, lambda x: x / 0.5, lambda x: 0.5 / x,
        lambda x: x ** 0.5, lambda x: type(x)(0.5),
    ], ids=["add", "radd", "sub", "rsub", "mul", "rmul", "div", "rdiv", "pow", "init"])
    def test_float_operands_are_a_type_error(self, x, op):
        with pytest.raises(TypeError):
            op(x)

    @pytest.mark.parametrize("x", [GaussianRational(1), PiLinear(1)], ids=["gaussian", "pi-linear"])
    def test_floats_never_compare_equal(self, x):
        assert x != 1.0 and not x == 1.0 and x == 1


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

    def test_division_by_a_pi_free_value(self):
        v = PiLinear(GaussianRational(1, 2), Fraction(1, 3)) / GaussianRational(Fraction(2, 3))
        assert (v.q0, v.q1) == (GaussianRational(Fraction(3, 2), 3), GaussianRational(Fraction(1, 2)))

    @pytest.mark.parametrize("value, excluded", [
        (PiLinear(-2), True), (PiLinear(0), True), (PiLinear(-2, 1), False),
        (PiLinear(Fraction(-1, 2)), False), (GaussianRational(-3), True),
        (GaussianRational(-3, 1), False), (Fraction(-4, 2), True), (1, False),
        (-2.0, True), (-2.5, False), (complex(-2, 1), False),
    ])
    def test_nonpositive_integers(self, value, excluded):
        assert is_nonpositive_integer(value) is excluded

    def test_division_by_pi_needs_pi_free_zero(self):
        with pytest.raises(PiDegreeError):
            PiLinear(1, 1) / PiLinear(0, 1)


#: exact literals: ints, Fractions, Gaussian rationals and pi-linear values
reals = st.one_of(st.integers(min_value=-(10**30), max_value=10**30), fractions)
pi_linears = st.builds(PiLinear, gaussians, gaussians)


def _outcome(f):
    """f() or the type of the exception it raised."""
    try:
        return f()
    except (ZeroDivisionError, PiDegreeError) as exc:
        return type(exc)


class TestHashesAndReflections:
    """Values that compare equal across the exact types hash alike, so either
    finds the other in a dict; every reflected or unary operator equals its
    forward form."""

    @given(reals)
    def test_real_gaussian_hashes_as_its_value(self, x):
        g = GaussianRational(x)
        assert g == x and hash(g) == hash(x)
        assert {x: 1}[g] == 1 and {g: 1}[x] == 1

    @given(st.one_of(gaussians, reals))
    def test_pi_free_value_hashes_as_its_gaussian(self, x):
        g = GaussianRational(x) if not isinstance(x, GaussianRational) else x
        v = PiLinear(g)
        assert v == g and hash(v) == hash(g)
        assert {g: 1}[v] == 1 and {v: 1}[g] == 1
        assert v == x and hash(v) == hash(x)

    @given(pi_linears.filter(lambda v: not v.q1.is_zero))
    def test_pi_linear_hashes_by_its_parts(self, x):
        y = PiLinear(GaussianRational(x.q0.re, x.q0.im), GaussianRational(x.q1.re, x.q1.im))
        assert y is not x and y == x and hash(y) == hash(x)
        assert {x: 1}[y] == 1 and {y: 1}[x] == 1

    @given(gaussians, reals)
    def test_gaussian_reflections(self, x, y):
        assert y - x == GaussianRational(y) - x
        assert _outcome(lambda: y / x) == _outcome(lambda: GaussianRational(y) / x)
        assert -x == GaussianRational(0) - x
        assert x.conjugate() == GaussianRational(x.re, -x.im)
        assert (x * x.conjugate()).im == 0 and x + x.conjugate() == 2 * x.re

    @given(pi_linears, st.one_of(gaussians, reals))
    def test_pi_linear_reflections(self, x, y):
        pi = PiLinear(0, 1)
        assert y - x == PiLinear(y) - x
        assert _outcome(lambda: y / x) == _outcome(lambda: PiLinear(y) / x)
        assert -x == PiLinear(0) - x
        assert x.conjugate() == x.q0.conjugate() + x.q1.conjugate() * pi


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

    @pytest.mark.parametrize("bk, value, error", [
        (EXACT, 0.5, BackendMismatchError), (EXACT, 1j, BackendMismatchError),
        (F64, math.inf, NonFiniteError), (F64, complex(0, math.nan), NonFiniteError),
    ], ids=["exact-float", "exact-complex", "f64-inf", "f64-nan"])
    def test_coerce_rejects(self, bk, value, error):
        with pytest.raises(error):
            bk.coerce(value)


#: the exact row of u[n+1] = u[n]
_ONES = (((1,), (0,)), ((0, ((1,), (0,))),))
_G = GaussianRational

#: one sample of each record type: its class, positional arguments, and the
#: repr the type had as a dataclass
RECORDS = [
    (CoeffStream, ((_G(1), _G(Fraction(1, 2), -3)), "exact"),
     "CoeffStream(coeffs=(GaussianRational(Fraction(1, 1), Fraction(0, 1)), "
     "GaussianRational(Fraction(1, 2), Fraction(-3, 1))), backend='exact')"),
    (Params, (Fraction(1, 3), Fraction(-5, 4), Fraction(7, 5), Fraction(3, 2)),
     "Params(a=Fraction(1, 3), b=Fraction(-5, 4), c=Fraction(7, 5), p=Fraction(3, 2), "
     "theta=None)"),
    (FamilyInfo, ("binom-F", "F", "binom", "single", 2, "min(1,1/|theta|)",
                  ("a", "b", "c", "p", "theta")),
     "FamilyInfo(id='binom-F', base='F', h='binom', formulation='single', order=2, "
     "radius='min(1,1/|theta|)', param_names=('a', 'b', 'c', 'p', 'theta'), "
     "c_excludes_2=False)"),
    (RecurrenceSpec, (1, (_G(1), _G(Fraction(1, 2))), _ONES, "exact"),
     "RecurrenceSpec(order=1, seeds=(GaussianRational(Fraction(1, 1), Fraction(0, 1)), "
     "GaussianRational(Fraction(1, 2), Fraction(0, 1))), "
     "polys=(((1,), (0,)), ((0, ((1,), (0,))),)), backend='exact', binomial=())"),
    (ComboSpec, (RecurrenceSpec(1, (_G(1), _G(0, 1)), _ONES, "exact"), None, "(u-v)/(2i)"),
     "ComboSpec(left=RecurrenceSpec(order=1, seeds=(GaussianRational(Fraction(1, 1), "
     "Fraction(0, 1)), GaussianRational(Fraction(0, 1), Fraction(1, 1))), "
     "polys=(((1,), (0,)), ((0, ((1,), (0,))),)), backend='exact', binomial=()), "
     "right=None, combiner='(u-v)/(2i)')"),
    (Elementary, ("binom", Fraction(1, 2), -2),
     "Elementary(kind='binom', p=Fraction(1, 2), theta=-2)"),
    (DeviationReport, ("exp-F", (("a", "1/3"), ("p", "3/2")), 40, "exact", 0.0, 0.0, None,
                       "pass"),
     "DeviationReport(family='exp-F', params=(('a', '1/3'), ('p', '3/2')), N=40, "
     "backend='exact', max_abs=0.0, max_rel=0.0, first_mismatch=None, verdict='pass', "
     "comparison='oracle')"),
    (BenchReport, ("exp-F", 64, 3, 0.001, 0.0125),
     "BenchReport(family='exp-F', N=64, repetitions=3, recurrence_time=0.001, "
     "oracle_time=0.0125)"),
]
#: the types that compare by field; streams and specs compare by identity
VALUE_TYPES = (Params, FamilyInfo, Elementary, DeviationReport, BenchReport)


class TestRecords:
    """The record types keep the fields, constructors, repr, immutability,
    equality, hashing and validation they had as frozen dataclasses."""

    @pytest.mark.parametrize("cls, args, text", RECORDS, ids=[r[0].__name__ for r in RECORDS])
    def test_contract(self, cls, args, text):
        names = list(inspect.signature(cls).parameters)
        record = cls(*args)
        by_keyword = cls(**dict(zip(names, args)))
        assert repr(record) == repr(by_keyword) == text
        assert repr(pickle.loads(pickle.dumps(record))) == text
        if cls in VALUE_TYPES:
            assert record == by_keyword and hash(record) == hash(by_keyword)
            assert record == pickle.loads(pickle.dumps(record))
            assert record.__eq__(tuple(getattr(record, n) for n in names)) is NotImplemented
            assert len({record, by_keyword}) == 1
        else:
            assert record == record and record != by_keyword
            assert len({record, by_keyword}) == 2
        for name in (names[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        with pytest.raises(AttributeError):
            delattr(record, names[0])
        assert repr(record) == text

    def test_value_types_equal_only_their_own_class(self):
        assert Params(1) != Elementary("exp", 1)
        assert Params(1, 2) == Params(a=1, b=2) != Params(1, 2, 3)

    def test_validation(self):
        with pytest.raises(ValueError, match="order must be positive"):
            RecurrenceSpec(0, (_G(1),), _ONES, "exact")
        with pytest.raises(ParameterDomainError, match="unknown elementary kind 'tan'"):
            Elementary("tan", 1)
        with pytest.raises(ValueError, match="at least u_0"):
            CoeffStream((), "exact")
        with pytest.raises(ValueError, match="at least u_0"):
            CoeffStream([], "f64")

"""Tests for exact Q(sqrt(d)) arithmetic.

Derived expectations are frozen from independent oracles: mpmath at 60
digits for decimals/floors, hand calculation for small identities.
"""

import copy
import math
import pickle
import random
import sys
from decimal import Decimal
from fractions import Fraction as F

import mpmath
import pytest

from divfilt.intersection import POLY_X, POLY_Y, BivariatePolynomial, IntersectionForm
from divfilt.quadfield import (
    ParameterError,
    QuadExt,
    RadicandMismatchError,
    decimal_column,
    parse_rational,
    rational_str,
)

mpmath.mp.dps = 60

ALPHA = QuadExt(F(9, 26), F(1, 26), 3)


def mp_value(x: QuadExt) -> mpmath.mpf:
    return mpmath.mpf(x.a.numerator) / x.a.denominator + (
        mpmath.mpf(x.b.numerator) / x.b.denominator
    ) * mpmath.sqrt(x.d)


def render(digits, num, den=None):
    # one value through the column renderer: a column of one
    return decimal_column(digits)([num], None if den is None else [den])[0]


def random_quad(rng: random.Random, d: int = 3) -> QuadExt:
    a = F(rng.randint(-50, 50), rng.randint(1, 20))
    b = F(rng.randint(-50, 50), rng.randint(1, 20))
    return QuadExt(a, b, d)


# -- construction and validation ----------------------------------------------


def test_radicand_must_be_squarefree():
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), 12)
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), 1)
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), 10**13)  # beyond the certifiable bound
    QuadExt(F(1), F(1), 2)  # fine
    QuadExt(F(1), F(1), 9999999967)  # large prime below the bound


def _smallest_square_factor(d):
    # brute-force oracle: the least p >= 2 with p^2 dividing d, else None
    return next((p for p in range(2, math.isqrt(d) + 1) if d % (p * p) == 0), None)


@pytest.mark.parametrize("d,square_root", [
    (999983**2, 999983),  # the square of a prime is left as the cofactor
    (999979 * 999983, None),  # a product of two primes above the cube root
    (999999999989, None),  # a prime just below the bound
])
def test_radicand_verdicts_past_the_cube_root(d, square_root):
    if square_root is None:
        assert QuadExt(0, 1, d).d == d
    else:
        message = rf"^radicand must be squarefree, got {d} \(divisible by {square_root}\^2\)$"
        with pytest.raises(ParameterError, match=message):
            QuadExt(0, 1, d)


def test_radicand_verdicts_match_a_squarefree_oracle():
    rng = random.Random(4242)
    squares = [rng.randrange(2, 3000) ** 2 * rng.randrange(1, 4) for _ in range(100)]
    for d in [rng.randrange(2, 10**7) for _ in range(300)] + squares:
        square = _smallest_square_factor(d)
        if square is None:
            QuadExt(0, 1, d)
        else:
            with pytest.raises(ParameterError, match=rf"\(divisible by {square}\^2\)$"):
                QuadExt(0, 1, d)


def test_float_radicand_rejected_after_int_validated():
    QuadExt(F(1), F(1), 3)
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), 3.0)  # 3.0 == 3 and hashes alike
    with pytest.raises(ValueError):
        QuadExt(F(1), F(1), True)


def test_canonical_fractions():
    x = QuadExt(F(84, 676), F(18, 676), 3)
    assert x.a == F(21, 169) and x.b == F(9, 338)


def test_is_rational():
    assert QuadExt(F(5), F(0), 3).is_rational()
    assert not ALPHA.is_rational()


# -- addition -------------------------------------------------------------------


def test_add_identity():
    assert ALPHA + QuadExt(F(0), F(0), 3) == ALPHA


def test_add_conjugates_cancel():
    assert QuadExt(F(1), F(1), 3) + QuadExt(F(1), F(-1), 3) == 2


def test_add_alpha_alpha():
    assert ALPHA + ALPHA == QuadExt(F(9, 13), F(1, 13), 3)


def test_radicand_mismatch():
    x = QuadExt(F(1), F(1), 2)
    y = QuadExt(F(1), F(1), 3)
    with pytest.raises(RadicandMismatchError):
        x + y
    # a rational operand adopts the other field
    assert QuadExt(F(2), F(0), 2) + y == QuadExt(F(3), F(1), 3)


# -- multiplication --------------------------------------------------------------


def test_alpha_square():
    assert ALPHA * ALPHA == QuadExt(F(84, 676), F(18, 676), 3)


def test_alpha_cube():
    assert ALPHA**2 * ALPHA == QuadExt(F(810, 17576), F(246, 17576), 3)
    assert ALPHA**3 == QuadExt(F(810, 17576), F(246, 17576), 3)


def test_sqrt_squared():
    r = QuadExt.sqrt(3)
    assert r * r == 3


def test_defining_relation():
    assert 26 * ALPHA**2 - 18 * ALPHA + 3 == 0
    # equivalent to alpha * (9 - sqrt(3)) = 3
    assert ALPHA * (9 - QuadExt.sqrt(3)) == 3


# -- sign -------------------------------------------------------------------------


def test_sign_zero():
    assert QuadExt(F(0), F(0), 3).sign() == 0


def test_sign_mixed():
    assert QuadExt(F(-5), F(3), 3).sign() == 1  # 27 > 25
    assert QuadExt(F(5), F(-3), 3).sign() == -1
    assert (ALPHA - 1).sign() == -1  # 9 + sqrt(3) < 26


def test_sign_matches_decimal_oracle():
    rng = random.Random(20260810)
    for _ in range(300):
        x = random_quad(rng, d=rng.choice([2, 3, 5, 7]))
        s = x.sign()
        v = mp_value(x)
        if s == 0:
            assert x.a == 0 and x.b == 0
        else:
            assert mpmath.sign(v) == s


def test_order_matches_decimal_rendering():
    # sign(x - y) = +1 iff the 50-digit decimals compare the same way
    rng = random.Random(7)
    for _ in range(200):
        x, y = random_quad(rng), random_quad(rng)
        dx, dy = Decimal(x.to_decimal(50)), Decimal(y.to_decimal(50))
        s = (x - y).sign()
        if s > 0:
            assert dx > dy
        elif s < 0:
            assert dx < dy
        else:
            assert dx == dy


# -- field axioms (randomized, exact) ---------------------------------------------


def test_field_axioms():
    rng = random.Random(12345)
    for _ in range(150):
        d = rng.choice([2, 3, 5, 6, 7, 10])
        x, y, z = (random_quad(rng, d) for _ in range(3))
        assert (x + y) + z == x + (y + z)
        assert x + y == y + x
        assert (x * y) * z == x * (y * z)
        assert x * y == y * x
        assert x * (y + z) == x * y + x * z
        if not x.is_zero():
            assert x * x.inverse() == 1
            assert x / x == 1


ZERO = QuadExt(0, 0, 3)
DIVISIONS_BY_ZERO = {
    "x / 0": lambda: ALPHA / 0,
    "x / zero": lambda: ALPHA / ZERO,
    "1 / zero": lambda: 1 / ZERO,
    "zero.inverse()": lambda: ZERO.inverse(),
    "zero ** -1": lambda: ZERO**-1,
}


@pytest.mark.parametrize("divide", DIVISIONS_BY_ZERO.values(), ids=DIVISIONS_BY_ZERO)
def test_division_by_zero_raises(divide):
    with pytest.raises(ZeroDivisionError, match=r"^division by zero in Q\(sqrt\(d\)\)$"):
        divide()


# -- floors and ceilings ------------------------------------------------------------


def test_floor_scaled_basics():
    assert ALPHA.floor_scaled(0) == 0
    assert ALPHA.floor_scaled(1) == 0 and ALPHA.ceil_scaled(1) == 1
    assert ALPHA.ceil_scaled(3) == 2  # 3*alpha ~ 1.238


def test_floor_negative_values():
    x = QuadExt(F(0), F(-1), 3)  # -sqrt(3) ~ -1.732
    assert x.floor() == -2
    assert x.ceil() == -1
    assert QuadExt(F(-7, 2), F(0), 3).floor() == -4


def test_floor_rational_integral():
    # rational x with integral n*x returns that integer exactly
    x = QuadExt(F(7, 3), F(0), 3)
    assert x.floor_scaled(3) == 7
    assert x.ceil_scaled(3) == 7


def test_floor_bracket_invariant():
    # floor(n*alpha) <= n*alpha < floor(n*alpha) + 1, checked by exact sign
    for n in range(0, 10_001):
        f = ALPHA.floor_scaled(n)
        v = ALPHA * n
        assert (v - f).sign() >= 0
        assert (v - (f + 1)).sign() < 0


def test_floor_bracket_full_sweep_integer_oracle():
    # same bracket for every n <= 1e5, adjudicated by integer squaring
    # (c <= n*sqrt(3) iff c <= 0 or c^2 <= 3n^2), independent of isqrt
    def leq_n_sqrt3(c: int, n: int) -> bool:
        return c <= 0 or c * c <= 3 * n * n

    for n in range(1, 100_001):
        f = ALPHA.floor_scaled(n)
        # 26f <= 9n + n*sqrt(3) < 26(f+1)
        assert leq_n_sqrt3(26 * f - 9 * n, n)
        assert not leq_n_sqrt3(26 * (f + 1) - 9 * n, n)


def test_floor_matches_mpmath_oracle():
    rng = random.Random(4242)
    for _ in range(300):
        x = random_quad(rng, d=rng.choice([2, 3, 5, 7]))
        n = rng.randint(0, 10_000)
        got = x.floor_scaled(n)
        expect = int(mpmath.floor(mp_value(x) * n))
        assert got == expect


# -- decimals --------------------------------------------------------------------


def test_to_decimal_alpha():
    assert ALPHA.to_decimal(6) == "0.412771"


def test_to_decimal_zero():
    assert QuadExt(F(0), F(0), 3).to_decimal(3) == "0.000"


def test_to_decimal_multiplicity_value():
    # correctly rounded rendering of 72252/169 - (162/169) sqrt(3)
    x = QuadExt(F(72252, 169), F(-162, 169), 3)
    assert x.to_decimal(4) == "425.8663"
    want = mpmath.nstr(mp_value(x), 20)
    assert want.startswith("425.86631")


def test_to_decimal_negative_and_rational_ties():
    assert QuadExt(F(-1, 2), F(0), 3).to_decimal(1) == "-0.5"  # tie -> even
    assert QuadExt(F(1, 4), F(0), 3).to_decimal(1) == "0.2"  # 0.25 -> 0.2 (half-even)
    assert QuadExt(F(3, 4), F(0), 3).to_decimal(1) == "0.8"
    assert QuadExt(F(0), F(-1), 3).to_decimal(4) == "-1.7321"


def test_rational_decimal_matches_fraction_round():
    # half-even ties on both signs, and random values against round() on
    # Fraction, which rounds half to even
    assert render(1, 1, 4) == "0.2"
    assert render(1, -1, 4) == "-0.2"
    assert render(1, -3, 4) == "-0.8"
    assert render(2, -1, 200) == "0.00"  # rounds to zero: no sign
    rng = random.Random(4242)
    for _ in range(500):
        num, den, digits = rng.randint(-10**9, 10**9), rng.randint(1, 10**6), rng.randint(1, 12)
        m = round(F(num, den) * 10**digits)
        ip, fp = divmod(abs(m), 10**digits)
        want = f"{'-' if m < 0 else ''}{ip}.{fp:0{digits}d}"
        assert render(digits, num, den) == want
        assert QuadExt(F(num, den), F(0), 2).to_decimal(digits) == want


def _round_half_even(num, den, digits):
    m = round(F(num, den) * 10**digits)  # round() on a Fraction is half-even
    ip, fp = divmod(abs(m), 10**digits)
    return f"{'-' if m < 0 else ''}{ip}.{fp:0{digits}d}"


@pytest.mark.parametrize("digits", [1, 2, 3, 30])
def test_decimal_column_matches_per_value_render(digits):
    # half-even ties at 1 to 3 digits on both signs, negatives that round to
    # zero (no sign), values in (-1, 1), then seeded pairs; the column must
    # agree with the per-value renderer and with round() on a Fraction
    pairs = [(1, 4), (-1, 4), (3, 4), (5, 8), (-5, 8), (1, 16), (3, 16), (-3, 16)]
    pairs += [(1, 2000), (3, 2000), (-3, 2000), (-1, 200), (-1, 300), (-1, 3), (2, 3), (0, 7)]
    rng = random.Random(1000 + digits)
    pairs += [(rng.randint(-10**12, 10**12), rng.randint(1, 10**9)) for _ in range(300)]
    nums, dens = [p for p, _ in pairs], [q for _, q in pairs]
    column = decimal_column(digits)
    got = column(nums, dens)
    assert got == [render(digits, num, den) for num, den in pairs]
    assert got == [_round_half_even(num, den, digits) for num, den in pairs]
    ms = [rng.randint(-10**40, 10**40) for _ in range(50)] + [0, -1, 1]
    assert column(ms) == [render(digits, m) for m in ms] == [_round_half_even(m, 10**digits, digits) for m in ms]


def test_decimal_column_ties_and_signs():
    assert decimal_column(1)([1, -1, 3, -3], [4, 4, 4, 4]) == ["0.2", "-0.2", "0.8", "-0.8"]
    assert decimal_column(2)([5, -5, -1, -1], [8, 8, 200, 300]) == ["0.62", "-0.62", "0.00", "0.00"]
    assert decimal_column(3)([1, 3, 3, -3], [2000, 2000, 16, 16]) == ["0.000", "0.002", "0.188", "-0.188"]


def test_decimal_column_beyond_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    got = decimal_column(5000)([-1, 2, -1, 7], [3, 3, 200, 1])
    assert got == ["-0." + "3" * 5000, "0." + "6" * 4999 + "7", "-0.005" + "0" * 4997, "7." + "0" * 5000]
    assert got == [render(5000, num, den) for num, den in ((-1, 3), (2, 3), (-1, 200), (7, 1))]
    assert sys.get_int_max_str_digits() == limit


def test_to_decimal_matches_mpmath():
    rng = random.Random(31337)
    for _ in range(100):
        x = random_quad(rng, d=rng.choice([2, 3, 5]))
        digits = rng.randint(1, 25)
        got = Decimal(x.to_decimal(digits))
        err = abs(Decimal(mpmath.nstr(mp_value(x), 40)) - got)
        assert err <= Decimal(1) / (2 * Decimal(10) ** digits) * Decimal("1.0000001")


def test_to_decimal_digit_bounds():
    with pytest.raises(ValueError):
        ALPHA.to_decimal(0)
    with pytest.raises(ValueError):
        ALPHA.to_decimal(10_001)
    for digits in (0, 10_001):
        with pytest.raises(ValueError):
            render(digits, 1, 3)


# -- misc -------------------------------------------------------------------------


def test_minimal_quadratic():
    assert ALPHA.minimal_quadratic() == (26, -18, 3)
    assert QuadExt.sqrt(2).minimal_quadratic() == (1, 0, -2)
    assert QuadExt(F(3, 4), F(0), 5).minimal_quadratic() == (0, 4, -3)


def test_parse_and_render_rational():
    assert parse_rational("-175") == F(-175)
    assert parse_rational("9/26") == F(9, 26)
    assert rational_str(F(84, 676)) == "21/169"
    assert rational_str(F(5)) == "5"
    for bad in ["1.5", "1e3", "3/0/2", "", "a/b"]:
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_parse_rational_beyond_int_digit_limit_is_a_parameter_error():
    limit = sys.get_int_max_str_digits()
    for text in ("1" * 5000, "1/" + "7" * 5000):
        with pytest.raises(ParameterError, match=f"{len(text)} characters exceeds the int-to-str limit"):
            parse_rational(text)
    assert sys.get_int_max_str_digits() == limit


def test_rational_str_beyond_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    num = 10**4999 + 7  # 5000 digits, above the default 4300-digit limit
    assert rational_str(F(num)) == "1" + "0" * 4995 + "0007"
    text = rational_str(F(-num, 3))
    assert text.startswith("-1000") and text.endswith("0007/3") and len(text) == 5003
    assert sys.get_int_max_str_digits() == limit


def test_decimals_beyond_int_digit_limit():
    limit = sys.get_int_max_str_digits()
    text = ALPHA.to_decimal(10_000)  # the largest --digits the CLI accepts
    assert text.startswith("0.41277118490649528052") and len(text) == 10_002
    assert render(5000, -1, 3) == "-0." + "3" * 5000
    assert sys.get_int_max_str_digits() == limit


def test_cross_field_equality_and_hash():
    five2 = QuadExt(F(5), F(0), 2)
    five3 = QuadExt(F(5), F(0), 3)
    assert five2 == five3 == 5
    assert hash(five2) == hash(five3) == hash(F(5))
    assert QuadExt(F(0), F(1), 2) != QuadExt(F(0), F(1), 3)


def test_json_roundtrip_fields():
    doc = ALPHA.to_json(digits=10)
    assert doc == {"a": "9/26", "b": "1/26", "d": 3, "decimal": "0.4127711849"}


# -- the Fraction-pair oracle ---------------------------------------------------
#
# QuadExt's arithmetic as it was when a value held two Fractions (a, b),
# meaning a + b*sqrt(d): the independent oracle of the integer form
# (A + B*sqrt(d))/q.

ORACLE_RADICANDS = (2, 3, 5, 6, 7, 10, 11, 13, 999999999989)


def _o_sign(a, b, d):
    if b == 0:
        return (a > 0) - (a < 0)
    if a == 0:
        return 1 if b > 0 else -1
    sa, sb = (1 if a > 0 else -1), (1 if b > 0 else -1)
    if sa == sb:
        return sa
    return sa if a * a > b * b * d else sb


def _o_floor(a, b, d):
    q = math.lcm(a.denominator, b.denominator)
    A, B = a.numerator * (q // a.denominator), b.numerator * (q // b.denominator)
    if B == 0:
        return A // q
    s = math.isqrt(B * B * d)  # floor(|B|*sqrt(d)); B*sqrt(d) is irrational
    return (A + (s if B > 0 else -s - 1)) // q


def _o_mul(x, y, d):
    (a, b), (c, e) = x, y
    return a * c + b * e * d, a * e + b * c


def _o_inverse(x, d):
    a, b = x
    norm = a * a - b * b * d
    return a / norm, -b / norm


def _o_pow(x, k, d):
    base, result = (x if k >= 0 else _o_inverse(x, d)), (F(1), F(0))
    for _ in range(abs(k)):
        result = _o_mul(result, base, d)
    return result


def _o_decimal(x, digits, d):
    a, b = x
    s = 10**digits
    m = round(a * s) if b == 0 else _o_floor(a * s + F(1, 2), b * s, d)  # round(): half-even
    ip, fp = divmod(abs(m), s)
    return f"{'-' if m < 0 else ''}{ip}.{fp:0{digits}d}"


def _o_minimal_quadratic(x, d):
    a, b = x
    if b == 0:
        return (0, a.denominator, -a.numerator)
    c1, c0 = -2 * a, a * a - b * b * d
    den = math.lcm(c1.denominator, c0.denominator)
    n2, n1, n0 = den, c1.numerator * (den // c1.denominator), c0.numerator * (den // c0.denominator)
    g = math.gcd(n2, n1, n0)
    return (n2 // g, n1 // g, n0 // g)


def _pair(x):
    return (x.a, x.b)


def _canonical(x):
    # (A + B*sqrt(d))/q with q > 0 and gcd(A, B, q) = 1, read back as (a, b)
    A, B, q = x._cleared()
    assert q > 0 and math.gcd(A, B, q) == 1
    assert (x.a, x.b) == (F(A, q), F(B, q))
    return x


def _oracle_part(rng, kind):
    if kind == "zero":
        return F(0)
    if kind == "small":
        return F(rng.randint(-60, 60), rng.randint(1, 30))
    return F(rng.randint(-(10**300), 10**300), rng.randint(1, 10**300))


def _oracle_values(rng, d):
    # zero, rationals, negatives and 300-digit parts, every kind against every kind
    kinds = ("zero", "small", "big")
    values = [QuadExt(_oracle_part(rng, ka), _oracle_part(rng, kb), d) for ka in kinds for kb in kinds]
    values += [QuadExt(-abs(_oracle_part(rng, "small")), F(1, rng.randint(1, 9)), d), QuadExt(1, 0, d)]
    return values


@pytest.mark.parametrize("d", ORACLE_RADICANDS)
def test_integer_form_matches_fraction_pair_oracle(d):
    rng = random.Random(29_000 + d % 1000)
    values = _oracle_values(rng, d)
    scalars = [0, 1, -7, F(-5, 3), F(10**300 + 1, 3**200)]
    for x in values:
        xp = _pair(_canonical(x))
        assert _canonical(-x) == QuadExt(-x.a, -x.b, d)
        assert x.sign() == _o_sign(*xp, d)
        assert x.is_rational() == (xp[1] == 0) and x.is_zero() == (xp == (0, 0))
        assert (x.floor(), x.ceil()) == (_o_floor(*xp, d), -_o_floor(-xp[0], -xp[1], d))
        for n in (0, 1, 10**40):
            assert x.floor_scaled(n) == _o_floor(xp[0] * n, xp[1] * n, d)
            assert x.ceil_scaled(n) == -_o_floor(-xp[0] * n, -xp[1] * n, d)
        for digits in (1, 30, 500):
            assert x.to_decimal(digits) == _o_decimal(xp, digits, d)
        assert x.minimal_quadratic() == _o_minimal_quadratic(xp, d)
        for k in (-3, -1, 0, 1, 2, 3, 5) if not x.is_zero() else (0, 1, 2, 3, 5):
            assert _pair(_canonical(x**k)) == _o_pow(xp, k, d)
        if not x.is_zero():
            assert _pair(_canonical(x.inverse())) == _o_inverse(xp, d)
        for y in values + [QuadExt.from_rational(c, d) for c in scalars]:
            yp = _pair(y)
            assert _pair(_canonical(x + y)) == (xp[0] + yp[0], xp[1] + yp[1])
            assert _pair(_canonical(x - y)) == (xp[0] - yp[0], xp[1] - yp[1])
            assert _pair(_canonical(x * y)) == _o_mul(xp, yp, d)
            if not y.is_zero():
                assert _pair(_canonical(x / y)) == _o_mul(xp, _o_inverse(yp, d), d)
            s = _o_sign(xp[0] - yp[0], xp[1] - yp[1], d)
            assert (x < y, x <= y, x > y, x >= y, x == y) == (s < 0, s <= 0, s > 0, s >= 0, s == 0)
        for c in scalars:
            assert _pair(_canonical(x + c)) == _pair(_canonical(c + x)) == (xp[0] + c, xp[1])
            assert _pair(_canonical(c - x)) == (c - xp[0], -xp[1])
            assert _pair(_canonical(c * x)) == (c * xp[0], c * xp[1])
            if c:
                assert _pair(_canonical(x / c)) == (xp[0] / c, xp[1] / c)
            if not x.is_zero():
                assert _pair(_canonical(c / x)) == _o_mul((F(c), F(0)), _o_inverse(xp, d), d)
            assert (x < c) == (_o_sign(xp[0] - c, xp[1], d) < 0)
            assert (x == c) == (xp == (c, 0))


def test_no_fraction_is_made_in_quadext_arithmetic(monkeypatch):
    # a seeded run of + - * / **, sign, comparisons, floors and decimals on
    # QuadExt operands, with every Fraction construction counted
    rng = random.Random(2929)
    values = [v for d in (3, 999999999989) for v in _oracle_values(rng, d)]
    made = []
    real = F.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return real(cls, *args, **kwargs)

    monkeypatch.setattr(F, "__new__", staticmethod(counting))
    for _ in range(400):
        x, y = rng.choice(values), rng.choice(values)
        if x.d != y.d and not (x.is_rational() or y.is_rational()):
            continue
        x + y, x - y, x * y, -x, abs(x), x**rng.randint(0, 4)
        if not y.is_zero():
            x / y, y**-2
        x.sign(), x < y, x <= y, x > y, x >= y, x == y, x != y
        x.floor(), x.ceil(), x.floor_scaled(10**6), x.ceil_scaled(10**6), x.fractional_part()
        x.to_decimal(30), x.minimal_quadratic()
    assert made == []
    F(1, 2)  # the count itself works
    assert made == [(1, 2)]


@pytest.mark.parametrize("slot", ["a", "b"])
@pytest.mark.parametrize("value", [0.1, "1/3", Decimal("0.1"), None], ids=["float", "str", "Decimal", "None"])
def test_components_are_an_int_or_a_fraction(slot, value):
    # 0.1 would otherwise become 3602879701896397/36028797018963968; a bool
    # is refused too (tests/test_int_parameters.py)
    args = {"a": 0, "b": 1, "d": 3, slot: value}
    with pytest.raises(ParameterError, match=f"^{slot} must be an int or a Fraction, got "):
        QuadExt(**args)


def test_operands_of_other_types_do_not_mix():
    for op in (lambda: ALPHA + 0.5, lambda: 0.5 - ALPHA, lambda: ALPHA * "2", lambda: ALPHA < 0.5):
        with pytest.raises(TypeError):
            op()
    assert (ALPHA == 0.5) is False


# Every rational value takes the `QuadExt` constructor's rule, an int (not a
# bool) or a Fraction.  A constructor or `shift` refuses any other type with a
# ParameterError; an operator returns NotImplemented, so `+`, `*` and `<`
# raise TypeError and `==` is False.  The operators already refused a float,
# str or Decimal, so their rows take a bool only.
BAD_RATIONALS = {"float": 0.5, "bool": True, "str": "1/3", "Decimal": Decimal("0.5")}
RATIONAL_ENTRIES = {
    "poly-terms": lambda v: BivariatePolynomial({(1, 0): v}),
    "poly-constant": lambda v: BivariatePolynomial.constant(v),
    "poly-monomial": lambda v: BivariatePolynomial.monomial(1, 0, v),
    "shift-dx": lambda v: POLY_X.shift(v, 0),
    "shift-dy": lambda v: POLY_Y.shift(0, v),
    "form-value": lambda v: IntersectionForm(("S",), {("S", "S", "S"): v}),
    "poly-mul": lambda v: POLY_X * v,
    "quad-add": lambda v: ALPHA + v,
    "quad-radd": lambda v: v + ALPHA,
    "quad-mul": lambda v: ALPHA * v,
    "quad-lt": lambda v: ALPHA < v,
    "quad-eq": lambda v: QuadExt.from_rational(1, 3) == v,
}
OPERATORS = {"poly-mul", "quad-add", "quad-radd", "quad-mul", "quad-lt", "quad-eq"}
REFUSED_RATIONALS = [
    (entry, kind)
    for entry in RATIONAL_ENTRIES
    for kind in BAD_RATIONALS
    if entry not in OPERATORS or kind == "bool"
]


@pytest.mark.parametrize("entry,kind", REFUSED_RATIONALS, ids=[f"{e}-{k}" for e, k in REFUSED_RATIONALS])
def test_rational_values_are_an_int_or_a_fraction(entry, kind):
    call, value = RATIONAL_ENTRIES[entry], BAD_RATIONALS[kind]
    if entry == "quad-eq":
        assert call(value) is False
        return
    error = TypeError if entry in OPERATORS else ParameterError
    with pytest.raises(error, match=None if entry in OPERATORS else "^expected an int or a Fraction, got "):
        call(value)


def test_values_are_immutable_and_round_trip():
    for name in ("a", "b", "d", "_t", "other"):
        with pytest.raises(AttributeError):
            setattr(ALPHA, name, 1)
        with pytest.raises(AttributeError):
            delattr(ALPHA, name)
    big = QuadExt(10**300 + 1, F(-1, 10**300 + 7), 999999999989)
    for x in (ALPHA, QuadExt(F(-7, 3), 0, 5), QuadExt(0, 0, 2), big):
        for twin in (pickle.loads(pickle.dumps(x)), copy.deepcopy(x), copy.copy(x)):
            assert (twin, twin.d, twin._cleared(), hash(twin), repr(twin)) == (x, x.d, x._cleared(), hash(x), repr(x))


def test_hashes_follow_equality():
    # a rational value hashes like its Fraction; equal rationals of two
    # fields are one dict key and one set member; irrationals of two fields differ
    assert hash(QuadExt.from_rational(F(3, 4), 3)) == hash(F(3, 4))
    r2, r3 = QuadExt.from_rational(F(3, 4), 2), QuadExt.from_rational(F(3, 4), 3)
    assert r2 == r3 and hash(r2) == hash(r3)
    table = {r2: "three quarters", QuadExt(5, 0, 7): "five", ALPHA: "alpha"}
    assert table[r3] == table[F(3, 4)] == "three quarters"
    assert table[5] == table[QuadExt(F(10, 2), 0, 3)] == "five"
    assert table[QuadExt(F(18, 52), F(2, 52), 3)] == "alpha"
    assert len({r2, r3, F(3, 4), QuadExt.sqrt(2), QuadExt.sqrt(3), QuadExt.sqrt(2) * 1}) == 3
    assert repr(ALPHA) == "QuadExt(Fraction(9, 26), Fraction(1, 26), 3)"
    assert str(ALPHA - 1) == "-17/26 + 1/26*sqrt(3)" and str(1 - ALPHA) == "17/26 - 1/26*sqrt(3)"

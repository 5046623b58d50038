"""Tests for exact Q(sqrt(d)) arithmetic.

Derived expectations are frozen from independent oracles: mpmath at 60
digits for decimals/floors, hand calculation for small identities.
"""

import random
import sys
from decimal import Decimal
from fractions import Fraction as F

import mpmath
import pytest

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


def test_float_radicand_rejected_after_int_validated():
    QuadExt(F(1), F(1), 3)  # 3 is now in the validated-radicand cache
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

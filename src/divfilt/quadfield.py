"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Every value is a pair of rationals (a, b) representing the real number
a + b*sqrt(d) for a fixed squarefree radicand d >= 2.  All operations are
exact: comparison, floors/ceilings of integer multiples, and correctly
rounded decimal rendering are decided with arbitrary-precision integer
arithmetic (integer square roots on cleared denominators), never with
floating point.

The central trick is the exact sign test: the sign of a + b*sqrt(d) is
decided by case analysis on the signs of a and b plus one comparison of
a^2 against b^2*d.  Floors reduce to the identity

    floor((A + B*sqrt(d)) / q) = floor((A + floor(B*sqrt(d))) / q)

for integers A, B, q > 0, with floor(B*sqrt(d)) computed by isqrt(B^2*d).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
import re
import sys

__all__ = [
    "QuadExt",
    "ParameterError",
    "RadicandMismatchError",
    "floor_cleared",
    "parse_rational",
    "rational_str",
    "decimal_column",
]

MAX_DECIMAL_DIGITS = 10_000

# Squarefreeness is certified by trial division with primes up to 10^6,
# which decides every radicand below 10^12.
_SQUAREFREE_TRIAL_BOUND = 10**6
_MAX_CERTIFIABLE_RADICAND = _SQUAREFREE_TRIAL_BOUND**2

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ParameterError(ValueError):
    """An argument that a library function refuses: the front end's exit 2."""


class RadicandMismatchError(ValueError):
    """Raised when two irrational values from different Q(sqrt(d)) meet."""


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-free rational string: an integer or ``p/q``, q != 0."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParameterError(f"not a rational string (expected 'p' or 'p/q'): {text!r}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ParameterError(f"zero denominator: {text!r}") from None
    except ValueError:  # past the int-to-str digit limit
        limit = sys.get_int_max_str_digits()
        raise ParameterError(
            f"rational string of {len(text)} characters exceeds the int-to-str limit of {limit} digits"
        ) from None


def _without_digit_limit(render, *args) -> str:
    """render(*args) with the interpreter's int-to-str digit limit lifted for
    this call only; the limit is restored afterwards."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return render(*args)
    finally:
        sys.set_int_max_str_digits(limit)


def rational_str(value: Fraction | int) -> str:
    """Render a rational as ``p`` or ``p/q`` (lowest terms, q > 0), at any size."""
    try:
        if value.denominator == 1:
            return str(value.numerator)
        return f"{value.numerator}/{value.denominator}"
    except ValueError:  # past the int-to-str digit limit
        return _without_digit_limit(rational_str, value)


def decimal_column(digits: int) -> Callable[..., list[str]]:
    """The decimal renderer with `digits` fractional digits, in integer
    arithmetic only and a column at a time: column(nums, dens) is each
    num/den (den > 0) rounded half-even, column(ms) each m / 10**digits.
    10**digits and the pad width are computed once per renderer; each value
    is at most one exact divmod and the half-even fix-up, then one padded
    ``str`` cut into integer and fractional part."""
    if type(digits) is not int or not 1 <= digits <= MAX_DECIMAL_DIGITS:
        raise ParameterError(f"digits must be in [1, {MAX_DECIMAL_DIGITS}], got {digits!r}")
    scale, width, cut = 10**digits, digits + 1, -digits

    def text(ms: Sequence[int]) -> list[str]:
        return [
            f"{'-' if m < 0 else ''}{t[:cut]}.{t[cut:]}"
            for m in ms
            for t in (str(abs(m)).rjust(width, "0"),)
        ]

    def column(nums: Sequence[int], dens: Sequence[int] | None = None) -> list[str]:
        ms = nums if dens is None else [
            m + (r + r > den or (r + r == den and m & 1))
            for num, den in zip(nums, dens)
            for m, r in (divmod(num * scale, den),)
        ]
        try:
            return text(ms)
        except ValueError:  # past the int-to-str digit limit
            return _without_digit_limit(text, ms)

    return column


_validated_radicands: set[int] = set()


def _validate_radicand(d: int) -> None:
    # type first: 3.0 hashes like 3 and would pass the cache lookup
    if type(d) is not int or d < 2:
        raise ParameterError(f"radicand must be an integer >= 2, got {d!r}")
    if d in _validated_radicands:
        return
    if d > _MAX_CERTIFIABLE_RADICAND:
        raise ParameterError(
            f"radicand {d} exceeds {_MAX_CERTIFIABLE_RADICAND}; "
            "squarefreeness cannot be certified by trial division"
        )
    m = d
    p = 2
    while p * p <= m:
        if m % p == 0:
            m //= p
            if m % p == 0:
                raise ParameterError(f"radicand must be squarefree, got {d} (divisible by {p}^2)")
        p += 1 if p == 2 else 2
    _validated_radicands.add(d)


def _sign_of_pair(a: Fraction, b: Fraction, d: int) -> int:
    """Exact sign of a + b*sqrt(d), no floating point."""
    if b == 0:
        return -1 if a < 0 else (1 if a > 0 else 0)
    if a == 0:
        return -1 if b < 0 else 1
    sa = 1 if a > 0 else -1
    sb = 1 if b > 0 else -1
    if sa == sb:
        return sa
    lhs = a * a
    rhs = b * b * d
    # Equality would force sqrt(d) rational, impossible for squarefree d >= 2.
    assert lhs != rhs
    return sa if lhs > rhs else sb


def floor_cleared(A: int, B: int, q: int, d: int) -> int:
    """floor((A + B*sqrt(d)) / q) for integers A, B, q > 0 and squarefree d."""
    if B == 0:
        return A // q
    s = isqrt(B * B * d)
    # floor(B*sqrt(d)): B*sqrt(d) is irrational for B != 0.
    return (A + (s if B > 0 else -s - 1)) // q


@dataclass(frozen=True)
class QuadExt:
    """The real number ``a + b*sqrt(d)`` with rational a, b and squarefree d >= 2.

    Values are immutable and canonical (Fractions in lowest terms), safe to
    share between threads.  Arithmetic mixes freely with ints and Fractions;
    two irrational values interoperate only when their radicands agree.
    """

    a: Fraction
    b: Fraction
    d: int

    def __post_init__(self) -> None:
        _validate_radicand(self.d)
        object.__setattr__(self, "a", Fraction(self.a))
        object.__setattr__(self, "b", Fraction(self.b))

    # -- construction helpers ------------------------------------------------

    @classmethod
    def from_rational(cls, value: Fraction | int, d: int) -> QuadExt:
        return cls(Fraction(value), Fraction(0), d)

    @classmethod
    def sqrt(cls, d: int) -> QuadExt:
        """The value sqrt(d) itself."""
        return cls(Fraction(0), Fraction(1), d)

    # -- predicates ----------------------------------------------------------

    def is_rational(self) -> bool:
        return self.b == 0

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- coercion ------------------------------------------------------------

    def _coerce(self, other: object) -> QuadExt | None:
        if isinstance(other, QuadExt):
            if other.d == self.d:
                return other
            if other.b == 0:
                return QuadExt(other.a, Fraction(0), self.d)
            if self.b == 0:
                return other  # result lives in other's field
            raise RadicandMismatchError(
                f"cannot combine sqrt({self.d}) with sqrt({other.d})"
            )
        if isinstance(other, (int, Fraction)):
            return QuadExt(Fraction(other), Fraction(0), self.d)
        return None

    def _rebase(self, d: int) -> QuadExt:
        return self if self.d == d else QuadExt(self.a, self.b, d)

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: object) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        lhs = self._rebase(rhs.d)
        return QuadExt(lhs.a + rhs.a, lhs.b + rhs.b, rhs.d)

    __radd__ = __add__

    def __sub__(self, other: object) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        lhs = self._rebase(rhs.d)
        return QuadExt(lhs.a - rhs.a, lhs.b - rhs.b, rhs.d)

    def __rsub__(self, other: object) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs - self

    def __neg__(self) -> QuadExt:
        return QuadExt(-self.a, -self.b, self.d)

    def __mul__(self, other: object) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        lhs = self._rebase(rhs.d)
        return QuadExt(
            lhs.a * rhs.a + lhs.b * rhs.b * rhs.d,
            lhs.a * rhs.b + lhs.b * rhs.a,
            rhs.d,
        )

    __rmul__ = __mul__

    def inverse(self) -> QuadExt:
        """Multiplicative inverse: (a - b*sqrt(d)) / (a^2 - b^2 d)."""
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        norm = self.a * self.a - self.b * self.b * self.d
        # norm = 0 would force sqrt(d) rational.
        return QuadExt(self.a / norm, -self.b / norm, self.d)

    def __truediv__(self, other: object) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return self * rhs.inverse()

    def __rtruediv__(self, other: object) -> QuadExt:
        rhs = self._coerce(other)
        if rhs is None:
            return NotImplemented
        return rhs * self.inverse()

    def __pow__(self, k: int) -> QuadExt:
        if type(k) is not int:
            return NotImplemented
        base = self
        if k < 0:
            base = self.inverse()
            k = -k
        result = QuadExt.from_rational(1, self.d)
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- comparison ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        return _sign_of_pair(self.a, self.b, self.d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            if self.d == other.d:
                return self.a == other.a and self.b == other.b
            # Distinct squarefree radicands: equality only between rationals.
            return self.b == 0 and other.b == 0 and self.a == other.a
        if isinstance(other, (int, Fraction)):
            return self.b == 0 and self.a == other
        return NotImplemented

    def __hash__(self) -> int:
        if self.b == 0:
            return hash(self.a)
        return hash((self.a, self.b, self.d))

    def _cmp(self, other: object) -> int:
        rhs = self._coerce(other)
        if rhs is None:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        return (self - rhs).sign()

    def __lt__(self, other: object) -> bool:
        return self._cmp(other) < 0

    def __le__(self, other: object) -> bool:
        return self._cmp(other) <= 0

    def __gt__(self, other: object) -> bool:
        return self._cmp(other) > 0

    def __ge__(self, other: object) -> bool:
        return self._cmp(other) >= 0

    def __abs__(self) -> QuadExt:
        return -self if self.sign() < 0 else self

    # -- floors, ceilings, decimals -------------------------------------------

    def _cleared(self) -> tuple[int, int, int]:
        """Return integers (A, B, q) with self = (A + B*sqrt(d)) / q, q > 0."""
        q = lcm(self.a.denominator, self.b.denominator)
        return (
            self.a.numerator * (q // self.a.denominator),
            self.b.numerator * (q // self.b.denominator),
            q,
        )

    def floor(self) -> int:
        """Exact floor, via isqrt on cleared denominators."""
        return floor_cleared(*self._cleared(), self.d)

    def ceil(self) -> int:
        return -((-self).floor())

    def floor_scaled(self, n: int) -> int:
        """Exact floor(n * self) for a nonnegative integer n."""
        if type(n) is not int or n < 0:
            raise ParameterError(f"scale must be a nonnegative integer, got {n!r}")
        return (self * n).floor()

    def ceil_scaled(self, n: int) -> int:
        """Exact ceil(n * self) for a nonnegative integer n."""
        return -(-self).floor_scaled(n)

    def fractional_part(self) -> QuadExt:
        return self - self.floor()

    def to_decimal(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits.

        Rounding is half-even; ties can only occur for rational values,
        since an irrational value times a power of ten is never a
        half-integer, so rounding it half up gives the digits exactly.
        """
        column = decimal_column(digits)
        if self.b == 0:
            return column((self.a.numerator,), (self.a.denominator,))[0]
        return column(((self * 10**digits + Fraction(1, 2)).floor(),))[0]

    # -- auxiliary -----------------------------------------------------------

    def minimal_quadratic(self) -> tuple[int, int, int]:
        """Coprime integers (c2, c1, c0) with c2*x^2 + c1*x + c0 = 0 at x = self.

        For a rational value the degree-one relation (0, q, -p) is returned.
        """
        if self.b == 0:
            return (0, self.a.denominator, -self.a.numerator)
        # (x - a)^2 = b^2 d  =>  x^2 - 2a x + (a^2 - b^2 d) = 0
        c1 = -2 * self.a
        c0 = self.a * self.a - self.b * self.b * self.d
        den = lcm(c1.denominator, c0.denominator)
        n2, n1, n0 = den, c1.numerator * (den // c1.denominator), c0.numerator * (den // c0.denominator)
        g = gcd(gcd(n2, n1), n0)
        return (n2 // g, n1 // g, n0 // g)

    def __str__(self) -> str:
        if self.b == 0:
            return rational_str(self.a)
        bs = rational_str(self.b)
        if self.b < 0:
            return f"{rational_str(self.a)} - {rational_str(-self.b)}*sqrt({self.d})"
        return f"{rational_str(self.a)} + {bs}*sqrt({self.d})"

    def __repr__(self) -> str:
        return f"QuadExt({self.a!r}, {self.b!r}, {self.d})"

    def to_json(self, digits: int = 30) -> dict:
        """Serialize as exact (a, b, d) plus a decimal rendering."""
        return {
            "a": rational_str(self.a),
            "b": rational_str(self.b),
            "d": self.d,
            "decimal": self.to_decimal(digits),
        }

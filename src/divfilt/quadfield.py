"""Exact arithmetic in real quadratic fields Q(sqrt(d)).

Every value is held as integers (A, B, q, d), the real number (A + B*sqrt(d))/q
with q > 0, gcd(A, B, q) = 1 and a fixed squarefree radicand d >= 2.  Every
operation is exact and works on those integers alone: a sum, product or
quotient is a few integer products and one gcd; comparison, floors/ceilings
of integer multiples and correctly rounded decimals are decided with integer
square roots, never with floating point.

The central trick is the exact sign test: the sign of A + B*sqrt(d) is
decided by case analysis on the signs of A and B plus one comparison of
A^2 against B^2*d.  Floors reduce to the identity

    floor((A + B*sqrt(d)) / q) = floor((A + floor(B*sqrt(d))) / q)

for integers A, B, q > 0, with floor(B*sqrt(d)) computed by isqrt(B^2*d).
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from fractions import Fraction
from math import gcd, isqrt, lcm
import operator
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

# Squarefreeness is certified by trial division up to the cube root of the
# cofactor and one perfect-square test, for every radicand up to 10^12.
_MAX_CERTIFIABLE_RADICAND = 10**12

_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


class ParameterError(ValueError):
    """An argument that a library function refuses: the front end's exit 2."""


def _int_parameter(name: str, value, low: int, high: int | None = None) -> int:
    """`value` if it is an int, not a bool, >= low and (if given) <= high; else ParameterError."""
    if type(value) is int and low <= value and (high is None or value <= high):
        return value
    bound = f">= {low}" if high is None else f"in [{low}, {high}]"
    raise ParameterError(f"{name} must be an integer {bound}, got {value!r}")


def _is_scalar(value) -> bool:
    """True for a rational value: an int that is not a bool, or a Fraction."""
    return type(value) is int or isinstance(value, Fraction)


def _excerpt(text) -> str:
    """repr(text), a str past 40 characters cut to 40 and its length."""
    long = isinstance(text, str) and len(text) > 40
    return f"{text[:40]!r}... ({len(text)} characters)" if long else repr(text)


class RadicandMismatchError(ValueError):
    """Raised when two irrational values from different Q(sqrt(d)) meet."""


class _Record:
    """Base of the value records, in place of `dataclasses`: each CLI call is a one-shot
    process, and on CPython 3.11 (2-core host) importing the CLI and building the bundled
    model took 90 ms with the 17 decorated records (their methods `exec`d at import, after
    `inspect`, `ast` and `dis`), 72 ms here.

    Annotations name a subclass's fields in constructor order; a class attribute is a
    field's default (a dict is copied).  The class keyword `hidden` keeps fields out of ==,
    hash and repr; `frozen=False` allows assignment.  Fields are set by `object.__setattr__`,
    as writing `__dict__` slows later reads; a record built often has its own `__init__`.
    """

    def __init_subclass__(cls, frozen: bool = True, hidden: tuple = ()) -> None:
        cls._fields = tuple(cls.__annotations__)
        cls._shown = tuple(name for name in cls._fields if name not in hidden)
        cls._key = operator.attrgetter(*cls._shown)
        if not frozen:
            cls.__setattr__, cls.__delattr__, cls.__hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, *args, **kwargs) -> None:
        names, defaults = self._fields, vars(type(self))
        given = dict(zip(names, args), **kwargs)
        known = given.keys() <= {*names} <= given.keys() | defaults.keys()
        if len(given) < len(args) + len(kwargs) or not known:
            raise TypeError(f"{type(self).__name__}() takes the fields {names}, got {args!r} and {kwargs!r}")
        for name in names:
            value = given[name] if name in given else defaults[name]
            object.__setattr__(self, name, dict(value) if name not in given and type(value) is dict else value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Checks or normalizes the fields, where a record defines it."""

    def __eq__(self, other) -> bool:
        return self._key(self) == self._key(other) if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self) -> int:
        return hash(self._key(self))

    def __repr__(self) -> str:
        return f"{type(self).__qualname__}({', '.join(f'{n}={getattr(self, n)!r}' for n in self._shown)})"

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"{type(self).__name__}.{name} is read-only")

    __delattr__ = __setattr__


def parse_rational(text: str) -> Fraction:
    """Parse a decimal-free rational string: an integer or ``p/q``, q != 0."""
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ParameterError(f"not a rational string (expected 'p' or 'p/q'): {_excerpt(text)}")
    try:
        return Fraction(text.strip())
    except ZeroDivisionError:
        raise ParameterError(f"zero denominator: {_excerpt(text)}") from None
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
    _int_parameter("digits", digits, 1, MAX_DECIMAL_DIGITS)
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


def _validate_radicand(d: int) -> None:
    _int_parameter("radicand", d, 2)
    if d > _MAX_CERTIFIABLE_RADICAND:
        raise ParameterError(
            f"radicand {d} exceeds {_MAX_CERTIFIABLE_RADICAND}; "
            "squarefreeness cannot be certified by trial division"
        )
    m, p = d, 2
    while p * p * p <= m and m % (p * p):
        if m % p == 0:
            m //= p
        p += 1 if p == 2 else 2
    if p * p * p > m:
        # every prime factor of the cofactor m is >= p > m^(1/3), so m has at
        # most two: it is squarefree unless it is the square of a prime
        p = isqrt(m)
        if p == 1 or p * p != m:
            return
    raise ParameterError(f"radicand must be squarefree, got {d} (divisible by {p}^2)")


def _sign(A: int, B: int, d: int) -> int:
    """Exact sign of A + B*sqrt(d) for integers A, B, no floating point."""
    if not B:
        return (A > 0) - (A < 0)
    sb = 1 if B > 0 else -1
    if not A or (A > 0) == (B > 0):
        return sb
    lhs, rhs = A * A, B * B * d
    # Equality would force sqrt(d) rational, impossible for squarefree d >= 2.
    assert lhs != rhs
    return -sb if lhs > rhs else sb


def floor_cleared(A: int, B: int, q: int, d: int) -> int:
    """floor((A + B*sqrt(d)) / q) for integers A, B, q > 0 and squarefree d."""
    if B == 0:
        return A // q
    s = isqrt(B * B * d)
    # floor(B*sqrt(d)): B*sqrt(d) is irrational for B != 0.
    return (A + (s if B > 0 else -s - 1)) // q


class QuadExt:
    """The real number ``a + b*sqrt(d) = (A + B*sqrt(d))/q``, held as one
    immutable tuple (A, B, q, d) of integers, q > 0, gcd(A, B, q) = 1 and d >= 2
    squarefree; safe to share between threads.  Arithmetic mixes freely with
    ints and Fractions; two irrational values interoperate only when their
    radicands agree.
    """

    __slots__ = ("_t",)

    def __new__(cls, a: Fraction | int, b: Fraction | int, d: int) -> QuadExt:
        _validate_radicand(d)
        for name, value in (("a", a), ("b", b)):
            if not _is_scalar(value):
                raise ParameterError(f"{name} must be an int or a Fraction, got {_excerpt(value)}")
        q = lcm(a.denominator, b.denominator)
        return _quad(a.numerator * (q // a.denominator), b.numerator * (q // b.denominator), q, d)

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"QuadExt is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple:
        return QuadExt, (self.a, self.b, self.d)

    a = property(lambda self: Fraction(self._t[0], self._t[2]), doc="a = A/q, a Fraction made on demand")
    b = property(lambda self: Fraction(self._t[1], self._t[2]), doc="b = B/q, a Fraction made on demand")
    d = property(lambda self: self._t[3], doc="the radicand")

    # -- predicates ----------------------------------------------------------

    def is_rational(self) -> bool:
        return not self._t[1]

    # -- coercion ------------------------------------------------------------

    def _cleared(self) -> tuple[int, int, int]:
        """The integers (A, B, q) with self = (A + B*sqrt(d)) / q, q > 0."""
        return self._t[:3]

    def _operand(self, other: object) -> tuple[int, int, int, int] | None:
        """`other` as (A, B, q, d), d the radicand of the result, or None for
        a type that does not mix."""
        if isinstance(other, QuadExt):
            A, B, q, d = t = other._t
            e = self._t[3]
            if d == e or (B and not self._t[1]):
                return t  # a rational self adopts an irrational other's field
            if not B:
                return A, 0, q, e
            raise RadicandMismatchError(f"cannot combine sqrt({e}) with sqrt({d})")
        if _is_scalar(other):
            return other.numerator, 0, other.denominator, self._t[3]
        return None

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: object) -> QuadExt:
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        (a, b, p, _), (A, B, q, d) = self._t, rhs
        return _quad(a * q + A * p, b * q + B * p, p * q, d)

    __radd__ = __add__

    def __sub__(self, other: object) -> QuadExt:
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        (a, b, p, _), (A, B, q, d) = self._t, rhs
        return _quad(a * q - A * p, b * q - B * p, p * q, d)

    def __rsub__(self, other: object) -> QuadExt:
        return (-self).__add__(other)

    def __neg__(self) -> QuadExt:
        A, B, q, d = self._t
        return _quad(-A, -B, q, d)

    def __mul__(self, other: object) -> QuadExt:
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        (a, b, p, _), (A, B, q, d) = self._t, rhs
        return _quad(a * A + b * B * d, a * B + b * A, p * q, d)

    __rmul__ = __mul__

    def inverse(self) -> QuadExt:
        """Multiplicative inverse: q*(A - B*sqrt(d)) / (A^2 - B^2 d)."""
        return _quotient((1, 0, 1), self._t, self._t[3])

    def __truediv__(self, other: object) -> QuadExt:
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        return _quotient(self._t, rhs, rhs[3])

    def __rtruediv__(self, other: object) -> QuadExt:
        rhs = self._operand(other)
        if rhs is None:
            return NotImplemented
        return _quotient(rhs, self._t, rhs[3])

    def __pow__(self, k: int) -> QuadExt:
        if type(k) is not int:
            return NotImplemented
        A, B, q, d = (self if k >= 0 else self.inverse())._t
        k = abs(k)
        rA, rB, rq = 1, 0, 1
        while k:
            if k & 1:
                rA, rB, rq = rA * A + rB * B * d, rA * B + rB * A, rq * q
            k >>= 1
            if k:
                A, B, q = A * A + B * B * d, 2 * A * B, q * q
        return _quad(rA, rB, rq, d)

    # -- comparison ----------------------------------------------------------

    def sign(self) -> int:
        """Exact sign: -1, 0 or +1."""
        A, B, _, d = self._t
        return _sign(A, B, d)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, QuadExt):
            # Distinct squarefree radicands: equality only between rationals.
            return self._t[:3] == other._t[:3] and (self._t[3] == other._t[3] or not self._t[1])
        if _is_scalar(other):
            A, B, q, _ = self._t
            return not B and A == other.numerator and q == other.denominator
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._t) if self._t[1] else hash(self.a)

    def _cmp(self, other: object) -> int:
        rhs = self._operand(other)
        if rhs is None:
            raise TypeError(f"cannot compare QuadExt with {type(other).__name__}")
        (a, b, p, _), (A, B, q, d) = self._t, rhs
        return _sign(a * q - A * p, b * q - B * p, d)

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

    def floor(self) -> int:
        """Exact floor, via isqrt on the cleared form."""
        return floor_cleared(*self._t)

    def ceil(self) -> int:
        A, B, q, d = self._t
        return -floor_cleared(-A, -B, q, d)

    def floor_scaled(self, n: int) -> int:
        """Exact floor(n * self) for a nonnegative integer n."""
        (A, B, q, d), n = self._t, _int_parameter("scale", n, 0)
        return floor_cleared(A * n, B * n, q, d)

    def ceil_scaled(self, n: int) -> int:
        """Exact ceil(n * self) for a nonnegative integer n."""
        (A, B, q, d), n = self._t, _int_parameter("scale", n, 0)
        return -floor_cleared(-A * n, -B * n, q, d)

    def fractional_part(self) -> QuadExt:
        return self - self.floor()

    def to_decimal(self, digits: int) -> str:
        """Correctly rounded decimal string with `digits` fractional digits.

        Rounding is half-even; ties can only occur for rational values, since
        an irrational value times s = 10**digits is never a half-integer, so
        floor(s*self + 1/2) = floor((2As + q + 2Bs*sqrt(d))/(2q)) is exact.
        """
        column = decimal_column(digits)
        A, B, q, d = self._t
        if not B:
            return column((A,), (q,))[0]
        s = 10**digits
        return column((floor_cleared(2 * A * s + q, 2 * B * s, 2 * q, d),))[0]

    # -- auxiliary -----------------------------------------------------------

    def minimal_quadratic(self) -> tuple[int, int, int]:
        """Coprime integers (c2, c1, c0) with c2*x^2 + c1*x + c0 = 0 at x = self.

        For a rational value the degree-one relation (0, q, -p) is returned.
        """
        A, B, q, d = self._t
        if not B:
            return (0, q, -A)
        # (q*x - A)^2 = B^2 d  =>  q^2 x^2 - 2*A*q x + (A^2 - B^2 d) = 0
        c2, c1, c0 = q * q, -2 * A * q, A * A - B * B * d
        g = gcd(c2, c1, c0)
        return (c2 // g, c1 // g, c0 // g)

    def __str__(self) -> str:
        a, b = self.a, self.b
        if not b:
            return rational_str(a)
        if b < 0:
            return f"{rational_str(a)} - {rational_str(-b)}*sqrt({self.d})"
        return f"{rational_str(a)} + {rational_str(b)}*sqrt({self.d})"

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


_new, _set = object.__new__, QuadExt._t.__set__


def _quad(A: int, B: int, q: int, d: int) -> QuadExt:
    """(A + B*sqrt(d))/q for integers with q != 0, canonical; d comes from
    validated operands, so it is not validated again."""
    g = gcd(A, B, q) if q > 0 else -gcd(A, B, q)
    x = _new(QuadExt)
    _set(x, (A // g, B // g, q // g, d))
    return x


def _quotient(x: tuple, y: tuple, d: int) -> QuadExt:
    """x / y for x = (A, B, q, ...) and y = (C, D, r, ...), each (A + B*sqrt(d))/q:
    x times r*(C - D*sqrt(d)) over the norm C^2 - D^2*d, nonzero for y != 0."""
    (A, B, q, *_), (C, D, r, *_) = x, y
    if not (C or D):
        raise ZeroDivisionError("division by zero in Q(sqrt(d))")
    return _quad(r * (A * C - B * D * d), r * (B * C - A * D), q * (C * C - D * D * d), d)

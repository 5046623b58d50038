"""The monomial filtration I_n in three variables: closed forms and checks.

The filtration I_n = (z^(n+2)) + z^(n+1) (x, y)^sigma(n) is known in closed
form from n and sigma(n): x^a y^b z^c lies in I_n iff c >= n + 2, or both
c >= n + 1 and a + b >= sigma(n) (`in_In`).  Its count of minimal
generators, the length of I_n/mI_n (Nakayama), is sigma(n) + 2, an identity
of the construction.  u = x^(sigma(n)-1) z^(n+1) is a socle witness: u is
not in I_n while xu, yu and zu are, so m is an associated prime of R/I_n for
every n (`socle_certificate`).  The graded condition I_m * I_n within
I_(m+n) is decided by one monomial per pair (`filtration_check`): since
sigma(k) >= 1, gcd(I_k) = z^(k+1), so every generator product of I_m and
I_n is divisible by the floor z^(m+n+2), which lies in I_(m+n) by `in_In`.
The filtration is graded for every sigma.  None of these lists a generator.

An explicit I_n, for tests and demos, is the frozenset of its minimal
generators, exponent vectors in N^3, from `build_In`; `perfbench/spans.py`
wraps `build_In` and `min_gens_count` by name.  `build_In` checks its
z-exponent n + 2 against 2^63, and every sigma value, from a table or a
callable, is checked once against 0 < sigma < 2^63 where it is read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from divfilt.quadfield import ParameterError

__all__ = [
    "Vector",
    "SigmaFiltration",
    "build_In",
    "in_In",
    "socle_certificate",
    "min_gens_count",
    "FiltrationReport",
    "filtration_check",
]

Vector = tuple[int, int, int]

_MAX_EXPONENT = 2**63


@dataclass(frozen=True)
class SigmaFiltration:
    """A positive-integer function n -> sigma(n), from a table or callable."""

    table: tuple = ()
    func: Callable | None = None

    def __post_init__(self) -> None:
        if (self.func is None) == (not self.table):
            raise ValueError("provide exactly one of table or func")
        for v in self.table:  # the bound sigma() applies to callable values
            if type(v) is not int or not 0 < v < _MAX_EXPONENT:  # type(): bool is an int
                raise ValueError(f"sigma values must be positive integers below 2^63, got {v!r}")
        object.__setattr__(self, "table", tuple(self.table))

    @classmethod
    def from_json(cls, values: list) -> SigmaFiltration:
        """JSON arrays are read 1-based: element k (0-based) is sigma(k+1)."""
        if not isinstance(values, list) or not values:
            raise ValueError("sigma table must be a nonempty JSON array")
        return cls(table=tuple(values))

    @classmethod
    def from_callable(cls, func: Callable) -> SigmaFiltration:
        return cls(func=func)

    def sigma(self, n: int) -> int:
        if type(n) is not int or n < 1:
            raise ParameterError(f"n must be a positive integer, got {n!r}")
        if self.func is None:
            if n > len(self.table):
                raise ValueError(f"sigma table has {len(self.table)} entries; n={n}")
            return self.table[n - 1]
        value = self.func(n)
        if type(value) is not int or not 0 < value < _MAX_EXPONENT:
            raise ValueError(f"sigma({n}) must be a positive integer below 2^63, got {value!r}")
        return value


def build_In(f: SigmaFiltration, n: int) -> frozenset[Vector]:
    """The minimal generators of the n-th filtration ideal
    (z^(n+2)) + z^(n+1) (x, y)^sigma(n).

    They are (0, 0, n+2) plus (i, sigma(n)-i, n+1) for 0 <= i <= sigma(n),
    an antichain for every sigma(n) >= 1: the (x, y)-parts of the last
    sigma(n)+1 are distinct of one degree, and z^(n+2) divides none of them
    nor they it.  So only the largest exponents, n+2 and sigma(n), are
    range-checked (sigma(n) by `f.sigma`); nothing is re-verified.
    """
    if type(n) is not int or n < 1:
        raise ParameterError(f"n must be a positive integer, got {n!r}")
    s = f.sigma(n)
    if n + 2 >= _MAX_EXPONENT:
        raise ParameterError(f"exponent out of range [0, 2^63): n={n}")
    gens = [(0, 0, n + 2)]
    gens.extend((i, s - i, n + 1) for i in range(s + 1))
    return frozenset(gens)


def min_gens_count(gens: frozenset[Vector]) -> int:
    """Number of minimal generators = length of I/mI (Nakayama): len(gens).
    It stays a function because `perfbench/spans.py` wraps it by name and
    the monomial demo calls it."""
    return len(gens)


def in_In(n: int, s: int, v: Vector) -> bool:
    """True iff x^a y^b z^c, v = (a, b, c), lies in I_n, where s = sigma(n);
    a closed form, checked in the tests against divisibility by a generator
    from `build_In(f, n)`."""
    return v[2] >= n + 2 or (v[2] >= n + 1 and v[0] + v[1] >= s)


def socle_certificate(n: int, s: int) -> tuple[Vector, bool]:
    """The socle witness u = x^(s-1) z^(n+1) of I_n, s = sigma(n) >= 1, and
    whether `in_In` certifies it: u is not in I_n, and xu, yu, zu are."""
    a, b, c = u = (s - 1, 0, n + 1)
    shifts = ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1))
    return u, not in_In(n, s, u) and all(in_In(n, s, w) for w in shifts)


@dataclass(frozen=True)
class FiltrationReport:
    m_max: int
    n_max: int
    ok: bool
    failures: tuple

    def to_json(self) -> dict:
        return {
            "m_max": self.m_max,
            "n_max": self.n_max,
            "ok": self.ok,
            "failures": [
                {"m": m, "n": n, "gcd_m": list(g), "gcd_n": list(h)}
                for m, n, g, h in self.failures
            ],
        }


def filtration_check(f: SigmaFiltration, m_max: int, n_max: int) -> FiltrationReport:
    """I_m * I_n within I_(m+n) for all m <= m_max, n <= n_max: an identity.

    The sigma source must cover indices up to m_max + n_max; each sigma(k) is
    read once, so a short or invalid source raises.  No ideal is built: each
    pair's floor gcd(I_m) * gcd(I_n) = z^(m+n+2) divides every generator
    product, and `in_In`'s clause c >= n + 2 puts it in I_(m+n) at every
    sigma, so this cannot fail; `failures` lists (m, n, gcd(I_m), gcd(I_n))
    only if `in_In` itself is wrong.  The check is symmetric in (m, n), so a
    pair with n < m is skipped when (n, m) is in range too.
    """
    sigma = {k: f.sigma(k) for k in range(1, m_max + n_max + 1)}
    failures = []
    for m in range(1, m_max + 1):
        for n in range(m if m <= n_max else 1, n_max + 1):
            if not in_In(m + n, sigma[m + n], (0, 0, m + n + 2)):
                failures.append((m, n, (0, 0, m + 1), (0, 0, n + 1)))
    return FiltrationReport(m_max, n_max, not failures, tuple(failures))

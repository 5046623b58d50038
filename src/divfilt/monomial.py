"""Monomial-ideal arithmetic in three variables for graded filtration checks.

An ideal is stored by its minimal monomial generators, an antichain of
exponent vectors in N^3 under componentwise <=.  The number of minimal
generators equals the length of I/mI (Nakayama), which is the quantity the
filtration I_n = (z^(n+2)) + z^(n+1) (x, y)^sigma(n) is built to control:
it always has exactly sigma(n) + 2 minimal generators.

The graded condition I * J within K is verified on the actual ideals rather
than assumed, certificate first: every generator product is divisible by the
monomial gcd(I) * gcd(J), whose exponents are the componentwise minima over
the generators, so if it lies in K then so does I * J.  Otherwise every
generator product is tested and failures are reported as explicit
counterexample pairs.  For the filtration above gcd(I_m) * gcd(I_n) is
z^(m+n+2), which lies in I_(m+n): the filtration is graded for every sigma.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Iterator

__all__ = [
    "Vector",
    "MonomialIdeal",
    "SigmaFiltration",
    "minimalize",
    "build_In",
    "min_gens_count",
    "product_contained_in",
    "containment_failures",
    "FiltrationReport",
    "filtration_check",
]

Vector = tuple[int, int, int]

_MAX_EXPONENT = 2**63


def _check_vector(v) -> Vector:
    if not (isinstance(v, tuple) and len(v) == 3):
        raise ValueError(f"exponent vectors live in N^3, got {v!r}")
    for e in v:
        if not isinstance(e, int) or e < 0 or e >= _MAX_EXPONENT:
            raise ValueError(f"exponent out of range [0, 2^63): {v!r}")
    return v


def _dominates(v: Vector, g: Vector) -> bool:
    """True when g divides v, i.e. g <= v componentwise."""
    return g[0] <= v[0] and g[1] <= v[1] and g[2] <= v[2]


def _verify_antichain(gens: frozenset) -> None:
    # a strict divisor has strictly smaller total degree, so comparing each
    # vector against the smaller-degree ones only is exact and keeps the
    # check near-linear for level-set-heavy ideals
    by_degree: dict[int, list[Vector]] = {}
    for v in gens:
        by_degree.setdefault(sum(v), []).append(v)
    smaller: list[Vector] = []
    for degree in sorted(by_degree):
        batch = by_degree[degree]
        for v in batch:
            for g in smaller:
                if _dominates(v, g):
                    raise ValueError(f"generators are not an antichain: {g} divides {v}")
        smaller.extend(batch)


@dataclass(frozen=True)
class MonomialIdeal:
    """Monomial ideal given by its minimal generators (an antichain)."""

    generators: frozenset

    def __post_init__(self) -> None:
        gens = frozenset(_check_vector(v) for v in self.generators)
        object.__setattr__(self, "generators", gens)
        _verify_antichain(gens)

    @classmethod
    def from_gens(cls, gens: Iterable[Vector]) -> MonomialIdeal:
        return minimalize(gens)

    @classmethod
    def zero(cls) -> MonomialIdeal:
        return cls(frozenset())

    @classmethod
    def unit(cls) -> MonomialIdeal:
        return cls(frozenset({(0, 0, 0)}))

    def contains_monomial(self, v: Vector) -> bool:
        v = _check_vector(tuple(v))
        return any(_dominates(v, g) for g in self._sorted_gens())

    def _sorted_gens(self) -> tuple:
        # cached sorted view; lexicographic order puts low-x/low-y (e.g. pure
        # z-power) generators first, which tends to hit early
        cached = getattr(self, "_gens_sorted", None)
        if cached is None:
            cached = tuple(sorted(self.generators))
            object.__setattr__(self, "_gens_sorted", cached)
        return cached


def minimalize(gens: Iterable[Vector]) -> MonomialIdeal:
    """Drop every vector componentwise-dominating another generator.

    Vectors are processed by increasing total degree: a dominator has
    strictly smaller degree, so each vector needs comparing only against
    already-accepted vectors of smaller degree (equal-degree vectors never
    divide one another).
    """
    unique = {_check_vector(tuple(v)) for v in gens}
    by_degree: dict[int, list[Vector]] = {}
    for v in unique:
        by_degree.setdefault(sum(v), []).append(v)
    accepted: list[Vector] = []
    kept: set[Vector] = set()
    for degree in sorted(by_degree):
        batch = [
            v for v in by_degree[degree] if not any(_dominates(v, g) for g in accepted)
        ]
        kept.update(batch)
        accepted.extend(batch)
    return MonomialIdeal(frozenset(kept))


@dataclass(frozen=True)
class SigmaFiltration:
    """A positive-integer function n -> sigma(n), from a table or callable."""

    table: tuple = ()
    func: Callable | None = None

    def __post_init__(self) -> None:
        if (self.func is None) == (not self.table):
            raise ValueError("provide exactly one of table or func")
        for v in self.table:
            if type(v) is not int or v < 1:  # type(), not isinstance: bool is an int
                raise ValueError(f"sigma values must be positive integers, got {v!r}")
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
        if not isinstance(n, int) or n < 1:
            raise ValueError(f"n must be a positive integer, got {n!r}")
        if self.func is not None:
            value = self.func(n)
        else:
            if n > len(self.table):
                raise ValueError(f"sigma table has {len(self.table)} entries; n={n}")
            value = self.table[n - 1]
        if type(value) is not int or value < 1:
            raise ValueError(f"sigma({n}) must be a positive integer, got {value!r}")
        return value


def build_In(f: SigmaFiltration, n: int) -> MonomialIdeal:
    """The n-th filtration ideal (z^(n+2)) + z^(n+1) (x, y)^sigma(n).

    Minimal generators: (0, 0, n+2) plus (i, sigma(n)-i, n+1) for
    0 <= i <= sigma(n).  They form an antichain for every sigma(n) >= 1: the
    (x, y)-parts of the last sigma(n)+1 are distinct of one degree, and
    z^(n+2) divides none of them nor they it.
    """
    if not isinstance(n, int) or n < 1:
        raise ValueError(f"n must be a positive integer, got {n!r}")
    s = f.sigma(n)
    gens = [(0, 0, n + 2)]
    gens.extend((i, s - i, n + 1) for i in range(s + 1))
    # already an antichain for s >= 1, which MonomialIdeal verifies
    return MonomialIdeal(frozenset(gens))


def min_gens_count(ideal: MonomialIdeal) -> int:
    """Number of minimal generators = length of I/mI (Nakayama)."""
    return len(ideal.generators)


def _floor_certificate(I: MonomialIdeal, J: MonomialIdeal, K: MonomialIdeal) -> bool:
    """True when one monomial proves I*J within K.

    Every generator product g*h is divisible by f = gcd(I) * gcd(J), the
    componentwise minima of I's and of J's generators added; so f in K puts
    every product in K.  False only means the certificate does not apply.
    """
    if not I.generators or not J.generators:
        return False
    f = tuple(min(a) + min(b) for a, b in zip(zip(*I.generators), zip(*J.generators)))
    return K.contains_monomial(f)


def _failing_pairs(
    I: MonomialIdeal, J: MonomialIdeal, K: MonomialIdeal
) -> Iterator[tuple[Vector, Vector]]:
    """Generator pairs (g, h) of I x J whose product lies outside K, lazily;
    none when the floor certificate settles the containment."""
    if _floor_certificate(I, J, K):
        return
    for g in I._sorted_gens():
        for h in J._sorted_gens():
            if not K.contains_monomial((g[0] + h[0], g[1] + h[1], g[2] + h[2])):
                yield g, h


def containment_failures(
    I: MonomialIdeal, J: MonomialIdeal, K: MonomialIdeal
) -> list[tuple[Vector, Vector]]:
    """Generator pairs (g, h) of I x J whose product lies outside K."""
    return list(_failing_pairs(I, J, K))


def product_contained_in(I: MonomialIdeal, J: MonomialIdeal, K: MonomialIdeal) -> bool:
    """True iff I*J is contained in K (checked on generator products)."""
    return next(_failing_pairs(I, J, K), None) is None


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
                {"m": m, "n": n, "gen_m": list(g), "gen_n": list(h)}
                for m, n, g, h in self.failures
            ],
        }


def filtration_check(f: SigmaFiltration, m_max: int, n_max: int) -> FiltrationReport:
    """Verify I_m * I_n within I_(m+n) for all m <= m_max, n <= n_max.

    The sigma source must cover indices up to m_max + n_max.  Each pair is
    decided by `containment_failures`, the floor certificate first and the
    generator-by-generator test as the fallback.  Every product of generators
    of I_m and I_n is divisible by z^(m+n+2), which lies in I_(m+n), so the
    certificate settles each pair of this filtration; it is read off the
    built generators, so a wrongly built ideal would still show.
    Counterexample pairs are reported verbatim, never suppressed.  The check
    is symmetric in (m, n), so a pair with n < m is skipped when (n, m) is in
    range too.
    """
    ideals = {k: build_In(f, k) for k in range(1, m_max + n_max + 1)}
    failures = []
    for m in range(1, m_max + 1):
        for n in range(m if m <= n_max else 1, n_max + 1):
            for g, h in containment_failures(ideals[m], ideals[n], ideals[m + n]):
                failures.append((m, n, g, h))
    return FiltrationReport(m_max, n_max, not failures, tuple(failures))

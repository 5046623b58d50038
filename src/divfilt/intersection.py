"""Trilinear intersection forms on a divisor lattice and bivariate polynomials.

A cubic growth law like (D_n^3) for a family of divisors D_n = x*S + y*F
(with x = ceil(alpha*n) and y = n) expands, by multilinearity of the
intersection form, into a polynomial in the two formal variables x and y
whose coefficients come from a finite table of triple products of the
lattice generators.  This module provides the table (`IntersectionForm`),
the polynomial carrier (`BivariatePolynomial`), and the expansion/difference/
evaluation operations on them.  A formal divisor is a plain mapping
{generator symbol: BivariatePolynomial}, e.g. {"S": POLY_X, "F": POLY_Y} for
D_n.  All coefficients are exact rationals.

Tables are ingested from JSON documents of the shape

    {"generators": ["S", "F", "K"],
     "triples": [{"d": ["S", "S", "S"], "v": "468"}, ...]}

with values as decimal-free rational strings.  Triple values are stored on
sorted name triples, so the form is symmetric by construction.  A generator
may participate only in mixed products (no pure cube); completeness is
required only among generators that do have a pure cube in the table.
"""

from __future__ import annotations

from collections.abc import Iterable, Mapping
from fractions import Fraction
from math import comb

from divfilt.quadfield import ParameterError, _Record, _excerpt, parse_rational, rational_str

__all__ = [
    "DivisorSymbol",
    "UnknownSymbolError",
    "BivariatePolynomial",
    "IntersectionForm",
    "POLY_X",
    "POLY_Y",
    "POLY_ONE",
    "triple_product",
    "difference_polynomial",
    "form_from_json",
]

#: Divisor symbols are bare identifier strings, unique within a lattice.
DivisorSymbol = str


class UnknownSymbolError(ValueError):
    """A divisor symbol or triple is absent from the intersection table."""


Scalar = Fraction | int


def _as_fraction(value: Scalar) -> Fraction:
    if type(value) is not int and not isinstance(value, Fraction):  # a bool, float, str or Decimal
        raise ParameterError(f"expected an int or a Fraction, got {_excerpt(value)}")
    return value if isinstance(value, Fraction) else Fraction(value)


class BivariatePolynomial(_Record):
    """Polynomial in formal variables x and y with exact rational coefficients.

    `terms` maps (x_degree, y_degree) to a nonzero coefficient; the zero
    polynomial has no terms.  Instances are immutable value objects.
    """

    terms: Mapping[tuple[int, int], Fraction]

    def __init__(self, terms: Mapping[tuple[int, int], Fraction]) -> None:
        clean = {}
        for (i, j), c in terms.items():
            if not (type(i) is int and type(j) is int and i >= 0 and j >= 0):
                raise ParameterError(f"bad exponent pair {(i, j)!r}")
            c = _as_fraction(c)
            if c != 0:
                clean[(i, j)] = c
        object.__setattr__(self, "terms", clean)

    @classmethod
    def zero(cls) -> BivariatePolynomial:
        return cls({})

    @classmethod
    def constant(cls, c: Scalar) -> BivariatePolynomial:
        return cls({(0, 0): _as_fraction(c)})

    @classmethod
    def monomial(cls, i: int, j: int, c: Scalar = 1) -> BivariatePolynomial:
        return cls({(i, j): _as_fraction(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def total_degree(self) -> int:
        """Degree of the zero polynomial is reported as -1."""
        return max((i + j for i, j in self.terms), default=-1)

    def is_homogeneous(self, degree: int | None = None) -> bool:
        degs = {i + j for i, j in self.terms}
        if not degs:
            return True
        if len(degs) > 1:
            return False
        return degree is None or degs == {degree}

    def coefficient(self, i: int, j: int) -> Fraction:
        return self.terms.get((i, j), Fraction(0))

    # -- arithmetic -----------------------------------------------------------

    def __add__(self, other: BivariatePolynomial) -> BivariatePolynomial:
        terms = dict(self.terms)
        for key, c in other.terms.items():
            terms[key] = terms.get(key, Fraction(0)) + c
        return BivariatePolynomial(terms)

    def __neg__(self) -> BivariatePolynomial:
        return BivariatePolynomial({k: -c for k, c in self.terms.items()})

    def __sub__(self, other: BivariatePolynomial) -> BivariatePolynomial:
        return self + (-other)

    def __mul__(self, other: object) -> BivariatePolynomial:
        if isinstance(other, BivariatePolynomial):
            terms: dict[tuple[int, int], Fraction] = {}
            for (i1, j1), c1 in self.terms.items():
                for (i2, j2), c2 in other.terms.items():
                    key = (i1 + i2, j1 + j2)
                    terms[key] = terms.get(key, Fraction(0)) + c1 * c2
            return BivariatePolynomial(terms)
        if type(other) is int or isinstance(other, Fraction):
            return BivariatePolynomial({k: c * other for k, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def shift(self, dx: Scalar, dy: Scalar) -> BivariatePolynomial:
        """Substitute x -> x + dx, y -> y + dy and expand (binomially); integer
        shifts keep each factor an int, one Fraction product per term."""
        dx, dy = (v if type(v) is int else _as_fraction(v) for v in (dx, dy))
        out: dict[tuple[int, int], Fraction] = {}
        for (i, j), c in self.terms.items():
            for r in range(i + 1):
                xc = comb(i, r) * dx ** (i - r)
                for s in range(j + 1):
                    key = (r, s)
                    out[key] = out.get(key, 0) + c * (xc * comb(j, s) * dy ** (j - s))
        return BivariatePolynomial(out)

    def homogeneous_part(self, degree: int) -> BivariatePolynomial:
        if degree < 0:
            raise ValueError("degree must be nonnegative")
        return BivariatePolynomial(
            {k: c for k, c in self.terms.items() if k[0] + k[1] == degree}
        )

    def evaluate(self, x, y):
        """Exact evaluation; x and y may be QuadExt, Fraction or int.

        Irrational arguments must share their radicand (a rational argument
        adopts the other's field).  Each power is formed once, from x**0 and
        y**0, and the sum starts at zero in the arguments' own field, so a
        QuadExt argument gives a QuadExt even for the zero polynomial.
        """
        xs, ys = [x**0], [y**0]
        acc = 0 * xs[0] * ys[0]
        for (i, j), c in sorted(self.terms.items()):
            while len(xs) <= i:
                xs.append(xs[-1] * x)
            while len(ys) <= j:
                ys.append(ys[-1] * y)
            acc = acc + c * xs[i] * ys[j]
        return acc

    def __str__(self) -> str:
        if not self.terms:
            return "0"
        parts = []
        for (i, j), c in sorted(self.terms.items(), key=lambda kv: (-(kv[0][0] + kv[0][1]), -kv[0][0])):
            mono = "".join(
                s
                for s in (
                    "x" if i == 1 else (f"x^{i}" if i else ""),
                    "y" if j == 1 else (f"y^{j}" if j else ""),
                )
                if s
            )
            coeff = rational_str(c)
            parts.append(f"{coeff}*{mono}" if mono else coeff)
        return " + ".join(parts).replace("+ -", "- ")


POLY_X = BivariatePolynomial.monomial(1, 0)
POLY_Y = BivariatePolynomial.monomial(0, 1)
POLY_ONE = BivariatePolynomial.constant(1)


def _sorted_triple(names: Iterable[DivisorSymbol]) -> tuple[str, str, str]:
    t = tuple(sorted(names))
    if len(t) != 3 or not all(isinstance(s, str) and s for s in t):
        raise ValueError(f"a triple needs exactly three symbol names, got {t!r}")
    return t  # type: ignore[return-value]


class IntersectionForm(_Record):
    """Symmetric trilinear form on named generators, given by a triple table.

    Values are stored on sorted triples, which makes symmetry structural.
    Generators whose pure cube (g,g,g) appears in the table are "cubic"
    generators; all triples among cubic generators must be present.  Other
    generators (e.g. a canonical-class symbol) may appear in mixed rows only,
    and looking up an absent triple raises `UnknownSymbolError`.
    """

    generators: tuple[DivisorSymbol, ...]
    table: Mapping[tuple[str, str, str], Fraction] = {}

    def __post_init__(self) -> None:
        gens = tuple(self.generators)
        if len(set(gens)) != len(gens):
            raise ValueError(f"generator names must be unique: {gens!r}")
        known = set(gens)
        clean: dict[tuple[str, str, str], Fraction] = {}
        for names, value in self.table.items():
            t = _sorted_triple(names)
            for s in t:
                if s not in known:
                    raise UnknownSymbolError(f"symbol {s!r} not among generators {gens!r}")
            if t in clean and clean[t] != _as_fraction(value):
                raise ValueError(f"conflicting values for triple {t!r}")
            clean[t] = _as_fraction(value)
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "table", clean)
        cubic = [g for g in gens if (g, g, g) in clean]
        for t in _all_triples(cubic):
            if t not in clean:
                raise ValueError(f"missing triple {t!r} among cubic generators {cubic!r}")

    def value(self, s1: DivisorSymbol, s2: DivisorSymbol, s3: DivisorSymbol) -> Fraction:
        t = _sorted_triple((s1, s2, s3))
        try:
            return self.table[t]
        except KeyError:
            raise UnknownSymbolError(f"triple {t!r} not in intersection table") from None


def _all_triples(symbols: Iterable[str]) -> list[tuple[str, str, str]]:
    syms = sorted(symbols)
    out = []
    for i, a in enumerate(syms):
        for j in range(i, len(syms)):
            for k in range(j, len(syms)):
                out.append((a, syms[j], syms[k]))
    return out


Divisor = Mapping[DivisorSymbol, BivariatePolynomial]


def triple_product(form: IntersectionForm, A: Divisor, B: Divisor, C: Divisor) -> BivariatePolynomial:
    """Full multilinear expansion of the triple intersection of the formal
    divisors A, B, C, each a mapping {symbol: polynomial coefficient}."""
    known = set(form.generators)
    for expr in (A, B, C):
        missing = set(expr) - known
        if missing:
            raise UnknownSymbolError(f"unknown symbols {sorted(missing)!r}")
    total = BivariatePolynomial.zero()
    for s1, c1 in A.items():
        for s2, c2 in B.items():
            partial = c1 * c2
            for s3, c3 in C.items():
                total = total + partial * c3 * form.value(s1, s2, s3)
    return total


def difference_polynomial(P: BivariatePolynomial, sigma: int) -> BivariatePolynomial:
    """P(x + sigma, y + 1) - P(x, y), fully expanded."""
    return P.shift(sigma, 1) - P


# -- JSON ingestion -----------------------------------------------------------


def form_from_json(doc: dict) -> IntersectionForm:
    """Build an `IntersectionForm` from its JSON document form."""
    if not isinstance(doc, dict):
        raise ValueError("intersection table document must be a JSON object")
    gens = doc.get("generators")
    triples = doc.get("triples")
    if not isinstance(gens, list) or not all(isinstance(g, str) for g in gens):
        raise ValueError("'generators' must be a list of strings")
    if not isinstance(triples, list):
        raise ValueError("'triples' must be a list")
    table: dict[tuple[str, str, str], Fraction] = {}
    for row in triples:
        if not isinstance(row, dict) or set(row) != {"d", "v"}:
            raise ValueError(f"each triple row needs exactly keys 'd' and 'v': {row!r}")
        names = row["d"]
        if not isinstance(names, list) or len(names) != 3:
            raise ValueError(f"'d' must list three generator names: {names!r}")
        key = _sorted_triple(names)
        value = parse_rational(row["v"]) if isinstance(row["v"], str) else None
        if value is None:
            raise ValueError(f"'v' must be a rational string: {row['v']!r}")
        if key in table and table[key] != value:
            raise ValueError(f"conflicting values for triple {key!r}")
        table[key] = value
    return IntersectionForm(tuple(gens), table)


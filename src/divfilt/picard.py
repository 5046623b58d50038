"""Elliptic-curve group law and divisor-class bookkeeping, exactly.

Curves are short Weierstrass y^2 = x^3 + A x + B over the rationals
(Fraction coordinates) or over a prime field F_p with p an odd prime.
The chord-tangent group law is written once, `_pair_add` on affine pairs;
`EllipticCurve.add` wraps it for points and the q_n ladder below calls it
directly.  It realizes the Jacobian: a degree-d divisor class is
represented by the pair (d, P) where P is the group-law sum of its points
with multiplicities (Abel-Jacobi).

On top of the group law the module generates the point sequence

    q_n = p + [n](q - p).

Over Q on an integral model (integer A and B) with a step q - p of
infinite order, the multiples [n](q - p) come from the division-polynomial
values at the step, an elliptic divisibility sequence, and q_n is one
chord step from p.  Every other case (F_p, a non-integral model, a torsion
step) walks one affine ladder on coordinate pairs, q_n = q_(n-1) + (q - p).
Either way each q_n is kept as a quadruple (X, X', Y, Y') of integers,
q_n = (X/X', Y/Y') in lowest terms (X' = Y' = 1 over F_p), or as O.

The module audits the sequence's pairwise distinctness and q-avoidance.
Both verdicts come from the order of q - p: the first n with q_n = p gives
every collision and every return to q, and the one torsion relation behind
them is re-verified on the spot.  It also certifies infinite order over Q
by checking [m](q - p) != O up to the uniform rational torsion bound 12
(Mazur; over F_p the verdict is only a bounded check), and replays the
blowup restriction bookkeeping whose assembled divisor class

    n(q - p) + p - q_n

must be trivial at every level: that is each level's one verdict.  The
hard-coded exceptional pairing rules feeding that replay (the
self-intersection of the contracted section is the class of -p, and after
blowing up q_n it becomes the class of -p - q_n while the exceptional curve
meets the strict transform in q_n) are a group-law identity, checked once
per run by `exceptional_pairing_holds`.
"""

from __future__ import annotations

import functools
from collections.abc import Iterable, Sequence
from decimal import MAX_EMAX, MAX_PREC, Context, Decimal, InvalidOperation, Rounded, localcontext
from fractions import Fraction
from math import gcd, isqrt

from divfilt.quadfield import ParameterError, _Record, parse_rational, rational_str
from divfilt.quadfield import _int_parameter, _without_digit_limit

__all__ = [
    "EllipticCurve",
    "CurvePoint",
    "DivisorClass",
    "SingularCurveError",
    "PointNotOnCurveError",
    "class_of",
    "qn_sequence",
    "QnReport",
    "infinite_order_witness",
    "WitnessVerdict",
    "restriction_report",
    "restriction_replay",
    "RestrictionReport",
    "exceptional_pairing_holds",
    "RATIONAL_TORSION_BOUND",
    "curve_from_json",
    "curve_to_json",
]

#: Over Q, a torsion point has order at most 12; checking multiples up to
#: this bound therefore certifies infinite order.
RATIONAL_TORSION_BOUND = 12


class SingularCurveError(ValueError):
    """4A^3 + 27B^2 = 0: the Weierstrass cubic is singular."""


class PointNotOnCurveError(ValueError):
    """A point's coordinates do not satisfy the curve equation."""


# Miller-Rabin to the bases 2..41 decides primality below psi_13 (Sorenson and
# Webster 2015); 2..37 stop at psi_12 = 318665857834031151167461, a composite.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MAX_CERTIFIABLE_MODULUS = 3317044064679887385961981  # psi_13


def _is_probable_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class CurvePoint(_Record):
    """Affine point (x, y) or the point at infinity (both coordinates None)."""

    x: object = None
    y: object = None

    def __init__(self, x: object = None, y: object = None) -> None:
        if (x is None) != (y is None):
            raise ValueError("both coordinates or neither")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __str__(self) -> str:
        if self.is_infinity:
            return "O"
        return f"({self.x}, {self.y})"

    def to_json(self) -> object:
        if self.is_infinity:
            return "O"
        return {"x": rational_str(self.x), "y": rational_str(self.y)}


O = CurvePoint()


class EllipticCurve(_Record):
    """y^2 = x^3 + A x + B over Q (p None) or over F_p (p an odd prime)."""

    a: object
    b: object
    p: int | None = None

    def __post_init__(self) -> None:
        if self.p is not None:
            if (not isinstance(self.p, int) or not 2 < self.p < _MAX_CERTIFIABLE_MODULUS
                    or not _is_probable_prime(self.p)):
                raise ValueError(
                    f"field modulus must be an odd prime below {_MAX_CERTIFIABLE_MODULUS}, "
                    f"where primality can be certified; got {self.p!r}"
                )
        object.__setattr__(self, "a", self.coord(self.a))
        object.__setattr__(self, "b", self.coord(self.b))
        disc = 4 * self.a**3 + 27 * self.b**2
        if self._norm(disc) == 0:
            raise SingularCurveError(f"4A^3 + 27B^2 = 0 for A={self.a}, B={self.b}")

    # field helpers -----------------------------------------------------------

    def _norm(self, v):
        return v % self.p if self.p is not None else v

    def _div(self, u, v):
        if self.p is not None:
            return u * pow(v, -1, self.p) % self.p
        return Fraction(u) / v

    def coord(self, raw) -> object:
        """`raw` as an element of this curve's field: a Fraction over Q, an
        int in [0, p) over F_p.  Only an int or a Fraction is accepted, and
        over F_p only an integer; anything else raises ValueError."""
        if type(raw) is not int and not isinstance(raw, Fraction):
            raise ValueError(f"field elements must be int or Fraction, got {raw!r}")
        if self.p is None:
            return Fraction(raw)
        if raw.denominator != 1:
            raise ValueError(f"A, B and coordinates must be integers over a prime field, got {raw}")
        return int(raw) % self.p

    def contains(self, pt: CurvePoint) -> bool:
        if pt.is_infinity:
            return True
        lhs = self._norm(pt.y * pt.y)
        rhs = self._norm(pt.x**3 + self.a * pt.x + self.b)
        return lhs == rhs

    def check(self, pt: CurvePoint) -> CurvePoint:
        """pt, if it is a point of this curve.  Each coordinate must already be
        its own `coord` image, and over F_p the int itself (a Fraction breaks
        the modular inverse); else ValueError, before the equation is tested."""
        for c in () if pt.is_infinity else (pt.x, pt.y):
            image = self.coord(c)
            if image != c or (self.p is not None and type(c) is not int):
                raise ValueError(
                    f"coordinate {c!r} of {pt} differs from its field element {image!r} on {self}"
                )
        if not self.contains(pt):
            raise PointNotOnCurveError(f"{pt} is not on {self}")
        return pt

    # group law ----------------------------------------------------------------

    def neg(self, pt: CurvePoint) -> CurvePoint:
        if pt.is_infinity:
            return pt
        return CurvePoint(pt.x, self._norm(-pt.y))

    def add(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        R = _pair_add(self, None if P.x is None else (P.x, P.y), None if Q.x is None else (Q.x, Q.y))
        return O if R is None else CurvePoint(*R)

    def sub(self, P: CurvePoint, Q: CurvePoint) -> CurvePoint:
        return self.add(P, self.neg(Q))

    def mul(self, k: int, P: CurvePoint) -> CurvePoint:
        if type(k) is not int:
            raise TypeError("scalar must be an integer")
        if k < 0:
            return self.mul(-k, self.neg(P))
        acc = O
        addend = P
        while k:
            if k & 1:
                acc = self.add(acc, addend)
            k >>= 1
            if k:
                addend = self.add(addend, addend)
        return acc

    def __str__(self) -> str:
        field = "Q" if self.p is None else f"F_{self.p}"
        return f"y^2 = x^3 + {self.a}*x + {self.b} over {field}"


class DivisorClass(_Record):
    """Degree plus Abel-Jacobi point: the class of sum(m_i P_i) is
    (sum m_i, group-law sum of [m_i]P_i)."""

    degree: int
    point: CurvePoint

    def __init__(self, degree: int, point: CurvePoint) -> None:
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "point", point)

    @property
    def is_trivial(self) -> bool:
        return self.degree == 0 and self.point.is_infinity

    def to_json(self) -> dict:
        return {"degree": self.degree, "point": self.point.to_json()}


def class_of(E: EllipticCurve, divisor: Iterable[tuple[CurvePoint, int]]) -> DivisorClass:
    """Divisor class of a formal sum of (point, multiplicity) pairs.

    Two divisors are linearly equivalent iff their classes are equal.
    """
    degree = 0
    acc = O
    for pt, mult in divisor:
        E.check(pt)
        degree += mult
        acc = E.add(acc, E.mul(mult, pt))
    return DivisorClass(degree, acc)


# -- the q_n sequence -----------------------------------------------------------


_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, traps=[InvalidOperation, Rounded])  # never rounds


def _multiples(E: EllipticCurve, P: CurvePoint, n_max: int, num: type = Decimal) -> list | None:
    """[k]P for 1 <= k <= n_max from division-polynomial values, or None.

    E must be over Q with integer A, B, so P = (a/e^2, b/e^3) in lowest terms
    and (a, b) is an integral point of the model (e^4 A, e^6 B).  There the
    values psi_k of the division polynomials form an elliptic divisibility
    sequence, and [k](a, b) = (phi_k/psi_k^2, omega_k/psi_k^3) with

        phi_k = a psi_k^2 - psi_(k+1) psi_(k-1),
        4 b omega_k = psi_(k+2) psi_(k-1)^2 - psi_(k-2) psi_(k+1)^2

    (Ward 1948; Silverman, AEC, Exercise 3.7).  psi_k, phi_k and omega_k lie
    in Z[A, B, x, y], so every division below is exact.  None means P has
    finite order: b = 0, or psi_k = 0 for some k <= 12, and by Mazur a point
    with no such zero has infinite order, so no later psi_k vanishes.

    [k]P is a quadruple (X, X', Y, Y') of `num` integers (in `decimal`, whose
    `str` is linear, or ints): [k]P = (X/X', Y/Y') in lowest terms, X', Y' > 0.
    It is (phi_k, d^2, omega_k, d^3), d = e psi_k, up to the sign of d.  If
    g = gcd(2b, 3a^2 + e^4 A) = 1, (a, b) is singular mod no prime, so no
    prime divides phi_k and psi_k^2 (Ayad, "Points S-entiers des courbes
    elliptiques", 1992), nor phi_k and e: mod a prime of e the model is
    y^2 = x^3, where phi_k = (b/a)^(2k^2).  So x needs no gcd, nor y, as
    omega_k^2 = phi_k^3 mod d.  If g > 1, in ints, c^2 = gcd(X, X') and c^3 go.
    """
    e = isqrt(P.x.denominator)
    a, b = P.x.numerator, P.y.numerator
    if b == 0:
        return None
    A, B = E.a.numerator * e**4, E.b.numerator * e**6
    a2, g = a * a, gcd(2 * b, 3 * a * a + A)
    num = int if g > 1 else num
    psi3 = 3 * a2 * a2 + 6 * A * a2 + 12 * B * a - A * A
    psi4 = 4 * b * (a2**3 + 5 * A * a2 * a2 + 20 * B * a2 * a - 5 * A * A * a2
                    - 4 * A * B * a - 8 * B * B - A**3)
    with localcontext(_EXACT):
        psi = [num(v) for v in (0, 1, 2 * b, psi3, psi4)]
        for k in range(5, max(n_max + 2, RATIONAL_TORSION_BOUND) + 1):
            m = k // 2
            if k % 2:
                psi.append(psi[m + 2] * psi[m] ** 3 - psi[m - 1] * psi[m + 1] ** 3)
            else:
                psi.append(psi[m] * (psi[m + 2] * psi[m - 1] ** 2 - psi[m - 2] * psi[m + 1] ** 2)
                           // (2 * b))
            if k == RATIONAL_TORSION_BOUND and 0 in psi[1:]:
                return None
        psi.append(num(-1))  # psi[-1] is psi_(-1), which omega_1 needs
        sq = [v * v for v in psi]
        out = []
        for k in range(1, n_max + 1):
            x = a * sq[k] - psi[k + 1] * psi[k - 1]
            y = (psi[k + 2] * sq[k - 1] - psi[k - 2] * sq[k + 1]) // (4 * b)
            x_den, y_den = e * e * sq[k], e**3 * sq[k] * psi[k]
            if y_den < 0:
                y, y_den = -y, -y_den
            if g > 1:
                c = isqrt(gcd(x, x_den))
                x, x_den, y, y_den = x // c**2, x_den // c**2, y // c**3, y_den // c**3
            out.append((x, x_den, y, y_den))
    return out


def _point(pt, modulus: int | None = None) -> CurvePoint:
    """A CurvePoint, O, or a quadruple as a CurvePoint: int coordinates over
    F_modulus, Fraction ones over Q."""
    if isinstance(pt, CurvePoint):
        return pt
    if type(pt[0]) is not int:  # int(str(v)) is several times faster than int(v)
        pt = _without_digit_limit(lambda: [int(str(v)) for v in pt])
    x, x_den, y, y_den = pt
    if modulus is not None:
        return CurvePoint(x, y)
    return CurvePoint(Fraction(x, x_den), Fraction(y, y_den))


def _pair_add(E: EllipticCurve, P: tuple | None, Q: tuple | None) -> tuple | None:
    """P + Q for affine pairs (x, y) of E's field, None for O: the module's one
    chord-tangent law (Silverman, AEC III.2), with the field's own inverse and
    no point objects.  `E.add` wraps it for CurvePoints."""
    if P is None:
        return Q
    if Q is None:
        return P
    (x1, y1), (x2, y2) = P, Q
    if x1 == x2:
        if E._norm(y1 + y2) == 0:
            return None  # P = -Q, includes the 2-torsion case y = 0
        lam = E._div(3 * x1 * x1 + E.a, 2 * y1)
    else:
        lam = E._div(y2 - y1, x2 - x1)
    x3 = E._norm(lam * lam - x1 - x2)
    return x3, E._norm(lam * (x1 - x3) - y1)


def _quadruple(pair: tuple | None):
    """(X, X', Y, Y') of an affine pair of ints or Fractions, or O for None."""
    if pair is None:
        return O
    x, y = pair
    return x.numerator, x.denominator, y.numerator, y.denominator


def _sequence_points(E: EllipticCurve, p: CurvePoint, step: CurvePoint, n_max: int) -> list:
    """q_1 .. q_n_max as quadruples or O: `_multiples` (in `decimal` if
    p = O, else each plus p by one chord) where it applies, else the pair
    ladder, one chord or tangent per step."""
    if E.p is None and E.a.denominator == 1 and E.b.denominator == 1:
        multiples = _multiples(E, step, n_max, Decimal if p.is_infinity else int)
        if multiples is not None:
            if p.is_infinity:
                return multiples
            base = (p.x, p.y)
            return [_quadruple(_pair_add(E, base, (Fraction(x, x_den), Fraction(y, y_den))))
                    for x, x_den, y, y_den in multiples]
    cur, pair, pairs = None if p.is_infinity else (p.x, p.y), (step.x, step.y), []
    for _ in range(n_max):
        cur = _pair_add(E, cur, pair)
        pairs.append(cur)
    return list(map(_quadruple, pairs))


class QnPoints:
    """A report's q_n list, read off `QnReport.coords`: iterating gives each
    point's `to_json` form, {"x", "y"} or "O", and equality compares that
    list.  `cli._dumps` renders `texts()` with no per-point dict."""

    __slots__ = ("coords",)

    def __init__(self, coords: Sequence) -> None:
        self.coords = coords

    def texts(self):
        """Each point's coordinates as strings "p" or "p/q", None for O.  An
        int past the int-to-str digit limit needs the limit lifted."""
        for pt in self.coords:
            if type(pt) is tuple:
                x, x_den, y, y_den = pt
                yield f"{x}" if x_den == 1 else f"{x}/{x_den}", f"{y}" if y_den == 1 else f"{y}/{y_den}"
            else:  # O
                yield None

    def __iter__(self):
        return iter(_without_digit_limit(
            lambda: ["O" if xy is None else {"x": xy[0], "y": xy[1]} for xy in self.texts()]))

    def __eq__(self, other) -> bool:
        return list(self) == list(other) if isinstance(other, (list, QnPoints)) else NotImplemented


class QnReport(_Record, hidden=("modulus",)):
    """q_n audit: `q_hits` lists every n with q_n = q; `avoids_q` means the
    sequence never returns to q after the definitional hit q_1 = q.  `coords`
    keeps the q_n as computed, quadruples (X, X', Y, Y') or O, and `points`
    is made from it on its first read, with int coordinates when `modulus`
    names F_p."""

    coords: tuple
    all_distinct: bool
    collisions: tuple
    collisions_certified: bool
    avoids_q: bool
    q_hits: tuple
    modulus: int | None = None

    @functools.cached_property
    def points(self) -> tuple:
        return tuple(_point(pt, self.modulus) for pt in self.coords)

    def to_json(self) -> dict:
        return {
            "n_max": len(self.coords),
            "points": QnPoints(self.coords),
            "all_distinct": self.all_distinct,
            "collisions": [list(c) for c in self.collisions],
            "collisions_certified": self.collisions_certified,
            "avoids_q": self.avoids_q,
            "q_hits": list(self.q_hits),
        }


def qn_sequence(E: EllipticCurve, p: CurvePoint, q: CurvePoint, n_max: int) -> QnReport:
    """q_n = p + [n](q - p) for 1 <= n <= n_max, with distinctness audit.

    The verdicts come from k, the first n <= n_max with q_n = p, that is
    [n](q - p) = O.  q_m = q_n exactly when k divides n - m, so without
    such a k the points are distinct and q is hit only at q_1 = q (the
    definitional hit).  With one, each q_n for n > k collides with the first
    point of its residue class, q_((n-1) % k + 1), and q_n = q exactly when
    n = 1 mod k.  `collisions_certified` re-verifies [k](q - p) = O on its
    own with `E.mul`; every collision follows from that one relation.
    `avoids_q` asserts there is no hit after q_1.
    """
    _int_parameter("n_max", n_max, 1)
    E.check(p)
    E.check(q)
    if p == q:
        raise ParameterError("base points must differ")
    step = E.sub(q, p)
    points = _sequence_points(E, p, step, n_max)
    start = _quadruple(None if p.is_infinity else (p.x, p.y))
    # k = n_max when no q_n is p: then there is no collision and q_hits = (1,)
    k = next((n for n, pt in enumerate(points, start=1) if pt == start), n_max)
    collisions = tuple(((n - 1) % k + 1, n) for n in range(k + 1, n_max + 1))
    q_hits = tuple(range(1, n_max + 1, k))
    return QnReport(
        coords=tuple(points),
        all_distinct=not collisions,
        collisions=collisions,
        collisions_certified=not collisions or E.mul(k, step).is_infinity,
        avoids_q=q_hits == (1,),
        q_hits=q_hits,
        modulus=E.p,
    )


class WitnessVerdict(_Record):
    passed: bool
    bound: int
    failed_at: int | None
    certified_infinite: bool
    bounded_only: bool

    def to_json(self) -> dict:
        return {"passed": self.passed, "bound": self.bound, "failed_at": self.failed_at,
                "certified_infinite": self.certified_infinite, "bounded_only": self.bounded_only}


def infinite_order_witness(E: EllipticCurve, P: CurvePoint) -> WitnessVerdict:
    """Check [m]P != O for 1 <= m <= RATIONAL_TORSION_BOUND (12), by E.add.

    Over Q a pass certifies infinite order, since a rational torsion point
    has order at most 12 (Mazur).  Over a finite field every point is
    torsion, so the verdict is labeled a bounded check only.
    """
    E.check(P)
    acc = O
    failed_at = None
    for m in range(1, RATIONAL_TORSION_BOUND + 1):
        acc = E.add(acc, P)
        if acc.is_infinity:
            failed_at = m
            break
    passed = failed_at is None
    return WitnessVerdict(
        passed=passed,
        bound=RATIONAL_TORSION_BOUND,
        failed_at=failed_at,
        certified_infinite=passed and E.p is None,
        bounded_only=E.p is not None,
    )


# -- restriction bookkeeping -------------------------------------------------------


class RestrictionReport(_Record, hidden=("modulus",)):
    """Level n: q_n and the assembled class (0, ledger - q_n), where the
    ledger point [n]q + [1 - n]p is the Abel-Jacobi sum of n q + (1 - n) p.
    `coords` keeps q_n as the sequence holds it, a quadruple (X, X', Y, Y')
    or O, and `qn` is made from it on its first read, with int coordinates
    when `modulus` names F_p."""

    n: int
    coords: tuple | CurvePoint
    assembled: DivisorClass
    modulus: int | None = None

    def __init__(self, n: int, coords, assembled: DivisorClass, modulus: int | None = None) -> None:
        for name, value in (("n", n), ("coords", coords), ("assembled", assembled), ("modulus", modulus)):
            object.__setattr__(self, name, value)

    @functools.cached_property
    def qn(self) -> CurvePoint:
        return _point(self.coords, self.modulus)

    @property
    def trivial(self) -> bool:
        return self.assembled.is_trivial

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "qn": self.qn.to_json(),
            "assembled": self.assembled.to_json(),
            "trivial": self.trivial,
        }


def restriction_report(E: EllipticCurve, p: CurvePoint, q: CurvePoint, n: int) -> RestrictionReport:
    """Replay the blowup restriction bookkeeping at level n.

    The assembled class is that of (n(q - p) + p) - q_n, i.e. the formal
    divisor [(q, n), (p, 1 - n), (q_n, -1)]; it must be trivial, which is
    exactly the statement that q_n represents the restricted bundle.
    Without the -q_n term (the exceptional-curve pairing) the class is
    `class_of(E, [(q, n), (p, 1 - n)])`, of degree 1: the term is
    load-bearing.

    The class is read off two sums formed once, q_n and the ledger point
    [n]q + [1 - n]p, by the same additions `class_of` makes on the formal
    divisor: (0, ledger - q_n), which is O exactly when ledger = q_n.
    """
    _int_parameter("n", n, 1)
    E.check(p)
    E.check(q)
    qn = E.add(p, E.mul(n, E.sub(q, p)))
    ledger = E.add(E.mul(n, q), E.mul(1 - n, p))  # class(n q + (1 - n) p) = (1, ledger)
    coords = _quadruple(None if qn.is_infinity else (qn.x, qn.y))
    return RestrictionReport(n, coords, DivisorClass(0, E.sub(ledger, qn)), E.p)


def _jacobian_replay(E: EllipticCurve, q: CurvePoint, quadruples: Sequence[tuple]) -> list:
    """The replay of `_multiples` quadruples (X, X', Y, Y'), p = O, with no gcd.

    Level 1 must be q; level n > 1 is J = [2]q_(n/2) or q_(m+1) + q_m for
    n = 2m + 1 (Cohen, Miyaji and Ono 1998), in Jacobian coordinates,
    (X : Y : Z) for (X/Z^2, Y/Z^3), from certified predecessors (X : Y : d),
    d = Y' // X'.  J = (X3 : Y3 : Z3) matches iff X' = d^2, Y' = d X',
    Z3 = u d, u != 0, X3 = u^2 X and Y3 = u^3 Y: then J = q_n, so q_n = [n]q
    by induction.  A q_n = J in lowest terms matches, as d^2 divides Z3^2.
    Other levels get the Fraction ledger, [n]q - q_n.  The shape checks run
    in the quadruples' own type under `_EXACT`; only X, Y and d (0 when
    they fail) become ints, each once.
    """
    A, a, b, e = int(E.a), q.x.numerator, q.y.numerator, q.y.denominator // q.x.denominator

    def shaped(X, X_den, Y, Y_den):
        d = Y_den // X_den
        return X, Y, d if X_den == d * d and Y_den == d * X_den else 0

    with localcontext(_EXACT):
        ints = _without_digit_limit(lambda: [[int(str(v)) for v in shaped(*pt)] for pt in quadruples])
    jac, reports = [None], []  # (X, Y, d) of each certified q_k, else None, which makes Z3 = 0
    for n, (X, Y, d) in enumerate(ints, start=1):
        if n == 1:
            X3, Y3, Z3 = a, b, e
        elif n % 2 == 0:
            X1, Y1, Z1 = jac[n // 2] or (0, 0, 0)
            YY = Y1 * Y1
            S, M = 4 * X1 * YY, 3 * X1 * X1 + A * Z1**4
            X3 = M * M - 2 * S
            Y3, Z3 = M * (S - X3) - 8 * YY * YY, 2 * Y1 * Z1
        else:
            (X1, Y1, Z1), (X2, Y2, Z2) = (jac[k] or (0, 0, 0) for k in (n // 2 + 1, n // 2))
            Z1Z1, Z2Z2 = Z1 * Z1, Z2 * Z2
            U1, S1 = X1 * Z2Z2, Y1 * Z2Z2 * Z2
            H, R = X2 * Z1Z1 - U1, Y2 * Z1Z1 * Z1 - S1
            HH = H * H
            HHH, V = H * HH, U1 * HH
            X3 = R * R - HHH - 2 * V
            Y3, Z3 = R * (V - X3) - S1 * HHH, Z1 * Z2 * H
        u = Z3 // d if d and Z3 and Z3 % d == 0 else 0
        ok = u and X3 == u * u * X and Y3 == u**3 * Y
        jac.append((X, Y, d) if ok else None)
        ledger_minus_qn = O if ok else E.sub(E.mul(n, q), _point(quadruples[n - 1]))
        reports.append(RestrictionReport(n, quadruples[n - 1], DivisorClass(0, ledger_minus_qn)))
    return reports


def restriction_replay(
    E: EllipticCurve, p: CurvePoint, q: CurvePoint, levels: int, coords: Sequence
) -> list[RestrictionReport]:
    """`restriction_report(E, p, q, n)` for 1 <= n <= levels, in one pass.

    q_n is read off `coords` (q_1, q_2, ... as quadruples or O, as
    `qn_sequence(...).coords` gives them) when it reaches level `levels`,
    else off the sequence recomputed to that level.  The ledger
    [n]q + [1 - n]p is a second computation by the group law on its own
    chain: `_jacobian_replay` for quadruples with no O (p = O over Q, an
    integer A), whose q_n is [2]q_(n/2) or q_(m+1) + q_m for n = 2m + 1,
    else [n]q by double-and-add, [2m]q = [2]([m]q) and
    [2m+1]q = [2m]q + q, and [1 - n]p as a running sum, which share only odd
    steps with the pair ladder q_(n-1) + q.  Each report keeps its entry of
    `coords` as it is; a CurvePoint is built where `E.sub` needs one (a
    failing Jacobian level, each ledger level) or `qn` is read.
    """
    _int_parameter("levels", levels, 1)
    E.check(p)
    E.check(q)
    if len(coords) < levels:
        coords = _sequence_points(E, p, E.sub(q, p), levels)
    if p.is_infinity and E.p is None and E.a.denominator == 1 and all(
            type(pt) is tuple for pt in coords[:levels]):
        return _jacobian_replay(E, q, coords[:levels])
    neg_p = E.neg(p)
    kq, mp = [O], p  # [0]q and [1 - 0]p; kq[k] is [k]q
    reports = []
    for n in range(1, levels + 1):
        kq.append(E.add(kq[n // 2], kq[n // 2]) if n % 2 == 0 else E.add(kq[n - 1], q))
        mp = E.add(mp, neg_p)
        ledger_minus_qn = E.sub(E.add(kq[n], mp), _point(coords[n - 1], E.p))
        reports.append(RestrictionReport(n, coords[n - 1], DivisorClass(0, ledger_minus_qn), E.p))
    return reports


def exceptional_pairing_holds(E: EllipticCurve, p: CurvePoint, qn: CurvePoint) -> bool:
    """class(-p - q_n) + class(q_n) = class(-p): the exceptional pairing rules
    before and after blowing up q_n agree under the group law.  It is an
    identity of the group law, so one deep point q_n checks it per run."""
    neg_p = E.neg(p)
    return E.add(E.sub(neg_p, qn), qn) == neg_p


# -- JSON ingestion ------------------------------------------------------------------


def _point_from_json(E: EllipticCurve, doc) -> CurvePoint:
    if doc == "O":
        return O
    if not isinstance(doc, dict) or set(doc) != {"x", "y"}:
        raise ValueError(f"point must be 'O' or an object with keys x, y: {doc!r}")
    return E.check(CurvePoint(E.coord(parse_rational(doc["x"])), E.coord(parse_rational(doc["y"]))))


def curve_from_json(doc: dict) -> tuple[EllipticCurve, dict]:
    """Parse {"field": "Q"|{"p": prime}, "A": str, "B": str, "points": {...}}.

    Returns the curve and the named points (each 'O' or rational coords).
    """
    if not isinstance(doc, dict):
        raise ValueError("curve document must be a JSON object")
    field = doc.get("field")
    if field == "Q":
        p = None
    elif isinstance(field, dict) and set(field) == {"p"} and isinstance(field["p"], int):
        p = field["p"]
    else:
        raise ValueError(f"'field' must be 'Q' or {{'p': prime}}: {field!r}")
    if "A" not in doc or "B" not in doc:
        raise ValueError("curve document needs 'A' and 'B'")
    E = EllipticCurve(parse_rational(doc["A"]), parse_rational(doc["B"]), p)
    raw = doc.get("points", {})
    if not isinstance(raw, dict):
        raise ValueError("'points' must be an object")
    points = {name: _point_from_json(E, value) for name, value in raw.items()}
    return E, points


def curve_to_json(E: EllipticCurve, points: dict) -> dict:
    return {
        "field": "Q" if E.p is None else {"p": E.p},
        "A": rational_str(E.a),
        "B": rational_str(E.b),
        "points": {name: pt.to_json() for name, pt in sorted(points.items())},
    }


def default_curve() -> tuple[EllipticCurve, CurvePoint, CurvePoint]:
    """The default test instance: y^2 = x^3 - 2 over Q, p = O, q = (3, 5)."""
    E = EllipticCurve(Fraction(0), Fraction(-2))
    return E, O, E.check(CurvePoint(Fraction(3), Fraction(5)))

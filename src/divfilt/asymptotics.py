"""Multiplicities and first-difference limits of the bundled 3-fold example.

The model length function is the principal part of an exact length formula

    length(n) = (1/6) * p3(ceil(alpha*n), n) + (1/4) * p2(ceil(alpha*n), n)

where p3 is the cubic growth polynomial of the divisor family and p2 its
canonical-class pairing, both expanded from an intersection table by
`model_from_form`; the dropped remainder is O(n), so it affects neither the
n^2-normalized first differences nor the n^3-normalized multiplicity.  The
bundled table is the package's `data/intersection_table.json`.

Derived quantities, all exact:

- the cubic growth limit p3(alpha, 1) and the normalized multiplicity
  3! * p3(alpha, 1);
- the first-difference subsequence limits along the two Beatty classes,
  obtained purely by symbolic expansion: the degree-2 part of
  p3(x + sigma, y + 1) - p3(x, y), evaluated at (alpha, 1), times 1/6;
- a Cesaro/telescoping oracle: the sigma classes have densities
  (1 - alpha, alpha) and summing first differences telescopes, so any
  correct pair of limits (L0, L1) satisfies
  (1 - alpha)*L0 + alpha*L1 = p3(alpha, 1)/2 exactly.

The module also stores reference closed forms that the derivation is
audited against.  For the bundled model the audit finds a genuine
discrepancy: the reference sigma=1 form (918a^2 - 810a + 324)/6 differs
from the derived (918a^2 - 648a + 324)/6; the derived pair passes the
Cesaro oracle while the reference pair fails it; and the two derived limits
coincide exactly (their difference is a multiple of the defining relation
26a^2 - 18a + 3 = 0), so at model level the normalized first difference
does converge.  The report raises audit flags instead of silently picking
a side.
"""

from __future__ import annotations

import functools
import json
import math
import os
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import chain, islice
from math import lcm

from divfilt.intersection import (
    BivariatePolynomial,
    IntersectionForm,
    POLY_ONE,
    POLY_X,
    POLY_Y,
    difference_polynomial,
    form_from_json,
    triple_product,
)
from divfilt.quadfield import QuadExt, _Record, _int_parameter, floor_cleared, rational_str

__all__ = [
    "ExampleModel",
    "LimitReport",
    "CesaroResult",
    "ScanRows",
    "SigmaStats",
    "ScanResult",
    "example_alpha",
    "example_form",
    "example_model",
    "model_from_form",
    "model_length",
    "multiplicity",
    "subsequence_limit",
    "cesaro_consistency",
    "empirical_scan",
    "limit_exists_report",
    "REFERENCE_CUBIC_LIMIT",
    "REFERENCE_MULTIPLICITY",
    "REFERENCE_SIGMA_LIMITS",
]

_F = Fraction


def example_alpha() -> QuadExt:
    """alpha = 3/(9 - sqrt(3)) = 9/26 + (1/26) sqrt(3), the ceiling ratio of
    the bundled divisor family."""
    return QuadExt(_F(9, 26), _F(1, 26), 3)


def example_form() -> IntersectionForm:
    """Triple table of the bundled example, read by the module's own loader
    (zip-safe) from `data/intersection_table.json`: lattice generators S, F
    plus the canonical class K (mixed rows only)."""
    path = os.path.join(os.path.dirname(__file__), "data", "intersection_table.json")
    return form_from_json(json.loads(__spec__.loader.get_data(path)))


class ExampleModel(_Record):
    """Principal-part length model: alpha plus the two growth polynomials.

    `p3` must be homogeneous of degree 3 and `p2` homogeneous of degree 2
    (either may be zero); alpha must be irrational with 0 < alpha < 1.
    """

    alpha: QuadExt
    p3: BivariatePolynomial
    p2: BivariatePolynomial = BivariatePolynomial({})

    def __post_init__(self) -> None:
        if self.alpha.is_rational() or not (0 < self.alpha < 1):
            raise ValueError("alpha must be irrational with 0 < alpha < 1")
        if not self.p3.is_homogeneous(3):
            raise ValueError("p3 must be homogeneous of total degree 3")
        if not self.p2.is_homogeneous(2):
            raise ValueError("p2 must be homogeneous of total degree 2")


def model_from_form(form: IntersectionForm) -> ExampleModel:
    """The model of a table: p3 = (D_n^3) and p2 = (D_n^2 . K) expanded for
    D_n = x*S + y*F, with the bundled alpha.

    The table must have generators S, F and K and every triple the two
    expansions touch; a missing one raises `UnknownSymbolError`.
    """
    dn = {"S": POLY_X, "F": POLY_Y}
    k = {"K": POLY_ONE}
    return ExampleModel(
        example_alpha(), triple_product(form, dn, dn, dn), triple_product(form, dn, dn, k)
    )


@functools.cache
def example_model() -> ExampleModel:
    """The bundled model: `model_from_form` of the bundled table, built once
    per process."""
    return model_from_form(example_form())


# Reference closed forms the derivation is audited against; exact constants.
REFERENCE_CUBIC_LIMIT = QuadExt(_F(12042, 169), _F(-27, 169), 3)
REFERENCE_MULTIPLICITY = QuadExt(_F(72252, 169), _F(-162, 169), 3)
# The class-sigma limits at a = alpha: (-486a^2 + 324a + 162)/6 for sigma = 0
# and (918a^2 - 810a + 324)/6 for sigma = 1.
REFERENCE_SIGMA_LIMITS = {
    0: QuadExt(_F(144504, 4056), _F(-324, 4056), 3),
    1: QuadExt(_F(106596, 4056), _F(-4536, 4056), 3),
}


def model_length(model: ExampleModel, n: int) -> Fraction:
    """(1/6) p3 + (1/4) p2 at (ceil(alpha*n), n), exact rational."""
    x = model.alpha.ceil_scaled(_int_parameter("n", n, 0))
    return _F(1, 6) * model.p3.evaluate(x, n) + _F(1, 4) * model.p2.evaluate(x, n)


def multiplicity(model: ExampleModel) -> tuple[QuadExt, QuadExt]:
    """(cubic growth limit p3(alpha, 1), normalized multiplicity 6*p3(alpha, 1)).

    The two differ by the normalizing factor 3!; both are headline values of
    the reference computation, so both are exposed.
    """
    cubic = model.p3.evaluate(model.alpha, 1)
    return cubic, 6 * cubic


def subsequence_limit(model: ExampleModel, sigma: int) -> QuadExt:
    """Limit of delta(n)/n^2 along the Beatty class with ceiling step sigma.

    Purely symbolic: (1/6) * [degree-2 part of p3(x+sigma, y+1) - p3(x, y)]
    evaluated at (alpha, 1).
    """
    if sigma not in (0, 1):
        raise ValueError(f"sigma must be 0 or 1, got {sigma!r}")
    q2 = difference_polynomial(model.p3, sigma).homogeneous_part(2)
    return _F(1, 6) * q2.evaluate(model.alpha, 1)


class CesaroResult(_Record):
    lhs: QuadExt
    rhs: QuadExt
    passed: bool


def cesaro_consistency(model: ExampleModel, L0: QuadExt, L1: QuadExt) -> CesaroResult:
    """Check (1 - alpha)*L0 + alpha*L1 = p3(alpha, 1)/2, exactly.

    Any correct pair of n^2-normalized first-difference limits along the two
    Beatty classes must satisfy this: the classes have densities
    (1 - alpha, alpha), the first differences telescope to the model length,
    and sum of n^2 over [1, N) grows like N^3/3 against the length's
    p3(alpha, 1)/6 times N^3.
    """
    alpha = model.alpha
    lhs = (1 - alpha) * L0 + alpha * L1
    cubic, _ = multiplicity(model)
    rhs = _F(1, 2) * cubic
    return CesaroResult(lhs, rhs, lhs == rhs)


# -- empirical scan ----------------------------------------------------------

_CHUNK = 1024  # indices per kernel chunk and per CSV write, so that memory stays flat


class ScanRows:
    """The sampled rows, computed on demand.  Rows sit at every `stride`-th
    index of each segment cut at the checkpoints and at n_max, plus each
    segment's last index; the row count follows from that rule, and the
    rows come from the `_Deltas.chunks` kernel, so nothing is held.
    `chunks()` yields them as (n, sigma, ceil(alpha*n), delta numerator)
    columns of up to `_CHUNK` rows; delta is the numerator over the common
    denominator `denom`."""

    def __init__(self, deltas: _Deltas, cuts: Sequence[int], stride: int) -> None:
        self._deltas = deltas
        self.denom = deltas.denom
        self._pieces: list = []  # per segment: its strided range, then its last index if skipped
        lo = 1
        for hi in cuts:
            self._pieces += [range(lo, hi + 1, stride), (hi,) if (hi - lo) % stride else ()]
            lo = hi + 1
        self._len = sum(map(len, self._pieces))

    def __len__(self) -> int:
        return self._len

    def chunks(self) -> Iterator[tuple[list[int], ...]]:
        return self._deltas.chunks(chain.from_iterable(self._pieces))


class SigmaStats(_Record, frozen=False):
    """Count, extremes and last index of delta(n)/n^2 within one sigma
    class on [1, n_max]; each extreme is at its earliest index."""

    count: int = 0
    min_ratio: Fraction | None = None
    min_at: int | None = None
    max_ratio: Fraction | None = None
    max_at: int | None = None
    last_n: int | None = None
    last_ratio: Fraction | None = None

    def to_json(self) -> dict:
        def rs(v):
            return rational_str(v) if v is not None else None

        return {
            "count": self.count,
            "min_ratio": rs(self.min_ratio),
            "min_at": self.min_at,
            "max_ratio": rs(self.max_ratio),
            "max_at": self.max_at,
            "last_n": self.last_n,
            "last_ratio": rs(self.last_ratio),
        }


class ScanResult(_Record):
    """Exact scan summary over [1, n_max]; rows sampled by stride.

    `monotone_from` is the smallest index from which the model length never
    decreases again up to n_max (the true lengths are nondecreasing; the
    model may dip at small n where the dropped O(n) remainder dominates).
    `remainder_bound` is a constant C, read off the class envelopes, with
    |delta(n)/n^2 - L_sigma| <= C/n for every n >= 1; it does not depend on
    n_max.
    """

    n_max: int
    stride: int
    rows: ScanRows
    per_sigma: dict
    max_ratio: Fraction
    max_ratio_at: int
    bound_constant: int
    telescoping_ok: bool
    monotone_from: int
    checkpoint_max: dict
    remainder_bound: QuadExt

    def to_json(self, digits: int = 30) -> dict:
        return {
            "n_max": self.n_max,
            "stride": self.stride,
            "per_sigma": {str(k): v.to_json() for k, v in sorted(self.per_sigma.items())},
            "max_ratio": rational_str(self.max_ratio),
            "max_ratio_at": self.max_ratio_at,
            "bound_constant": self.bound_constant,
            "telescoping_ok": self.telescoping_ok,
            "monotone_from": self.monotone_from,
            "checkpoint_max": {
                str(k): rational_str(v) for k, v in sorted(self.checkpoint_max.items())
            },
            "remainder_bound": self.remainder_bound.to_json(digits),
        }


def _int_model(model: ExampleModel) -> tuple[BivariatePolynomial, int]:
    """Scaled integer form: model_length(n) = N(x, n) / D with N integral."""
    combined = 2 * model.p3 + 3 * model.p2  # = 12 * model_length before scaling
    denom = 1
    for c in combined.terms.values():
        denom = lcm(denom, c.denominator)
    return denom * combined, 12 * denom


def _difference_coeffs(N: BivariatePolynomial, sigma: int) -> tuple[int, ...]:
    """D_sigma(x, n) = N(x + sigma, n + 1) - N(x, n) as integer coefficients of
    x^2, x*n, x, n^2, n, 1.  N has degree 3, so D_sigma has degree <= 2."""
    D = difference_polynomial(N, sigma)
    assert D.total_degree() <= 2
    keys = ((2, 0), (1, 1), (1, 0), (0, 2), (0, 1), (0, 0))
    return tuple(int(D.coefficient(i, j)) for i, j in keys)


class _Deltas:
    """First differences of the scaled integer model, index by index.

    delta(n) = D_sigma(x, n) / denom with x = ceil(alpha*n) and
    sigma = ceil(alpha*(n+1)) - x, all in integers; `chunks` is the one
    row kernel.
    """

    def __init__(self, model: ExampleModel) -> None:
        self.N, self.denom = _int_model(model)
        self.coeffs = (_difference_coeffs(self.N, 0), _difference_coeffs(self.N, 1))
        self.A, self.B, self.q = model.alpha._cleared()
        self.d = model.alpha.d

    def ceil(self, n: int) -> int:
        """ceil(alpha*n) for n >= 1."""
        return -floor_cleared(-self.A * n, -self.B * n, self.q, self.d)

    def chunks(self, ns: Iterable[int]) -> Iterator[tuple[list[int], ...]]:
        """The columns (n, sigma, ceil(alpha*n), numerator of delta(n)) of
        the indices `ns`, up to `_CHUNK` indices at a time.  A run's first
        ceiling is one square root; then, as 0 < alpha < 1, x = ceil(alpha*n)
        gives ceil(alpha*(n+1)) = x iff B*(n+1)*sqrt(d) < t = q*x - A*(n+1),
        which for B > 0 is t > 0 and t^2 > B^2*d*(n+1)^2 and for B < 0
        fails iff -t > 0 and t^2 > B^2*d*(n+1)^2: one exact comparison."""
        sg = 1 if self.B > 0 else -1
        A, q, coeffs = sg * self.A, sg * self.q, self.coeffs
        dbb, pos = self.B * self.B * self.d, int(sg > 0)
        ns = iter(ns)
        prev, x1 = -1, 0  # no index follows -1
        while col := list(islice(ns, _CHUNK)):
            ss, xs, nums = [], [], []
            for n in col:
                x = x1 if n == prev + 1 else self.ceil(n)
                n1 = n + 1
                t = q * x - A * n1  # sg * t: the B < 0 case flips its sign
                s = pos ^ (t > 0 and t * t > dbb * n1 * n1)
                a, b1, b0, c2, c1, c0 = coeffs[s]
                ss.append(s)
                xs.append(x)
                nums.append((a * x + b1 * n + b0) * x + (c2 * n + c1) * n + c0)
                x1, prev = x + s, n
            yield col, ss, xs, nums


# -- certified head/tail windows ---------------------------------------------
#
# With x = alpha*n + theta, theta = ceil(alpha*n) - alpha*n in (0, 1), the
# difference polynomial gives dnum/n^2 = k + r1(theta)/n + r0(theta)/n^2,
# k constant, r1 linear and r0 quadratic in theta.  Index n has sigma = 1
# exactly when theta < alpha, so the thetas of class 1 lie in (0, alpha)
# and those of class 0 in (alpha, 1).  Bounding r1 and r0 over the closed
# interval bounds every ratio of the class on a range of indices, and a
# query is settled once that bound on the unscanned middle is strictly
# worse than the best index already found.

_FIRST_WINDOW = 64


def _envelope(coeffs: tuple[int, ...], alpha: QuadExt, s: int, sign: int) -> tuple:
    """(k, r1, r0) with sign * dnum/n^2 <= k + r1/n + r0/n^2 for every index
    n of class s: k exact, r1 and r0 the largest values of sign * r1(theta)
    and sign * r0(theta) over the class's closed theta-interval."""
    d = alpha.d
    a, b1, b0, c2, c1, c0 = coeffs
    ends = (alpha, QuadExt(1, 0, d)) if s == 0 else (QuadExt(0, 0, d), alpha)
    thetas = list(ends)
    if a and ends[0] < _F(-b0, 2 * a) < ends[1]:  # vertex of r0
        thetas.append(QuadExt(_F(-b0, 2 * a), 0, d))
    k = sign * ((a * alpha + b1) * alpha + c2)
    r1 = max(sign * ((2 * a * alpha + b1) * t + b0 * alpha + c1) for t in ends)
    r0 = max(sign * ((a * t + b0) * t + c0) for t in thetas)
    return k, r1, r0


def _envelope_max(envelope: tuple, lo: int, hi: int) -> QuadExt:
    """Largest value of k + r1/n + r0/n^2 over the integers n in [lo, hi]:
    at an end, or next to the one critical point n = -2*r0/r1."""
    k, r1, r0 = envelope
    ns = {lo, hi}
    if r1.sign():
        v = -2 * r0 / r1
        if lo < v < hi:
            ns |= {v.floor(), v.floor() + 1}
    return max(k + r1 * _F(1, n) + r0 * _F(1, n * n) for n in ns)


class _Extreme:
    """The first index of class `s` in [1, m] where sign * delta/n^2 is
    largest: the class maximum for sign 1, the minimum for sign -1."""

    def __init__(self, envelope: tuple, s: int, sign: int) -> None:
        self.envelope, self.s, self.sign = envelope, s, sign
        self.num = self.nn = self.at = 0  # best as sign*dnum / n^2; nn = 0: none yet

    def fold(self, ns: list, ss: list, xs: list, nums: list) -> None:
        s, sign = self.s, self.sign
        num, nn, at = self.num, self.nn, self.at
        for n, t, dnum in zip(ns, ss, nums):
            if t == s:
                v, n2 = sign * dnum, n * n
                lhs, rhs = v * nn, num * n2
                if lhs > rhs or (lhs == rhs and n < at) or nn == 0:
                    num, nn, at = v, n2, n
        self.num, self.nn, self.at = num, nn, at

    def settled(self, lo: int, hi: int) -> bool:
        return self.nn > 0 and _envelope_max(self.envelope, lo, hi) < _F(self.num, self.nn)


class _LastNegative:
    """The last index in [1, m] with delta(n) < 0 (0 if none)."""

    def __init__(self, envelopes: tuple) -> None:
        self.envelopes = envelopes  # lower bounds of delta/n^2, one per class
        self.at = 0

    def fold(self, ns: list, ss: list, xs: list, nums: list) -> None:
        self.at = max([self.at] + [n for n, dnum in zip(ns, nums) if dnum < 0])

    def settled(self, lo: int, hi: int) -> bool:
        return self.at > hi or all(_envelope_max(e, lo, hi) <= 0 for e in self.envelopes)


def _fold(deltas: _Deltas, queries: list, ns: Iterable[int]) -> None:
    """Fold the rows of the indices `ns` into every query, a chunk of
    columns at a time, so that memory stays flat in the window size."""
    for cols in deltas.chunks(ns):
        for query in queries:
            query.fold(*cols)


def _windows(deltas: _Deltas, m: int, queries: list) -> list:
    """Fold the head [1, h] and the tail [m-w+1, m] into every query,
    doubling h = w until each query is settled on the middle [h+1, m-w] or
    the windows meet.  Returns the queries still open when they met; those
    have seen every index of [1, m], so their answer is exact either way."""
    lo, hi, size = 1, m, _FIRST_WINDOW
    while 2 * size < hi - lo + 1:
        _fold(deltas, queries, chain(range(lo, lo + size), range(hi - size + 1, hi + 1)))
        lo, hi = lo + size, hi - size
        queries = [query for query in queries if not query.settled(lo, hi)]
        if not queries:
            return queries
        size = lo - 1
    _fold(deltas, queries, range(lo, hi + 1))
    return queries


def _better(p: _Extreme, q: _Extreme) -> _Extreme:
    """The earlier of two maxima with the larger ratio."""
    lhs, rhs = p.num * q.nn, q.num * p.nn
    return p if lhs > rhs or (lhs == rhs and p.at < q.at) else q


def empirical_scan(
    model: ExampleModel,
    n_max: int,
    sample_stride: int = 1,
    checkpoints: tuple[int, ...] = (),
) -> ScanResult:
    """Exact summary of the first differences delta(n) = length(n+1) - length(n)
    on [1, n_max], without visiting every index.

    delta(n) = D_sigma(x, n) / D with x = ceil(alpha*n), sigma =
    ceil(alpha*(n+1)) - x and D_sigma the integer difference polynomial of
    the scaled model.  The class counts telescope to ceil(alpha*(n_max+1)) -
    ceil(alpha), and the last index of each class lies within
    ceil(1/min(alpha, 1 - alpha)) of n_max.  Each extreme (class maximum and
    minimum, the maxima up to each checkpoint, the last negative delta) comes
    from `_windows`: exact head and tail windows of the range, grown until a
    bound on the middle shows no index there can win, or until they meet.
    Ratios are compared by cross-multiplying, and ties go to the earliest
    index.  `telescoping_ok` is the identity sum delta = length(n_max+1) -
    length(1) of the integer model against `model_length`.  Rows are sampled
    at every `sample_stride`-th index of each segment cut at the checkpoints
    and at n_max, plus its last index, and computed on demand.
    """
    _int_parameter("n_max", n_max, 10)
    _int_parameter("sample_stride", sample_stride, 1)
    for c in checkpoints:
        _int_parameter("checkpoint", c, 1, n_max)

    deltas = _Deltas(model)
    denom, alpha = deltas.denom, model.alpha
    envelopes = {
        (s, sign): _envelope(deltas.coeffs[s], alpha, s, sign) for s in (0, 1) for sign in (1, -1)
    }

    def ratio(num: int, nn: int) -> Fraction:
        return _F(num, denom * nn)

    def counts(m: int) -> tuple[int, int]:
        """The number of indices of class 0 and of class 1 in [1, m]."""
        ones = deltas.ceil(m + 1) - deltas.ceil(1)
        return m - ones, ones

    def extremes(m: int, sign: int) -> list[_Extreme]:
        return [_Extreme(envelopes[s, sign], s, sign) for s, c in enumerate(counts(m)) if c]

    maxima = {m: extremes(m, 1) for m in {n_max, *checkpoints}}
    minima = extremes(n_max, -1)
    last_negative = _LastNegative((envelopes[0, -1], envelopes[1, -1]))
    for m, queries in maxima.items():
        _windows(deltas, m, queries + minima + [last_negative] if m == n_max else queries)
    tops = {m: functools.reduce(_better, queries) for m, queries in maxima.items()}
    top = tops[n_max]
    max_ratio = ratio(top.num, top.nn)

    stats = {s: SigmaStats(count=c) for s, c in enumerate(counts(n_max))}
    for high, low in zip(maxima[n_max], minima):
        st = stats[high.s]
        st.max_ratio, st.max_at = ratio(high.num, high.nn), high.at
        st.min_ratio, st.min_at = ratio(-low.num, low.nn), low.at
    gap = (1 / min(alpha, 1 - alpha)).ceil()  # no class skips this many indices
    for ns, ss, _, nums in deltas.chunks(range(max(1, n_max - gap + 1), n_max + 1)):
        for n, s, dnum in zip(ns, ss, nums):
            stats[s].last_n, stats[s].last_ratio = n, ratio(dnum, n * n)

    # the deltas of [1, n_max] telescope to N(x, n)/D at n_max + 1 minus at 1
    telescoping_ok = all(
        _F(deltas.N.evaluate(deltas.ceil(n), n), denom) == model_length(model, n)
        for n in (1, n_max + 1)
    )
    # k/denom is L_s, so sign * n * (delta(n)/n^2 - L_s) <= (r1 + r0/n)/denom
    # <= (r1 + max(r0, 0))/denom on class s; over both signs and classes this
    # bounds n * |delta(n)/n^2 - L_sigma| for every n >= 1, not only to n_max
    remainder_bound = max(r1 + max(r0, 0) for _, r1, r0 in envelopes.values()) / denom

    return ScanResult(
        n_max=n_max,
        stride=sample_stride,
        rows=ScanRows(deltas, sorted({n_max, *checkpoints}), sample_stride),
        per_sigma=stats,
        max_ratio=max_ratio,
        max_ratio_at=top.at,
        bound_constant=math.ceil(max_ratio) + 1,
        telescoping_ok=telescoping_ok,
        monotone_from=last_negative.at + 1,
        checkpoint_max={c: ratio(tops[c].num, tops[c].nn) for c in checkpoints},
        remainder_bound=remainder_bound,
    )


# -- assembled report ---------------------------------------------------------


class LimitReport(_Record):
    alpha: QuadExt
    cubic_limit: QuadExt
    multiplicity: QuadExt
    sigma_limits: dict
    reference_sigma_limits: dict
    cesaro_lhs: QuadExt
    cesaro_rhs: QuadExt
    cesaro_pass: bool
    limit_exists: bool
    audit_flags: tuple[str, ...]

    def __post_init__(self) -> None:
        assert self.limit_exists == (self.sigma_limits[0] == self.sigma_limits[1])

    def to_json(self, digits: int = 30) -> dict:
        return {
            "alpha": self.alpha.to_json(digits),
            "cubic_limit": self.cubic_limit.to_json(digits),
            "multiplicity": self.multiplicity.to_json(digits),
            "sigma_limits": {
                str(k): v.to_json(digits) for k, v in sorted(self.sigma_limits.items())
            },
            "reference_sigma_limits": {
                str(k): v.to_json(digits) for k, v in sorted(self.reference_sigma_limits.items())
            },
            "cesaro": {
                "lhs": self.cesaro_lhs.to_json(digits),
                "rhs": self.cesaro_rhs.to_json(digits),
                "pass": self.cesaro_pass,
            },
            "limit_exists": self.limit_exists,
            "audit_flags": list(self.audit_flags),
        }


def _is_bundled(model: ExampleModel) -> bool:
    bundled = example_model()
    return (model.alpha, model.p3, model.p2) == (bundled.alpha, bundled.p3, bundled.p2)


def limit_exists_report(model: ExampleModel) -> LimitReport:
    """Assemble limits, oracle verdicts and audit flags for a model.

    `limit_exists` is decided by exact equality of the two derived
    subsequence limits, never by decimal comparison.  Reference-value audits
    apply only to the bundled model (the reference closed forms belong to
    it); flag prefix ``discrepancy:`` marks an exact mismatch, ``note:``
    marks an informational cross-check.
    """
    cubic, scaled = multiplicity(model)
    L0 = subsequence_limit(model, 0)
    L1 = subsequence_limit(model, 1)
    cesaro = cesaro_consistency(model, L0, L1)
    flags: list[str] = []
    ref_limits: dict[int, QuadExt] = {}
    if _is_bundled(model):
        ref_limits = dict(REFERENCE_SIGMA_LIMITS)
        if L0 != ref_limits[0]:
            flags.append("discrepancy:sigma1-derived-vs-reference")
        if L1 != ref_limits[1]:
            flags.append(
                "discrepancy:sigma2-derived-vs-reference "
                f"derived={L1.to_decimal(6)} reference={ref_limits[1].to_decimal(6)}"
            )
        ref_cesaro = cesaro_consistency(model, ref_limits[0], ref_limits[1])
        if not ref_cesaro.passed:
            flags.append(
                "discrepancy:reference-limits-fail-cesaro "
                f"lhs={ref_cesaro.lhs.to_decimal(6)} rhs={ref_cesaro.rhs.to_decimal(6)}"
            )
        if cubic == REFERENCE_CUBIC_LIMIT and scaled == REFERENCE_MULTIPLICITY:
            flags.append(
                "note:multiplicity-normalization "
                "the reference multiplicity equals 3! times the cubic growth limit"
            )
        flags.append(
            "note:canonical-table-alternate-constant "
            "the n^2 coefficient of the canonical pairing is ingested as -175; "
            "an alternate reference display reads -174/4"
        )
    return LimitReport(
        alpha=model.alpha,
        cubic_limit=cubic,
        multiplicity=scaled,
        sigma_limits={0: L0, 1: L1},
        reference_sigma_limits=ref_limits,
        cesaro_lhs=cesaro.lhs,
        cesaro_rhs=cesaro.rhs,
        cesaro_pass=cesaro.passed,
        limit_exists=(L0 == L1),
        audit_flags=tuple(flags),
    )

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
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from fractions import Fraction
from importlib import resources
from math import isqrt, lcm

from divfilt.intersection import (
    BivariatePolynomial,
    DivisorExpr,
    IntersectionForm,
    POLY_X,
    POLY_Y,
    difference_polynomial,
    form_from_json,
    triple_product,
)
from divfilt.quadfield import QuadExt, floor_cleared, rational_str

__all__ = [
    "ExampleModel",
    "LimitReport",
    "CesaroResult",
    "ScanRow",
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
    "reference_sigma_limit",
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
    """Triple table of the bundled example, parsed from the package resource
    `data/intersection_table.json`: lattice generators S, F plus the
    canonical class K (mixed rows only)."""
    text = resources.files("divfilt").joinpath("data/intersection_table.json").read_text()
    return form_from_json(json.loads(text))


@dataclass(frozen=True)
class ExampleModel:
    """Principal-part length model: alpha plus the two growth polynomials.

    `p3` must be homogeneous of degree 3 and `p2` homogeneous of degree 2
    (either may be zero); alpha must be irrational with 0 < alpha < 1.
    """

    alpha: QuadExt
    p3: BivariatePolynomial
    p2: BivariatePolynomial = BivariatePolynomial.zero()

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
    dn = DivisorExpr({"S": POLY_X, "F": POLY_Y})
    k = DivisorExpr.single("K")
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
_REFERENCE_SIGMA_QUADRATICS = {
    0: BivariatePolynomial({(2, 0): _F(-486), (1, 1): _F(324), (0, 2): _F(162)}),
    1: BivariatePolynomial({(2, 0): _F(918), (1, 1): _F(-810), (0, 2): _F(324)}),
}
REFERENCE_SIGMA_LIMITS = {
    0: QuadExt(_F(144504, 4056), _F(-324, 4056), 3),
    1: QuadExt(_F(106596, 4056), _F(-4536, 4056), 3),
}


def _as_quad(value, d: int) -> QuadExt:
    return value if isinstance(value, QuadExt) else QuadExt.from_rational(value, d)


def model_length(model: ExampleModel, n: int) -> Fraction:
    """(1/6) p3 + (1/4) p2 at (ceil(alpha*n), n), exact rational."""
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"n must be a nonnegative integer, got {n!r}")
    return _F(1, 6) * model.p3.evaluate_at_n(model.alpha, n) + _F(1, 4) * model.p2.evaluate_at_n(
        model.alpha, n
    )


def multiplicity(model: ExampleModel) -> tuple[QuadExt, QuadExt]:
    """(cubic growth limit p3(alpha, 1), normalized multiplicity 6*p3(alpha, 1)).

    The two differ by the normalizing factor 3!; both are headline values of
    the reference computation, so both are exposed.
    """
    cubic = _as_quad(model.p3.evaluate(model.alpha, 1), model.alpha.d)
    return cubic, 6 * cubic


def subsequence_limit(model: ExampleModel, sigma: int) -> QuadExt:
    """Limit of delta(n)/n^2 along the Beatty class with ceiling step sigma.

    Purely symbolic: (1/6) * [degree-2 part of p3(x+sigma, y+1) - p3(x, y)]
    evaluated at (alpha, 1).
    """
    if sigma not in (0, 1):
        raise ValueError(f"sigma must be 0 or 1, got {sigma!r}")
    q2 = difference_polynomial(model.p3, sigma).homogeneous_part(2)
    return _F(1, 6) * _as_quad(q2.evaluate(model.alpha, 1), model.alpha.d)


def reference_sigma_limit(alpha: QuadExt, sigma: int) -> QuadExt:
    """Reference closed form for the class-sigma limit (audit target only)."""
    if sigma not in (0, 1):
        raise ValueError(f"sigma must be 0 or 1, got {sigma!r}")
    return _F(1, 6) * _as_quad(_REFERENCE_SIGMA_QUADRATICS[sigma].evaluate(alpha, 1), alpha.d)


@dataclass(frozen=True)
class CesaroResult:
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
    lhs = (1 - alpha) * _as_quad(L0, alpha.d) + alpha * _as_quad(L1, alpha.d)
    cubic, _ = multiplicity(model)
    rhs = _F(1, 2) * cubic
    return CesaroResult(lhs, rhs, lhs == rhs)


# -- empirical scan ----------------------------------------------------------


@dataclass(frozen=True)
class ScanRow:
    """One sampled index; delta = delta_num / denom exactly."""

    n: int
    sigma: int
    ceil_alpha_n: int
    delta_num: int
    denom: int

    @property
    def delta(self) -> Fraction:
        return _F(self.delta_num, self.denom)

    @property
    def ratio(self) -> Fraction:
        """delta / n^2"""
        return _F(self.delta_num, self.denom * self.n * self.n)


class ScanRows(Sequence):
    """Sampled rows held as ints, four per row: n, sigma, ceil(alpha*n) and
    the numerator of delta(n) over the common denominator `denom`.
    Indexing builds a `ScanRow`; `ints()` yields the raw 4-tuples."""

    def __init__(self, flat: list[int], denom: int) -> None:
        self._flat = flat
        self.denom = denom

    def __len__(self) -> int:
        return len(self._flat) // 4

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [self[k] for k in range(len(self))[i]]
        k = 4 * range(len(self))[i]
        return ScanRow(*self._flat[k : k + 4], self.denom)

    def ints(self) -> Iterator[tuple[int, int, int, int]]:
        f = self._flat
        return zip(f[0::4], f[1::4], f[2::4], f[3::4])


@dataclass
class SigmaStats:
    """Running extremes of delta(n)/n^2 within one sigma class."""

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


@dataclass(frozen=True)
class ScanResult:
    """Exact scan summary over [1, n_max]; rows sampled by stride.

    `monotone_from` is the smallest scanned index from which the model
    length never decreases again (the true lengths are nondecreasing; the
    model may dip at small n where the dropped O(n) remainder dominates).
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
    estimated_remainder_slope: QuadExt

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
            "estimated_remainder_slope": self.estimated_remainder_slope.to_json(digits),
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


def empirical_scan(
    model: ExampleModel,
    n_max: int,
    sample_stride: int = 1,
    checkpoints: tuple[int, ...] = (),
) -> ScanResult:
    """Exact scan of the first differences delta(n) = length(n+1) - length(n).

    One pass over [1, n_max] in integers: delta(n) = D_sigma(x, n) / D with
    x = ceil(alpha*n), sigma = ceil(alpha*(n+1)) - x and D_sigma the integer
    difference polynomial of the scaled model.  Ratios delta(n)/n^2 are kept
    as (numerator, n^2) pairs and compared by cross-multiplying; Fractions
    are built only for the result.  The per-sigma extremes, the global
    maximum of delta(n)/n^2, the telescoping identity and the remainder-slope
    estimate cover every n in [1, n_max].  `checkpoints` records the running
    maximum of delta(n)/n^2 at the given indices.  The range is cut into
    segments ending at each checkpoint and at n_max; rows are sampled at
    every `sample_stride`-th index of a segment and at its last index.
    """
    if not isinstance(n_max, int) or n_max < 10:
        raise ValueError(f"n_max must be an integer >= 10, got {n_max!r}")
    if not isinstance(sample_stride, int) or sample_stride < 1:
        raise ValueError(f"sample_stride must be a positive integer, got {sample_stride!r}")
    for c in checkpoints:
        if not isinstance(c, int) or not 1 <= c <= n_max:
            raise ValueError(f"checkpoint {c!r} outside [1, {n_max}]")

    N, denom = _int_model(model)
    coeffs = (_difference_coeffs(N, 0), _difference_coeffs(N, 1))
    A, B, q = model.alpha._cleared()
    d = model.alpha.d
    dbb = B * B * d
    neg = B < 0

    # per sigma: count, max/min as (numerator, n^2, n), last as (numerator, n);
    # a max with n^2 = 0 accepts the first value of its class
    count = [0, 0]
    max_num, max_nn, max_at = [-1, -1], [0, 0], [0, 0]
    min_num, min_nn, min_at = [1, 1], [0, 0], [0, 0]
    last_num, last_at = [0, 0], [0, 0]
    top_num, top_nn, top_at = -1, 0, 0
    top_at_checkpoint: dict[int, tuple[int, int]] = {}
    total = 0
    last_negative = 0
    rows: list[int] = []
    checkpoint_set = set(checkpoints)
    lo = 1
    x = -floor_cleared(-A, -B, q, d)  # ceil(alpha)
    for hi in sorted({n_max, *checkpoints}):
        for n in range(lo, hi + 1):
            n1 = n + 1
            r = isqrt(dbb * n1 * n1)
            x1 = (A * n1 + (-r - 1 if neg else r)) // q + 1  # ceil(alpha*(n+1))
            s = x1 - x
            a, b1, b0, c2, c1, c0 = coeffs[s]
            dnum = (a * x + b1 * n + b0) * x + (c2 * n + c1) * n + c0
            nn = n * n
            count[s] += 1
            if dnum * max_nn[s] > max_num[s] * nn:
                max_num[s], max_nn[s], max_at[s] = dnum, nn, n
                if min_nn[s] == 0:
                    min_num[s], min_nn[s], min_at[s] = dnum, nn, n
                # the global maximum can only move where a class maximum does
                if dnum * top_nn > top_num * nn:
                    top_num, top_nn, top_at = dnum, nn, n
            elif dnum * min_nn[s] < min_num[s] * nn:
                min_num[s], min_nn[s], min_at[s] = dnum, nn, n
            last_num[s], last_at[s] = dnum, n
            if dnum < 0:
                last_negative = n
            total += dnum
            if (n - lo) % sample_stride == 0 or n == hi:
                rows += (n, s, x, dnum)
            x = x1
        if hi in checkpoint_set:
            top_at_checkpoint[hi] = (top_num, top_nn)
        lo = hi + 1

    def ratio(num: int, nn: int) -> Fraction:
        return _F(num, denom * nn)

    stats = {s: SigmaStats() for s in (0, 1)}
    for s, st in stats.items():
        if count[s]:
            st.count = count[s]
            st.min_ratio, st.min_at = ratio(min_num[s], min_nn[s]), min_at[s]
            st.max_ratio, st.max_at = ratio(max_num[s], max_nn[s]), max_at[s]
            st.last_n, st.last_ratio = last_at[s], ratio(last_num[s], last_at[s] ** 2)
    max_ratio = ratio(top_num, top_nn)

    # telescoping: sum_{n=1}^{n_max} delta(n) = length(n_max+1) - length(1)
    telescoping_ok = _F(total, denom) == model_length(model, n_max + 1) - model_length(model, 1)

    # remainder-slope estimate |delta(n) - n^2 L_sigma(n)| / n on a sparse
    # exact sample (QuadExt arithmetic is too heavy for every index)
    limits = {s: subsequence_limit(model, s) for s in (0, 1)}
    slope = QuadExt.from_rational(0, d)
    sample_step = max(1, n_max // 512)
    for n in list(range(1, n_max + 1, sample_step)) + [n_max]:
        x = -floor_cleared(-A * n, -B * n, q, d)
        s = -floor_cleared(-A * (n + 1), -B * (n + 1), q, d) - x
        a, b1, b0, c2, c1, c0 = coeffs[s]
        dnum = (a * x + b1 * n + b0) * x + (c2 * n + c1) * n + c0
        dev = abs(_F(dnum, denom) - (n * n) * limits[s]) / n
        if dev > slope:
            slope = dev

    return ScanResult(
        n_max=n_max,
        stride=sample_stride,
        rows=ScanRows(rows, denom),
        per_sigma=stats,
        max_ratio=max_ratio,
        max_ratio_at=top_at,
        bound_constant=math.ceil(max_ratio) + 1,
        telescoping_ok=telescoping_ok,
        monotone_from=last_negative + 1,
        checkpoint_max={c: ratio(*v) for c, v in top_at_checkpoint.items()},
        estimated_remainder_slope=slope,
    )


# -- assembled report ---------------------------------------------------------


@dataclass(frozen=True)
class LimitReport:
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
        ref_limits = {s: reference_sigma_limit(model.alpha, s) for s in (0, 1)}
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

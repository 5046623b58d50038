"""Tests for exact Beatty sequence generation and partition reports.

The low-n oracle is mpmath at 60 digits (safely exact at these scales);
the closed-form reports are cross-checked against per-index sigma() and
against the former per-index scan kernel, kept here as `scan_oracle`.
"""

import json
import random
from fractions import Fraction as F
from math import isqrt

import mpmath
import pytest

from divfilt.beatty import (
    BeattySequence,
    PartitionReport,
    equidistribution_histogram,
    floor_sum,
    partition,
    value_counts,
    window_constant,
)
from divfilt.cli import main
from divfilt.quadfield import QuadExt

mpmath.mp.dps = 60

ALPHA = QuadExt(F(9, 26), F(1, 26), 3)
SEQ = BeattySequence(ALPHA)


def mp_sigma(alpha: QuadExt, n: int) -> int:
    v = mpmath.mpf(alpha.a.numerator) / alpha.a.denominator + (
        mpmath.mpf(alpha.b.numerator) / alpha.b.denominator
    ) * mpmath.sqrt(alpha.d)
    return int(mpmath.floor(v * (n + 1))) - int(mpmath.floor(v * n))


def test_rational_alpha_rejected():
    with pytest.raises(ValueError):
        BeattySequence(QuadExt(F(1, 2), F(0), 3))
    with pytest.raises(ValueError):
        BeattySequence(QuadExt(F(0), F(-1), 3))  # negative


def test_sigma_small_values():
    assert SEQ.sigma(1) == 0  # 2*alpha ~ 0.826
    assert SEQ.sigma(2) == 1  # 3*alpha ~ 1.238
    with pytest.raises(ValueError):
        SEQ.sigma(0)


def test_sigma_matches_mpmath_oracle():
    for n in range(1, 2000):
        assert SEQ.sigma(n) == mp_sigma(ALPHA, n)


def test_sigma_two_values_only():
    seqs = [
        SEQ,
        BeattySequence(QuadExt(F(0), F(1), 2) - 1),   # sqrt(2)-1
        BeattySequence(QuadExt(F(0), F(1), 3)),       # sqrt(3), values {1,2}
        BeattySequence(QuadExt(F(7, 2), F(1, 3), 5)), # ~4.245, values {4,5}
    ]
    for seq in seqs:
        lo, hi = seq.low_value(), seq.high_value()
        assert hi == lo + 1
        seen = set()
        for n in range(1, 3000):
            s = seq.sigma(n)
            assert s in (lo, hi)
            seen.add(s)
        assert seen == {lo, hi}


def test_sigma_floor_equals_ceil_form():
    # for irrational alpha and n >= 1 the two first-difference forms agree
    for n in range(1, 500):
        ceil_form = ALPHA.ceil_scaled(n + 1) - ALPHA.ceil_scaled(n)
        assert SEQ.sigma(n) == ceil_form


def test_partition_small():
    rep = partition(SEQ, 10)
    assert rep.sigma2_count == 4  # sigma=1 at n in {2,4,7,9}
    assert rep.sigma1_count == 6
    assert rep.sigma2_density == F(4, 10)


def test_partition_counts_sum():
    rep = partition(SEQ, 1)
    assert rep.sigma1_count + rep.sigma2_count == 1


def test_partition_requires_unit_interval():
    with pytest.raises(ValueError):
        partition(BeattySequence(QuadExt.sqrt(3)), 10)
    counts = value_counts(BeattySequence(QuadExt.sqrt(3)), 1000)
    assert set(counts) == {1, 2}
    assert sum(counts.values()) == 1000


def test_scan_matches_per_index_sigma():
    n_max = 2000
    counts = {0: 0, 1: 0}
    for n in range(1, n_max + 1):
        counts[SEQ.sigma(n)] += 1
    rep = partition(SEQ, n_max)
    assert rep.sigma1_count == counts[0]
    assert rep.sigma2_count == counts[1]


def test_partition_density_at_scale():
    rep = partition(SEQ, 1_000_000)
    gap = rep.sigma2_density - ALPHA
    assert abs(gap) <= F(2, 1000)


def test_telescoping_sum():
    # sum of sigma(1..N) telescopes to floor(alpha*(N+1)) - floor(alpha)
    total = 0
    for n in range(1, 5000 + 1):
        total += SEQ.sigma(n)
        if n % 500 == 0 or n < 20:
            assert total == ALPHA.floor_scaled(n + 1) - ALPHA.floor_scaled(1)


def test_telescoping_kernel_vs_floor_scaled():
    # the sigma counts over all n <= 1e5 must equal the per-index kernel's
    # (isqrt identity) and telescope to a floor difference of alpha itself
    n_max = 100_000
    counts = value_counts(SEQ, n_max)
    assert counts == scan_oracle(ALPHA, n_max, None)[0]
    total = sum(v * c for v, c in counts.items())
    assert total == ALPHA.floor_scaled(n_max + 1) - ALPHA.floor_scaled(1)


def test_histogram_small_sums():
    rep = equidistribution_histogram(SEQ, 10, 10)
    assert sum(rep.histogram) == 10
    assert len(rep.histogram) == 10


def test_histogram_exact_bins_small():
    # check bin membership against exact fractional parts
    bins = 7
    rep = equidistribution_histogram(SEQ, 300, bins)
    want = [0] * bins
    for n in range(1, 301):
        frac = (ALPHA * n).fractional_part()
        j = (frac * bins).floor()
        want[j] += 1
    assert list(rep.histogram) == want


def test_histogram_equidistribution_at_scale():
    n_max = 1_000_000
    rep = equidistribution_histogram(SEQ, n_max, 2)
    tol = F(2, 1000) * n_max
    for count in rep.histogram:
        assert abs(count - F(n_max, 2)) <= tol


def test_histogram_bins_validation():
    with pytest.raises(ValueError):
        equidistribution_histogram(SEQ, 10, 1)


def test_window_constant_and_gaps():
    # 2/alpha ~ 4.845 so the window constant is 5; both values must appear
    # in every window of 5 consecutive indices
    w = window_constant(SEQ)
    assert w == 5
    rep = partition(SEQ, 100_000)
    assert rep.max_gap[0] <= w
    assert rep.max_gap[1] <= w


def test_window_property_other_irrationals():
    rng = random.Random(20260810)
    candidates = [
        QuadExt(F(0), F(1), 2) - 1,
        QuadExt(F(1, 2), F(1, 10), 5),
        QuadExt(F(0), F(1, 2), 3),
    ]
    for _ in range(5):
        a = F(rng.randint(1, 9), 10)
        b = F(1, rng.randint(7, 40))
        candidates.append(QuadExt(a, b, rng.choice([2, 3, 5, 7])))
    for alpha in candidates:
        if not (0 < alpha < 1):
            continue
        seq = BeattySequence(alpha)
        w = window_constant(seq)
        rep = partition(seq, 20_000)
        assert rep.max_gap[0] <= w, (str(alpha), rep.max_gap, w)
        assert rep.max_gap[1] <= w, (str(alpha), rep.max_gap, w)


def test_report_json():
    doc = partition(SEQ, 10).to_json()
    assert doc["sigma2_density"] == "2/5"
    assert doc["n_max"] == 10
    assert doc["max_gap"].keys() == {"0", "1"}


# -- closed forms against the per-index kernel ------------------------------------


def scan_oracle(alpha: QuadExt, n_max: int, bins: int | None):
    """The per-index scan kernel the closed forms replaced, integers only.

    Returns (counts, max_gap, histogram): counts of each sigma value that
    occurs on [1, n_max]; for floor(alpha) and ceil(alpha) the largest
    stretch of [1, n_max] without that value, including the ends; and the
    bin counts of {alpha*n} (empty without bins).  floor(B*m*sqrt(d)) is
    isqrt(B^2*d*m^2) for B > 0 and -isqrt(..) - 1 for B < 0.
    """
    A, B, q = alpha._cleared()
    dbb = B * B * alpha.d

    def floor_irr(numer: int, m: int) -> int:
        s = isqrt(dbb * m * m)
        return (numer + (-s - 1 if B < 0 else s)) // q

    counts: dict[int, int] = {}
    first: dict[int, int] = {}
    last: dict[int, int] = {}
    internal: dict[int, int] = {}
    hist = [0] * bins if bins else []
    prev = floor_irr(A, 1)
    for n in range(1, n_max + 1):
        cur = floor_irr(A * (n + 1), n + 1)
        s = cur - prev
        counts[s] = counts.get(s, 0) + 1
        if s in first:
            internal[s] = max(internal.get(s, 0), n - last[s])
        else:
            first[s] = n
        last[s] = n
        if bins:
            # bin of {alpha*n} = floor(bins * (alpha*n - prev)), exact
            hist[floor_irr((A * n - prev * q) * bins, n * bins)] += 1
        prev = cur
    max_gap = {
        v: max(internal.get(v, 0), first[v], n_max - last[v] + 1) if v in first else n_max
        for v in (alpha.floor(), alpha.ceil())
    }
    return dict(sorted(counts.items())), max_gap, hist


def random_alphas(rng: random.Random, count: int) -> list[QuadExt]:
    out = []
    while len(out) < count:
        a = F(rng.randint(-40, 60), rng.randint(1, 30))
        b = F(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 30))
        alpha = QuadExt(a, b, rng.choice((2, 3, 5, 6, 7, 10, 11, 13)))
        if alpha.sign() > 0:
            out.append(alpha)
    return out


ORACLE_ALPHAS = [
    ALPHA,
    QuadExt(F(2), F(-1), 3),  # 2 - sqrt(3), B < 0
    QuadExt(F(0), F(1), 2),  # sqrt(2) > 1
    QuadExt(F(7, 2), F(1, 3), 5),
    QuadExt(F(1, 2), F(1, 2), 5) - 1,  # golden ratio conjugate
    QuadExt(F(0), F(1, 1000), 2),  # tiny fractional part, long gaps
    QuadExt(F(1), F(-1, 1000), 2),  # fractional part near 1
] + random_alphas(random.Random(20261018), 33)


def test_oracle_alphas_cover_their_branches():
    assert len(ORACLE_ALPHAS) >= 30
    assert any(alpha > 1 for alpha in ORACLE_ALPHAS)
    assert any(alpha < 1 for alpha in ORACLE_ALPHAS)
    assert any(alpha._cleared()[1] < 0 for alpha in ORACLE_ALPHAS)
    assert any(alpha._cleared()[1] > 0 for alpha in ORACLE_ALPHAS)


@pytest.mark.parametrize("index", range(len(ORACLE_ALPHAS)))
def test_closed_forms_match_scan_oracle(index):
    alpha = ORACLE_ALPHAS[index]
    seq = BeattySequence(alpha)
    rng = random.Random(index)
    sizes = {1, 2, 3, rng.randint(4, 200), rng.randint(200, 10_000), 10_000}
    for n_max in sorted(sizes):
        bins = rng.choice((2, 3, 7, 10))
        counts, max_gap, hist = scan_oracle(alpha, n_max, bins)
        assert value_counts(seq, n_max) == counts  # absent values omitted
        rep = equidistribution_histogram(seq, n_max, bins)
        low, high = seq.low_value(), seq.high_value()
        assert (rep.sigma1_count, rep.sigma2_count) == (counts.get(low, 0), counts.get(high, 0))
        assert rep.max_gap == max_gap, (str(alpha), n_max)
        assert list(rep.histogram) == hist, (str(alpha), n_max, bins)
        if 0 < alpha < 1:
            assert partition(seq, n_max) == PartitionReport(
                rep.n_max, rep.sigma1_count, rep.sigma2_count, rep.sigma2_density,
                histogram=(), low_value=rep.low_value, high_value=rep.high_value, max_gap=rep.max_gap,
            )


def test_floor_sum_matches_direct_sum():
    rng = random.Random(7)
    for alpha in ORACLE_ALPHAS[:12]:
        for beta in (0, F(-7, 3), F(5, 2), alpha - F(3, 10), QuadExt(F(1, 3), F(-2, 7), alpha.d)):
            for n in (0, 1, 2, rng.randint(3, 400)):
                want = sum((alpha * k + beta).floor() for k in range(n))
                assert floor_sum(alpha, beta, n) == want, (str(alpha), beta, n)
        assert floor_sum(-alpha, F(1, 2), 50) == sum((F(1, 2) - alpha * k).floor() for k in range(50))


def test_beatty_scan_at_1e18(capsys):
    n_max = 10**18
    assert main(["beatty-scan", "--n-max", str(n_max), "--bins", "10"]) == 0
    rep = json.loads(capsys.readouterr().out)["report"]
    ones = ALPHA.floor_scaled(n_max + 1) - ALPHA.floor_scaled(1)
    assert rep["sigma2_count"] == ones
    assert rep["sigma1_count"] == n_max - ones
    assert sum(rep["histogram"]) == n_max
    assert all(abs(c - n_max // 10) < 100 for c in rep["histogram"])  # discrepancy is O(log n)


@pytest.mark.parametrize("alpha", ORACLE_ALPHAS[:8], ids=str)
def test_histogram_bins_beyond_points_binned_per_point(monkeypatch, alpha):
    # more than n_max/64 bins: each point is binned by its own floors, so a
    # wide histogram costs O(n_max), not one floor sum per bin
    from divfilt import beatty

    calls = []
    real = beatty.floor_sum
    monkeypatch.setattr(beatty, "floor_sum", lambda *a: calls.append(a) or real(*a))
    seq = BeattySequence(alpha)
    for n_max, bins in ((1, 2), (37, 38), (1000, 20_000), (40, 40), (1000, 100), (640, 11)):
        calls.clear()
        rep = equidistribution_histogram(seq, n_max, bins)
        assert list(rep.histogram) == scan_oracle(alpha, n_max, bins)[2]
        assert len(calls) <= 1
    # at n_max/64 bins or fewer the floor-sum path stays, one sum per bin
    for n_max, bins in ((4000, 40), (640, 10)):
        calls.clear()
        rep = equidistribution_histogram(seq, n_max, bins)
        assert list(rep.histogram) == scan_oracle(alpha, n_max, bins)[2]
        assert len(calls) == bins

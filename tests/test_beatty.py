"""Tests for exact Beatty sequence generation and partition scans.

The low-n oracle is mpmath at 60 digits (safely exact at these scales);
the scan kernel is additionally cross-checked against per-index sigma().
"""

import random
from fractions import Fraction as F

import mpmath
import pytest

from divfilt.beatty import (
    BeattySequence,
    equidistribution_histogram,
    partition,
    sigma,
    value_counts,
    window_constant,
)
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
    assert sigma(SEQ, 1) == 0  # 2*alpha ~ 0.826
    assert sigma(SEQ, 2) == 1  # 3*alpha ~ 1.238
    with pytest.raises(ValueError):
        sigma(SEQ, 0)


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
    # the scan kernel's sigma counts over all n <= 1e5 must telescope to an
    # independently computed floor difference (kernel isqrt identity on one
    # side, QuadExt floor path on the other)
    n_max = 100_000
    counts = value_counts(SEQ, n_max)
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

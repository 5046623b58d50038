"""Tests for monomial ideals and the sigma filtration generator counts.

Oracles: brute-force O(g^2) antichain filtering for minimalize, and direct
monomial enumeration of (x, y)^s for the ideal construction.
"""

import random

import pytest

from divfilt import monomial
from divfilt.monomial import (
    MonomialIdeal,
    SigmaFiltration,
    build_In,
    containment_failures,
    filtration_check,
    min_gens_count,
    minimalize,
    product_contained_in,
)


def brute_minimalize(gens):
    gens = {tuple(v) for v in gens}
    kept = set()
    for v in gens:
        if not any(g != v and all(gi <= vi for gi, vi in zip(g, v)) for g in gens):
            kept.add(v)
    return kept


# -- minimalize --------------------------------------------------------------


def test_minimalize_divisibility():
    assert minimalize([(1, 0, 0), (2, 0, 0)]).generators == {(1, 0, 0)}


def test_minimalize_antichain_unchanged():
    gens = {(0, 0, 3), (1, 0, 2), (0, 1, 2)}
    assert minimalize(gens).generators == gens


def test_minimalize_example_construction():
    # generators of (z^3) + z^2 (x, y)^1
    gens = [(0, 0, 3), (1, 0, 2), (0, 1, 2)]
    assert minimalize(gens).generators == set(gens)


def test_minimalize_idempotent_and_order_independent():
    rng = random.Random(404)
    for _ in range(50):
        gens = [
            (rng.randint(0, 6), rng.randint(0, 6), rng.randint(0, 6))
            for _ in range(rng.randint(1, 25))
        ]
        ideal = minimalize(gens)
        assert ideal.generators == brute_minimalize(gens)
        assert minimalize(ideal.generators) == ideal
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert minimalize(shuffled) == ideal


def test_antichain_invariant_enforced():
    with pytest.raises(ValueError):
        MonomialIdeal(frozenset({(1, 0, 0), (2, 0, 0)}))
    with pytest.raises(ValueError):
        MonomialIdeal(frozenset({(1, 0)}))
    with pytest.raises(ValueError):
        MonomialIdeal(frozenset({(1, 0, 2**63)}))


# -- build_In ------------------------------------------------------------------


def test_build_In_sigma1():
    f = SigmaFiltration.from_callable(lambda n: 1)
    assert build_In(f, 1).generators == {(0, 0, 3), (1, 0, 2), (0, 1, 2)}


def test_build_In_sigma2():
    f = SigmaFiltration.from_callable(lambda n: 2)
    assert build_In(f, 1).generators == {(0, 0, 3), (2, 0, 2), (1, 1, 2), (0, 2, 2)}


def test_build_In_matches_enumeration():
    # oracle: z^(n+2) plus the full monomial basis of z^(n+1)(x,y)^s,
    # then brute-force minimalization
    f = SigmaFiltration(table=tuple([3, 1, 4, 1, 5, 9, 2, 6]))
    for n in range(1, 9):
        s = f.sigma(n)
        raw = [(0, 0, n + 2)]
        for i in range(s + 1):
            raw.append((i, s - i, n + 1))
        assert build_In(f, n).generators == brute_minimalize(raw)


def test_generator_count_is_sigma_plus_two():
    rng = random.Random(2026)
    for _ in range(20):
        table = tuple(rng.randint(1, 1000) for _ in range(100))
        f = SigmaFiltration(table=table)
        for n in range(1, 101):
            assert min_gens_count(build_In(f, n)) == table[n - 1] + 2


def test_count_constant_sigma():
    f = SigmaFiltration.from_callable(lambda n: 1)
    for n in range(1, 101):
        assert min_gens_count(build_In(f, n)) == 3


def test_count_square_sigma():
    f = SigmaFiltration.from_callable(lambda n: n * n)
    assert min_gens_count(build_In(f, 7)) == 51


def test_min_gens_count_zero_ideal():
    assert min_gens_count(MonomialIdeal.zero()) == 0


# -- sigma filtration ---------------------------------------------------------


def test_sigma_table_bounds():
    f = SigmaFiltration(table=(1, 2, 3))
    assert [f.sigma(n) for n in (1, 2, 3)] == [1, 2, 3]
    with pytest.raises(ValueError):
        f.sigma(4)
    with pytest.raises(ValueError):
        f.sigma(0)
    with pytest.raises(ValueError):
        SigmaFiltration(table=(1, 0, 3))
    with pytest.raises(ValueError):
        SigmaFiltration.from_json([])


# -- containment -----------------------------------------------------------------


def test_unit_ideal_containment():
    f = SigmaFiltration.from_callable(lambda n: n)
    I = build_In(f, 3)
    assert product_contained_in(I, MonomialIdeal.unit(), I)


def test_pure_z_powers():
    z2 = MonomialIdeal(frozenset({(0, 0, 2)}))
    z3 = MonomialIdeal(frozenset({(0, 0, 3)}))
    z5 = MonomialIdeal(frozenset({(0, 0, 5)}))
    assert product_contained_in(z2, z3, z5)
    assert not product_contained_in(z2, z2, z5)


def test_containment_counterexamples_reported():
    x = MonomialIdeal(frozenset({(1, 0, 0)}))
    y = MonomialIdeal(frozenset({(0, 1, 0)}))
    z = MonomialIdeal(frozenset({(0, 0, 1)}))
    assert not product_contained_in(x, y, z)
    assert containment_failures(x, y, z) == [((1, 0, 0), (0, 1, 0))]


def test_filtration_property_linear_sigma():
    f = SigmaFiltration.from_callable(lambda n: n)
    rep = filtration_check(f, 30, 30)
    assert rep.ok and rep.failures == ()


def _visited_pairs(monkeypatch, f, m_max, n_max):
    # every visited (m, n) reports one dummy failure, so the report lists them
    monkeypatch.setattr(monomial, "containment_failures", lambda I, J, K: [((), ())])
    return [(m, n) for m, n, _, _ in filtration_check(f, m_max, n_max).failures]


def test_filtration_check_visits_every_pair(monkeypatch):
    f = SigmaFiltration(table=tuple(range(1, 21)))
    for m_max, n_max in ((6, 2), (2, 6), (4, 4), (5, 1)):
        visited = _visited_pairs(monkeypatch, f, m_max, n_max)
        assert len(visited) == len(set(visited))
        for m in range(1, m_max + 1):
            for n in range(1, n_max + 1):
                assert (m, n) in visited or (n <= m_max and m <= n_max and (n, m) in visited)
    # square ranges keep the symmetric shortcut: exactly the pairs m <= n
    assert _visited_pairs(monkeypatch, f, 5, 5) == [
        (m, n) for m in range(1, 6) for n in range(m, 6)
    ]


def test_filtration_property_random_sigma():
    rng = random.Random(777)
    for _ in range(5):
        table = tuple(rng.randint(1, 50) for _ in range(40))
        rep = filtration_check(SigmaFiltration(table=table), 20, 20)
        assert rep.ok, rep.failures[:3]


def test_membership_monotone_under_larger_middle():
    # if J's generators all lie in J2 then containment with J implies it
    # with J2 replaced... checked on the natural witness family
    f = SigmaFiltration.from_callable(lambda n: 2 * n)
    I, J, K = build_In(f, 2), build_In(f, 3), build_In(f, 5)
    assert product_contained_in(I, J, K)
    # shrinking the middle ideal to a subideal keeps containment
    J_sub = MonomialIdeal(frozenset({min(J.generators)}))
    assert product_contained_in(I, J_sub, K)

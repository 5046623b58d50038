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
        assert MonomialIdeal(ideal.generators) == ideal  # built unchecked, passes the check
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
    with pytest.raises(ValueError):
        minimalize([(0, 0, 1), (1, -1, 0)])
    with pytest.raises(ValueError):
        minimalize([(0, 0, 1), [1, 0]])
    with pytest.raises(ValueError):  # bool is an int, but not an exponent
        MonomialIdeal(frozenset({(True, 0, 0)}))
    with pytest.raises(ValueError):
        minimalize([(0, True, 3)])
    # build_In range-checks its largest exponents, n + 2 and sigma(n)
    with pytest.raises(ValueError, match="2\\^63"):
        build_In(SigmaFiltration.from_callable(lambda n: 1), 2**63 - 2)
    with pytest.raises(ValueError, match="2\\^63"):
        build_In(SigmaFiltration.from_callable(lambda n: 2**63), 1)
    assert min_gens_count(build_In(SigmaFiltration.from_callable(lambda n: 1), 2**63 - 3)) == 3


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


def test_build_In_is_its_own_minimalization():
    # build_In builds its ideal without minimalize or the antichain check
    rng = random.Random(4242)
    tables = [(1,) * 12] + [tuple(rng.randint(1, 60) for _ in range(12)) for _ in range(10)]
    for table in tables:
        f = SigmaFiltration(table=table)
        for n in range(1, 13):
            s = f.sigma(n)
            gens = [(0, 0, n + 2)] + [(i, s - i, n + 1) for i in range(s + 1)]
            ideal = build_In(f, n)
            assert ideal == minimalize(gens)
            assert MonomialIdeal(ideal.generators) == ideal


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
    # table values get build_In's exponent bound where they are read
    with pytest.raises(ValueError, match="2\\^63"):
        SigmaFiltration.from_json([2**63])
    assert SigmaFiltration.from_json([2**63 - 1]).sigma(1) == 2**63 - 1


def test_sigma_rejects_bools():
    # bool is an int subclass; JSON true must not read as sigma = 1
    for table in ([True, 2, True, 1], [2, 3, True]):
        with pytest.raises(ValueError, match="positive integers"):
            SigmaFiltration.from_json(table)
    f = SigmaFiltration.from_callable(lambda n: n == 1 or n)
    assert f.sigma(2) == 2
    with pytest.raises(ValueError, match="sigma\\(1\\) must be a positive integer"):
        f.sigma(1)


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


def brute_failures(I, J, K):
    # test-local oracle: every generator product, tested against every
    # generator of K, in the order of the sorted generators
    failures = []
    for g in sorted(I.generators):
        for h in sorted(J.generators):
            prod = tuple(a + b for a, b in zip(g, h))
            if not any(all(k <= p for k, p in zip(gk, prod)) for gk in K.generators):
                failures.append((g, h))
    return failures


def _random_ideal(rng, max_gens=5, max_exp=4):
    if rng.random() < 0.08:
        return MonomialIdeal.zero()
    if rng.random() < 0.08:
        return MonomialIdeal.unit()
    k = rng.randint(1, max_gens)
    return minimalize(tuple(rng.randint(0, max_exp) for _ in range(3)) for _ in range(k))


def _floor_in(I, J, K):
    if not I.generators or not J.generators:
        return False
    f = [min(g[i] for g in I.generators) + min(h[i] for h in J.generators) for i in range(3)]
    return any(all(k <= p for k, p in zip(gk, f)) for gk in K.generators)


def test_containment_matches_brute_force_oracle():
    rng = random.Random(9090)
    x, y, z = ((1, 0, 0),), ((0, 1, 0),), ((0, 0, 1),)
    xy = MonomialIdeal(frozenset(x + y))
    fixed = [
        (MonomialIdeal(frozenset(x)), MonomialIdeal(frozenset(y)), MonomialIdeal(frozenset(z))),
        (xy, xy, minimalize([(2, 0, 0), (1, 1, 0), (0, 2, 0)])),  # holds, floor 1 not in K
        (xy, xy, MonomialIdeal.unit()),
        (MonomialIdeal.zero(), xy, MonomialIdeal.zero()),
        (xy, MonomialIdeal.zero(), MonomialIdeal.zero()),
        (MonomialIdeal.unit(), xy, MonomialIdeal.zero()),
        (MonomialIdeal.unit(), MonomialIdeal.unit(), MonomialIdeal.unit()),
    ]
    cases = list(fixed)
    for _ in range(400):
        I, J = _random_ideal(rng), _random_ideal(rng)
        products = [tuple(a + b for a, b in zip(g, h)) for g in I.generators for h in J.generators]
        kind = rng.randrange(4)
        if kind == 0 or not products:
            K = _random_ideal(rng)
        elif kind == 1:  # exactly I*J: contained, certificate rarely applies
            K = minimalize(products)
        elif kind == 2:  # I*J with a generator pushed up: usually not contained
            drop = rng.choice(products)
            K = minimalize([p for p in products if p != drop] + [(drop[0] + 1,) + drop[1:]])
        else:  # a random ideal plus a random multiple of one product
            extra = tuple(c + rng.randint(0, 1) for c in rng.choice(products))
            K = minimalize(list(_random_ideal(rng).generators) + [extra])
        cases.append((I, J, K))
    seen = {"certified": 0, "contained": 0, "failing": 0}
    for I, J, K in cases:
        expected = brute_failures(I, J, K)
        assert containment_failures(I, J, K) == expected, (I, J, K)
        assert product_contained_in(I, J, K) == (not expected), (I, J, K)
        if _floor_in(I, J, K):
            seen["certified"] += 1
        else:
            seen["failing" if expected else "contained"] += 1
    assert min(seen.values()) >= 30, seen


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

"""Tests for the sigma filtration's ideals I_n and their closed forms.

Oracles: direct monomial enumeration of (x, y)^s with brute-force O(g^2)
antichain filtering for `build_In`, and membership by divisibility by one of
`build_In`'s generators (`contains`) for the closed-form membership, the
socle witness and, product by product, the filtration check.
"""

import json
import random

import pytest

from divfilt import monomial
from divfilt.cli import main
from divfilt.monomial import (
    SigmaFiltration,
    build_In,
    filtration_check,
    in_In,
    min_gens_count,
    socle_certificate,
)


def contains(gens, v):
    # membership by dominance: some generator divides x^a y^b z^c, v = (a, b, c)
    return any(all(gi <= vi for gi, vi in zip(g, v)) for g in gens)


def brute_minimalize(gens):
    gens = {tuple(v) for v in gens}
    kept = set()
    for v in gens:
        if not any(g != v and all(gi <= vi for gi, vi in zip(g, v)) for g in gens):
            kept.add(v)
    return kept


# -- build_In ------------------------------------------------------------------


def test_build_In_exponent_bounds():
    # build_In range-checks its largest exponents, n + 2 and sigma(n)
    with pytest.raises(ValueError, match="2\\^63"):
        build_In(SigmaFiltration.from_callable(lambda n: 1), 2**63 - 2)
    with pytest.raises(ValueError, match="2\\^63"):
        build_In(SigmaFiltration.from_callable(lambda n: 2**63), 1)
    assert min_gens_count(build_In(SigmaFiltration.from_callable(lambda n: 1), 2**63 - 3)) == 3


def test_build_In_sigma1():
    f = SigmaFiltration.from_callable(lambda n: 1)
    assert build_In(f, 1) == {(0, 0, 3), (1, 0, 2), (0, 1, 2)}


def test_build_In_sigma2():
    f = SigmaFiltration.from_callable(lambda n: 2)
    assert build_In(f, 1) == {(0, 0, 3), (2, 0, 2), (1, 1, 2), (0, 2, 2)}


def test_build_In_matches_enumeration():
    # oracle: z^(n+2) plus the full monomial basis of z^(n+1)(x,y)^s,
    # then brute-force minimalization
    f = SigmaFiltration(table=tuple([3, 1, 4, 1, 5, 9, 2, 6]))
    for n in range(1, 9):
        s = f.sigma(n)
        raw = [(0, 0, n + 2)]
        for i in range(s + 1):
            raw.append((i, s - i, n + 1))
        assert build_In(f, n) == brute_minimalize(raw)


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
    assert min_gens_count(frozenset()) == 0


# -- closed forms ----------------------------------------------------------------


def _boundary_vectors(rng, n, s):
    # c in {n, n+1, n+2} against a + b in {s-1, s}, split at both ends and once between
    for c in (n, n + 1, n + 2):
        for t in (s - 1, s):
            for a in sorted({0, t, rng.randint(0, t)}):
                yield (a, t - a, c)


def test_closed_forms_match_build_In_seeded_sweep():
    rng = random.Random(1717)
    pairs = [(1, 1), (1, 2), (2, 1)]
    for _ in range(197):
        s = rng.randint(1, 9) if rng.random() < 0.5 else rng.randint(10, 300)
        pairs.append((rng.randint(1, 10**6), s))
    for n, s in pairs:
        ideal = build_In(SigmaFiltration.from_callable(lambda k, s=s: s), n)
        for v in _boundary_vectors(rng, n, s):
            assert in_In(n, s, v) == contains(ideal, v), (n, s, v)
        u, ok = socle_certificate(n, s)
        a, b, c = u
        assert ok and u == (s - 1, 0, n + 1), (n, s)
        assert not contains(ideal, u), (n, s)
        for w in ((a + 1, b, c), (a, b + 1, c), (a, b, c + 1)):
            assert contains(ideal, w), (n, s, w)


def test_cli_socle_witness_at_sigma_1e9(capsys, tmp_path):
    # one row from (n, sigma(n)) alone: no generator of I_1 is listed
    path = tmp_path / "sigma.json"
    path.write_text("[1000000000]")
    assert main(["monomial-check", "--sigma", str(path), "--n-max", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["rows"] == [
        {"n": 1, "count": 10**9 + 2, "expected": 10**9 + 2, "socle": [999999999, 0, 2], "ok": True}
    ]
    assert doc["all_ok"] and doc["audit_flags"] == []


def test_cli_flags_a_failing_socle_witness(capsys, monkeypatch):
    monkeypatch.setattr(monomial, "in_In", lambda n, s, v: True)  # u itself would lie in I_n
    assert main(["monomial-check", "--n-max", "2", "--strict"]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert [r["ok"] for r in doc["rows"]] == [False, False] and not doc["all_ok"]
    assert doc["audit_flags"] == ["discrepancy:socle-witness n=1", "discrepancy:socle-witness n=2"]


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


def test_sigma_callable_values_get_the_table_bound():
    # the bound 0 < sigma < 2^63 holds for callable values too, so the
    # filtration check, which builds no ideal, still refuses them
    f = SigmaFiltration.from_callable(lambda n: 2**63 if n == 3 else n)
    assert f.sigma(2) == 2
    with pytest.raises(ValueError, match="sigma\\(3\\) must be a positive integer below 2\\^63"):
        f.sigma(3)
    with pytest.raises(ValueError, match="2\\^63"):
        filtration_check(f, 2, 1)
    assert SigmaFiltration.from_callable(lambda n: 2**63 - 1).sigma(1) == 2**63 - 1


# -- filtration check --------------------------------------------------------------


def test_filtration_property_linear_sigma():
    f = SigmaFiltration.from_callable(lambda n: n)
    rep = filtration_check(f, 30, 30)
    assert rep.ok and rep.failures == ()


def _visited_pairs(monkeypatch, f, m_max, n_max):
    # every visited (m, n) reports one dummy failure, so the report lists them
    monkeypatch.setattr(monomial, "in_In", lambda n, s, v: False)
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


def test_filtration_check_builds_no_ideal(monkeypatch, capsys):
    def refuse(f, n):
        raise AssertionError(f"built I_{n}")

    monkeypatch.setattr(monomial, "build_In", refuse)
    rep = filtration_check(SigmaFiltration(table=(1, 10**9, 3, 2**63 - 1)), 2, 2)
    assert rep.ok and rep.failures == ()
    assert main(["monomial-check", "--n-max", "4", "--filtration-max", "3"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["filtration"] == {"m_max": 3, "n_max": 3, "ok": True, "failures": []}


def _products_contained(I, J, K):
    # brute force: every generator product of I and J, tested against K
    return all(
        contains(K, (g[0] + h[0], g[1] + h[1], g[2] + h[2]))
        for g in I
        for h in J
    )


def test_filtration_verdicts_match_generator_products_seeded_sweep():
    rng = random.Random(1919)
    tables = [(1,) * 8, (1, 150, 1, 200, 1, 1, 120, 1)]
    for _ in range(10):
        tables.append(tuple(rng.choice((1, rng.randint(2, 9), rng.randint(100, 160))) for _ in range(8)))
    for table in tables:
        f = SigmaFiltration(table=table)
        ideals = {k: build_In(f, k) for k in range(1, 9)}
        failing = {(m, n) for m, n, _, _ in filtration_check(f, 4, 4).failures}
        for m in range(1, 5):
            for n in range(m, 5):
                contained = _products_contained(ideals[m], ideals[n], ideals[m + n])
                assert contained == ((m, n) not in failing), (table, m, n)


def _in_In_mutant(n, s, v):
    # n + 3 where the closed form has n + 2
    return v[2] >= n + 3 or (v[2] >= n + 1 and v[0] + v[1] >= s)


def test_mutant_membership_fails_every_pair(monkeypatch, capsys):
    monkeypatch.setattr(monomial, "in_In", _in_In_mutant)
    pairs = [(m, n) for m in range(1, 5) for n in range(m, 5)]
    rep = filtration_check(SigmaFiltration(table=tuple(range(1, 9))), 4, 4)
    assert not rep.ok
    assert rep.failures == tuple((m, n, (0, 0, m + 1), (0, 0, n + 1)) for m, n in pairs)
    assert main(["monomial-check", "--n-max", "2", "--filtration-max", "2", "--strict"]) == 1
    doc = json.loads(capsys.readouterr().out)
    pairs = [(1, 1), (1, 2), (2, 2)]
    assert doc["filtration"]["failures"] == [
        {"m": m, "n": n, "gcd_m": [0, 0, m + 1], "gcd_n": [0, 0, n + 1]} for m, n in pairs
    ]
    assert not doc["all_ok"] and not doc["filtration"]["ok"]
    assert [flag for flag in doc["audit_flags"] if "filtration" in flag] == [
        f"discrepancy:filtration-containment m={m} n={n}" for m, n in pairs
    ]

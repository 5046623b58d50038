"""Output checks: every report is compared with an independent oracle or a
fixed constant.  Stdlib only; imports nothing from divfilt.

Checks read verdict fields by name and ignore fields they do not know, so
reports may grow new fields without failing here.  Bulk point coordinates
are not compared.

    python3 perfbench/check.py JOB.json VERDICTS.json

reads the calls of one finished pass from JOB.json and writes one verdict
per call (null when the report is correct, else the reason).
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from math import ceil, comb, gcd, isqrt, lcm

# The bundled model: alpha = (9 + sqrt 3)/26 and the bundled triple table.
ALPHA = (Fraction(9, 26), Fraction(1, 26), 3)
BUNDLED_TABLE = {
    ("S", "S", "S"): 468,
    ("F", "S", "S"): -162,
    ("F", "F", "S"): 54,
    ("F", "F", "F"): 54,
    ("K", "S", "S"): -792,
    ("F", "K", "S"): 282,
    ("F", "F", "K"): -175,
}
# Acceptance constants of the bundled limit report, as (a, b) of a + b sqrt(3).
BUNDLED_LIMITS = {
    "cubic_limit": (Fraction(12042, 169), Fraction(-27, 169)),
    "multiplicity": (Fraction(72252, 169), Fraction(-162, 169)),
    "sigma_limits.0": (Fraction(144504, 4056), Fraction(-324, 4056)),
    "sigma_limits.1": (Fraction(144504, 4056), Fraction(-324, 4056)),
    "reference_sigma_limits.0": (Fraction(144504, 4056), Fraction(-324, 4056)),
    "reference_sigma_limits.1": (Fraction(106596, 4056), Fraction(-4536, 4056)),
}
DIGITS = 30  # the CLI's default --digits
BUNDLED_FLAGS = ("discrepancy:sigma2-derived-vs-reference", "discrepancy:reference-limits-fail-cesaro")


class CheckFailed(Exception):
    pass


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


# -- a + b sqrt(d) helpers, independent of divfilt.quadfield ------------------


def _cleared(a: Fraction, b: Fraction) -> tuple[int, int, int]:
    q = lcm(a.denominator, b.denominator)
    return int(a * q), int(b * q), q


def floor_quad(a: Fraction, b: Fraction, d: int) -> int:
    """floor(a + b sqrt d) for b != 0 and d squarefree (so b sqrt d is irrational)."""
    A, B, q = _cleared(a, b)
    s = isqrt(B * B * d)
    return (A + (s if B > 0 else -s - 1)) // q


def sign_quad(a: Fraction, b: Fraction, d: int) -> int:
    if b == 0 or a == 0 or (a > 0) == (b > 0):
        return (a > 0) - (a < 0) if a != 0 else (b > 0) - (b < 0)
    # opposite signs: compare a^2 with b^2 d
    return (1 if a > 0 else -1) * (1 if a * a > b * b * d else -1)


def qmul(x, y, d):
    return (x[0] * y[0] + x[1] * y[1] * d, x[0] * y[1] + x[1] * y[0])


def quad_json(doc) -> tuple:
    return Fraction(doc["a"]), Fraction(doc["b"]), doc["d"]


def expect_quad(doc, value: tuple, d: int, what: str) -> None:
    expect(quad_json(doc) == (value[0], value[1], d), f"{what}: {doc.get('a')} + {doc.get('b')}*sqrt({doc.get('d')})")


# -- the model oracle ---------------------------------------------------------


def table_of(doc: dict) -> dict:
    return {tuple(sorted(row["d"])): Fraction(row["v"]) for row in doc["triples"]}


def growth_polys(table: dict) -> tuple[list, list]:
    """Coefficients of p3 = (xS + yF)^3 and p2 = (xS + yF)^2 K, indexed by the x degree."""
    def t(*syms):
        return table.get(tuple(sorted(syms)), 0)
    p3 = [comb(3, i) * t(*["S"] * i, *["F"] * (3 - i)) for i in range(4)]
    p2 = [comb(2, i) * t(*["S"] * i, *["F"] * (2 - i), "K") for i in range(3)]
    return p3, p2


def derived_limits(table: dict) -> dict:
    """p3(alpha,1), 6 p3(alpha,1) and L_s = (s dp3/dx + dp3/dy)(alpha,1)/6."""
    p3, _ = growth_polys(table)
    d = ALPHA[2]
    powers = [(Fraction(1), Fraction(0))]
    for _ in range(3):
        powers.append(qmul(powers[-1], ALPHA[:2], d))

    def combo(coeffs):
        return (sum(c * p[0] for c, p in zip(coeffs, powers)), sum(c * p[1] for c, p in zip(coeffs, powers)))

    cubic = combo(p3)
    dx = combo([(i + 1) * p3[i + 1] for i in range(3)])
    dy = combo([(3 - i) * p3[i] for i in range(4)])
    out = {"cubic_limit": cubic, "multiplicity": (6 * cubic[0], 6 * cubic[1])}
    for s in (0, 1):
        out[f"sigma_limits.{s}"] = ((s * dx[0] + dy[0]) / 6, (s * dx[1] + dy[1]) / 6)
    return out


class ScanOracle:
    """12 * length(n) = 2 p3(x, n) + 3 p2(x, n) with x = ceil(alpha n), in integers."""

    def __init__(self, table: dict):
        p3, p2 = growth_polys(table)
        c3 = [2 * Fraction(c) for c in p3]
        c2 = [3 * Fraction(c) for c in p2]
        self.scale = lcm(*(c.denominator for c in c3 + c2))  # 12 * scale * length(n) is an integer
        self.c3 = [int(c * self.scale) for c in c3]
        self.c2 = [int(c * self.scale) for c in c2]
        self.A, self.B, self.q = _cleared(ALPHA[0], ALPHA[1])
        self.bbd = self.B * self.B * ALPHA[2]

    def ceil_alpha(self, n: int) -> int:
        return (self.A * n + isqrt(self.bbd * n * n)) // self.q + 1  # n >= 1, B > 0

    def length12(self, n: int) -> int:
        x = self.ceil_alpha(n)
        c3, c2 = self.c3, self.c2
        return (
            ((c3[3] * x + c3[2] * n) * x + c3[1] * n * n) * x + c3[0] * n**3
            + (c2[2] * x + c2[1] * n) * x + c2[0] * n * n
        )


def _rational(text: str) -> tuple[int, int]:
    num, _, den = text.partition("/")
    return int(num), int(den or 1)


def _decimal_close(text: str, num: int, den: int) -> bool:
    """`text` has DIGITS fractional digits and is within half a unit in the
    last of them of num/den."""
    if len(text.partition(".")[2]) != DIGITS:
        return False
    scaled = int(text.replace(".", ""))
    return 2 * abs(scaled * den - num * 10**DIGITS) <= den


# -- per-command checks -------------------------------------------------------


def check_scan(call: dict, values: dict) -> None:
    p = call["params"]
    n_max, stride = p["n_max"], p["stride"]
    oracle = ScanOracle(BUNDLED_TABLE)
    s12 = 12 * oracle.scale
    with open(call["summary"], encoding="utf-8") as fh:
        summary = json.load(fh)
    expect(summary["n_max"] == n_max and summary["stride"] == stride, "summary n_max/stride")
    expect(summary["telescoping_ok"] is True, "telescoping_ok")
    ones = oracle.ceil_alpha(n_max + 1) - oracle.ceil_alpha(1)
    per = summary["per_sigma"]
    expect(per["1"]["count"] == ones and per["0"]["count"] == n_max - ones, "per-sigma counts")
    mnum, mden = _rational(summary["max_ratio"])
    at = summary["max_ratio_at"]
    expect(1 <= at <= n_max, "max_ratio_at range")
    dat = oracle.length12(at + 1) - oracle.length12(at)
    expect(Fraction(dat, s12 * at * at) == Fraction(mnum, mden), "max_ratio value")
    expect(summary["bound_constant"] == ceil(Fraction(mnum, mden)) + 1, "bound_constant")
    cps = summary["checkpoint_max"]
    expect(sorted(cps) == sorted(str(c) for c in p["checkpoints"]), "checkpoint keys")
    expect(all(Fraction(v) <= Fraction(mnum, mden) for v in cps.values()), "checkpoint <= max")

    with open(call["out"], encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    header = lines[0].split(",")
    cols = [header.index(c) for c in ("n", "sigma", "ceil_alpha_n", "delta_exact", "delta_over_n2_decimal")]
    expect(len(lines) - 1 >= n_max // stride, "row count")
    prev = 0
    x = oracle.ceil_alpha(1)
    for line in lines[1:]:
        f = line.split(",")
        n, sig, xn, delta, dec = (f[i] for i in cols)
        n = int(n)
        expect(prev < n <= n_max, f"row order at n={n}")
        if n != prev + 1:
            x = oracle.ceil_alpha(n)
        x_next = oracle.ceil_alpha(n + 1)
        expect(int(xn) == x and int(sig) == x_next - x, f"ceil/sigma at n={n}")
        dnum = oracle.length12(n + 1) - oracle.length12(n)
        num, den = _rational(delta)
        expect(num * s12 == dnum * den, f"delta_exact at n={n}")
        expect(dnum * mden <= mnum * s12 * n * n, f"row ratio above max_ratio at n={n}")
        expect(_decimal_close(dec, dnum, s12 * n * n), f"decimal at n={n}")
        prev, x = n, x_next
    expect(prev == n_max and lines[1].split(",")[cols[0]] == "1", "first/last row")


def check_quad(doc: dict, call: dict, values: dict) -> None:
    p = call["params"]
    a, b, d = Fraction(p["a"]), Fraction(p["b"]), p["d"]
    expect_quad(doc["value"], (a, b), d, "value")
    expect(doc["sign"] == sign_quad(a, b, d) and doc["is_rational"] is False, "sign/is_rational")
    # x = a + b sqrt d is a root of x^2 - 2a x + (a^2 - b^2 d)
    poly = [Fraction(1), -2 * a, a * a - b * b * d]
    m = lcm(*(c.denominator for c in poly))
    ints = [int(c * m) for c in poly]
    g = gcd(*ints)
    expect(doc["minimal_quadratic"] == [c // g for c in ints], "minimal_quadratic")
    n = p["scale"]
    fl = floor_quad(n * a, n * b, d)
    expect(doc["floor_scaled"] == fl and doc["ceil_scaled"] == fl + 1, "floor/ceil scaled")


def check_beatty(doc: dict, call: dict, values: dict) -> None:
    a, b, d = Fraction(values["alpha_a"]), Fraction(values["alpha_b"]), int(values["alpha_d"])
    n_max, bins = call["params"]["n_max"], call["params"]["bins"]
    expect_quad(doc["alpha"], (a, b), d, "alpha")
    rep = doc["report"]
    ones = floor_quad((n_max + 1) * a, (n_max + 1) * b, d) - floor_quad(a, b, d)
    expect(rep["n_max"] == n_max, "n_max")
    expect(rep["sigma2_count"] == ones and rep["sigma1_count"] == n_max - ones, "sigma counts")
    expect(rep["low_value"] == 0 and rep["high_value"] == 1, "sigma values")
    expect(Fraction(rep["sigma2_density"]) == Fraction(ones, n_max), "density")
    gap = (Fraction(ones, n_max) - a, -b)
    if sign_quad(gap[0], gap[1], d) < 0:
        gap = (-gap[0], -gap[1])
    expect_quad(doc["density_gap"], gap, d, "density_gap")
    w = doc["window_constant"]
    expect(all(0 < g <= w for g in rep["max_gap"].values()), "max_gap within window constant")
    if bins is None:
        expect(rep["histogram"] == [], "no histogram")
    else:
        expect(len(rep["histogram"]) == bins and sum(rep["histogram"]) == n_max, "histogram")


def _check_limits(doc: dict, limits: dict) -> None:
    d = ALPHA[2]
    expect_quad(doc["alpha"], ALPHA[:2], d, "alpha")
    for key, value in limits.items():
        node = doc
        for part in key.split("."):
            node = node[part]
        expect_quad(node, value, d, key)
    expect(doc["cesaro"]["pass"] is True, "cesaro pass for the derived pair")
    exists = limits["sigma_limits.0"] == limits["sigma_limits.1"]
    expect(doc["limit_exists"] is exists, "limit_exists")


def check_limits_bundled(doc: dict, call: dict, values: dict) -> None:
    derived = derived_limits(BUNDLED_TABLE)
    expect(all(derived[k] == BUNDLED_LIMITS[k] for k in derived), "oracle disagrees with constants")
    _check_limits(doc, BUNDLED_LIMITS)
    slugs = [f.split()[0] for f in doc["audit_flags"]]
    expect(all(f in slugs for f in BUNDLED_FLAGS), "bundled discrepancy flags")


def check_limits_table(doc: dict, call: dict, values: dict) -> None:
    with open(values["table"], encoding="utf-8") as fh:
        table = table_of(json.load(fh))
    _check_limits(doc, derived_limits(table))
    bundled = growth_polys(table)[0] == growth_polys(BUNDLED_TABLE)[0]
    expect(bool(doc["reference_sigma_limits"]) is bundled, "reference audit applies only to the bundled cubic")


def check_monomial(doc: dict, call: dict, values: dict) -> None:
    with open(values["sigma"], encoding="utf-8") as fh:
        sigma = json.load(fh)
    p = call["params"]
    rows = doc["rows"]
    expect(doc["n_max"] == p["n_max"] and len(rows) == p["n_max"], "row count")
    for row in rows:
        n = row["n"]
        want = sigma[n - 1] + 2
        expect(row["count"] == want and row["expected"] == want and row["ok"] is True, f"count at n={n}")
    expect(doc["all_ok"] is True, "all_ok")
    filt = doc["filtration"]
    m = p["filtration_max"]
    expect(filt["m_max"] == m and filt["n_max"] == m, "filtration range")
    expect(filt["ok"] is True and filt["failures"] == [], "filtration containment")


def check_elliptic(doc: dict, call: dict, values: dict) -> None:
    p = call["params"]
    w, qn, res = doc["witness"], doc["qn"], doc["restriction"]
    expect(w["passed"] is True, "witness passed")
    expect(w["certified_infinite"] is (p["field"] == "Q"), "witness certification")
    expect(qn["n_max"] == p["n_max"], "qn n_max")
    expect(qn["all_distinct"] is True and qn["q_hits"] == [1] and qn["avoids_q"] is True, "qn verdicts")
    expect(res["max_n"] == p["restriction_max"] and res["all_trivial"] is True, "restriction")
    expect(not any(f.startswith("discrepancy:") for f in doc["audit_flags"]), "discrepancy flags")


JSON_CHECKS = {
    "quad": check_quad,
    "beatty": check_beatty,
    "limits-bundled": check_limits_bundled,
    "limits-table": check_limits_table,
    "monomial": check_monomial,
    "elliptic": check_elliptic,
}


def check_call(call: dict, values: dict) -> str | None:
    try:
        if call["name"] == "scan":
            check_scan(call, values)
        else:
            with open(call["out"], encoding="utf-8") as fh:
                doc = json.load(fh)
            JSON_CHECKS[call["name"]](doc, call, values)
    except CheckFailed as exc:
        return f"check failed: {exc}"
    except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {type(exc).__name__}: {exc}"
    return None


def main(argv: list) -> int:
    with open(argv[0], encoding="utf-8") as fh:
        job = json.load(fh)
    verdicts = [check_call(call, job["values"]) for call in job["calls"]]
    with open(argv[1], "w", encoding="utf-8") as fh:
        json.dump(verdicts, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

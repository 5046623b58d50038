"""Workload definitions and seeded input generation (stdlib only).

A workload is an ordered list of CLI calls; one pass runs them all in one
fresh child process.  Every seeded input is generated here and written to
disk, so the program only ever sees the generated documents.  The amount of
work does not depend on the seed: sizes are fixed, and the sigma table is a
seeded permutation of fixed per-block multisets.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import isqrt
from pathlib import Path

# -- calls ------------------------------------------------------------------


@dataclass(frozen=True)
class Call:
    """One CLI invocation.

    `argv` may hold the placeholders {alpha_a}, {alpha_b}, {alpha_d},
    {table}, {sigma} and {curve}; a value that may be negative is joined to
    its option with `=` so that argparse does not read it as an option.
    `--out` (and `--summary-out` when
    `summary` is set) are appended per pass.  `expect` is the exit status a
    correct program returns.
    """

    name: str
    argv: tuple
    expect: int = 0
    summary: bool = False
    params: dict = field(default_factory=dict)


SCAN_SPARSE = Call(
    "scan",
    ("example-scan", "--n-max", "1000000", "--stride", "1000", "--checkpoint", "500000"),
    summary=True,
    params={"n_max": 1_000_000, "stride": 1000, "checkpoints": [500_000]},
)
SCAN_DENSE = Call(
    "scan",
    ("example-scan", "--n-max", "100000", "--stride", "1"),
    summary=True,
    params={"n_max": 100_000, "stride": 1, "checkpoints": []},
)
ELLIPTIC_README = Call(
    "elliptic",
    ("elliptic-qn", "--n-max", "200", "--restriction-max", "50"),
    params={"n_max": 200, "restriction_max": 50, "field": "Q"},
)
ELLIPTIC_DEFAULT = Call(
    "elliptic",
    ("elliptic-qn",),
    params={"n_max": 60, "restriction_max": 50, "field": "Q"},
)
FP_N_MAX = 2000
ELLIPTIC_FP = Call(
    "elliptic",
    ("elliptic-qn", "--curve", "{curve}", "--n-max", str(FP_N_MAX), "--restriction-max", "50"),
    params={"n_max": FP_N_MAX, "restriction_max": 50, "field": "Fp"},
)
BEATTY_N_MAX = 1_000_000
MONOMIAL_N_MAX = 100
FILTRATION_MAX = 30

AUDIT_MIX = (
    Call(
        "quad",
        ("quad-eval", "--a", "9/26", "--b", "1/26", "--d", "3", "--scale", "1000"),
        params={"a": "9/26", "b": "1/26", "d": 3, "scale": 1000},
    ),
    Call(
        "beatty",
        ("beatty-scan", "--n-max", str(BEATTY_N_MAX),
         "--alpha-a={alpha_a}", "--alpha-b={alpha_b}", "--alpha-d={alpha_d}"),
        params={"n_max": BEATTY_N_MAX, "bins": None},
    ),
    Call(
        "beatty",
        ("beatty-scan", "--n-max", str(BEATTY_N_MAX), "--bins", "10",
         "--alpha-a={alpha_a}", "--alpha-b={alpha_b}", "--alpha-d={alpha_d}"),
        params={"n_max": BEATTY_N_MAX, "bins": 10},
    ),
    Call("limits-bundled", ("example-limits",)),
    Call("limits-bundled", ("example-limits", "--strict"), expect=1),
    Call("limits-table", ("example-limits", "--table", "{table}")),
    Call(
        "monomial",
        ("monomial-check", "--sigma", "{sigma}", "--n-max", str(MONOMIAL_N_MAX),
         "--filtration-max", str(FILTRATION_MAX)),
        params={"n_max": MONOMIAL_N_MAX, "filtration_max": FILTRATION_MAX},
    ),
)

WORKLOADS = {
    # The README workloads, one by one (`--workload all` runs these four).
    "scan-sparse": (SCAN_SPARSE,),
    "scan-dense": (SCAN_DENSE,),
    "audit-mix": AUDIT_MIX,
    # BENCHMARK.json does not list this one while its `--n-max 200` call
    # fails (see perfbench/SPEC.md).
    "elliptic": (ELLIPTIC_README, ELLIPTIC_DEFAULT, ELLIPTIC_FP),
    # The workloads BENCHMARK.json gates: the same calls in two workloads
    # rather than four, so that within the same total time every run is
    # longer and averages over more of the shared host's drift.  `audit` is
    # `audit-mix` plus the passing calls of `elliptic`.
    "scan": (SCAN_SPARSE, SCAN_DENSE),
    "audit": AUDIT_MIX + (ELLIPTIC_DEFAULT, ELLIPTIC_FP),
}
README_WORKLOADS = ("scan-sparse", "scan-dense", "audit-mix", "elliptic")


# -- seeded inputs ------------------------------------------------------------

_SQUAREFREE = (2, 3, 5, 6, 7, 10, 11, 13)


def _beatty_alpha(rng: random.Random) -> tuple[str, str, int]:
    """(a + b sqrt(d)) / c in (1/4, 3/4); coefficients near the bundled 9/26, 1/26."""
    d = rng.choice(_SQUAREFREE)
    c = rng.randint(20, 32)
    b = rng.randint(1, 2)
    s = isqrt(b * b * d)  # floor(b sqrt(d)); b sqrt(d) is irrational
    lo = c // 4 - s
    # a + s < a + b sqrt(d) < a + s + 1, so these bounds put alpha in (1/4, 3/4)
    choices = [a for a in range(lo, lo + c) if c < 4 * (a + s) and 4 * (a + s + 1) < 3 * c]
    a = rng.choice(choices)
    return str(Fraction(a, c)), str(Fraction(b, c)), d


# Rows of the bundled table, with the range each seeded value is drawn from.
_TABLE_ROWS = (
    (("S", "S", "S"), 300, 600),
    (("S", "S", "F"), -250, -80),
    (("S", "F", "F"), 20, 100),
    (("F", "F", "F"), 20, 100),
    (("S", "S", "K"), -900, -600),
    (("S", "F", "K"), 200, 350),
    (("F", "F", "K"), -250, -100),
)


def _table(rng: random.Random) -> dict:
    return {
        "generators": ["S", "F", "K"],
        "triples": [{"d": list(d), "v": str(rng.randint(lo, hi))} for d, lo, hi in _TABLE_ROWS],
    }


# sigma(1..30) feeds every generator pair of the filtration check, sigma(31..60)
# only the target ideals, sigma(61..100) only the count rows.  Each block is a
# fixed multiset; permuting within a block keeps the pair count
# sum_{m <= n <= 30} (sigma(m)+2)(sigma(n)+2) fixed, because it is symmetric.
_SIGMA_BASE = tuple(1 + (17 * k + 5) % 60 for k in range(MONOMIAL_N_MAX))
_SIGMA_BLOCKS = ((0, FILTRATION_MAX), (FILTRATION_MAX, 2 * FILTRATION_MAX), (2 * FILTRATION_MAX, MONOMIAL_N_MAX))


def _sigma(rng: random.Random) -> list:
    out = []
    for lo, hi in _SIGMA_BLOCKS:
        block = list(_SIGMA_BASE[lo:hi])
        rng.shuffle(block)
        out.extend(block)
    return out


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17):  # deterministic below 3.4e14
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _fp_add(P, Q, a, p):
    """Affine group law on y^2 = x^3 + a x + b over F_p; None is the identity."""
    if P is None:
        return Q
    if Q is None:
        return P
    if P[0] == Q[0]:
        if (P[1] + Q[1]) % p == 0:
            return None
        lam = (3 * P[0] * P[0] + a) * pow(2 * P[1], -1, p) % p
    else:
        lam = (Q[1] - P[1]) * pow(Q[0] - P[0], -1, p) % p
    x = (lam * lam - P[0] - Q[0]) % p
    return x, (lam * (P[0] - x) - P[1]) % p


def _fp_curve(rng: random.Random) -> dict:
    """A curve over F_p (p = 3 mod 4, about 1e6) with p = O and a point q
    whose order exceeds FP_N_MAX, so the q_n are distinct and avoid q."""
    p = rng.randrange(1_000_000, 2_000_000)
    while not (p % 4 == 3 and _is_prime(p)):
        p += 1
    while True:
        a, b = rng.randrange(p), rng.randrange(p)
        if (4 * a**3 + 27 * b * b) % p == 0:
            continue
        x = rng.randrange(p)
        rhs = (x**3 + a * x + b) % p
        y = pow(rhs, (p + 1) // 4, p)
        if y == 0 or y * y % p != rhs:
            continue
        q, acc = (x, y), None
        for _ in range(FP_N_MAX):
            acc = _fp_add(acc, q, a, p)
            if acc is None:
                break
        else:
            return {
                "field": {"p": p},
                "A": str(a),
                "B": str(b),
                "points": {"p": "O", "q": {"x": str(x), "y": str(y)}},
            }


def make_inputs(seed: int, directory: Path) -> dict:
    """Generate every seeded input, write the documents under `directory`
    and return the placeholder values (document paths relative to the cwd)."""
    alpha_a, alpha_b, alpha_d = _beatty_alpha(random.Random(f"{seed}:alpha"))
    docs = {
        "table": _table(random.Random(f"{seed}:table")),
        "sigma": _sigma(random.Random(f"{seed}:sigma")),
        "curve": _fp_curve(random.Random(f"{seed}:curve")),
    }
    directory.mkdir(parents=True, exist_ok=True)
    values = {"alpha_a": alpha_a, "alpha_b": alpha_b, "alpha_d": str(alpha_d)}
    for name, doc in docs.items():
        path = directory / f"{name}.json"
        path.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
        values[name] = str(path)
    return values


def resolve(call: Call, values: dict) -> list:
    return [arg.format(**values) if "{" in arg else arg for arg in call.argv]

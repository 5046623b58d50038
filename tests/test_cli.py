"""CLI tests: determinism (byte-identical reruns), exit codes, schema
conformance of every report, and ingestion of the documented input files."""

import argparse
import ast
import hashlib
import json
import os
import resource
import subprocess
import sys
import tracemalloc
from decimal import Decimal
from fractions import Fraction
from math import isqrt
from importlib import resources

import jsonschema
import pytest
import referencing

from divfilt import asymptotics, beatty, cli, picard
from divfilt.cli import main
from divfilt.quadfield import ParameterError, _without_digit_limit


def run_cli(capsys, *argv) -> tuple[int, str]:
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


SCHEMAS = {
    path.name: json.loads(path.read_text())
    for path in resources.files("divfilt").joinpath("schemas").iterdir()
}
# the schemas refer to one another by `$id`, so each validator resolves through one registry
REGISTRY = referencing.Registry().with_contents((doc["$id"], doc) for doc in SCHEMAS.values())


def validate(doc, schema_name: str) -> None:
    jsonschema.Draft202012Validator(SCHEMAS[schema_name], registry=REGISTRY).validate(doc)


# -- determinism -------------------------------------------------------------------


COMMANDS = [
    ("quad-eval", "--a", "9/26", "--b", "1/26", "--d", "3", "--scale", "7"),
    ("beatty-scan", "--n-max", "20000", "--bins", "5"),
    ("example-limits",),
    ("example-scan", "--n-max", "500", "--stride", "50", "--checkpoint", "250"),
    ("monomial-check", "--n-max", "12", "--filtration-max", "6"),
    ("elliptic-qn", "--n-max", "40", "--restriction-max", "10"),
]


@pytest.mark.parametrize("argv", COMMANDS, ids=lambda a: a[0])
def test_byte_identical_reruns(capsys, argv):
    code1, out1 = run_cli(capsys, *argv)
    code2, out2 = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    assert out1.encode() == out2.encode()
    assert out1  # nonempty artifact


def test_out_file_matches_stdout(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out = run_cli(capsys, "example-limits", "--digits", "10")
    code2, _ = run_cli(capsys, "example-limits", "--digits", "10", "--out", str(target))
    assert code == code2 == 0
    assert target.read_bytes() == out.encode()


def test_module_entrypoint_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "divfilt", "quad-eval", "--a", "1", "--b", "1", "--d", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["value"]["decimal"].startswith("2.414213562373095")


def test_import_builds_no_parser():
    code = (
        "import argparse\n"
        "calls = []\n"
        "argparse.ArgumentParser.add_subparsers = lambda *a, **k: calls.append(a)\n"
        "import divfilt.cli\n"
        "assert calls == [], calls\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_start_up_loads_no_code_generation_or_resource_chain():
    # a one-shot call pays for every module it imports, so start-up must not
    # load these; -S keeps the interpreter's site hooks out of the count
    code = (
        "import sys\n"
        "import divfilt.cli\n"
        "from divfilt import asymptotics\n"
        "asymptotics.example_model()\n"
        "print(sorted({'dataclasses', 'inspect', 'typing', 'importlib.resources', 'pathlib'}"
        " & set(sys.modules)))\n"
    )
    env = {**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))}
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "[]\n", "")


def test_shared_parser_keeps_no_state_between_calls(capsys, tmp_path, monkeypatch):
    built = []
    add_subparsers = argparse.ArgumentParser.add_subparsers

    def counted(self, *args, **kwargs):
        built.append(self)
        return add_subparsers(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "add_subparsers", counted)
    summary = tmp_path / "summary.json"
    scan = ("example-scan", "--n-max", "20", "--summary-out", str(summary))
    assert run_cli(capsys, *scan, "--checkpoint", "5", "--checkpoint", "7")[0] == 0
    assert json.loads(summary.read_text())["checkpoint_max"] == {"5": "291/4", "7": "291/4"}
    assert run_cli(capsys, *scan)[0] == 0
    assert json.loads(summary.read_text())["checkpoint_max"] == {}  # no append carried over
    calls = [
        ("monomial-check", "--n-max", "8", "--filtration-max", "4"),
        ("monomial-check", "--n-max", "8"),
        ("example-limits", "--strict"),
        ("example-limits",),
    ]
    first = [run_cli(capsys, *argv) for argv in calls]
    assert [run_cli(capsys, *argv) for argv in calls] == first
    assert [code for code, _ in first] == [0, 0, 1, 0]
    assert "filtration" in json.loads(first[0][1]) and "filtration" not in json.loads(first[1][1])
    assert len(built) <= 1


# sha256 of the CSV and of --summary-out.  The CSVs were recorded before the
# scan kernel became a single integer pass; the summaries were re-recorded
# when the sampled remainder slope gave way to the envelope bound
# `remainder_bound`, every other summary field unchanged
SCAN_BYTES = [
    (
        ("--n-max", "2000", "--stride", "100", "--checkpoint", "1000"),
        "98fd85596784e788b337aa3b5d14c20672529922cec0438fc0bcd3a21e1c74f8",
        "c1c8e88982e848692d73149557b560499b66a8f997d045a712d4688a578a46ef",
    ),
    (
        ("--n-max", "777", "--stride", "5")
        + ("--checkpoint", "3", "--checkpoint", "400", "--checkpoint", "776"),
        "497f4821ff6f77bb0e86a29ba1b01ead3d80d45ee3e099c81ae4358d4110b98b",
        "31def410098153c6c46bdaa83035cec212d92a15b8cb7b2e106fcf0819c268de",
    ),
    (
        ("--n-max", "5000", "--stride", "13", "--checkpoint", "2500"),
        "68714fafb3f6055c9571735e3b82f55ec2a1f472f3f2d356ce0f9355d85b1f82",
        "e4a2ed3e412ed71a6d97fb3535c60291b47be8189c6be5e00c8ad849a2f0430b",
    ),
    (
        ("--n-max", "10", "--stride", "1"),
        "544f34c6504b94cce8b0143e5785adf3dcd12a176bc5e11f648218f92881cac0",
        "ae9602a8a0c4640571f01f319d6b52a65ed0b6225087ef25db1d40d8e9ff2b99",
    ),
    # the two calls of the benchmark's `scan` workload, recorded before the
    # summary came from head/tail windows instead of a per-index pass
    (
        ("--n-max", "1000000", "--stride", "1000", "--checkpoint", "500000"),
        "96d3eec41e73e39e0c547195b2b7d6b22af23db35d03423a771669fd3f9383ca",
        "ac49ee7c3e23ce34d82ca834e1285aa015df436792c655ae35e385f0d4c63f4a",
    ),
    (
        ("--n-max", "100000", "--stride", "1"),
        "3a05a0ccb65f2c2922b372e5ea7342705b5ca6005706e25c5dbbb8fab6dfaa07",
        "3aeb335d744ac16b76c86ab5b78cd2c23fa4364e4c4fb9b7a914bfb0a943cfac",
    ),
    # the README's summary scale, where the head and tail windows double
    # many times before they settle
    (
        ("--n-max", "1000000000", "--stride", "100000000"),
        "05f1596e0c95df291d28df1505af56e11696e740d9d6b71c3ea03121cba3285a",
        "42898c07425df1c7176d75c4d254610bcc815ff9ca995ab73460e8377671bdc2",
    ),
]


@pytest.mark.parametrize(
    "argv,csv_sha,summary_sha", SCAN_BYTES, ids=[f"n{argv[1]}" for argv, _, _ in SCAN_BYTES]
)
def test_example_scan_bytes_pinned(tmp_path, argv, csv_sha, summary_sha):
    csv, summary = tmp_path / "scan.csv", tmp_path / "summary.json"
    assert main(["example-scan", *argv, "--out", str(csv), "--summary-out", str(summary)]) == 0
    assert hashlib.sha256(csv.read_bytes()).hexdigest() == csv_sha
    assert hashlib.sha256(summary.read_bytes()).hexdigest() == summary_sha


@pytest.mark.parametrize("digits", [5000, 10_000])
def test_example_scan_decimals_beyond_int_digit_limit(tmp_path, digits):
    # every decimal has more than the default 4300 digits; each must match
    # round() on the row's exact ratio, rendered with the limit lifted
    csv = tmp_path / "scan.csv"
    limit = sys.get_int_max_str_digits()
    assert main(["example-scan", "--n-max", "12", "--digits", str(digits), "--out", str(csv)]) == 0
    assert sys.get_int_max_str_digits() == limit
    _, *rows = csv.read_text().splitlines()
    assert len(rows) == 12
    sys.set_int_max_str_digits(0)
    try:
        for row in rows:
            n, _, _, delta, decimal = row.split(",")
            m = round(Fraction(delta) / int(n) ** 2 * 10**digits)
            ip, fp = divmod(abs(m), 10**digits)
            assert decimal == f"{'-' if m < 0 else ''}{ip}.{fp:0{digits}d}"
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("n_max", [asymptotics._CHUNK + k for k in (-1, 0, 1)])
def test_example_scan_chunk_boundary(capsys, tmp_path, n_max):
    # stride 1 gives one row per index: one row short of a chunk, exactly
    # one chunk, and one row past it
    csv = tmp_path / "scan.csv"
    code, out = run_cli(capsys, "example-scan", "--n-max", str(n_max), "--stride", "1")
    assert code == 0
    assert main(["example-scan", "--n-max", str(n_max), "--stride", "1", "--out", str(csv)]) == 0
    assert csv.read_bytes() == out.encode()
    lines = out.splitlines(keepends=True)
    assert len(lines) == n_max + 1 and all(line.endswith("\n") for line in lines)
    assert [int(line.split(",", 1)[0]) for line in lines[1:]] == list(range(1, n_max + 1))


def bundled_table_with(change) -> dict:
    """The bundled intersection table with each row value `v` of triple `d`
    replaced by `change(sorted d, v)`."""
    doc = json.loads(resources.files("divfilt").joinpath("data/intersection_table.json").read_text())
    for row in doc["triples"]:
        row["v"] = change(sorted(row["d"]), row["v"])
    return doc


PIN_TABLES = {
    "ffk174.json": bundled_table_with(lambda d, v: "-174" if d == ["F", "F", "K"] else v),
    "doubled.json": bundled_table_with(lambda d, v: v if "K" in d else str(2 * int(v))),
    "otherk.json": bundled_table_with(
        lambda d, v: {"F,K,S": "280", "K,S,S": "-790", "F,F,K": "-170"}.get(",".join(d), v)
    ),
}

# sha256 of `example-limits` reports and of one `example-scan --table` run,
# recorded before the bundled model got its single builder; the bytes must
# never change.  Tables are named by relative paths in the working directory.
LIMITS_BYTES = [
    (
        "default",
        ("example-limits",),
        0,
        "1ab92bd553eec1a95b2b93b6d222c7bbd1dc3e3150c889eb161d4c442646cbe1",
    ),
    (
        "digits60",
        ("example-limits", "--digits", "60"),
        0,
        "ba47f002f12304406b7469d9136ee402f965093fc2907617a61cd504d592d3f2",
    ),
    (
        "strict",
        ("example-limits", "--strict"),
        1,
        "1ab92bd553eec1a95b2b93b6d222c7bbd1dc3e3150c889eb161d4c442646cbe1",
    ),
    (
        "table-ffk174",
        ("example-limits", "--table", "ffk174.json"),
        0,
        "7857240362fa6be19bb84b4e73db3afe923cce8006d305f44da39510bb32f9a2",
    ),
    (
        "table-cubic-doubled",
        ("example-limits", "--table", "doubled.json"),
        0,
        "f2c2f80222533800df5d0558a50ccdbc0ad1789ae40151616dfdc09b38e27e5b",
    ),
    (
        "scan-table-other-k",
        ("example-scan", "--table", "otherk.json", "--n-max", "500", "--stride", "50"),
        0,
        "ac0e0874465b4f0be1d7452a03efe76b566016ca3a81d2286e490a7e02c01795",
    ),
]


@pytest.mark.parametrize(
    "argv,code,sha", [c[1:] for c in LIMITS_BYTES], ids=[c[0] for c in LIMITS_BYTES]
)
def test_example_limits_bytes_pinned(tmp_path, monkeypatch, argv, code, sha):
    monkeypatch.chdir(tmp_path)
    for name, doc in PIN_TABLES.items():
        (tmp_path / name).write_text(json.dumps(doc))
    assert main([*argv, "--out", "report.out"]) == code
    assert hashlib.sha256((tmp_path / "report.out").read_bytes()).hexdigest() == sha


# sha256 of `beatty-scan` reports, recorded from the per-index scan kernel
# before the Beatty layer moved to closed forms; the bytes must never change
SEEDED_ALPHA = ("--alpha-a=3/14", "--alpha-b=1/28", "--alpha-d=6")
TWO_MINUS_SQRT3 = ("--alpha-a=2", "--alpha-b=-1", "--alpha-d=3")
BEATTY_BYTES = [
    (
        "readme",
        ("--n-max", "1000000", "--bins", "10"),
        "6e6a77006f663bd4dd1e0a52aa140334d6bf1bc6a8bd80bea2bfb8f4f7915f91",
    ),
    (
        "seeded",
        ("--n-max", "1000000", *SEEDED_ALPHA),
        "ee87d575e1e5b3e40d08ea3b1646bb51fcd69ca1bf6f0232f67ec52bbb8da999",
    ),
    (
        "seeded-bins10",
        ("--n-max", "1000000", "--bins", "10", *SEEDED_ALPHA),
        "f0f8a41af7548915579553a4d6d6193b4cb747b91c8a04d1b7b106d876f1e9b8",
    ),
    (
        "alpha-above-1-bins7",
        ("--n-max", "30000", "--bins", "7", "--alpha-a=7/2", "--alpha-b=1/3", "--alpha-d=5"),
        "49dec4ec0b12e86708a573683974429a3940c3f2bd34674ed9d2ea00e7504467",
    ),
    (
        "negative-b",
        ("--n-max", "30000", *TWO_MINUS_SQRT3),
        "8bac97275c15e6414dca0f8e3e764c7029ba8d581d2a68c8383435d8b7d49b66",
    ),
    (
        "negative-b-bins3",
        ("--n-max", "30000", "--bins", "3", *TWO_MINUS_SQRT3),
        "b55ae7d690d7b44bd241d1146cd20a1e48381490d34abb804f5cbb38cd390300",
    ),
    (
        "n1-value-absent",
        ("--n-max", "1"),
        "9db8409ef824c1b0f5ea3d58f80a5bd6738bc2bf7153ed0ca73dba77b3382172",
    ),
    (
        "n1-bins2-sqrt2",
        ("--n-max", "1", "--bins", "2", "--alpha-a=0", "--alpha-b=1", "--alpha-d=2"),
        "cf8612050044ff3ff420a6e88d437997cb9bec57388c391531f8e41a0167b227",
    ),
]


@pytest.mark.parametrize("argv,sha", [c[1:] for c in BEATTY_BYTES], ids=[c[0] for c in BEATTY_BYTES])
def test_beatty_scan_bytes_pinned(tmp_path, argv, sha):
    report = tmp_path / "beatty.json"
    assert main(["beatty-scan", *argv, "--out", str(report)]) == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == sha


# sha256 of `monomial-check` and `elliptic-qn` reports.  The elliptic ones
# were recorded before `EllipticCurve.mul` gained its shorter ladder (the
# README's `elliptic-qn` call: before q_n came from division-polynomial
# values); the monomial ones when each row traded its generator list for a
# socle witness, with the `filtration` blocks kept byte for byte.  The bytes
# must never change.  Input documents are written to the working directory
# and named by a relative path, because `monomial-check` echoes its
# `--sigma` path in `sigma_source`.
SEEDED_SIGMA = [1 + (41 * k + 7) % 60 for k in range(100)]
FP_CURVE = {
    "field": {"p": 1505983},
    "A": "400537",
    "B": "1289995",
    "points": {"p": "O", "q": {"x": "235916", "y": "396205"}},
}
# p = -[2]q on the default curve, so p is affine and q_n is one chord step from p
NEG_2Q_CURVE = {
    "field": "Q",
    "A": "0",
    "B": "-2",
    "points": {"p": {"x": "129/100", "y": "383/1000"}, "q": {"x": "3", "y": "5"}},
}
# y^2 = x^3 + 1 with q = (2, 3) of order 6: the pair ladder, with collisions
TORSION_CURVE = {"field": "Q", "A": "0", "B": "1", "points": {"p": "O", "q": {"x": "2", "y": "3"}}}
# q = (0, 10) of order 50 over F_97: the q_n list holds "O" at n = 50 and 100, with collisions
FP_ORDER_50_CURVE = {"field": {"p": 97}, "A": "2", "B": "3", "points": {"p": "O", "q": {"x": "0", "y": "10"}}}
REPORT_BYTES = [
    (
        "monomial-identity",
        ("monomial-check", "--n-max", "20", "--filtration-max", "8"),
        "9c795f7fd1f887b22f1dd75c4cf67e3d07b16bc145ddfc45bd844ce0e5a8d038",
    ),
    (
        "monomial-seeded",
        ("monomial-check", "--sigma", "sigma.json", "--n-max", "100", "--filtration-max", "30"),
        "9fe38adde47dc92b6bd1b07b9b2f5e5cbb4940a3070e74cdd0cca1cf97ac2fc1",
    ),
    (
        "elliptic-default",
        ("elliptic-qn",),
        "345efdb92ca1fd47de7cd70a90c05f3edaf1b591d50de5d96fbacaca80952eb9",
    ),
    (
        "elliptic-n60-r20",
        ("elliptic-qn", "--n-max", "60", "--restriction-max", "20"),
        "343bc7194b01eb76b359e8ebcabb78ee215514773db9c02e5b7c39268b4dc14c",
    ),
    (
        "elliptic-fp",
        ("elliptic-qn", "--curve", "curve.json", "--n-max", "2000", "--restriction-max", "50"),
        "4e861d7820c64a913a3cbec137ce0820a6a3eb12e933d622716ae77b42e5c09c",
    ),
    (
        "elliptic-readme",
        ("elliptic-qn", "--n-max", "200", "--restriction-max", "50"),
        "6992221180750b0ed7ce00c7048b742bd8a40a8be21c565b4e120cdc4c9db4b9",
    ),
    # recorded before the restriction replay read q_n off the sequence
    (
        "elliptic-restriction-past-sequence",
        ("elliptic-qn", "--n-max", "10", "--restriction-max", "30"),
        "34a40d5f0b69e111b0266d4ad4d40265bddca54a2fa43832f1c26c672375225f",
    ),
    (
        "elliptic-affine-p",
        ("elliptic-qn", "--curve", "neg2q.json", "--n-max", "12", "--restriction-max", "12"),
        "323a3337bc1278bc579debdc1c03c8d0dc0163f3fc603a4b0f081e69df27c295",
    ),
    (
        "elliptic-torsion-step",
        ("elliptic-qn", "--curve", "torsion.json", "--n-max", "20", "--restriction-max", "20"),
        "409493899543c16808bf3ae5f5ba12d4263fa74e7bdf8c3d28bba642acff4425",
    ),
    # recorded before the F_p sequence left the generic `E.add` ladder
    (
        "elliptic-fp-order-50",
        ("elliptic-qn", "--curve", "fp97.json", "--n-max", "120", "--restriction-max", "60"),
        "295e7a7130782b9855f57c888c5b12ad56a3eddfc1a0af17cac38594faeb6d0f",
    ),
]


@pytest.mark.parametrize("argv,sha", [c[1:] for c in REPORT_BYTES], ids=[c[0] for c in REPORT_BYTES])
def test_monomial_and_elliptic_bytes_pinned(tmp_path, monkeypatch, argv, sha):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "sigma.json").write_text(json.dumps(SEEDED_SIGMA))
    (tmp_path / "curve.json").write_text(json.dumps(FP_CURVE))
    (tmp_path / "neg2q.json").write_text(json.dumps(NEG_2Q_CURVE))
    (tmp_path / "torsion.json").write_text(json.dumps(TORSION_CURVE))
    (tmp_path / "fp97.json").write_text(json.dumps(FP_ORDER_50_CURVE))
    assert main([*argv, "--out", "report.json"]) == 0
    assert hashlib.sha256((tmp_path / "report.json").read_bytes()).hexdigest() == sha


# -- schema conformance ----------------------------------------------------------


def test_quad_eval_schema(capsys):
    _, out = run_cli(capsys, "quad-eval", "--a", "-5", "--b", "3", "--d", "3", "--scale", "2")
    validate(json.loads(out), "quad_eval_report.schema.json")


def test_beatty_schema(capsys):
    _, out = run_cli(capsys, "beatty-scan", "--n-max", "500", "--bins", "3")
    doc = json.loads(out)
    validate(doc, "beatty_report.schema.json")
    assert sum(doc["report"]["histogram"]) == 500


def test_limit_report_schema(capsys):
    _, out = run_cli(capsys, "example-limits")
    doc = json.loads(out)
    validate(doc, "limit_report.schema.json")
    assert doc["cubic_limit"]["a"] == "12042/169"
    assert doc["cubic_limit"]["b"] == "-27/169"
    assert doc["multiplicity"]["a"] == "72252/169"
    assert doc["multiplicity"]["b"] == "-162/169"


def test_scan_summary_schema(capsys, tmp_path):
    summary = tmp_path / "summary.json"
    code, out = run_cli(
        capsys,
        "example-scan",
        "--n-max",
        "200",
        "--stride",
        "20",
        "--summary-out",
        str(summary),
    )
    assert code == 0
    doc = json.loads(summary.read_text())
    validate(doc, "scan_summary.schema.json")
    header, *rows = out.strip().split("\n")
    assert header == "n,sigma,ceil_alpha_n,delta_exact,delta_over_n2_decimal"
    assert rows[0].startswith("1,0,1,291/4,72.75")
    assert all(len(r.split(",")) == 5 for r in rows)


def test_monomial_schema(capsys):
    _, out = run_cli(capsys, "monomial-check", "--n-max", "8")
    doc = json.loads(out)
    validate(doc, "monomial_report.schema.json")
    assert doc["all_ok"]


def test_elliptic_schema(capsys):
    _, out = run_cli(capsys, "elliptic-qn", "--n-max", "12", "--restriction-max", "4")
    doc = json.loads(out)
    validate(doc, "elliptic_report.schema.json")
    assert doc["qn"]["all_distinct"] and doc["restriction"]["all_trivial"]
    assert doc["witness"]["certified_infinite"]


def test_elliptic_qn_beyond_int_digit_limit(capsys):
    # n-max 70 is the smallest run whose exact coordinates pass 4300 digits
    code, out = run_cli(capsys, "elliptic-qn", "--n-max", "70", "--restriction-max", "2")
    assert code == 0
    doc = json.loads(out)
    validate(doc, "elliptic_report.schema.json")
    assert doc["qn"]["all_distinct"]
    assert max(len(p["x"]) for p in doc["qn"]["points"] if isinstance(p, dict)) > 4300


def loads_any_size(text: str):
    """json.loads with the int-from-str digit limit lifted for this call only."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return json.loads(text)
    finally:
        sys.set_int_max_str_digits(limit)


def test_quad_eval_reports_integers_past_the_digit_limit(capsys):
    # a^2 has about 1.2 times the limit in digits; the report holds it in full
    limit = sys.get_int_max_str_digits()
    a = 10 ** (limit * 6 // 10) - 1
    code, out = run_cli(capsys, "quad-eval", "--a", str(a), "--b", "1", "--d", "2")
    assert code == 0 and sys.get_int_max_str_digits() == limit
    assert loads_any_size(out)["minimal_quadratic"] == [1, -2 * a, a * a - 2]


def test_quad_eval_scale_past_the_digit_limit(capsys):
    limit = sys.get_int_max_str_digits()
    n = 10**limit - 1
    code, out = run_cli(capsys, "quad-eval", "--a", "100", "--b", "1", "--d", "2", "--scale", str(n))
    assert code == 0 and sys.get_int_max_str_digits() == limit
    doc = loads_any_size(out)
    assert doc["floor_scaled"] == 100 * n + isqrt(2 * n * n)
    assert doc["ceil_scaled"] == doc["floor_scaled"] + 1


def test_bundled_table_matches_schema():
    doc = json.loads(
        resources.files("divfilt").joinpath("data/intersection_table.json").read_text()
    )
    validate(doc, "intersection_table.schema.json")


def inlined(node, resolver):
    """`node` with every `$ref` replaced by its target and `$defs` dropped; a
    whole-file target loses its `$id`, `$schema` and `title` annotations."""
    if isinstance(node, list):
        return [inlined(child, resolver) for child in node]
    if not isinstance(node, dict):
        return node
    if "$ref" in node:
        found = resolver.lookup(node["$ref"])
        body = {k: v for k, v in found.contents.items() if k not in ("$id", "$schema", "title")}
        return inlined(body, found.resolver)
    return {k: inlined(v, resolver) for k, v in node.items() if k != "$defs"}


def test_schemas_are_valid_resolve_and_accept_the_input_documents():
    for doc in SCHEMAS.values():
        jsonschema.Draft202012Validator.check_schema(doc)
        inlined(doc, REGISTRY.resolver(doc["$id"]))  # raises if a $ref does not resolve
    E, p, q = picard.default_curve()
    for curve in (NEG_2Q_CURVE, TORSION_CURVE, FP_CURVE, FP_ORDER_50_CURVE,
                  picard.curve_to_json(E, {"p": p, "q": q})):
        validate(curve, "curve.schema.json")
    for sigma in (SEEDED_SIGMA, [5, 1, 7], [1]):
        validate(sigma, "sigma_table.schema.json")


ELLIPTIC = ("elliptic-qn", "--n-max", "3", "--restriction-max", "1", "--out")
QUAD_EVAL = ("quad-eval", "--a", "1", "--b", "1", "--d", "2", "--out")


# one malformed report per shared definition: (argv up to the report path, schema,
# path to the bad block, edit)
MALFORMED = {
    "rational": (QUAD_EVAL, "quad_eval_report", ("value",), lambda value: value.update(a="0.5")),
    "quad_value": (QUAD_EVAL, "quad_eval_report", ("value",), lambda value: value.update(decimal="1,5")),
    "point": (ELLIPTIC, "elliptic_report", ("qn", "points", 0), lambda point: point.update(z="0")),
    "sigma_stats": (("example-scan", "--n-max", "20", "--summary-out"), "scan_summary",
                    ("per_sigma", "1"), lambda stats: stats.pop("count")),
    "curve": (ELLIPTIC, "elliptic_report", ("curve",), lambda curve: curve.pop("A")),
    "filtration": (("monomial-check", "--n-max", "2", "--filtration-max", "1", "--out"),
                   "monomial_report", ("filtration",), lambda filtration: filtration.pop("ok")),
    # a torsion step, so the real report has collisions to validate
    "collision": (("elliptic-qn", "--curve", "{torsion}", "--n-max", "12", "--out"),
                  "elliptic_report", ("qn", "collisions", 0), lambda pair: pair.append(13)),
}


@pytest.mark.parametrize("argv,name,path,edit", MALFORMED.values(), ids=MALFORMED)
def test_schemas_reject_a_malformed_report(tmp_path, argv, name, path, edit):
    report, torsion = tmp_path / "report.json", tmp_path / "torsion.json"
    torsion.write_text(json.dumps(TORSION_CURVE))
    assert main([*(a.format(torsion=torsion) for a in argv), str(report)]) == 0
    doc = json.loads(report.read_text())
    validate(doc, f"{name}.schema.json")
    block = doc
    for key in path:
        block = block[key]
    edit(block)
    with pytest.raises(jsonschema.ValidationError) as err:
        validate(doc, f"{name}.schema.json")
    assert tuple(err.value.absolute_path)[: len(path)] == path


def test_restriction_failure_matches_the_schema(capsys, monkeypatch):
    multiples = picard._multiples

    def x_off_by_one_at_level_3(*args, **kwargs):
        out = multiples(*args, **kwargs)
        x, *rest = out[2]
        out[2] = (x + 1, *rest)
        return out

    monkeypatch.setattr(picard, "_multiples", x_off_by_one_at_level_3)
    _, out = run_cli(capsys, "elliptic-qn", "--n-max", "12", "--restriction-max", "6")
    doc = json.loads(out)
    assert [failure["n"] for failure in doc["restriction"]["failures"]] == [3]
    validate(doc, "elliptic_report.schema.json")
    assert doc["restriction"]["failures"] == [{
        "n": 3,
        "qn": {"x": "164324/29241", "y": "-66234835/5000211"},
        "assembled": {"degree": 0, "point": {"x": "923590182609487/1539",
                                             "y": "-2324606047383083273608265/5000211"}},
        "trivial": False,
    }]


def test_restriction_failure_on_the_ledger_path_keeps_its_bytes(capsys, tmp_path, monkeypatch):
    # over F_97 the sequence is the pair ladder and the ledger is E.add's
    # double-and-add: a wrong step [10]q + q breaks q_11 onward, the ledger
    # recovers at [12]q = [2]([6]q), and each failing level renders its q_n
    # and its class (0, ledger - q_n)
    Ep = picard.EllipticCurve(2, 3, 97)
    q = Ep.check(picard.CurvePoint(0, 10))
    q10, wrong = Ep.mul(10, q), Ep.mul(22, q)
    pair_add = picard._pair_add

    def perturbed(E, P, Q):
        return (wrong.x, wrong.y) if (P, Q) == ((q10.x, q10.y), (q.x, q.y)) else pair_add(E, P, Q)

    path = tmp_path / "curve.json"
    path.write_text(json.dumps(FP_ORDER_50_CURVE))
    monkeypatch.setattr(picard, "_pair_add", perturbed)
    _, out = run_cli(capsys, "elliptic-qn", "--curve", str(path), "--n-max", "15", "--restriction-max", "15")
    doc = json.loads(out)
    validate(doc, "elliptic_report.schema.json")
    qns = {12: ("49", "34"), 13: ("24", "2"), 14: ("30", "0"), 15: ("24", "95")}
    assert doc["restriction"]["failures"] == [
        {"n": n, "qn": {"x": x, "y": y}, "assembled": {"degree": 0, "point": {"x": "17", "y": "10"}},
         "trivial": False}
        for n, (x, y) in qns.items()
    ]


def subschemas(node, path=()):
    yield path, node
    children = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    for key, child in children:
        yield from subschemas(child, (*path, key))


def test_no_schema_inlines_a_shared_definition():
    # a definition is a whole schema file or a `$defs` entry; every other use is a `$ref`
    refs = [doc["$id"] for doc in SCHEMAS.values()]
    refs += [f"{doc['$id']}#/$defs/{key}" for doc in SCHEMAS.values() for key in doc.get("$defs", ())]
    shared = {ref: inlined({"$ref": ref}, REGISTRY.resolver()) for ref in refs}
    copies = []
    for name, doc in SCHEMAS.items():
        resolver = REGISTRY.resolver(doc["$id"])
        for path, node in subschemas(doc):
            if isinstance(node, dict) and "$ref" not in node and path[:-1] != ("$defs",):
                body = inlined(node, resolver)
                copies += [(name, path, ref) for ref, shape in shared.items() if body == shape]
    assert copies == []


# -- ingestion ---------------------------------------------------------------------


def test_table_ingestion(capsys, tmp_path):
    table = {
        "generators": ["S", "F", "K"],
        "triples": [
            {"d": ["S", "S", "S"], "v": "468"},
            {"d": ["S", "S", "F"], "v": "-162"},
            {"d": ["S", "F", "F"], "v": "54"},
            {"d": ["F", "F", "F"], "v": "54"},
            {"d": ["S", "S", "K"], "v": "-792"},
            {"d": ["S", "F", "K"], "v": "282"},
            {"d": ["F", "F", "K"], "v": "-175"},
        ],
    }
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out = run_cli(capsys, "example-limits", "--table", str(path))
    assert code == 0
    assert json.loads(out)["cubic_limit"]["a"] == "12042/169"


def test_table_with_other_k_rows_gets_no_reference_audit(capsys, tmp_path):
    table = json.loads(
        resources.files("divfilt").joinpath("data/intersection_table.json").read_text()
    )
    table["triples"][-1]["v"] = "-174"  # the F.F.K row; the cubic rows stay bundled
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table))
    code, out = run_cli(capsys, "example-limits", "--strict", "--table", str(path))
    doc = json.loads(out)
    assert code == 0
    assert doc["cubic_limit"]["a"] == "12042/169"
    assert doc["reference_sigma_limits"] == {} and doc["audit_flags"] == []


def test_sigma_ingestion(capsys, tmp_path):
    path = tmp_path / "sigma.json"
    path.write_text("[5, 1, 7]")
    code, out = run_cli(capsys, "monomial-check", "--sigma", str(path), "--n-max", "3")
    assert code == 0
    doc = json.loads(out)
    assert [r["count"] for r in doc["rows"]] == [7, 3, 9]


def test_curve_ingestion(capsys, tmp_path):
    path = tmp_path / "curve.json"
    path.write_text(
        json.dumps(
            {
                "field": "Q",
                "A": "-1",
                "B": "0",
                "points": {"p": "O", "q": {"x": "0", "y": "0"}},
            }
        )
    )
    code, out = run_cli(
        capsys, "elliptic-qn", "--curve", str(path), "--n-max", "6", "--restriction-max", "2"
    )
    doc = json.loads(out)
    assert code == 0
    assert not doc["qn"]["all_distinct"]  # 2-torsion step point
    assert doc["qn"]["collisions_certified"]
    assert not doc["witness"]["passed"]
    assert any(f.startswith("discrepancy:torsion-step") for f in doc["audit_flags"])


def test_identity_sigma_covers_the_filtration_check(capsys):
    # the filtration check reads sigma up to 2 * --filtration-max, beyond 2 * --n-max
    code, out = run_cli(capsys, "monomial-check", "--n-max", "5", "--filtration-max", "10")
    assert code == 0
    doc = json.loads(out)
    assert [r["count"] for r in doc["rows"]] == [3, 4, 5, 6, 7]
    assert doc["filtration"]["ok"] and doc["all_ok"]


@pytest.mark.parametrize(
    "field,a,b,point",
    [("Q", "0", "-2", {"x": "3", "y": "5"}), ({"p": 1505983}, "400537", "1289995", "O")],
    ids=["Q", "F_p"],
)
def test_curve_with_equal_base_points_exits_three(capsys, tmp_path, field, a, b, point):
    path = tmp_path / "curve.json"
    path.write_text(json.dumps({"field": field, "A": a, "B": b, "points": {"p": point, "q": point}}))
    assert main(["elliptic-qn", "--curve", str(path)]) == 3
    err = capsys.readouterr().err
    assert err.startswith("divfilt: ingestion error:") and "'p' and 'q'" in err


def test_composite_field_modulus_exits_three(capsys, tmp_path):
    # psi_12 = 399165290221 * 798330580441, the least strong pseudoprime to the bases 2..37
    path = tmp_path / "curve.json"
    path.write_text(
        json.dumps(
            {
                "field": {"p": 318665857834031151167461},
                "A": "0",
                "B": "1",
                "points": {"p": "O", "q": {"x": "0", "y": "1"}},
            }
        )
    )
    assert main(["elliptic-qn", "--curve", str(path)]) == 3
    assert "field modulus" in capsys.readouterr().err


def fp97_curve(tmp_path, x: str) -> str:
    path = tmp_path / f"curve-{x.replace('/', '_')}.json"
    path.write_text(
        json.dumps(
            {"field": {"p": 97}, "A": "2", "B": "3", "points": {"p": "O", "q": {"x": x, "y": "10"}}}
        )
    )
    return str(path)


def test_fp_point_coordinates_are_integers_reduced_mod_p(capsys, tmp_path):
    assert main(["elliptic-qn", "--curve", fp97_curve(tmp_path, "1/2")]) == 3
    assert "integers over a prime field" in capsys.readouterr().err
    # "97" is 0 in F_97; left unreduced it makes the ladder invert 97 mod 97 by n = 200
    unreduced = run_cli(capsys, "elliptic-qn", "--curve", fp97_curve(tmp_path, "97"), "--n-max", "200")
    reduced = run_cli(capsys, "elliptic-qn", "--curve", fp97_curve(tmp_path, "0"), "--n-max", "200")
    assert unreduced == reduced and reduced[0] == 0


# -- exit codes ---------------------------------------------------------------------


def test_strict_flags_exit_one(capsys, tmp_path):
    code, _ = run_cli(capsys, "example-limits", "--strict")
    assert code == 1
    # notes alone never trip strict mode: a clean command passes
    code2, _ = run_cli(capsys, "beatty-scan", "--n-max", "100", "--strict")
    assert code2 == 0


def test_config_errors_exit_two(capsys):
    assert run_cli(capsys, "beatty-scan", "--n-max", "0")[0] == 2
    assert run_cli(capsys, "quad-eval", "--a", "1.5", "--b", "0", "--d", "3")[0] == 2
    assert run_cli(capsys, "quad-eval", "--a", "1", "--b", "1", "--d", "12")[0] == 2
    assert run_cli(capsys, "example-scan", "--n-max", "5")[0] == 2
    with pytest.raises(SystemExit) as err:
        main(["no-such-command"])
    assert err.value.code == 2


# one refused value per rule that the library, not the CLI, states on a flag; the message
# names the library parameter
REFUSED = {
    "digits-0": (("quad-eval", "--a", "1", "--b", "1", "--d", "2", "--digits", "0"), "digits"),
    "digits-10001": (("example-limits", "--digits", "10001"), "digits"),
    "rational-past-digit-limit": (("quad-eval", "--a", "1" * 5000, "--b", "1", "--d", "3"), "rational"),
    "beatty-rational-alpha": (("beatty-scan", "--n-max", "10", "--alpha-b", "0"), "alpha"),
    "beatty-negative-alpha": (("beatty-scan", "--n-max", "10", "--alpha-a", "-1"), "alpha"),
    "beatty-n-max": (("beatty-scan", "--n-max", "0"), "n_max"),
    "beatty-bins": (("beatty-scan", "--n-max", "10", "--bins", "1"), "bins"),
    "beatty-alpha-above-1": (("beatty-scan", "--n-max", "10", "--alpha-a", "1"), "bins"),
    "scan-n-max": (("example-scan", "--n-max", "5"), "n_max"),
    "scan-stride": (("example-scan", "--n-max", "10", "--stride", "0"), "sample_stride"),
    "scan-checkpoint-0": (("example-scan", "--n-max", "10", "--checkpoint", "0"), "checkpoint"),
    "scan-checkpoint-past-n-max": (("example-scan", "--n-max", "10", "--checkpoint", "11"), "checkpoint"),
    "elliptic-n-max": (("elliptic-qn", "--n-max", "0"), "n_max"),
    "quad-scale": (("quad-eval", "--a", "1", "--b", "1", "--d", "3", "--scale", "0"), "--scale"),
    "monomial-n-max": (("monomial-check", "--n-max", "0"), "--n-max"),
    "monomial-filtration-max": (("monomial-check", "--n-max", "3", "--filtration-max", "0"), "m_max"),
    "elliptic-restriction-max": (("elliptic-qn", "--restriction-max", "0"), "--restriction-max"),
}


@pytest.mark.parametrize("argv", [argv for argv, _ in REFUSED.values()], ids=REFUSED)
def test_refused_arguments_exit_two(capsys, argv):
    assert main(list(argv)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and err.startswith("divfilt: configuration error:")


@pytest.mark.parametrize("argv,parameter", REFUSED.values(), ids=REFUSED)
def test_refused_argument_names_the_library_parameter(capsys, argv, parameter):
    assert main(list(argv)) == 2
    assert parameter in capsys.readouterr().err


# below the smallest int-to-str digit limit, 640, so the zero denominator is
# what is refused; the message shows a prefix and the length, not the string
@pytest.mark.parametrize("text", ["x" * 100_000, "1/" + "0" * 600], ids=["malformed", "zero-denominator"])
def test_refused_long_rational_is_one_short_stderr_line(capsys, text):
    assert main(["quad-eval", "--a", text, "--b", "1", "--d", "3"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and len(err.encode()) < 300
    assert err.startswith("divfilt: configuration error:") and f"{len(text)} characters" in err


def test_plain_value_error_in_a_kernel_is_internal(capsys, monkeypatch):
    def broken(seq, n_max):
        raise ValueError("kernel fault")

    monkeypatch.setattr(beatty, "partition", broken)
    assert main(["beatty-scan", "--n-max", "10"]) == 4
    assert capsys.readouterr() == ("", "divfilt: internal error: ValueError: kernel fault\n")


@pytest.mark.parametrize(
    "module,reader,argv",
    [
        (cli, "form_from_json", ("example-limits", "--table")),
        (picard, "curve_from_json", ("elliptic-qn", "--curve")),
    ],
    ids=["table", "curve"],
)
def test_parameter_error_inside_a_reader_is_ingestion(capsys, monkeypatch, tmp_path, module, reader, argv):
    def refuse(doc):
        raise ParameterError("refused while reading")

    monkeypatch.setattr(module, reader, refuse)
    path = tmp_path / "doc.json"
    path.write_text("{}")
    assert main([*argv, str(path)]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err == f"divfilt: ingestion error: {path}: refused while reading\n"


def test_ingestion_errors_exit_three(capsys, tmp_path):
    missing = tmp_path / "nope.json"
    assert run_cli(capsys, "example-limits", "--table", str(missing))[0] == 3
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run_cli(capsys, "monomial-check", "--sigma", str(bad), "--n-max", "2")[0] == 3
    short = tmp_path / "short.json"
    short.write_text("[1]")
    assert run_cli(capsys, "monomial-check", "--sigma", str(short), "--n-max", "5")[0] == 3
    decimals = tmp_path / "table.json"
    decimals.write_text(json.dumps({"generators": ["S"], "triples": [{"d": ["S", "S", "S"], "v": "1.5"}]}))
    assert run_cli(capsys, "example-limits", "--table", str(decimals))[0] == 3
    bools = tmp_path / "bools.json"
    bools.write_text("[true, 2, true, 1]")
    assert run_cli(capsys, "monomial-check", "--sigma", str(bools), "--n-max", "4")[0] == 3
    cubic_rows = bundled_table_with(lambda d, v: v)["triples"][:4]
    assert all("K" not in row["d"] for row in cubic_rows)
    no_k = tmp_path / "no_k.json"
    no_k.write_text(json.dumps({"generators": ["S", "F"], "triples": cubic_rows}))
    assert run_cli(capsys, "example-limits", "--table", str(no_k))[0] == 3
    no_k_rows = tmp_path / "no_k_rows.json"
    no_k_rows.write_text(json.dumps({"generators": ["S", "F", "K"], "triples": cubic_rows}))
    assert run_cli(capsys, "example-limits", "--table", str(no_k_rows))[0] == 3



# a zero denominator is a malformed rational: a bad option is exit 2, a bad
# document exit 3, and neither is an internal error
ZERO_DENOMINATORS = [
    ("quad-eval", ("quad-eval", "--a", "1/0", "--b", "1", "--d", "3"), None, 2),
    ("beatty-scan", ("beatty-scan", "--alpha-a", "1/0", "--n-max", "10"), None, 2),
    (
        "table-triple",
        ("example-limits", "--table", "{doc}"),
        bundled_table_with(lambda d, v: "1/0" if d == ["S", "S", "S"] else v),
        3,
    ),
    (
        "curve-A",
        ("elliptic-qn", "--curve", "{doc}"),
        {"field": "Q", "A": "1/0", "B": "-2", "points": {"p": "O", "q": {"x": "3", "y": "5"}}},
        3,
    ),
]


@pytest.mark.parametrize(
    "argv,doc,code", [c[1:] for c in ZERO_DENOMINATORS], ids=[c[0] for c in ZERO_DENOMINATORS]
)
def test_zero_denominators_keep_the_exit_contract(capsys, tmp_path, argv, doc, code):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([a.format(doc=path) for a in argv]) == code
    out, err = capsys.readouterr()
    kind = "configuration" if code == 2 else "ingestion"
    assert out == "" and err.startswith(f"divfilt: {kind} error:") and "zero denominator" in err


def test_zero_denominator_documents_fail_their_input_schemas():
    schemas = {"--table": "intersection_table.schema.json", "--curve": "curve.schema.json"}
    documents = [(argv[1], doc) for _, argv, doc, _ in ZERO_DENOMINATORS if doc is not None]
    assert len(documents) == 2
    for flag, doc in documents:
        with pytest.raises(jsonschema.ValidationError, match="1/0"):
            validate(doc, schemas[flag])


UNREADABLE = ["missing", "directory", "not-utf8", "malformed", "nested-100000", "int-past-limit", "past-cap"]
READERS = [
    ("example-limits", "--table"),
    ("monomial-check", "--n-max", "1", "--sigma"),
    ("elliptic-qn", "--curve"),
]


@pytest.mark.parametrize("case", UNREADABLE)
@pytest.mark.parametrize("argv", READERS, ids=lambda a: a[0])
def test_unreadable_documents_exit_three(capsys, tmp_path, argv, case):
    contents = {
        "not-utf8": b"\xff\xfe",
        "malformed": b"{not json",
        "nested-100000": b"[" * 100_000 + b"]" * 100_000,
        "int-past-limit": b"[" + b"9" * (sys.get_int_max_str_digits() + 1) + b"]",
        "past-cap": b"[1]".ljust(cli._MAX_DOCUMENT_BYTES + 1),
    }
    path = tmp_path / f"{case}.json"
    if case == "directory":
        path.mkdir()
    elif case in contents:
        path.write_bytes(contents[case])
    fragment = f"larger than the {cli._MAX_DOCUMENT_BYTES}-byte cap" if case == "past-cap" else ""
    assert_ingestion_error(capsys, [*argv, str(path)], path, fragment)


def test_the_largest_one_digit_sigma_table_fits_the_cap(capsys, tmp_path):
    # the README's bound: 524287 compact one-digit entries fit, one more would
    # not; padded to exactly the cap, the table is read
    cap, entries = cli._MAX_DOCUMENT_BYTES, 524_287
    body = ("[" + ",".join(["1"] * entries) + "]").encode()
    assert len(body) <= cap < len(body) + 2
    path = tmp_path / "sigma.json"
    path.write_bytes(body.ljust(cap))
    code, out = run_cli(capsys, "monomial-check", "--n-max", "1", "--sigma", str(path))
    assert code == 0 and json.loads(out)["rows"][0]["count"] == 3


@pytest.mark.parametrize("argv", READERS, ids=lambda a: a[0])
def test_an_endless_document_exits_three_in_bounded_memory(argv):
    # never run without the address-space cap: an unbounded read of
    # /dev/zero grows until memory runs out
    cap = 512 * 2**20
    limit = lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap))  # noqa: E731
    proc = subprocess.run(
        [sys.executable, "-m", "divfilt", *argv, "/dev/zero"], preexec_fn=limit,
        env={**os.environ, "PYTHONPATH": os.path.dirname(os.path.dirname(cli.__file__))},
        capture_output=True, text=True, timeout=60,
    )
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == (f"divfilt: ingestion error: /dev/zero: larger than the "
                           f"{cli._MAX_DOCUMENT_BYTES}-byte cap on input documents\n")


def test_reading_a_small_document_allocates_no_cap_sized_buffer(tmp_path):
    # `_read` reads in pieces: one read of cap + 1 bytes would allocate 1 MiB
    path = tmp_path / "curve.json"
    path.write_text(json.dumps(FP_CURVE))
    tracemalloc.start()
    try:
        curve, points = cli._read(str(path), picard.curve_from_json)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert curve.p == 1505983 and set(points) == {"p", "q"}
    assert peak < 256 * 1024


def assert_ingestion_error(capsys, argv, path, fragment=""):
    assert main(argv) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1
    assert err.startswith(f"divfilt: ingestion error: {path}:") and fragment in err


# JSON documents of the wrong shape, one per check in `form_from_json` and `curve_from_json`
TABLE_HEAD, CURVE_HEAD = {"generators": ["S"]}, {"field": "Q", "A": "0", "B": "-2"}
MISSHAPEN = {
    "table-not-an-object": ("--table", [], "must be a JSON object"),
    "table-triples-not-a-list": ("--table", {**TABLE_HEAD, "triples": {}}, "'triples' must be a list"),
    "table-row-keys": ("--table", {**TABLE_HEAD, "triples": [{"d": ["S", "S", "S"]}]}, "exactly keys"),
    "table-d-two-names": ("--table", {**TABLE_HEAD, "triples": [{"d": ["S", "S"], "v": "1"}]}, "'d' must"),
    "table-v-not-a-string": ("--table", {**TABLE_HEAD, "triples": [{"d": ["S"] * 3, "v": 1}]}, "'v' must"),
    "curve-point-shape": ("--curve", {**CURVE_HEAD, "points": {"p": "O", "q": [3, 5]}}, "point must be"),
    "curve-not-an-object": ("--curve", [], "must be a JSON object"),
    "curve-points-not-an-object": ("--curve", {**CURVE_HEAD, "points": []}, "'points' must be an object"),
}


@pytest.mark.parametrize("flag,doc,fragment", MISSHAPEN.values(), ids=MISSHAPEN)
def test_misshapen_documents_exit_three(capsys, tmp_path, flag, doc, fragment):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    command = "example-limits" if flag == "--table" else "elliptic-qn"
    assert_ingestion_error(capsys, [command, flag, str(path)], path, fragment)


# well-formed documents that lack what the command needs: the command, not the
# reader, refuses them, so the message names no path
SHORT_DOCUMENTS = {
    "sigma-short-of-filtration-max": (
        ("monomial-check", "--n-max", "1", "--filtration-max", "2", "--sigma"), [1, 2, 3],
        "divfilt: ingestion error: filtration check up to 2 needs 4 sigma entries\n"),
    "curve-without-p": (
        ("elliptic-qn", "--curve"), {**CURVE_HEAD, "points": {"q": {"x": "3", "y": "5"}}},
        "divfilt: ingestion error: curve document must name points 'p' and 'q'\n"),
    "curve-without-q": (
        ("elliptic-qn", "--curve"), {**CURVE_HEAD, "points": {"p": "O"}},
        "divfilt: ingestion error: curve document must name points 'p' and 'q'\n"),
}


@pytest.mark.parametrize("argv,doc,message", SHORT_DOCUMENTS.values(), ids=SHORT_DOCUMENTS)
def test_documents_short_of_the_command_exit_three(capsys, tmp_path, argv, doc, message):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    assert main([*argv, str(path)]) == 3
    assert capsys.readouterr() == ("", message)


@pytest.mark.parametrize("extra", [(), ("--filtration-max", "1")], ids=["rows", "filtration"])
def test_sigma_values_past_2_63_exit_three(capsys, tmp_path, extra):
    path = tmp_path / "sigma.json"
    path.write_text(f"[{2**63}]")
    assert main(["monomial-check", "--sigma", str(path), "--n-max", "1", *extra]) == 3
    err = capsys.readouterr().err
    assert err.startswith("divfilt: ingestion error:") and "2^63" in err


@pytest.mark.parametrize(
    "flag,other",
    [("--out", None), ("--summary-out", None), ("--summary-out", "--out"), ("--out", "--summary-out")],
    ids=["--out", "--summary-out", "--summary-out-before-out", "--out-after-summary-out"],
)
def test_unwritable_output_exits_two(capsys, tmp_path, flag, other):
    # side outputs are written before the report: an unwritable summary
    # leaves no report, and an unwritable report leaves the summary whole
    argv, _, summary_sha = SCAN_BYTES[3]
    target, written = tmp_path / "missing" / "report", tmp_path / "written"
    extra = () if other is None else (other, str(written))
    assert main(["example-scan", *argv, flag, str(target), *extra]) == 2
    out, err = capsys.readouterr()
    assert err.startswith("divfilt: configuration error:") and str(target) in err
    assert out == ""
    if other == "--summary-out":
        assert hashlib.sha256(written.read_bytes()).hexdigest() == summary_sha
    else:
        assert not written.exists()


@pytest.mark.parametrize(
    "argv,code",
    [
        (("example-scan", "--n-max", "100000", "--stride", "1"), 0),
        (("elliptic-qn", "--curve", "{torsion}", "--n-max", "5000", "--strict"), 1),
    ],
    ids=["example-scan", "elliptic-qn-strict"],
)
def test_reader_closing_stdout_early_is_not_an_error(tmp_path, argv, code):
    torsion = tmp_path / "torsion.json"
    torsion.write_text(json.dumps(TORSION_CURVE))
    proc = subprocess.Popen(
        [sys.executable, "-m", "divfilt", *(a.format(torsion=torsion) for a in argv)],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    )
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()  # the report is far longer than the pipe holds
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == code
    assert err == b""


def test_elliptic_default_runs_no_scalar_ladder(capsys, monkeypatch):
    calls = []
    mul = picard.EllipticCurve.mul
    monkeypatch.setattr(picard.EllipticCurve, "mul", lambda self, k, P: calls.append(k) or mul(self, k, P))
    assert main(["elliptic-qn"]) == 0
    assert calls == []


def test_elliptic_exceptional_pairing_checked_once_per_run(tmp_path, capsys, monkeypatch):
    # a group law wrong only on the pairing's last addition (-p - q_L) + q_L,
    # at the deepest level L, fails the run's one identity check
    path = tmp_path / "neg2q.json"
    path.write_text(json.dumps(NEG_2Q_CURVE))
    argv = ("elliptic-qn", "--curve", str(path), "--n-max", "12", "--restriction-max", "12")
    code, out = run_cli(capsys, *argv, "--strict")
    doc = json.loads(out)
    assert code == 0 and doc["restriction"]["all_trivial"] and doc["audit_flags"] == []
    curve, points = picard.curve_from_json(NEG_2Q_CURVE)
    p, q = points["p"], points["q"]
    qL = picard.qn_sequence(curve, p, q, 12).points[-1]
    last = (curve.sub(curve.neg(p), qL), qL)
    add = picard.EllipticCurve.add

    def perturbed(self, P, Q):
        return add(self, add(self, P, Q), q) if (P, Q) == last else add(self, P, Q)

    monkeypatch.setattr(picard.EllipticCurve, "add", perturbed)
    code, out = run_cli(capsys, *argv, "--strict")
    doc = json.loads(out)
    assert code == 1
    assert doc["audit_flags"] == ["discrepancy:exceptional-pairing n=12"]
    assert doc["restriction"] == {"max_n": 12, "all_trivial": False, "failures": []}
    assert run_cli(capsys, *argv)[0] == 0


def test_internal_error_exits_four(capsys, monkeypatch):
    def broken(args):
        raise RuntimeError("kernel fault\nsecond line")

    monkeypatch.setattr(cli, "_cmd_quad_eval", broken)
    assert main(["quad-eval", "--a", "1", "--b", "1", "--d", "2"]) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "divfilt: internal error: RuntimeError: kernel fault second line\n"


def test_only_main_renders_and_writes_reports():
    # the handlers return their reports; `main` is the one place that names
    # the renderer and the writer
    with open(cli.__file__, encoding="utf-8") as handle:
        tree = ast.parse(handle.read())
    users = {
        getattr(top, "name", None)
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Name) and node.id in ("_dumps", "_emit")
    }
    assert users == {"main"}


def test_handler_is_looked_up_when_main_runs(capsys, monkeypatch):
    argv = ["quad-eval", "--a", "1", "--b", "1", "--d", "2"]
    assert main(argv) == 0  # the parser now exists
    capsys.readouterr()

    def broken(args):
        raise RuntimeError("replaced after the parser was built")

    monkeypatch.setattr(cli, "_cmd_quad_eval", broken)
    assert main(argv) == 4
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "divfilt: internal error: RuntimeError: replaced after the parser was built\n"


# -- the report writer ---------------------------------------------------------------


def _materialized(value):
    # the stdlib encoder's fallback: a lazy q_n list is the list it reads as
    if isinstance(value, picard.QnPoints):
        return list(value)
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _json_encoder(payload) -> str:
    encoder = json.JSONEncoder(indent=2, sort_keys=True, default=_materialized)
    return _without_digit_limit(encoder.encode, payload) + "\n"


PINNED_ARGV = (
    [("example-scan", *argv, "--summary-out", "summary.json") for argv, _, _ in SCAN_BYTES]
    + [argv for _, argv, _, _ in LIMITS_BYTES]
    + [("beatty-scan", *argv) for _, argv, _ in BEATTY_BYTES]
    + [argv for _, argv, _ in REPORT_BYTES]
    + COMMANDS
)


def test_writer_matches_json_encoder_on_every_pinned_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for name, doc in {**PIN_TABLES, "sigma.json": SEEDED_SIGMA, "curve.json": FP_CURVE,
                      "neg2q.json": NEG_2Q_CURVE, "torsion.json": TORSION_CURVE,
                      "fp97.json": FP_ORDER_50_CURVE}.items():
        (tmp_path / name).write_text(json.dumps(doc))
    dumps, payloads = cli._dumps, []

    def checked(payload):
        payloads.append(payload)
        return dumps(payload)

    monkeypatch.setattr(cli, "_dumps", checked)
    for argv in PINNED_ARGV:
        # --strict reads the written report's own flags; the CSV has none
        code = main([*argv, "--out", "report.out", "--strict"])
        report = (tmp_path / "report.out").read_text()
        flags = [] if argv[0] == "example-scan" else json.loads(report)["audit_flags"]
        assert code == int(any(f.startswith("discrepancy:") for f in flags)), argv
    assert len(payloads) == sum(a[0] != "example-scan" or "--summary-out" in a for a in PINNED_ARGV)
    lazy = [p for p in payloads if isinstance(p.get("qn", {}).get("points"), picard.QnPoints)]
    assert len(lazy) == sum(a[0] == "elliptic-qn" for a in PINNED_ARGV)
    for payload in payloads:
        assert dumps(payload) == _json_encoder(payload)


WRITER_CASES = {
    "empty": [{}, [], ()],
    "nested-empty": {"a": {}, "b": [], "c": [{}, [[]], {"d": {}}]},
    "strings": ["q\"uote", "back\\slash", "\x00\x01\x1f\n\r\t\x7f", "é ∞ \U0001d53d", ""],
    "keys": {"\"": 1, "\\": 2, "\x00": 3, "é": 4, "Z": 5, "a": 6, "": 7},
    "constants": [True, False, None, 0, -1, -(10**30), 10**40],
    "mixed": {"b": (1, {"z": None, "y": [True, "x"]}), "a": [[1, [2, [3]]], {"k": "v"}]},
    "qn-points": {
        "points": picard.QnPoints([
            picard.O,
            (3, 1, -5, 1),
            (129, 100, 383, 1000),
            (Decimal(-7) ** 40, Decimal(4), Decimal(11) ** 60, Decimal(8)),
            (7**6000, 1, -(3**9500), 1),
            (1, 5**7000, -1, 5**10500),
            picard.O,
        ]),
        "empty": picard.QnPoints([]),
        "nested": [[picard.QnPoints([picard.O]), picard.QnPoints([(0, 1, 0, 1)])]],
    },
}


@pytest.mark.parametrize("payload", WRITER_CASES.values(), ids=WRITER_CASES.keys())
def test_writer_matches_json_encoder(payload):
    assert cli._dumps(payload) == _json_encoder(payload)
    assert cli._dumps({"wrapped": payload}) == _json_encoder({"wrapped": payload})


def test_writer_writes_ints_past_the_digit_limit():
    value = {"n": -(7**12000), "m": [10**5000]}
    expected = _json_encoder(value)
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        assert cli._dumps(value) == expected
        assert sys.get_int_max_str_digits() == 640
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("payload", [1.5, {"x": [0.0]}, {1: "int key"}, {"s": {1, 2}}])
def test_writer_refuses_floats_and_other_types(payload):
    with pytest.raises(TypeError):
        cli._dumps(payload)

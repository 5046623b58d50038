"""Deterministic command-line front end.

Each subcommand's handler builds one report; `main` alone renders it and writes
it to stdout or to ``--out``, after any side output such as ``--summary-out``.
Identical inputs produce byte-identical outputs (sorted JSON keys, exact rational
strings, correctly rounded decimals, no timestamps).  ``--strict`` reads the
report's ``audit_flags``: any ``discrepancy:`` flag is exit status 1.  Exit
status 2 marks a configuration error (an argument that the library refuses with
`ParameterError`), 3 an ingestion error, 4 an internal error (any other
exception, reported in one line on stderr).  A reader that closes stdout early
ends the report there; the exit status stays what the run computed.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from collections.abc import Iterable
from json.encoder import encode_basestring_ascii
from math import gcd

from divfilt import asymptotics, beatty, monomial, picard
from divfilt.intersection import form_from_json
from divfilt.quadfield import ParameterError, QuadExt, decimal_column, parse_rational
from divfilt.quadfield import _int_parameter, _without_digit_limit

__all__ = ["main", "IngestError"]


class IngestError(ValueError):
    """Unreadable or malformed input document (exit status 3)."""


def _dumps(payload) -> str:
    """Sorted, indented JSON and a newline, byte for byte as
    ``json.JSONEncoder(indent=2, sort_keys=True)`` writes it: ints of any size
    in full, a float a TypeError.  The pieces are joined once; CPython's C
    encoder serves only ``indent=None``, and its Python one steps per token."""
    parts: list[str] = []
    _without_digit_limit(_encode, payload, parts, "\n")
    parts.append("\n")
    return "".join(parts)


def _encode(value, parts: list[str], newline: str) -> None:
    if isinstance(value, (dict, list, tuple)):
        inner, is_dict = newline + "  ", isinstance(value, dict)
        opening, closing = "{}" if is_dict else "[]"
        sep = opening + inner
        for item in sorted(value.items()) if is_dict else value:
            if is_dict:  # a key that is not a str is a TypeError here
                sep, item = sep + encode_basestring_ascii(item[0]) + ": ", item[1]
            parts.append(sep)
            _encode(item, parts, inner)
            sep = "," + inner
        parts.append(newline + closing if value else opening + closing)
    elif isinstance(value, str):
        parts.append(encode_basestring_ascii(value))
    elif value is None or isinstance(value, bool):
        parts.append("null" if value is None else "true" if value else "false")
    elif isinstance(value, int):
        parts.append(int.__repr__(value))
    elif isinstance(value, picard.QnPoints):
        _encode_points(value, parts, newline)
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _encode_points(points: picard.QnPoints, parts: list[str], newline: str) -> None:
    """A q_n list as `_encode` writes its `to_json` form, one string per point
    straight from its coordinate strings."""
    inner = newline + "  "
    sep = "[" + inner
    for xy in points.texts():
        parts.append(sep + '"O"' if xy is None else
                     f'{sep}{{{inner}  "x": "{xy[0]}",{inner}  "y": "{xy[1]}"{inner}}}')
        sep = "," + inner
    parts.append(newline + "]" if points.coords else "[]")


def _emit(text: str | Iterable[str], out: str | None) -> None:
    """Write a report, or its chunks in order as they are produced."""
    chunks = (text,) if isinstance(text, str) else text
    if out is None:
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except BrokenPipeError:
            pass  # the reader closed the pipe early: a short read, not a fault
        return
    try:
        with open(out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)
    except OSError as exc:
        raise ParameterError(f"cannot write {out}: {exc}") from exc


_MAX_DOCUMENT_BYTES = 1 << 20  # input documents of the README's sizes are a few kilobytes


def _read(path: str, parse):
    """parse(doc) for the UTF-8 JSON document at `path`.  One that cannot be read, decoded,
    parsed or `parse`d, or is longer than `_MAX_DOCUMENT_BYTES`, is an IngestError."""
    try:
        with open(path, "rb") as handle:
            data = bytearray()  # read in pieces: one read of the cap would allocate it whole
            while len(data) <= _MAX_DOCUMENT_BYTES and (piece := handle.read(1 << 16)):
                data += piece
        if len(data) > _MAX_DOCUMENT_BYTES:
            raise ValueError(f"larger than the {_MAX_DOCUMENT_BYTES}-byte cap on input documents")
        return parse(json.loads(data.decode("utf-8")))
    except (OSError, ValueError, RecursionError) as exc:
        raise IngestError(f"{path}: {exc}") from exc


# -- subcommands ----------------------------------------------------------------
# A handler returns (report, side outputs): a dict or the CSV's lines, and (path, dict) pairs.


def _cmd_quad_eval(args) -> tuple[dict, tuple]:
    x = QuadExt(parse_rational(args.a), parse_rational(args.b), args.d)
    payload = {
        "value": x.to_json(args.digits),
        "sign": x.sign(),
        "is_rational": x.is_rational(),
        "minimal_quadratic": list(x.minimal_quadratic()),
        "audit_flags": [],
    }
    if args.scale is not None:
        payload["scale"] = n = _int_parameter("--scale", args.scale, 1)
        payload["floor_scaled"] = x.floor_scaled(n)
        payload["ceil_scaled"] = x.ceil_scaled(n)
    return payload, ()


def _cmd_beatty_scan(args) -> tuple[dict, tuple]:
    alpha = QuadExt(parse_rational(args.alpha_a), parse_rational(args.alpha_b), args.alpha_d)
    seq = beatty.BeattySequence(alpha)
    if args.bins is None:
        report = beatty.partition(seq, args.n_max)
    else:
        report = beatty.equidistribution_histogram(seq, args.n_max, args.bins)
    payload = {
        "alpha": alpha.to_json(args.digits),
        "window_constant": beatty.window_constant(seq),
        "report": report.to_json(),
        "audit_flags": [],
    }
    if 0 < alpha < 1:
        gap = abs(report.sigma2_density - alpha)
        payload["density_gap"] = gap.to_json(args.digits)
    return payload, ()


def _example_model_from_args(args) -> asymptotics.ExampleModel:
    if args.table is None:
        return asymptotics.example_model()
    return _read(args.table, lambda doc: asymptotics.model_from_form(form_from_json(doc)))


def _cmd_example_limits(args) -> tuple[dict, tuple]:
    return asymptotics.limit_exists_report(_example_model_from_args(args)).to_json(args.digits), ()


def _cmd_example_scan(args) -> tuple[Iterable[str], tuple]:
    model = _example_model_from_args(args)
    checkpoints = tuple(sorted(set(args.checkpoint or ())))
    scan = asymptotics.empirical_scan(model, args.n_max, args.stride, checkpoints)
    summary = () if args.summary_out is None else ((args.summary_out, scan.to_json(args.digits)),)
    return scan_csv_lines(scan.rows, args.digits), summary


class _LowestTerms(dict):
    """Residue r -> (g, tail) with num/denom = f"{num // g}{tail}" in lowest
    terms for every num = r (mod denom), as gcd(num, denom) = gcd(r, denom);
    at most 1024 residues are kept, so memory stays bounded."""

    def __init__(self, denom: int) -> None:
        self.denom = denom

    def __missing__(self, r: int) -> tuple[int, str]:
        g = gcd(r, self.denom)
        entry = (g, "" if g == self.denom else f"/{self.denom // g}")
        if len(self) < 1024:
            self[r] = entry
        return entry


def scan_csv_lines(rows: asymptotics.ScanRows, digits: int) -> Iterable[str]:
    """The `example-scan` CSV rendered from the rows: the header line,
    then one string per column chunk that `rows.chunks()` hands over."""
    yield "n,sigma,ceil_alpha_n,delta_exact,delta_over_n2_decimal\n"
    decimals = decimal_column(digits)
    denom = rows.denom
    terms = _LowestTerms(denom)
    for ns, ss, xs, nums in rows.chunks():
        decs = decimals(nums, [denom * n * n for n in ns])
        yield "".join(
            [
                f"{n},{s},{x},{num // g}{tail},{dec}\n"
                for n, s, x, num, dec in zip(ns, ss, xs, nums, decs)
                for g, tail in (terms[num % denom],)
            ]
        )


def _cmd_monomial_check(args) -> tuple[dict, tuple]:
    n_max = _int_parameter("--n-max", args.n_max, 1)
    if args.sigma is None:
        f = monomial.SigmaFiltration(func=lambda n: n)
        source = "identity"
    else:
        f = _read(args.sigma, monomial.SigmaFiltration.from_json)
        source = args.sigma
        if len(f.table) < n_max:
            raise IngestError(
                f"sigma table has {len(f.table)} entries but --n-max is {n_max}"
            )
    flags: list[str] = []
    rows = []
    for n in range(1, n_max + 1):
        s = f.sigma(n)
        socle, ok = monomial.socle_certificate(n, s)
        if not ok:
            flags.append(f"discrepancy:socle-witness n={n}")
        rows.append({"n": n, "count": s + 2, "expected": s + 2, "socle": list(socle), "ok": ok})
    filtration = None
    if (m := args.filtration_max) is not None:  # filtration_check refuses m < 1 as m_max
        if args.sigma is not None and len(f.table) < 2 * m:
            raise IngestError(f"filtration check up to {m} needs {2 * m} sigma entries")
        filtration = monomial.filtration_check(f, m, m)
        flags.extend(
            f"discrepancy:filtration-containment m={m_} n={n_}"
            for m_, n_, _, _ in filtration.failures
        )
    payload = {
        "sigma_source": source,
        "n_max": n_max,
        "rows": rows,
        "all_ok": not flags,
        "audit_flags": flags,
    }
    if filtration is not None:
        payload["filtration"] = filtration.to_json()
    return payload, ()


def _cmd_elliptic_qn(args) -> tuple[dict, tuple]:
    if args.curve is None:
        curve, p, q = picard.default_curve()
        points = {"p": p, "q": q}
    else:
        curve, points = _read(args.curve, picard.curve_from_json)
        if "p" not in points or "q" not in points:
            raise IngestError("curve document must name points 'p' and 'q'")
        p, q = points["p"], points["q"]
        if p == q:
            raise IngestError("curve document names the same point as 'p' and 'q'")
    # checked here: the library would reach this check only after building the sequence
    restrict_max = _int_parameter("--restriction-max", args.restriction_max, 1)
    flags: list[str] = []
    step = curve.sub(q, p)
    witness = picard.infinite_order_witness(curve, step)
    if not witness.passed:
        flags.append(f"discrepancy:torsion-step order={witness.failed_at}")
    seq = picard.qn_sequence(curve, p, q, args.n_max)
    if not seq.all_distinct:
        flags.append(f"discrepancy:qn-collisions count={len(seq.collisions)}")
    if not seq.avoids_q:
        flags.append("discrepancy:qn-returns-to-q")
    replay = picard.restriction_replay(curve, p, q, restrict_max, seq.coords)
    failures = [rep for rep in replay if not rep.trivial]
    flags.extend(f"discrepancy:restriction-nontrivial n={rep.n}" for rep in failures)
    pairing = picard.exceptional_pairing_holds(curve, p, replay[-1].qn)
    if not pairing:
        flags.append(f"discrepancy:exceptional-pairing n={restrict_max}")
    payload = {
        "curve": picard.curve_to_json(curve, {"p": p, "q": q}),
        "witness": witness.to_json(),
        "qn": seq.to_json(),
        "restriction": {
            "max_n": restrict_max,
            "all_trivial": pairing and not failures,
            "failures": [rep.to_json() for rep in failures],
        },
        "audit_flags": flags,
    }
    return payload, ()


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The `divfilt` parser, built on the first call and then shared: `main`
    picks each subcommand's handler by name at call time, so it holds none."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the report to this path instead of stdout")
    common.add_argument("--digits", type=int, default=30, help="decimal digits in renderings")
    common.add_argument(
        "--strict",
        action="store_true",
        help="exit with status 1 when any discrepancy audit flag is raised",
    )
    parser = argparse.ArgumentParser(
        prog="divfilt",
        description="Exact-arithmetic reports on divisorial-filtration asymptotics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_text: str):
        return sub.add_parser(name, help=help_text, parents=[common])

    q = add("quad-eval", "evaluate one quadratic-field value")
    q.add_argument("--a", required=True, help="rational part, as 'p' or 'p/q'")
    q.add_argument("--b", required=True, help="sqrt coefficient, as 'p' or 'p/q'")
    q.add_argument("--d", type=int, required=True, help="squarefree radicand >= 2")
    q.add_argument("--scale", type=int, help="also report floor/ceil of scale*value")

    b = add("beatty-scan", "two-value partition and equidistribution scan")
    b.add_argument("--n-max", type=int, required=True)
    b.add_argument("--bins", type=int, help="fractional-part histogram bins (>= 2)")
    b.add_argument("--alpha-a", default="9/26")
    b.add_argument("--alpha-b", default="1/26")
    b.add_argument("--alpha-d", type=int, default=3)

    el = add("example-limits", "limit report for the bundled example model")
    el.add_argument("--table", help="intersection table JSON (default: bundled table)")

    es = add("example-scan", "exact first-difference scan (CSV)")
    es.add_argument("--n-max", type=int, required=True)
    es.add_argument("--stride", type=int, default=1)
    es.add_argument("--checkpoint", type=int, action="append", help="record running max here")
    es.add_argument("--table", help="intersection table JSON (default: bundled table)")
    es.add_argument("--summary-out", help="also write the JSON scan summary to this path")

    mc = add("monomial-check", "generator counts and socle witnesses of the z-filtration")
    mc.add_argument("--sigma", help="JSON array; entry k (0-based) is sigma(k+1)")
    mc.add_argument("--n-max", type=int, required=True)
    mc.add_argument("--filtration-max", type=int, help="also check I_m I_n in I_(m+n) up to here")

    eq = add("elliptic-qn", "elliptic point sequence and restriction audit")
    eq.add_argument("--curve", help="curve JSON (default: y^2 = x^3 - 2 over Q, p=O, q=(3,5))")
    eq.add_argument("--n-max", type=int, default=60)
    eq.add_argument("--restriction-max", type=int, default=50)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        decimal_column(args.digits)  # refuses --digits before any work
        report, side_outputs = globals()["_cmd_" + args.command.replace("-", "_")](args)
        for path, doc in (*side_outputs, (args.out, report)):  # side outputs first
            _emit(_dumps(doc) if isinstance(doc, dict) else doc, path)
        flags = report["audit_flags"] if isinstance(report, dict) else ()  # the CSV has none
    except ParameterError as exc:
        sys.stderr.write(f"divfilt: configuration error: {exc}\n")
        return 2
    except IngestError as exc:
        sys.stderr.write(f"divfilt: ingestion error: {exc}\n")
        return 3
    except Exception as exc:
        message = " ".join(f"{type(exc).__name__}: {exc}".split())
        sys.stderr.write(f"divfilt: internal error: {message}\n")
        return 4
    if args.strict and any(f.startswith("discrepancy:") for f in flags):
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())

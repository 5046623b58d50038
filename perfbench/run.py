"""divfilt benchmark: README-sized CLI workloads, timed end to end, with outputs checked.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Run from the root of a divfilt checkout; the program is imported from its
`src` directory.  One client, closed loop, single process: each pass runs
the workload's calls in order in a fresh child interpreter (perfbench/child.py),
which calls `divfilt.cli.main(argv)` and writes with `--out` into a scratch
directory under `.perfbench_work/`.  Passes repeat until S seconds have gone
(at least MIN_PASSES).  DIVFILT_THREADS is removed from the children's
environment.

End-to-end metrics (--trace 0): setup_s, the median wall time of a fresh
interpreter importing divfilt.cli and building the bundled model; wall_rel,
the median over passes of the pass's wall time divided by the time of a
fixed reference loop run just before and after it (perfbench/reference.py),
which cancels most of the shared host's drift; peak_rss_mb, the median peak RSS of
the process that ran a pass, read with os.wait4 (see perfbench/child.py).
The summary line also prints wall_s, the median pass time in seconds, and
ops_failed_ratio (failed / attempted calls), the `failed` / `attempted`
pair of the result.

Per-layer metrics (--trace 1): untraced and traced passes alternate; the
traced ones wrap divfilt's public functions (perfbench/spans.py) and give
each layer's self time and work counts.  trace.overhead_s is the traced
minus the untraced median wall time.  The traced reports must be
byte-identical to the untraced ones, as every pass's must be to the first's.

Every report is checked (perfbench/check.py) the first time its bytes are
seen.  A call fails on an exception, an unexpected exit status or a failed
check.  The last stdout line is the JSON result; the exit status is 0 when
every produced report is correct, 1 when one is not, 2 on a bad command
line or a directory without divfilt's sources, 3 when the harness itself
fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from spans import METRICS as LAYER_METRICS  # noqa: E402
from workloads import README_WORKLOADS, WORKLOADS, make_inputs, resolve  # noqa: E402

MIN_PASSES = 3
MIN_TRACE_PAIRS = 2
SETUP_SAMPLES = 31
PASS_TIMEOUT_S = 170.0
SETUP_CODE = "import divfilt.cli\nfrom divfilt import asymptotics\nasymptotics.example_model()\n"
END_TO_END = {"setup_s": "s", "wall_rel": "ratio", "peak_rss_mb": "MB"}
WORK_ROOT = Path(".perfbench_work")  # relative to the checkout root; the last traced spans stay here


class HarnessError(RuntimeError):
    """The benchmark itself failed; no result is printed."""


def child_env(src: Path) -> dict:
    env = dict(os.environ)
    env.pop("DIVFILT_THREADS", None)
    env["PYTHONPATH"] = str(src)
    return env


def setup_sample(env: dict) -> float:
    """Wall time of one fresh interpreter importing divfilt.cli and building the bundled model."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, timeout=120)
    elapsed = time.perf_counter() - t0
    if proc.returncode != 0:
        raise HarnessError(f"set-up run failed: {proc.stderr.decode(errors='replace')[-500:]}")
    return elapsed


def run_child(argv: list, env: dict, log: Path) -> int:
    """Run one child to completion and return its exit code; stop it past PASS_TIMEOUT_S."""
    with open(log, "wb") as fh:
        proc = subprocess.Popen(argv, env=env, stdout=fh, stderr=fh)
    try:
        proc.wait(timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        raise HarnessError(f"child {argv[1]} ran past {PASS_TIMEOUT_S} s") from None
    finally:
        if proc.returncode is None:
            proc.terminate()  # the pass launcher stops its own child on SIGTERM
            try:
                proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
    return proc.returncode


def _digest(path) -> str | None:
    if not path or not os.path.exists(path):
        return None
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def _tail(path: Path) -> str:
    try:
        return path.read_text(errors="replace")[-800:]
    except OSError:
        return ""


class Workload:
    """Passes of one workload, with every report checked once per distinct content."""

    def __init__(self, name: str, work: Path, src: Path, env: dict, values: dict):
        self.name = name
        self.calls = WORKLOADS[name]
        self.work = work / name
        self.src = src
        self.env = env
        self.values = values
        self.verdicts: dict = {}  # (call index, digests) -> None or failure reason
        self.passes = 0

    def _job(self, pdir: Path, traced: bool) -> dict:
        calls = []
        for i, call in enumerate(self.calls):
            out = str(pdir / f"{i}-{call.argv[0]}.out")
            argv = resolve(call, self.values) + ["--out", out]
            summary = None
            if call.summary:
                summary = str(pdir / f"{i}-summary.json")
                argv += ["--summary-out", summary]
            calls.append({"name": call.name, "params": call.params, "argv": argv, "out": out, "summary": summary})
        return {
            "src": str(self.src),
            "trace": traced,
            "calls": calls,
            "values": self.values,
            "result": str(pdir / "result.json"),
            "spans": str(pdir / "spans.jsonl"),
        }

    def run_pass(self, traced: bool) -> dict:
        self.passes += 1
        pdir = self.work / f"pass-{self.passes}"
        pdir.mkdir(parents=True)
        job = self._job(pdir, traced)
        job_path = pdir / "job.json"
        job_path.write_text(json.dumps(job), encoding="utf-8")
        log = pdir / "child.log"
        code = run_child([sys.executable, str(HERE / "child.py"), str(job_path)], self.env, log)
        if code != 0:
            raise HarnessError(f"{self.name} pass child exited {code}: {_tail(log)}")
        result = json.loads(Path(job["result"]).read_text(encoding="utf-8"))
        result["digests"] = [(_digest(c["out"]), _digest(c["summary"])) for c in job["calls"]]
        self._judge(job, result, pdir)
        if traced:
            os.replace(job["spans"], WORK_ROOT / f"spans-{self.name}.jsonl")
        shutil.rmtree(pdir)
        return result

    def _judge(self, job: dict, result: dict, pdir: Path) -> None:
        """Set each call's `failure` (None when it passed) and `incorrect` flag."""
        unseen = [i for i, d in enumerate(result["digests"]) if d[0] is not None and (i, d) not in self.verdicts]
        if unseen:
            check_job = {"calls": [job["calls"][i] for i in unseen], "values": self.values}
            (pdir / "check.json").write_text(json.dumps(check_job), encoding="utf-8")
            log = pdir / "check.log"
            code = run_child(
                [sys.executable, str(HERE / "check.py"), str(pdir / "check.json"), str(pdir / "verdicts.json")],
                self.env, log,
            )
            if code != 0:
                raise HarnessError(f"output check crashed: {_tail(log)}")
            verdicts = json.loads((pdir / "verdicts.json").read_text(encoding="utf-8"))
            for i, verdict in zip(unseen, verdicts):
                self.verdicts[(i, result["digests"][i])] = verdict
        for i, (call, c, d) in enumerate(zip(self.calls, result["calls"], result["digests"])):
            produced = d[0] is not None
            verdict = self.verdicts.get((i, d)) if produced else None
            if c["error"] is not None:
                failure = f"exception {c['error']}"
            elif c["status"] != call.expect:
                failure = f"exit status {c['status']}, expected {call.expect}"
            elif not produced:
                failure = "no report written"
            else:
                failure = verdict
            c["failure"] = failure
            c["incorrect"] = produced and (verdict is not None or c["status"] != call.expect)


def run_workload(name: str, args, work: Path, src: Path, env: dict, values: dict) -> dict:
    wl = Workload(name, work, src, env, values)
    setup_sample(env)  # warm-up: fills the bytecode cache
    setup, plain, traced = [], [], []
    start = time.perf_counter()
    while True:
        # set-up samples are spread evenly over the run, so a slow spell of
        # the host moves their median less
        due = min(SETUP_SAMPLES, 1 + int(SETUP_SAMPLES * (time.perf_counter() - start) / args.seconds))
        while len(setup) < due:
            setup.append(setup_sample(env))
        plain.append(wl.run_pass(False))
        if args.trace:
            traced.append(wl.run_pass(True))
        # stop where the run ends closest to --seconds: when the next
        # iteration would overshoot by more than half of itself
        elapsed = time.perf_counter() - start
        enough = len(plain) >= (MIN_TRACE_PAIRS if args.trace else MIN_PASSES)
        if enough and elapsed + elapsed / len(plain) / 2 >= args.seconds:
            break
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_sample(env))
    shutil.rmtree(wl.work, ignore_errors=True)

    every = plain + traced
    attempted = sum(len(r["calls"]) for r in every)
    failed = sum(c["failure"] is not None for r in every for c in r["calls"])
    incorrect = sorted({f"{wl.calls[i].argv[0]}: {c['failure']}"
                        for r in every for i, c in enumerate(r["calls"]) if c["incorrect"]})
    # same inputs, same bytes: across passes, and with tracing on or off
    identical = all(r["digests"] == plain[0]["digests"] for r in every)
    wall = statistics.median(r["wall_s"] for r in plain)
    row = {
        "workload": name,
        "fingerprint": plain[0]["fingerprint"],
        "passes": len(plain),
        "traced_passes": len(traced),
        "attempted": attempted,
        "failed": failed,
        "incorrect": incorrect,
        "identical": identical,
        "setup_samples": setup,
        "wall_s": wall,
        "ref_s": statistics.median(t for r in plain for t in r["ref_s"]),
        "end_to_end": {
            "setup_s": statistics.median(setup),
            "wall_rel": statistics.median(r["wall_s"] / statistics.fmean(r["ref_s"]) for r in plain),
            "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        },
        "call_seconds": [statistics.median(r["calls"][i]["seconds"] for r in plain) for i in range(len(wl.calls))],
        "call_failures": [sorted({r["calls"][i]["failure"] for r in every} - {None}) for i in range(len(wl.calls))],
    }
    if traced:
        layers = {
            m: statistics.median(r["layers"][m] for r in traced) for m in LAYER_METRICS if m != "trace.overhead_s"
        }
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - wall
        row["layers"] = layers
    return row


def report(row: dict) -> None:
    """Human-readable lines for one workload (the JSON result comes last)."""
    fp = row["fingerprint"]
    e2e = row["end_to_end"]
    ratio = row["failed"] / row["attempted"]
    print(
        f"# {row['workload']}: python {fp['python']}, nproc {fp['nproc']}, "
        f"gmpy2 {'present' if fp['gmpy2'] else 'absent'}, int_max_str_digits {fp['int_max_str_digits']}, "
        f"DIVFILT_THREADS {fp['DIVFILT_THREADS']}"
    )
    print(
        f"# {row['workload']}: setup_s {e2e['setup_s']:.4f} s ({len(row['setup_samples'])} samples), "
        f"wall_s {row['wall_s']:.4f} s, wall_rel {e2e['wall_rel']:.3f} ({row['passes']} passes; "
        f"reference loop {row['ref_s']:.4f} s), peak_rss_mb {e2e['peak_rss_mb']:.1f} MB, "
        f"ops_failed_ratio {ratio:.4f} ({row['failed']}/{row['attempted']})"
    )
    for call, secs, failures in zip(WORKLOADS[row["workload"]], row["call_seconds"], row["call_failures"]):
        status = "; ".join(failures) if failures else "ok"
        print(f"#   {' '.join(call.argv):<90} median {secs:8.4f} s  {status}")
    for line in row["incorrect"]:
        print(f"# INCORRECT {line}")
    if not row["identical"]:
        print("# INCORRECT report bytes differ between passes (traced or not)")
    if row["traced_passes"]:
        print(f"# {row['workload']}: {row['traced_passes']} traced passes")
        for name, value in row["layers"].items():
            shown = f"{int(value):>16d}" if float(value).is_integer() else f"{value:>16.6g}"
            print(f"#   {name:<32} {shown} {LAYER_METRICS[name]}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    src = root / "src"
    if not (src / "divfilt" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no divfilt sources under {src}; run from the root of a checkout\n")
        return 2
    names = list(README_WORKLOADS) if args.workload == "all" else [args.workload]
    work = WORK_ROOT / f"run-{os.getpid()}"
    try:
        values = make_inputs(args.seed, work / "inputs")
        env = child_env(src)
        rows = [run_workload(name, args, work, src, env, values) for name in names]
    except HarnessError as exc:
        sys.stderr.write(f"perfbench: {exc}\n")
        return 3
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"# seed {args.seed}: inputs {json.dumps({k: v for k, v in values.items() if k.startswith('alpha')})}")
    metrics = {}
    for row in rows:
        report(row)
        prefix = "" if len(rows) == 1 else f"{row['workload']}."
        chosen = row["layers"] if args.trace else row["end_to_end"]
        units = LAYER_METRICS if args.trace else END_TO_END
        for name, value in chosen.items():
            metrics[prefix + name] = {"value": value, "unit": units[name]}
    correct = all(not row["incorrect"] and row["identical"] for row in rows)
    result = {
        "correct": correct,
        "attempted": sum(row["attempted"] for row in rows),
        "failed": sum(row["failed"] for row in rows),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

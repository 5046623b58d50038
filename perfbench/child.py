"""One pass: run a workload's CLI calls in order in a fresh interpreter.

    python3 perfbench/child.py JOB.json

JOB.json names the checkout's `src` directory, the calls (full argv) and
where to write the result.  This process only launches the pass: it starts
a second interpreter (`child.py JOB.json --pass`) that does the work, and
adds that process's peak RSS, read with os.wait4, to the result, with the
times of the reference loop (perfbench/reference.py) it runs just before
and just after the pass.  It runs the loop itself, so that no state of the
program can slow it.  On Linux,
exec folds the starting process's memory high-water mark into the new
process's ru_maxrss; a pass started straight from the benchmark would
report at least the benchmark's own peak, while this launcher stays smaller
than any pass.

In the pass, each call goes through `divfilt.cli.main(argv)`; an exception
is recorded as the call's error and the pass goes on.  The pass's wall time
runs from the start of the first call to the end of the last.  With tracing
on, the spans are written to the job's spans file and their per-layer
summary is added to the result.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
from time import perf_counter


def fingerprint() -> dict:
    import importlib.util

    limit = getattr(sys, "get_int_max_str_digits", None)
    return {
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "gmpy2": importlib.util.find_spec("gmpy2") is not None,
        "int_max_str_digits": limit() if limit else None,
        "DIVFILT_THREADS": os.environ.get("DIVFILT_THREADS", "unset"),
    }


def launch(job_path: str) -> int:
    import reference

    ref_before = reference.seconds()
    proc = subprocess.Popen([sys.executable, __file__, job_path, "--pass"])
    # the benchmark stops a pass that overruns with SIGTERM: pass it on
    signal.signal(signal.SIGTERM, lambda *_: proc.kill())
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = code = os.waitstatus_to_exitcode(status)
    if code != 0:
        return code if code > 0 else 3
    ref_after = reference.seconds()
    with open(job_path, encoding="utf-8") as fh:
        result_path = json.load(fh)["result"]
    with open(result_path, encoding="utf-8") as fh:
        result = json.load(fh)
    result["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    result["ref_s"] = [ref_before, ref_after]
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


def run_pass(job_path: str) -> int:
    import traceback
    from pathlib import Path

    with open(job_path, encoding="utf-8") as fh:
        job = json.load(fh)
    src = Path(job["src"]).resolve()
    sys.path.insert(0, str(src))
    from divfilt import cli

    if src not in Path(cli.__file__).resolve().parents:
        sys.stderr.write(f"perfbench: divfilt imported from {cli.__file__}, not from {src}\n")
        return 3
    tracer = None
    if job["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()

    calls = []
    for op, call in enumerate(job["calls"]):
        if tracer is not None:
            tracer.op = op
        status = error = None
        t0 = perf_counter()
        try:
            status = cli.main(call["argv"])
        except SystemExit as exc:  # argparse rejects the command line
            status = exc.code if isinstance(exc.code, int) else 2
        except Exception as exc:
            error = f"{type(exc).__name__}: {str(exc)[:200]}"
            traceback.print_exc()
        calls.append({"status": status, "error": error, "seconds": perf_counter() - t0, "start": t0})
    wall = perf_counter() - calls[0]["start"] if calls else 0.0

    result = {"wall_s": wall, "calls": calls, "fingerprint": fingerprint()}
    if tracer is not None:
        tracer.write(job["spans"])
        layers = tracer.layer_metrics()
        layers["cli.output_bytes"] = sum(
            os.path.getsize(p) for c in job["calls"] for p in (c["out"], c.get("summary")) if p and os.path.exists(p)
        )
        result["layers"] = layers
    with open(job["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(run_pass(sys.argv[1]) if sys.argv[2:] == ["--pass"] else launch(sys.argv[1]))

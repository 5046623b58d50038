"""Run the `tier1` job of .github/workflows/tests.yml on this machine.

    python3 tools/ci_local.py

Each `run:` step runs in order from the repository root, as the workflow's
runner would: under `bash -e`, or `bash --noprofile --norc -eo pipefail` for
`shell: bash`, with its `timeout-minutes` applied.  All steps share one fresh
temporary `RUNNER_TEMP`, removed at the end.  The interpreter running this
script comes first on PATH, so the steps' `python` and `python3` are that
interpreter.  A step whose command contains `pip install` is skipped, and
reported as skipped.  Each step's status and seconds are printed; the exit
status is 1 if any step failed or timed out, else 0.

Needs the standard library and PyYAML.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _run(script: Path, shell: str | None, env: dict, minutes: float | None) -> str:
    """Run one step's script; its status: "ok", "failed" or "timed out"."""
    if shell == "bash":
        argv = ["bash", "--noprofile", "--norc", "-eo", "pipefail", str(script)]
    else:
        argv = ["bash", "-e", str(script)]
    # its own process group, so a timeout stops the whole step and not only bash
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, start_new_session=True)
    try:
        return "ok" if proc.wait(timeout=None if minutes is None else minutes * 60) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timed out"


def main() -> int:
    steps = yaml.safe_load(WORKFLOW.read_text(encoding="utf-8"))["jobs"]["tier1"]["steps"]
    results = []
    start = time.perf_counter()
    with tempfile.TemporaryDirectory(prefix="ci-local-") as work:
        env = dict(os.environ, RUNNER_TEMP=os.path.join(work, "temp"))
        env["PATH"] = os.pathsep.join([os.path.dirname(sys.executable), env.get("PATH", "")])
        os.mkdir(env["RUNNER_TEMP"])
        for i, step in enumerate(s for s in steps if "run" in s):
            name = step.get("name", step["run"].splitlines()[0])
            print(f"== {name}", flush=True)
            if "pip install" in step["run"]:
                status, seconds = "skipped", 0.0
            else:
                script = Path(work, f"step-{i}.sh")
                script.write_text(step["run"], encoding="utf-8")
                t0 = time.perf_counter()
                status = _run(script, step.get("shell"), env, step.get("timeout-minutes"))
                seconds = time.perf_counter() - t0
            print(f"-- {status} in {seconds:.1f} s: {name}", flush=True)
            results.append((status, seconds, name))
    print(f"\n{'status':<10} {'seconds':>8}  step")
    for status, seconds, name in results:
        print(f"{status:<10} {seconds:8.1f}  {name}")
    failed = [r for r in results if r[0] in ("failed", "timed out")]
    print(f"{len(results) - len(failed)} of {len(results)} steps passed or skipped, "
          f"{len(failed)} failed; {time.perf_counter() - start:.1f} s in all")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())

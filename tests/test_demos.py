"""Each demo's stdout is pinned by its sha256, so a change that alters what
a demo prints shows here instead of in a manual comparison."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

DEMO_SHA256 = {
    "beatty_partition": "d3f67cbe65c19c783d0fa5a7534100c80efc71b5db5e595db57aef0af6b49569",
    "elliptic_point_sequence": "25199fca2fb839f0ec0984ff749a3ad438b3d1e9227742730907bb19e7bc7bfe",
    "limit_audit_walkthrough": "23381d79c33bf5fed233d2ac54c503af31ded26d04b7159d7381f9d434e78e79",
    "monomial_generator_counts": "d75cfe1a79b29e2abd3fbe03906e404b41d12334af329ab50197bf596c6dae2c",
    "quadratic_field_basics": "a0bd28cf6583c17c1055fc5502595793963a0bb4fdb4481f907f1607f129061f",
}


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_SHA256)


@pytest.mark.parametrize("name", sorted(DEMO_SHA256))
def test_demo_stdout_pinned(name):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / f"{name}.py")],
        capture_output=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert hashlib.sha256(proc.stdout).hexdigest() == DEMO_SHA256[name]

"""Every script under demos/ runs to completion against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=lambda path: path.name)
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(script)],
        capture_output=True,
        cwd=ROOT,
        env=env,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr.decode()[-2000:]

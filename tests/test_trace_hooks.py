"""The traced benchmark wraps ziskit functions by name; every name must exist."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_perfbench_spans_install_finds_every_wrapped_name():
    code = ("import sys; sys.path.insert(0, 'perfbench'); "
            "from spans import Recorder, install; install(Recorder('x'))")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH", "")) if p))
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr

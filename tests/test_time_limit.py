"""The suite's per-test time limit (tests/conftest.py) fails a test that spins."""

import os
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_a_spinning_test_fails_at_the_limit(tmp_path):
    # the real fixture, its limit lowered to 1 s, on a test that never ends
    (tmp_path / "conftest.py").write_text(
        "import tests.conftest as limits\nfrom tests.conftest import time_limit\n"
        "limits.TIME_LIMIT_S = 1\n")
    (tmp_path / "test_spin.py").write_text("def test_spin():\n    while True:\n        pass\n")
    # the caller's path stays after the repository's: pytest may come from it
    path = [str(ROOT), str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    start = time.perf_counter()
    out = subprocess.run([sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
                          str(tmp_path)], capture_output=True, text=True, env=env,
                         cwd=tmp_path, timeout=60)
    assert out.returncode == 1, out.stdout + out.stderr
    assert "ran past its time limit of 1 s" in out.stdout
    assert time.perf_counter() - start < 30

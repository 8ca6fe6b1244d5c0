"""The demo scripts run to completion and print their headline results,
and the package source states its invariants by raising, not by assert."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# a few lines each demo must print, whole
DEMO_LINES = {
    "classify_and_notation.py": [
        "|A+A| = 26, |A-A| = 25 -> sum-dominant",
        "C is balanced",
        "parsed back: IntSet({0, 2, 3, 4, 7, 11, 12, 14}) (equal: True)",
    ],
    "constructions.py": [
        "k_set(9): 10 elements, |A+A|-|A-A| = 32-31 = 1",
        "union is {1..145}: True",
        "m=100: span 224, all parts sum-dominant",
    ],
    "search_reproductions.py": [
        "n=15: N = 9 after examining 4096 candidate subsets",
        "n=14: N = None (2510 candidates, absence certified)",
        "minsize(13): 5811 candidates, 0 witnesses (diameter 14 is necessary)",
        "r=24: infeasible (exhaustive: no split of {1..24} into three "
        "sum-dominant parts)",
        "r=145: feasible",
    ],
}


def test_every_demo_is_checked():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMO_LINES)


@pytest.mark.parametrize("demo", sorted(DEMO_LINES))
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    env.pop("MSTD_THREADS", None)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    for line in DEMO_LINES[demo]:
        assert line in lines


def test_no_assert_in_the_package():
    # python -O strips assert statements, so an invariant must raise
    found = [f"{path.name}:{node.lineno}"
             for path in sorted((ROOT / "src" / "mstd").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []

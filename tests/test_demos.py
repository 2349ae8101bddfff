import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

# one line each demo is known to print
DEMOS = {
    "01_soccer_ball_graph.py": "32 nodes, 90 edges",
    "02_seepage_coloring.py": "identifying code: True",
    "03_encode_solve_enumerate.py": "26 codes of size exactly 10:",
    "04_proof_checking.py": "verified: contradiction at id 14, 16 steps checked",
    "05_exhaustive_certification.py": "  family III: 10",
}


def test_every_demo_is_listed():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(DEMOS)


@pytest.mark.parametrize("name", sorted(DEMOS))
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])
    )
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=tmp_path,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert DEMOS[name] in proc.stdout.splitlines()

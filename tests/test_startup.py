"""sbgkit starts without numpy: only the oracle needs it, and imports it on
its first call.  Each test runs a fresh interpreter, because this one has
numpy loaded already."""

import json
import os
import subprocess
import sys
from pathlib import Path

from sbgkit.cli import main
from sbgkit.fixtures import EXAMPLE_UNSAT_OPB, EXAMPLE_UNSAT_PROOF

SRC = Path(__file__).resolve().parents[1] / "src"

# Runs sbgkit.cli.main on each argv in the JSON list sys.argv[1] with numpy
# blocked, and prints [exit code, stdout, stderr] per argv as JSON.
WITHOUT_NUMPY = """
import contextlib, io, json, sys
sys.modules["numpy"] = None
from sbgkit.cli import main
out = []
for argv in json.loads(sys.argv[1]):
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    out.append([code, stdout.getvalue(), stderr.getvalue()])
print(json.dumps(out))
"""


def _python(code, *args):
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", code, *args],
        capture_output=True, text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path),
    )
    assert run.returncode == 0 and not run.stderr, run.stderr
    return run.stdout


def _without_numpy(commands):
    return json.loads(_python(WITHOUT_NUMPY, json.dumps(commands)))


def test_importing_sbgkit_loads_no_numpy():
    out = _python(
        "import sys, sbgkit, sbgkit.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    assert out == "[]\n"


def test_every_route_but_the_oracle_runs_without_numpy(tmp_path, capsys):
    sbg, opb9, opb10 = tmp_path / "sbg.txt", tmp_path / "sbg9.opb", tmp_path / "sbg10.opb"
    fixture, proof = tmp_path / "ex.opb", tmp_path / "ex.pbp"
    fixture.write_text(EXAMPLE_UNSAT_OPB)
    proof.write_text(EXAMPLE_UNSAT_PROOF)
    ring = ",".join([f"H2_{j}" for j in range(1, 6)] + [f"H5_{j}" for j in range(1, 6)])
    commands = [
        ["build-sbg", "--out", str(sbg)],
        ["check-ics", "--graph", str(sbg), "--set", ring],
        ["color", "--graph", str(sbg), "--inject", ring],
        ["encode", "--graph", str(sbg), "--budget", "9", "--out", str(opb9)],
        ["encode", "--graph", str(sbg), "--budget", "10", "--exact", "--out", str(opb10)],
        ["solve", str(opb9)],
        ["enumerate", str(opb10)],
        ["verify", str(fixture), str(proof)],
    ]
    with_numpy = []
    for argv in commands:
        code = main(argv)
        out, err = capsys.readouterr()
        with_numpy.append([code, out, err])
    written = [p.read_bytes() for p in (sbg, opb9, opb10)]

    assert _without_numpy(commands) == with_numpy
    assert all(code == 0 and out and not err for code, out, err in with_numpy)
    assert [p.read_bytes() for p in (sbg, opb9, opb10)] == written


def test_the_oracle_without_numpy_is_one_line_and_exit_1(tmp_path):
    sbg = tmp_path / "sbg.txt"
    assert main(["build-sbg", "--out", str(sbg)]) == 0
    report = tmp_path / "report.json"
    oracle, reproduce = _without_numpy([
        ["oracle", "--graph", str(sbg), "--k", "3"],
        ["reproduce", "--report", str(report)],
    ])
    assert oracle == [1, "", "error: sbgkit oracle needs numpy, which is not installed\n"]
    code, out, err = reproduce
    assert code == 1 and err == "error: sbgkit reproduce needs numpy, which is not installed\n"
    # the checks before the first oracle count ran and passed; no report is written
    assert out.splitlines()[-1] == "[PASS] budget-9 encoding size: expected 273, got 273"
    assert not report.exists()

import os
import subprocess
import sys
from pathlib import Path

import pytest

from heatsphere.cli import SUITES

ROOT = Path(__file__).resolve().parents[1]


def script_argv(name, *args):
    return [sys.executable, str(ROOT / "scripts" / name), *args]


def script_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def run_script(name, *args):
    argv = script_argv(name, *args)
    return subprocess.run(argv, capture_output=True, text=True, env=script_env())


def test_run_verifications_reports_every_suite():
    proc = run_script("run_verifications.py")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    # every suite at its default box, in registry order, then the asympt probes
    points = [line.split(": ", 1) for line in lines[: len(SUITES)]]
    assert [head for head, _ in points] == [f"PASS {name}" for name in SUITES]
    counts = [int(tail.split()[0]) for _, tail in points]
    assert counts == [50, 100, 20, 121, 144, 8, 80, 80, 360, 3]
    asympt = lines[len(SUITES):]
    assert len(asympt) == 9 and all(line.startswith("PASS asympt ") for line in asympt)


@pytest.mark.parametrize(
    "name, args, first",
    [
        # every suite still runs with its output discarded, and all of them pass
        ("run_verifications.py", (), f"PASS {next(iter(SUITES))}: "),
        ("coefficient_table.py", ("--max-n", "40", "--max-d", "40"), "n \\ d"),
    ],
)
def test_script_into_a_closed_pipe_exits_cleanly(name, args, first):
    proc = subprocess.Popen(
        script_argv(name, *args),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=script_env(),
    )
    assert proc.stdout.readline().startswith(first)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait() == 0
    assert "Traceback" not in err and "BrokenPipeError" not in err


def test_coefficient_table_runs():
    proc = run_script("coefficient_table.py", "--max-n", "3", "--max-d", "3")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 2 + 4
    assert lines[0].split(" | ")[0].strip() == "n \\ d"

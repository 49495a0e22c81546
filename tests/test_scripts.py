"""The two experiment scripts run end to end at their smallest settings."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        env=env, capture_output=True, text=True, timeout=120,
    )


def test_run_example1(tmp_path):
    proc = run_script("run_example1.py", "--dest", str(tmp_path), "--max-loops", "1")
    assert proc.returncode == 0, proc.stderr
    assert "strong improvement (budget 1, delta 1/2): yes" in proc.stdout
    assert (tmp_path / "example1.game").exists()
    assert (tmp_path / "witness.rm").exists()


def test_run_reductions():
    proc = run_script("run_reductions.py", "--instances", "1", "--cities", "3",
                      "--skip-hamiltonian")
    assert proc.returncode == 0, proc.stderr
    assert "tour games: 1 instances, 3 cities" in proc.stdout

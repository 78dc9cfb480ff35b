import subprocess
import sys
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_desk_experiment_smoke(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / "desk_experiment.py"),
         "--out", str(tmp_path), "--per-class", "4", "--seeds", "1",
         "--epochs", "1", "--k", "3"],
        capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert "q=2 matched or beat q=1 in" in proc.stdout
    assert "seed 0 q=1: mean" in proc.stdout and "seed 0 q=2: mean" in proc.stdout

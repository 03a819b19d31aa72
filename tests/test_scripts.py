"""The study scripts run end to end on small inputs."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_script(name, *args, cwd):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p]
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=300,
    )


def test_extractor_study(tmp_path):
    done = run_script("extractor_study.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert "extracted features:" in done.stdout


def test_two_regime_study_writes_theta_curve(tmp_path):
    done = run_script(
        "two_regime_study.py", "--n-train", "60", "--n-test", "30",
        "--out-dir", str(tmp_path / "out"), cwd=tmp_path,
    )
    assert done.returncode == 0, done.stderr
    lines = (tmp_path / "out" / "theta_curve_seed0.csv").read_text().splitlines()
    assert lines[0] == "theta,accuracy"
    assert len(lines) > 2

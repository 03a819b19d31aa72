"""The scripts run end to end: the studies on small inputs, the source-size
gate on the package as it stands."""

from conftest import ROOT, run_python


def run_script(name, *args, cwd):
    return run_python([str(ROOT / "scripts" / name), *args], timeout=300, cwd=cwd)


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
    # the head-to-head table: one row of five columns per family
    out = done.stdout.splitlines()
    head = next(i for i, line in enumerate(out) if line.split()[:1] == ["spec"])
    rows = [line.split() for line in out[head + 1:]]
    assert [row[0] for row in rows] == ["softmax", "linear_svm", "random_forest"]
    assert all(len(row) == 5 for row in rows)


def test_source_size_is_within_its_bounds(tmp_path):
    done = run_script("source_size.py", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1].endswith("src/cpckit: physical, code lines")

"""The study scripts run end to end on small inputs."""

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


def test_wide_route_prints_one_line_per_width(tmp_path):
    # d=40 > disc_k=25: mixed queries route with the neighbours' span as state
    done = run_script("wide_route.py", "--dims", "8", "40", "--queries", "5",
                      "--repeats", "1", cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[:2] for line in lines] == [["d=8", "queries=10"], ["d=40", "queries=10"]]
    assert int(lines[1].split()[2].removeprefix("mixed=")) > 0

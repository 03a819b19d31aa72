"""Each committed benchmark record keeps what a speed claim needs: the
machine's core count and numpy version, and the source size on both sides.
From BENCH_23 on, when workloads started to fork, a record also keeps each
run's raw unit median on both sides, so a host-corrected gain can be read
against raw times. From BENCH_28 on, when CI began to count code lines, it
also keeps the code-line count on both sides."""

import json

import pytest

from conftest import ROOT

RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_are_committed():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_keeps_environment_and_source_size(path):
    record = json.loads(path.read_text())
    assert record["environment"]["nproc"] >= 1
    assert record["environment"]["numpy"]
    assert record["src_lines"]["parent"] > 0
    assert record["src_lines"]["change"] > 0


def _number(path):
    return int(path.stem.split("_")[1])


@pytest.mark.parametrize("path", [p for p in RECORDS if _number(p) >= 23], ids=lambda p: p.name)
def test_record_keeps_raw_unit_medians_per_pair(path):
    for name, w in json.loads(path.read_text())["workloads"].items():
        raw = w["raw_unit_s_median_per_run"]
        for side in ("parent", "change"):
            assert len(raw[side]) == w["pairs"], (name, side)
            assert all(t > 0 for t in raw[side]), (name, side)


@pytest.mark.parametrize("path", [p for p in RECORDS if _number(p) >= 28], ids=lambda p: p.name)
def test_record_keeps_code_lines(path):
    record = json.loads(path.read_text())
    assert record["code_lines"]["parent"] > 0
    assert record["code_lines"]["change"] > 0

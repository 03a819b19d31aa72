"""Each committed benchmark record keeps what a speed claim needs: the
machine's core count and numpy version, and the source size on both sides."""

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

"""The README's CLI sequence gives the recorded bytes, and its library
blocks print the recorded numbers.

Each command runs in-process through cli.main, in order, in a fresh working
directory and with the README's relative file names, because reports echo
their paths. The sha256 of every file a command writes, and of its stdout,
is compared with readme_digests.json. That record names the numpy version
it was taken with; on any other numpy the test skips, since summation order
and BLAS kernels may move the last bits of a float. RUNS must be the
README's `cpckit` command lines, so the record cannot drift from the README.
The README's Python blocks run in order in one namespace, and their stdout
is compared with LIBRARY_STDOUT on the same numpy.

After a change meant to alter an output, record the digests again with

    PYTHONPATH=src python tests/test_readme_outputs.py
"""

import contextlib
import hashlib
import io
import json
import os
import platform
import re
import shlex
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from cpckit.cli import main

DIGESTS = Path(__file__).with_name("readme_digests.json")
README = Path(__file__).resolve().parent.parent / "README.md"
LIBRARY_STDOUT = "0.665\n0.53875\n0.6075\n"

RUNS = [  # (command line, files it writes)
    ("synth --n-easy 400 --n-hard 400 --classes 4 --dim 8 --easy-margin 6.0 "
     "--hard-margin 0.8 --seed 0 --out train.csv", ["train.csv"]),
    ("synth --n-easy 200 --n-hard 200 --classes 4 --dim 8 --seed 1 --out test.csv",
     ["test.csv"]),
    ("baseline --train train.csv --test test.csv --clf softmax --report base.json",
     ["base.json"]),
    ("baseline --train train.csv --test test.csv --clf forest --report forest.json",
     ["forest.json"]),
    ("sweep --train train.csv --val test.csv --grid 0.0:1.0:0.1 --curve-out curve.csv "
     "--report sweep.json", ["curve.csv", "sweep.json"]),
    ("cpc --train train.csv --test test.csv --theta 0.5 --report cpc.json", ["cpc.json"]),
    ("cv --in train.csv --folds 5 --mode cpc --theta 0.5 --report cv.json", ["cv.json"]),
    ("cv --in train.csv --folds 5 --clf forest --trees 30 --zca "
     "--arch 'in:8 concat:32 head:4' --report cv_mlp.json", ["cv_mlp.json"]),
    ("preprocess --in train.csv --zca --transform-out zca.json --out white.csv",
     ["zca.json", "white.csv"]),
    ("preprocess --in test.csv --transform-in zca.json --out white_test.csv",
     ["white_test.csv"]),
    ("train-extractor --in train.csv --arch 'in:8 concat:32 head:4' --epochs 40 "
     "--model-out mlp.json", ["mlp.json"]),
    ("extract --model mlp.json --in test.csv --out feats.csv", ["feats.csv"]),
]


def run_sequence() -> dict:
    """Run RUNS in the working directory; the sha256 of each output, the
    files by name and each stdout by "$ command line"."""
    digests = {}
    for line, files in RUNS:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = main(shlex.split(line))
        assert code == 0, f"{line!r} exited {code}"
        digests[f"$ {line}"] = hashlib.sha256(out.getvalue().encode()).hexdigest()
        for name in files:
            digests[name] = hashlib.sha256(Path(name).read_bytes()).hexdigest()
    return digests


def readme_blocks(language: str) -> list[str]:
    """The README's fenced code blocks in the given language, in order."""
    return re.findall(rf"^```{language}\n(.*?)^```", README.read_text(), re.M | re.S)


def skip_unless_recorded_numpy():
    recorded = json.loads(DIGESTS.read_text())["numpy"]
    if recorded != np.__version__:
        pytest.skip(f"digests were recorded with numpy {recorded}, "
                    f"this is numpy {np.__version__}")


def test_runs_are_the_readme_commands():
    lines = "\n".join(readme_blocks("sh")).replace("\\\n", " ").splitlines()
    readme = [shlex.split(line)[1:] for line in lines if line.startswith("cpckit ")]
    assert readme == [shlex.split(line) for line, _ in RUNS]


def test_readme_outputs_match_the_record(tmp_path, monkeypatch):
    skip_unless_recorded_numpy()
    record = json.loads(DIGESTS.read_text())
    monkeypatch.chdir(tmp_path)
    got = run_sequence()
    want = record["outputs"]
    assert got.keys() == want.keys()
    differ = [name for name in want if got[name] != want[name]]
    assert not differ, f"outputs differ from the record: {differ}"


def test_readme_library_blocks_print_the_record():
    skip_unless_recorded_numpy()
    blocks = readme_blocks("python")
    assert len(blocks) == 2
    namespace, out = {}, io.StringIO()
    with contextlib.redirect_stdout(out):
        for block in blocks:
            exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue() == LIBRARY_STDOUT


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        outputs = run_sequence()
    record = {"numpy": np.__version__, "python": platform.python_version(),
              "machine": platform.machine(), "outputs": outputs}
    DIGESTS.write_text(json.dumps(record, indent=1) + "\n")
    print(f"{len(outputs)} digests written to {DIGESTS}", file=sys.stderr)

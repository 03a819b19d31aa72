"""End-to-end CLI behavior: exit codes, file artifacts, determinism."""

import contextlib
import io
import json
import math
import multiprocessing
import os
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpckit import harness
from cpckit.classifiers import fit, forest_spec, softmax_spec
from cpckit.cli import _parse_grid, main
from cpckit.cpc import CpcConfig, cpc_predict_many, train_cpc
from cpckit.dataset import (
    LabeledDataset, generate_two_regime, kfold, load_dataset, take, write_dataset,
)
from cpckit.errors import ConfigError, DataError, Divergence
from cpckit.harness import PipelineConfig, PreprocessConfig, cross_validate, evaluate
from cpckit.preprocess import fit_zca, save_transform

from conftest import force_cpus, run_python


def blobs(n=60, d=2, C=3, seed=0, margin=8.0):
    rng = np.random.default_rng(seed)
    ang = 2 * np.pi * np.arange(C) / C
    r = margin / (2 * np.sin(np.pi / C))
    centers = np.column_stack([r * np.cos(ang), r * np.sin(ang)])
    labels = np.arange(n) % C
    feats = rng.standard_normal((n, d)) + centers[labels]
    return LabeledDataset(feats, labels, C)


@pytest.fixture
def data_files(tmp_path):
    train = tmp_path / "train.csv"
    test = tmp_path / "test.csv"
    write_dataset(blobs(60, seed=0), train)
    write_dataset(blobs(21, seed=1), test)
    return tmp_path, train, test


def synth_file(tmp_path, scale):
    """`synth --n-easy 100 --n-hard 100` (d = 8, 4 classes, seed 0) with
    every feature times scale."""
    ds = generate_two_regime(100, 100, 4, 8, 6.0, 0.8, seed=0)
    path = tmp_path / f"synth_x{scale:g}.csv"
    write_dataset(LabeledDataset(ds.features * scale, ds.labels, 4), path)
    return path


class TestParseGrid:
    def test_inclusive_endpoints(self):
        assert _parse_grid("0.0:1.0:0.25") == [0.0, 0.25, 0.5, 0.75, 1.0]

    def test_default_grid_has_eleven_points(self):
        assert len(_parse_grid("0.0:1.0:0.1")) == 11

    def test_malformed(self):
        for bad in ("0:1", "0:1:0", "a:b:c", "1.0:0.0:0.1"):
            with pytest.raises(ConfigError):
                _parse_grid(bad)


class TestSynth:
    def test_writes_csv(self, tmp_path):
        out = tmp_path / "data.csv"
        code = main(
            [
                "synth", "--n-easy", "30", "--n-hard", "30", "--classes", "3",
                "--dim", "4", "--seed", "5", "--out", str(out),
            ]
        )
        assert code == 0
        rows = out.read_text().strip().splitlines()
        assert len(rows) == 60
        assert len(rows[0].split(",")) == 5  # 4 features + label

    def test_identical_seeds_identical_bytes(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        argv = ["synth", "--n-easy", "20", "--n-hard", "20", "--seed", "9"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize(
        "margins",
        [["--easy-margin", "inf"], ["--easy-margin", "nan"], ["--hard-margin", "nan"]],
        ids=["easy-inf", "easy-nan", "hard-nan"],
    )
    def test_non_finite_margin_is_config_error(self, tmp_path, margins):
        # exited 2 ("row 0, column 0 is nan") after numpy RuntimeWarnings
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["synth", "--n-easy", "5", "--n-hard", "5", *margins,
                         "--out", str(tmp_path / "x.csv")])
        assert code == 1

    def test_bad_spec_is_config_error(self, tmp_path):
        code = main(
            [
                "synth", "--n-easy", "10", "--n-hard", "10", "--classes", "1",
                "--out", str(tmp_path / "x.csv"),
            ]
        )
        assert code == 1


class TestPreprocess:
    def test_zca_round_trip_via_saved_transform(self, data_files):
        tmp, train, test = data_files
        out1 = tmp / "white1.csv"
        out2 = tmp / "white2.csv"
        transform = tmp / "transform.json"
        assert (
            main(
                [
                    "preprocess", "--in", str(train), "--zca",
                    "--transform-out", str(transform), "--out", str(out1),
                ]
            )
            == 0
        )
        assert transform.exists()
        # applying the saved transform to the same data reproduces the output
        assert (
            main(
                [
                    "preprocess", "--in", str(train),
                    "--transform-in", str(transform), "--out", str(out2),
                ]
            )
            == 0
        )
        assert out1.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("flags", [
        ["--transform-out", "z.json"],
        ["--transform-in", "t.json", "--transform-out", "z.json"],
        ["--transform-in", "t.json", "--zca", "--epsilon", "5"],
    ], ids=["out-without-zca", "in-and-out", "in-with-zca"])
    def test_flags_that_would_do_nothing_are_config_errors(self, data_files, flags):
        # each exited 0 and ignored the flags; now refused before --in is read
        tmp, train, _ = data_files
        save_transform(fit_zca(load_dataset(train), 1e-6), tmp / "t.json")
        flags = [str(tmp / f) if f.endswith(".json") else f for f in flags]
        for data in (train, tmp / "missing.csv"):
            code = main(["preprocess", "--in", str(data), *flags, "--out", str(tmp / "o.csv")])
            assert code == 1
        assert not (tmp / "z.json").exists() and not (tmp / "o.csv").exists()

    def test_missing_input_is_data_error(self, tmp_path):
        code = main(
            ["preprocess", "--in", str(tmp_path / "nope.csv"), "--out",
             str(tmp_path / "out.csv")]
        )
        assert code == 2

    def test_ragged_csv_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("1.0,2.0,0\n1.0,1\n")
        code = main(
            ["preprocess", "--in", str(bad), "--out", str(tmp_path / "out.csv")]
        )
        assert code == 2

    def test_transform_rotation_not_d_by_d_is_data_error(self, data_files, capsys):
        tmp, train, _ = data_files
        transform = tmp / "t.json"
        transform.write_text(json.dumps({"mean": [0.0, 0.0], "rotation": [[1.0, 0.0, 0.0]] * 3,
                                         "epsilon": 1e-6}))
        code = main(["preprocess", "--in", str(train), "--transform-in", str(transform),
                     "--out", str(tmp / "out.csv")])
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestExtractorCommands:
    def test_train_then_extract(self, data_files):
        tmp, train, _ = data_files
        model = tmp / "extractor.json"
        feats = tmp / "features.csv"
        code = main(
            [
                "train-extractor", "--in", str(train),
                "--arch", "in:2 concat:8 head:3", "--epochs", "5",
                "--dropout", "0.0", "--model-out", str(model),
            ]
        )
        assert code == 0
        assert json.loads(model.read_text())["arch"] == "in:2 concat:8 head:3"
        assert main(["extract", "--model", str(model), "--in", str(train),
                     "--out", str(feats)]) == 0
        rows = feats.read_text().strip().splitlines()
        assert len(rows) == 60
        assert len(rows[0].split(",")) == 11  # concat width 8 + 2, plus label

    @pytest.mark.parametrize(
        "edit",
        [
            lambda text, obj: "not json {",
            lambda text, obj: json.dumps({k: v for k, v in obj.items() if k != "weights"}),
            lambda text, obj: json.dumps({**obj, "weights": [w[:-1] for w in obj["weights"]]}),
            lambda text, obj: json.dumps({**obj, "activation": "identity"}),
        ],
        ids=["not-json", "no-weights", "weights-wrong-shape", "identity-activation"],
    )
    def test_malformed_model_is_data_error(self, data_files, edit, capsys):
        tmp, train, _ = data_files
        model = tmp / "m.json"
        assert main(["train-extractor", "--in", str(train), "--arch", "in:2 fc:8 head:3",
                     "--epochs", "1", "--model-out", str(model)]) == 0
        text = model.read_text()
        model.write_text(edit(text, json.loads(text)))
        capsys.readouterr()
        code = main(["extract", "--model", str(model), "--in", str(train),
                     "--out", str(tmp / "f.csv")])
        assert code == 2
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_arch_width_mismatch_is_config_error(self, data_files):
        tmp, train, _ = data_files
        code = main(
            [
                "train-extractor", "--in", str(train),
                "--arch", "in:7 fc:8 head:3", "--model-out", str(tmp / "m.json"),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "argv, scale",
        [(["--lr", "1e9", "--epochs", "40", "--dropout", "0.0"], 1.0), (["--epochs", "1"], 1e200)],
        ids=["lr", "scaled"],
    )
    def test_divergence_is_numerical_error(self, tmp_path, argv, scale, capsys):
        train = synth_file(tmp_path, scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning escapes main
            code = main(["train-extractor", "--in", str(train), "--arch", "in:8 fc:16 head:4",
                         *argv, "--model-out", str(tmp_path / "m.json")])
        assert code == 3
        assert len(capsys.readouterr().err.splitlines()) == 1

    def test_overflowing_extractor_output_is_numerical_failure(self, tmp_path, capsys):
        # one epoch on rows near 1e100 leaves finite weights that rows near
        # 1e200 overflow
        train, big = synth_file(tmp_path, 1e100), synth_file(tmp_path, 1e200)
        model = tmp_path / "m.json"
        assert main(["train-extractor", "--in", str(train), "--arch", "in:8 fc:16 head:4",
                     "--epochs", "1", "--model-out", str(model)]) == 0
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning escapes main
            code = main(["extract", "--model", str(model), "--in", str(big),
                         "--out", str(tmp_path / "f.csv")])
        assert code == 3
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestExtractorArchRule:
    """train-extractor and cv --arch share one rule: in: equals d and head:
    is at least the class count."""

    @pytest.fixture
    def four_classes(self, tmp_path):
        path = tmp_path / "four.csv"
        write_dataset(blobs(60, C=4, seed=0), path)
        return tmp_path, path

    def test_cv_accepts_a_wider_head(self, four_classes):
        tmp, data = four_classes
        code = main(["cv", "--in", str(data), "--folds", "3", "--epochs", "5",
                     "--arch", "in:2 concat:8 head:5", "--extractor-epochs", "2",
                     "--report", str(tmp / "cv.json")])
        assert code == 0

    @pytest.mark.parametrize("arch", ["in:2 concat:8 head:3", "in:7 concat:8 head:4"])
    @pytest.mark.parametrize("command", ["train-extractor", "cv"])
    def test_narrow_head_or_wrong_width_is_config_error(self, four_classes, command, arch):
        tmp, data = four_classes
        out = (["--model-out", str(tmp / "m.json")] if command == "train-extractor"
               else ["--report", str(tmp / "cv.json")])
        assert main([command, "--in", str(data), "--arch", arch, *out]) == 1


class TestNumericFlagsAndOverflow:
    @pytest.mark.parametrize(
        "argv",
        [
            ["preprocess", "--normalize", "--eps-norm", "nan"],
            ["preprocess", "--normalize", "--eps-norm", "0"],
            ["preprocess", "--normalize", "--eps-norm", "-1"],
            ["preprocess", "--zca", "--epsilon", "nan"],
            ["preprocess", "--zca", "--epsilon", "-1"],
            ["cv", "--zca", "--epsilon", "-1"],
            ["cv", "--zca", "--epsilon", "inf"],
            # each exited 0 while the stage that reads the flag was off
            ["preprocess", "--eps-norm", "-1"],
            ["preprocess", "--epsilon", "-1"],
            ["cv", "--epsilon", "-1"],
            ["cv", "--epsilon", "nan"],
        ],
        ids=["eps-norm-nan", "eps-norm-zero", "eps-norm-negative", "epsilon-nan", "epsilon-negative", "cv-epsilon-negative",
             "cv-epsilon-inf", "eps-norm-negative-without-normalize",
             "epsilon-negative-without-zca", "cv-epsilon-negative-without-zca",
             "cv-epsilon-nan-without-zca"],
    )
    def test_flag_outside_its_domain_is_config_error(self, data_files, argv, capsys):
        tmp, train, _ = data_files
        out = (["--out", str(tmp / "o.csv")] if argv[0] == "preprocess"
               else ["--folds", "3", "--epochs", "5", "--report", str(tmp / "cv.json")])
        assert main([argv[0], "--in", str(train), *argv[1:], *out]) == 1
        assert repr(float(argv[-1])) in capsys.readouterr().err  # names the value

    @pytest.mark.parametrize(
        "argv, scale",
        [
            (["baseline", "--lr", "nan"], 1.0),
            (["baseline", "--lr", "inf"], 1.0),
            (["baseline", "--clf", "svm", "--l2", "nan"], 1.0),
            (["cpc", "--theta", "0.5", "--l2", "inf"], 1.0),
            (["train-extractor", "--lr", "inf"], 1.0),
            (["cv", "--zca", "--lr", "nan"], 1e300),
            (["cv", "--mode", "cpc", "--zca", "--k-folds", "0"], 1e300),
            (["cpc", "--theta", "0.5", "--seed", "-1"], 1.0),
            (["sweep", "--seed", "-1"], 1.0),
            (["baseline", "--clf", "softmax", "--trees", "-4", "--max-depth", "-2"], 1.0),
            (["cv", "--clf", "softmax", "--trees", "0"], 1.0),
            (["cv", "--clf", "forest", "--trees", "3", "--lr", "nan"], 1.0),
            (["cv", "--extractor-epochs", "-1"], 1.0),
            # each exited 3 when the whitening before the extractor overflowed
            (["cv", "--zca", "--arch", "in:8 bogus:4 head:4"], 1e300),
            (["cv", "--zca", "--arch", "in:8 fc:0 head:4"], 1e300),
            (["cv", "--zca", "--arch", "in:8 fc:4 head:1"], 1e300),
            (["cv", "--zca", "--arch", "in:8 add:4 head:4"], 1e300),
        ],
        ids=["lr-nan", "lr-inf", "svm-l2-nan", "cpc-l2-inf", "extractor-lr-inf",
             "cv-lr-nan-before-zca", "cv-k-folds-before-zca", "cpc-seed-negative",
             "sweep-seed-negative", "softmax-baseline-trees-and-max-depth",
             "softmax-cv-trees", "forest-cv-lr", "cv-extractor-epochs-without-arch",
             "cv-arch-unknown-block", "cv-arch-zero-width", "cv-arch-one-class",
             "cv-arch-add-width"],
    )
    def test_rate_l2_seed_and_folds_outside_their_domain(self, tmp_path, argv, scale):
        # each exited 0, 2 or 3 or raised out of main before it was refused;
        # a flag of another --clf is read by no spec, so only its parser refuses it
        data = str(synth_file(tmp_path, scale))
        files = {"cv": ["--in", data], "sweep": ["--train", data, "--val", data],
                 "train-extractor": ["--in", data, "--arch", "in:8 fc:16 head:4"]}
        out = (["--model-out", str(tmp_path / "m.json")] if argv[0] == "train-extractor"
               else ["--report", str(tmp_path / "r.json")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([*argv, *files.get(argv[0], ["--train", data, "--test", data]), *out])
        assert code == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["train-extractor", "--arch", "in:8 fc:4 head:4", "--lr", "-1"],
            ["train-extractor", "--arch", "in:8 bogus:4 head:4"],
            ["train-extractor", "--arch", "in:8 fc:4 head:4", "--feature-tap", "1"],
            ["cv", "--folds", "0"],
        ],
        ids=["extractor-lr", "extractor-arch", "extractor-feature-tap", "cv-folds"],
    )
    def test_flags_checked_before_the_data_is_read(self, tmp_path, argv):
        # each exited 2, the missing file's data error, instead of 1
        out = "--model-out" if argv[0] == "train-extractor" else "--report"
        missing = str(tmp_path / "missing.csv")
        assert main([*argv, "--in", missing, out, str(tmp_path / "o.json")]) == 1

    @pytest.mark.parametrize("command", ["preprocess", "cv"])
    def test_overflowing_zca_is_numerical_failure(self, tmp_path, command, capsys):
        big = tmp_path / "big.csv"
        ds = blobs(60, seed=0)
        write_dataset(LabeledDataset(ds.features * 1e200, ds.labels, 3), big)
        out = (["--out", str(tmp_path / "o.csv")] if command == "preprocess"
               else ["--report", str(tmp_path / "cv.json")])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning escapes main
            assert main([command, "--in", str(big), "--zca", *out]) == 3
        assert len(capsys.readouterr().err.splitlines()) == 1


class TestBaselineCommand:
    def test_report_schema(self, data_files):
        tmp, train, test = data_files
        report = tmp / "report.json"
        code = main(
            ["baseline", "--train", str(train), "--test", str(test),
             "--report", str(report)]
        )
        assert code == 0
        obj = json.loads(report.read_text())
        assert set(obj) == {"accuracy", "per_class", "confusion", "routes",
                            "config", "seed"}
        assert obj["routes"] is None
        assert obj["config"]["clf"] == "softmax"
        assert obj["config"]["spec"]["epochs"] == 100
        assert obj["accuracy"] >= 0.9

    def test_forest_flag(self, data_files):
        tmp, train, test = data_files
        report = tmp / "report.json"
        code = main(
            ["baseline", "--train", str(train), "--test", str(test),
             "--clf", "forest", "--trees", "11", "--report", str(report)]
        )
        assert code == 0
        assert json.loads(report.read_text())["config"]["trees"] == 11

    def test_nan_training_cell_is_data_error(self, data_files):
        tmp, train, test = data_files
        lines = train.read_text().splitlines()
        lines[3] = "nan," + lines[3].split(",", 1)[1]
        train.write_text("\n".join(lines) + "\n")
        code = main(
            ["baseline", "--train", str(train), "--test", str(test),
             "--clf", "forest", "--trees", "5", "--report", str(tmp / "r.json")]
        )
        assert code == 2

    @pytest.mark.parametrize(
        "argv, scale",
        [
            (["baseline", "--lr", "1e6"], 1.0),
            (["baseline"], 1e160),
            (["baseline", "--clf", "svm"], 1e160),
            (["cpc", "--theta", "0.5"], 1e160),
            (["sweep"], 1e160),
            (["cv", "--mode", "cpc"], 1e160),
        ],
        ids=["lr", "softmax-scaled", "svm-scaled", "cpc-scaled", "sweep-scaled", "cv-cpc-scaled"],
    )
    def test_sgd_divergence_is_numerical_error(self, tmp_path, argv, scale, capsys):
        data = str(synth_file(tmp_path, scale))
        files = {"cv": ["--in", data], "sweep": ["--train", data, "--val", data]}
        report = tmp_path / "r.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning escapes main
            code = main([*argv, *files.get(argv[0], ["--train", data, "--test", data]),
                         "--report", str(report)])
        assert code == 3
        assert not report.exists()
        assert len(capsys.readouterr().err.splitlines()) == 1


def without_class_zero(tmp_path):
    """A test file holding only classes 1 and 2 of the three-class data."""
    ds = blobs(21, seed=1)
    keep = ds.labels != 0
    path = tmp_path / "test_no0.csv"
    write_dataset(LabeledDataset(ds.features[keep], ds.labels[keep], 3), path)
    return path


def with_unseen_label(tmp_path):
    path = tmp_path / "test_unseen.csv"
    path.write_text("0.0,0.0,1\n1.0,1.0,9\n")
    return path


class TestTestLabelsFollowTraining:
    @pytest.mark.parametrize("cmd", ["baseline", "cpc"])
    def test_missing_class_keeps_training_labels(self, data_files, cmd):
        tmp, train, _ = data_files
        report = tmp / "r.json"
        argv = [cmd, "--train", str(train), "--test", str(without_class_zero(tmp)),
                "--epochs", "30", "--report", str(report)]
        if cmd == "cpc":
            argv += ["--theta", "0.5", "--disc-k", "5"]
        assert main(argv) == 0
        obj = json.loads(report.read_text())
        assert obj["accuracy"] >= 0.9
        assert len(obj["confusion"]) == 3

    @pytest.mark.parametrize("cmd", ["baseline", "cpc", "sweep"])
    def test_unseen_label_is_data_error(self, data_files, cmd):
        tmp, train, _ = data_files
        other = "--val" if cmd == "sweep" else "--test"
        argv = [cmd, "--train", str(train), other, str(with_unseen_label(tmp)),
                "--epochs", "5", "--report", str(tmp / "r.json")]
        if cmd == "cpc":
            argv += ["--theta", "0.5"]
        assert main(argv) == 2


def labels_of(path):
    return [int(line.rsplit(",", 1)[1]) for line in path.read_text().split()]


class TestFileCommandsKeepLabels:
    """preprocess --transform-in and extract write each row's label as they
    read it, so the train/test commands see a test file's labels unchanged."""

    @pytest.fixture(params=["preprocess", "extract"])
    def transform(self, request, data_files):
        """The training file transformed, and a function that transforms
        another file the same way and returns its path."""
        tmp, train, _ = data_files
        fitted, train_out = tmp / "fitted.json", tmp / "train_t.csv"
        if request.param == "preprocess":
            assert main(["preprocess", "--in", str(train), "--zca", "--transform-out",
                         str(fitted), "--out", str(train_out)]) == 0
            argv = ["preprocess", "--transform-in", str(fitted)]
        else:
            assert main(["train-extractor", "--in", str(train), "--arch", "in:2 concat:8 head:3",
                         "--epochs", "20", "--dropout", "0.0", "--model-out", str(fitted)]) == 0
            argv = ["extract", "--model", str(fitted)]
            assert main([*argv, "--in", str(train), "--out", str(train_out)]) == 0

        def run(path):
            out = path.with_name(f"{path.stem}_t.csv")
            assert main([*argv, "--in", str(path), "--out", str(out)]) == 0
            return out

        return train_out, run

    def test_missing_class_keeps_training_labels(self, transform, tmp_path):
        train, run = transform
        test = without_class_zero(tmp_path)
        out = run(test)
        assert labels_of(out) == labels_of(test)  # classes 1 and 2, not 0 and 1
        report = tmp_path / "r.json"
        assert main(["baseline", "--train", str(train), "--test", str(out), "--epochs", "30",
                     "--report", str(report)]) == 0
        assert json.loads(report.read_text())["accuracy"] >= 0.9

    def test_unseen_label_stays_a_data_error(self, transform, tmp_path):
        train, run = transform
        out = run(with_unseen_label(tmp_path))
        assert labels_of(out) == [1, 9]
        assert main(["baseline", "--train", str(train), "--test", str(out),
                     "--report", str(tmp_path / "r.json")]) == 2


class TestCpcCommand:
    def test_report_includes_routes(self, data_files):
        tmp, train, test = data_files
        report = tmp / "report.json"
        code = main(
            [
                "cpc", "--train", str(train), "--test", str(test),
                "--theta", "0.5", "--disc-k", "5", "--epochs", "30",
                "--report", str(report),
            ]
        )
        assert code == 0
        obj = json.loads(report.read_text())
        assert obj["routes"]["+"] + obj["routes"]["-"] == 21
        assert obj["config"]["theta"] == 0.5

    def test_tiny_features_route_as_unscaled(self, tmp_path):
        # the README fixture times 2^-600, where every squared distance
        # underflows to 0 and a search on raw squares ties every row. With
        # one neighbour each route is the nearest point's side, so the whole
        # report is the unscaled one (the discriminator is not scale-free)
        reports = []
        for s in (0, -600):
            for name, seed, n in (("train", 0, 400), ("test", 1, 200)):
                ds = generate_two_regime(n, n, 4, 8, 6.0, 0.8, seed=seed)
                write_dataset(LabeledDataset(np.ldexp(ds.features, s), ds.labels, 4),
                              tmp_path / f"{name}.csv")
            assert main(["cpc", "--train", str(tmp_path / "train.csv"), "--test",
                         str(tmp_path / "test.csv"), "--clf", "forest", "--trees", "20",
                         "--theta", "0.5", "--disc-k", "1",
                         "--report", str(tmp_path / "cpc.json")]) == 0
            reports.append((tmp_path / "cpc.json").read_bytes())
        assert json.loads(reports[0])["routes"]["+"] == 274
        assert reports[1] == reports[0]

    def test_byte_identical_reruns(self, data_files):
        tmp, train, test = data_files
        r1, r2 = tmp / "r1.json", tmp / "r2.json"
        argv = [
            "cpc", "--train", str(train), "--test", str(test),
            "--theta", "0.4", "--disc-k", "5", "--epochs", "30", "--seed", "3",
        ]
        assert main(argv + ["--report", str(r1)]) == 0
        assert main(argv + ["--report", str(r2)]) == 0
        a = r1.read_bytes()
        b = r2.read_bytes()
        # the report path itself is echoed in config; normalize it first
        assert a.replace(b"r1.json", b"") == b.replace(b"r2.json", b"")

    @pytest.mark.parametrize("command", ["cpc", "cv"])
    @pytest.mark.parametrize("bad", [["--theta", "2.5"], ["--theta", "0.5", "--disc-k", "0"]])
    def test_bad_cpc_settings_refused_before_any_fit(self, data_files, monkeypatch, command, bad):
        import cpckit.classifiers as clf_mod

        tmp, train, test = data_files
        jobs = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            jobs.extend(specs)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        if command == "cpc":
            argv = ["cpc", "--train", str(train), "--test", str(test)]
        else:
            argv = ["cv", "--in", str(train), "--folds", "3", "--mode", "cpc"]
        assert main(argv + bad + ["--epochs", "5", "--report", str(tmp / "r.json")]) == 1
        assert jobs == []

    def test_theta_required(self, data_files):
        tmp, train, test = data_files
        code = main(
            ["cpc", "--train", str(train), "--test", str(test),
             "--report", str(tmp / "r.json")]
        )
        assert code == 1

    def test_disc_k_above_n_is_clamped(self, tmp_path):
        # on the README fixture every neighbourhood is then all 800 rows
        train, test = tmp_path / "train.csv", tmp_path / "test.csv"
        write_dataset(generate_two_regime(400, 400, 4, 8, 6.0, 0.8, seed=0), train)
        write_dataset(generate_two_regime(200, 200, 4, 8, 6.0, 0.8, seed=1), test)
        reports = []
        for disc_k in ("5000", "800"):
            report = tmp_path / f"r{disc_k}.json"
            assert main(["cpc", "--train", str(train), "--test", str(test), "--theta", "0.5",
                         "--disc-k", disc_k, "--report", str(report)]) == 0
            obj = json.loads(report.read_text())
            del obj["config"]
            reports.append(obj)
        assert reports[0] == reports[1]
        assert reports[0]["routes"]["+"] + reports[0]["routes"]["-"] == 400


def library_report(cmd, train_path, test_path, spec, cfg):
    """The report of baseline or cpc, but for its config, built from library
    calls: fit for baseline, train_cpc and cpc_predict_many for cpc."""
    train = load_dataset(train_path)
    test = load_dataset(test_path, label_map=train.label_map)
    if cmd == "baseline":
        preds, routes = fit(spec, train).predict_many(test.features), None
    else:
        routed = cpc_predict_many(train_cpc(train, cfg), test.features)
        preds = np.array([r.label for r in routed])
        routes = [r.route for r in routed]
    report = evaluate(preds, test.labels, train.class_count, routes=routes, seed=cfg.seed)
    del report["config"]
    return report


class TestTrainTestMatchesLibrary:
    @pytest.mark.parametrize("cmd", ["baseline", "cpc"])
    @pytest.mark.parametrize("clf", ["softmax", "forest"])
    def test_report_matches_library_reference(self, data_files, cmd, clf):
        tmp, train, test = data_files
        report = tmp / "r.json"
        argv = [cmd, "--train", str(train), "--test", str(test), "--clf", clf,
                "--epochs", "30", "--trees", "7", "--seed", "3", "--report", str(report)]
        if cmd == "cpc":
            argv += ["--theta", "0.5", "--disc-k", "5"]
        assert main(argv) == 0
        got = json.loads(report.read_text())
        del got["config"]
        if clf == "softmax":
            spec = softmax_spec(epochs=30, seed=3)
        else:
            spec = forest_spec(tree_count=7, seed=3)
        cfg = CpcConfig(base_spec=spec, expert_spec=spec, theta=0.5, disc_k=5, seed=3)
        want = library_report(cmd, train, test, spec, cfg)
        assert got == json.loads(json.dumps(want))


class TestSweepCommand:
    def test_curve_and_report(self, data_files):
        tmp, train, test = data_files
        curve = tmp / "curve.csv"
        report = tmp / "sweep.json"
        code = main(
            [
                "sweep", "--train", str(train), "--val", str(test),
                "--grid", "0.0:1.0:0.5", "--disc-k", "5", "--epochs", "20",
                "--curve-out", str(curve), "--report", str(report),
            ]
        )
        assert code == 0
        lines = curve.read_text().strip().splitlines()
        assert lines[0] == "theta,accuracy"
        assert len(lines) == 4  # header + 3 grid points
        obj = json.loads(report.read_text())
        assert obj["thetas"] == [0.0, 0.5, 1.0]
        assert obj["best_theta"] in obj["thetas"]

    def test_bad_grid_is_config_error(self, data_files):
        tmp, train, test = data_files
        code = main(
            ["sweep", "--train", str(train), "--val", str(test),
             "--grid", "0.5:0.1:0.1"]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "grid",
        ["nan:1:0.1", "0:nan:0.1", "0:1:nan", "0:inf:0.1", "0:1e9:1", "0:1:1e-12", "0:1:1e-7"],
    )
    def test_non_finite_or_huge_grid_is_config_error(self, data_files, grid):
        # these grids once expanded without end; a child process keeps a
        # regression bounded in time and memory
        tmp, train, test = data_files
        done = run_python(["-m", "cpckit", "sweep", "--train", str(train), "--val", str(test),
                           "--grid", grid, "--epochs", "5"], timeout=30)
        assert done.returncode == 1, done.stderr
        assert "configuration error" in done.stderr

    def test_grid_beyond_two_refused_before_training(self, data_files, monkeypatch, capsys):
        import cpckit.classifiers as clf_mod

        tmp, train, test = data_files
        jobs = []
        real_fit_many = clf_mod.fit_many

        def spy(specs, datasets):
            jobs.extend(specs)
            return real_fit_many(specs, datasets)

        monkeypatch.setattr(clf_mod, "fit_many", spy)
        code = main(
            ["sweep", "--train", str(train), "--val", str(test),
             "--grid", "0:2.5:0.5", "--epochs", "5"]
        )
        assert code == 1
        assert jobs == []
        assert "theta=2.5 outside [0, 2]" in capsys.readouterr().err


class TestCvCommand:
    def test_baseline_cv_report(self, data_files):
        tmp, train, _ = data_files
        report = tmp / "cv.json"
        code = main(
            ["cv", "--in", str(train), "--folds", "3", "--epochs", "30",
             "--report", str(report)]
        )
        assert code == 0
        obj = json.loads(report.read_text())
        assert len(obj["folds"]) == 3
        accs = [f["accuracy"] for f in obj["folds"]]
        assert obj["mean_accuracy"] == pytest.approx(sum(accs) / 3, abs=1e-12)

    def test_cpc_cv_with_zca(self, data_files):
        tmp, train, _ = data_files
        report = tmp / "cv.json"
        code = main(
            [
                "cv", "--in", str(train), "--folds", "3", "--mode", "cpc",
                "--theta", "0.5", "--disc-k", "5", "--epochs", "20",
                "--zca", "--report", str(report),
            ]
        )
        assert code == 0
        obj = json.loads(report.read_text())
        assert all(f["routes"] is not None for f in obj["folds"])

    @pytest.mark.parametrize("bad", [
        pytest.param(["--theta", "3"], id="theta"),
        pytest.param(["--k-folds", "1"], id="k-folds"),
        pytest.param(["--disc-k", "0"], id="disc-k"),
        pytest.param(["--m", "0"], id="m"),
    ])
    def test_baseline_mode_checks_cpc_flags(self, data_files, bad):
        # cv accepts the cpc flags in either mode, so it checks them in either
        tmp, train, _ = data_files
        report = tmp / "cv.json"
        assert main(["cv", "--in", str(train), "--folds", "3", "--mode", "baseline",
                     "--epochs", "5", *bad, "--report", str(report)]) == 1
        assert not report.exists()

    @pytest.mark.parametrize("mode", ["baseline", "cpc"])
    def test_report_matches_library(self, data_files, mode):
        tmp, train, _ = data_files
        report = tmp / "cv.json"
        assert main(["cv", "--in", str(train), "--folds", "3", "--mode", mode, "--theta", "0.5",
                     "--disc-k", "5", "--epochs", "20", "--seed", "4", "--zca",
                     "--report", str(report)]) == 0
        got = json.loads(report.read_text())
        del got["config"]
        spec = softmax_spec(epochs=20, seed=4)
        cfg = PipelineConfig(
            CpcConfig(base_spec=spec, expert_spec=spec, theta=0.5, disc_k=5, seed=4)
            if mode == "cpc" else spec,
            preprocess=PreprocessConfig(zca=True),
        )
        want = cross_validate(load_dataset(train), cfg, folds=3, seed=4)
        assert got == json.loads(json.dumps({**want, "seed": 4}))


class TestCvAcrossCpus:
    """cv forks a worker per usable CPU beyond the first; its report, its
    failures and its exit codes are those of a one-CPU run."""

    LEARNERS = {
        "softmax": ["--epochs", "20"],
        "forest-zca-arch": ["--clf", "forest", "--trees", "8", "--zca",
                            "--arch", "in:8 concat:32 head:4", "--extractor-epochs", "4"],
        "cpc": ["--mode", "cpc", "--theta", "0.5", "--disc-k", "5", "--epochs", "20"],
    }

    @pytest.mark.parametrize("folds", [2, 3, 5])
    @pytest.mark.parametrize("learner", LEARNERS)
    def test_report_bytes_match_one_cpu(self, tmp_path, monkeypatch, learner, folds):
        train, report = synth_file(tmp_path, 1.0), tmp_path / "cv.json"  # reports echo it
        written = {}
        for cpus in (1, 2, 3, 4):  # a CI runner has 4
            force_cpus(monkeypatch, cpus)
            assert main(["cv", "--in", str(train), "--folds", str(folds), "--seed", "3",
                         *self.LEARNERS[learner], "--report", str(report)]) == 0
            written[cpus] = report.read_bytes()
            assert not multiprocessing.active_children()
        assert all(written[cpus] == written[1] for cpus in written)

    @pytest.mark.parametrize("failing, code", [
        # fold 4 is in the last share, a worker's, fold 3 in a worker's too
        pytest.param({4: Divergence(3, math.inf)}, 3, id="divergence-in-a-worker"),
        pytest.param({3: DataError("fold 3 is bad")}, 2, id="data-error-in-a-worker"),
        # share 0 (folds 0, 1 or fold 0) fails too: its failure is the one raised
        pytest.param({4: Divergence(3, math.inf), 0: DataError("fold 0 is bad")}, 2,
                     id="first-share-wins"),
    ])
    def test_failure_matches_one_cpu(self, tmp_path, monkeypatch, capsys, failing, code):
        train = synth_file(tmp_path, 1.0)
        ds = load_dataset(train)
        fa = kfold(ds, 5, seed=0)
        failing_tests = {f: take(ds, fa.indices_of(f)).features for f in failing}
        prepare = harness._prepare

        def failing_prepare(train_ds, test_ds, cfg):
            for f, feats in failing_tests.items():
                if np.array_equal(test_ds.features, feats):
                    raise failing[f]
            return prepare(train_ds, test_ds, cfg)

        monkeypatch.setattr(harness, "_prepare", failing_prepare)
        errs = {}
        for cpus in (1, 2, 3):
            force_cpus(monkeypatch, cpus)
            assert main(["cv", "--in", str(train), "--folds", "5", "--epochs", "5",
                         "--report", str(tmp_path / "cv.json")]) == code
            errs[cpus] = capsys.readouterr().err
            assert not multiprocessing.active_children()
        assert len(errs[1].splitlines()) == 1
        assert errs[2] == errs[1] and errs[3] == errs[1]
        assert not (tmp_path / "cv.json").exists()

    def test_worker_that_dies_is_an_error(self, monkeypatch):
        ds = generate_two_regime(30, 30, 4, 8, 6.0, 0.8, seed=0)
        fold_1 = take(ds, kfold(ds, 3, seed=0).indices_of(1)).features
        prepare, parent = harness._prepare, os.getpid()

        def dying_prepare(train_ds, test_ds, cfg):
            if os.getpid() != parent and np.array_equal(test_ds.features, fold_1):
                os._exit(1)
            return prepare(train_ds, test_ds, cfg)

        monkeypatch.setattr(harness, "_prepare", dying_prepare)
        force_cpus(monkeypatch, 2)  # folds 1 and 2 in the worker's share
        with pytest.raises(RuntimeError, match="worker died"):
            cross_validate(ds, PipelineConfig(softmax_spec(epochs=5)), folds=3)
        assert not multiprocessing.active_children()

    def test_fork_warning_of_newer_pythons_stays_inside(self, tmp_path, monkeypatch):
        # Python >= 3.12 warns in the parent when a process with threads
        # (numpy's BLAS pool, say) forks; tests here make warnings errors
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, use of "
                              "fork() may lead to deadlocks in the child.", DeprecationWarning)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        force_cpus(monkeypatch, 2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["cv", "--in", str(synth_file(tmp_path, 1.0)), "--folds", "3",
                         "--epochs", "5", "--report", str(tmp_path / "cv.json")]) == 0
        assert not multiprocessing.active_children()


class TestSweepAcrossCpus:
    """sweep runs its distinct partitions in a share per usable CPU; its
    report, its curve, its failures and its exit codes are those of a
    one-CPU run."""

    def files(self, tmp_path):
        val = tmp_path / "val.csv"
        write_dataset(generate_two_regime(50, 50, 4, 8, 6.0, 0.8, seed=1), val)
        return synth_file(tmp_path, 1.0), val

    def sweep(self, train, val, grid, tmp_path):
        return main(["sweep", "--train", str(train), "--val", str(val), "--grid", grid,
                     "--disc-k", "5", "--epochs", "20", "--seed", "3",
                     "--curve-out", str(tmp_path / "curve.csv"),
                     "--report", str(tmp_path / "sweep.json")])

    # "0:0:1" is theta 0 alone: one distinct easy set, whose validation rows
    # route in shares; on one CPU no process starts
    @pytest.mark.parametrize("grid", ["0:0:1", "0.0:1.0:0.1", "0:1:0.001"])
    def test_outputs_match_one_cpu(self, tmp_path, monkeypatch, grid):
        train, val = self.files(tmp_path)
        written = {}
        for cpus in (1, 2, 3, 4):
            force_cpus(monkeypatch, cpus)
            with monkeypatch.context() as mp:
                if cpus == 1:
                    mp.setattr(os, "fork", None)
                assert self.sweep(train, val, grid, tmp_path) == 0
            written[cpus] = [(tmp_path / f).read_bytes() for f in ("sweep.json", "curve.csv")]
            assert not multiprocessing.active_children()
        assert all(written[cpus] == written[1] for cpus in written)

    def partition_thetas(self, train, val, grid, tmp_path, monkeypatch):
        """The theta of each distinct partition the sweep fits, in order."""
        thetas, fit_cpc_many = [], harness.fit_cpc_many

        def spy(parts, spec, disc_k):
            thetas.extend(part.theta for part in parts)
            return fit_cpc_many(parts, spec, disc_k)

        force_cpus(monkeypatch, 1)
        monkeypatch.setattr(harness, "fit_cpc_many", spy)
        assert self.sweep(train, val, grid, tmp_path) == 0
        monkeypatch.setattr(harness, "fit_cpc_many", fit_cpc_many)
        return thetas

    @pytest.mark.parametrize("failing, code", [
        # partition 0 (theta 0) is always in share 0, the last in a worker's
        pytest.param({-1: Divergence(3, math.inf)}, 3, id="divergence-in-a-worker"),
        pytest.param({0: Divergence(4, math.inf)}, 3, id="divergence-in-share-0"),
        pytest.param({-1: Divergence(3, math.inf), 0: DataError("partition 0 is bad")}, 2,
                     id="first-share-wins"),
    ])
    def test_failure_matches_one_cpu(self, tmp_path, monkeypatch, capsys, failing, code):
        train, val = self.files(tmp_path)
        thetas = self.partition_thetas(train, val, "0.0:1.0:0.1", tmp_path, monkeypatch)
        assert len(thetas) >= 4
        errors = {thetas[i]: e for i, e in failing.items()}
        fit_cpc_many = harness.fit_cpc_many

        def failing_fit(parts, spec, disc_k):
            for part in parts:
                if part.theta in errors:
                    raise errors[part.theta]
            return fit_cpc_many(parts, spec, disc_k)

        monkeypatch.setattr(harness, "fit_cpc_many", failing_fit)
        capsys.readouterr()
        errs = {}
        for cpus in (1, 2, 3, 4):
            force_cpus(monkeypatch, cpus)
            (tmp_path / "sweep.json").unlink(missing_ok=True)
            assert self.sweep(train, val, "0.0:1.0:0.1", tmp_path) == code
            errs[cpus] = capsys.readouterr().err
            assert not multiprocessing.active_children()
            assert not (tmp_path / "sweep.json").exists()
        assert len(errs[1].splitlines()) == 1
        assert all(errs[cpus] == errs[1] for cpus in errs)

    def test_worker_that_dies_is_an_error(self, tmp_path, monkeypatch):
        train, val = self.files(tmp_path)
        last = self.partition_thetas(train, val, "0.0:1.0:0.1", tmp_path, monkeypatch)[-1]
        fit_cpc_many, parent = harness.fit_cpc_many, os.getpid()

        def dying_fit(parts, spec, disc_k):
            if os.getpid() != parent and any(part.theta == last for part in parts):
                os._exit(1)
            return fit_cpc_many(parts, spec, disc_k)

        monkeypatch.setattr(harness, "fit_cpc_many", dying_fit)
        force_cpus(monkeypatch, 2)  # the last partition in the worker's share
        with pytest.raises(RuntimeError, match="worker died"):
            self.sweep(train, val, "0.0:1.0:0.1", tmp_path)
        assert not multiprocessing.active_children()


class TestTopLevel:
    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().err.lower()

    def test_unknown_flag_is_usage_error(self, tmp_path):
        code = main(["synth", "--n-easy", "5", "--n-hard", "5",
                     "--out", str(tmp_path / "x.csv"), "--bogus"])
        assert code == 1

    def test_module_entry_point(self, tmp_path):
        out = tmp_path / "data.csv"
        proc = run_python(
            ["-m", "cpckit", "synth", "--n-easy", "10", "--n-hard", "10", "--out", str(out)],
            timeout=120,
        )
        assert proc.returncode == 0
        assert out.exists()


# The exit-code contract as a property: each command, on small awkward
# datasets, with every numeric flag it accepts, used by the run or not,
# either valid or drawn from the edge values below. A flag outside the
# domain its validation documents must exit 1, whatever the data.
EDGE_VALUES = ["0", "-1", "nan", "inf", "1e308"]


def _int_in(low, high=math.inf):
    def domain(text):
        try:
            return low <= int(text) < high
        except ValueError:
            return False
    return domain


def _positive(text):
    return 0 < float(text) < math.inf


FLAGS = {  # flag: (valid value, domain)
    "--lr": ("0.05", _positive),
    "--l2": ("1e-4", lambda t: 0 <= float(t) < math.inf),
    "--epsilon": ("1e-6", _positive),
    "--eps-norm": ("1e-8", _positive),
    "--momentum": ("0.5", lambda t: 0 <= float(t) < 1),
    "--dropout": ("0.2", lambda t: 0 <= float(t) < 1),
    "--theta": ("0.5", lambda t: 0 <= float(t) <= 2),
    "--epochs": ("3", _int_in(0)),
    "--batch": ("16", _int_in(1)),
    "--trees": ("3", _int_in(1)),
    "--max-depth": ("3", _int_in(1)),
    "--folds": ("3", _int_in(2)),
    "--k-folds": ("3", _int_in(2)),
    "--m": ("1", _int_in(1)),
    "--disc-k": ("5", _int_in(1)),
    "--extractor-epochs": ("3", _int_in(0)),
    "--feature-tap": ("0", _int_in(0, 1)),  # the one block of the arch below
    "--seed": ("0", _int_in(0)),
    # synth's margins must also satisfy easy > hard, and its counts sum to 1 or more
    "--n-easy": ("6", _int_in(0)),
    "--n-hard": ("6", _int_in(0)),
    "--classes": ("3", _int_in(2)),
    "--dim": ("3", _int_in(2)),
    "--easy-margin": ("6.0", _positive),
    "--hard-margin": ("0.8", _positive),
}

CLF_FLAGS = ["--lr", "--epochs", "--batch", "--l2", "--trees", "--max-depth"]
CPC_FLAGS = ["--k-folds", "--m", "--disc-k"]
CV_FLAGS = ["--folds", *CLF_FLAGS, *CPC_FLAGS, "--theta", "--epsilon", "--extractor-epochs",
            "--seed"]

COMMANDS = {  # name: (argv head, numeric flags the command accepts, output flag)
    "synth": (["synth"], ["--n-easy", "--n-hard", "--classes", "--dim", "--easy-margin",
                          "--hard-margin", "--seed"], "--out"),
    "preprocess": (["preprocess", "--normalize", "--zca"], ["--eps-norm", "--epsilon"], "--out"),
    "train-extractor": (["train-extractor", "--arch", "in:3 fc:8 head:3"],
                        ["--lr", "--momentum", "--dropout", "--batch", "--epochs",
                         "--feature-tap", "--seed"], "--model-out"),
    "baseline": (["baseline"], [*CLF_FLAGS, "--seed"], "--report"),
    "baseline-forest": (["baseline", "--clf", "forest"], [*CLF_FLAGS, "--seed"], "--report"),
    "cpc": (["cpc"], [*CLF_FLAGS, *CPC_FLAGS, "--theta", "--seed"], "--report"),
    "sweep": (["sweep", "--grid", "0.0:1.0:0.25"], [*CLF_FLAGS, *CPC_FLAGS, "--seed"], "--report"),
    "cv": (["cv", "--mode", "cpc", "--zca"], CV_FLAGS, "--report"),
    "cv-baseline": (["cv", "--mode", "baseline", "--zca"], CV_FLAGS, "--report"),
}

DATASETS = ["normal", "constant column", "duplicate rows", "one class", "n = 4"]


def awkward_dataset(kind, exponent):
    rng = np.random.default_rng(0)
    y = np.arange(24) % 3
    X = rng.standard_normal((24, 3)) + 6.0 * np.eye(3)[y]
    if kind == "constant column":
        X[:, 1] = 2.0
    elif kind == "duplicate rows":
        X[1::2], y[1::2] = X[::2], y[::2]
    elif kind == "one class":
        y[:] = 0
    elif kind == "n = 4":
        X, y = X[:4], y[:4]
    return LabeledDataset(X * 10.0**exponent, y, int(y.max()) + 1)


def all_finite(obj):
    if isinstance(obj, float):
        return math.isfinite(obj)
    if isinstance(obj, dict):
        return all(map(all_finite, obj.values()))
    if isinstance(obj, list):
        return all(map(all_finite, obj))
    return True


@pytest.fixture(scope="module")
def awkward_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("awkward")


class TestExitCodeContract:
    @given(
        command=st.sampled_from(sorted(COMMANDS)),
        kind=st.sampled_from(DATASETS),
        exponent=st.sampled_from([0, 100, 160, 200, 300]),
        data=st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_exit_code_follows_the_contract(self, awkward_dir, command, kind, exponent, data):
        head, flags, out_flag = COMMANDS[command]
        edits = data.draw(st.dictionaries(st.sampled_from(flags), st.sampled_from(EDGE_VALUES),
                                          max_size=2))
        values = {flag: edits.get(flag, FLAGS[flag][0]) for flag in flags}
        path = awkward_dir / f"{kind.replace(' ', '_')}_{exponent}.csv"
        if not path.exists():
            write_dataset(awkward_dataset(kind, exponent), path)
        writes_csv = head[0] in ("synth", "preprocess")
        out = awkward_dir / ("out.csv" if writes_csv else "out.json")
        out.unlink(missing_ok=True)
        inputs = {"synth": [], "baseline": ["--train", str(path), "--test", str(path)],
                  "cpc": ["--train", str(path), "--test", str(path)],
                  "sweep": ["--train", str(path), "--val", str(path)]}
        argv = [*head, *(x for item in values.items() for x in item),
                *inputs.get(head[0], ["--in", str(path)]), out_flag, str(out)]
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()), warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning escapes main
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 0:
            if writes_csv:
                assert np.isfinite(np.loadtxt(out, delimiter=",", ndmin=2)).all()
            else:
                assert all_finite(json.loads(out.read_text()))
        if not all(FLAGS[flag][1](v) for flag, v in values.items()):
            assert code == 1

"""Dataset loading, splitting, folding, and the synthetic generator."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cpckit.dataset import (
    EASY_TAG,
    HARD_TAG,
    LabeledDataset,
    SplitSpec,
    _apportion,
    _round_half_up,
    generate_two_regime,
    kfold,
    load_dataset,
    split,
    take,
    two_regime_centers,
    write_dataset,
)
from cpckit.errors import (
    BadFractions,
    BadK,
    BadSpec,
    EmptyDataset,
    LabelOutOfRange,
    LengthMismatch,
    NonFinite,
    NonNumeric,
    RaggedRow,
)


def blobs(n=30, d=3, C=3, seed=0, spread=6.0):
    rng = np.random.default_rng(seed)
    labels = np.arange(n) % C
    centers = rng.normal(scale=spread, size=(C, d))
    feats = rng.standard_normal((n, d)) + centers[labels]
    return LabeledDataset(features=feats, labels=labels, class_count=C)


class TestLabeledDataset:
    def test_basic_properties(self):
        ds = blobs(12, 4, 3)
        assert ds.n == 12 and ds.d == 4
        assert ds.features.dtype == np.float64

    def test_rejects_label_out_of_range(self):
        with pytest.raises(BadSpec):
            LabeledDataset(np.zeros((2, 2)), np.array([0, 3]), class_count=2)

    def test_rejects_mismatched_labels(self):
        with pytest.raises(LengthMismatch):
            LabeledDataset(np.zeros((3, 2)), np.array([0, 1]), class_count=2)

    def test_rejects_zero_width(self):
        with pytest.raises(EmptyDataset):
            LabeledDataset(np.zeros((3, 0)), np.zeros(3, dtype=int), class_count=1)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_features(self, bad):
        feats = np.zeros((3, 2))
        feats[1, 0] = bad
        with pytest.raises(NonFinite, match="row 1, column 0"):
            LabeledDataset(feats, np.zeros(3, dtype=int), class_count=1)

    def test_take_preserves_tags(self):
        ds = generate_two_regime(6, 6, 2, 2, 4.0, 1.0, seed=0)
        sub = take(ds, [0, 2, 5])
        assert sub.n == 3
        assert sub.regime_tags.tolist() == [ds.regime_tags[i] for i in (0, 2, 5)]
        assert np.array_equal(sub.features, ds.features[[0, 2, 5]])

    def test_take_reads_a_bool_array_as_a_mask(self):
        ds = generate_two_regime(3, 2, 2, 2, 4.0, 1.0, seed=0)
        sub = take(ds, np.array([False, True, False, True, True]))
        assert np.array_equal(sub.features, ds.features[[1, 3, 4]])
        assert sub.regime_tags.tolist() == ds.regime_tags[[1, 3, 4]].tolist()
        for short in (np.array([True, False]), np.ones(6, dtype=bool)):
            with pytest.raises(LengthMismatch):
                take(ds, short)

    def test_take_refuses_positions_that_are_not_integers(self):
        ds = generate_two_regime(3, 2, 2, 2, 4.0, 1.0, seed=0)
        for bad in ([0.7, 2.9], np.array([1.0]), ["0"]):
            with pytest.raises(BadSpec):
                take(ds, bad)
        assert take(ds, []).n == 0
        assert take(ds, np.array([], dtype=np.int32)).n == 0

    def test_take_refuses_positions_outside_the_rows(self):
        ds = generate_two_regime(3, 2, 2, 2, 4.0, 1.0, seed=0)
        for bad in ([-1], [0, 5], np.array([4, -5]), np.array([7], dtype=np.uint8)):
            with pytest.raises(BadSpec, match=r"\[0, 5\)"):
                take(ds, bad)
        assert np.array_equal(take(ds, [0, 4]).features, ds.features[[0, 4]])
        assert take(ds, np.ones(5, dtype=bool)).n == 5

    @given(n=st.integers(0, 30), seed=st.integers(0, 2**32 - 1), tagged=st.booleans(),
           fill=st.sampled_from(["random", "empty", "full"]))
    @settings(max_examples=80, deadline=None)
    def test_a_mask_take_is_the_take_of_its_positions(self, n, seed, tagged, fill):
        rng = np.random.default_rng(seed)
        ds = LabeledDataset(rng.standard_normal((n, 3)), rng.integers(0, 4, n), 4,
                            regime_tags=rng.choice([EASY_TAG, HARD_TAG], n) if tagged else None,
                            label_map={7: 0, 8: 1, 9: 2, 10: 3})
        mask = {"random": rng.random(n) < 0.5, "empty": np.zeros(n, dtype=bool),
                "full": np.ones(n, dtype=bool)}[fill]
        by_mask, by_rows = take(ds, mask), take(ds, np.flatnonzero(mask))
        for got, want in ((by_mask.features, by_rows.features), (by_mask.labels, by_rows.labels)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()
        if tagged:
            assert by_mask.regime_tags.tolist() == by_rows.regime_tags.tolist()
            assert by_mask.regime_tags.dtype == by_rows.regime_tags.dtype
        else:
            assert by_mask.regime_tags is None and by_rows.regime_tags is None
        assert by_mask.label_map == by_rows.label_map and by_mask.class_count == 4
        assert by_mask.n == int(mask.sum())

    @pytest.mark.parametrize("bad", [0.5, np.nan, np.inf, -np.inf, 1e19])
    def test_rejects_labels_that_are_not_whole_numbers(self, bad):
        with pytest.raises(BadSpec, match="whole numbers"):
            LabeledDataset(np.zeros((3, 2)), [0.0, bad, 1.0], 2)

    def test_whole_float_labels_are_read_as_integers(self):
        ds = LabeledDataset(np.zeros((3, 2)), np.array([1.0, 0.0, 1.0]), 2)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [1, 0, 1]
        assert LabeledDataset(np.zeros((2, 2)), np.array([True, False]), 2).labels.tolist() == [1, 0]


class TestLoadDataset:
    def test_round_trip(self, tmp_path):
        ds = blobs(15, 3, 3, seed=2)
        path = tmp_path / "data.csv"
        write_dataset(ds, path)
        back = load_dataset(path)
        assert np.array_equal(back.features, ds.features)
        assert np.array_equal(back.labels, ds.labels)
        assert back.class_count == ds.class_count

    def test_header_skipped(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,f1,label\n1.0,2.0,0\n3.0,4.0,1\n")
        ds = load_dataset(path, has_header=True)
        assert ds.n == 2
        assert ds.features[0, 1] == 2.0

    def test_labels_densified_with_mapping(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,7\n2.0,3\n3.0,7\n")
        ds = load_dataset(path)
        assert ds.class_count == 2
        assert ds.label_map == {3: 0, 7: 1}
        assert ds.labels.tolist() == [1, 0, 1]

    def test_nan_cell_is_refused(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\nnan,2.0,1\n")
        with pytest.raises(NonFinite):
            load_dataset(path)

    def test_training_label_map_is_reused(self, tmp_path):
        train = tmp_path / "train.csv"
        test = tmp_path / "test.csv"
        train.write_text("1.0,0\n2.0,1\n3.0,2\n")
        test.write_text("2.5,2\n2.0,1\n")  # class 0 absent
        tr = load_dataset(train)
        te = load_dataset(test, label_map=tr.label_map)
        assert te.labels.tolist() == [2, 1]
        assert te.class_count == 3
        assert te.label_map == tr.label_map
        # on its own the test file would be densified to [1, 0]
        assert load_dataset(test).labels.tolist() == [1, 0]

    def test_label_missing_from_training_map_is_refused(self, tmp_path):
        path = tmp_path / "test.csv"
        path.write_text("1.0,0\n2.0,5\n")
        with pytest.raises(LabelOutOfRange, match=r"\[5\]"):
            load_dataset(path, label_map={0: 0, 1: 1})

    @given(
        train=st.lists(st.integers(-1000, 1000), min_size=1, max_size=8, unique=True),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_written_labels_are_the_labels_read(self, tmp_path_factory, train, data):
        # a test file read on its own is made dense by its own labels; written
        # back (as preprocess and extract do) it must keep its original ones
        train_map = load_dataset(self._file(tmp_path_factory, train, "train.csv")).label_map
        held = data.draw(st.lists(st.sampled_from(train), min_size=1, max_size=12))
        test = self._file(tmp_path_factory, held, "test.csv")
        out = test.with_name("out.csv")
        write_dataset(load_dataset(test), out)
        assert [int(line.rsplit(",", 1)[1]) for line in out.read_text().split()] == held
        back = load_dataset(out, label_map=train_map)
        assert back.labels.tolist() == [train_map[v] for v in held]

    @staticmethod
    def _file(tmp_path_factory, labels, name):
        path = tmp_path_factory.mktemp("labels") / name
        path.write_text("".join(f"{i}.5,{v}\n" for i, v in enumerate(labels)))
        return path

    def test_ragged_row_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\n1.0,1\n")
        with pytest.raises(RaggedRow, match="line 2"):
            load_dataset(path)

    def test_non_numeric_reports_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\nx,2.0,1\n")
        with pytest.raises(NonNumeric, match="line 2"):
            load_dataset(path)

    def test_non_numeric_label(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,zebra\n")
        with pytest.raises(NonNumeric):
            load_dataset(path)

    @pytest.mark.parametrize("label", ["99999999999999999999", str(2**63), str(-(2**63) - 1)])
    def test_label_beyond_int64_is_non_numeric(self, tmp_path, label):
        path = tmp_path / "data.csv"
        path.write_text(f"1.0,0\n2.0,{label}\n")
        with pytest.raises(NonNumeric, match=f"line 2, label column: '{label}'"):
            load_dataset(path)

    def test_int64_label_limits_load(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(f"1.0,{2**63 - 1}\n2.0,{-(2**63)}\n")
        ds = load_dataset(path)
        assert ds.label_map == {-(2**63): 0, 2**63 - 1: 1}
        assert ds.labels.tolist() == [1, 0]

    def test_first_bad_line_is_reported(self, tmp_path):
        # a bad cell on line 2 comes before a ragged row on line 4
        path = tmp_path / "data.csv"
        path.write_text("1.0,2.0,0\nx,2.0,1\n3.0,4.0,0\n1.0,1\n")
        with pytest.raises(NonNumeric, match="line 2"):
            load_dataset(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("")
        with pytest.raises(EmptyDataset):
            load_dataset(path)

    def test_header_only(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("f0,label\n")
        with pytest.raises(EmptyDataset):
            load_dataset(path, has_header=True)


class TestSplit:
    def test_rounding_small(self):
        # val and test round to nearest; train receives the residue
        ds = blobs(10, 2, 2, seed=1)
        tr, va, te = split(ds, SplitSpec(0.8, 0.1, 0.1))
        assert (tr.n, va.n, te.n) == (8, 1, 1)

    def test_rounding_large(self):
        # 0.1 * 35887 = 3588.7 rounds to 3589 twice; the residue is 28709
        labels = np.arange(35887) % 7
        ds = LabeledDataset(np.zeros((35887, 1)), labels, class_count=7)
        tr, va, te = split(ds, SplitSpec(0.8, 0.1, 0.1))
        assert (tr.n, va.n, te.n) == (28709, 3589, 3589)

    @pytest.mark.parametrize("seed", [-1, 1.5, "3", None, np.float64(2.0)])
    def test_seed_numpy_cannot_take_is_refused(self, seed):
        with pytest.raises(BadSpec, match="seed"):
            SplitSpec(0.8, 0.1, 0.1, seed=seed)

    def test_integer_seeds_are_taken(self):
        ds = blobs(20, 2, 2, seed=1)
        for seed in (np.int64(3), np.uint8(3), True, False):
            got = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=seed))[0]
            want = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=int(seed)))[0]
            assert np.array_equal(got.features, want.features)

    def test_bad_fractions(self):
        with pytest.raises(BadFractions):
            SplitSpec(0.5, 0.2, 0.2)
        with pytest.raises(BadFractions):
            SplitSpec(1.2, -0.1, -0.1)
        with pytest.raises(BadFractions):
            SplitSpec(float("nan"), 0.5, 0.5)
        with pytest.raises(BadFractions):
            SplitSpec(1.0, float("nan"), 0.0)

    def test_stratified_prefers_class_balance(self):
        ds = blobs(10, 2, 2, seed=1)  # 5 per class
        tr, va, te = split(ds, SplitSpec(0.8, 0.1, 0.1, seed=4))
        assert set(tr.labels.tolist()) == {0, 1}

    def test_stratified_proportions(self):
        labels = np.array([0] * 60 + [1] * 30 + [2] * 10)
        ds = LabeledDataset(np.random.default_rng(0).normal(size=(100, 2)), labels, 3)
        tr, va, te = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=7))
        for part in (tr, va, te):
            counts = np.bincount(part.labels, minlength=3)
            expected = np.array([0.6, 0.3, 0.1]) * part.n
            assert np.all(np.abs(counts - expected) <= 1.0 + 1e-9)

    def test_deterministic(self):
        ds = blobs(40, 3, 4, seed=3)
        a = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=9))
        b = split(ds, SplitSpec(0.6, 0.2, 0.2, seed=9))
        for x, y in zip(a, b):
            assert np.array_equal(x.features, y.features)
            assert np.array_equal(x.labels, y.labels)

    @given(
        n=st.integers(4, 120),
        seed=st.integers(0, 10_000),
        parts=st.tuples(st.integers(1, 10), st.integers(0, 5), st.integers(0, 5)),
    )
    @settings(max_examples=60, deadline=None)
    def test_split_is_exact_partition(self, n, seed, parts):
        s = sum(parts)
        spec = SplitSpec(parts[0] / s, parts[1] / s, parts[2] / s, seed=seed)
        rng = np.random.default_rng(seed)
        feats = rng.normal(size=(n, 2))
        # encode identity in the feature so multisets can be compared
        feats[:, 0] = np.arange(n)
        ds = LabeledDataset(feats, rng.integers(0, 3, size=n), class_count=3)
        tr, va, te = split(ds, spec)
        assert tr.n + va.n + te.n == n
        ids = np.concatenate([p.features[:, 0] for p in (tr, va, te)])
        assert sorted(ids.tolist()) == list(range(n))

    @given(
        n=st.integers(1, 60),
        data=st.data(),
        seed=st.integers(0, 2**32),
        parts=st.tuples(st.integers(0, 10), st.integers(0, 5), st.integers(0, 5)).filter(any),
    )
    @settings(max_examples=120, deadline=None)
    def test_parts_match_per_class_reference(self, n, data, seed, parts):
        # class_count above the largest label, so some classes have no rows;
        # a zero part gives a fraction of 0.0, the test fraction included
        labels = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        class_count = int(labels.max()) + 1 + data.draw(st.integers(0, 3))
        feats = np.column_stack([np.arange(n), np.random.default_rng(seed).normal(size=n)])
        ds = LabeledDataset(feats, labels, class_count=class_count, regime_tags=labels.astype(str))
        s = sum(parts)
        spec = SplitSpec(parts[0] / s, parts[1] / s, parts[2] / s, seed=seed)
        try:
            want = _ref_split(ds, spec)
        except BadFractions:
            with pytest.raises(BadFractions):
                split(ds, spec)
            return
        for got, rows in zip(split(ds, spec), want):
            assert got.features.tobytes() == ds.features[rows].tobytes()
            assert got.labels.tobytes() == ds.labels[rows].tobytes()
            assert got.regime_tags.tolist() == ds.regime_tags[rows].tolist()


def _ref_split(ds, spec):
    """The sorted rows of train, val and test, gathered class by class: each
    class's shuffled rows go to val, then test, then train."""
    n_val = _round_half_up(ds.n * spec.val)
    n_test = _round_half_up(ds.n * spec.test)
    if n_val + n_test > ds.n:
        raise BadFractions("rounded val and test sizes exceed the dataset")
    rng = np.random.default_rng(spec.seed)
    members = [np.flatnonzero(ds.labels == c) for c in range(ds.class_count)]
    sizes = np.array([len(ix) for ix in members], dtype=np.int64)
    val_c = _apportion(sizes * spec.val, n_val, sizes)
    test_c = _apportion(sizes * spec.test, n_test, sizes - val_c)
    tr, va, te = [], [], []
    for c in range(ds.class_count):
        shuffled = rng.permutation(members[c])
        v, t = int(val_c[c]), int(test_c[c])
        va.append(shuffled[:v])
        te.append(shuffled[v : v + t])
        tr.append(shuffled[v + t :])
    return [np.sort(np.concatenate(rows)) for rows in (tr, va, te)]


class TestKfold:
    def test_bad_k(self):
        ds = blobs(10, 2, 2)
        for bad in (1, 11, 2.5, 2.0, "3"):
            with pytest.raises(BadK):
                kfold(ds, bad)
        assert np.array_equal(kfold(ds, np.int32(3)), kfold(ds, 3))

    def test_bad_seed(self):
        ds = blobs(10, 2, 2)
        for bad in (-1, 1.5, None):
            with pytest.raises(BadSpec, match="seed"):
                kfold(ds, 2, seed=bad)
        assert np.array_equal(kfold(ds, 2, seed=np.uint16(4)), kfold(ds, 2, seed=4))

    def test_fold_sizes_differ_by_at_most_one(self):
        ds = blobs(23, 2, 3, seed=5)
        fold_of = kfold(ds, 5, seed=1)
        sizes = [len(np.flatnonzero(fold_of == f)) for f in range(5)]
        assert max(sizes) - min(sizes) <= 1
        assert sum(sizes) == 23

    def test_every_fold_nonempty(self):
        ds = blobs(5, 2, 2, seed=5)
        fold_of = kfold(ds, 5, seed=1)
        assert all(len(np.flatnonzero(fold_of == f)) == 1 for f in range(5))

    def test_stratified_spreads_classes(self):
        ds = blobs(40, 2, 4, seed=6)  # 10 per class
        fold_of = kfold(ds, 5, seed=2)
        for c in range(4):
            per_fold = [
                int(np.sum(ds.labels[np.flatnonzero(fold_of == f)] == c)) for f in range(5)
            ]
            assert max(per_fold) - min(per_fold) <= 1

    def test_deterministic(self):
        ds = blobs(30, 2, 3, seed=7)
        fold_of = kfold(ds, 4, seed=3)
        assert fold_of.dtype == np.int64 and np.array_equal(fold_of, kfold(ds, 4, seed=3))

    def test_complement_of(self):
        ds = blobs(12, 2, 2, seed=8)
        fold_of = kfold(ds, 3, seed=0)
        for f in range(3):
            joined = np.sort(np.concatenate([np.flatnonzero(fold_of == f),
                                             np.flatnonzero(fold_of != f)]))
            assert np.array_equal(joined, np.arange(12))

    @given(
        n=st.integers(2, 80),
        k=st.integers(2, 8),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=60, deadline=None)
    def test_balance_property(self, n, k, seed):
        if k > n:
            k = n
        rng = np.random.default_rng(seed)
        ds = LabeledDataset(
            rng.normal(size=(n, 2)), rng.integers(0, 4, size=n), class_count=4
        )
        sizes = np.bincount(kfold(ds, k, seed=seed), minlength=k)
        assert sizes.max() - sizes.min() <= 1
        assert sizes.min() >= 1

    @given(
        n=st.integers(2, 60),
        data=st.data(),
        seed=st.integers(0, 10_000),
    )
    @settings(max_examples=80, deadline=None)
    def test_deal_matches_round_robin_reference(self, n, data, seed):
        # class_count above the largest label, so some classes have no rows
        labels = np.array(data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)))
        class_count = int(labels.max()) + 1 + data.draw(st.integers(0, 3))
        k = data.draw(st.integers(2, n))
        ds = LabeledDataset(np.zeros((n, 1)), labels, class_count=class_count)
        assert np.array_equal(kfold(ds, k, seed=seed), _ref_kfold(ds, k, seed))


def _ref_kfold(ds, K, seed):
    """The fold of every row, dealt one row at a time: each class's shuffled
    rows, in class order, onto one round-robin cursor."""
    rng = np.random.default_rng(seed)
    fold_of = np.empty(ds.n, dtype=np.int64)
    cursor = 0
    for c in range(ds.class_count):
        for i in rng.permutation(np.flatnonzero(ds.labels == c)):
            fold_of[i] = cursor % K
            cursor += 1
    return fold_of


class TestGenerateTwoRegime:
    def test_shapes_and_tags(self):
        ds = generate_two_regime(30, 20, 4, 8, 6.0, 0.8, seed=0)
        assert ds.n == 50 and ds.d == 8 and ds.class_count == 4
        tags = np.array(ds.regime_tags)
        assert int(np.sum(tags == EASY_TAG)) == 30
        assert int(np.sum(tags == HARD_TAG)) == 20

    def test_bad_specs(self):
        with pytest.raises(BadSpec):
            generate_two_regime(10, 10, 1, 8, 6.0, 0.8)
        with pytest.raises(BadSpec):
            generate_two_regime(10, 10, 4, 1, 6.0, 0.8)
        with pytest.raises(BadSpec):
            generate_two_regime(10, 10, 4, 8, 0.8, 6.0)  # easy must exceed hard
        with pytest.raises(BadSpec):
            generate_two_regime(0, 0, 4, 8, 6.0, 0.8)

    def test_deterministic(self):
        a = generate_two_regime(20, 20, 3, 4, 5.0, 1.0, seed=42)
        b = generate_two_regime(20, 20, 3, 4, 5.0, 1.0, seed=42)
        assert np.array_equal(a.features, b.features)
        assert a.regime_tags.tolist() == b.regime_tags.tolist()

    def test_center_separation(self):
        easy_c, hard_c = two_regime_centers(4, 8, 6.0, 0.8)
        for cents, margin in ((easy_c, 6.0), (hard_c, 0.8)):
            dists = np.linalg.norm(cents[:, None] - cents[None, :], axis=-1)
            off_diag = dists[~np.eye(len(cents), dtype=bool)]
            assert off_diag.min() == pytest.approx(margin, rel=1e-9)

    def test_easy_regime_bayes_accuracy(self):
        # Monte-Carlo oracle: with equal priors and isotropic unit Gaussians
        # the best possible rule is nearest center, so its accuracy on fresh
        # easy-regime draws bounds what any classifier can do there.
        ds = generate_two_regime(100_000, 0, 4, 8, 6.0, 0.8, seed=9)
        easy_c, _ = two_regime_centers(4, 8, 6.0, 0.8)
        d2 = ((ds.features[:, None, :] - easy_c[None, :, :]) ** 2).sum(-1)
        bayes_acc = float(np.mean(np.argmin(d2, axis=1) == ds.labels))
        assert bayes_acc >= 0.99

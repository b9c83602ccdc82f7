import numpy as np
import pytest

from specmix import (ColumnSchema, ConfigError, DataError, MixedDataset,
                     SchemaError, SyntheticParams, generate_synthetic,
                     load_mixed_csv, one_hot, standardize_numeric)


def write(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestSchema:
    def test_parse_aliases(self):
        schema = ColumnSchema.parse("num,numeric,cat,ord,label,ignore")
        assert schema.numeric_indices == (0, 1)
        assert schema.categorical_indices == (2, 3)
        assert schema.label_index == 4

    def test_unknown_role(self):
        with pytest.raises(SchemaError):
            ColumnSchema.parse("num,banana")

    def test_two_labels_rejected(self):
        with pytest.raises(SchemaError):
            ColumnSchema.parse("label,label")


class TestLoad:
    def test_basic_shapes(self, tmp_path):
        path = write(tmp_path, "x,y,c\n1,2,a\n3,4,b\n5,6,a\n")
        ds, labels = load_mixed_csv(path, ColumnSchema.parse("num,num,cat"))
        assert labels is None
        assert (ds.n, ds.num_numeric, ds.num_categorical) == (3, 2, 1)
        assert ds.cardinalities == (2,)

    def test_missing_rows_dropped(self, tmp_path):
        path = write(tmp_path, "x,y,c\n1,2,a\n3,?,b\n5,6,a\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,num,cat"))
        assert ds.n == 2

    def test_first_appearance_encoding(self, tmp_path):
        path = write(tmp_path, "c\nb\na\nb\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("cat"))
        assert ds.categorical[:, 0].tolist() == [0, 1, 0]
        assert ds.cardinalities == (2,)

    def test_unused_levels_pruned(self, tmp_path):
        # category "z" only occurs on the dropped row, so it gets no code
        path = write(tmp_path, "x,c\n1,a\n?,z\n2,b\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,cat"))
        assert ds.cardinalities == (2,)

    def test_label_column_returned_encoded(self, tmp_path):
        path = write(tmp_path, "x,c,y\n1,a,pos\n2,b,neg\n3,a,pos\n")
        ds, labels = load_mixed_csv(path, ColumnSchema.parse("num,cat,label"))
        assert labels.tolist() == [0, 1, 0]
        assert ds.num_categorical == 1

    def test_bad_numeric_token(self, tmp_path):
        path = write(tmp_path, "x,c\n1,a\noops,b\n")
        with pytest.raises(DataError, match="oops"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    @pytest.mark.parametrize("token", ["nan", "inf", "-Infinity"])
    def test_non_finite_token_rejected(self, tmp_path, token):
        # float() accepts these; left in, they zeroed the whole column
        # through standardize_numeric
        path = write(tmp_path, f"x,y,c\n1,2,a\n3,{token},b\n5,6,a\n")
        with pytest.raises(DataError, match="numeric column 1"):
            load_mixed_csv(path, ColumnSchema.parse("num,num,cat"))

    def test_width_mismatch(self, tmp_path):
        path = write(tmp_path, "x,c\n1,a,extra\n")
        with pytest.raises(SchemaError):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    def test_schema_header_mismatch(self, tmp_path):
        path = write(tmp_path, "x,y,c\n1,2,a\n")
        with pytest.raises(SchemaError):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    def test_empty_after_dropping(self, tmp_path):
        path = write(tmp_path, "x,c\n?,a\n?,b\n")
        with pytest.raises(DataError):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    def test_unreadable_file(self, tmp_path):
        with pytest.raises(DataError):
            load_mixed_csv(tmp_path / "nope.csv", ColumnSchema.parse("num"))

    def test_custom_sentinel(self, tmp_path):
        path = write(tmp_path, "x,c\n1,a\nNA,b\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,cat"),
                               missing_values=("NA",))
        assert ds.n == 1


class TestMixedDataset:
    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_numeric_rejected(self, value):
        numeric = np.array([[0.0, 1.0], [2.0, value], [4.0, 5.0]])
        with pytest.raises(DataError, match="numeric column 1"):
            MixedDataset(numeric, np.zeros((3, 1), dtype=np.int64), (1,))


class TestStandardize:
    def test_two_point_column(self, tmp_path):
        path = write(tmp_path, "x,c\n0,a\n2,a\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,cat"))
        out = standardize_numeric(ds)
        assert np.allclose(out.numeric[:, 0], [-1.0, 1.0])

    def test_constant_column_zeroed(self):
        from specmix import MixedDataset
        ds = MixedDataset(np.full((3, 1), 5.0), np.zeros((3, 1), dtype=int), (1,))
        out = standardize_numeric(ds)
        assert np.array_equal(out.numeric, np.zeros((3, 1)))

    def test_idempotent(self):
        from specmix import MixedDataset
        rng = np.random.default_rng(0)
        ds = MixedDataset(rng.standard_normal((20, 3)) * 7 + 2,
                          np.zeros((20, 0), dtype=int), ())
        once = standardize_numeric(ds)
        twice = standardize_numeric(once)
        assert np.abs(once.numeric - twice.numeric).max() <= 1e-12

    def test_moments(self):
        from specmix import MixedDataset
        rng = np.random.default_rng(1)
        ds = MixedDataset(rng.standard_normal((50, 4)) * 3 - 1,
                          np.zeros((50, 0), dtype=int), ())
        out = standardize_numeric(ds)
        assert np.abs(out.numeric.mean(axis=0)).max() <= 1e-10
        assert np.abs(out.numeric.std(axis=0) - 1.0).max() <= 1e-10

    def test_requires_numeric(self):
        from specmix import MixedDataset
        ds = MixedDataset(np.empty((3, 0)), np.zeros((3, 1), dtype=int), (1,))
        with pytest.raises(ConfigError):
            standardize_numeric(ds)


class TestOneHot:
    def test_definition(self):
        from specmix import MixedDataset
        ds = MixedDataset(np.empty((3, 0)),
                          np.array([[0], [1], [0]]), (2,))
        enc = one_hot(ds, 0)
        assert enc.entries.tolist() == [[1, 0], [0, 1], [1, 0]]
        assert enc.column_sums.tolist() == [2, 1]

    def test_rows_sum_to_one(self):
        from specmix import MixedDataset
        rng = np.random.default_rng(2)
        ds = MixedDataset(np.empty((30, 0)),
                          rng.integers(0, 4, (30, 2)), (4, 4))
        for l in range(2):
            assert np.array_equal(one_hot(ds, l).entries.sum(axis=1),
                                  np.ones(30))

    def test_out_of_range(self):
        from specmix import MixedDataset
        ds = MixedDataset(np.empty((3, 0)), np.zeros((3, 1), dtype=int), (1,))
        with pytest.raises(ConfigError):
            one_hot(ds, 1)

    def test_total_column_sums(self):
        ds, _ = generate_synthetic(SyntheticParams(n=37, k=3, q=4,
                                                   sigma=1.0, p=0.3, seed=9))
        total = sum(one_hot(ds, l).column_sums.sum()
                    for l in range(ds.num_categorical))
        assert total == ds.n * ds.num_categorical


class TestSynthetic:
    def test_noise_free_exact(self):
        ds, labels = generate_synthetic(SyntheticParams(n=4, k=2, q=1,
                                                        sigma=0.0, p=0.0, seed=0))
        assert ds.numeric.tolist() == [[1, 0], [1, 0], [0, 1], [0, 1]]
        assert ds.categorical[:, 0].tolist() == [0, 0, 1, 1]
        assert labels.tolist() == [0, 0, 1, 1]

    def test_remainder_distribution(self):
        _, labels = generate_synthetic(SyntheticParams(n=5, k=2, q=0,
                                                       sigma=0.0, p=0.0, seed=0))
        assert np.bincount(labels).tolist() == [3, 2]

    def test_full_corruption_frequencies(self):
        # p=1 with the default mode never emits the attached category and is
        # uniform over the other three; pool draws via the offset from the
        # attached category so the whole sample estimates each frequency
        ds, labels = generate_synthetic(SyntheticParams(n=4000, k=4, q=1,
                                                        sigma=0.0, p=1.0, seed=3))
        col = ds.categorical[:, 0]
        assert not np.any(col == labels)
        offsets = (col - labels) % 4
        freqs = np.bincount(offsets, minlength=4) / col.size
        assert freqs[0] == 0.0
        assert np.abs(freqs[1:] - 1.0 / 3.0).max() <= 0.02

    def test_uniform_corruption_mode(self):
        ds, labels = generate_synthetic(SyntheticParams(
            n=4000, k=4, q=1, sigma=0.0, p=1.0, seed=3, corruption="uniform"))
        col = ds.categorical[:, 0]
        match = np.mean(col == labels)
        assert abs(match - 0.25) <= 0.03

    def test_bitwise_reproducible(self):
        params = SyntheticParams(n=100, k=3, q=2, sigma=0.7, p=0.2, seed=11)
        a, la = generate_synthetic(params)
        b, lb = generate_synthetic(params)
        assert np.array_equal(a.numeric, b.numeric)
        assert np.array_equal(a.categorical, b.categorical)
        assert np.array_equal(la, lb)

    def test_labels_cover_all_clusters(self):
        _, labels = generate_synthetic(SyntheticParams(n=11, k=4, q=1,
                                                       sigma=1.0, p=0.5, seed=2))
        assert set(labels.tolist()) == {0, 1, 2, 3}

    def test_param_validation(self):
        with pytest.raises(ConfigError):
            SyntheticParams(n=10, k=1, q=1, sigma=0.0, p=0.0)
        with pytest.raises(ConfigError):
            SyntheticParams(n=10, k=2, q=1, sigma=0.0, p=1.5)
        with pytest.raises(ConfigError):
            SyntheticParams(n=10, k=2, q=1, sigma=-1.0, p=0.0)

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # nan used to pass the sign check and fail later as a data error
        with pytest.raises(ConfigError, match="sigma"):
            SyntheticParams(n=10, k=2, q=1, sigma=sigma, p=0.0)

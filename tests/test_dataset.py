import csv
import gc
import io
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from specmix import (ColumnSchema, ConfigError, DataError, MixedDataset,
                     SchemaError, SyntheticParams, generate_synthetic,
                     load_mixed_csv, standardize_numeric)


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

    @pytest.mark.parametrize("spec", ["", " , ", "\n"])
    def test_blank_spec_is_empty(self, spec):
        # "".split(",") is [""], which used to be reported as an unknown role
        with pytest.raises(SchemaError, match="schema is empty"):
            ColumnSchema.parse(spec)

    def test_blank_role_in_spec(self):
        with pytest.raises(SchemaError, match="unknown column role ''"):
            ColumnSchema.parse("num,")

    def test_schema_file_not_utf8(self, tmp_path):
        path = tmp_path / "schema.txt"
        path.write_bytes(b"num,\xff")
        with pytest.raises(SchemaError, match="line 1: not UTF-8"):
            ColumnSchema.from_file(path)

    def test_no_roles_rejected(self):
        with pytest.raises(SchemaError, match="schema is empty"):
            ColumnSchema(())


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

    def test_codes_renumbered_over_surviving_rows(self, tmp_path):
        # "b" first appears on a dropped row, so "a" takes code 0
        path = write(tmp_path, "c,x\nb,?\na,1\nb,2\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("cat,num"))
        assert ds.categorical[:, 0].tolist() == [0, 1]
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

    def test_non_utf8_byte_is_data_error(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"x,c\n1,a\n2,\xff\n")
        with pytest.raises(DataError, match="line 3: not UTF-8"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    @pytest.mark.parametrize("end", ["\r\n", "\r"])
    def test_non_utf8_line_counts_every_line_end(self, tmp_path, end):
        # only "\n" used to be counted, so a CR-only file named line 1
        path = tmp_path / "data.csv"
        path.write_bytes(f"x,c{end}1,a{end}{end}2,".encode() + b"\xff\n")
        with pytest.raises(DataError, match="line 4: not UTF-8"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    def test_oversized_field_is_data_error(self, tmp_path):
        path = write(tmp_path, "x,c\n1,a\n2," + "b" * 200_000 + "\n")
        with pytest.raises(DataError, match="line 3: field larger"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    @pytest.mark.parametrize("data, error", [
        (b"x,c\n1,a\n2,b\n", None),
        (b"x,c\n1,a\n2,\xff\n", DataError),
        (b"x,c\n1,a\n2,b,3\n", SchemaError),
    ])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_garbage_collector_state_restored(self, tmp_path, data, error, enabled):
        # the loader pauses the collector while it reads the records
        path = tmp_path / "data.csv"
        path.write_bytes(data)
        was = gc.isenabled()
        (gc.enable if enabled else gc.disable)()
        try:
            if error is None:
                load_mixed_csv(path, ColumnSchema.parse("num,cat"))
            else:
                with pytest.raises(error):
                    load_mixed_csv(path, ColumnSchema.parse("num,cat"))
            assert gc.isenabled() == enabled
        finally:
            (gc.enable if was else gc.disable)()

    def test_unreadable_file(self, tmp_path):
        # the OSError itself, which the CLI reports as an io error
        with pytest.raises(OSError):
            load_mixed_csv(tmp_path / "nope.csv", ColumnSchema.parse("num"))

    def test_custom_sentinel(self, tmp_path):
        path = write(tmp_path, "x,c\n1,a\nNA,b\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,cat"),
                               missing_values=("NA",))
        assert ds.n == 1

    def test_blank_lines_skipped_but_counted(self, tmp_path):
        path = write(tmp_path, "x,c\n1,a\n\n2,b\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,cat"))
        assert ds.numeric[:, 0].tolist() == [1.0, 2.0]
        path = write(tmp_path, "x,c\n1,a\n\n2,b\n\n3\n")
        with pytest.raises(SchemaError,
                           match="^line 6: expected 2 fields, got 1$"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    def test_numeric_parse_message_names_first_bad_token(self, tmp_path):
        # column order first: 'x' is checked before 'y', whose bad token
        # comes on an earlier line
        path = write(tmp_path, "x,y\n1,bad_y\n\n bad_x ,2\n")
        message = "line 4, column 'x': cannot parse 'bad_x' as numeric"
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            load_mixed_csv(path, ColumnSchema.parse("num,num"))

    @pytest.mark.parametrize("tail, error, message", [
        ("oops,c\n", DataError,
         "line 4, column 'x': cannot parse 'oops' as numeric"),
        ("1,c,d\n", SchemaError, "line 4: expected 2 fields, got 3"),
    ])
    def test_line_numbers_count_the_lines_of_a_quoted_field(
            self, tmp_path, tail, error, message):
        # the record '1,"a\nb"' spans lines 2-3, so the next one is on line 4
        path = write(tmp_path, 'x,c\n1,"a\nb"\n' + tail)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    @pytest.mark.parametrize("text, line", [
        ('x,c\n1,"a\n2,b\n', 2),
        ('x,c\n1,a\n\n2,"b""\n', 4),
        ('"x,c\n1,a\n', 1),
    ])
    def test_unclosed_quote_is_data_error(self, tmp_path, text, line):
        # it used to swallow the rest of the file into one category
        path = write(tmp_path, text)
        with pytest.raises(DataError, match=f", line {line}: quoted field not closed"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    def test_text_after_a_closing_quote_still_loads(self, tmp_path):
        # csv's strict mode refuses this; the loader keeps reading it
        path = write(tmp_path, 'x,c\n1,"a" \n2,"a"b\n')
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,cat"))
        assert ds.categorical[:, 0].tolist() == [0, 1]
        assert ds.cardinalities == (2,)

    def test_split_only_at_csv_line_ends(self, tmp_path):
        # str.splitlines would also split at these three
        path = write(tmp_path, "x,c\n1,a\x0cb\n2,a\x1cb\n3,a\u2028b\n1,a\x0cb\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,cat"))
        assert ds.numeric[:, 0].tolist() == [1.0, 2.0, 3.0, 1.0]
        assert ds.categorical[:, 0].tolist() == [0, 1, 2, 0]

    def test_missing_in_ignored_column_keeps_row(self, tmp_path):
        path = write(tmp_path, "x,skip,c\n1,?,a\n2,,b\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,ignore,cat"))
        assert ds.n == 2

    def test_padded_tokens_share_a_code(self, tmp_path):
        path = write(tmp_path, "c\n a\na\nb \nb\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("cat"))
        assert ds.categorical[:, 0].tolist() == [0, 0, 1, 1]
        assert ds.cardinalities == (2,)

    def test_missing_label_drops_row(self, tmp_path):
        path = write(tmp_path, "x,y\n1,p\n2,?\n3,\n4,q\n")
        ds, labels = load_mixed_csv(path, ColumnSchema.parse("num,label"))
        assert ds.numeric[:, 0].tolist() == [1.0, 4.0]
        assert labels.tolist() == [0, 1]

    def test_header_only_file(self, tmp_path):
        path = write(tmp_path, "x,c\n")
        with pytest.raises(DataError, match="dataset empty"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))

    def test_empty_file(self, tmp_path):
        path = write(tmp_path, "")
        with pytest.raises(DataError, match="is empty"):
            load_mixed_csv(path, ColumnSchema.parse("num,cat"))


# One column of a random token table: a role, then one token per row, each
# either a value, a missing sentinel or empty, padded with spaces.
_PAD = st.sampled_from(["", " ", "  "])
_MISSING = st.sampled_from(["?", ""])
_VALUE = {
    "num": st.floats(allow_nan=False, allow_infinity=False).map(repr),
    "cat": st.sampled_from(["a", "b", "c", "d"]),
    "label": st.sampled_from(["x", "y"]),
    "ignore": st.sampled_from(["u", "?", ""]),
}


@st.composite
def token_tables(draw):
    roles = draw(st.lists(st.sampled_from(["num", "cat", "ignore"]),
                          min_size=1, max_size=4))
    if draw(st.booleans()):
        roles.insert(draw(st.integers(0, len(roles))), "label")
    if not {"num", "cat"} & set(roles):
        roles.append("cat")
    n = draw(st.integers(0, 12))
    table = [[draw(_PAD) + draw(st.one_of(_VALUE[r], _MISSING) if r != "ignore"
                                else _VALUE[r]) + draw(_PAD)
              for r in roles] for _ in range(n)]
    blanks = draw(st.sets(st.integers(0, n)))
    return roles, table, blanks


class TestLoadRoundTrip:
    @settings(derandomize=True, max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(token_tables())
    def test_round_trip(self, tmp_path, case):
        roles, table, blanks = case
        lines = [",".join(f"h{j}" for j in range(len(roles)))]
        for i, row in enumerate(table + [None]):
            if i in blanks:
                lines.append("")
            if row is not None:
                lines.append(",".join(row))
        path = write(tmp_path, "\n".join(lines) + "\n")
        schema = ColumnSchema.parse(",".join(roles))
        stripped = [[tok.strip() for tok in row] for row in table]
        kept = [row for row in stripped
                if all(tok not in ("?", "") for tok, r in zip(row, roles)
                       if r != "ignore")]
        if not kept:
            with pytest.raises(DataError, match="dataset empty"):
                load_mixed_csv(path, schema)
            return
        ds, labels = load_mixed_csv(path, schema)
        assert ds.n == len(kept)
        for j, col in enumerate(schema.numeric_indices):
            assert ds.numeric[:, j].tolist() == [float(row[col]) for row in kept]
        encoded = [(ds.categorical[:, j], ds.cardinalities[j], col)
                   for j, col in enumerate(schema.categorical_indices)]
        if labels is not None:
            encoded.append((labels, None, schema.label_index))
        for codes, card, col in encoded:
            tokens = [row[col] for row in kept]
            firsts = list(dict.fromkeys(tokens))
            assert [firsts[c] for c in codes] == tokens
            assert card in (None, len(firsts))


def reference_load(path, schema, missing_values=("?",)):
    """``load_mixed_csv`` record by record, on its own reader: ``csv.reader``
    over the whole file, with each record's first line taken from
    ``line_num``. Every record's width is checked, every token is stripped
    and tested for a missing value, the surviving tokens are kept, and each
    categorical or label column is dictionary-encoded row by row."""
    missing = set(missing_values) | {""}
    with open(path, newline="", encoding="utf-8") as handle:
        reader = csv.reader(handle)
        header = next(reader, None)
        records, end = [], reader.line_num
        for record in reader:
            if record:  # a blank line holds no record but counts as a line
                records.append((end + 1, record))
            end = reader.line_num
    if header is None:
        raise DataError(f"{path} is empty")
    if len(header) != schema.width:
        raise SchemaError(f"schema has {schema.width} roles but header has "
                          f"{len(header)} columns")
    for line_no, record in records:
        if len(record) != schema.width:
            raise SchemaError(f"line {line_no}: expected {schema.width} "
                              f"fields, got {len(record)}")
    if not schema.numeric_indices and not schema.categorical_indices:
        raise SchemaError("schema declares no feature columns")

    used = [i for i, r in enumerate(schema.roles) if r != "ignore"]
    kept = []
    for line_no, record in records:
        row = [tok.strip() for tok in record]
        if all(row[col] not in missing for col in used):
            kept.append((line_no, row))
    n = len(kept)
    if n == 0:
        raise DataError("dataset empty after removing rows with missing values")

    numeric = np.empty((n, len(schema.numeric_indices)))
    for j, col in enumerate(schema.numeric_indices):
        for i, (line_no, row) in enumerate(kept):
            try:
                numeric[i, j] = float(row[col])
            except ValueError:
                raise DataError(f"line {line_no}, column {header[col]!r}: "
                                f"cannot parse {row[col]!r} as numeric") from None

    def encode(col):
        codebook = {}
        codes = np.fromiter((codebook.setdefault(row[col], len(codebook))
                             for _, row in kept), np.int64, n)
        return codes, len(codebook)

    categorical = np.empty((n, len(schema.categorical_indices)), dtype=np.int64)
    cards = []
    for j, col in enumerate(schema.categorical_indices):
        categorical[:, j], card = encode(col)
        cards.append(card)

    labels = None if schema.label_index is None else encode(schema.label_index)[0]
    return MixedDataset(numeric, categorical, tuple(cards)), labels


# Messy files: padded values and sentinels, empty fields, bad numeric tokens,
# blank lines, repeated rows, an all-distinct ID column, tokens holding
# characters that str.splitlines would split at, and \n, \r\n or \r line
# ends. Half the files also hold quoted fields: with a comma, or with line
# ends (both \r and \n, so the writer quotes them whatever its terminator)
# that make a record span lines.
_MESSY = {
    "num": ["1", "-2.5", "1e3", "0"],
    "cat": ["a", "b", "c", "NA", "p\x0cq", "r\x1cs"],
    "ord": ["lo", "mid", "hi"],
    "label": ["x", "y", "t\u2028u"],
    "ignore": ["u", "?", ""],
}
_QUOTED = {"cat": ["a,b", "m\r\nn"], "label": ["x,y", "o\rp\nq"],
           "ignore": ["v,w", "\r\n"]}
_BAD_NUMERIC = ["oops", "1,5", "nan"]
_SENTINEL = st.sampled_from(["?", "", "NA", " ?"])


@st.composite
def messy_csvs(draw):
    roles = draw(st.lists(st.sampled_from(["num", "cat", "ord", "ignore"]),
                          min_size=1, max_size=4))
    if draw(st.booleans()):
        roles.insert(draw(st.integers(0, len(roles))), "label")
    ids = draw(st.sampled_from([None, "cat", "ord", "label", "ignore"]))
    if ids == "label" and "label" in roles:
        ids = None
    if ids is not None:
        roles.insert(draw(st.integers(0, len(roles))), ids)
    faults = draw(st.sampled_from([[], _BAD_NUMERIC]))
    quoted = draw(st.booleans())
    values = {r: st.sampled_from(v + faults * (r == "num")
                                 + _QUOTED.get(r, []) * quoted)
              for r, v in _MESSY.items()}
    pad = draw(st.sampled_from([st.just(""), _PAD]))  # half the files unpadded
    n = draw(st.integers(0, 15))
    rows = []
    for i in range(n):
        row = [draw(pad) + draw(_SENTINEL if draw(st.integers(0, 4)) == 0 else values[r])
               + draw(pad) for r in roles]
        if ids is not None:
            row[roles.index(ids)] = draw(pad) + f"id{i}"
        rows.append(row)
    if rows:
        for at in draw(st.lists(st.integers(0, len(rows)), max_size=8)):
            rows.insert(at, rows[draw(st.integers(0, len(rows) - 1))])
    for at in sorted(draw(st.sets(st.integers(0, len(rows)))), reverse=True):
        rows.insert(at, [])
    missing = draw(st.sampled_from([("?",), (), ("?", "NA"), (" ?",)]))
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=draw(st.sampled_from(["\n", "\r\n", "\r"])))
    writer.writerow(f"h{j}" for j in range(len(roles)))
    writer.writerows(rows)
    return roles, out.getvalue(), missing


class TestLoadOracle:
    @settings(derandomize=True, max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(messy_csvs())
    def test_matches_per_token_reference(self, tmp_path, case):
        roles, text, missing = case
        path = write(tmp_path, text)
        schema = ColumnSchema.parse(",".join(roles))
        try:
            expected = reference_load(path, schema, missing)
        except (DataError, SchemaError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                load_mixed_csv(path, schema, missing)
            return
        (ds, labels), (want, want_labels) = load_mixed_csv(path, schema, missing), expected
        assert np.array_equal(ds.numeric, want.numeric)
        assert np.array_equal(ds.categorical, want.categorical)
        assert ds.cardinalities == want.cardinalities
        assert (labels is None) == (want_labels is None)
        if labels is not None:
            assert np.array_equal(labels, want_labels)


class TestMixedDataset:
    @pytest.mark.parametrize("bad", [0.5, 1.7, np.nan, np.inf])
    def test_non_integer_codes_rejected(self, bad):
        codes = np.array([[0.0], [bad], [1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no cast warning first
            with pytest.raises(DataError, match="must be integers"):
                MixedDataset(np.empty((3, 0)), codes, (2,))

    def test_fractional_codes_not_truncated(self):
        with pytest.raises(DataError, match="must be integers"):
            MixedDataset(np.empty((3, 0)), np.array([[0.5], [1.7], [0.0]]), (2,))

    def test_integral_float_codes_accepted(self):
        ds = MixedDataset(np.empty((3, 0)), np.array([[0.0], [1.0], [0.0]]), (2,))
        assert ds.categorical.dtype == np.int64
        assert ds.categorical[:, 0].tolist() == [0, 1, 0]

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_numeric_rejected(self, value):
        numeric = np.array([[0.0, 1.0], [2.0, value], [4.0, 5.0]])
        with pytest.raises(DataError, match="numeric column 1"):
            MixedDataset(numeric, np.zeros((3, 1), dtype=np.int64), (1,))

    @pytest.mark.parametrize("numeric, codes, cards, message", [
        (np.zeros(3), np.zeros((3, 1)), (1,), "must be 2-D"),
        (np.zeros((3, 1)), np.zeros(3), (1,), "must be 2-D"),
        (np.zeros((3, 1)), np.zeros((2, 1)), (1,), "disagree on row count"),
        (np.zeros((3, 1)), np.zeros((3, 1)), (1, 1), "cardinalities length"),
        (np.zeros((0, 1)), np.zeros((0, 1)), (1,), "no rows"),
        (np.zeros((3, 0)), np.zeros((3, 0)), (), "no feature columns"),
    ])
    def test_shape_errors(self, numeric, codes, cards, message):
        with pytest.raises(DataError, match=message):
            MixedDataset(numeric, codes, cards)


class TestStandardize:
    def test_two_point_column(self, tmp_path):
        path = write(tmp_path, "x,c\n0,a\n2,a\n")
        ds, _ = load_mixed_csv(path, ColumnSchema.parse("num,cat"))
        out = standardize_numeric(ds)
        assert np.allclose(out.numeric[:, 0], [-1.0, 1.0])

    def test_constant_column_zeroed(self):
        from specmix import MixedDataset
        # the mean of 5.0 is exact; the means of the others round, which
        # leaves the column a std of 1e-17 to 1e-14
        for value, n in [(5.0, 3), (0.1, 3), (0.1, 7), (0.1, 1000), (0.3, 10),
                         (0.7, 3), (123.456, 10)]:
            ds = MixedDataset(np.full((n, 1), value), np.zeros((n, 1), dtype=int), (1,))
            out = standardize_numeric(ds)
            assert np.array_equal(out.numeric, np.zeros((n, 1))), (value, n)

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

    @pytest.mark.parametrize("field, value", [
        ("p", "0.5"), ("p", None), ("sigma", "0.5"), ("sigma", None)])
    def test_non_number_is_config_error(self, field, value):
        # used to raise a raw TypeError from the range comparison
        params = dict(n=10, k=2, q=1, sigma=0.0, p=0.0)
        with pytest.raises(ConfigError, match=field):
            SyntheticParams(**{**params, field: value})

    @pytest.mark.parametrize("sigma", [np.nan, np.inf])
    def test_non_finite_sigma_rejected(self, sigma):
        # nan used to pass the sign check and fail later as a data error
        with pytest.raises(ConfigError, match="sigma"):
            SyntheticParams(n=10, k=2, q=1, sigma=sigma, p=0.0)

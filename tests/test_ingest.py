import csv
import decimal
import io
import json
import math
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings, strategies as st

from smdcard import documents, ingest
from smdcard.errors import ConfigError, InputError
from smdcard.harness import make_gaussian_mixture
from smdcard.model import EmbeddingSet, RecordTable, check_unique_ids


def _write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestEmbeddingsCsv:
    def test_small_file(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0,f1\na,1,2\nb,3,4\nc,5,6\n")
        es = ingest.read_embeddings(p)
        assert es.n == 3 and es.d == 2
        assert es.ids == ("a", "b", "c")

    def test_non_numeric_cell_names_position(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0,f1\na,1,2\nb,1,x\n")
        with pytest.raises(InputError, match=r"row 3 col 3"):
            ingest.read_embeddings(p)

    def test_duplicate_id_rejected(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0\na,1\na,2\n")
        with pytest.raises(InputError, match="duplicate id 'a'"):
            ingest.read_embeddings(p)

    def test_duplicate_id_check_scales_and_names_smallest(self, tmp_path):
        ids = [f"r{i:05d}" for i in range(50_000)]
        ids[10] = "r49999"     # first repeat met in file order
        ids[45_000] = "r00020"
        text = "id,f0\n" + "".join(f"{i},1\n" for i in ids)
        p = _write(tmp_path / "e.csv", text)
        with pytest.raises(InputError, match=r"e\.csv: duplicate id 'r00020'"):
            ingest.read_embeddings(p)

    def test_round_trip_bit_exact(self, tmp_path):
        es = make_gaussian_mixture(25, 4, [{"mean": 0.3, "scale": 1.7,
                                            "weight": 1.0}], seed=3)
        path = tmp_path / "round.csv"
        ingest.write_embeddings(es, str(path))
        back = ingest.read_embeddings(str(path), subgroup_column="subgroup")
        assert np.array_equal(back.data, es.data)
        assert back.ids == es.ids
        assert back.subgroup == es.subgroup

    def test_round_trip_quotes_awkward_labels(self, tmp_path):
        es = EmbeddingSet(ids=("a,b", 'say "hi"'), data=[[1.0], [-0.0]],
                          subgroup=("two\nlines", "g"), region=("r", "s,t"))
        path = tmp_path / "quoted.csv"
        ingest.write_embeddings(es, str(path))
        back = ingest.read_embeddings(str(path), subgroup_column="subgroup",
                                      region_column="region")
        assert (back.ids, back.subgroup, back.region) == (es.ids, es.subgroup,
                                                          es.region)
        assert back.data.tolist() == [[1.0], [-0.0]]

    @pytest.mark.parametrize("body, message", [
        ("a,1,x\nb,1\n", "row 2 col 3: 'x'"),          # cell before width
        ("a,1\nb,1,x\n", "row 2 has 2 cells"),          # width before cell
        ("a,1,nan\nb,x,1\n", "non-finite value at row 2 col 3"),
        ("a,1,2\nb,x,inf\n", "row 3 col 2: 'x'"),       # row-major order
    ])
    def test_first_bad_row_or_cell_in_file_order(self, tmp_path, body,
                                                 message):
        p = _write(tmp_path / "e.csv", "id,f0,f1\n" + body)
        with pytest.raises(InputError, match=message):
            ingest.read_embeddings(p)

    def test_subgroup_and_region_columns(self, tmp_path):
        p = _write(tmp_path / "e.csv",
                   "id,site,area,f0\na,s1,core,1\nb,s2,rim,2\n")
        es = ingest.read_embeddings(p, subgroup_column="site",
                                    region_column="area")
        assert es.subgroup == ("s1", "s2")
        assert es.region == ("core", "rim")
        assert es.d == 1

    def test_jsonl(self, tmp_path):
        p = _write(tmp_path / "e.jsonl",
                   '{"id": "a", "features": [1, 2]}\n'
                   '{"id": "b", "features": [3, 4]}\n')
        es = ingest.read_embeddings(p)
        assert es.n == 2 and es.d == 2

    def test_jsonl_reads_only_configured_label_keys(self, tmp_path):
        p = _write(tmp_path / "e.jsonl",
                   '{"key": "a", "id": 1, "subgroup": "s", "cohort": "c1", '
                   '"features": [1]}\n'
                   '{"key": "b", "id": 1, "subgroup": "s", "cohort": "c2", '
                   '"features": [2]}\n')
        es = ingest.read_embeddings(p, id_column="key")
        assert (es.ids, es.subgroup, es.region) == (("a", "b"), None, None)
        es = ingest.read_embeddings(p, id_column="key",
                                    subgroup_column="cohort")
        assert es.subgroup == ("c1", "c2")

    @pytest.mark.parametrize("columns, message", [
        ({"subgroup_column": "site"}, "subgroup .*'site'"),
        ({"region_column": "area"}, "region .*'area'"),
        ({"id_column": "key"}, "id .*'key'"),
    ])
    def test_configured_column_missing_in_either_format(self, tmp_path,
                                                        columns, message):
        csv_path = _write(tmp_path / "e.csv", "id,f0\na,1\nb,2\n")
        jsonl_path = _write(tmp_path / "e.jsonl",
                            '{"id": "a", "features": [1]}\n'
                            '{"id": "b", "features": [2]}\n')
        for path in (csv_path, jsonl_path):
            with pytest.raises(InputError, match=message):
                ingest.read_embeddings(path, **columns)

    def test_features_read_in_the_given_order(self, tmp_path):
        p = _write(tmp_path / "e.csv", "f1,id,f0\n2,a,1\n4,b,3\n")
        assert ingest.read_reference(p)[1] == ("f1", "f0")
        es = ingest.read_embeddings(p, features=("f0", "f1"))
        assert es.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(InputError, match=r"missing \['f2'\], not in "
                                             r"the reference \['f1'\]"):
            ingest.read_embeddings(p, features=("f0", "f2"))

    def test_read_reference_reads_the_labels_present(self, tmp_path):
        csv_path = _write(tmp_path / "e.csv", "id,f0,subgroup,f1\na,1,g,2\n")
        jsonl_path = _write(tmp_path / "e.jsonl",
                            '{"id": "a", "subgroup": "g", "features": [1]}\n')
        for path, names in ((csv_path, ("f0", "f1")), (jsonl_path, None)):
            eset, features = ingest.read_reference(path, "id", "subgroup",
                                                   "region")
            assert (eset.subgroup, eset.region) == (("g",), None)
            assert features == names

    def test_features_of_jsonl_are_positional(self, tmp_path):
        p = _write(tmp_path / "e.jsonl", '{"id": "a", "features": [1, 2]}\n')
        assert ingest.read_reference(p)[1] is None
        es = ingest.read_embeddings(p, features=("y", "x"))
        assert es.data.tolist() == [[1.0, 2.0]]

    @pytest.mark.parametrize("header", ["id,f0,f0", "id,f0,id"])
    def test_repeated_header_name_rejected(self, tmp_path, header):
        p = _write(tmp_path / "e.csv", header + "\na,1,2\n")
        with pytest.raises(InputError, match="header repeats column names"):
            ingest.read_embeddings(p)

    @pytest.mark.parametrize("features, message", [
        ('[1, 2]}\n{"id": "b", "features": [1]',
         "row 2 has 1 features, expected 2"),
        ("[]", "features must be a non-empty list"),
        ('"1,2"', "features must be a non-empty list"),
        ("[1, false]", "row 1 col 2: False"),
        ('[1, "2"]', "row 1 col 2: '2'"),
        ("[1, NaN]", "non-finite value at row 1 col 2"),
        ("[1, 1e400]", "non-finite value at row 1 col 2"),
        ("[1, 1" + "0" * 400 + "]", "non-finite value at row 1 col 2"),
        # past the interpreter's limit on the digits of an int
        pytest.param("[1, 1" + "0" * 5000 + "]", "row 1: Exceeds the limit",
                     id="long_integer"),
    ])
    def test_jsonl_features_follow_the_cell_rules(self, tmp_path, features,
                                                  message):
        p = _write(tmp_path / "e.jsonl",
                   '{"id": "a", "features": ' + features + "}\n")
        with pytest.raises(InputError, match=message):
            ingest.read_embeddings(p)

    def test_byte_order_mark_ignored(self, tmp_path):
        for name, text in (("e.csv", "id,f0\na,1\n"),
                           ("e.jsonl", '{"id": "a", "features": [1]}\n')):
            path = tmp_path / name
            path.write_bytes(b"\xef\xbb\xbf" + text.encode())
            es = ingest.read_embeddings(str(path))
            assert (es.ids, es.data.tolist()) == (("a",), [[1.0]])

    def test_infinite_value_rejected(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id,f0\na,inf\n")
        with pytest.raises(InputError, match="non-finite"):
            ingest.read_embeddings(p)


class TestRecordTableCsv:
    SCHEMA = {"age": "numeric", "sex": "categorical", "note": "text"}

    def test_missing_cells_masked(self, tmp_path):
        p = _write(tmp_path / "t.csv",
                   "age,sex,note\n30,F,ok\n,M,\n40,,fine\n50,F,x\n")
        t = ingest.read_record_table(p, self.SCHEMA)
        assert t.n == 4
        assert int(t.missing_mask.sum()) == 3

    def test_sentinel_masks_instead_of_erroring(self, tmp_path):
        p = _write(tmp_path / "t.csv", "age,sex,note\nN/A,F,ok\n30,M,x\n")
        t = ingest.read_record_table(p, self.SCHEMA, missing_sentinel="N/A")
        assert bool(t.missing_mask[0, 0])
        assert np.isnan(t.floats("age")[0])

    def test_categorical_domain_collected(self, tmp_path):
        p = _write(tmp_path / "t.csv", "age,sex,note\n30,F,a\n31,M,b\n32,F,c\n")
        t = ingest.read_record_table(p, self.SCHEMA)
        codes, domain = t.codes("sex")
        assert domain == ("F", "M")
        assert codes.tolist() == [0, 1, 0]

    def test_row_width_mismatch_names_row(self, tmp_path):
        p = _write(tmp_path / "t.csv", "age,sex,note\n30,F\n")
        with pytest.raises(InputError, match="row 2"):
            ingest.read_record_table(p, self.SCHEMA)

    @pytest.mark.parametrize("body, message", [
        ("x,F,a\n30,F\n", "row 2 col 1: 'x'"),
        ("30,F\nx,F,a\n", "row 2 has 2 cells"),
        ("30,F,a\n,M,b\ninf,F,c\n", "non-finite value at row 4 col 1"),
        ("N/A,F,a\n", "row 2 col 1: 'N/A'"),
    ])
    def test_first_bad_row_or_cell_in_file_order(self, tmp_path, body,
                                                 message):
        p = _write(tmp_path / "t.csv", "age,sex,note\n" + body)
        with pytest.raises(InputError, match=message):
            ingest.read_record_table(p, self.SCHEMA)

    def test_repeated_header_name_rejected(self, tmp_path):
        p = _write(tmp_path / "t.csv", "age,sex,age\n30,F,31\n")
        with pytest.raises(InputError, match=r"t\.csv: header repeats "
                                             r"column names \['age'\]"):
            ingest.read_record_table(p, self.SCHEMA)

    def test_byte_order_mark_ignored(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_bytes(b"\xef\xbb\xbfage,sex,note\n30,F,a\n")
        t = ingest.read_record_table(str(path), self.SCHEMA)
        assert t.column_names == ("age", "sex", "note")

    def test_undeclared_column_rejected(self, tmp_path):
        p = _write(tmp_path / "t.csv", "age,sex,note,extra\n30,F,a,b\n")
        with pytest.raises(InputError, match="extra"):
            ingest.read_record_table(p, self.SCHEMA)

    def test_round_trip(self, tmp_path):
        from smdcard.harness import inject_defect, make_record_table
        table = inject_defect(make_record_table(20, seed=5), "mask_cells",
                              seed=6, fraction=0.2).dataset
        path = tmp_path / "round.csv"
        ingest.write_record_table(table, str(path))
        schema = dict(table.columns)
        back = ingest.read_record_table(str(path), schema)
        assert back.columns == table.columns
        for name in table.column_names:
            assert back.column(name) == table.column(name)
        assert np.array_equal(back.missing_mask, table.missing_mask)

    def test_round_trip_quotes_awkward_text(self, tmp_path):
        texts = ["a,b", 'say "hi"', "two\nlines", "plain", None]
        table = RecordTable((("note", "text"), ("age", "numeric")),
                            [texts, [1.5, None, -0.0, 2.0, 3.0]])
        path = tmp_path / "quoted.csv"
        ingest.write_record_table(table, str(path))
        back = ingest.read_record_table(str(path), dict(table.columns))
        assert back.column("note") == texts
        assert back.column("age") == [1.5, None, -0.0, 2.0, 3.0]
        assert path.read_text().endswith(",-0.0\nplain,2.0\n,3.0\n")

    def test_round_trip_bare_carriage_return(self, tmp_path):
        texts = ["a\rb", "plain", None]
        table = RecordTable((("note", "text"), ("age", "numeric")),
                            [texts, [1.5, None, 2.0]])
        path = tmp_path / "cr.csv"
        ingest.write_record_table(table, str(path))
        back = ingest.read_record_table(str(path), dict(table.columns))
        assert back.column("note") == texts
        assert back.column("age") == [1.5, None, 2.0]
        # only the row holding the carriage return is quoted whole
        assert path.read_bytes() == b'note,age\n"a\rb","1.5"\nplain,\n,2.0\n'

    def test_one_column_missing_cell_written_quoted(self, tmp_path):
        table = RecordTable((("x", "numeric"),), [[1.0, None]])
        path = tmp_path / "one.csv"
        ingest.write_record_table(table, str(path))
        assert path.read_text() == 'x\n1.0\n""\n'
        back = ingest.read_record_table(str(path), {"x": "numeric"})
        assert back.column("x") == [1.0, None]


class TestPgm:
    def test_binary_round_trip_8bit(self, tmp_path):
        img = np.arange(48, dtype=np.uint8).reshape(6, 8)
        path = tmp_path / "img.pgm"
        ingest.write_pgm(str(path), img)
        back, maxval = ingest.read_pgm(str(path))
        assert maxval == 255
        assert np.array_equal(back, img)

    def test_binary_round_trip_16bit(self, tmp_path):
        img = (np.arange(30, dtype=np.uint16) * 2000).reshape(5, 6)
        path = tmp_path / "img16.pgm"
        ingest.write_pgm(str(path), img, maxval=65535)
        back, maxval = ingest.read_pgm(str(path))
        assert maxval == 65535
        assert np.array_equal(back, img)

    def test_ascii_graymap(self, tmp_path):
        text = "P2\n# comment\n3 2\n255\n0 10 20\n30 40 50\n"
        path = tmp_path / "a.pgm"
        path.write_text(text)
        img, maxval = ingest.read_pgm(str(path))
        assert img.shape == (2, 3)
        assert img[1, 2] == 50

    def test_truncated_rejected(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P5\n4 4\n255\nxx")
        with pytest.raises(InputError, match="truncated"):
            ingest.read_pgm(str(path))

    @pytest.mark.parametrize("maxval, pixel, message", [
        (255, "256", "pixel exceeds declared maxval 255"),
        (255, "-1", "negative pixel in ASCII graymap"),
        (1000, "70000", "pixel exceeds declared maxval 1000"),
        (255, "1" * 23, "pixel exceeds declared maxval 255")])
    def test_ascii_pixel_outside_its_container_rejected(self, tmp_path, maxval,
                                                        pixel, message):
        # checked against 0..maxval before the pixels meet a uint8/uint16
        path = tmp_path / "wide.pgm"
        path.write_text(f"P2\n2 2\n{maxval}\n1 2 3 {pixel}\n")
        with pytest.raises(InputError) as caught:
            ingest.read_pgm(str(path))
        assert str(caught.value) == f"{path}: {message}"


class TestCanonicalJson:
    def test_floats_at_nine_significant_digits(self):
        text = documents.dumps_canonical({"x": 1.0 / 3.0})
        assert '"x": 0.333333333' in text

    def test_integers_stay_integers(self):
        text = documents.dumps_canonical({"n": 7})
        assert '"n": 7' in text
        assert json.loads(text)["n"] == 7

    def test_whole_floats_keep_decimal_point(self):
        assert '"v": 82.0' in documents.dumps_canonical({"v": 82.0})

    def test_inf_serialized_as_string(self):
        assert '"inf"' in documents.dumps_canonical({"v": float("inf")})

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            documents.dumps_canonical({"v": float("nan")})

    def test_numpy_scalars_as_python_numbers(self):
        doc = {"i": np.int64(7), "u": np.uint8(3), "f": np.float32(0.5),
               "g": np.float64(1.0 / 3.0), "x": [np.int32(-2)]}
        assert documents.dumps_canonical(doc) == documents.dumps_canonical(
            {"i": 7, "u": 3, "f": 0.5, "g": 1.0 / 3.0, "x": [-2]})

    @pytest.mark.parametrize("value", [np.bool_(True), np.array([1.0]),
                                       object(), decimal.Decimal("1.5")])
    def test_other_types_rejected(self, value):
        with pytest.raises(InputError, match="cannot serialize"):
            documents.dumps_canonical({"v": value})

    def test_round_trip_stable(self):
        doc = {"a": [1.5, 2, "x"], "b": {"c": None, "d": True},
               "e": 0.1234567891234}
        once = documents.dumps_canonical(doc)
        twice = documents.dumps_canonical(json.loads(once))
        assert once == twice

    def test_atomic_write_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        documents.atomic_write(str(target), b"one")
        documents.atomic_write(str(target), b"two")
        assert target.read_bytes() == b"two"
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []


class TestImagePairs:
    def test_manifest_paths_resolve_relative(self, tmp_path):
        (tmp_path / "a.pgm").write_bytes(b"")
        manifest = _write(tmp_path / "pairs.csv", "a.pgm,b.pgm\n")
        pairs = ingest.read_image_pairs(manifest)
        assert pairs[0][0].endswith("a.pgm")
        assert pairs[0][0].startswith(str(tmp_path))

    def test_wrong_column_count_rejected(self, tmp_path):
        manifest = _write(tmp_path / "pairs.csv", "a.pgm\n")
        with pytest.raises(InputError, match="exactly two"):
            ingest.read_image_pairs(manifest)


class TestConfigDocument:
    def test_defaults_filled(self, tmp_path):
        p = _write(tmp_path / "c.yaml",
                   "metrics: [frechet_distance]\n"
                   "bounds:\n  frechet_distance: [0, 10]\n")
        cfg = ingest.read_eval_config(p)
        assert cfg.thresholds == {"good": 80.0, "moderate": 70.0}
        assert cfg.aggregation == "arithmetic"
        assert cfg.param("frechet_distance", "mode") is None

    def test_unordered_thresholds_rejected(self, tmp_path):
        p = _write(tmp_path / "c.yaml",
                   "metrics: [cosine_similarity]\n"
                   "thresholds: {good: 70, moderate: 80}\n")
        with pytest.raises(ConfigError, match="thresholds not ordered"):
            ingest.read_eval_config(p)

    def test_unknown_key_rejected(self, tmp_path):
        p = _write(tmp_path / "c.yaml",
                   "metrics: [cosine_similarity]\nmystery: 1\n")
        with pytest.raises(ConfigError, match="mystery"):
            ingest.read_eval_config(p)

    def test_unknown_metric_rejected(self, tmp_path):
        p = _write(tmp_path / "c.yaml", "metrics: [made_up_metric]\n")
        with pytest.raises(ConfigError, match="made_up_metric"):
            ingest.read_eval_config(p)


class TestReportFile:
    def test_write_then_read_structurally_identical(self, tmp_path):
        from smdcard.aggregate import assemble_report
        from smdcard.config import config_from_dict
        from smdcard.aggregate import make_result

        cfg = config_from_dict({"metrics": ["cosine_similarity"]})
        report = assemble_report({("global", "cosine_similarity"):
                                  make_result("cosine_similarity", 0.25)},
                                 cfg, seed=2, config_digest="e" * 64,
                                 tool={"name": "smdcard", "version": "0.0"})
        path = tmp_path / "report.json"
        written = documents.write_report(report, str(path))
        back, payload = documents.read_report(str(path))
        assert payload == written
        assert documents.dumps_canonical(back.to_dict()).encode() == written


class TestTextInputs:
    """Every text input is UTF-8; a cell is at most csv.field_size_limit()
    characters on both tokenizer paths."""

    LIMIT = csv.field_size_limit()

    @pytest.mark.parametrize("name, text, read", [
        ("t.csv", "age,sex,note\n30,F,a\n31,M,\xe9\n",
         lambda p: ingest.read_record_table(p, TestRecordTableCsv.SCHEMA)),
        ("e.csv", "id,f0\na,1\n\xe9,2\n", ingest.read_embeddings),
        ("e.csv", "id,f0\na,1\n\xe9,2\n", ingest.read_reference),
        ("e.jsonl", '{"id": "a", "features": [1]}\n\n{"id": "\xe9"}\n',
         ingest.read_embeddings),
        ("pairs.csv", "a.pgm,b.pgm\n\n\xe9.pgm,c.pgm\n",
         ingest.read_image_pairs),
    ])
    def test_non_utf8_data_names_file_and_line(self, tmp_path, name, text,
                                                read):
        path = tmp_path / name
        path.write_bytes(text.encode("latin-1"))
        with pytest.raises(InputError, match=rf"{name}: line 3 is not UTF-8 "
                                             r"text \(byte 0xe9\)"):
            read(str(path))

    @pytest.mark.parametrize("read", [ingest.read_eval_config,
                                      documents.read_yaml])
    def test_non_utf8_yaml_is_a_config_error(self, tmp_path, read):
        path = tmp_path / "c.yaml"
        path.write_bytes(b"\xef\xbb\xbfmetrics: [cosine_similarity]\n"
                         b"# caf\xe9\n")
        with pytest.raises(ConfigError, match=r"c\.yaml: line 2 is not UTF-8"):
            read(str(path))

    @pytest.mark.parametrize("quoted", [False, True])
    def test_oversize_cell_names_its_row_on_both_paths(self, tmp_path,
                                                       quoted):
        big = "9" * (self.LIMIT + 1)
        p = _write(tmp_path / "t.csv", "age,sex,note\n30,F,a\n"
                   + (f'{big},F,"b"' if quoted else f"{big},F,b") + "\n")
        with pytest.raises(InputError, match=r"t\.csv: row 3: field larger "
                                             r"than field limit "
                                             rf"\({self.LIMIT}\)"):
            ingest.read_record_table(p, TestRecordTableCsv.SCHEMA)

    @pytest.mark.parametrize("quoted", [False, True])
    def test_cell_at_the_limit_is_read(self, tmp_path, quoted):
        note = "n" * self.LIMIT
        p = _write(tmp_path / "t.csv", "age,sex,note\n30,F,"
                   + (f'"{note}"' if quoted else note) + "\n")
        table = ingest.read_record_table(p, TestRecordTableCsv.SCHEMA)
        assert table.column("note") == [note]

    def test_oversize_header_cell_names_row_1(self, tmp_path):
        p = _write(tmp_path / "e.csv", "id," + "f" * (self.LIMIT + 1) + "\n")
        for read in (ingest.read_reference, ingest.read_embeddings):
            with pytest.raises(InputError, match=r"e\.csv: row 1: field "
                                                 "larger than field limit"):
                read(p)

    def test_nul_byte_is_an_input_error(self, tmp_path):
        # a cell holding NUL on Python 3.11+, "line contains NUL" before
        p = _write(tmp_path / "t.csv", "age,sex,note\n3\x000,F,a\n")
        with pytest.raises(InputError, match=r"t\.csv: .*row 2"):
            ingest.read_record_table(p, TestRecordTableCsv.SCHEMA)

    @pytest.mark.parametrize("text", [
        "metrics: [cosine_similarity, recall]\nseed: 7\n"
        "bounds: {frechet_distance: [0, 1.5e3]}\n",
        "a: &x {k: [1, 2.0, .inf, null, yes, '3']}\nb: *x\n"
        "c: |\n  two\n  lines\nd: 2001-12-14\n",
        "",
    ])
    def test_yaml_loader_reads_what_safe_load_reads(self, tmp_path, text):
        path = _write(tmp_path / "c.yaml", text)
        assert documents.read_yaml(path) == (yaml.safe_load(text) or {})


# ---------------------------------------------------------------------------
# The column-wise reader against the row-wise reader it replaced, which
# parsed a (rows, width) object matrix of csv.reader records.


def _oracle_header(path, reader):
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise InputError(f"{path}: empty file") from None
    repeated = sorted(name for name, count in Counter(header).items()
                      if count > 1)
    if repeated:
        raise InputError(f"{path}: header repeats column names {repeated}")
    return header


def _oracle_cells(path, reader, width, numeric, missing_texts=()):
    records = list(reader)
    end = next((r for r, record in enumerate(records)
                if len(record) != width), len(records))
    cells = np.frompyfunc(str.strip, 1, 1)(
        np.array(records[:end], dtype=object).reshape(end, width))
    missing = np.isin(cells, np.array(missing_texts, dtype=object))
    block, skip = cells[:, numeric], missing[:, numeric]
    try:
        values = np.where(skip, "nan", block).astype(np.float64)
    except ValueError:
        values = None
    if values is None or not np.isfinite(values[~skip]).all():
        for (r, j), cell in np.ndenumerate(block):
            if not skip[r, j]:
                ingest._parse_float(cell, r + 2, numeric[j] + 1, path)
    if end < len(records):
        raise InputError(f"{path}: row {end + 2} has {len(records[end])} "
                         f"cells, expected {width}")
    return cells, missing, values


def _oracle_record_table(path, schema, missing_sentinel):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _oracle_header(path, reader)
        missing_decl = sorted(set(header) - set(schema))
        if missing_decl:
            raise InputError(f"{path}: columns {missing_decl} not declared "
                             "in the schema")
        absent = sorted(set(schema) - set(header))
        if absent:
            raise InputError(f"{path}: schema columns {absent} not in the file")
        kinds = [schema[name] for name in header]
        numeric = [j for j, kind in enumerate(kinds) if kind == "numeric"]
        cells, missing, floats = _oracle_cells(path, reader, len(header),
                                               numeric, ("", missing_sentinel))
    cells[missing] = None
    cells[:, numeric] = floats
    return RecordTable(tuple(zip(header, kinds)), list(cells.T))


def _oracle_embeddings(path, keys, features):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        header = _oracle_header(path, reader)
        feature_cols = ingest._feature_indices(path, header, keys)
        names = [header[j] for j in feature_cols]
        cells, _, data = _oracle_cells(path, reader, len(header), feature_cols)
    if features is not None and names != list(features):
        data = data[:, [names.index(name) for name in features]]
    if not len(data):
        raise InputError(f"{path}: no data rows")
    labels = {name: cells[:, header.index(key)] for name, key in keys.items()}
    ids = labels.pop("id")
    check_unique_ids(list(ids), f"{path}: ")
    return EmbeddingSet(ids=ids, data=data, **labels)


_NUMBERS = st.sampled_from([
    "1", "-0.0", "-0", "2.5e3", " 7 ", "1_0", "0x1", "1e400", "nan", "-inf",
    "x", "1.2.3", "9007199254740993", "18446744073709551616", "01", "+1",
    ".5", "5.", "true", "null", "[1]", "1,2"]) | st.floats(
    allow_nan=False, allow_infinity=False).map(repr)
_TEXTS = st.sampled_from(["", "  ", "\t", "NA", " NA ", "-1", "a", " b "]) \
    | st.text(' ,"\r\nab\x00\xe9', max_size=3)
_CELLS = _NUMBERS | _TEXTS


@st.composite
def _csv_text(draw, names, cells):
    """Comma-separated text: header ``names``, then rows of cells drawn from
    ``cells(name, row)``, some of them short, long or empty; written as is
    or quoted by ``csv.writer``, with LF or CRLF line ends, with or without
    a final line end and a byte-order mark."""
    rows = []
    for i in range(draw(st.integers(0, 5))):
        row = [draw(cells(name, i)) for name in names]
        shape = draw(st.sampled_from(["whole"] * 5 + ["short", "long",
                                                      "empty"]))
        if shape == "short":
            row.pop()
        elif shape == "long":
            row.append(draw(_CELLS))
        elif shape == "empty":
            row = []
        rows.append(row)
    header = [draw(st.sampled_from([name, f" {name}"])) for name in names]
    end = draw(st.sampled_from(["\n", "\n", "\r\n"]))
    quoting = draw(st.sampled_from([None, None, csv.QUOTE_MINIMAL,
                                    csv.QUOTE_ALL]))
    if quoting is None:
        text = end.join(",".join(row) for row in [header, *rows])
    else:
        buffer = io.StringIO()
        csv.writer(buffer, lineterminator=end,
                   quoting=quoting).writerows([header, *rows])
        text = buffer.getvalue()[:-len(end)]
    if draw(st.booleans()):
        text += end
    return ("\ufeff" if draw(st.booleans()) else "") + text


def _same_error(read, expected):
    """``read`` fails as the oracle did; a csv error becomes an InputError
    naming its row."""
    with pytest.raises(InputError) as got:
        read()
    if isinstance(expected, csv.Error):
        assert " row " in str(got.value)
        assert str(got.value).endswith(str(expected))
    else:
        assert str(got.value) == str(expected)


@st.composite
def _record_tables(draw):
    names = [f"c{j}" for j in range(draw(st.integers(1, 3)))]
    kinds = [draw(st.sampled_from(["numeric", "numeric", "categorical",
                                   "text"])) for _ in names]
    text = draw(_csv_text(names, lambda name, row: _CELLS))
    sentinel = draw(st.sampled_from(["", "NA", " NA ", "-1", "nan"]))
    return text, dict(zip(names, kinds)), sentinel


# blocks of one and two records put block edges between any two rows
_BLOCK_ROWS = st.sampled_from([1, 2, ingest._BLOCK_ROWS])


@given(_record_tables(), _BLOCK_ROWS)
@settings(max_examples=400, deadline=None)
def test_record_table_reader_matches_row_wise_oracle(tmp_path_factory, case,
                                                     block_rows):
    text, schema, sentinel = case
    path = tmp_path_factory.mktemp("table") / "t.csv"
    path.write_bytes(text.encode("utf-8"))

    def read():
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            return ingest.read_record_table(str(path), schema, sentinel)
    try:
        want = _oracle_record_table(str(path), schema, sentinel)
    except (InputError, csv.Error) as exc:
        _same_error(read, exc)
        return
    got = read()
    assert (got.columns, got.n) == (want.columns, want.n)
    for name, kind in want.columns:
        if kind == "numeric":
            assert got.floats(name).tobytes() == want.floats(name).tobytes()
        (codes, domain), (want_codes, want_domain) = (got.codes(name),
                                                      want.codes(name))
        assert (codes.tolist(), domain) == (want_codes.tolist(), want_domain)


@pytest.mark.parametrize("block_rows", [1, 2, ingest._BLOCK_ROWS])
@pytest.mark.parametrize("schema, body, message", [
    # one cell too many, then one too few: a block holding both has as
    # many cells as its records should
    ({"age": "numeric", "sex": "categorical", "note": "text"},
     "30,F,a,b\n31,M\n32,F,c\n", "row 2 has 4 cells, expected 3"),
    ({"age": "numeric", "sex": "categorical", "note": "text"},
     "30,F,a\n31,F,a,b\n32,M\n", "row 3 has 4 cells, expected 3"),
    ({"age": "numeric", "sex": "categorical", "note": "text"},
     "x,F,a\n31,F,a,b\n32,M\n", "non-numeric cell at row 2 col 1: 'x'"),
    # an empty line of a one-column file is a record of no cells
    ({"age": "numeric"}, "30\n\n31\n", "row 3 has 0 cells, expected 1"),
    ({"sex": "categorical"}, "F\nM\n\n", "row 4 has 0 cells, expected 1"),
])
def test_record_of_another_width_found_in_any_block(tmp_path, block_rows,
                                                    schema, body, message):
    p = _write(tmp_path / "t.csv", ",".join(schema) + "\n" + body)
    with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
        with pytest.raises(InputError) as exc:
            ingest.read_record_table(p, schema)
    assert str(exc.value) == f"{p}: {message}"


@st.composite
def _embedding_files(draw):
    features = [f"f{j}" for j in range(draw(st.integers(1, 3)))]
    labels = ["id", "g"] if draw(st.booleans()) else ["id"]
    names = draw(st.permutations(labels + features))

    def cells(name, row):
        if name == "id":
            return st.sampled_from([f"r{row}", f" r{row} ", f"r{row % 2}"])
        return _TEXTS if name == "g" else _NUMBERS
    text = draw(_csv_text(names, cells))
    order = draw(st.none() | st.permutations(features))
    return text, labels, order


@given(_embedding_files(), _BLOCK_ROWS)
@settings(max_examples=400, deadline=None)
def test_embedding_reader_matches_row_wise_oracle(tmp_path_factory, case,
                                                  block_rows):
    text, labels, features = case
    path = tmp_path_factory.mktemp("emb") / "e.csv"
    path.write_bytes(text.encode("utf-8"))
    subgroup = "g" if "g" in labels else None
    features = None if features is None else tuple(features)

    def read():
        with mock.patch.object(ingest, "_BLOCK_ROWS", block_rows):
            return ingest.read_embeddings(str(path), "id", subgroup,
                                          features=features)
    try:
        want = _oracle_embeddings(str(path),
                                  ingest._label_keys("id", subgroup, None),
                                  features)
    except (InputError, csv.Error) as exc:
        _same_error(read, exc)
        return
    got = read()
    assert (got.ids, got.subgroup, got.region) == (want.ids, want.subgroup,
                                                    want.region)
    assert got.data.shape == want.data.shape
    assert got.data.tobytes() == want.data.tobytes()


# ---------------------------------------------------------------------------
# numeric column blocks: one JSON parse, exactly as one float() per cell


def _decimal_text(sign, digits, exponent):
    return f"{sign}{digits[0]}{'.' + digits[1:] if digits[1:] else ''}" \
           f"e{exponent}"


def _midpoint_text(x):
    """The decimal halfway between ``x`` and the next double up, in full."""
    with decimal.localcontext() as context:
        context.prec = 2000
        mid = (decimal.Decimal(x)
               + decimal.Decimal(float(np.nextafter(x, math.inf)))) / 2
        return format(mid, "f")


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_JSON_CELLS = st.one_of(
    _FINITE.map(repr),
    st.builds(_decimal_text, st.sampled_from(["", "-"]),
              st.from_regex(r"[1-9][0-9]{0,39}", fullmatch=True),
              st.integers(-330, 330)),
    _FINITE.filter(lambda x: abs(x) < 1.7976931348623157e308).map(
        _midpoint_text),
    st.integers(2 ** 53, 2 ** 70).map(str),
    st.integers(-(2 ** 70), -(2 ** 64)).map(str),
    st.sampled_from(["-0", "-0.0", "0", "1e-400", "-1e-400", "4.9e-324",
                     "1E5"]),
).filter(lambda cell: math.isfinite(float(cell)))
# numbers float() reads that are not JSON numbers: their block takes the
# float() path
_OTHER_CELLS = st.sampled_from(["+1", ".5", "5.", "01", "-00", "1_0", "+.5e-3",
                                "\u0661\u0662"])
_MISSING_CELLS = st.sampled_from(["", "NA"])


@st.composite
def _numeric_blocks(draw):
    pools = [_JSON_CELLS, _JSON_CELLS | _MISSING_CELLS,
             _JSON_CELLS | _OTHER_CELLS | _MISSING_CELLS]
    return [draw(st.lists(draw(st.sampled_from(pools)), min_size=1,
                          max_size=12))
            for _ in range(draw(st.integers(1, 4)))]


@given(_numeric_blocks())
@settings(max_examples=300, deadline=None)
def test_numeric_blocks_read_as_float_of_each_cell(blocks):
    starts = np.cumsum([2] + [len(cells) for cells in blocks])
    got = ingest._parse_columns("t.csv", 1, ((int(row), [cells]) for row, cells
                                             in zip(starts, blocks)),
                                {0}, ("", "NA"))[0]
    want = np.array([math.nan if cell in ("", "NA") else float(cell)
                     for cells in blocks for cell in cells])
    assert got.view(np.int64).tolist() == want.view(np.int64).tolist()


@pytest.mark.parametrize("cells, read", [
    (["-0", "0", "-0.0", "0e5", "-0E-5"], [-0.0, 0.0, -0.0, 0.0, -0.0]),
    (["9007199254740993", "18446744073709551616", "1E5", "4.9e-324"],
     [9007199254740992.0, 18446744073709551616.0, 1e5, 5e-324]),
    (["1", "", "NA", "-0"], [1.0, math.nan, math.nan, -0.0]),
])
def test_json_block_reads_what_float_reads(cells, read):
    got = ingest._json_floats(cells, dict.fromkeys(["", "NA"], "null"))
    assert got is not None  # the block took the JSON parse
    assert got.view(np.int64).tolist() == \
        np.array(read).view(np.int64).tolist()


@pytest.mark.parametrize("cell", ["true", "false", "null", "[1]", "{}",
                                  '"1"', "1,2", "+1", ".5", "5.", "01",
                                  "1_0", "inf", "NaN", "1e400", "\u0661"])
def test_json_block_refuses_what_is_not_one_json_number(cell):
    assert ingest._json_floats(["1", cell], {}) is None
    assert ingest._json_floats(["", "1", cell], {"": "null"}) is None


def test_json_block_reads_a_null_cell_only_as_missing():
    assert ingest._json_floats(["null", ""], {"": "null"}) is None
    got = ingest._json_floats(["null", "1"], {"null": "null"})
    assert np.isnan(got[0]) and got[1] == 1.0


@pytest.mark.parametrize("cell", ["true", "null", "[1]", "1,2"])
def test_cell_that_is_not_a_number_names_its_position(tmp_path, cell):
    p = _write(tmp_path / "t.csv", f'age,sex\n1,F\n"{cell}",M\n')
    with pytest.raises(InputError) as exc:
        ingest.read_record_table(p, {"age": "numeric", "sex": "categorical"})
    assert str(exc.value) == f"{p}: non-numeric cell at row 3 col 1: {cell!r}"


def test_cells_of_blank_free_ascii_text_are_not_stripped(tmp_path):
    """The strip rule: a quote-free file with no blank but its line feeds
    is split as is; one blank anywhere makes every cell stripped."""
    schema = {"age": "numeric", "sex": "categorical"}
    bare = _write(tmp_path / "bare.csv", "age,sex\n1,F\n-0,M\n")
    spaced = _write(tmp_path / "spaced.csv", "age,sex\n1 ,F\n-0,\tM\n")
    for path in (bare, spaced):
        t = ingest.read_record_table(path, schema)
        assert t.floats("age").view(np.int64).tolist() == \
            np.array([1.0, -0.0]).view(np.int64).tolist()
        assert t.codes("sex")[1] == ("F", "M")


def test_jsonl_is_read_without_a_copy_of_its_text(tmp_path):
    # its lines are matched in the text, as a quoted CSV file's are: the
    # JSON-lines file peaks no higher than the same embeddings as CSV
    eset = make_gaussian_mixture(5000, 16, [{"mean": 0.0, "scale": 1.0,
                                             "weight": 1.0}], seed=3)
    paths = {kind: str(tmp_path / f"e.{kind}") for kind in ("csv", "jsonl")}
    ingest.write_embeddings(eset, paths["csv"])
    with open(paths["jsonl"], "w", encoding="utf-8") as fh:
        for i in range(eset.n):
            fh.write(json.dumps({"id": eset.ids[i],
                                 "subgroup": eset.subgroup[i],
                                 "features": eset.data[i].tolist()}) + "\n")
    peaks = {}
    for kind, path in paths.items():
        read = ingest.read_embeddings(path, subgroup_column="subgroup")
        assert read.data.tobytes() == eset.data.tobytes()  # and a warm-up
        tracemalloc.start()
        try:
            ingest.read_embeddings(path, subgroup_column="subgroup")
            peaks[kind] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert peaks["jsonl"] <= peaks["csv"], peaks


def test_jsonl_line_ends_and_row_numbers():
    # CR LF, CR and LF each end a line; blank lines are skipped but counted
    text = ('{"id": "a", "features": [1]}\r\n\r{"id": "b", "features": [2]}'
            '\r{"id": "c"}\n')
    with mock.patch.object(ingest, "_read_text", return_value=text):
        records = ingest.jsonl_records("e.jsonl")
        assert [(r, record["id"]) for r, record in records] == [
            (1, "a"), (3, "b"), (4, "c")]


def test_quoted_table_is_read_a_block_at_a_time(tmp_path):
    # "anemia, iron" makes the writer quote it, so that file is read through
    # csv.reader: its records, like the quote-free file's cells, are alive a
    # block at a time, not all at once
    from smdcard.harness import inject_defect, make_record_table
    numeric = {"age": (20.0, 80.0), "hgb": (10.0, 17.0),
               "sbp": (90.0, 160.0), "bmi": (18.0, 35.0)}
    schema = {**dict.fromkeys(numeric, "numeric"),
              **dict.fromkeys(("sex", "site", "band", "dx"), "categorical")}
    peaks, tables = {}, {}
    for first in ("anemia", "anemia, iron"):
        table = inject_defect(make_record_table(
            5000, seed=1, numeric_fields=numeric, categorical_fields={
                "sex": ["F", "M"], "site": ["A", "B", "C", "D"],
                "band": ["18-39", "40-59", "60-79", "80+"],
                "dx": [first, "asthma", "diabetes", "none"]}),
            "mask_cells", seed=2, fraction=0.02).dataset
        path = str(tmp_path / "t.csv")
        ingest.write_record_table(table, path)
        ingest.read_record_table(path, schema)  # warm-up
        tracemalloc.start()
        try:
            tables[first] = ingest.read_record_table(path, schema)
            peaks[first] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert '"anemia, iron"' in (tmp_path / "t.csv").read_text("utf-8")
    assert peaks["anemia, iron"] < 1.5 * peaks["anemia"], peaks
    with mock.patch.object(ingest, "_BLOCK_ROWS", 7):
        small = ingest.read_record_table(path, schema)
    want = tables["anemia, iron"]
    for name in schema:
        if schema[name] == "numeric":
            assert small.floats(name).tobytes() == want.floats(name).tobytes()
        codes, domain = small.codes(name)
        want_codes, want_domain = want.codes(name)
        assert (codes.tolist(), domain) == (want_codes.tolist(), want_domain)
    assert np.array_equal(small.missing_mask, want.missing_mask)

import json

import numpy as np
import pytest

from smdcard import ingest
from smdcard.errors import ConfigError, InputError
from smdcard.harness import make_gaussian_mixture
from smdcard.model import EmbeddingSet, RecordTable


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
        assert ingest.reference_columns(p) == ([None, None], ("f1", "f0"))
        es = ingest.read_embeddings(p, features=("f0", "f1"))
        assert es.data.tolist() == [[1.0, 2.0], [3.0, 4.0]]
        with pytest.raises(InputError, match=r"missing \['f2'\], not in "
                                             r"the reference \['f1'\]"):
            ingest.read_embeddings(p, features=("f0", "f2"))

    def test_reference_columns_name_the_labels_present(self, tmp_path):
        csv_path = _write(tmp_path / "e.csv", "id,f0,subgroup,f1\na,1,g,2\n")
        jsonl_path = _write(tmp_path / "e.jsonl",
                            '{"id": "a", "subgroup": "g", "features": [1]}\n')
        assert ingest.reference_columns(csv_path, "id", "subgroup",
                                        "region") == (["subgroup", None],
                                                      ("f0", "f1"))
        assert ingest.reference_columns(jsonl_path, "id", "subgroup",
                                        "region") == (["subgroup", None], None)

    def test_features_of_jsonl_are_positional(self, tmp_path):
        p = _write(tmp_path / "e.jsonl", '{"id": "a", "features": [1, 2]}\n')
        assert ingest.reference_columns(p) == ([None, None], None)
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


class TestCanonicalJson:
    def test_floats_at_nine_significant_digits(self):
        text = ingest.dumps_canonical({"x": 1.0 / 3.0})
        assert '"x": 0.333333333' in text

    def test_integers_stay_integers(self):
        text = ingest.dumps_canonical({"n": 7})
        assert '"n": 7' in text
        assert json.loads(text)["n"] == 7

    def test_whole_floats_keep_decimal_point(self):
        assert '"v": 82.0' in ingest.dumps_canonical({"v": 82.0})

    def test_inf_serialized_as_string(self):
        assert '"inf"' in ingest.dumps_canonical({"v": float("inf")})

    def test_nan_rejected(self):
        with pytest.raises(InputError):
            ingest.dumps_canonical({"v": float("nan")})

    def test_round_trip_stable(self):
        doc = {"a": [1.5, 2, "x"], "b": {"c": None, "d": True},
               "e": 0.1234567891234}
        once = ingest.dumps_canonical(doc)
        twice = ingest.dumps_canonical(json.loads(once))
        assert once == twice

    def test_atomic_write_replaces(self, tmp_path):
        target = tmp_path / "out.json"
        ingest.atomic_write(str(target), b"one")
        ingest.atomic_write(str(target), b"two")
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
        from smdcard.model import make_result

        cfg = config_from_dict({"metrics": ["cosine_similarity"]})
        report = assemble_report([make_result("cosine_similarity", 0.25)],
                                 cfg, seed=2, config_digest="e" * 64,
                                 tool={"name": "smdcard", "version": "0.0"})
        path = tmp_path / "report.json"
        written = ingest.write_report(report, str(path))
        back, payload = ingest.read_report(str(path))
        assert payload == written
        assert ingest.dumps_canonical(back.to_dict()).encode() == written

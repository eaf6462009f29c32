import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from smdcard.config import config_from_dict
from smdcard.errors import InputError
from smdcard.aggregate import make_result, undefined_result
from smdcard.model import EmbeddingSet, LabelCoder, RecordTable
from smdcard.runner import EvaluationInputs

from conftest import embedding_from, plan_messages, table_from


def _config(metrics, **extra):
    return config_from_dict({"metrics": metrics,
                             "bounds": extra.pop("bounds", {}), **extra})


class TestEmbeddingSet:
    def test_basic_construction(self):
        es = embedding_from([[1.0, 2.0], [3.0, 4.0]])
        assert es.n == 2 and es.d == 2
        assert not es.data.flags.writeable

    def test_duplicate_ids_rejected(self):
        with pytest.raises(InputError, match="duplicate id"):
            EmbeddingSet(ids=("a", "a"), data=np.zeros((2, 2)))

    def test_label_length_mismatch_rejected(self):
        with pytest.raises(InputError, match="subgroup"):
            EmbeddingSet(ids=("a", "b"), data=np.zeros((2, 2)),
                         subgroup=("x",))

    def test_empty_rejected(self):
        with pytest.raises(InputError):
            EmbeddingSet(ids=(), data=np.zeros((0, 2)))

    def test_subset_keeps_labels(self):
        es = EmbeddingSet(ids=("a", "b", "c"), data=np.eye(3),
                          subgroup=("s", "t", "s"))
        sub = es.subset([0, 2])
        assert sub.ids == ("a", "c")
        assert sub.subgroup == ("s", "s")

    def test_resample_equals_constructed_draw(self):
        es = EmbeddingSet(ids=("b0", "b1", "b2"),
                          data=np.arange(6.0).reshape(3, 2),
                          subgroup=("s", "t", "u"), region=("x", "y", "z"))
        rows = np.array([2, 2, 0])
        drawn = es.resample(rows)
        built = EmbeddingSet(ids=es.ids, data=es.data[rows])
        assert (drawn.ids, drawn.subgroup, drawn.region) == (
            built.ids, built.subgroup, built.region)
        assert drawn.data.dtype == built.data.dtype
        assert np.array_equal(drawn.data, built.data)
        assert not drawn.data.flags.writeable
        assert np.array_equal(es.data, np.arange(6.0).reshape(3, 2))
        assert es.resample([1]).ids == ("b0",)
        assert np.array_equal(es.resample([1]).data, es.data[[1]])
        for bad in ([], [0, 1, 2, 0], [[0, 1], [1, 2]]):
            with pytest.raises(InputError, match="1 to 3 row indices"):
                es.resample(np.array(bad, dtype=np.intp))


class TestRecordTable:
    def test_duplicate_columns_rejected(self):
        with pytest.raises(InputError, match="duplicate column"):
            table_from([("x", "numeric"), ("x", "numeric")], [(1.0, 2.0)])

    def test_floats_mark_missing_with_nan(self):
        t = table_from([("x", "numeric")], [(1.0,), (None,), (3.0,)])
        assert np.array_equal(t.floats("x"), [1.0, np.nan, 3.0],
                              equal_nan=True)
        assert not t.floats("x").flags.writeable
        assert t.missing_mask[:, 0].tolist() == [False, True, False]

    def test_column_length_mismatch(self):
        with pytest.raises(InputError, match="column 'y' has 1 cells"):
            RecordTable((("x", "numeric"), ("y", "numeric")),
                        [[1.0, 2.0], [1.0]])

    def test_codes_key_on_cell_text(self):
        t = table_from([("x", "numeric"), ("s", "text")],
                       [(0.0, "b"), (-0.0, None), (None, "<missing>"),
                        (0.0, "b")])
        codes, domain = t.codes("x")
        assert domain == ("-0.0", "0.0")
        assert codes.tolist() == [1, 0, -1, 1]
        codes, domain = t.codes("s")
        assert domain == ("<missing>", "b")
        assert codes.tolist() == [1, -1, 0, 1]
        assert t.rows[1] == (-0.0, None) and t.rows[2] == (None, "<missing>")

    def test_non_string_category_rejected(self):
        with pytest.raises(InputError, match="strings or None"):
            table_from([("s", "categorical")], [(1,), ("a",)])


def _sorted_domain_codes(cells):
    """The coding rule stated directly: one set of the distinct cells, one
    sort, one index; None is -1 and any other non-string is an error."""
    distinct = set(cells) - {None}
    if not all(isinstance(value, str) for value in distinct):
        raise InputError("categorical and text cells must be strings or None")
    domain = tuple(sorted(distinct))
    index = dict(zip((None, *domain), range(-1, len(domain))))
    return [index[cell] for cell in cells], domain


def _outcome(code, cells):
    try:
        return code(cells)
    except InputError as exc:
        return f"InputError({exc})"


_LABELS = st.none() | st.sampled_from(["b", "a", "B", "", "NA", "\xe9"]) \
    | st.text(max_size=3)
# hashable cells that are not strings
_NON_STRINGS = st.sampled_from([1, 0.5, math.nan, True, b"a", ("a",)])


@given(st.lists(_LABELS, max_size=12)
       | st.lists(_LABELS | _NON_STRINGS, max_size=12),
       st.sampled_from([(None,), (None, "", "NA")]),
       st.lists(st.integers(0, 12), max_size=3))
@example(["b", "a", "c", "a"], (None,), [1])  # first seen is not sorted
@example(["a", None, "a"], (None,), [])  # one label
@example([None, "NA", ""], (None, "", "NA"), [2])  # no labels
@example([], (None,), [])
@example(["a", 1], (None,), [1])
@settings(max_examples=300, deadline=None)
def test_label_coder_matches_sorted_domain_oracle(cells, missing, cuts):
    """Codes added block by block (blocks cut at ``cuts``) equal one set,
    sort and index of the whole column, missing texts read as None; a
    non-string cell fails with the same error."""
    def coded(cells):
        coder = LabelCoder(missing)
        for start, stop in zip([0, *sorted(cuts)], [*sorted(cuts), None]):
            coder.add(cells[start:stop])
        codes, domain = coder.codes()
        assert len(coder) == len(cells) == len(codes)
        assert codes.dtype == np.intp and not codes.flags.writeable
        return codes.tolist(), domain

    want = _outcome(_sorted_domain_codes,
                    [None if cell in missing else cell for cell in cells])
    assert _outcome(coded, cells) == want
    if missing == (None,):  # a harness column goes through the same coder
        table = _outcome(lambda c: RecordTable((("s", "text"),), [c]), cells)
        if isinstance(want, str):
            assert table == want
        else:
            codes, domain = table.codes("s")
            assert (codes.tolist(), domain) == want


class TestMetricResult:
    def test_nan_value_rejected(self):
        with pytest.raises(InputError):
            make_result("cosine_similarity", float("nan"))

    def test_inf_sentinel_allowed(self):
        r = make_result("psnr", math.inf)
        assert math.isinf(r.value)

    def test_undefined_records_reason(self):
        r = undefined_result("cosine_similarity", "zero centroid")
        assert not r.defined
        assert r.diagnostics["undefined_reason"] == "zero centroid"


class TestValidateInputs:
    """The input checks of ``runner.plan``."""

    def test_matching_dims_ok(self):
        real = embedding_from(np.zeros((10, 8)) + np.arange(8))
        synth = embedding_from(np.ones((12, 8)), prefix="s")
        cfg = _config(["frechet_distance"], bounds={"frechet_distance": [0, 10]})
        assert plan_messages(EvaluationInputs(synth, real), cfg) == []

    def test_binary_metric_requires_reference(self):
        synth = embedding_from(np.ones((12, 8)), prefix="s")
        cfg = _config(["frechet_distance"], bounds={"frechet_distance": [0, 10]})
        messages = plan_messages(EvaluationInputs(synth, None), cfg)
        assert messages
        assert any("requires a reference set" in m for m in messages)
        assert any("frechet_distance" in m for m in messages)

    def test_nan_names_row_and_column(self):
        data = np.ones((3, 2))
        data[1, 1] = np.nan
        synth = EmbeddingSet(ids=("a", "b", "c"), data=data)
        cfg = _config(["vendi_score"])
        messages = plan_messages(EvaluationInputs(synth, None), cfg)
        assert any("'b'" in m and "column 1" in m for m in messages)

    def test_dimension_mismatch(self):
        real = embedding_from(np.zeros((10, 4)))
        synth = embedding_from(np.ones((10, 8)), prefix="s")
        cfg = _config(["cosine_similarity"])
        messages = plan_messages(EvaluationInputs(synth, real), cfg)
        assert any("dimension mismatch" in m for m in messages)

    def test_oversized_k_flagged(self):
        real = embedding_from(np.arange(8.0).reshape(4, 2))
        synth = embedding_from(np.arange(8.0).reshape(4, 2) + 0.5, prefix="s")
        cfg = _config(["precision"], params={"precision": {"k": 10}})
        messages = plan_messages(EvaluationInputs(synth, real), cfg)
        assert any("k=10" in m for m in messages)

    @pytest.mark.parametrize("params", [{}, {"precision": {"k": 3}}])
    def test_default_k_checked_like_explicit_k(self, params):
        real = embedding_from(np.arange(6.0).reshape(3, 2))
        synth = embedding_from(np.arange(8.0).reshape(4, 2) + 0.5, prefix="s")
        cfg = _config(["precision"], params=params)
        messages = plan_messages(EvaluationInputs(synth, real), cfg)
        assert [m.split(":")[0] for m in messages] == ["E226"]
        assert "k=3" in messages[0]

    def test_empty_subgroup_label_flagged(self):
        synth = EmbeddingSet(ids=("a", "b"), data=np.ones((2, 2)),
                             subgroup=("x", ""))
        cfg = _config(["vendi_score"])
        messages = plan_messages(EvaluationInputs(synth, None), cfg)
        assert any("empty subgroup" in m for m in messages)

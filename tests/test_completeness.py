import pytest

from smdcard.completeness import missing_data_percentage, required_field_proportion
from smdcard.errors import EvaluationError

from conftest import table_from

COLUMNS = [("a", "numeric"), ("b", "numeric"), ("c", "categorical"),
           ("d", "text"), ("e", "numeric")]


def _full_table(n=10):
    return table_from(COLUMNS, [(1.0, 2.0, "x", "t", 3.0)] * n)


class TestRequiredFieldProportion:
    def test_four_of_five(self):
        table = _full_table()
        value, diag = required_field_proportion(
            table, ["a", "b", "c", "d", "ghost"])
        assert value == pytest.approx(0.8)
        assert diag["per_field"]["ghost"] == "absent"

    def test_all_present(self):
        value, _ = required_field_proportion(_full_table(),
                                             ["a", "b", "c", "d", "e"])
        assert value == 1.0

    def test_populated_threshold_counts_hand_tally(self):
        rows = [(1.0, 2.0, "x", "t", 3.0)] * 9 + [(None, 2.0, "x", "t", 3.0)]
        table = table_from(COLUMNS, rows)
        # column a is 90% populated: absent under a 95% threshold
        value, diag = required_field_proportion(table, ["a", "b"],
                                                populated_threshold=0.95)
        assert value == pytest.approx(0.5)
        assert diag["per_field"]["a"].startswith("underpopulated")
        # and present under an 85% threshold
        value_lo, _ = required_field_proportion(table, ["a", "b"],
                                                populated_threshold=0.85)
        assert value_lo == 1.0

    def test_empty_required_list_errors(self):
        with pytest.raises(EvaluationError, match="empty"):
            required_field_proportion(_full_table(), [])

    def test_empty_table_undefined(self):
        with pytest.raises(EvaluationError, match="empty table"):
            required_field_proportion(_full_table(0), ["a"])

    def test_deleting_populated_column_never_increases(self):
        table = _full_table()
        required = ["a", "b", "c"]
        base, _ = required_field_proportion(table, required)
        # drop column b
        kept = [0, 2, 3, 4]
        smaller = table_from([COLUMNS[i] for i in kept],
                             [tuple(row[i] for i in kept)
                              for row in table.rows])
        after, _ = required_field_proportion(smaller, required)
        assert after <= base


class TestMissingDataPercentage:
    def test_three_of_twenty(self):
        rows = [(1.0, 2.0, "x", "t", 3.0)] * 4
        rows[0] = (None, 2.0, "x", "t", 3.0)
        rows[1] = (1.0, None, "x", None, 3.0)
        value, _ = missing_data_percentage(table_from(COLUMNS, rows))
        assert value == pytest.approx(3 / 20)

    def test_no_missing_zero(self):
        value, _ = missing_data_percentage(_full_table())
        assert value == 0.0

    def test_empty_table_undefined(self):
        with pytest.raises(EvaluationError, match="empty table"):
            missing_data_percentage(_full_table(0))

    def test_fully_missing_column(self):
        cols = [("w", "numeric"), ("x", "numeric"), ("y", "numeric"),
                ("z", "numeric")]
        rows = [(None, 1.0, 2.0, 3.0)] * 10
        value, _ = missing_data_percentage(table_from(cols, rows))
        assert value == pytest.approx(0.25)

    def test_masking_monotone(self):
        rows = [[1.0, 2.0, "x", "t", 3.0] for _ in range(6)]
        previous = -1.0
        for masked_rows in range(7):
            current = [tuple(row) if i >= masked_rows else
                       (None,) + tuple(row[1:])
                       for i, row in enumerate(rows)]
            value, _ = missing_data_percentage(table_from(COLUMNS, current))
            assert value >= previous
            previous = value

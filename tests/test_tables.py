"""Reference-table reproduction tests."""

from dataclasses import fields

from fanspectra.tables import (
    COLUMNS,
    REFERENCE_FAN_TABLE,
    REFERENCE_GENERALIZED_FAN_TABLE,
    RowCheck,
    reproduce_fan_table,
    reproduce_generalized_fan_table,
    round_half_away,
)


class TestRounding:
    def test_half_away_from_zero(self):
        assert round_half_away(4.415) == 4.42
        assert round_half_away(-4.415) == -4.42
        assert round_half_away(1.585) == 1.59
        assert round_half_away(3.0) == 3.0

    def test_sqrt_based_entries(self):
        assert round_half_away(3 + 2**0.5) == 4.41
        assert round_half_away(3 - 2**0.5) == 1.59


class TestColumns:
    def test_columns_name_the_cells_of_a_row_in_order(self):
        # the CLI prints each row's cells in COLUMNS order, and a row is built in that order
        assert COLUMNS == ("adjacency", "laplacian")
        assert tuple(f.name for f in fields(RowCheck)) == ("key", *COLUMNS)


class TestFanTable:
    def test_covers_every_reference_row(self):
        rows = reproduce_fan_table()
        assert [row.key for row in rows] == [(n,) for n in sorted(REFERENCE_FAN_TABLE)]

    def test_n3_laplacian_is_flagged(self):
        rows = {row.key[0]: row for row in reproduce_fan_table()}
        cell = rows[3].laplacian
        assert not cell.ok
        assert cell.computed == (0.0, 2.0, 4.0, 4.0)
        assert cell.reference == (0.0, 1.0, 1.0, 4.0)
        assert "sum 6" in cell.note and "trace 10" in cell.note

    def test_n3_adjacency_is_fine(self):
        rows = {row.key[0]: row for row in reproduce_fan_table()}
        assert rows[3].adjacency.ok

    def test_remaining_laplacian_rows_match(self):
        rows = {row.key[0]: row for row in reproduce_fan_table()}
        for n in (4, 5, 6, 7):
            assert rows[n].laplacian.ok, rows[n].laplacian.note


class TestGeneralizedFanTable:
    def test_covers_every_reference_row(self):
        rows = reproduce_generalized_fan_table()
        assert [row.key for row in rows] == sorted(REFERENCE_GENERALIZED_FAN_TABLE)

    def test_2_2_row_is_flagged(self):
        rows = {row.key: row for row in reproduce_generalized_fan_table()}
        cell = rows[(2, 2)].laplacian
        assert not cell.ok
        assert cell.computed == (0.0, 2.0, 4.0, 4.0)
        assert cell.reference == (0.0, 2.0, 2.0, 4.0)
        # the reference adjacency row is the 4-cycle's spectrum, not this graph's
        assert not rows[(2, 2)].adjacency.ok

    def test_other_rows_match_in_both_columns(self):
        rows = {row.key: row for row in reproduce_generalized_fan_table()}
        for key in ((2, 3), (3, 2), (3, 4), (4, 3)):
            assert rows[key].adjacency.ok, rows[key].adjacency.note
            assert rows[key].laplacian.ok, rows[key].laplacian.note

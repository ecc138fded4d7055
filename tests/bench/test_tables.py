"""Table harness tests: rows exist, totals aggregate, shapes hold."""

from repro.bench.suite import GT_SUBSET, SUITE
from repro.core.config import ICPConfig
from repro.bench.tables import (
    clear_cache,
    format_table1,
    format_table2,
    format_table5,
    table1_rows,
    table2_rows,
    table3_rows,
    table4_rows,
    table5_rows,
    timing_rows,
)


class TestRowGeneration:
    def test_table1_covers_suite(self):
        rows = table1_rows()
        assert [r.name for r in rows] == list(SUITE)
        assert all(r.paper is not None for r in rows)

    def test_table2_covers_suite(self):
        rows = table2_rows()
        assert [r.name for r in rows] == list(SUITE)

    def test_table3_covers_subset(self):
        rows = table3_rows()
        assert [r.name for r in rows] == list(GT_SUBSET)

    def test_table4_covers_subset(self):
        rows = table4_rows()
        assert [r.name for r in rows] == list(GT_SUBSET)

    def test_table5_covers_subset(self):
        rows = table5_rows()
        assert [r.name for r in rows] == list(GT_SUBSET)
        assert all(r.paper is not None for r in rows)

    def test_cache_clearing(self):
        table1_rows()
        clear_cache()
        rows = table1_rows()
        assert rows

    def test_cache_keys_on_the_whole_config(self):
        # A cache keyed by profile and propagate_floats alone handed this
        # config the default run's results for four profiles.
        other = ICPConfig(engine="simple", context_mode="value-contexts")
        clear_cache()
        fresh = [(row.name, row.measured) for row in table2_rows(other)]
        clear_cache()
        table2_rows()
        assert [(row.name, row.measured) for row in table2_rows(other)] == fresh


class TestTable5Shape:
    def test_ordering_fi_poly_fs(self):
        rows = table5_rows()
        total_poly = sum(r.polynomial for r in rows)
        total_fi = sum(r.fi for r in rows)
        total_fs = sum(r.fs for r in rows)
        # Paper totals: FI 532 < POLY 817 < FS 961.
        assert total_fi < total_poly < total_fs

    def test_doduc_all_equal(self):
        row = next(r for r in table5_rows() if "doduc" in r.name)
        assert row.polynomial == row.fi == row.fs

    def test_matrix300_fs_dominates(self):
        row = next(r for r in table5_rows() if "matrix300" in r.name)
        assert row.fs > row.polynomial > row.fi

    def test_fs_geq_poly_everywhere(self):
        for row in table5_rows():
            assert row.fs >= row.polynomial


class TestTiming:
    def test_timing_rows(self):
        rows = timing_rows()
        assert len(rows) == len(SUITE)
        for row in rows:
            assert row.fs_seconds >= 0
            assert row.analysis_increase >= 1.0


class TestFormatting:
    def test_table1_format(self):
        text = format_table1(table1_rows(), "Table 1")
        assert "TOTAL" in text and "013.spice2g6" in text

    def test_table2_format(self):
        text = format_table2(table2_rows(), "Table 2")
        assert "procs" in text

    def test_table5_format(self):
        text = format_table5(table5_rows())
        assert "paper: 817 532 961" in text

"""Tests for memory-budgeted mining."""

import pytest

from repro.budget import mine_with_budget
from repro.core.cfp_growth import cfp_growth
from repro.errors import ExperimentError
from repro.storage.pagefile import PAGE_SIZE
from tests.conftest import normalize, random_database


@pytest.fixture(scope="module")
def workload():
    # Sized so the CFP-array exceeds the two-page minimum budget.
    db = random_database(17, n_transactions=900, n_items=60, max_length=16)
    expected = normalize(cfp_growth(db, 5))
    return db, expected


class TestInCore:
    def test_generous_budget_stays_in_memory(self, workload):
        db, expected = workload
        itemsets, report = mine_with_budget(db, 5, memory_budget=64 * 1024 * 1024)
        assert not report.went_out_of_core
        assert report.page_faults == 0
        assert normalize(itemsets) == expected

    def test_report_sizes(self, workload):
        db, __ = workload
        __, report = mine_with_budget(db, 5, memory_budget=64 * 1024 * 1024)
        assert 0 < report.tree_bytes
        assert 0 < report.array_bytes


class TestOutOfCore:
    def test_tight_budget_spills(self, workload, tmp_path):
        db, expected = workload
        itemsets, report = mine_with_budget(
            db, 5, memory_budget=2 * PAGE_SIZE, spill_dir=tmp_path
        )
        assert report.went_out_of_core
        assert report.array_bytes > report.budget_bytes
        assert report.page_faults > 0
        assert normalize(itemsets) == expected

    def test_spill_file_cleaned_up(self, workload, tmp_path):
        db, __ = workload
        mine_with_budget(db, 5, memory_budget=2 * PAGE_SIZE, spill_dir=tmp_path)
        assert list(tmp_path.iterdir()) == []

    def test_results_identical_across_budgets(self, workload):
        db, expected = workload
        for budget in (2 * PAGE_SIZE, 8 * PAGE_SIZE, 1 << 26):
            itemsets, __ = mine_with_budget(db, 5, memory_budget=budget)
            assert normalize(itemsets) == expected, budget


class TestPartitionedSpill:
    """The default out-of-core path is the tiered partitioned store."""

    def test_report_carries_tier_fields(self, workload, tmp_path):
        db, expected = workload
        itemsets, report = mine_with_budget(
            db, 5, memory_budget=2 * PAGE_SIZE, spill_dir=tmp_path
        )
        assert report.went_out_of_core
        assert report.partitions >= 1
        assert report.hot_bytes >= 0
        assert report.bytes_read > 0
        assert normalize(itemsets) == expected


class TestValidation:
    def test_budget_floor(self):
        with pytest.raises(ExperimentError):
            mine_with_budget([[1]], 1, memory_budget=PAGE_SIZE)

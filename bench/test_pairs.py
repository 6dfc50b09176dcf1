"""Tests of the paired-run summary (``python3 -m pytest bench -q``)."""

import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from pairs import main, summarize  # noqa: E402


def test_summary_reads_the_better_way_and_counts_ties_for_neither():
    pairs = [({"ms": b, "rate": 1.0 / b}, {"ms": h, "rate": 1.0 / h})
             for b, h in ((10.0, 9.0), (12.0, 12.0), (11.0, 10.0), (13.0, 14.0))]
    summary = summarize(pairs, {"ms": "lower", "rate": "higher"})
    assert summary["ms"]["wins"] == summary["rate"]["wins"] == 2
    assert summary["ms"]["pairs"] == 4
    assert summary["ms"]["base"] == {"median": 11.5, "q1": 10.75, "q3": 12.25}
    assert summary["ms"]["base_iqr"] == 1.5
    assert summary["ms"]["head"]["median"] == 11.0
    assert summary["ms"]["change"] == pytest.approx(11.0 / 11.5 - 1.0)


def test_one_pair_has_no_spread():
    summary = summarize([({"ms": 2.0}, {"ms": 1.0})], {"ms": "lower"})
    assert summary["ms"]["base"] == {"median": 2.0, "q1": 2.0, "q3": 2.0}
    assert (summary["ms"]["base_iqr"], summary["ms"]["wins"]) == (0.0, 1)


@pytest.mark.parametrize("argv", [["--pairs", "0"], ["--seconds", "0"], ["--seconds", "nan"]])
def test_empty_runs_are_refused(argv):
    with pytest.raises(SystemExit) as info:
        main(["--base", "HEAD", "--workload", "spectra", *argv])
    assert info.value.code == 2

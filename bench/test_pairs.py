"""Tests of the paired-run summary and driver (``python3 -m pytest bench -q``)."""

import json
import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import pairs  # noqa: E402
from pairs import main, summarize  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


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


def test_an_unknown_workload_is_refused_before_anything_is_archived(monkeypatch, capsys):
    exported = []
    monkeypatch.setattr(pairs, "_export", lambda rev, dest: exported.append(rev))
    with pytest.raises(SystemExit) as info:
        main(["--base", "HEAD", "--workload", "tailoring", "bogus", "--pairs", "1"])
    assert info.value.code == 2 and exported == []
    assert "no workload bogus" in capsys.readouterr().err


def test_several_workloads_share_one_archive_and_get_a_summary_each(monkeypatch, capsys):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        metrics = [m["name"] for m in json.load(fh)["end_to_end"]]
    exported, ran = [], []

    def export(rev, dest):
        exported.append(rev)
        os.makedirs(os.path.join(dest, "perfbench"))

    def run(tree, workload, seed, seconds):
        side = os.path.basename(tree)
        ran.append((workload, side))
        value = {"spectra": 10.0, "cli": 200.0}[workload] * (0.5 if side == "head" else 1.0)
        return {"correct": True, "metrics": {name: {"value": value} for name in metrics}}

    monkeypatch.setattr(pairs, "_export", export)
    monkeypatch.setattr(pairs, "_run", run)
    assert main(["--base", "HEAD", "--head", "HEAD", "--workload", "spectra", "cli",
                 "--pairs", "3", "--seconds", "1"]) == 0
    assert exported == ["HEAD", "HEAD"]
    # all pairs of one workload before the next, odd pairs base first
    sides = [("base", "head"), ("head", "base"), ("base", "head")]
    assert ran == [(w, side) for w in ("spectra", "cli") for pair in sides for side in pair]
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[1] for line in lines if line.startswith("# ")] == ["spectra", "cli"]
    summaries = [json.loads(line) for line in lines if line.startswith("{")]
    assert [s["workload"] for s in summaries] == ["spectra", "cli"]
    for summary, base in zip(summaries, (10.0, 200.0)):
        assert len(summary["pairs"]) == 3
        assert summary["summary"]["op_p50_ms"]["base"]["median"] == base
        assert summary["summary"]["op_p50_ms"]["head"]["median"] == base / 2.0
        assert summary["summary"]["op_p50_ms"]["wins"] == 3

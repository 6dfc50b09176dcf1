"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q
"""

import json
import os

import numpy as np
import pytest

import run
import tracer as tracing
from workloads import WORKLOADS, CheckFailed, Workload


def _same(a, b):
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray):
        return np.array_equal(a, b)
    return a == b


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(name):
    workload = WORKLOADS[name]
    first, again, other = workload.inputs(7), workload.inputs(7), workload.inputs(8)
    assert _same(first, again)
    assert not _same(first["pool"], other["pool"])
    assert _same(workload.op_input(first, 12), workload.op_input(again, 12))


class _Flaky(Workload):
    """Every third op raises and every fifth returns a wrong answer."""

    name = "flaky"

    def inputs(self, seed):
        return {"pool": list(range(30))}

    def op(self, sq, state, x):
        if x % 3 == 0:
            raise RuntimeError("op made to fail")
        return x * x if x % 5 else -1

    def check(self, sq, state, x, out):
        if out != x * x:
            raise CheckFailed(f"{out} != {x * x}")


def test_failed_ops_raise_error_rate():
    loop = run.run_loop(_Flaky(), None, _Flaky().inputs(0), {}, seconds=0.0)
    metrics, extra = run.end_to_end(loop, [1.0], [1.0])
    attempted = len(loop["lat"])
    bad = [i for i in range(attempted) if i % 3 == 0 or i % 5 == 0]
    assert attempted == 2 * run.TAIL_ABOVE + 1
    assert [i for i, _ in loop["failures"]] == bad
    assert extra["error_rate"][0] == pytest.approx(len(bad) / attempted)
    clean = run.run_loop(_Flaky(), None, {"pool": [1, 2, 4, 7]}, {}, seconds=0.0)
    assert run.end_to_end(clean, [1.0], [1.0])[1]["error_rate"][0] == 0.0


def test_tail_is_fixed_percentile_with_ten_samples_above_it():
    lat = [float(k) for k in range(80)]
    p50, tail, pct = run.latency_stats(lat)
    assert (p50, tail, pct) == (39.5, 59.0, run.TAIL_PCT)
    short = lat[:21]
    _, tail, pct = run.latency_stats(short)
    assert sum(v > tail for v in short) == run.TAIL_ABOVE and pct < run.TAIL_PCT


@pytest.fixture(scope="module")
def traced_spectra():
    workload = WORKLOADS["spectra"]
    sq, inputs, state = run._setup(workload, seed=3)
    tracer = tracing.Tracer()
    loop = run.run_loop(workload, sq, inputs, state, seconds=0.0, tracer=tracer)
    return sq, workload, tracer, loop


def test_span_self_times_of_an_op_fit_in_its_wall_time(traced_spectra):
    sq, _, tracer, loop = traced_spectra
    assert loop["traced"] == [False, True] and not loop["failures"]
    own = tracer.self_times()
    span_op = np.array(tracer.span_op)
    assert len(own) > 0 and np.all(span_op == 1)
    assert np.all(own >= -1e-9)
    assert own.sum() <= loop["raw"][1]
    totals = tracer.layer_totals([1])
    top = max(totals, key=lambda k: totals[k][1])
    assert top == "linalg.hermitian_eigendecompose"
    # uninstalling restores every lookup site
    assert sq.hermitian_eigendecompose is sq.linalg.hermitian_eigendecompose
    assert not hasattr(sq.spin.hermitian_eigendecompose, "__wrapped__")


def test_traced_metrics_match_benchmark_json(traced_spectra, tmp_path):
    _, workload, tracer, loop = traced_spectra
    metrics, _ = run.per_layer(workload, loop, tracer, [1.0])
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert declared == {k: unit for k, (_, unit) in metrics.items()}
    # per donor: one tilted solve, one labelling, two for the gradients
    assert metrics["linalg.hermitian_eigendecompose.calls"][0] == 16
    path = tmp_path / "spans.json.gz"
    tracer.dump(path)
    assert len(tracing.load_spans(path)["start"]) == len(tracer.start)

"""Detection plans, exact/sampled sweeps, pulse budgets.

Expected detection weights were frozen from hand expansions of the error
words on the code words (branch overlaps reduce to small rational numbers);
pulse totals were frozen from the first verified synthesis run and guard
against silent regressions in the collapse strategy.  Sweeps are computed
from projections; ``_pulse_records`` runs the plan's pulses instead and
serves as the oracle they must match.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import spinqec.cycle
from conftest import collapse_ends
from spinqec.blocks import psi_encoded, recovery_gates
from spinqec.codewords import make_codeword
from spinqec.cycle import (
    SyndromeRecord,
    _build_plan,
    build_detection_plan,
    case_weights,
    detection_records,
    fidelity_threshold,
    full_order,
    pulse_budget,
    run_detection,
    sample_records,
    z_biased_order,
)
from spinqec.linalg import NumericalError, PreconditionError
from spinqec.register import QuditRegister, apply_error, apply_gates, flat_index

FULL_ABSORBED = ("Z@B", "Z@C", "ZZ@A", "YY@B", "ZZ@B", "YY@C", "ZZ@C")
ZBIASED_ABSORBED = ("Z@B", "ZZ@B", "Z@C", "ZZ@C")

# pulse totals of the verified synthesis (detect + recover over all cases)
FULL_TOTAL = 902
ZBIASED_TOTAL = 358
ENCODE_PULSES = 16

PER_CASE = {
    "I": {"detect": 16, "recover": 14},
    "X@A": {"detect": 26, "recover": 24},
    "Z@A": {"detect": 16, "recover": 14},
    "XX@A": {"detect": 32, "recover": 30},
    "X@B": {"detect": 24, "recover": 22},
    "XY@C": {"detect": 18, "recover": 16},
}


def _pulse_records(reg, order, reference):
    """Outcome distribution of a sweep by running every block's pulses.

    Each case either detects (ancilla reads 1 on the two product-state
    targets) or passes (the targets are cleared, the rest renormalised and
    the case's pulses exactly inverted); the branching tree is walked once.
    """
    plan = build_detection_plan(order)
    alpha, beta = reference
    work = QuditRegister(reg.amp.copy())
    records = []
    outcomes = []
    survival = 1.0
    for case in plan.emitted:
        t0, t1 = (flat_index(end, 0, 0, 1) for end in collapse_ends(case.block))
        apply_gates(work, case.block.gates)
        a0 = complex(work.amp[t0])
        a1 = complex(work.amp[t1])
        w = abs(a0) ** 2 + abs(a1) ** 2
        if w > 1e-24:
            rec = (a0 / np.sqrt(w), a1 / np.sqrt(w))
            fid = float(abs(np.conj(alpha) * rec[0] + np.conj(beta) * rec[1]) ** 2)
            records.append(SyndromeRecord(case.label, tuple(outcomes) + (1,),
                                          survival * w, rec, fid))
        work.amp[t0] = 0.0
        work.amp[t1] = 0.0
        rem2 = float(np.real(np.vdot(work.amp, work.amp)))
        survival *= rem2
        if rem2 < 1e-15:
            survival = 0.0
            break
        work.amp /= np.sqrt(rem2)
        apply_gates(work, recovery_gates(case.block))
        outcomes.append(0)
    if survival > 1e-12:
        records.append(SyndromeRecord(None, tuple(outcomes), survival, None, 0.0))
    return tuple(records)


def _assert_routes_agree(reg, order, reference):
    fast = detection_records(reg, order, reference)
    slow = _pulse_records(reg, order, reference)
    assert [r.detected_case for r in fast] == [r.detected_case for r in slow]
    assert [r.ancilla_outcomes for r in fast] == \
        [r.ancilla_outcomes for r in slow]
    for f, s in zip(fast, slow):
        assert abs(f.probability - s.probability) < 1e-12, f.detected_case
        if s.recovered_amplitudes is None:
            assert f.recovered_amplitudes is None
        else:
            diff = np.subtract(f.recovered_amplitudes, s.recovered_amplitudes)
            assert np.max(np.abs(diff)) < 1e-12, f.detected_case
        assert abs(f.logical_fidelity - s.logical_fidelity) < 1e-12, f.detected_case
    return fast


def test_case_orders():
    full = full_order()
    assert len(full) == 28 and full[0] == "I"
    assert len(set(full)) == 28
    assert full[1:4] == ("X@A", "Y@A", "Z@A")
    assert set(l.split("@")[1] for l in full[1:]) == {"A", "B", "C"}
    zb = z_biased_order()
    assert zb == ("I",
                  "Z@A", "ZZ@A", "ZX@A", "YZ@A",
                  "Z@B", "ZZ@B", "ZX@B", "YZ@B",
                  "Z@C", "ZZ@C", "ZX@C", "YZ@C")
    assert set(zb) < set(full) | set()


def _absorbed_labels(plan):
    return tuple(c.label for c in plan.cases if c.absorbed)


def test_plan_absorption():
    plan = build_detection_plan()
    assert _absorbed_labels(plan) == FULL_ABSORBED
    assert len(plan.emitted) == 28 - len(FULL_ABSORBED) == 21
    zb = build_detection_plan(z_biased_order())
    assert _absorbed_labels(zb) == ZBIASED_ABSORBED
    assert len(zb.emitted) == 13 - len(ZBIASED_ABSORBED) == 9
    # the emitted cases are computed once per plan, not on every access
    assert plan.emitted is plan.emitted and zb.emitted is zb.emitted
    assert zb.emitted == tuple(c for c in zb.cases if not c.absorbed)


@pytest.mark.parametrize("order", [full_order(), z_biased_order(),
                                   ("I", *full_order()[:0:-1])],
                         ids=["full", "z-biased", "full-reversed"])
def test_branch_rows_have_disjoint_supports(order):
    # every level triple of a branch-0 row has two equal even levels, of a
    # branch-1 row two equal odd ones, so no projection crosses branches
    plan = build_detection_plan(order)
    rows = plan.projector.reshape(2, len(plan.emitted), 512)
    for parity, branch in enumerate(rows):
        triples = np.array(np.unravel_index(np.flatnonzero(branch.any(axis=0)), (8, 8, 8)))
        pairs = [(triples[i] == triples[j]) & (triples[i] % 2 == parity)
                 for i, j in ((0, 1), (0, 2), (1, 2))]
        assert np.logical_or.reduce(pairs).all()
    assert not (rows[0].any(axis=0) & rows[1].any(axis=0)).any()
    assert all(np.vdot(p0, p1) == 0.0 for p0 in rows[0] for p1 in rows[1])


def test_word_failing_knill_laflamme_splits_branch_norms(monkeypatch):
    # |0_L> reweighted to 4/16, 6/16, 6/16 on levels 0, 2, 6: Z@A leaves it a
    # squared norm of 6 after the projection, |1_L> 21/4, so no block pairs them
    word = make_codeword("three-qudit")
    zero = np.zeros(512, dtype=np.complex128)
    zero[[0, 2 * 73, 6 * 73]] = np.sqrt([4.0 / 16.0, 6.0 / 16.0, 6.0 / 16.0])
    bad = dataclasses.replace(word, zero_l=zero)
    monkeypatch.setattr(spinqec.cycle, "make_codeword", lambda family: bad)
    # sqrt(6) against sqrt(21 / 4)
    with pytest.raises(NumericalError,
                       match=r"case Z@A: branch norms split \(2\.449489\d* vs 2\.291287\d*\)"):
        _build_plan.__wrapped__(("I", "Z@A"))


def test_cold_plan_build_stays_small():
    # error words come from one-axis contractions, not from 28 dense
    # 512 x 512 operators (117 MB)
    tracemalloc.start()
    try:
        plan = _build_plan.__wrapped__(full_order())
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert _absorbed_labels(plan) == FULL_ABSORBED
    assert peak < 10e6, f"cold plan build peaked at {peak / 1e6:.1f} MB"


def test_default_order_shares_one_cached_plan():
    # None, the full_order() tuple and the same order as a list are one cache
    # entry, so a process builds the 28-case plan once, whichever entry point
    # asks first
    reg = QuditRegister(psi_encoded(0.6, 0.8))
    build_detection_plan.cache_clear()
    build_detection_plan()
    pulse_budget()
    detection_records(reg, None, (0.6, 0.8))
    pulse_budget(full_order())
    detection_records(reg, list(full_order()), (0.6, 0.8))
    build_detection_plan(list(full_order()))
    assert build_detection_plan.cache_info().misses == 1


def test_plan_order_preconditions():
    with pytest.raises(PreconditionError):
        build_detection_plan(("X@A", "I"))
    with pytest.raises(PreconditionError):
        build_detection_plan(("I", "X@A", "X@A"))
    with pytest.raises(PreconditionError):
        build_detection_plan(("I", "Q@A"))


def test_no_error_sweep():
    records, weight = run_detection(0.6, 0.8)
    assert weight is None
    assert len(records) == 1
    rec = records[0]
    assert rec.detected_case == "I"
    assert rec.ancilla_outcomes == (1,)
    assert np.isclose(rec.probability, 1.0, atol=1e-12)
    a, b = rec.recovered_amplitudes
    assert abs(a - 0.6) < 1e-10 and abs(b - 0.8) < 1e-10
    assert rec.logical_fidelity > 1.0 - 1e-12


def test_linear_error_detected_exactly():
    records, weight = run_detection(0.6, 0.8, error=("X", "A"))
    assert np.isclose(weight, 21.0 / 4.0, atol=1e-10)
    assert len(records) == 1
    rec = records[0]
    assert rec.detected_case == "X@A"
    assert np.isclose(rec.probability, 1.0, atol=1e-12)
    assert rec.logical_fidelity > 1.0 - 1e-12


def test_quadratic_error_splits_between_cases():
    records, _ = run_detection(0.6, 0.8, error=("XX", "A"))
    weights = case_weights(records)
    assert set(weights) == {"I", "XX@A"}
    assert np.isclose(weights["I"], 21.0 / 34.0, atol=1e-10)
    assert np.isclose(weights["XX@A"], 13.0 / 34.0, atol=1e-10)
    for rec in records:
        assert rec.logical_fidelity > 1.0 - 1e-12
    assert np.isclose(sum(weights.values()), 1.0, atol=1e-12)


def test_absorbed_error_fires_at_covering_case():
    records, _ = run_detection(0.6, 0.8, error=("Z", "B"))
    assert len(records) == 1
    rec = records[0]
    assert rec.detected_case == "Z@A"  # same error word on every qudit
    assert np.isclose(rec.probability, 1.0, atol=1e-12)
    assert rec.logical_fidelity > 1.0 - 1e-12


def test_absorbed_quadratic_spreads_with_unit_fidelity():
    records, _ = run_detection(0.6, 0.8, error=("ZZ", "A"))
    weights = case_weights(records)
    assert set(weights) <= {"I", "XX@A", "YY@A"}
    assert np.isclose(weights["I"], 0.724137931034, atol=1e-10)
    assert np.isclose(weights["XX@A"], 0.042440318302, atol=1e-10)
    assert np.isclose(weights["YY@A"], 0.233421750663, atol=1e-10)
    assert np.isclose(sum(weights.values()), 1.0, atol=1e-12)
    for rec in records:
        assert rec.logical_fidelity > 1.0 - 1e-10


def test_records_probabilities_always_sum_to_one(rng):
    for label, qudit in (("Y", "B"), ("ZX", "C"), ("XY", "A")):
        records, _ = run_detection(0.6, 0.8, error=(label, qudit))
        assert np.isclose(sum(r.probability for r in records), 1.0, atol=1e-10)
        for rec in records:
            assert rec.ancilla_outcomes[-1] == 1
            assert all(o == 0 for o in rec.ancilla_outcomes[:-1])


def test_uncorrectable_component_recorded():
    # a rogue state far outside every detectable subspace
    reg = QuditRegister()
    reg.amp[0] = np.sqrt(0.5)  # |000>, in span
    rogue = ((3 * 8 + 3) * 8 + 3) * 2  # |333>, undetectable
    reg.amp[rogue] = np.sqrt(0.5)
    records = detection_records(reg, None, (1.0, 0.0))
    none_recs = [r for r in records if r.detected_case is None]
    assert len(none_recs) == 1
    assert none_recs[0].logical_fidelity == 0.0
    assert none_recs[0].recovered_amplitudes is None
    assert np.isclose(sum(r.probability for r in records), 1.0, atol=1e-10)


def test_sampled_statistics_match_exact_weights(rng):
    records, _ = run_detection(0.6, 0.8, error=("XX", "A"))
    n = 10_000
    draws = sample_records(records, n, rng)
    hits = sum(1 for r in draws if r.detected_case == "I")
    p = 21.0 / 34.0
    sigma = math.sqrt(n * p * (1.0 - p))
    assert abs(hits - n * p) < 3.0 * sigma


@settings(max_examples=60, deadline=None)
@given(weights=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1,
                        max_size=30),
       n=st.integers(min_value=0, max_value=500),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_sampling_draws_what_generator_choice_draws(weights, n, seed):
    # Generator.choice(p=...) is the oracle: the same generator must give
    # the same records, index for index
    assume(sum(weights) > 0.0)
    records = [SyndromeRecord(f"c{k}", (), w / sum(weights), None, None)
               for k, w in enumerate(weights)]
    probs = np.array([r.probability for r in records])
    idx = np.random.default_rng(seed).choice(len(records), size=n,
                                             p=probs / probs.sum())
    got = sample_records(records, n, np.random.default_rng(seed))
    assert len(got) == n
    assert all(g is records[i] for g, i in zip(got, idx))


def test_exact_records_and_sampled_draw(rng):
    reg = QuditRegister(psi_encoded(1.0, 0.0))
    records = detection_records(reg, None, (1.0, 0.0))
    assert isinstance(records, tuple) and len(records) == 1
    (single,) = sample_records(records, 1, rng)
    assert single is records[0] and single.detected_case == "I"
    with pytest.raises(PreconditionError):
        detection_records(QuditRegister(np.ones(1024)), None, (1.0, 0.0))  # not normalised


def test_pulse_budget_full():
    budget = pulse_budget()
    assert budget["total"] == FULL_TOTAL
    assert budget["encode"] == ENCODE_PULSES
    assert set(budget["cases"]) == set(full_order())
    for label, expect in PER_CASE.items():
        got = budget["cases"][label]
        assert got["detect"] == expect["detect"], label
        assert got["recover"] == expect["recover"], label
        assert got["absorbed"] is False
    for label in FULL_ABSORBED:
        got = budget["cases"][label]
        assert got == {"detect": 0, "recover": 0, "absorbed": True}
    emitted_sum = sum(c["detect"] + c["recover"]
                      for c in budget["cases"].values())
    assert emitted_sum == FULL_TOTAL


def test_pulse_budget_z_biased():
    budget = pulse_budget(z_biased_order())
    assert budget["total"] == ZBIASED_TOTAL
    assert budget["encode"] == ENCODE_PULSES
    assert set(budget["cases"]) == set(z_biased_order())


def test_fidelity_threshold():
    # independent route: q = -expm1(log(1 - budget) / N)
    for n in (1, 16, 358, 902, 1700):
        expect = -math.expm1(math.log(1.0 - 0.017) / n)
        assert np.isclose(fidelity_threshold(n), expect, rtol=1e-12)
    assert np.isclose(fidelity_threshold(1), 0.017, atol=1e-15)
    assert np.isclose(fidelity_threshold(902), 1.9008864600822406e-05,
                      rtol=1e-10)
    assert np.isclose(fidelity_threshold(358), 4.7893151508104914e-05,
                      rtol=1e-10)
    assert fidelity_threshold(100) > fidelity_threshold(1000)
    assert np.isclose(fidelity_threshold(100, error_budget=0.5),
                      1.0 - 0.5 ** 0.01, rtol=1e-12)
    with pytest.raises(PreconditionError):
        fidelity_threshold(0)
    with pytest.raises(PreconditionError):
        fidelity_threshold(100, error_budget=1.5)


def test_recovery_restores_state_after_pass():
    # after case I passes (outcome 0) on an X@A-corrupted state, the sweep
    # must still detect X@A with unit fidelity: exercised implicitly above,
    # asserted here on the second-case record structure
    records, _ = run_detection(1.0, 0.0, error=("X", "A"))
    rec = records[0]
    assert rec.detected_case == "X@A"
    assert rec.ancilla_outcomes == (0, 1)  # case I passed first
    assert abs(rec.recovered_amplitudes[0]) > 1.0 - 1e-10


@settings(max_examples=15, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_projections_match_pulses_on_random_states(seed):
    gen = np.random.default_rng(seed)
    data = gen.normal(size=512) + 1j * gen.normal(size=512)
    reg = QuditRegister()
    reg.amp.reshape(512, 2)[:, 0] = data / np.linalg.norm(data)
    ref = gen.normal(size=2) + 1j * gen.normal(size=2)
    for order in (full_order(), z_biased_order()):
        records = _assert_routes_agree(reg, order, ref / np.linalg.norm(ref))
        assert records[-1].detected_case is None  # generic states leave the span


@settings(max_examples=5, deadline=None)
@given(theta=st.floats(min_value=0.0, max_value=math.pi),
       phi=st.floats(min_value=0.0, max_value=2.0 * math.pi))
def test_projections_match_pulses_on_every_error(theta, phi):
    alpha = math.cos(theta / 2.0)
    beta = complex(np.exp(1j * phi) * math.sin(theta / 2.0))
    psi = psi_encoded(alpha, beta)
    for order in (full_order(), z_biased_order()):
        for label in full_order()[1:]:
            reg = QuditRegister(psi.copy())
            apply_error(reg, *label.split("@"))
            _assert_routes_agree(reg, order, (alpha, beta))


def test_occupied_ancilla_is_refused():
    amp = psi_encoded(0.6, 0.8)
    amp[1] = 1e-6  # ancilla raised on |000>
    with pytest.raises(PreconditionError):
        detection_records(QuditRegister(amp / np.linalg.norm(amp)), None, (0.6, 0.8))


def _with_ancilla(values):
    """An encoded state with ``values`` on the ancilla-raised amplitudes."""
    amp = psi_encoded(0.6, 0.8)
    amp.reshape(512, 2)[:, 1] = values
    return QuditRegister(amp)


def test_ancilla_bound_is_exact_at_its_edges():
    # a sum of squares up to 0.5e-20 passes at once; everything else takes the
    # exact max|a| <= 1e-10 test, so the accepted set is exactly that test's
    edge = np.zeros(512)
    edge[7] = 1e-10
    assert detection_records(_with_ancilla(edge), None, (0.6, 0.8))
    edge[7] = np.nextafter(1e-10, 1)
    with pytest.raises(PreconditionError, match="ancilla empty"):
        detection_records(_with_ancilla(edge), None, (0.6, 0.8))
    spread = np.full(512, 0.9e-10)
    assert np.vdot(spread, spread) > 0.5e-20  # only the exact test accepts it
    records = detection_records(_with_ancilla(spread), None, (0.6, 0.8))
    assert np.isclose(sum(r.probability for r in records), 1.0, atol=1e-12)
    edge[7] = np.nan  # refused by the norm check before the ancilla test
    with pytest.raises(PreconditionError):
        detection_records(_with_ancilla(edge), None, (0.6, 0.8))


def test_state_inside_detected_span_has_no_uncorrectable_record():
    # error images of encoded states lie in the span of the words the plan
    # detects, absorbed labels included
    image = np.zeros(1024, dtype=np.complex128)
    for label, qudit, a, b in (("XX", "A", 0.6, 0.8), ("Y", "C", 1.0, 0.0),
                               ("ZZ", "B", 0.0, 1j)):
        reg, weight = apply_error(QuditRegister(psi_encoded(a, b)), label, qudit)
        image += np.sqrt(weight) * reg.amp
    reg = QuditRegister(image / np.linalg.norm(image))
    records = _assert_routes_agree(reg, full_order(), (0.6, 0.8))
    assert all(r.detected_case is not None for r in records)
    assert np.isclose(sum(r.probability for r in records), 1.0, atol=1e-12)

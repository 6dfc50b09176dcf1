"""Pulse-block synthesis: encode, entangle, detection collapses.

Angle multisets and collapse destinations below were frozen from hand
reductions of the branch profiles (Givens chains on explicit amplitude
lists); the tests compare the synthesised sequences against those numbers
and against the dense matrix route.
"""

import dataclasses

import numpy as np
import pytest

from spinqec.blocks import (
    ENTANGLE_LEVELS,
    Block,
    SynthesisError,
    collapse_gates,
    detection_block,
    embed_qudit_state,
    enc_block,
    encode_register,
    entangle_block,
    psi_encoded,
    psi_spread,
    recovery_gates,
    strip_global_phase,
    validate_block,
    zigzag_merge,
)
from spinqec.codewords import make_codeword, standard_error_sets
from spinqec.cycle import build_detection_plan, full_order, z_biased_order
from spinqec.linalg import PreconditionError
from spinqec.register import (
    ANCILLA_AXIS,
    QuditRegister,
    apply_gates,
    flat_index,
    gates_matrix,
    init_register,
)

# |cos theta| multisets of the plain-rotation pulses, sorted ascending.
ENC_COSINES = (0.0, 0.0, np.sqrt(2.0 / 16.0), np.sqrt(7.0 / 16.0),
               np.sqrt(0.5), np.sqrt(7.0 / 9.0))
DEC_I_COSINES = (np.sqrt(2.0 / 16.0), np.sqrt(0.5))
DEC_XA_COSINES = (np.sqrt(7.0 / 48.0), np.sqrt(12.0 / 41.0),
                  np.sqrt(14.0 / 29.0))
DEC_XXA_COSINES = (np.sqrt(1.0 / 106.0), np.sqrt(15.0 / 121.0),
                   np.sqrt(35.0 / 156.0))

# detection pulses per emitted block and order (the two ancilla pulses
# included), frozen from the verified synthesis
EMITTED_PULSES = {
    "full": (16, 26, 26, 16, 24, 24, 20, 20, 32, 32, 20, 26, 26, 20, 20, 24,
             24, 18, 18, 20, 20),
    "z-biased": (16, 16, 16, 26, 26, 24, 24, 20, 20),
}


def qubit_grid():
    return ((1.0, 0.0), (0.0, 1.0), (0.6, 0.8), (0.8, -0.6j))


def test_enc_block_maps_and_angles():
    blk = enc_block()
    assert blk.pulse_count == 6
    np.testing.assert_allclose(blk.angle_cosines(), ENC_COSINES, atol=1e-12)
    for a, b in qubit_grid():
        reg = init_register(a, b)
        apply_gates(reg, blk.gates)
        assert np.max(np.abs(reg.amp - psi_spread(a, b))) < 1e-12


def test_spread_profiles():
    sp = psi_spread(1.0, 0.0)
    assert abs(np.linalg.norm(sp) - 1.0) < 1e-12
    assert abs(sp[flat_index(0, 0, 0)] - np.sqrt(2.0 / 16.0)) < 1e-12
    assert abs(sp[flat_index(2, 0, 0)] - np.sqrt(7.0 / 16.0)) < 1e-12
    assert abs(sp[flat_index(6, 0, 0)] - np.sqrt(7.0 / 16.0)) < 1e-12
    sp1 = psi_spread(0.0, 1.0)
    assert abs(sp1[flat_index(1, 0, 0)] + np.sqrt(7.0 / 16.0)) < 1e-12
    assert abs(sp1[flat_index(7, 0, 0)] - np.sqrt(2.0 / 16.0)) < 1e-12
    assert abs(np.vdot(sp, sp1)) < 1e-15


def test_entangle_block_copies_levels():
    blk = entangle_block()
    assert blk.pulse_count == 10
    assert all(c < 1e-15 for c in blk.angle_cosines())  # all pi pulses
    for m in ENTANGLE_LEVELS:
        reg = QuditRegister()
        reg.amp[flat_index(m, 0, 0)] = 1.0
        apply_gates(reg, blk.gates)
        assert abs(reg.amplitude(m, m, m) - 1.0) < 1e-12
    # levels outside the list stay put
    for m in (0, 3, 4):
        reg = QuditRegister()
        reg.amp[flat_index(m, 0, 0)] = 1.0
        apply_gates(reg, blk.gates)
        assert abs(reg.amplitude(m, 0, 0) - 1.0) < 1e-12


def test_encode_register_matches_codeword():
    word = make_codeword("three-qudit")
    for a, b in qubit_grid():
        reg = encode_register(a, b)
        expect = embed_qudit_state(a * word.zero_l + b * word.one_l)
        assert np.max(np.abs(reg.amp - expect)) < 1e-12
        assert np.max(np.abs(reg.amp - psi_encoded(a, b))) < 1e-12


def test_unencode_inverts_entangle_exactly():
    plan = build_detection_plan()
    blk = plan.case("I").block
    n_pre = len(entangle_block().gates)
    pre = blk.gates[:n_pre]
    mat_pre = gates_matrix(pre)
    mat_ent = gates_matrix(entangle_block().gates)
    assert np.max(np.abs(mat_pre - mat_ent.conj().T)) < 1e-10


@pytest.mark.parametrize("name", ["full", "z-biased"])
def test_only_the_last_two_pulses_act_on_the_ancilla(name):
    # recovery_gates inverts everything off the ancilla: the block's
    # excitation must be its two trailing pulses and nothing else
    order = full_order() if name == "full" else z_biased_order()
    emitted = build_detection_plan(order).emitted
    assert tuple(c.block.pulse_count for c in emitted) == EMITTED_PULSES[name]
    for case in emitted:
        gates = case.block.gates
        on_ancilla = [k for k, g in enumerate(gates) if g.axis == ANCILLA_AXIS]
        assert on_ancilla == [len(gates) - 2, len(gates) - 1], case.label
        assert case.detect_pulses == len(gates)
        assert len(recovery_gates(case.block)) == case.recover_pulses == len(gates) - 2


def test_all_emitted_blocks_are_unitary():
    plan = build_detection_plan()
    eye = np.eye(1024)
    for case in plan.emitted:
        mat = gates_matrix(case.block.gates)
        assert np.max(np.abs(mat.conj().T @ mat - eye)) < 1e-10, case.label


def _branch_inputs(plan):
    """(case, p0, p1) per emitted case, read back from the plan's projector."""
    m = len(plan.emitted)
    return [(case, plan.projector[k].conj(), plan.projector[m + k].conj())
            for k, case in enumerate(plan.emitted)]


def test_detection_block_target_maps_rerun():
    # blocks keep no targets: rebuild each (input, output) pair from the
    # projector rows and the block's destinations and phase, then rerun
    plan = build_detection_plan()
    for case, p0, p1 in _branch_inputs(plan):
        blk = case.block
        # outputs are single ancilla-up product states at opposite A ends
        d0, d1 = blk.meta["dest0"], blk.meta["dest1"]
        assert {d0, d1} == {0, 7}
        assert abs(abs(blk.meta["phase"]) - 1) < 1e-12
        targets = []
        for vin, dest in ((p0, d0), (p1, d1)):
            vout = np.zeros(1024, dtype=np.complex128)
            vout[flat_index(dest, 0, 0, 1)] = blk.meta["phase"]
            reg = QuditRegister(embed_qudit_state(vin))
            apply_gates(reg, blk.gates)
            assert np.max(np.abs(reg.amp - vout)) < 1e-8, blk.name
            targets.append((embed_qudit_state(vin), vout))
        assert validate_block(blk, targets) is blk


def test_branch_parity_disjoint_across_cases():
    plan = build_detection_plan()
    for case, p0, p1 in _branch_inputs(plan):
        par = []
        for vin in (p0, p1):
            support = np.nonzero(np.abs(vin) > 1e-12)[0]
            a_levels = {int(ix) // 64 for ix in support}
            assert len({l % 2 for l in a_levels}) == 1, case.label
            par.append(min(a_levels) % 2)
        assert par[0] != par[1], case.label


def test_collapse_angles_no_error_case():
    entries = {(0, 0, 0): np.sqrt(2.0 / 16.0),
               (2, 0, 0): np.sqrt(7.0 / 16.0),
               (6, 0, 0): np.sqrt(7.0 / 16.0)}
    disent, dec, dest = collapse_gates(entries)
    assert disent == [] and dest == 0
    got = sorted(abs(float(np.cos(g.theta))) for g in dec)
    np.testing.assert_allclose(got, sorted(DEC_I_COSINES), atol=1e-12)


def _branch_entries(vec512):
    real, _ = strip_global_phase(vec512)
    real = real / np.linalg.norm(real)
    arr = real.reshape(8, 8, 8)
    return {(int(a), int(b), int(c)): float(arr[a, b, c])
            for a, b, c in zip(*np.nonzero(np.abs(arr) > 1e-12))}


def test_collapse_angles_linear_error_case():
    word = make_codeword("three-qudit")
    ops = standard_error_sets("multiqudit").as_dict()
    branch = ops["X@A"] @ word.zero_l
    assert np.isclose(np.vdot(branch, branch).real, 21.0 / 4.0, atol=1e-12)
    disent, dec, dest = collapse_gates(_branch_entries(branch))
    assert dest == 7  # odd A-level support
    got = sorted(abs(float(np.cos(g.theta))) for g in dec)
    np.testing.assert_allclose(got, sorted(DEC_XA_COSINES), atol=1e-12)
    # every disentangling pulse carries an A-level control of this branch
    for g in disent:
        assert any(cax == 0 for cax, _ in g.controls)


def test_collapse_angles_quadratic_error_case():
    word = make_codeword("three-qudit")
    ops = standard_error_sets("multiqudit").as_dict()
    raw = ops["XX@A"] @ word.zero_l
    proj = raw - (21.0 / 4.0) * word.zero_l  # remove the code-space part
    assert np.isclose(np.vdot(proj, proj).real * 16.0, 273.0, atol=1e-9)
    _, dec, dest = collapse_gates(_branch_entries(proj))
    assert dest == 0
    got = sorted(abs(float(np.cos(g.theta))) for g in dec)
    np.testing.assert_allclose(got, sorted(DEC_XXA_COSINES), atol=1e-12)
    # the unprojected branch collapses through different angles
    _, dec_raw, _ = collapse_gates(_branch_entries(raw))
    raw_angles = sorted(abs(float(np.cos(g.theta))) for g in dec_raw)
    assert not np.allclose(raw_angles[: len(got)], got, atol=1e-6)


def test_detection_block_superposition_output():
    plan = build_detection_plan()
    case = plan.case("I")
    reg = QuditRegister(psi_encoded(0.6, 0.8))
    apply_gates(reg, case.block.gates)
    expect = np.zeros(1024, dtype=np.complex128)
    expect[flat_index(case.block.meta["dest0"], 0, 0, 1)] = 0.6
    expect[flat_index(case.block.meta["dest1"], 0, 0, 1)] = 0.8
    assert np.max(np.abs(reg.amp - expect)) < 1e-10


def test_zigzag_merge_two_levels():
    gates, final = zigzag_merge("A", {0: 0.6, 3: 0.8}, 0)
    assert len(gates) == 1 and np.isclose(final, 1.0)
    reg = QuditRegister()
    reg.amp[flat_index(0, 0, 0)] = 0.6
    reg.amp[flat_index(3, 0, 0)] = 0.8
    apply_gates(reg, gates)
    assert abs(reg.amplitude(0, 0, 0) - 1.0) < 1e-12


def test_collapse_gates_preconditions():
    with pytest.raises(PreconditionError):
        collapse_gates({})
    with pytest.raises(PreconditionError):
        collapse_gates({(0, 0, 0): 0.5})  # not normalised
    with pytest.raises(PreconditionError):
        collapse_gates({(0, 0, 0): 0.6, (1, 0, 0): 0.8})  # mixed parity


def test_strip_global_phase():
    v = np.array([0.6, -0.8])
    r, ph = strip_global_phase(v)
    assert ph == 1.0 and np.allclose(r, v)
    r, ph = strip_global_phase(1j * v)
    assert ph == 1j and np.allclose(r, v)
    with pytest.raises(SynthesisError):
        strip_global_phase(np.array([0.6 + 0.8j, 0.3]))
    with pytest.raises(PreconditionError):
        strip_global_phase(np.zeros(4))


def test_validate_block_rejects_tampered_angle():
    blk = enc_block()
    bad = list(blk.gates)
    g = bad[1]
    bad[1] = dataclasses.replace(g, theta=g.theta + 1e-3)
    targets = [(init_register(a, b).amp, psi_spread(a, b)) for a, b in ((1, 0), (0, 1))]
    assert validate_block(Block("ENC", blk.gates), targets).name == "ENC"
    with pytest.raises(SynthesisError):
        validate_block(Block("ENC-tampered", tuple(bad)), targets)


@pytest.mark.parametrize("label", ["X@A", "I"])  # "I" opens with the entangle inverse
def test_recovery_gates_invert_detection(label):
    plan = build_detection_plan()
    case = plan.case(label)
    rec = recovery_gates(case.block)
    mat_fwd = gates_matrix(case.block.gates[:-2])
    mat_rec = gates_matrix(rec)
    assert np.max(np.abs(mat_rec - mat_fwd.conj().T)) < 1e-10
    with pytest.raises(PreconditionError):
        recovery_gates(enc_block())  # no trailing ancilla excitation

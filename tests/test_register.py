"""Register state, pulse gates, error injection.

The fast application kernel is cross-checked against the dense
index-arithmetic matrix route.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqec.codewords import _single_spin_table, standard_error_sets
from spinqec.linalg import PreconditionError
from spinqec.register import (
    DIMS,
    TOTAL_DIM,
    AnnihilationError,
    QuditRegister,
    ancilla_excitation,
    apply_error,
    apply_gate,
    apply_gates,
    apply_on_axis,
    flat_index,
    gates_matrix,
    init_register,
    inverted_gates,
    pi_pulse,
    rotation,
    single_qudit_error,
)
from spinqec.spin import spin_operators


def random_gates(rng, n):
    """A haphazard but valid pulse sequence for route cross-checks."""
    gates = []
    axes = ("A", "B", "C")
    for _ in range(n):
        kind = rng.integers(0, 4)
        if kind == 3:
            states = [tuple(rng.integers(0, 8, size=3)) for _ in range(2)]
            gates.extend(ancilla_excitation(states))
            continue
        qudit = axes[rng.integers(0, 3)]
        lp, lq = rng.choice(8, size=2, replace=False)
        theta = float(rng.uniform(-np.pi, np.pi))
        controls = []
        other = [a for a in axes if a != qudit]
        if kind >= 1:
            controls.append((other[0], int(rng.integers(0, 8))))
        if kind == 2:
            controls.append((other[1], int(rng.integers(0, 8))))
        gates.append(rotation(qudit, int(lp), int(lq), theta, controls))
    return gates


def random_state(rng):
    v = rng.normal(size=TOTAL_DIM) + 1j * rng.normal(size=TOTAL_DIM)
    return v / np.linalg.norm(v)


def test_layout_and_flat_index():
    assert DIMS == (8, 8, 8, 2)
    assert flat_index(0, 0, 0, 0) == 0
    assert flat_index(0, 0, 0, 1) == 1
    assert flat_index(0, 0, 1, 0) == 2
    assert flat_index(7, 7, 7, 1) == TOTAL_DIM - 1
    reg = QuditRegister()
    reg.amp[flat_index(3, 1, 4, 1)] = 1.0
    assert reg.view()[3, 1, 4, 1] == 1.0
    assert reg.amplitude(3, 1, 4, 1) == 1.0


def test_init_register():
    reg = init_register(0.6, 0.8j)
    assert abs(reg.amplitude(0, 0, 0) - 0.6) < 1e-15
    assert abs(reg.amplitude(1, 0, 0) - 0.8j) < 1e-15
    assert abs(reg.norm() - 1.0) < 1e-12
    with pytest.raises(PreconditionError):
        init_register(1.0, 1.0)


def test_pi_pulse_transfer():
    reg = QuditRegister()
    reg.amp[flat_index(2, 0, 0)] = 1.0
    apply_gate(reg, pi_pulse("A", 2, 5))
    assert abs(reg.amplitude(5, 0, 0) - 1.0) < 1e-15
    # and back: |q> -> -|p>
    apply_gate(reg, pi_pulse("A", 2, 5))
    assert abs(reg.amplitude(2, 0, 0) + 1.0) < 1e-15


def test_rotation_sign_convention():
    theta = 0.3
    reg = QuditRegister()
    reg.amp[flat_index(0, 1, 0)] = 0.6  # level p on qudit B
    reg.amp[flat_index(0, 4, 0)] = 0.8  # level q
    apply_gate(reg, rotation("B", 1, 4, theta))
    c, s = np.cos(theta), np.sin(theta)
    assert abs(reg.amplitude(0, 1, 0) - (c * 0.6 - s * 0.8)) < 1e-14
    assert abs(reg.amplitude(0, 4, 0) - (s * 0.6 + c * 0.8)) < 1e-14


def test_controls_gate_only_matching_states():
    reg = QuditRegister()
    reg.amp[flat_index(3, 0, 0)] = np.sqrt(0.5)
    reg.amp[flat_index(4, 0, 0)] = np.sqrt(0.5)
    apply_gate(reg, pi_pulse("B", 0, 2, controls=(("A", 3),)))
    assert abs(reg.amplitude(3, 2, 0) - np.sqrt(0.5)) < 1e-14
    assert abs(reg.amplitude(4, 0, 0) - np.sqrt(0.5)) < 1e-14
    assert abs(reg.amplitude(4, 2, 0)) < 1e-15


def test_gate_preconditions():
    with pytest.raises(PreconditionError):
        rotation("A", 3, 3, 0.1)
    with pytest.raises(PreconditionError):
        rotation("A", 0, 9, 0.1)
    with pytest.raises(PreconditionError):
        rotation("A", 0, 1, 0.1, controls=(("A", 5),))
    with pytest.raises(PreconditionError):
        rotation("A", 0, 1, 0.1, controls=(("B", 9),))
    with pytest.raises(PreconditionError):
        rotation("D", 0, 1, 0.1)
    # axis indices outside 0..3, including a negative one that would
    # otherwise wrap round onto the ancilla
    with pytest.raises(PreconditionError):
        rotation(5, 0, 1, 0.1)
    with pytest.raises(PreconditionError):
        rotation(-1, 0, 1, 0.1)
    with pytest.raises(PreconditionError):
        rotation("A", 0, 1, 0.1, controls=((9, 0),))


def test_ancilla_excitation_and_pulse_count():
    gates = ancilla_excitation(((0, 0, 0), (7, 0, 0)))
    assert sum(g.pulse_count for g in gates) == 2
    assert rotation("A", 0, 1, 0.2).pulse_count == 1
    reg = QuditRegister()
    reg.amp[flat_index(0, 0, 0, 0)] = 0.6
    reg.amp[flat_index(7, 0, 0, 0)] = -0.8
    apply_gates(reg, gates)
    assert abs(reg.amplitude(0, 0, 0, 1) - 0.6) < 1e-14
    assert abs(reg.amplitude(7, 0, 0, 1) + 0.8) < 1e-14
    assert abs(reg.amplitude(0, 0, 0, 0)) < 1e-15


def test_kernel_route_matches_matrix_route(rng):
    for _ in range(4):
        gates = random_gates(rng, 25)
        v = random_state(rng)
        reg = QuditRegister(v.copy())
        apply_gates(reg, gates)
        mat = gates_matrix(gates)
        assert np.max(np.abs(mat @ v - reg.amp)) < 1e-12
        assert np.max(np.abs(mat.conj().T @ mat - np.eye(TOTAL_DIM))) < 1e-12


def test_inverted_gates_round_trip(rng):
    gates = random_gates(rng, 20)
    v = random_state(rng)
    reg = QuditRegister(v.copy())
    apply_gates(reg, gates)
    apply_gates(reg, inverted_gates(gates))
    assert np.max(np.abs(reg.amp - v)) < 1e-12
    mat = gates_matrix(gates)
    mat_inv = gates_matrix(inverted_gates(gates))
    assert np.max(np.abs(mat_inv - mat.conj().T)) < 1e-12


def test_single_qudit_error_table_matches_spin_ops():
    jx, jy, jz = spin_operators(3.5)
    np.testing.assert_allclose(single_qudit_error("X"), jx, atol=1e-14)
    np.testing.assert_allclose(single_qudit_error("ZZ"), jz @ jz, atol=1e-14)
    np.testing.assert_allclose(
        single_qudit_error("XY"), (jx @ jy + jy @ jx) / 2.0, atol=1e-14
    )
    with pytest.raises(PreconditionError):
        single_qudit_error("XXX")


def test_cached_spin_tables_are_read_only():
    with pytest.raises(ValueError):
        single_qudit_error("X")[0, 1] = 0.0
    for j in (3.5, 4.5):
        for op in _single_spin_table(j).values():
            with pytest.raises(ValueError):
                op[0, 0] += 1.0
    with pytest.raises(TypeError):
        _single_spin_table(3.5)["X"] = np.eye(8)


@pytest.fixture(scope="module")
def dense_multiqudit():
    return standard_error_sets("multiqudit")


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_axis_contraction_matches_dense_error_set(dense_multiqudit, seed):
    # the dense 512 x 512 embeddings are the oracle for the contraction
    gen = np.random.default_rng(seed)
    state = gen.normal(size=(8, 8, 8)) + 1j * gen.normal(size=(8, 8, 8))
    for label, dense in dense_multiqudit.as_dict().items():
        if label == "I":
            continue
        name, qudit = label.split("@")
        got = apply_on_axis(single_qudit_error(name), state, "ABC".index(qudit))
        want = dense @ state.reshape(512)
        assert np.max(np.abs(got.reshape(512) - want)) < 1e-13


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_axis_contraction_matches_tensordot(seed):
    # the former tensordot + moveaxis route is the oracle for the matmul one
    gen = np.random.default_rng(seed)
    for shape in ((8, 8, 8), (8, 8, 8, 2)):
        arr = gen.normal(size=shape) + 1j * gen.normal(size=shape)
        for name in _single_spin_table(3.5):
            op = single_qudit_error(name)
            for axis in range(3):
                want = np.moveaxis(np.tensordot(op, arr, axes=([1], [axis])), 0, axis)
                got = apply_on_axis(op, arr, axis)
                assert got.shape == shape
                assert np.max(np.abs(got - want)) <= 1e-15 * np.linalg.norm(want)


def test_apply_error_weight_and_normalisation():
    reg = init_register(1.0, 0.0)  # |0,0,0>, ancilla down
    _, weight = apply_error(reg, "X", "A")
    # X on the bottom level climbs one rung: weight = (sqrt(7)/2)^2
    assert np.isclose(weight, 7.0 / 4.0, atol=1e-12)
    assert abs(reg.amplitude(1, 0, 0) - 1.0) < 1e-12
    assert abs(reg.norm() - 1.0) < 1e-12
    reg2 = init_register(1.0, 0.0)
    _, w2 = apply_error(reg2, "Z", "B")
    assert np.isclose(w2, 3.5**2, atol=1e-12)
    assert abs(reg2.amplitude(0, 0, 0) + 1.0) < 1e-12  # phase -3.5/3.5


def test_apply_error_against_dense_operator(rng):
    es = standard_error_sets("multiqudit").as_dict()
    v512 = rng.normal(size=512) + 1j * rng.normal(size=512)
    v512 /= np.linalg.norm(v512)
    full = np.zeros(TOTAL_DIM, dtype=complex)
    full.reshape(512, 2)[:, 0] = v512
    for label, qudit in (("XX", "A"), ("Y", "B"), ("ZX", "C")):
        reg = QuditRegister(full.copy())
        _, weight = apply_error(reg, label, qudit)
        ref = es[f"{label}@{qudit}"] @ v512
        assert np.isclose(weight, float(np.vdot(ref, ref).real), atol=1e-12)
        got = reg.amp.reshape(512, 2)[:, 0]
        np.testing.assert_allclose(got, ref / np.linalg.norm(ref), atol=1e-12)


def test_apply_error_annihilation_and_preconditions():
    with pytest.raises(AnnihilationError):
        apply_error(QuditRegister(), "X", "A")  # zero register
    with pytest.raises(PreconditionError):
        apply_error(init_register(1.0, 0.0), "X", "D")

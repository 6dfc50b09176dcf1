"""Spin operators, Hamiltonian assembly, dressed-state labelling."""

import re
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spinqec.spin
from conftest import ORACLE_FIELDS, breit_rabi
from spinqec.linalg import PreconditionError, hermitian_eigendecompose, kron
from spinqec.spin import (
    MAX_SYSTEM_DIM,
    PRESETS,
    LabelingError,
    SpinSystem,
    build_hamiltonian,
    dressed_eigenstates,
    get_system,
    load_system,
    manifold_states,
    spin_operators,
    transition_gradients,
)


def product_index(system, m_s, m_i):
    """Full-space index of the product state |m_s> (x) |m_i>."""
    return round(m_s + system.s) * system.dim_n + round(m_i + system.i)


@pytest.mark.parametrize("j", [0.5, 1.0, 1.5, 3.5, 4.5, 11.5])
def test_commutators_and_casimir(j):
    jx, jy, jz = spin_operators(j)
    for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
        assert np.max(np.abs(a @ b - b @ a - 1j * c)) < 1e-12
    dim = round(2 * j) + 1
    casimir = jx @ jx + jy @ jy + jz @ jz
    assert np.max(np.abs(casimir - j * (j + 1) * np.eye(dim))) < 1e-12


def test_ladder_matrix_elements():
    jx, _, jz = spin_operators(3.5)
    # <m+1| Jx |m> = sqrt(j(j+1) - m(m+1)) / 2
    assert abs(jx[1, 0] - np.sqrt(7.0) / 2.0) < 1e-14
    assert abs(jx[2, 1] - np.sqrt(12.0) / 2.0) < 1e-14
    assert abs(jx[3, 2] - np.sqrt(15.0) / 2.0) < 1e-14
    np.testing.assert_allclose(np.diag(jz), np.arange(-3.5, 4.0), atol=1e-14)
    jx92, _, _ = spin_operators(4.5)
    assert abs(jx92[1, 0] - 1.5) < 1e-14


def test_xx_diagonal_closed_form():
    jx, _, _ = spin_operators(3.5)
    m = np.arange(-3.5, 4.0)
    np.testing.assert_allclose(
        np.diag(jx @ jx).real, (3.5 * 4.5 - m**2) / 2.0, atol=1e-13
    )


def test_spin_preconditions():
    with pytest.raises(PreconditionError):
        spin_operators(0.3)
    with pytest.raises(PreconditionError):
        spin_operators(-1.0)
    with pytest.raises(PreconditionError):
        SpinSystem("bad", 0.4, 3.5, 1.0, 1.0, 1.0)


def test_zeeman_limit_exact():
    sys0 = SpinSystem("zeeman", 0.5, 1.5, 100.0, 2.0, 0.0)
    h = build_hamiltonian(sys0, 1.0)
    assert np.max(np.abs(h - np.diag(np.diag(h)))) < 1e-14
    expect = sorted(
        100.0 * ms + 2.0 * mi
        for ms in (-0.5, 0.5)
        for mi in (-1.5, -0.5, 0.5, 1.5)
    )
    dec = hermitian_eigendecompose(h)
    np.testing.assert_allclose(dec.eigenvalues, expect, atol=1e-12)
    states = dressed_eigenstates(sys0, 1.0)
    for st in states:
        k = product_index(sys0, st.m_s, st.m_i)
        assert abs(st.vector[k]) ** 2 > 1.0 - 1e-12
        assert abs(abs(st.vector[k]) - 1.0) < 1e-12


def test_transverse_field_same_spectrum():
    sys0 = SpinSystem("zeeman", 0.5, 1.5, 100.0, 2.0, 0.0)
    hz = build_hamiltonian(sys0, [0.0, 0.0, 1.0])
    hx = build_hamiltonian(sys0, [1.0, 0.0, 0.0])
    np.testing.assert_allclose(
        np.linalg.eigvalsh(hx), np.linalg.eigvalsh(hz), atol=1e-10
    )
    with pytest.raises(PreconditionError):
        build_hamiltonian(sys0, [1.0, 2.0])


@settings(max_examples=30, deadline=None)
@given(key=st.sampled_from(["si-sb", "si-bi"]),
       field=st.tuples(*[st.floats(min_value=-5.0, max_value=5.0)] * 3),
       axial=st.booleans())
def test_hamiltonian_matches_term_by_term_lift(key, field, axial):
    # the build lifts B.S and B.I once each; lifting every Zeeman term on its
    # own (15 kron calls) must give the same matrix bit for bit
    system = get_system(key)
    b = np.array([0.0, 0.0, field[2]]) if axial else np.array(field)
    sx, sy, sz = spin_operators(system.s)
    ix, iy, iz = spin_operators(system.i)
    eye_e = np.eye(system.dim_e, dtype=complex)
    eye_n = np.eye(system.dim_n, dtype=complex)
    ref = system.g_e * (b[0] * kron(sx, eye_n) + b[1] * kron(sy, eye_n)
                        + b[2] * kron(sz, eye_n))
    ref += system.g_n * (b[0] * kron(eye_e, ix) + b[1] * kron(eye_e, iy)
                         + b[2] * kron(eye_e, iz))
    ref += system.a * (kron(sx, ix) + kron(sy, iy) + kron(sz, iz))
    h = build_hamiltonian(system, field[2] if axial else b)
    assert np.array_equal(h, ref)


def _per_call_hamiltonian(system, b):
    """The Hamiltonian with every operator built per call, kept as the oracle."""
    sx, sy, sz = spin_operators(system.s)
    ix, iy, iz = spin_operators(system.i)
    eye_e = np.eye(system.dim_e, dtype=np.complex128)
    eye_n = np.eye(system.dim_n, dtype=np.complex128)
    h = system.g_e * kron(b[0] * sx + b[1] * sy + b[2] * sz, eye_n)
    h += system.g_n * kron(eye_e, b[0] * ix + b[1] * iy + b[2] * iz)
    h += system.a * (kron(sx, ix) + kron(sy, iy) + kron(sz, iz))
    return h


_component = st.one_of(st.floats(min_value=-6.0, max_value=6.0), st.sampled_from([0.0, -0.0]))


@settings(max_examples=60, deadline=None)
@given(spins=st.sampled_from([(0.5, 3.5), (0.5, 4.5), (1.5, 1.5), (1.5, 2.5)]),
       constants=st.tuples(*[st.floats(min_value=-3e4, max_value=3e4)] * 3),
       field=st.tuples(_component, _component, _component), axial=st.booleans())
def test_cached_operators_keep_every_hamiltonian_byte(spins, constants, field, axial):
    # signed zeros included: bytes, not values, must match the per-call build
    system = SpinSystem("x", *spins, *constants)
    b = (0.0, 0.0, field[2]) if axial else field
    h = build_hamiltonian(system, field[2] if axial else np.array(field))
    assert h.tobytes() == _per_call_hamiltonian(system, b).tobytes()


def test_cached_operators_are_read_only_and_spin_operators_fresh(sb):
    (sx, sy, sz), (ix, iy, iz), eye_e, eye_n, s_dot_i = spinqec.spin._operators(sb.s, sb.i)
    for op in (sx, sy, sz, ix, iy, iz, eye_e, eye_n, s_dot_i):
        with pytest.raises(ValueError, match="read-only"):
            op[0, 0] = 1.0
    before = build_hamiltonian(sb, (0.3, -0.2, 1.0)).tobytes()
    for op in spin_operators(sb.s) + spin_operators(sb.i):
        assert op.flags.writeable
        op[...] = 7.0  # a caller's own copy: later Hamiltonians do not move
    assert build_hamiltonian(sb, (0.3, -0.2, 1.0)).tobytes() == before


def test_hamiltonian_is_hermitian(sb, bi):
    for system in (sb, bi):
        h = build_hamiltonian(system, 0.7)
        assert np.max(np.abs(h - h.conj().T)) < 1e-12
        assert h.shape == (system.dim, system.dim)


def test_zero_field_hyperfine_multiplets(sb):
    # H = A S.I has eigenvalues A/2 [f(f+1) - s(s+1) - i(i+1)], f = i +- 1/2
    h = build_hamiltonian(sb, 0.0)
    a = sb.a
    low = a / 2.0 * (3.0 * 4.0 - 0.75 - 3.5 * 4.5)
    high = a / 2.0 * (4.0 * 5.0 - 0.75 - 3.5 * 4.5)
    expect = np.concatenate([np.full(7, low), np.full(9, high)])
    dec = hermitian_eigendecompose(h)
    np.testing.assert_allclose(dec.eigenvalues, expect, atol=1e-9)


def _sorted_labels(system, b_field, gap_tol=1e-6):
    """The greedy labelling as a sort of dim^2 tuples, kept as the reference."""
    dec = hermitian_eigendecompose(build_hamiltonian(system, b_field))
    dim = system.dim
    weights = np.abs(dec.eigenvectors) ** 2
    for k in range(dim):
        first, second = sorted(weights[:, k], reverse=True)[:2]
        if first - second < gap_tol:
            raise LabelingError(
                f"state {k} has two product labels with overlap gap "
                f"{first - second:.2e} < {gap_tol:g}"
            )
    entries = sorted(
        ((weights[p, k], k, p) for k in range(dim) for p in range(dim)),
        key=lambda t: -t[0],
    )
    label_of_state, taken_weight = {}, {}
    for w, k, p in entries:
        if k in label_of_state:
            continue
        if p in taken_weight:
            if taken_weight[p] - w < gap_tol:
                raise LabelingError(
                    f"states compete for product label {p} with overlap gap "
                    f"{taken_weight[p] - w:.2e} < {gap_tol:g}"
                )
            continue
        label_of_state[k] = p
        taken_weight[p] = w
    out = []
    for k in range(dim):
        ks, ki = divmod(label_of_state[k], system.dim_n)
        out.append((float(dec.eigenvalues[k]), ks - system.s, ki - system.i,
                    float(weights[label_of_state[k], k])))
    return sorted(out)


def _labels_or_error(fn, system, b_field):
    try:
        return fn(system, b_field)
    except LabelingError as exc:
        return str(exc)


def _package_labels(system, b_field):
    # a state's weight is |vector|^2 at its label, read as the reference reads it
    return sorted((st.energy, st.m_s, st.m_i,
                   float((np.abs(st.vector) ** 2)[product_index(system, st.m_s, st.m_i)]))
                  for st in dressed_eigenstates(system, b_field))


@settings(max_examples=25, deadline=None)
@given(key=st.sampled_from(["si-sb", "si-bi"]),
       b_field=st.one_of(
           st.floats(min_value=-5.0, max_value=5.0),
           st.lists(st.floats(min_value=-3.0, max_value=3.0), min_size=3, max_size=3)))
def test_labelling_matches_sorted_reference(key, b_field):
    system = get_system(key)
    assert (_labels_or_error(_package_labels, system, b_field)
            == _labels_or_error(_sorted_labels, system, b_field))


def test_labeling_fails_at_zero_field(sb, bi):
    # at B = 0 the m_F = 0 states of the F multiplets split their weight
    # evenly between two product labels, for si-bi as for si-sb
    for system in (sb, bi):
        expect = _labels_or_error(_sorted_labels, system, 0.0)
        assert isinstance(expect, str)
        with pytest.raises(LabelingError) as info:
            dressed_eigenstates(system, 0.0)
        assert str(info.value) == expect


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=1, max_value=7), levels=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_overlap_walk_is_the_full_sorted_sequence(dim, levels, seed):
    # few distinct weights make ties, which the stable sort keeps in index order
    flat = np.random.default_rng(seed).integers(0, levels, size=dim * dim) / levels
    order = np.argsort(-flat, kind="stable")
    assert list(spinqec.spin._by_overlap(flat, dim)) == \
        list(zip(order.tolist(), flat[order].tolist()))


def test_labelling_that_reads_past_its_first_chunk_matches_the_reference(monkeypatch, bi):
    # at a small tilted field states compete for labels, so the walk goes on
    # well past the first dim entries
    read = []
    walk = spinqec.spin._by_overlap
    monkeypatch.setattr(spinqec.spin, "_by_overlap",
                        lambda flat, dim: (read.append(e) or e for e in walk(flat, dim)))
    spinqec.spin._labelled.cache_clear()
    b_field = (0.01, 0.02, 0.03)
    assert _package_labels(bi, b_field) == _sorted_labels(bi, b_field)
    assert len(read) > 3 * bi.dim


def test_states_then_gradients_at_one_field_make_one_solve(solves, sb):
    alone = transition_gradients(sb, 1.37)
    spinqec.spin._labelled.cache_clear()
    states = dressed_eigenstates(sb, 1.37)
    grads = transition_gradients(sb, 1.37)
    assert len(solves) == 2
    assert grads.tobytes() == alone.tobytes()
    # a repeat hands out a new list of the very same states
    again = dressed_eigenstates(sb, 1.37)
    assert len(solves) == 2
    assert again is not states
    assert len(again) == len(states) and all(a is b for a, b in zip(again, states))


def test_each_field_bit_pattern_and_system_gets_its_own_solve(solves, sb):
    dressed_eigenstates(sb, (0.0, 0.3, 1.0))
    dressed_eigenstates(sb, np.array([0.0, 0.3, 1.0]))
    assert len(solves) == 1
    dressed_eigenstates(sb, (-0.0, 0.3, 1.0))
    dressed_eigenstates(replace(sb, name="si-sb-copy"), (0.0, 0.3, 1.0))
    assert len(solves) == 3
    # an equal system under the same name is the same key
    dressed_eigenstates(replace(sb), (0.0, 0.3, 1.0))
    assert len(solves) == 3


def test_a_labelling_error_is_raised_again_not_kept(solves, sb):
    messages = []
    for _ in range(2):
        with pytest.raises(LabelingError) as info:
            dressed_eigenstates(sb, 0.0)
        messages.append(str(info.value))
    assert len(solves) == 2 and messages[0] == messages[1]
    assert spinqec.spin._labelled.cache_info().currsize == 0


def test_kept_states_are_read_only_and_the_memo_is_bounded(solves, sb):
    memo = spinqec.spin._labelled
    size = memo.cache_info().maxsize
    assert size == 8
    fields = [1.0 + 0.01 * k for k in range(size + 3)]
    for b in fields:
        dressed_eigenstates(sb, b)
    assert memo.cache_info().currsize == size and len(solves) == size + 3
    # the least recently used go first: a hit on the oldest kept field keeps it
    dressed_eigenstates(sb, fields[3])
    dressed_eigenstates(sb, 2.0)
    dressed_eigenstates(sb, fields[3])
    assert len(solves) == size + 4
    dressed_eigenstates(sb, fields[4])
    dressed_eigenstates(sb, fields[0])
    assert len(solves) == size + 6 and memo.cache_info().currsize == size
    for st in dressed_eigenstates(sb, fields[-1]):
        with pytest.raises(ValueError):
            st.vector[0] = 1.0


def test_dressed_weights_high_field(sb, bi):
    for system in (sb, bi):
        states = dressed_eigenstates(system, 1.0)
        assert len(states) == system.dim
        assert all(abs(st.vector[product_index(system, st.m_s, st.m_i)]) ** 2 > 0.98
                   for st in states)
        labels = {(st.m_s, st.m_i) for st in states}
        assert len(labels) == system.dim
        man = manifold_states(system, 1.0)
        assert sorted(man) == [
            -system.i + k for k in range(system.dim_n)
        ]


def test_product_index_layout(sb):
    assert product_index(sb, -0.5, -3.5) == 0
    assert product_index(sb, -0.5, 3.5) == 7
    assert product_index(sb, 0.5, -3.5) == 8
    assert product_index(sb, 0.5, 3.5) == 15


def test_transition_frequencies_against_numpy(sb, bi):
    # independent route: numpy.linalg.eigh + overlap labelling
    for system in (sb, bi):
        h = build_hamiltonian(system, 1.0)
        w, v = np.linalg.eigh(h)
        energies = {}
        for k in range(system.dim):
            p = int(np.argmax(np.abs(v[:, k]) ** 2))
            ks, ki = divmod(p, system.dim_n)
            if ks == 0:  # m_S = -1/2 block
                energies[ki] = w[k]
        ordered = [energies[k] for k in sorted(energies)]
        ref = np.diff(ordered)
        states = manifold_states(system, 1.0)
        got = np.diff([states[mi].energy for mi in sorted(states)])
        assert got.shape == (system.dim_n - 1,)
        np.testing.assert_allclose(got, ref, rtol=0, atol=1e-8)
        # telescoping: the diffs sum to the manifold's end-to-end splitting
        assert abs(np.sum(got) - (ordered[-1] - ordered[0])) < 1e-8


def test_gradient_spread_decreases_with_field(sb):
    # frozen: spread of df/dB over one manifold, fields 1/2/5/10/50 T
    frozen = {
        1.0: 1.115724945,
        2.0: 0.2774220229,
        5.0: 0.04424306098,
        10.0: 0.01104868716,
        50.0: 4.415671828e-04,
    }
    spreads = []
    for b, expect in frozen.items():
        g = transition_gradients(sb, b)
        spread = float(np.max(g) - np.min(g))
        assert np.isclose(spread, expect, rtol=1e-4)
        spreads.append(spread)
    assert all(s1 > s2 for s1, s2 in zip(spreads, spreads[1:]))


def _user_donor(tmp_path, i, g_n, a):
    path = tmp_path / "donor.cfg"
    path.write_text(f"name = user\nS = 1/2\nI = {i}\ng_e_MHz_per_T = 28020.0\n"
                    f"g_n_MHz_per_T = {g_n}\nA_MHz = {a}\n")
    return load_system(path)


@pytest.fixture(params=["si-sb", "si-bi", "user-11/2", "user-23/2"])
def donor(request, tmp_path):
    if request.param == "user-11/2":
        return _user_donor(tmp_path, "11/2", 5.0, 300.0)
    if request.param == "user-23/2":
        return _user_donor(tmp_path, "23/2", 3.0, 200.0)
    return get_system(request.param)


def test_gradients_match_breit_rabi(donor):
    # exact slopes: the largest error measured is 1.1e-11 MHz/T
    for b in ORACLE_FIELDS:
        levels = breit_rabi(donor, b)
        slopes = [levels[(-0.5, -donor.i + k)][1] for k in range(donor.dim_n)]
        np.testing.assert_allclose(transition_gradients(donor, b), np.diff(slopes),
                                   rtol=0, atol=1e-9)
        # the oracle's labels and energies are the package's own
        states = manifold_states(donor, b)
        np.testing.assert_allclose(
            [states[mi].energy for mi in sorted(states)],
            [levels[(-0.5, -donor.i + k)][0] for k in range(donor.dim_n)],
            rtol=1e-12, atol=0)


def test_tilted_field_spectrum_matches_breit_rabi(donor):
    # S.I is isotropic, so H(B) = U H(|B| z) U^dagger: a tilted field has the
    # axial Breit-Rabi spectrum of |B|, here through the dense Jacobi route
    rng = np.random.default_rng(20261018)
    for b in ORACLE_FIELDS:
        axis = rng.normal(size=3)
        field = b * axis / np.linalg.norm(axis)
        expect = sorted(e for e, *_ in breit_rabi(donor, b).values())
        got = hermitian_eigendecompose(build_hamiltonian(donor, field)).eigenvalues
        np.testing.assert_allclose(got, expect, rtol=1e-12, atol=0)


def test_presets_and_aliases():
    assert get_system("si-sb") is PRESETS["Si:Sb-123"]
    assert get_system("Si:Bi-209") is PRESETS["Si:Bi-209"]
    assert get_system("si-bi").i == 4.5
    assert get_system("si-sb").dim == 16
    assert get_system("si-bi").dim == 20
    with pytest.raises(PreconditionError):
        get_system("si-p")


def test_load_system_roundtrip(tmp_path):
    path = tmp_path / "system.cfg"
    path.write_text(
        "# test system\n"
        "name = custom\n"
        "S = 1/2\n"
        "I = 7/2\n"
        "g_e_MHz_per_T = 28020\n"
        "g_n_MHz_per_T = 5.55\n"
        "A_MHz = 101.52\n"
    )
    system = load_system(path)
    assert system == SpinSystem("custom", 0.5, 3.5, 28020.0, 5.55, 101.52)


def test_load_system_errors(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("name = x\nS = 1/2\n")
    with pytest.raises(PreconditionError):
        load_system(path)
    path.write_text("name x\n")
    with pytest.raises(PreconditionError):
        load_system(path)
    path.write_text(
        "name = x\nS = 1/2\nI = 7/2\n"
        "g_e_MHz_per_T = abc\ng_n_MHz_per_T = 1\nA_MHz = 1\n"
    )
    with pytest.raises(PreconditionError):
        load_system(path)
    # a repeated key is refused, not read as its last value
    path.write_text(
        "name = x\nS = 1/2\nI = 7/2\nI = 9/2\n"
        "g_e_MHz_per_T = 1\ng_n_MHz_per_T = 1\nA_MHz = 1\n"
    )
    with pytest.raises(PreconditionError,
                       match=re.escape(f"{path}:4: key 'I' is already set on line 3")):
        load_system(path)


def test_load_system_refuses_unknown_keys_by_name(tmp_path):
    # a miscased key was ignored, so A = 5000 loaded as A = 101.52 without a word
    path = tmp_path / "system.cfg"
    path.write_text("name = x\nS = 1/2\nI = 7/2\ng_e_MHz_per_T = 28020\n"
                    "g_n_MHz_per_T = 5.55\nA_MHz = 101.52\nA_mhz = 5000\n")
    with pytest.raises(PreconditionError,
                       match=re.escape(f"{path}:7: unknown key 'A_mhz'; the keys are name, S, "
                                       "I, g_e_MHz_per_T, g_n_MHz_per_T, A_MHz")):
        load_system(path)


@pytest.mark.parametrize("s, i", [(0.5, 1e9), (1e9, 3.5), (1e300, 0.5), (0.5, 127.5)])
def test_huge_systems_are_refused_before_any_allocation(tmp_path, s, i):
    path = tmp_path / "huge.cfg"
    # a system file spells a spin in digits: 1e300 as its 301-digit decimal
    path.write_text(f"name = x\nS = {s:.1f}\nI = {i:.1f}\n"
                    "g_e_MHz_per_T = 1\ng_n_MHz_per_T = 1\nA_MHz = 1\n")
    tracemalloc.start()
    try:
        with pytest.raises(PreconditionError, match=f"exceeds MAX_SYSTEM_DIM = {MAX_SYSTEM_DIM}"):
            SpinSystem("x", s, i, 1.0, 1.0, 1.0)
        with pytest.raises(PreconditionError, match=re.escape(f"{path}: system dimension")):
            load_system(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20


def test_largest_accepted_system():
    assert SpinSystem("x", 0.5, 63.5, 1.0, 1.0, 1.0).dim == MAX_SYSTEM_DIM
    assert SpinSystem("x", 0.0, 127.5, 1.0, 1.0, 1.0).dim == MAX_SYSTEM_DIM


@pytest.mark.parametrize("spin", ["inf", "-inf", "nan", "1e400", "7/0", "0/0"])
def test_load_system_refuses_non_finite_spins(tmp_path, spin):
    # an overflowing round() or a zero denominator is a bad input, not a crash
    path = tmp_path / "bad.cfg"
    for key in ("S", "I"):
        values = {"S": "1/2", "I": "7/2", key: spin}
        path.write_text(f"name = x\nS = {values['S']}\nI = {values['I']}\n"
                        "g_e_MHz_per_T = 1\ng_n_MHz_per_T = 1\nA_MHz = 1\n")
        with pytest.raises(PreconditionError):
            load_system(path)
    for value in (float("inf"), float("nan")):
        with pytest.raises(PreconditionError, match="half-integer"):
            SpinSystem("x", 0.5, value, 1.0, 1.0, 1.0)


def _spin_file(path, key, text):
    values = {"S": "1/2", "I": "7/2", key: text}
    path.write_text(f"name = x\nS = {values['S']}\nI = {values['I']}\n"
                    "g_e_MHz_per_T = 28020\ng_n_MHz_per_T = 5.55\nA_MHz = 101.52\n")
    return path


#: spins that loaded wrongly or were refused unreadably (a zero denominator gave
#: "Fraction(1, 0)", 1e-400 underflowed to I = 0, 1_0/2 loaded as S = 5), then other
#: spellings outside the grammar
@pytest.mark.parametrize("text", ["1/0", "1e-400", "1_0/2", "+7/2", "-7/2", "7 / 2", "7/4",
                                  "7/2.0", "3.50", "3.25", "3.5e0", "0x7", "\u0663/2", ""])
def test_load_system_reads_spins_only_as_exact_half_integers(tmp_path, text):
    for key in ("S", "I"):
        path = _spin_file(tmp_path / "spin.cfg", key, text)
        with pytest.raises(PreconditionError, match=re.escape(
                f"{path}: {key} must be an integer, n/2 or a decimal ending in .0 or .5, "
                f"got {text!r}")):
            load_system(path)


@pytest.mark.parametrize("text, value", [("7/2", 3.5), ("3.5", 3.5), ("4", 4.0), ("4.0", 4.0),
                                         ("8/2", 4.0), ("0", 0.0), ("007/2", 3.5)])
def test_load_system_spin_grammar_accepts_each_form_exactly(tmp_path, text, value):
    assert load_system(_spin_file(tmp_path / "spin.cfg", "I", text)).i == value


def _constant_file(path, key, text):
    values = {"g_e_MHz_per_T": "28020", "g_n_MHz_per_T": "5.55", "A_MHz": "101.52", key: text}
    path.write_text("name = x\nS = 1/2\nI = 7/2\n"
                    + "".join(f"{k} = {v}\n" for k, v in values.items()))
    return path


_NOT_DECIMAL = ("{key} must be a decimal in ASCII digits, with optional sign, fraction and "
                "exponent, got {text!r}")


#: constants that loaded wrongly or were refused without their key: 2_8020 and the
#: Arabic-Indic 28020 loaded as 28020, 1e-400 as 0.0, and 0x1p4 was refused as
#: "could not convert string to float"
@pytest.mark.parametrize("text, why", [
    ("2_8020", _NOT_DECIMAL), ("٢٨٠٢٠", _NOT_DECIMAL),
    ("1e-400", "{key} = {text} is not zero but rounds to 0.0"), ("0x1p4", _NOT_DECIMAL)],
    ids=["underscore", "arabic-indic", "underflow", "hex"])
def test_load_system_reads_constants_only_as_ascii_decimals(tmp_path, text, why):
    for key in ("g_e_MHz_per_T", "g_n_MHz_per_T", "A_MHz"):
        path = _constant_file(tmp_path / "donor.cfg", key, text)
        with pytest.raises(PreconditionError,
                           match=re.escape(f"{path}: {why.format(key=key, text=text)}")):
            load_system(path)


@pytest.mark.parametrize("text", ["28020", "-5.55", "+1.5e3", ".5", "5.", "1E-3", "0", "-0.0",
                                  "0e-400", "0.000e999", "5e-324", "1e308", "5.0", "300.0",
                                  "007"])
def test_load_system_constant_grammar_reads_each_decimal_as_float_does(tmp_path, text):
    for key, name in (("g_e_MHz_per_T", "g_e"), ("g_n_MHz_per_T", "g_n"), ("A_MHz", "a")):
        system = load_system(_constant_file(tmp_path / "donor.cfg", key, text))
        assert getattr(system, name).hex() == float(text).hex()


@pytest.mark.parametrize("text", ["nan", "-inf", "Infinity", "+NaN", "1e400", "-1e999"])
def test_load_system_leaves_non_finite_constants_to_the_finite_check(tmp_path, text):
    path = _constant_file(tmp_path / "donor.cfg", "A_MHz", text)
    with pytest.raises(PreconditionError,
                       match=re.escape(f"{path}: a must be finite, got {float(text)}")):
        load_system(path)


def test_states_competing_for_one_label_are_refused():
    # found by a bounded search over S >= 1 systems at small tilted fields: every
    # state's top two product weights differ by more than 0.019, yet two states'
    # top weights on product 4 (m_S = 0, m_I = 0) agree to rounding
    system = SpinSystem("x", 1.0, 1.0, -5.5, -9.5, 15.0)
    weights = np.abs(hermitian_eigendecompose(
        build_hamiltonian(system, (0.125, 0.063, 0.215))).eigenvectors) ** 2
    top = np.sort(weights, axis=0)
    assert (top[-1] - top[-2]).min() > 0.019
    with pytest.raises(LabelingError, match="states compete for product label 4"):
        dressed_eigenstates(system, (0.125, 0.063, 0.215))

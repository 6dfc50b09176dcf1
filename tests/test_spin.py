"""Spin operators, Hamiltonian assembly, dressed-state labelling."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqec.linalg import PreconditionError, hermitian_eigendecompose, kron
from spinqec.spin import (
    PRESETS,
    LabelingError,
    SpinSystem,
    build_hamiltonian,
    dressed_eigenstates,
    get_system,
    load_system,
    manifold_states,
    nuclear_transition_frequencies,
    product_index,
    spin_operators,
    transition_gradients,
)


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
        assert st.weight > 1.0 - 1e-12
        k = product_index(sys0, st.m_s, st.m_i)
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
    return sorted((st.energy, st.m_s, st.m_i, st.weight)
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


def test_dressed_weights_high_field(sb, bi):
    for system in (sb, bi):
        states = dressed_eigenstates(system, 1.0)
        assert len(states) == system.dim
        assert all(st.weight > 0.98 for st in states)
        labels = {(st.m_s, st.m_i) for st in states}
        assert len(labels) == system.dim
        man = manifold_states(system, 1.0, m_s=-0.5)
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
        got = nuclear_transition_frequencies(system, 1.0)
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


def _breit_rabi(system, b):
    """Axial S = 1/2 levels and slopes in closed form, keyed by (m_S, m_I).

    Nuclear label m pairs |-1/2, m> with |+1/2, m - 1> in a 2 x 2 block; the
    state labelled (-1/2, m) is the root on h11's side, the other (+1/2, m - 1).
    m = -I and (+1/2, +I) are 1 x 1 blocks.  Returns {label: (energy, dE/dB)}.
    """
    g_e, g_n, a, i = system.g_e, system.g_n, system.a, system.i
    levels = {(-0.5, -i): (-g_e * b / 2 - g_n * b * i + a * i / 2, -g_e / 2 - g_n * i),
              (0.5, i): (g_e * b / 2 + g_n * b * i + a * i / 2, g_e / 2 + g_n * i)}
    for m in -i + np.arange(1, system.dim_n):
        h11 = -g_e * b / 2 + g_n * b * m - a * m / 2
        h22 = g_e * b / 2 + g_n * b * (m - 1) + a * (m - 1) / 2
        off = a / 2 * np.sqrt(i * (i + 1) - (m - 1) * m)
        mean, half = (h11 + h22) / 2, (h11 - h22) / 2
        dmean, dhalf = g_n * (2 * m - 1) / 2, (g_n - g_e) / 2
        root = np.hypot(half, off)
        side = np.sign(half)  # +1: h11 is the upper diagonal entry
        slope = side * half * dhalf / root
        levels[(-0.5, m)] = (mean + side * root, dmean + slope)
        levels[(0.5, m - 1)] = (mean - side * root, dmean - slope)
    return levels


def _user_donor(tmp_path, i, g_n, a):
    path = tmp_path / "donor.cfg"
    path.write_text(f"name = user\nS = 1/2\nI = {i}\ng_e_MHz_per_T = 28020.0\n"
                    f"g_n_MHz_per_T = {g_n}\nA_MHz = {a}\n")
    return load_system(path)


ORACLE_FIELDS = (0.2, 1.0, 5.0, 50.0)


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
        levels = _breit_rabi(donor, b)
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
        expect = sorted(e for e, _ in _breit_rabi(donor, b).values())
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

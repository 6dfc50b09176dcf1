"""Jacobi eigensolver and tensor helpers, cross-checked against numpy.

numpy.linalg.eigh / numpy.kron serve as the independent oracles here; the
package itself never calls them.
"""

import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinqec
from conftest import random_hermitian
from spinqec import linalg
from spinqec.linalg import (
    MAX_JACOBI_SWEEPS,
    EigenDecomposition,
    NumericalError,
    PreconditionError,
    _dominant_pairs,
    _fix_column_phases,
    _round_robin,
    as_matrix,
    fix_phase,
    hermitian_eigendecompose,
    is_hermitian,
    kron,
    kron_all,
)
from spinqec.spin import build_hamiltonian, get_system


@pytest.mark.parametrize("dim", [1, 2, 3, 5, 8, 16, 20, 33, 64])
def test_eigenvalues_match_numpy(rng, dim):
    h = random_hermitian(rng, dim)
    dec = hermitian_eigendecompose(h)
    ref = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(dec.eigenvalues, ref, rtol=0, atol=1e-10 * dim)


@pytest.mark.parametrize("dim", [2, 16, 64])
def test_reconstruction_and_orthonormality(rng, dim):
    h = random_hermitian(rng, dim)
    dec = hermitian_eigendecompose(h)
    v = dec.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-12
    recon = (v * dec.eigenvalues) @ v.conj().T
    assert np.max(np.abs(recon - h)) < 1e-10


def test_eigenvalues_ascending(rng):
    h = random_hermitian(rng, 32)
    dec = hermitian_eigendecompose(h)
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)


def test_phase_convention(rng):
    dec = hermitian_eigendecompose(random_hermitian(rng, 12))
    assert dec.phase_convention == "largest-component-real-positive"
    for k in range(12):
        col = dec.eigenvectors[:, k]
        pivot = col[int(np.argmax(np.abs(col)))]
        assert abs(pivot.imag) < 1e-12
        assert pivot.real > 0.0


def test_diagonal_input_is_sorted_permutation():
    d = np.array([3.0, -1.0, 2.0, 0.5])
    dec = hermitian_eigendecompose(np.diag(d))
    assert dec.sweeps == 0 and dec.off_norm == 0.0
    np.testing.assert_allclose(dec.eigenvalues, np.sort(d), atol=1e-14)
    # eigenvectors must be the permutation matrix mapping sorted order back
    perm = np.abs(dec.eigenvectors)
    np.testing.assert_allclose(perm @ perm.T, np.eye(4), atol=1e-12)
    np.testing.assert_allclose(np.max(perm, axis=0), np.ones(4), atol=1e-12)


def test_known_two_by_two():
    dec = hermitian_eigendecompose(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(dec.eigenvalues, [-1.0, 1.0], atol=1e-14)
    s = 1.0 / np.sqrt(2.0)
    np.testing.assert_allclose(dec.eigenvectors[:, 0], [s, -s], atol=1e-14)
    np.testing.assert_allclose(dec.eigenvectors[:, 1], [s, s], atol=1e-14)


def test_identity_and_degenerate_blocks(rng):
    dec = hermitian_eigendecompose(np.eye(6))
    np.testing.assert_allclose(dec.eigenvalues, np.ones(6), atol=1e-14)
    np.testing.assert_allclose(dec.eigenvectors, np.eye(6), atol=1e-14)
    # repeated eigenvalues: reconstruction must still hold
    h = random_hermitian(rng, 3)
    big = np.zeros((6, 6), dtype=complex)
    big[:3, :3] = h
    big[3:, 3:] = h
    dec = hermitian_eigendecompose(big)
    v = dec.eigenvectors
    recon = (v * dec.eigenvalues) @ v.conj().T
    assert np.max(np.abs(recon - big)) < 1e-10
    np.testing.assert_allclose(
        dec.eigenvalues, np.repeat(np.linalg.eigvalsh(h), 2), atol=1e-10
    )


def test_large_scale_relative_accuracy(rng):
    h = random_hermitian(rng, 24, scale=1e6)
    dec = hermitian_eigendecompose(h)
    ref = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(dec.eigenvalues, ref, rtol=1e-12, atol=1e-6)


def test_rejects_bad_input(rng):
    with pytest.raises(PreconditionError):
        hermitian_eigendecompose(np.ones((3, 4)))
    with pytest.raises(PreconditionError):
        hermitian_eigendecompose(rng.normal(size=(4, 4)) + 1j * np.eye(4))
    with pytest.raises(PreconditionError):
        as_matrix(np.arange(5.0))


def test_hermiticity_tolerance(rng):
    h = random_hermitian(rng, 5)
    h[0, 1] += 1e-13  # inside the default tolerance
    hermitian_eigendecompose(h)
    h[0, 1] += 1e-3
    with pytest.raises(PreconditionError):
        hermitian_eigendecompose(h)


def test_is_hermitian_cases(rng):
    assert is_hermitian(np.eye(3))
    assert is_hermitian(random_hermitian(rng, 4))
    assert not is_hermitian(np.array([[0.0, 1.0], [2.0, 0.0]]))
    assert not is_hermitian(np.ones((2, 3)))
    # scale-relative: a large matrix tolerates proportionally large asymmetry
    assert is_hermitian(1e8 * np.eye(2) + np.array([[0, 1e-4], [0, 0]]))
    with pytest.raises(PreconditionError, match="empty"):
        is_hermitian(np.zeros((0, 0)))


def test_fix_phase(rng):
    v = rng.normal(size=7) + 1j * rng.normal(size=7)
    out = fix_phase(v)
    pivot = out[int(np.argmax(np.abs(out)))]
    assert abs(pivot.imag) < 1e-14 and pivot.real > 0
    assert abs(np.linalg.norm(out) - np.linalg.norm(v)) < 1e-12
    np.testing.assert_allclose(fix_phase(out), out, atol=1e-14)
    zero = np.zeros(3, dtype=complex)
    np.testing.assert_array_equal(fix_phase(zero), zero)


def test_kron_matches_numpy(rng):
    a = rng.normal(size=(3, 4)) + 1j * rng.normal(size=(3, 4))
    b = rng.normal(size=(2, 5))
    np.testing.assert_allclose(kron(a, b), np.kron(a, b), atol=1e-14)
    mats = [rng.normal(size=(2, 2)) for _ in range(3)]
    ref = np.kron(np.kron(mats[0], mats[1]), mats[2])
    np.testing.assert_allclose(kron_all(mats), ref, atol=1e-14)
    with pytest.raises(PreconditionError):
        kron(np.arange(3.0), np.eye(2))


def test_sweep_cap_is_generous():
    # documents the convergence budget rather than probing a failure mode
    assert MAX_JACOBI_SWEEPS >= 20


def test_sweep_cap_raises_numerical_error(rng, monkeypatch):
    h = random_hermitian(rng, 16)
    monkeypatch.setattr(linalg, "MAX_JACOBI_SWEEPS", 1)
    with pytest.raises(NumericalError, match="did not converge in 1 sweeps"):
        hermitian_eigendecompose(h)


def test_convergence_record(rng):
    h = random_hermitian(rng, 20)
    dec = hermitian_eigendecompose(h)
    assert 1 <= dec.sweeps <= MAX_JACOBI_SWEEPS
    assert dec.off_norm <= 1e-14 * np.linalg.norm(h)


@pytest.mark.parametrize("n", range(1, 14))
def test_round_robin_schedule(n):
    rounds = _round_robin(n)
    assert len(rounds) == n - 1 + n % 2
    met = []
    for p, q in rounds:
        assert not p.flags.writeable and not q.flags.writeable
        assert np.all(p < q)
        # a round touches each index once; for odd n one index sits out
        touched = np.concatenate([p, q])
        assert len(set(touched.tolist())) == len(touched) == n - n % 2
        met += zip(p.tolist(), q.tolist())
    assert sorted(met) == [(p, q) for p in range(n) for q in range(p + 1, n)]
    assert _round_robin(n) is rounds


@settings(max_examples=20, deadline=None)
@given(rows=st.integers(min_value=1, max_value=12),
       cols=st.integers(min_value=1, max_value=12),
       zero_cols=st.sets(st.integers(min_value=0, max_value=11)),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_column_phases_match_fix_phase(rows, cols, zero_cols, seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
    for k in zero_cols:
        if k < cols:
            m[:, k] = -0.0  # signed zeros must come back untouched too
    out = _fix_column_phases(m)
    for k in range(cols):
        assert out[:, k].tobytes() == fix_phase(m[:, k]).tobytes()


def _solver_input(kind, dim, seed):
    """A Hermitian test matrix of one of the shapes the solver meets."""
    rng = np.random.default_rng(seed)
    if kind == "dense":
        return random_hermitian(rng, dim)
    if kind == "repeated":  # every eigenvalue exactly threefold
        small = random_hermitian(rng, max(1, dim // 3))
        return np.kron(small, np.eye(3))
    # axial-field shape: 1x1 and 2x2 blocks, then a symmetric permutation
    h = np.zeros((dim, dim), dtype=complex)
    k = 0
    while k < dim:
        size = min(int(rng.integers(1, 3)), dim - k)
        h[k:k + size, k:k + size] = random_hermitian(rng, size)
        k += size
    perm = rng.permutation(dim)
    return h[np.ix_(perm, perm)]


@settings(max_examples=40, deadline=None)
@example(kind="dense", dim=1, scale=1.0, seed=0)
@example(kind="blocks", dim=2, scale=1e8, seed=1)
@example(kind="dense", dim=2, scale=1e-8, seed=2)
@given(kind=st.sampled_from(["dense", "blocks", "repeated"]),
       dim=st.integers(min_value=1, max_value=48),
       scale=st.sampled_from([1.0, 1e-8, 1e8]),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_decomposition_invariants(kind, dim, scale, seed):
    h = scale * _solver_input(kind, dim, seed)
    n = h.shape[0]
    norm = np.linalg.norm(h)
    dec = hermitian_eigendecompose(h)
    assert isinstance(dec, EigenDecomposition)
    assert dec.off_norm <= 1e-14 * max(norm, 1e-300)
    assert np.all(np.diff(dec.eigenvalues) >= 0.0)
    np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(h),
                               rtol=0, atol=1e-13 * n * norm)
    v = dec.eigenvectors
    assert np.max(np.abs(v.conj().T @ v - np.eye(n))) < 1e-13 * n
    assert np.max(np.abs((v * dec.eigenvalues) @ v.conj().T - h)) < 1e-13 * n * norm
    for k in range(n):
        mag = np.abs(v[:, k])
        # the pivot is real positive; equal-magnitude ties may land on either
        top = v[mag >= mag.max() * (1 - 1e-12), k]
        assert np.any((top.real > 0) & (np.abs(top.imag) <= 1e-15 * mag.max()))


def test_kernel_route_metadata():
    # run metadata records these names; every kernel is plain numpy
    import spinqec

    assert spinqec.backend_name() == "numpy"
    assert spinqec.HAVE_NUMBA is False


def test_preconditions_hold_under_python_O(tmp_path):
    # ``python -O`` strips asserts; each of these calls must still refuse
    infinite = tmp_path / "infinite.cfg"
    infinite.write_text("name = x\nS = 1/2\nI = inf\ng_e_MHz_per_T = 1\n"
                        "g_n_MHz_per_T = 1\nA_MHz = 1\n")
    script = textwrap.dedent("""
        import sys
        from dataclasses import replace

        import numpy as np
        from spinqec.blocks import collapse_gates, enc_block, recovery_gates
        from spinqec.blocks import strip_global_phase
        from spinqec.codewords import CodeWord
        from spinqec.cycle import run_detection, sample_records
        from spinqec.linalg import kron_all
        from spinqec.register import init_register
        from spinqec.spin import get_system, load_system, manifold_states, product_index
        from spinqec.spin import transition_gradients
        from spinqec.tailor import find_roots, newton_solve, scan_common_zero_cells
        from spinqec.tailor import seed_cells, solve_partial_tailoring_72
        from spinqec.tailor import trace_zero_contour

        records, _ = run_detection(0.6, 0.8, error=("XX", "A"))
        v = np.eye(8)[0]
        negative = (replace(records[0], probability=1.5),
                    replace(records[0], probability=-0.5))
        nan = (replace(records[0], probability=float("nan")),)
        calls = {
            "product_index": lambda: product_index(get_system("si-sb"), 0.5, 9.5),
            "sample_records": lambda: sample_records(records[:1], 3),
            "newton_solve-1": lambda: newton_solve([lambda x, y: x], (0.0, 0.0)),
            "newton_solve-3": lambda: newton_solve([lambda x, y: x] * 3, (0.0, 0.0)),
            "trace-step-0": lambda: trace_zero_contour(lambda x, y: x, 0.05, 0.0),
            "trace-step-neg": lambda: trace_zero_contour(lambda x, y: x, 0.05, -0.01),
            "trace-box-0": lambda: trace_zero_contour(lambda x, y: x, 0.0, 0.01),
            "trace-box-neg": lambda: trace_zero_contour(lambda x, y: x, -0.05, 0.01),
            "trace-no-edge_zeros": lambda: trace_zero_contour(lambda x, y: x, 0.05, 0.01),
            "scan-n-0": lambda: scan_common_zero_cells([lambda x, y: x], 0.05, 0),
            "scan-n-neg": lambda: scan_common_zero_cells([lambda x, y: x], 0.05, -3),
            "seed-box-neg": lambda: seed_cells([lambda x, y: x], -0.05, 5),
            "seed-box-inf": lambda: seed_cells([lambda x, y: x], float("inf"), 5),
            "seed-n-1": lambda: seed_cells([lambda x, y: x], 0.05, 1),
            "find_roots-grid-1": lambda: find_roots([lambda x, y: x, lambda x, y: y],
                                                    0.05, 1),
            "solver-box-neg": lambda: solve_partial_tailoring_72(get_system("si-sb"),
                                                                 1.0, box=-3.0),
            "kron_all": lambda: kron_all([]),
            "manifold_states": lambda: manifold_states(get_system("si-sb"), 1.0, 0.3),
            "collapse_gates-empty": lambda: collapse_gates({}),
            "collapse_gates-norm": lambda: collapse_gates({(0, 0, 0): 0.5}),
            "collapse_gates-parity": lambda: collapse_gates({(0, 0, 0): 0.6,
                                                             (1, 0, 0): 0.8}),
            "strip_global_phase": lambda: strip_global_phase(np.zeros(4)),
            "recovery_gates": lambda: recovery_gates(enc_block()),
            "CodeWord-norm": lambda: CodeWord("ideal-7/2", "ideal", 2.0 * v, v),
            "CodeWord-orth": lambda: CodeWord("ideal-7/2", "ideal", v, v),
            "sample_records-p-neg": lambda: sample_records(negative, 3),
            "sample_records-p-nan": lambda: sample_records(nan, 3),
            "sample_records-n-2.7": lambda: sample_records(records, 2.7),
            "sample_records-n-neg": lambda: sample_records(records, -1),
            "scan-n-2.5": lambda: scan_common_zero_cells([lambda x, y: x], 0.05, 2.5),
            "scan-n-400.0": lambda: scan_common_zero_cells([lambda x, y: x], 0.05, 400.0),
            "seed-n-2.5": lambda: seed_cells([lambda x, y: x], 0.05, 2.5),
            "seed-n-0": lambda: seed_cells([lambda x, y: x], 0.05, 0),
            "gradients-B0-sb": lambda: transition_gradients(get_system("si-sb"), 0.0),
            "gradients-B0-bi": lambda: transition_gradients(get_system("si-bi"), 0.0),
            "scan-empty": lambda: scan_common_zero_cells([]),
            "seed-empty": lambda: seed_cells([]),
            "run_detection-nan": lambda: run_detection(float("nan"), 0.8),
            "init_register-nan": lambda: init_register(float("nan"), 0.8),
            "scan-nan": lambda: scan_common_zero_cells(
                [lambda x, y: np.where(x > 0.0, np.nan, -1.0 + 0.0 * y)], 0.05, 10),
            "load_system-inf": lambda: load_system(sys.argv[1]),
        }
        for name, call in calls.items():
            try:
                call()
            except Exception as exc:
                print(name, type(exc).__name__)
            else:
                print(name, "returned")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinqec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-c", script, str(infinite)],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == [
        "product_index", "PreconditionError",
        "sample_records", "PreconditionError",
        "newton_solve-1", "PreconditionError",
        "newton_solve-3", "PreconditionError",
        "trace-step-0", "PreconditionError",
        "trace-step-neg", "PreconditionError",
        "trace-box-0", "PreconditionError",
        "trace-box-neg", "PreconditionError",
        "trace-no-edge_zeros", "PreconditionError",
        "scan-n-0", "PreconditionError",
        "scan-n-neg", "PreconditionError",
        "seed-box-neg", "PreconditionError",
        "seed-box-inf", "PreconditionError",
        "seed-n-1", "PreconditionError",
        "find_roots-grid-1", "PreconditionError",
        "solver-box-neg", "PreconditionError",
        "kron_all", "PreconditionError",
        "manifold_states", "PreconditionError",
        "collapse_gates-empty", "PreconditionError",
        "collapse_gates-norm", "PreconditionError",
        "collapse_gates-parity", "PreconditionError",
        "strip_global_phase", "PreconditionError",
        "recovery_gates", "PreconditionError",
        "CodeWord-norm", "PreconditionError",
        "CodeWord-orth", "PreconditionError",
        "sample_records-p-neg", "PreconditionError",
        "sample_records-p-nan", "PreconditionError",
        "sample_records-n-2.7", "PreconditionError",
        "sample_records-n-neg", "PreconditionError",
        "scan-n-2.5", "PreconditionError",
        "scan-n-400.0", "PreconditionError",
        "seed-n-2.5", "PreconditionError",
        "seed-n-0", "PreconditionError",
        "gradients-B0-sb", "LabelingError",
        "gradients-B0-bi", "LabelingError",
        "scan-empty", "PreconditionError",
        "seed-empty", "PreconditionError",
        "run_detection-nan", "PreconditionError",
        "init_register-nan", "PreconditionError",
        "scan-nan", "NumericalError",
        "load_system-inf", "PreconditionError",
    ]


@settings(max_examples=60, deadline=None)
@given(n=st.integers(min_value=1, max_value=12),
       levels=st.integers(min_value=1, max_value=4),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_dominant_pairs_are_disjoint_mutual_row_maxima(n, levels, seed):
    # few magnitude levels, so rows tie often and many entries are zero
    rng = np.random.default_rng(seed)
    mags = np.triu(rng.integers(0, levels, size=(n, n)).astype(float), 1)
    upper = mags * np.exp(2j * np.pi * rng.random((n, n)))
    a = upper + upper.conj().T + np.diag(rng.normal(size=n))
    p, q = _dominant_pairs(a)
    assert np.all(p < q)
    assert len(set(p.tolist()) | set(q.tolist())) == 2 * len(p)
    off = np.abs(a) * (1.0 - np.eye(n))
    for i, j in zip(p.tolist(), q.tolist()):
        assert np.argmax(off[i]) == j and np.argmax(off[j]) == i
    # a unique largest entry is always a pair, and a Hermitian matrix with
    # any nonzero off-diagonal entry always has one (the lowest-index pair
    # among those of largest magnitude is mutual)
    top = np.argwhere(mags == mags.max())
    if len(top) == 1 and mags.max() > 0.0:
        assert tuple(top[0]) in set(zip(p.tolist(), q.tolist()))
    assert (len(p) > 0) == bool(np.any(mags > 0.0))


@settings(max_examples=40, deadline=None)
@given(dim=st.integers(min_value=2, max_value=40),
       seed=st.integers(min_value=0, max_value=2**32 - 1))
def test_disjoint_live_pairs_take_one_sweep(dim, seed):
    # permuted 2x2 blocks and isolated indices: the opening round of
    # dominant pairs holds every live pair, so one sweep diagonalises
    h = _solver_input("blocks", dim, seed)
    assume(np.any(np.triu(h, 1)))
    dec = hermitian_eigendecompose(h)
    assert dec.sweeps == 1 and dec.off_norm == 0.0
    np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(h),
                               rtol=0, atol=1e-14 * np.linalg.norm(h))


@pytest.mark.parametrize("key", ["si-sb", "si-bi"])
def test_axial_hamiltonians_take_one_sweep(key):
    # an axial field conserves m_F, so the m_F blocks have size <= 2 for S = 1/2
    system = get_system(key)
    for b in np.geomspace(0.01, 10.0, 12):
        h = build_hamiltonian(system, b)
        dec = hermitian_eigendecompose(h)
        assert dec.sweeps == 1 and dec.off_norm == 0.0
        np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(h),
                                   rtol=0, atol=1e-14 * np.linalg.norm(h))


def test_round_robin_is_skipped_once_the_opening_round_diagonalises(monkeypatch, rng):
    # a spy on the schedule: an axial matrix is diagonal after the dominant-pair
    # round, so no sweep asks for the round-robin rounds; a dense one does
    calls = []
    monkeypatch.setattr(linalg, "_round_robin", lambda n: calls.append(n) or _round_robin(n))
    for key in ("si-sb", "si-bi"):
        dec = hermitian_eigendecompose(build_hamiltonian(get_system(key), 1.0))
        assert dec.sweeps == 1 and dec.off_norm == 0.0
    assert calls == []
    dec = hermitian_eigendecompose(random_hermitian(rng, 6))
    assert calls == [6] * dec.sweeps


@pytest.mark.parametrize("dim", [3, 8, 17])
def test_equal_magnitude_off_diagonals_converge(rng, dim):
    # every off-diagonal |a_pq| ties, so argmax order alone picks the pairs
    phases = np.exp(2j * np.pi * rng.random((dim, dim)))
    upper = np.triu(phases, 1)
    for diag in (np.zeros(dim), rng.normal(size=dim)):
        h = upper + upper.conj().T + np.diag(diag)
        dec = hermitian_eigendecompose(h)
        assert 1 <= dec.sweeps <= MAX_JACOBI_SWEEPS
        assert dec.off_norm <= 1e-14 * np.linalg.norm(h)
        np.testing.assert_allclose(dec.eigenvalues, np.linalg.eigvalsh(h),
                                   rtol=0, atol=1e-13 * dim * np.linalg.norm(h))


@pytest.mark.parametrize("bad, message", [
    (np.zeros((0, 0)), "empty"),
    (np.array([[1.0, np.nan], [np.nan, 2.0]]), "non-finite"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "non-finite"),
    (np.array([[1.0, -np.inf], [np.inf, 1.0]]), "non-finite"),
])
def test_rejects_empty_and_non_finite_input(bad, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(PreconditionError, match=message):
            hermitian_eigendecompose(bad)


def test_empty_and_non_finite_input_refused_under_python_O():
    script = textwrap.dedent("""
        import numpy as np
        from spinqec.linalg import hermitian_eigendecompose

        for bad in (np.zeros((0, 0)), np.array([[np.nan, 0.0], [0.0, 1.0]]),
                    np.full((3, 3), np.inf)):
            try:
                hermitian_eigendecompose(bad)
            except Exception as exc:
                print(type(exc).__name__)
            else:
                print("returned")
    """)
    src = os.path.dirname(os.path.dirname(os.path.abspath(spinqec.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-O", "-W", "error", "-c", script],
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["PreconditionError"] * 3

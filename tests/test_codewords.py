"""Code-word families and Knill-Laflamme residuals.

The KL report is cross-checked against a naive double loop over full
operator products, and dressed-basis numbers were frozen from an
independent numpy.linalg.eigh route with the same phase convention.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqec.codewords import (
    FAMILIES,
    THETA0_72,
    THETA0_92,
    CodeWord,
    embed_on_qudit,
    expectation,
    kl_residuals,
    lift_to_electron_nuclear,
    make_codeword,
    offdiag_element,
    standard_error_sets,
)
from spinqec.linalg import PreconditionError
from spinqec.spin import spin_operators


def test_theta0_values():
    assert np.isclose(THETA0_72, np.arccos(np.sqrt(0.3)), atol=1e-15)
    assert np.isclose(THETA0_92, np.pi / 3.0, atol=1e-15)


def test_family_structure_72():
    cw = make_codeword("ideal-7/2")
    c, s = np.cos(THETA0_72), np.sin(THETA0_72)
    expect0 = np.zeros(8)
    expect0[0], expect0[5] = c, s  # m = -7/2 and +3/2
    expect1 = np.zeros(8)
    expect1[7], expect1[2] = -c, s  # stretched term carries the minus sign
    np.testing.assert_allclose(cw.zero_l.real, expect0, atol=1e-14)
    np.testing.assert_allclose(cw.one_l.real, expect1, atol=1e-14)


def test_family_structure_92():
    cw = make_codeword("ideal-9/2")
    expect0 = np.zeros(10)
    expect0[0], expect0[6] = 0.5, np.sqrt(0.75)
    expect1 = np.zeros(10)
    expect1[9], expect1[3] = 0.5, np.sqrt(0.75)  # no sign flip here
    np.testing.assert_allclose(cw.zero_l.real, expect0, atol=1e-14)
    np.testing.assert_allclose(cw.one_l.real, expect1, atol=1e-14)


@pytest.mark.parametrize("family,j", [("ideal-7/2", 3.5), ("ideal-9/2", 4.5)])
def test_jz_balance_and_firstorder_closure(family, j):
    cw = make_codeword(family)
    _, _, jz = spin_operators(j)
    e0, e1 = expectation(cw, jz)
    assert abs(e0) < 1e-13 and abs(e1) < 1e-13
    rep = kl_residuals(cw, standard_error_sets("firstorder-B", j))
    assert rep.max_residual < 1e-12


def test_eb_residuals_ideal_basis_structure():
    # on the bare |m> basis the 7/2 words leave clean rational residuals
    cw = make_codeword("ideal-7/2")
    es = standard_error_sets("firstorder-EB", 3.5)
    rep = kl_residuals(cw, es)
    ix = {lab: k for k, lab in enumerate(rep.labels)}
    assert np.isclose(rep.offdiag[ix["X"], ix["XX"]], 21.0 / 4.0, atol=1e-12)
    assert np.isclose(rep.diagdiff[ix["Z"], ix["ZZ"]], 21.0, atol=1e-12)
    assert np.isclose(rep.max_residual, 21.0, atol=1e-12)


def test_spin232_amplitudes_and_closure():
    cw = make_codeword("spin-23/2")
    assert cw.zero_l.shape == (24,)
    # supports at m = -23/2, -5/2, +15/2 (indices 0, 9, 19)
    np.testing.assert_allclose(
        np.abs(cw.zero_l[[0, 9, 19]]) ** 2,
        [125.0 / 1482.0, 874.0 / 1482.0, 483.0 / 1482.0],
        atol=1e-14,
    )
    rep = kl_residuals(cw, standard_error_sets("firstorder-EB", 11.5))
    # operator entries are O(100) here, so 1e-12 absolute is a tight bound
    assert rep.max_residual < 1e-12


def test_threeq_closure_and_moments():
    cw = make_codeword("three-qudit")
    es = standard_error_sets("multiqudit")
    rep = kl_residuals(cw, es)
    assert rep.max_residual < 1e-12
    ops = es.as_dict()
    e0, e1 = expectation(cw, ops["XX@A"])
    assert abs(e0 - 21.0 / 4.0) < 1e-12 and abs(e1 - 21.0 / 4.0) < 1e-12
    for lab in ("X@A", "Y@A"):
        v0, v1 = expectation(cw, ops[lab])
        assert abs(v0) < 1e-12 and abs(v1) < 1e-12
    # cross-qudit fourth moment, the obstruction to per-error contexts
    cross = np.vdot(cw.zero_l, ops["XX@A"] @ ops["XX@B"] @ cw.zero_l)
    assert np.isclose(cross.real - (21.0 / 4.0) ** 2, 21.0 / 8.0, atol=1e-12)


def _naive_entries(cw, es, pairs):
    for a, b in pairs:
        prod = es.ops[a].conj().T @ es.ops[b]
        off = abs(np.vdot(cw.zero_l, prod @ cw.one_l))
        d0 = np.vdot(cw.zero_l, prod @ cw.zero_l)
        d1 = np.vdot(cw.one_l, prod @ cw.one_l)
        yield a, b, off, abs(d0 - d1)


def test_kl_images_route_vs_naive_products():
    # the report works from images A_i|word>; redo it the slow way
    cw = make_codeword("distorted-7/2", eps1=0.003, eps2=-0.002)
    es = standard_error_sets("firstorder-EB", 3.5)
    rep = kl_residuals(cw, es)
    n = len(es)
    pairs = [(a, b) for a in range(n) for b in range(n)]
    for a, b, off, diag in _naive_entries(cw, es, pairs):
        assert abs(rep.offdiag[a, b] - off) < 1e-11
        assert abs(rep.diagdiff[a, b] - diag) < 1e-11

    # 512-dim products are costly; cover a representative label subset
    cw3 = make_codeword("three-qudit")
    es3 = standard_error_sets("multiqudit")
    rep3 = kl_residuals(cw3, es3)
    ix = {lab: k for k, lab in enumerate(es3.labels)}
    subset = [ix[l] for l in ("I", "X@A", "XX@A", "Z@B", "XY@C", "YY@C")]
    pairs3 = [(a, b) for a in subset for b in subset]
    for a, b, off, diag in _naive_entries(cw3, es3, pairs3):
        assert abs(rep3.offdiag[a, b] - off) < 1e-11
        assert abs(rep3.diagdiff[a, b] - diag) < 1e-11


def test_dressed_words_live_on_full_space(sb, bi):
    cw = make_codeword("tailored-9/2", bi, 1.0)
    assert cw.zero_l.shape == (20,)
    assert cw.basis.startswith("dressed(")
    # dominant bare components: cos(pi/3) on |m_S=-1/2, m_I=-9/2>
    assert abs(abs(cw.zero_l[0]) - 0.5) < 5e-3
    cw72 = make_codeword("distorted-7/2", sb, 1.0)
    assert cw72.zero_l.shape == (16,)


def test_dressed_diag_gap_frozen(sb):
    # frozen from the numpy.linalg.eigh route (same phase convention)
    frozen = {
        0.5: 4.101765021e-06,
        1.0: 5.063415403e-07,
        2.0: 6.288102505e-08,
        5.0: 4.008316e-09,
    }
    _, _, jz = spin_operators(3.5)
    iz = np.kron(np.eye(2), jz)
    gaps = []
    for b, expect in frozen.items():
        cw = make_codeword("distorted-7/2", sb, b)
        e0, e1 = expectation(cw, iz)
        gap = abs(e0 - e1)
        assert np.isclose(gap, expect, rtol=1e-4)
        gaps.append(gap)
    assert all(g1 > g2 for g1, g2 in zip(gaps, gaps[1:]))


def test_untailored_offdiag_frozen(sb):
    frozen = {
        0.5: -1.379443091e-04,
        1.0: -3.447564341e-05,
        2.0: -8.618255532e-06,
    }
    jx, _, _ = spin_operators(3.5)
    ixix = np.kron(np.eye(2), jx @ jx)
    for b, expect in frozen.items():
        cw = make_codeword("distorted-7/2", sb, b)
        val = offdiag_element(cw, ixix)
        assert abs(val.imag) < 1e-12
        assert np.isclose(val.real, expect, rtol=1e-5)


def test_lift_to_electron_nuclear(sb):
    es = standard_error_sets("firstorder-B", 3.5)
    lifted = lift_to_electron_nuclear(es, sb)
    assert lifted.labels == es.labels
    for raw, up in zip(es.ops, lifted.ops):
        assert up.shape == (16, 16)
        np.testing.assert_allclose(up, np.kron(np.eye(2), raw), atol=1e-14)
    np.testing.assert_allclose(lifted.as_dict()["I"], np.eye(16), atol=1e-15)


def test_error_set_sizes_and_labels():
    assert len(standard_error_sets("firstorder-B", 3.5)) == 4
    eb = standard_error_sets("firstorder-EB", 4.5)
    assert eb.labels == ("I", "X", "Y", "Z", "XX", "YY", "ZZ", "XY", "YZ", "ZX")
    multi = standard_error_sets("multiqudit")
    assert len(multi) == 28
    assert multi.labels[0] == "I"
    assert multi.labels[1:10] == tuple(
        f"{l}@A" for l in ("X", "Y", "Z", "XX", "YY", "ZZ", "XY", "YZ", "ZX")
    )
    assert all(op.shape == (512, 512) for op in multi.ops)
    with pytest.raises(PreconditionError):
        standard_error_sets("secondorder")
    with pytest.raises(PreconditionError):
        standard_error_sets("firstorder-B")  # needs j


def test_embed_on_qudit_matches_numpy(rng):
    op = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
    eye = np.eye(8)
    np.testing.assert_allclose(
        embed_on_qudit(op, 0), np.kron(np.kron(op, eye), eye), atol=1e-14
    )
    np.testing.assert_allclose(
        embed_on_qudit(op, 2), np.kron(np.kron(eye, eye), op), atol=1e-14
    )


def test_make_codeword_preconditions(sb, bi):
    with pytest.raises(PreconditionError):
        make_codeword("spin-5/2")
    with pytest.raises(PreconditionError):
        make_codeword("ideal-7/2", eps1=0.01)
    with pytest.raises(PreconditionError):
        make_codeword("spin-23/2", sb, 1.0)
    with pytest.raises(PreconditionError):
        make_codeword("distorted-7/2", sb)  # b_field missing
    with pytest.raises(PreconditionError):
        make_codeword("tailored-9/2", sb, 1.0)  # wrong nuclear spin
    with pytest.raises(PreconditionError):
        kl_residuals(make_codeword("ideal-7/2"),
                     standard_error_sets("firstorder-B", 4.5))


def test_codeword_asserts_orthonormality():
    v = np.zeros(8, dtype=complex)
    v[0] = 1.0
    with pytest.raises(PreconditionError):
        CodeWord("ideal-7/2", "ideal", 2.0 * v, v)
    with pytest.raises(PreconditionError):
        CodeWord("ideal-7/2", "ideal", v, v)


@settings(max_examples=20, deadline=None)
@given(
    eps1=st.floats(min_value=-0.05, max_value=0.05),
    eps2=st.floats(min_value=-0.05, max_value=0.05),
)
def test_distorted_words_properties(eps1, eps2):
    cw = make_codeword("distorted-7/2", eps1=eps1, eps2=eps2)
    assert abs(np.linalg.norm(cw.zero_l) - 1.0) < 1e-12
    assert abs(np.vdot(cw.zero_l, cw.one_l)) < 1e-12
    # |<0|XX|1>| == |<0|(XY+YX)/2|1>| for every distortion of this family
    jx, jy, _ = spin_operators(3.5)
    xx = jx @ jx
    xy = (jx @ jy + jy @ jx) / 2.0
    assert np.isclose(
        abs(offdiag_element(cw, xx)), abs(offdiag_element(cw, xy)), atol=1e-13
    )


def test_families_registry():
    assert set(FAMILIES) == {
        "ideal-7/2", "distorted-7/2", "ideal-9/2", "tailored-9/2",
        "spin-23/2", "three-qudit",
    }

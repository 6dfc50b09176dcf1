"""Exact scale and field-reversal relations of the spin Hamiltonian.

Multiplying g_e, g_n and A by 2^k multiplies the Hamiltonian by 2^k without
rounding, so every result that depends on the eigenvectors alone must keep
its bytes (tailoring roots, contours, common cells), and every energy must
scale by exactly 2^k.  The eigensolver reaches this by normalising by a
power of two and comparing against a relative tolerance; a solver with an
absolute tolerance, or one that skips the normalisation, breaks the
tilted-field relation.  Axial fields give block-diagonal matrices that the
solver finishes in its opening round, so the tailoring relation alone would
not see that.  A component that the scaling makes subnormal keeps fewer
bits, so there the eigenvectors are held to differences below the smallest
normal number instead.

The transition gradients are sums of |v_p|^2 (g_e m_S + g_n m_I), so they
scale by exactly 2^k as well.  A factor 3 is not exact: the tailoring roots
then agree to rtol 1e-12 above a floor of two ulp of theta0 (each root is
t + k pi - theta0), and the gradients with 3x the originals within 1e-12 of
3 g_e, the largest gradient scale (a per-element relative bound fails on
differences that cancel).

Reversing an axial field maps the Hamiltonian onto itself with every
(m_S, m_I) relabelled (-m_S, -m_I), so both spectra and the labelled
energies keep their bytes; a tilted field and its reverse give the same
spectrum to rounding.
"""

import dataclasses
import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinqec.codewords import _TWO_LEVEL
from spinqec.linalg import NumericalError, hermitian_eigendecompose
from spinqec.spin import SpinSystem, build_hamiltonian, dressed_eigenstates, get_system, \
    manifold_states, transition_gradients
from spinqec.tailor import TAILORING, TailoringProblem, scan_common_zero_cells, \
    solve_tailoring, trace_zero_contour

SCALES = st.sampled_from((1, -1, 10, -10, 40, -40))
FIELDS = st.floats(0.2, 5.0)
TILTS = st.floats(math.radians(5.0), math.radians(90.0))
AZIMUTHS = st.floats(0.0, 2.0 * math.pi)

#: the two presets and two custom donors with larger nuclear spins
DONORS = (get_system("si-sb"), get_system("si-bi"),
          SpinSystem("user-i11_2", 0.5, 5.5, 28020.0, 5.0, 300.0),
          SpinSystem("user-i23_2", 0.5, 11.5, 28020.0, 3.0, 200.0))


def _tilted(b, tilt, phi):
    return b * np.array([math.sin(tilt) * math.cos(phi), math.sin(tilt) * math.sin(phi),
                         math.cos(tilt)])


def _preset(family):
    return get_system("si-bi" if family == "tailored-9/2" else "si-sb")


def scaled(system, k):
    """``system`` with g_e, g_n and A multiplied by 2^k."""
    return dataclasses.replace(system, g_e=math.ldexp(system.g_e, k),
                               g_n=math.ldexp(system.g_n, k), a=math.ldexp(system.a, k))


def tripled(system):
    """``system`` with g_e, g_n and A multiplied by 3."""
    return dataclasses.replace(system, g_e=3.0 * system.g_e, g_n=3.0 * system.g_n,
                               a=3.0 * system.a)


def _solve(family, system, b):
    """The solution's roots and residuals as bytes, or the refusal's text."""
    try:
        sol = solve_tailoring(family, system, b)
    except NumericalError as exc:
        return repr(exc)
    return (np.array([sol.eps1, sol.eps2]).tobytes(), np.array(sol.all_roots).tobytes(),
            list(sol.residuals), np.array(list(sol.residuals.values())).tobytes(),
            np.array([sol.kl_max]).tobytes(), sol.converged, sol.iterations)


@settings(max_examples=60, deadline=None)
@given(k=SCALES, b=FIELDS, family=st.sampled_from(sorted(TAILORING)))
def test_tailoring_keeps_its_bytes_under_scaling(k, b, family):
    system = _preset(family)
    assert _solve(family, scaled(system, k), b) == _solve(family, system, b)


def _roots(family, system, b):
    """The solution's root and ``all_roots`` as one array, or the refusal's type."""
    try:
        sol = solve_tailoring(family, system, b)
    except NumericalError as exc:
        return type(exc)
    return np.array([(sol.eps1, sol.eps2), *sol.all_roots])


@settings(max_examples=30, deadline=None)
@given(b=FIELDS, family=st.sampled_from(sorted(TAILORING)))
@example(b=3.960293969537056, family="tailored-9/2")
@example(b=3.636397929787569, family="tailored-9/2")
def test_tailoring_roots_keep_their_values_under_tripling(b, family):
    system = _preset(family)
    plain, big = _roots(family, system, b), _roots(family, tripled(system), b)
    if isinstance(plain, type):
        assert big is plain
    else:
        # eps = t + k pi - theta0 rounds on the scale of ulp(theta0), which
        # exceeds 1e-12 |eps| wherever |eps| < about 2e-4
        theta0 = _TWO_LEVEL[family][1]
        np.testing.assert_allclose(big, plain, rtol=1e-12, atol=2 * np.spacing(theta0))


@settings(max_examples=40, deadline=None)
@given(k=SCALES, b=st.floats(0.3, 5.0), preset=st.sampled_from(("si-sb", "si-bi")))
def test_transition_gradients_scale_exactly(k, b, preset):
    system = get_system(preset)
    plain = transition_gradients(system, b)
    assert transition_gradients(scaled(system, k), b).tobytes() == np.ldexp(plain, k).tobytes()


@settings(max_examples=40, deadline=None)
@given(b=st.floats(0.3, 5.0), preset=st.sampled_from(("si-sb", "si-bi")))
def test_transition_gradients_triple(b, preset):
    system = get_system(preset)
    plain, big = transition_gradients(system, b), transition_gradients(tripled(system), b)
    assert np.abs(big - 3.0 * plain).max() <= 1e-12 * 3.0 * system.g_e


def _contours_and_cells(family, system, b):
    """The polylines of each condition ``contour`` draws for ``family`` (or the
    refusal's text), then their common cells, as bytes."""
    problem = TailoringProblem(family, system, b)
    conditions = [problem.condition(name) for name in TAILORING[family][3]]
    out = []
    for fn in conditions:
        try:
            out.append([line.tobytes() for line in trace_zero_contour(fn)])
        except NumericalError as exc:
            out.append(repr(exc))
    return out + [np.array(scan_common_zero_cells(conditions)).tobytes()]


@settings(max_examples=20, deadline=None)
@given(k=st.sampled_from((10, -10, 40, -40)), b=FIELDS,
       family=st.sampled_from(sorted(TAILORING)))
def test_contours_and_scans_keep_their_bytes_under_scaling(k, b, family):
    system = _preset(family)
    assert _contours_and_cells(family, scaled(system, k), b) == \
        _contours_and_cells(family, system, b)


@settings(max_examples=40, deadline=None)
@given(k=SCALES, b=FIELDS, preset=st.sampled_from(("si-sb", "si-bi")))
def test_manifold_states_scale_exactly(k, b, preset):
    system = get_system(preset)
    plain, big = manifold_states(system, b), manifold_states(scaled(system, k), b)
    assert list(big) == list(plain)
    for m, state in plain.items():
        assert big[m].vector.tobytes() == state.vector.tobytes()
        assert big[m].energy == math.ldexp(state.energy, k)


def _has_subnormal(h):
    """Whether a real or imaginary component of ``h`` is subnormal."""
    parts = np.abs(np.stack((h.real, h.imag)))
    return bool(((parts > 0.0) & (parts < np.finfo(float).tiny)).any())


@settings(max_examples=60, deadline=None)
@given(k=SCALES, b=FIELDS, tilt=TILTS, phi=AZIMUTHS, donor=st.sampled_from(DONORS))
@example(k=-40, b=1.0, tilt=1.0, phi=4.917147240022787e-303, donor=DONORS[0])
def test_tilted_spectra_scale_exactly(k, b, tilt, phi, donor):
    field = _tilted(b, tilt, phi)
    h_plain, h_big = build_hamiltonian(donor, field), build_hamiltonian(scaled(donor, k), field)
    plain, big = hermitian_eigendecompose(h_plain), hermitian_eigendecompose(h_big)
    assert big.eigenvalues.tobytes() == np.ldexp(plain.eigenvalues, k).tobytes()
    if _has_subnormal(h_plain) or _has_subnormal(h_big):
        # a subnormal entry keeps fewer bits after the solver's power-of-two
        # prescale, so the eigenvectors may move below the smallest normal
        diff = np.abs(big.eigenvectors - plain.eigenvectors).max()
        assert diff < np.finfo(float).tiny
    else:
        assert big.eigenvectors.tobytes() == plain.eigenvectors.tobytes()


@settings(max_examples=30, deadline=None)
@given(b=FIELDS, system=st.sampled_from(DONORS[:2]))
def test_axial_field_reversal_is_exact(b, system):
    ahead = hermitian_eigendecompose(build_hamiltonian(system, b)).eigenvalues
    behind = hermitian_eigendecompose(build_hamiltonian(system, -b)).eigenvalues
    assert behind.tobytes() == ahead.tobytes()
    energy = {(st.m_s, st.m_i): st.energy.hex() for st in dressed_eigenstates(system, b)}
    assert {(-st.m_s, -st.m_i): st.energy.hex()
            for st in dressed_eigenstates(system, -b)} == energy


@settings(max_examples=40, deadline=None)
@given(b=FIELDS, tilt=TILTS, phi=AZIMUTHS, donor=st.sampled_from(DONORS))
def test_tilted_field_reversal_keeps_the_spectrum(b, tilt, phi, donor):
    field = _tilted(b, tilt, phi)
    ahead = hermitian_eigendecompose(build_hamiltonian(donor, field)).eigenvalues
    behind = hermitian_eigendecompose(build_hamiltonian(donor, -field)).eigenvalues
    # rounding scales with the spectrum, so the bound is relative to its largest level
    assert np.abs(behind - ahead).max() <= 1e-12 * np.abs(ahead).max()

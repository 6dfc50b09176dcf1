"""Exact scale relations of the spin Hamiltonian.

Multiplying g_e, g_n and A by 2^k multiplies the Hamiltonian by 2^k without
rounding, so every result that depends on the eigenvectors alone must keep
its bytes, and every energy must scale by exactly 2^k.  The eigensolver
reaches this by normalising by a power of two and comparing against a
relative tolerance; a solver with an absolute tolerance, or one that skips
the normalisation, breaks the tilted-field relation.  Axial fields give
block-diagonal matrices that the solver finishes in its opening round, so
the tailoring relation alone would not see that.
"""

import dataclasses
import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqec.linalg import NumericalError, hermitian_eigendecompose
from spinqec.spin import SpinSystem, build_hamiltonian, get_system, manifold_states
from spinqec.tailor import TAILORING, solve_tailoring

SCALES = st.sampled_from((1, -1, 10, -10, 40, -40))
FIELDS = st.floats(0.2, 5.0)

#: the two presets and two custom donors with larger nuclear spins
DONORS = (get_system("si-sb"), get_system("si-bi"),
          SpinSystem("user-i11_2", 0.5, 5.5, 28020.0, 5.0, 300.0),
          SpinSystem("user-i23_2", 0.5, 11.5, 28020.0, 3.0, 200.0))


def scaled(system, k):
    """``system`` with g_e, g_n and A multiplied by 2^k."""
    return dataclasses.replace(system, g_e=math.ldexp(system.g_e, k),
                               g_n=math.ldexp(system.g_n, k), a=math.ldexp(system.a, k))


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
    system = get_system("si-bi" if family == "tailored-9/2" else "si-sb")
    assert _solve(family, scaled(system, k), b) == _solve(family, system, b)


@settings(max_examples=40, deadline=None)
@given(k=SCALES, b=FIELDS, preset=st.sampled_from(("si-sb", "si-bi")))
def test_manifold_states_scale_exactly(k, b, preset):
    system = get_system(preset)
    plain, big = manifold_states(system, b), manifold_states(scaled(system, k), b)
    assert list(big) == list(plain)
    for m, state in plain.items():
        assert big[m].vector.tobytes() == state.vector.tobytes()
        assert big[m].energy == math.ldexp(state.energy, k)


@settings(max_examples=60, deadline=None)
@given(k=SCALES, b=FIELDS, tilt=st.floats(math.radians(5.0), math.radians(90.0)),
       phi=st.floats(0.0, 2.0 * math.pi), donor=st.sampled_from(DONORS))
def test_tilted_spectra_scale_exactly(k, b, tilt, phi, donor):
    field = b * np.array([math.sin(tilt) * math.cos(phi), math.sin(tilt) * math.sin(phi),
                          math.cos(tilt)])
    plain = hermitian_eigendecompose(build_hamiltonian(donor, field))
    big = hermitian_eigendecompose(build_hamiltonian(scaled(donor, k), field))
    assert big.eigenvectors.tobytes() == plain.eigenvectors.tobytes()
    assert big.eigenvalues.tobytes() == np.ldexp(plain.eigenvalues, k).tobytes()

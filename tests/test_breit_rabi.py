"""The Breit-Rabi closed form as an oracle for the tailoring sandwiches and roots.

On an axial field an S = 1/2 donor's Hamiltonian splits into 2 x 2 blocks, so
each labelled state of the m_S = -1/2 manifold is c |-1/2, m> + s |+1/2, m - 1>
with weights (c^2, s^2) in closed form (:func:`conftest.breit_rabi`).  A
nuclear operator O is diagonal in m_S, so a diagonal sandwich entry is
c^2 <m|O|m> + s^2 <m - 1|O|m - 1>: phase-free, and computed here with no
eigensolver, labelling or sandwich code of the package.  The two diag
targets of ``tailored-9/2`` then give its roots from the oracle alone.
"""

import numpy as np
import pytest

from conftest import ORACLE_FIELDS, breit_rabi
from spinqec.codewords import _TWO_LEVEL
from spinqec.spin import get_system
from spinqec.tailor import DEFAULT_BOX, TailoringProblem, solve_tailoring


def _nuclear_diagonals(i, m):
    """<m|O|m> of the diag conditions' operators for nuclear spin i."""
    ixix = (i * (i + 1) - m * m) / 2
    return {"diag-IZ": m, "diag-IXIX": ixix, "diag-IYIY": ixix, "diag-IZIZ": m * m}


def _oracle_diagonals(system, b, family, name):
    """The diagonals of condition ``name``'s m00 and m11 sandwiches, one list
    per branch: c^2 <m|O|m> + s^2 <m - 1|O|m - 1> over the branch supports."""
    levels = breit_rabi(system, b)
    _, _, sup0, sup1, _ = _TWO_LEVEL[family]
    return [[c2 * _nuclear_diagonals(system.i, m)[name]
             + s2 * _nuclear_diagonals(system.i, m - 1)[name]
             for m in sup for c2, s2 in [levels[(-0.5, m)][2]]] for sup in (sup0, sup1)]


@pytest.mark.parametrize("family, preset", [("tailored-9/2", "si-bi"),
                                            ("distorted-7/2", "si-sb")])
def test_diag_sandwich_diagonals_match_breit_rabi(family, preset):
    # the largest difference measured is 7.1e-15, on Si:Bi's diag-IZIZ
    system = get_system(preset)
    for b in ORACLE_FIELDS:
        problem = TailoringProblem(family, system, b)
        for name in ("diag-IZ", "diag-IXIX", "diag-IYIY", "diag-IZIZ"):
            _, m00, m11, _ = problem._sandwiches(name)
            np.testing.assert_allclose(np.concatenate((np.diag(m00), np.diag(m11))),
                                       np.concatenate(_oracle_diagonals(system, b, family,
                                                                        name)),
                                       rtol=0, atol=1e-15 * system.i * (system.i + 1))


def _oracle_roots(system, b):
    """Every `tailored-9/2` root in the box from the oracle's diag sandwiches.

    A diag condition is (a1 + b1 cos 2t1) - (a2 + b2 cos 2t2), with
    a = (d0 + d1) / 2 and b = (d0 - d1) / 2 of a branch's sandwich diagonal
    (d0, d1), so diag-IZ and diag-IXIX are a 2 x 2 linear system in
    (cos 2t1, cos 2t2); each root is eps = +-arccos(u) / 2 + k pi - theta0.
    """
    theta0 = _TWO_LEVEL["tailored-9/2"][1]
    rows, rhs = [], []
    for name in ("diag-IZ", "diag-IXIX"):
        (a1, b1), (a2, b2) = (((d0 + d1) / 2, (d0 - d1) / 2) for d0, d1 in
                              _oracle_diagonals(system, b, "tailored-9/2", name))
        rows.append((b1, -b2))
        rhs.append(a2 - a1)
    u1, u2 = np.linalg.solve(np.array(rows), np.array(rhs))
    eps = [[e for s in (-1.0, 1.0) for k in range(-2, 3)
            for e in [s * np.arccos(u) / 2 + k * np.pi - theta0] if abs(e) <= DEFAULT_BOX]
           for u in (u1, u2)]
    return np.array([(e1, e2) for e1 in eps[0] for e2 in eps[1]]).reshape(-1, 2)


def test_tailored_92_roots_match_breit_rabi(bi):
    # every oracle field has one root in the box; the largest difference
    # measured is 2.2e-16, one ulp of theta0
    for b in ORACLE_FIELDS:
        want = _oracle_roots(bi, b)
        got = np.array(solve_tailoring("tailored-9/2", bi, b).all_roots)
        assert got.shape == want.shape == (1, 2)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-14)
    # acceptance 01's reading at 1 T
    np.testing.assert_allclose(_oracle_roots(bi, 1.0)[0], (-0.002396352, 0.001773512),
                               rtol=0, atol=5e-10)

"""The Breit-Rabi closed form as an oracle for the tailoring sandwiches.

On an axial field an S = 1/2 donor's Hamiltonian splits into 2 x 2 blocks, so
each labelled state of the m_S = -1/2 manifold is c |-1/2, m> + s |+1/2, m - 1>
with weights (c^2, s^2) in closed form (:func:`conftest.breit_rabi`).  A
nuclear operator O is diagonal in m_S, so a diagonal sandwich entry is
c^2 <m|O|m> + s^2 <m - 1|O|m - 1>: phase-free, and computed here with no
eigensolver, labelling or sandwich code of the package.
"""

import numpy as np
import pytest

from conftest import ORACLE_FIELDS, breit_rabi
from spinqec.codewords import _TWO_LEVEL
from spinqec.spin import get_system
from spinqec.tailor import TailoringProblem


def _nuclear_diagonals(i, m):
    """<m|O|m> of the diag conditions' operators for nuclear spin i."""
    ixix = (i * (i + 1) - m * m) / 2
    return {"diag-IZ": m, "diag-IXIX": ixix, "diag-IYIY": ixix, "diag-IZIZ": m * m}


@pytest.mark.parametrize("family, preset", [("tailored-9/2", "si-bi"),
                                            ("distorted-7/2", "si-sb")])
def test_diag_sandwich_diagonals_match_breit_rabi(family, preset):
    # the largest difference measured is 7.1e-15, on Si:Bi's diag-IZIZ
    system = get_system(preset)
    _, _, sup0, sup1, _ = _TWO_LEVEL[family]
    for b in ORACLE_FIELDS:
        levels = breit_rabi(system, b)
        problem = TailoringProblem(family, system, b)
        weights = [levels[(-0.5, m)][2] for m in (*sup0, *sup1)]
        upper = [_nuclear_diagonals(system.i, m) for m in (*sup0, *sup1)]
        lower = [_nuclear_diagonals(system.i, m - 1) for m in (*sup0, *sup1)]
        for name in ("diag-IZ", "diag-IXIX", "diag-IYIY", "diag-IZIZ"):
            _, m00, m11, _ = problem._sandwiches(name)
            want = [c2 * hi[name] + s2 * lo[name]
                    for (c2, s2), hi, lo in zip(weights, upper, lower)]
            np.testing.assert_allclose(np.concatenate((np.diag(m00), np.diag(m11))), want,
                                       rtol=0, atol=1e-15 * system.i * (system.i + 1))

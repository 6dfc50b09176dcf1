"""Shared fixtures and the acceptance-line terminal reporter."""

import numpy as np
import pytest

import spinqec.spin
from spinqec.spin import get_system

#: one line per acceptance criterion, echoed after the test summary so the
#: PASS/FAIL verdicts stay visible even when stdout capture is on
ACCEPTANCE_LINES = []


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


@pytest.fixture(scope="session")
def sb():
    return get_system("si-sb")


@pytest.fixture(scope="session")
def bi():
    return get_system("si-bi")


@pytest.fixture
def solves(monkeypatch):
    """An empty labelled-solve memo, and the shapes of the eigensolves that
    labelling makes from here on."""
    spinqec.spin._labelled.cache_clear()
    calls = []
    solve = spinqec.spin.hermitian_eigendecompose
    monkeypatch.setattr(spinqec.spin, "hermitian_eigendecompose",
                        lambda h: calls.append(h.shape) or solve(h))
    return calls


def random_hermitian(rng, dim, scale=1.0):
    """Dense random Hermitian matrix with entries of order ``scale``."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def collapse_ends(block):
    """A detection block's two collapse ends on qudit A, branch 0's first: the
    A-controls of its two trailing ancilla pulses."""
    return tuple(g.controls[0][1] for g in block.gates[-2:])


#: axial fields of the Breit-Rabi oracle (T)
ORACLE_FIELDS = (0.2, 1.0, 5.0, 50.0)


def breit_rabi(system, b):
    """Axial S = 1/2 levels, slopes and weights in closed form, keyed by (m_S, m_I).

    Nuclear label m pairs |-1/2, m> with |+1/2, m - 1> in a 2 x 2 block; the
    state labelled (-1/2, m) is the root on h11's side, the other (+1/2, m - 1).
    m = -I and (+1/2, +I) are 1 x 1 blocks.  Returns {label: (energy, dE/dB,
    (c2, s2))}: c2 = (1 + |h| / sqrt(h^2 + o^2)) / 2 is the state's weight on
    its own label's product state and s2 = 1 - c2 its weight on the block's
    other one, h being half the difference of the block's diagonal and o its
    off-diagonal entry; (1, 0) in a 1 x 1 block.
    """
    g_e, g_n, a, i = system.g_e, system.g_n, system.a, system.i
    levels = {(-0.5, -i): (-g_e * b / 2 - g_n * b * i + a * i / 2, -g_e / 2 - g_n * i,
                           (1.0, 0.0)),
              (0.5, i): (g_e * b / 2 + g_n * b * i + a * i / 2, g_e / 2 + g_n * i, (1.0, 0.0))}
    for m in -i + np.arange(1, system.dim_n):
        h11 = -g_e * b / 2 + g_n * b * m - a * m / 2
        h22 = g_e * b / 2 + g_n * b * (m - 1) + a * (m - 1) / 2
        off = a / 2 * np.sqrt(i * (i + 1) - (m - 1) * m)
        mean, half = (h11 + h22) / 2, (h11 - h22) / 2
        dmean, dhalf = g_n * (2 * m - 1) / 2, (g_n - g_e) / 2
        root = np.hypot(half, off)
        side = np.sign(half)  # +1: h11 is the upper diagonal entry
        slope = side * half * dhalf / root
        # s2 without the cancellation of 1 - c2
        s2 = off * off / (2 * root * (root + abs(half)))
        weights = ((1 + abs(half) / root) / 2, s2)
        levels[(-0.5, m)] = (mean + side * root, dmean + slope, weights)
        levels[(0.5, m - 1)] = (mean - side * root, dmean - slope, weights)
    return levels


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

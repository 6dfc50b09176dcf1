"""Shared fixtures and the acceptance-line terminal reporter."""

import numpy as np
import pytest

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


def random_hermitian(rng, dim, scale=1.0):
    """Dense random Hermitian matrix with entries of order ``scale``."""
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * (m + m.conj().T) / 2.0


def collapse_ends(block):
    """A detection block's two collapse ends on qudit A, branch 0's first: the
    A-controls of its two trailing ancilla pulses."""
    return tuple(g.controls[0][1] for g in block.gates[-2:])


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)

"""Three spin-7/2 qudits plus a two-level ancilla: state and pulse gates.

The register amplitude array has shape (8, 8, 8, 2) -- qudits A, B, C and
the ancilla -- flattened C-order to 1024 complex amplitudes.  Qudit levels
are indexed 0..7 with level = m + 7/2 (level 0 is the bottom state).

Every gate is one pulse: a real Givens rotation by angle theta between two
levels of one factor, [[cos, -sin], [sin, cos]] acting on (level_p,
level_q), optionally conditioned on control levels of other factors.  A "pi
pulse" (full population transfer) is theta = pi/2: |p> -> |q> with
amplitude +1, |q> -> -|p>.  An ancilla excitation is one ancilla pi pulse
per (A, B, C) control state.

Gate application mutates the register in place and returns it; trajectories
own their register exclusively.
"""

import math
from dataclasses import dataclass

import numpy as np

from .codewords import _single_spin_table
from .linalg import NumericalError, PreconditionError

DIMS = (8, 8, 8, 2)
TOTAL_DIM = 1024
QUDIT_NAMES = {"A": 0, "B": 1, "C": 2}
ANCILLA_AXIS = 3


class AnnihilationError(NumericalError):
    """An error operator annihilated the register state (zero norm)."""


class QuditRegister:
    """Mutable pure state of the A/B/C qudits and the ancilla."""

    __slots__ = ("amp",)

    def __init__(self, amp=None):
        if amp is None:
            amp = np.zeros(TOTAL_DIM, dtype=np.complex128)
        amp = np.ascontiguousarray(amp, dtype=np.complex128).reshape(TOTAL_DIM)
        self.amp = amp

    def norm(self):
        """``np.linalg.norm(self.amp)`` by numpy's own complex formula, bit for bit."""
        re, im = self.amp.real, self.amp.imag
        return math.sqrt(re.dot(re) + im.dot(im))

    def view(self):
        """(8, 8, 8, 2) view of the amplitudes."""
        return self.amp.reshape(DIMS)


def flat_index(la, lb, lc, anc=0):
    return ((la * 8 + lb) * 8 + lc) * 2 + anc


def init_register(alpha, beta):
    """Fresh register: qubit (alpha, beta) on levels {0, 1} of qudit A.

    B, C, and the ancilla start in their bottom states.  The qubit must be
    normalised within 1e-10.
    """
    if not abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) <= 1e-10:  # NaN fails too
        raise PreconditionError("qubit amplitudes must satisfy |a|^2 + |b|^2 = 1")
    reg = QuditRegister()
    reg.amp[flat_index(0, 0, 0, 0)] = alpha
    reg.amp[flat_index(1, 0, 0, 0)] = beta
    return reg


def _axis_of(qudit):
    """The axis of a qudit name in :data:`QUDIT_NAMES` or of an ``int`` axis 0..3."""
    if isinstance(qudit, str) and qudit in QUDIT_NAMES:
        return QUDIT_NAMES[qudit]
    if not isinstance(qudit, int) or isinstance(qudit, bool):
        raise PreconditionError(f"unknown qudit {qudit!r}")
    if not 0 <= qudit < len(DIMS):
        raise PreconditionError(f"axis {qudit} outside 0..{len(DIMS) - 1}")
    return qudit


@dataclass(frozen=True)
class Gate:
    """One (controlled) two-level rotation pulse; see the module docstring."""

    axis: int
    levels: tuple
    theta: float
    controls: tuple = ()  # ((axis, level), ...)

    #: every gate is one pulse; kept because pulse counters that sum it over
    #: gate sequences (perfbench's tracer, on every applied sequence) read it
    pulse_count = 1


def rotation(qudit, level_p, level_q, theta, controls=()):
    """Build a (controlled) two-level rotation gate."""
    axis = _axis_of(qudit)
    lp, lq = int(level_p), int(level_q)
    dims_ax = DIMS[axis]
    if not (0 <= lp < dims_ax and 0 <= lq < dims_ax) or lp == lq:
        raise PreconditionError(f"bad level pair ({lp}, {lq}) for axis {axis}")
    ctrl = tuple((_axis_of(a), int(l)) for a, l in controls)
    for cax, clev in ctrl:
        if cax == axis:
            raise PreconditionError("control axis coincides with the rotated axis")
        if not 0 <= clev < DIMS[cax]:
            raise PreconditionError(f"control level {clev} out of range on {cax}")
    return Gate(axis, (lp, lq), float(theta), ctrl)


def pi_pulse(qudit, level_p, level_q, controls=()):
    """Full transfer |p> -> |q> (theta = pi/2 Givens)."""
    return rotation(qudit, level_p, level_q, np.pi / 2.0, controls)


def ancilla_excitation(control_states):
    """One ancilla pi pulse per listed (A, B, C) product state."""
    return tuple(pi_pulse(ANCILLA_AXIS, 0, 1, ((0, a), (1, b), (2, c)))
                 for a, b, c in control_states)


def apply_gate(reg, gate):
    """Apply one gate in place where its controls hold; returns the register."""
    idx_p = [slice(None)] * len(DIMS)
    for cax, clev in gate.controls:
        idx_p[cax] = clev
    idx_q = list(idx_p)
    idx_p[gate.axis], idx_q[gate.axis] = gate.levels
    tp, tq = tuple(idx_p), tuple(idx_q)
    c, s = float(np.cos(gate.theta)), float(np.sin(gate.theta))
    view = reg.view()
    ap = np.array(view[tp], copy=True)
    aq = view[tq]
    view[tp] = c * ap - s * aq
    view[tq] = s * ap + c * aq
    return reg


def apply_gates(reg, gates):
    for g in gates:
        apply_gate(reg, g)
    return reg


def inverted_gates(gates):
    """Exact inverse pulse sequence (reversed order, angles negated)."""
    return [Gate(g.axis, g.levels, -g.theta, g.controls)
            for g in reversed(list(gates))]


def gates_matrix(gates):
    """Dense 1024 x 1024 unitary of a pulse sequence (verification route).

    Rebuilt from plain index arithmetic, sharing no code with the fast
    application kernel, so tests can cross-check the two routes and
    certify unitarity of synthesised blocks.  Cost is O(dim^2) per pulse;
    use for certification, not simulation.
    """
    strides = (128, 16, 2, 1)
    mat = np.eye(TOTAL_DIM, dtype=np.complex128)
    for gate in gates:
        c = np.cos(gate.theta)
        s = np.sin(gate.theta)
        stride = strides[gate.axis]
        lp, lq = gate.levels
        shift = (lq - lp) * stride
        for ip in range(TOTAL_DIM):
            if ip // stride % DIMS[gate.axis] != lp:
                continue
            if any(ip // strides[cax] % DIMS[cax] != clev
                   for cax, clev in gate.controls):
                continue
            iq = ip + shift
            row_p = mat[ip, :].copy()
            mat[ip, :] = c * row_p - s * mat[iq, :]
            mat[iq, :] = s * row_p + c * mat[iq, :]
    return mat


# ---------------------------------------------------------------------------
# error injection
# ---------------------------------------------------------------------------

def single_qudit_error(label):
    """8 x 8 spin-7/2 error operator (read-only) for a label like "X", "ZZ"."""
    table = _single_spin_table(3.5)
    if label not in table:
        raise PreconditionError(f"unknown error label {label!r}")
    return table[label]


def apply_on_axis(op, arr, axis):
    """Apply the 8 x 8 operator ``op`` to tensor axis ``axis`` of ``arr``.

    Layout rule: with ``arr`` read as (pre, 8, post) about the axis, a
    ``post`` of at least 8 takes ``op @ arr.reshape(pre, 8, post)``, one GEMM.
    A smaller ``post`` (qudit C, axis 2, of the register or of a code word)
    would make that a batch of pre tiny (8 x 8) @ (8 x post) products, three
    to four times slower than qudit A's product, so it is contracted as one
    (pre*post x 8) @ ``op.T`` product on the transposed layout and copied
    back into C order.  On a wide ``post`` (qudits A and B) the transposed
    layout is the slower one, hence the rule.  The two routes give the same
    bits for every error operator on every axis of both shapes.
    """
    shape, n = arr.shape, op.shape[0]
    post = math.prod(shape[axis + 1:])
    if post >= n:
        return (op @ arr.reshape(shape[:axis + 1] + (-1,))).reshape(shape)
    rows = arr.reshape(-1, n, post).swapaxes(1, 2).reshape(-1, n)
    out = (rows @ op.T).reshape(-1, post, n).swapaxes(1, 2)
    return np.ascontiguousarray(out).reshape(shape)


def apply_error(reg, label, qudit):
    """Hit one qudit with an error operator and renormalise.

    ``qudit`` is "A", "B" or "C".  Returns (register, weight) where ``weight``
    is the squared norm before renormalisation (the raw error-branch weight).

    Raises
    ------
    AnnihilationError
        If the operator sends the state to zero.
    """
    op = single_qudit_error(label)
    if not isinstance(qudit, str) or qudit not in QUDIT_NAMES:
        raise PreconditionError("errors act on qudits A, B, or C")
    new = apply_on_axis(op, reg.view(), QUDIT_NAMES[qudit])
    weight = float(np.vdot(new, new).real)
    if weight < 1e-24:
        raise AnnihilationError(f"error {label}@{qudit} annihilated the state")
    np.multiply(new.reshape(TOTAL_DIM), 1.0 / math.sqrt(weight), out=reg.amp)
    return reg, weight

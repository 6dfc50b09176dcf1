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

    def copy(self):
        return QuditRegister(self.amp.copy())

    def norm(self):
        return float(np.linalg.norm(self.amp))

    def view(self):
        """(8, 8, 8, 2) view of the amplitudes."""
        return self.amp.reshape(DIMS)

    def amplitude(self, la, lb, lc, anc=0):
        return self.amp[flat_index(la, lb, lc, anc)]


def flat_index(la, lb, lc, anc=0):
    return ((la * 8 + lb) * 8 + lc) * 2 + anc


def init_register(alpha, beta):
    """Fresh register: qubit (alpha, beta) on levels {0, 1} of qudit A.

    B, C, and the ancilla start in their bottom states.  The qubit must be
    normalised within 1e-10.
    """
    if abs(abs(alpha) ** 2 + abs(beta) ** 2 - 1.0) > 1e-10:
        raise PreconditionError("qubit amplitudes must satisfy |a|^2 + |b|^2 = 1")
    reg = QuditRegister()
    reg.amp[flat_index(0, 0, 0, 0)] = alpha
    reg.amp[flat_index(1, 0, 0, 0)] = beta
    return reg


def _axis_of(qudit):
    key = qudit.upper() if isinstance(qudit, str) else qudit
    try:
        axis = QUDIT_NAMES[key] if key in QUDIT_NAMES else int(key)
    except ValueError:
        raise PreconditionError(f"unknown qudit {qudit!r}") from None
    if not 0 <= axis < len(DIMS):
        raise PreconditionError(f"axis {axis} outside 0..{len(DIMS) - 1}")
    return axis


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
    """Apply one gate in place; returns the register for chaining."""
    _apply_two_level(reg.amp, gate.axis, gate.levels[0], gate.levels[1],
                     float(np.cos(gate.theta)), float(np.sin(gate.theta)),
                     gate.controls)
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
    application kernels, so tests can cross-check the two routes and
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


def _apply_two_level(amp, axis, lp, lq, c, s, controls):
    """Rotate levels (lp, lq) of tensor factor ``axis`` by [[c,-s],[s,c]].

    ``amp`` is the flat amplitude array; the rotation acts only where every
    ``(axis, level)`` pair in ``controls`` holds.
    """
    view = amp.reshape(DIMS)
    idx_p = [slice(None)] * len(DIMS)
    idx_q = [slice(None)] * len(DIMS)
    idx_p[axis] = lp
    idx_q[axis] = lq
    for cax, clev in controls:
        idx_p[cax] = clev
        idx_q[cax] = clev
    tp = tuple(idx_p)
    tq = tuple(idx_q)
    ap = np.array(view[tp], copy=True)
    aq = view[tq]
    view[tp] = c * ap - s * aq
    view[tq] = s * ap + c * aq


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
    """Apply the 8 x 8 operator ``op`` to tensor axis ``axis`` of ``arr``."""
    return (op @ arr.reshape(arr.shape[:axis + 1] + (-1,))).reshape(arr.shape)


def apply_error(reg, label, qudit):
    """Hit one qudit with an error operator and renormalise.

    Returns (register, weight) where ``weight`` is the squared norm before
    renormalisation (the raw detection weight of the error branch).

    Raises
    ------
    AnnihilationError
        If the operator sends the state to zero.
    """
    op = single_qudit_error(label)
    axis = _axis_of(qudit)
    if axis not in (0, 1, 2):
        raise PreconditionError("errors act on qudits A, B, or C")
    new = apply_on_axis(op, reg.view(), axis)
    weight = float(np.vdot(new, new).real)
    if weight < 1e-24:
        raise AnnihilationError(f"error {label}@{qudit} annihilated the state")
    np.multiply(new.reshape(TOTAL_DIM), 1.0 / np.sqrt(weight), out=reg.amp)
    return reg, weight

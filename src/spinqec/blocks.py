"""Pulse-sequence synthesis: encode, entangle, and detection blocks.

Every block is a named list of :class:`spinqec.register.Gate` pulses,
validated at construction time against (input state, required output state)
pairs that are not kept (fidelity > 1 - 1e-10 and output within 1e-8 of the
target in norm, else :class:`SynthesisError`).

Synthesis strategy
------------------
All detection sequences reduce a real branch vector to a single product
state |dest>_A |0>_B |0>_C by a three-phase collapse:

1. clear qudit C -- per (A-level, B-level) group, merge every occupied
   C-level down to level 0 with controlled Givens rotations;
2. clear qudit B -- per A-level, merge the occupied B-levels into level 0;
3. collapse qudit A -- a zigzag chain of Givens rotations that folds the
   remaining single-qudit superposition into ``dest``.

Phases 1 and 2 pin every pulse to one A-level of their own branch.  An
error on a single qudit never changes the A-level parity split between the
two logical branches, so one branch's pulses can never fire on the other
branch or on its collapsed residue.

The zigzag orders the occupied levels by distance from ``dest`` (farthest
first), first empties the second-farthest level into the farthest, then
chains the accumulated amplitude through the remaining levels into ``dest``.
Each elementary step empties a source level into a receiver level with the
rotation angle theta = atan2(a_src, a_recv), which always leaves the
combined amplitude positive on the receiver.

``dest`` is level 0 when the branch occupies even A-levels and level 7 when
it occupies odd ones (an error branch never mixes level parities); the two
logical branches of one case therefore land on opposite ends of qudit A and
never collide.
"""

from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .codewords import THREEQ_ONE, THREEQ_ZERO, make_codeword
from .linalg import NumericalError, PreconditionError
from .register import ANCILLA_AXIS, QuditRegister, ancilla_excitation, apply_gates, \
    flat_index, init_register, inverted_gates, pi_pulse, rotation

AMP_CUT = 1e-12
FIDELITY_TOL = 1e-10  # a validated block's target fidelity exceeds 1 - FIDELITY_TOL
PHASE_TOL = 1e-9  # strip_global_phase drops a part below this of max |entry|

#: encode-stage branch profiles on qudit A: level -> amplitude
BRANCH0_PROFILE = dict(THREEQ_ZERO)
BRANCH1_PROFILE = dict(THREEQ_ONE)

#: A-levels whose (m, 0, 0) populations the entangling stage copies to B and C
ENTANGLE_LEVELS = (1, 2, 5, 6, 7)


class SynthesisError(NumericalError):
    """A synthesised pulse sequence failed its target-map validation."""


@dataclass(frozen=True)
class Block:
    """A named pulse sequence, validated at construction."""

    name: str
    gates: tuple
    meta: dict = field(default_factory=dict)

    @property
    def pulse_count(self):
        return len(self.gates)

    def angle_cosines(self):
        """|cos theta| of every pulse off the ancilla, sorted."""
        return tuple(sorted(abs(float(np.cos(g.theta)))
                            for g in self.gates if g.axis != ANCILLA_AXIS))


def validate_block(block, targets):
    """Check each (input, output) 1024-vector pair in ``targets``; raise on a miss."""
    for vin, vout in targets:
        reg = QuditRegister(np.array(vin, dtype=np.complex128))
        apply_gates(reg, block.gates)
        nin = np.linalg.norm(vin)
        nout = np.linalg.norm(vout)
        fid = abs(np.vdot(vout, reg.amp)) ** 2 / (nin * nout) ** 2
        if not fid > 1.0 - FIDELITY_TOL:
            raise SynthesisError(
                f"block {block.name!r}: target fidelity {fid:.12f} <= 1 - {FIDELITY_TOL:g}"
            )
        if np.linalg.norm(reg.amp - vout) > 1e-8:
            raise SynthesisError(f"block {block.name!r}: output phase drifted")
    return block


# ---------------------------------------------------------------------------
# state helpers
# ---------------------------------------------------------------------------

def embed_qudit_state(vec512):
    """Lift a 512-dim A/B/C state to the full register (ancilla at 0)."""
    v = np.asarray(vec512, dtype=np.complex128).reshape(512)
    out = np.zeros(1024, dtype=np.complex128)
    out.reshape(512, 2)[:, 0] = v
    return out


def strip_global_phase(vec):
    """Split ``vec`` into (real array, unit phase) with vec = phase * real.

    Every error word in play is either real or purely imaginary (real code
    words hit by real or imaginary operators), so the phase is 1 or 1j up to
    sign conventions absorbed into the real part.
    """
    v = np.asarray(vec, dtype=np.complex128)
    scale = float(np.max(np.abs(v)))
    if not scale > 0.0:
        raise PreconditionError("cannot phase-strip a zero vector")
    if np.max(np.abs(v.imag)) < PHASE_TOL * scale:
        return v.real.copy(), 1.0 + 0.0j
    if np.max(np.abs(v.real)) < PHASE_TOL * scale:
        return v.imag.copy(), 1.0j
    raise SynthesisError("branch vector is neither real nor purely imaginary")


def psi_spread(alpha, beta):
    """After the encode stage: branch profiles on A, B/C still at level 0."""
    out = np.zeros(1024, dtype=np.complex128)
    for lvl, amp in BRANCH0_PROFILE.items():
        out[flat_index(lvl, 0, 0)] = alpha * amp
    for lvl, amp in BRANCH1_PROFILE.items():
        out[flat_index(lvl, 0, 0)] = beta * amp
    return out


def psi_encoded(alpha, beta):
    """Fully encoded logical state on the register."""
    word = make_codeword("three-qudit")
    return embed_qudit_state(alpha * word.zero_l + beta * word.one_l)


# ---------------------------------------------------------------------------
# zigzag merges and the generic collapse
# ---------------------------------------------------------------------------

def zigzag_merge(axis, amps, dest, controls=()):
    """Fold a real single-axis amplitude profile into one level.

    Returns (gates, final_amplitude); the final amplitude is +norm of the
    profile whenever more than one level was occupied.
    """
    cur = {int(l): float(a) for l, a in amps.items() if abs(a) > AMP_CUT}
    if not cur:
        raise PreconditionError("zigzag_merge needs at least one occupied level")
    order = sorted(cur, key=lambda l: (-abs(l - dest), l))
    gates = []

    def empty(src, recv):
        a_src = cur.pop(src)
        a_recv = cur.get(recv, 0.0)
        theta = float(np.arctan2(a_src, a_recv))
        gates.append(rotation(axis, src, recv, theta, controls))
        cur[recv] = float(np.hypot(a_src, a_recv))

    if len(order) >= 3:
        empty(order[1], order[0])
        acc = order[0]
        rest = order[2:]
    else:
        acc = order[0]
        rest = order[1:]
    for lvl in rest:
        empty(acc, lvl)
        acc = lvl
    if acc != dest:
        empty(acc, dest)
        acc = dest
    return gates, cur[dest]


def collapse_gates(entries):
    """Synthesise the three-phase collapse of one real branch vector.

    Parameters
    ----------
    entries : dict
        (level_A, level_B, level_C) -> real amplitude, unit total norm.

    Returns
    -------
    (disentangle_gates, decode_gates, dest_level)
    """
    state = {k: float(v) for k, v in entries.items() if abs(v) > AMP_CUT}
    if not state:
        raise PreconditionError("collapse_gates got an empty branch")
    disent = []

    # phase 1: clear qudit C (every pulse carries an A-level control: the two
    # branches never share an A-level parity, so neither branch's pulses can
    # fire on the other branch or on its collapsed residue)
    for m in sorted({k[1] for k in state}, reverse=True):
        for la in sorted({k[0] for k in state if k[1] == m}, reverse=True):
            sub = {k[2]: a for k, a in state.items()
                   if k[0] == la and k[1] == m}
            if set(sub) == {0}:
                continue
            g, amp = zigzag_merge("C", sub, 0, controls=(("A", la), ("B", m)))
            disent += g
            for c in sub:
                state.pop((la, m, c), None)
            state[(la, m, 0)] = amp

    # phase 2: clear qudit B
    if any(k[2] != 0 for k in state):
        raise SynthesisError("phase 1 left qudit C occupied")
    for la in sorted({k[0] for k in state}, reverse=True):
        sub = {k[1]: a for k, a in state.items() if k[0] == la}
        if set(sub) == {0}:
            continue
        g, amp = zigzag_merge("B", sub, 0, controls=(("A", la), ("C", 0)))
        disent += g
        for b in sub:
            state.pop((la, b, 0), None)
        state[(la, 0, 0)] = amp

    # phase 3: collapse qudit A
    a_amps = {k[0]: a for k, a in state.items()}
    parities = {l % 2 for l in a_amps}
    if len(parities) != 1:
        raise PreconditionError("branch support mixes A-level parities")
    dest = 0 if parities == {0} else 7
    dec, final = zigzag_merge("A", a_amps, dest, ())
    if not abs(final - 1.0) < 1e-9:
        raise PreconditionError("branch vector was not normalised")
    return disent, dec, dest


# ---------------------------------------------------------------------------
# fixed blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=1)
def enc_block():
    """Spread the bare A-qubit into the two branch profiles.

    Six pulses on qudit A.  The second branch is stretched to level 7 and
    split off the top; the first branch parks sqrt(7/16) (with a sign that
    the closing pi pulse flips back), splits the remainder, then swaps the
    small component down to level 0.
    """
    gates = (
        pi_pulse("A", 1, 7),
        rotation("A", 7, 5, np.arccos(np.sqrt(2.0 / 16.0))),
        rotation("A", 5, 1, -np.arccos(np.sqrt(0.5))),
        rotation("A", 0, 2, np.arccos(-np.sqrt(7.0 / 16.0))),
        rotation("A", 2, 6, np.arccos(np.sqrt(7.0 / 9.0))),
        rotation("A", 0, 6, -np.pi / 2.0),
    )
    targets = tuple(
        (init_register(a, b).amp, psi_spread(a, b)) for a, b in ((1, 0), (0, 1))
    )
    return validate_block(Block("ENC", gates), targets)


@lru_cache(maxsize=1)
def entangle_block():
    """Copy each populated A-level of the branch profiles onto B and C.

    Five conditional double pi pulses (ten pulses): for each A-level m in
    use, B then C are raised 0 -> m conditioned on their neighbours.
    """
    gates = []
    for m in ENTANGLE_LEVELS:
        gates.append(pi_pulse("B", 0, m, controls=(("A", m),)))
        gates.append(pi_pulse("C", 0, m, controls=(("A", m), ("B", m))))
    targets = tuple(
        (psi_spread(a, b), psi_encoded(a, b)) for a, b in ((1, 0), (0, 1))
    )
    return validate_block(Block("ENTANGLE", tuple(gates)), targets)


def encode_register(alpha, beta):
    """Fresh register carrying the encoded, normalised qubit (pulse path)."""
    reg = init_register(alpha, beta)
    apply_gates(reg, enc_block().gates)
    apply_gates(reg, entangle_block().gates)
    return reg


# ---------------------------------------------------------------------------
# detection blocks
# ---------------------------------------------------------------------------

def _register_entries(reg):
    """Real amplitude dict of a register state (ancilla must be empty)."""
    view = reg.view()
    arr = view[..., 0]
    if not (np.max(np.abs(view[..., 1])) < 1e-10 and np.max(np.abs(arr.imag)) < 1e-9):
        raise PreconditionError("expected a real register state with an empty ancilla")
    entries = {}
    for la, lb, lc in zip(*np.nonzero(np.abs(arr) > AMP_CUT)):
        entries[(int(la), int(lb), int(lc))] = float(arr[la, lb, lc].real)
    return entries


def detection_block(name, p0, p1):
    """Build the detection sequence for one orthonormal branch pair.

    ``p0``/``p1`` are 512-dim A/B/C vectors (the Gram-Schmidt error words of
    this case).  The sequence folds p0 and p1 onto opposite ends of qudit A,
    then raises the ancilla with one pi pulse conditioned on each of the two
    product-state targets.
    For the no-error case ("I"), folding starts with the exact inverse of
    the entangling stage so that the code words themselves are unwound.
    """
    r0, ph0 = strip_global_phase(p0)
    r1, ph1 = strip_global_phase(p1)
    if abs(ph0 - ph1) > 1e-9:
        raise SynthesisError(f"case {name!r}: branch phases disagree")
    pre = tuple(inverted_gates(entangle_block().gates)) if name == "I" else ()
    work0 = QuditRegister(embed_qudit_state(r0))
    work1 = QuditRegister(embed_qudit_state(r1))
    if pre:
        apply_gates(work0, pre)
        apply_gates(work1, pre)
    dis0, dec0, dest0 = collapse_gates(_register_entries(work0))
    dis1, dec1, dest1 = collapse_gates(_register_entries(work1))
    if dest1 != 7 - dest0:
        raise SynthesisError(f"case {name!r}: branches collapse to the same end")
    excite = ancilla_excitation(((dest0, 0, 0), (dest1, 0, 0)))
    gates = (*pre, *dis0, *dec0, *dis1, *dec1, *excite)
    targets = [(embed_qudit_state(p), ph * (np.arange(1024) == flat_index(d, 0, 0, 1)))
               for p, ph, d in ((p0, ph0, dest0), (p1, ph1, dest1))]
    meta = {"dest0": dest0, "dest1": dest1, "phase": ph0}
    return validate_block(Block(name, gates, meta), targets)


def recovery_gates(block):
    """Exact inverse of a detection block minus its trailing ancilla pulses."""
    if block.gates[-1].axis != ANCILLA_AXIS:
        raise PreconditionError(f"block {block.name!r} ends without an ancilla excitation")
    return tuple(inverted_gates(g for g in block.gates if g.axis != ANCILLA_AXIS))

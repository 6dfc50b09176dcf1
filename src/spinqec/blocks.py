"""Pulse-sequence synthesis: encode, entangle, and detection blocks.

Every block is a named list of :class:`spinqec.register.Gate` pulses,
validated at construction time against (input state, required output state)
pairs that are not kept (fidelity > 1 - 1e-10 and output within 1e-8 of the
target in norm, else :class:`SynthesisError`).

Synthesis strategy
------------------
All detection sequences reduce a real branch vector to a single product
state |dest>_A |0>_B |0>_C.  One clearing step, applied to qudit C and then
to qudit B, groups the amplitudes by the levels of the other two qudits and
folds each group's occupied levels of the cleared qudit into level 0 with
Givens rotations controlled on the group's levels.  Qudit A is then
collapsed without controls: a zigzag chain folds the remaining single-qudit
superposition into ``dest``.

Every clearing pulse is pinned to one A-level of its own branch.  An error
on a single qudit never changes the A-level parity split between the two
logical branches, so one branch's pulses can never fire on the other branch
or on its collapsed residue.

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

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .codewords import THREEQ_ONE, THREEQ_ZERO, make_codeword
from .linalg import NumericalError, PreconditionError
from .register import ANCILLA_AXIS, QuditRegister, ancilla_excitation, apply_gates, \
    flat_index, init_register, inverted_gates, pi_pulse, rotation

AMP_CUT = 1e-12
FIDELITY_TOL = 1e-10  # a validated block's target fidelity exceeds 1 - FIDELITY_TOL
PHASE_TOL = 1e-9  # strip_global_phase drops a part below this of max |entry|

#: A-levels whose (m, 0, 0) populations the entangling stage copies to B and C:
#: every level of the three-qudit words but 0, where B and C already are
ENTANGLE_LEVELS = tuple(sorted({lvl for word in (THREEQ_ZERO, THREEQ_ONE)
                               for lvl, _ in word} - {0}))


class SynthesisError(NumericalError):
    """A synthesised pulse sequence failed its target-map validation."""


@dataclass(frozen=True)
class Block:
    """A named pulse sequence, validated at construction."""

    name: str
    gates: tuple
    phase: complex = 1.0  # a detection block's target phase

    @property
    def pulse_count(self):
        return len(self.gates)


def validate_block(block, targets):
    """Check each (input, output) 1024-vector pair in ``targets``; raise on a miss."""
    for vin, vout in targets:
        reg = apply_gates(QuditRegister(np.array(vin, dtype=np.complex128)), block.gates)
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
    """After the encode stage: the word profiles on A, B/C still at level 0."""
    out = np.zeros(1024, dtype=np.complex128)
    for profile, coeff in ((THREEQ_ZERO, alpha), (THREEQ_ONE, beta)):
        for lvl, amp in profile:
            out[flat_index(lvl, 0, 0)] = coeff * amp
    return out


def psi_encoded(alpha, beta):
    """Fully encoded logical state on the register."""
    word = make_codeword("three-qudit")
    return embed_qudit_state(alpha * word.zero_l + beta * word.one_l)


# ---------------------------------------------------------------------------
# zigzag merges and the generic collapse
# ---------------------------------------------------------------------------

def zigzag_merge(axis, amps, dest, controls=()):
    """Fold a real single-axis amplitude profile into level ``dest``.

    The occupied levels, farthest from ``dest`` first (the two farthest
    swapped when three or more are occupied), then ``dest`` form one chain;
    each neighbouring (source, receiver) pair empties the amplitude carried
    so far into the receiver.  Returns (gates, final_amplitude): +norm of the
    profile, or the lone amplitude when ``dest`` alone is occupied.
    """
    cur = {int(l): float(a) for l, a in amps.items() if abs(a) > AMP_CUT}
    if not cur:
        raise PreconditionError("zigzag_merge needs at least one occupied level")
    order = sorted(cur, key=lambda l: (-abs(l - dest), l))
    chain = [order[1], order[0], *order[2:]] if len(order) >= 3 else order
    if chain[-1] != dest:
        chain.append(dest)
    gates, amp = [], cur[chain[0]]
    for src, recv in zip(chain, chain[1:]):
        a_recv = cur.get(recv, 0.0)
        gates.append(rotation(axis, src, recv, float(np.arctan2(amp, a_recv)), controls))
        amp = float(np.hypot(amp, a_recv))
    return gates, amp


def _clear_qudit(state, axis):
    """Clear qudit ``axis`` of ``state``; returns (pulses, cleared state).

    The amplitudes are grouped by the levels of the other two qudits; the
    groups are visited in descending order of those levels, read last qudit
    first, and each one's occupied levels of qudit ``axis`` are zigzag-merged
    into level 0 under controls on the group's levels.  The cleared state
    holds one level-0 entry per group; a group already at level 0 alone
    keeps its amplitude and adds no pulse.
    """
    others = tuple(k for k in range(3) if k != axis)
    groups = {}
    for key, amp in state.items():
        groups.setdefault(tuple(key[k] for k in others), {})[key[axis]] = amp
    gates, cleared = [], {}
    for levels in sorted(groups, key=lambda lv: lv[::-1], reverse=True):
        g, amp = zigzag_merge(axis, groups[levels], 0, controls=tuple(zip(others, levels)))
        gates += g
        cleared[levels[:axis] + (0,) + levels[axis:]] = amp
    return gates, cleared


def collapse_gates(entries):
    """Synthesise the collapse of one real branch vector.

    Clears qudit C, then qudit B from the state the C pass returned, then
    zigzag-merges what is left on qudit A into ``dest_level``.

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
    c_gates, state = _clear_qudit(state, 2)
    b_gates, state = _clear_qudit(state, 1)
    a_amps = {k[0]: a for k, a in state.items()}
    parities = {l % 2 for l in a_amps}
    if len(parities) != 1:
        raise PreconditionError("branch support mixes A-level parities")
    dest = 0 if parities == {0} else 7
    dec, final = zigzag_merge("A", a_amps, dest, ())
    if not abs(final - 1.0) < 1e-9:
        raise PreconditionError("branch vector was not normalised")
    return c_gates + b_gates, dec, dest


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
    """Amplitude per occupied (A, B, C) level triple of a real, ancilla-empty state."""
    arr = reg.view()[..., 0].real
    return {(int(la), int(lb), int(lc)): float(arr[la, lb, lc])
            for la, lb, lc in zip(*np.nonzero(np.abs(arr) > AMP_CUT))}


def detection_block(name, p0, p1):
    """Build the detection sequence for one orthonormal branch pair.

    ``p0``/``p1`` are 512-dim A/B/C vectors (the Gram-Schmidt error words of
    this case).  The sequence folds p0 and p1 onto opposite ends of qudit A,
    then raises the ancilla with one pi pulse conditioned on each of the two
    product-state targets.
    For the no-error case ("I"), folding starts with the exact inverse of
    the entangling stage so that the code words themselves are unwound.
    """
    pre = tuple(inverted_gates(entangle_block().gates)) if name == "I" else ()
    folds, ends = [], []  # ends: (phase, dest) per branch
    for p in (p0, p1):
        real, ph = strip_global_phase(p)
        work = apply_gates(QuditRegister(embed_qudit_state(real)), pre)
        dis, dec, dest = collapse_gates(_register_entries(work))
        folds += dis + dec
        ends.append((ph, dest))
    (ph0, end0), (ph1, end1) = ends
    if abs(ph0 - ph1) > 1e-9:
        raise SynthesisError(f"case {name!r}: branch phases disagree")
    if end1 != 7 - end0:
        raise SynthesisError(f"case {name!r}: branches collapse to the same end")
    gates = (*pre, *folds, *ancilla_excitation(((end0, 0, 0), (end1, 0, 0))))
    targets = [(embed_qudit_state(p), ph * (np.arange(1024) == flat_index(d, 0, 0, 1)))
               for p, (ph, d) in zip((p0, p1), ends)]
    return validate_block(Block(name, gates, ph0), targets)


def recovery_gates(block):
    """Exact inverse of a detection block minus its trailing ancilla pulses."""
    if block.gates[-1].axis != ANCILLA_AXIS:
        raise PreconditionError(f"block {block.name!r} ends without an ancilla excitation")
    return tuple(inverted_gates(g for g in block.gates if g.axis != ANCILLA_AXIS))

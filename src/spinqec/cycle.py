"""Syndrome-detection plans and decode-cycle simulation.

A *detection plan* fixes a case order (always starting with the no-error
case "I"), Gram-Schmidt-orthogonalises the corresponding error words of the
two logical branches against everything already detectable, and synthesises
one detection block per case that still carries new weight.  Cases whose
error words are already inside the detected span (e.g. the z-linear words,
which are identical on all three qudits) are *absorbed*: they execute no
pulses and their errors fire at the earlier case that covers them.

A sweep is computed from projections, not by running pulses: each emitted
block maps its Gram-Schmidt pair (p0, p1) onto ``ph |t0>``, ``ph |t1>`` with
the ancilla raised (``validate_block`` certifies this) and its recovery
undoes all but the excitation, so a passed case leaves ``(1 - P_case) psi``.
With the pairs orthonormal across cases, the outcome distribution is one
product of the plan's stacked, conjugated pairs with the register, and the
records are built from it in one pass.  Pulses certify the blocks and count
the budgets; sampling is an inverse-CDF draw identical to ``Generator.choice``.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate

import numpy as np

from .blocks import detection_block, enc_block, entangle_block, psi_encoded, \
    recovery_gates
from .codewords import _LINEAR, _QUADRATIC, make_codeword
from .linalg import NumericalError, PreconditionError
from .register import QUDIT_NAMES, QuditRegister, apply_error, apply_on_axis, \
    single_qudit_error

GS_CUTOFF = 1e-12

#: first-order error weight per storage interval used by the break-even model
DEFAULT_ERROR_BUDGET = 0.017

_Z_BIASED = ("Z", "ZZ", "ZX", "YZ")


def _case_order(*op_lists):
    """"I", then each op list's errors on qudits A, B and C in turn."""
    return ("I",) + tuple(f"{op}@{q}" for ops in op_lists for q in "ABC" for op in ops)


def full_order():
    """All 28 cases: "I", linear errors per qudit, then quadratics per qudit."""
    return _case_order(_LINEAR, _QUADRATIC)


def z_biased_order():
    """13 cases: "I" plus the z-involving errors per qudit."""
    return _case_order(_Z_BIASED)


@dataclass(frozen=True)
class PlanCase:
    """One case of a detection plan (absorbed when ``block`` is None)."""

    label: str
    block: object = None
    detect_pulses: int = 0
    recover_pulses: int = 0

    @property
    def absorbed(self):
        return self.block is None


@dataclass(frozen=True)
class DetectionPlan:
    """Cases of one order plus the stacked pairs that sweeps project onto.

    ``projector`` holds the m emitted cases' conjugated p0 rows, then their
    p1 rows (read-only, 2m x 512); ``phases`` their blocks' target phases.
    """

    order: tuple
    cases: tuple
    projector: np.ndarray = field(compare=False)
    phases: np.ndarray = field(compare=False)
    emitted: tuple = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "emitted",
                           tuple(c for c in self.cases if not c.absorbed))


def build_detection_plan(order=None):
    """The cached plan for ``order``, any label sequence; None is :func:`full_order`."""
    return _build_plan(full_order() if order is None else tuple(order))


@lru_cache(maxsize=8)
def _build_plan(order):
    """Synthesise the detection blocks for a tuple of case labels.

    Error words contract each case's 8 x 8 operator with one qudit axis of
    the code words, never a dense 512 x 512 operator.
    """
    if not order or order[0] != "I":
        raise PreconditionError("a detection order must start with case 'I'")
    if len(set(order)) != len(order):
        raise PreconditionError("duplicate case labels in the detection order")
    unknown = [l for l in order if l not in full_order()]
    if unknown:
        raise PreconditionError(f"unknown case labels {unknown}")

    word = make_codeword("three-qudit")
    words = (word.zero_l, word.one_l)
    bases = ([], [])  # orthonormal detection words emitted so far, per branch
    cases = []
    for label in order:
        if label == "I":
            vs = list(words)
        else:
            name, qudit = label.split("@")
            op, axis = single_qudit_error(name), QUDIT_NAMES[qudit]
            vs = [apply_on_axis(op, w.reshape(8, 8, 8), axis).ravel() for w in words]
        # branch 0's error words hold two equal even levels among A, B and C, branch
        # 1's two equal odd ones, so no projection crosses branches
        for k, basis in enumerate(bases):
            for q in basis:
                vs[k] = vs[k] - q * np.vdot(q, vs[k])
        n0, n1 = (float(np.linalg.norm(v)) for v in vs)
        if n0 < GS_CUTOFF and n1 < GS_CUTOFF:
            cases.append(PlanCase(label))
            continue
        if abs(n0 - n1) > 1e-9 * max(n0, n1):  # also one branch absorbed alone
            raise NumericalError(f"case {label}: branch norms split ({n0} vs {n1})")
        pair = (vs[0] / n0, vs[1] / n1)
        block = detection_block(label, *pair)
        recover = len(recovery_gates(block))
        cases.append(PlanCase(label, block, block.pulse_count, recover))
        for basis, p in zip(bases, pair):
            basis.append(p)
    projector = np.array(bases[0] + bases[1])
    np.conjugate(projector, out=projector)
    phases = np.array([c.block.phase for c in cases if not c.absorbed])
    projector.setflags(write=False)
    phases.setflags(write=False)
    return DetectionPlan(order, tuple(cases), projector, phases)


build_detection_plan.cache_info = _build_plan.cache_info
build_detection_plan.cache_clear = _build_plan.cache_clear


# ---------------------------------------------------------------------------
# running a plan
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SyndromeRecord:
    """One possible outcome of a detection sweep.

    ``detected_case`` is None when the sweep exhausted every case without a
    detection (an uncorrectable residual).  ``ancilla_outcomes`` lists the
    ancilla readings of the executed (non-absorbed) cases, in order.
    ``recovered_amplitudes`` is the unit qubit left on the two detection
    targets, up to a global phase; ``logical_fidelity`` compares it with the
    reference qubit (0.0 for uncorrectable outcomes).
    """

    detected_case: object
    ancilla_outcomes: tuple
    probability: float
    recovered_amplitudes: object
    logical_fidelity: float


def detection_records(reg, order, reference):
    """Exact outcome distribution of one full detection sweep.

    ``order`` is any label sequence (None is :func:`full_order`); a record's
    fidelity compares its recovered qubit with the qubit ``reference``.  One
    product ``c = plan.projector @ data`` of the ancilla-0 amplitudes gives
    case k's amplitudes ``ph * c[k]`` and ``ph * c[m + k]``; the residual
    ``data - P data`` is what no case detects.  The records come from one
    Python pass over those m pairs: a case is recorded when its weight
    relative to the surviving state exceeds 1e-24; the sweep stops once the
    surviving fraction drops below 1e-15.  The register is left untouched;
    probabilities sum to one, with an uncorrectable record for any weight
    outside the detectable span.
    """
    plan = build_detection_plan(order)
    if not abs(reg.norm() - 1.0) <= 1e-8:  # NaN fails too
        raise PreconditionError("register state must be normalised")
    pairs = reg.amp.reshape(512, 2)
    anc = pairs[:, 1]
    # max|a|^2 <= sum |a|^2, so a sum of squares up to half of 1e-10 squared
    # passes at once; any other sum, NaN included, takes the exact test
    if not (np.vdot(anc, anc).real <= 0.5e-20 or np.max(np.abs(anc)) <= 1e-10):
        raise PreconditionError("a sweep needs the ancilla empty")
    data = pairs[:, 0]
    c = plan.projector @ data
    resid = data - (c.conj() @ plan.projector).conj()
    rest = float(np.vdot(resid, resid).real)
    amps = (plan.phases * c.reshape(2, -1)).T.tolist()  # case k: (a0, a1)
    cap = [abs(a0) ** 2 + abs(a1) ** 2 for a0, a1 in amps]
    m = len(cap)
    # surviving weight before each emitted case, and after the last one
    survival = [rest + t for t in accumulate(reversed(cap), initial=0.0)][::-1]
    r0, r1 = (complex(z).conjugate() for z in reference)
    emitted = plan.emitted
    records = []
    for k in range(m):
        w = cap[k]
        if w > 1e-24 * survival[k]:
            a0, a1 = amps[k]
            norm = math.sqrt(w)
            rec = (a0 / norm, a1 / norm)
            fid = abs(r0 * rec[0] + r1 * rec[1]) ** 2
            records.append(SyndromeRecord(emitted[k].label, (0,) * k + (1,), w, rec, fid))
        if survival[k + 1] < 1e-15 * survival[k]:
            return tuple(records)
    if rest > 1e-12:
        records.append(SyndromeRecord(None, (0,) * m, rest, None, 0.0))
    return tuple(records)


def sample_records(records, n_samples, rng=None):
    """Draw trajectory outcomes from an exact record distribution by the
    inverse-CDF steps of ``Generator.choice(p=...)``: the same draws.  ``rng``
    is None, a Generator or a seed >= 0."""
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 0:
        raise PreconditionError(f"n_samples {n_samples!r} is not a count")
    if isinstance(rng, (int, np.integer)) and rng < 0:
        raise PreconditionError(f"seed {rng!r} is not a non-negative integer")
    probs = np.array([r.probability for r in records], dtype=float)
    if not (probs >= 0.0).all():  # NaN fails too; inf fails the sum below
        raise PreconditionError(f"outcome probabilities {probs} must be >= 0")
    total = float(probs.sum())
    if not abs(total - 1.0) < 1e-9:
        raise PreconditionError(f"outcome probabilities sum to {total}, not one")
    cdf = np.cumsum(probs / total)
    cdf /= cdf[-1]
    draws = np.random.default_rng(rng).random(int(n_samples))
    return [records[i] for i in cdf.searchsorted(draws, side="right").tolist()]


def case_weights(records):
    """Probability per detected case ("none" for the uncorrectable rest)."""
    out = {}
    for r in records:
        key = r.detected_case if r.detected_case is not None else "none"
        out[key] = out.get(key, 0.0) + r.probability
    return out


def run_detection(alpha, beta, error=None, order=None):
    """Encode a qubit, optionally inject one error, and run a sweep.

    ``error`` is None or a (label, qudit) pair such as ("XX", "B").
    Returns (records, error_weight): the exact :func:`detection_records`
    and the squared norm of the raw error word (None when no error was
    injected).  :func:`sample_records` draws trajectories from the records.
    """
    reg = QuditRegister(psi_encoded(alpha, beta))
    weight = None
    if error is not None:
        label, qudit = error
        reg, weight = apply_error(reg, label, qudit)
    return detection_records(reg, order, (alpha, beta)), weight


# ---------------------------------------------------------------------------
# budgets
# ---------------------------------------------------------------------------

def pulse_budget(order=None):
    """Pulse inventory of one full no-detection sweep.

    Each emitted case contributes its detection pulses plus the exact
    inversion that restores the register after an outcome-0 measurement;
    absorbed cases contribute nothing.  Encoding pulses are reported
    separately and are not part of ``total``.
    """
    plan = build_detection_plan(order)
    per_case = {c.label: {"detect": c.detect_pulses, "recover": c.recover_pulses,
                          "absorbed": c.absorbed} for c in plan.cases}
    total = sum(c.detect_pulses + c.recover_pulses for c in plan.cases)
    encode = enc_block().pulse_count + entangle_block().pulse_count
    return {"order": plan.order, "total": total, "encode": encode,
            "cases": per_case}


def fidelity_threshold(pulse_count, error_budget=DEFAULT_ERROR_BUDGET):
    """Break-even single-pulse infidelity for a decode sequence.

    Solves (1 - q) ** pulse_count = 1 - error_budget: a sweep of
    ``pulse_count`` pulses, each failing with probability q, breaks even
    with the bare-memory error weight the cycle removes per storage
    interval.  Pulses better than the returned q make the protected memory
    win.
    """
    if pulse_count <= 0:
        raise PreconditionError("pulse_count must be positive")
    if not 0.0 < error_budget < 1.0:
        raise PreconditionError("error_budget must lie in (0, 1)")
    return 1.0 - (1.0 - error_budget) ** (1.0 / float(pulse_count))

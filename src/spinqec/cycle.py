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


def full_order():
    """All 28 cases: "I", linear errors per qudit, then quadratics per qudit."""
    order = ["I"]
    for q in "ABC":
        order += [f"{op}@{q}" for op in _LINEAR]
    for q in "ABC":
        order += [f"{op}@{q}" for op in _QUADRATIC]
    return tuple(order)


def z_biased_order():
    """13 cases: "I" plus the z-involving errors per qudit."""
    order = ["I"]
    for q in "ABC":
        order += [f"{op}@{q}" for op in _Z_BIASED]
    return tuple(order)


@dataclass(frozen=True)
class PlanCase:
    """One case of a detection plan (absorbed when ``block`` is None)."""

    label: str
    index: int
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

    @property
    def absorbed_labels(self):
        return tuple(c.label for c in self.cases if c.absorbed)

    def case(self, label):
        for c in self.cases:
            if c.label == label:
                return c
        raise PreconditionError(f"no case {label!r} in this plan")


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
    basis0 = []  # orthonormal branch-0 detection words emitted so far
    basis1 = []
    cases = []
    for idx, label in enumerate(order):
        if label == "I":
            v0, v1 = word.zero_l, word.one_l
        else:
            name, qudit = label.split("@")
            op = single_qudit_error(name)
            axis = QUDIT_NAMES[qudit]
            v0 = apply_on_axis(op, word.zero_l.reshape(8, 8, 8), axis).ravel()
            v1 = apply_on_axis(op, word.one_l.reshape(8, 8, 8), axis).ravel()
        raw = max(float(np.linalg.norm(v0)), 1.0)
        # the two branches live in disjoint parity sectors, so cross-branch
        # projections vanish identically
        if any(abs(np.vdot(q, v0)) >= 1e-9 * raw for q in basis1) or \
                any(abs(np.vdot(q, v1)) >= 1e-9 * raw for q in basis0):
            raise NumericalError(f"case {label}: branches overlap")
        for q0, q1 in zip(basis0, basis1):
            v0 = v0 - q0 * np.vdot(q0, v0)
            v1 = v1 - q1 * np.vdot(q1, v1)
        n0, n1 = float(np.linalg.norm(v0)), float(np.linalg.norm(v1))
        if n0 < GS_CUTOFF and n1 < GS_CUTOFF:
            cases.append(PlanCase(label, idx))
            continue
        if abs(n0 - n1) > 1e-9 * max(n0, n1):  # also one branch absorbed alone
            raise NumericalError(f"case {label}: branch norms split ({n0} vs {n1})")
        p0, p1 = v0 / n0, v1 / n1
        if abs(np.vdot(p0, p1)) >= 1e-10:
            raise NumericalError(f"case {label}: branch words not orthogonal")
        block = detection_block(label, p0, p1)
        recover = len(recovery_gates(block))
        cases.append(PlanCase(label, idx, block, block.pulse_count, recover))
        basis0.append(p0)
        basis1.append(p1)
    projector = np.array(basis0 + basis1)
    np.conjugate(projector, out=projector)
    phases = np.array([c.block.meta["phase"] for c in cases if not c.absorbed])
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
    reference qubit when one was supplied (0.0 for uncorrectable outcomes).
    """

    detected_case: object
    case_index: object
    ancilla_outcomes: tuple
    probability: float
    recovered_amplitudes: object
    logical_fidelity: object


def detection_records(reg, order=None, reference=None):
    """Exact outcome distribution of one full detection sweep.

    One product ``c = plan.projector @ data`` of the ancilla-0 amplitudes
    gives case k's amplitudes ``ph * c[k]`` and ``ph * c[m + k]``; the
    residual ``data - P data`` is what no case detects.  The records come
    from one Python pass over those m pairs: a case is recorded when its
    weight relative to the surviving state exceeds 1e-24; the sweep stops
    once the surviving fraction drops below 1e-15.  The register is left
    untouched; probabilities sum to one, with an uncorrectable record for
    any weight outside the detectable span.
    """
    plan = build_detection_plan(order)
    if not abs(reg.norm() - 1.0) <= 1e-8:  # NaN fails too
        raise PreconditionError("register state must be normalised")
    pairs = reg.amp.reshape(512, 2)
    if not np.max(np.abs(pairs[:, 1])) <= 1e-10:
        raise PreconditionError("a sweep needs the ancilla empty")
    data = pairs[:, 0]
    c = plan.projector @ data
    resid = data - (c.conj() @ plan.projector).conj()
    rest = float(np.vdot(resid, resid).real)
    amps = (plan.phases * c.reshape(2, -1)).T.tolist()  # case k: (a0, a1)
    cap = [abs(a0) ** 2 + abs(a1) ** 2 for a0, a1 in amps]
    # surviving weight before each emitted case, and after the last one
    survival = [rest + t for t in accumulate(reversed(cap), initial=0.0)][::-1]
    ref = None if reference is None else [complex(z).conjugate() for z in reference]
    records = []
    for k, (case, (a0, a1), w) in enumerate(zip(plan.emitted, amps, cap)):
        if w > 1e-24 * survival[k]:
            rec = (a0 / math.sqrt(w), a1 / math.sqrt(w))
            fid = None if ref is None else abs(ref[0] * rec[0] + ref[1] * rec[1]) ** 2
            records.append(SyndromeRecord(case.label, case.index,
                                          (0,) * k + (1,), w, rec, fid))
        if survival[k + 1] < 1e-15 * survival[k]:
            return tuple(records)
    if rest > 1e-12:
        records.append(SyndromeRecord(
            None, None, (0,) * len(cap), rest, None,
            0.0 if reference is not None else None))
    return tuple(records)


def sample_records(records, n_samples, rng=None):
    """Draw trajectory outcomes from an exact record distribution by the
    inverse-CDF steps of ``Generator.choice(p=...)``: the same draws."""
    if not isinstance(n_samples, (int, np.integer)) or n_samples < 0:
        raise PreconditionError(f"n_samples {n_samples!r} is not a count")
    probs = np.array([r.probability for r in records], dtype=float)
    if not np.all(probs >= 0.0):  # NaN fails too; inf fails the sum below
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
    return detection_records(reg, order, reference=(alpha, beta)), weight


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

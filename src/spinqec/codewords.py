"""Code-word families on large spins and Knill-Laflamme residual checks.

Families
--------
``ideal-7/2`` / ``distorted-7/2``
    Two-level code on a spin 7/2: mixing angle theta0 = arccos(sqrt(3/10)),
    branch supports {-7/2, +3/2} and {+7/2, -3/2} (stretched term of the
    second word carries a minus sign).  The distorted variant offsets the
    two branch angles by independent corrections (eps1, eps2).
``ideal-9/2`` / ``tailored-9/2``
    Same construction on spin 9/2 with theta0 = pi/3, supports
    {-9/2, +3/2} / {+9/2, -3/2}, no minus sign.
``spin-23/2``
    Three-component words on a single spin 23/2 correcting the full
    first-order electron-bath error set.
``three-qudit``
    Repetition-style words across three spin-7/2 qudits,
    |m>_ABC = |m>|m>|m>.

Each family can be realised over the ideal basis (bare |m> states) or, for
the spin-7/2 and 9/2 families, over the dressed eigenstates of a coupled
electron-nuclear system in the m_S = -1/2 manifold.
"""

from dataclasses import dataclass
from functools import lru_cache
from types import MappingProxyType

import numpy as np

from .linalg import PreconditionError, kron, kron_all
from .spin import manifold_states, spin_operators

THETA0_72 = float(np.arccos(np.sqrt(3.0 / 10.0)))
THETA0_92 = float(np.arccos(0.5))

#: spin-23/2 word amplitudes: (level m, amplitude) per branch
SPIN232_ZERO = ((-11.5, np.sqrt(125.0 / 1482.0)),
                (-2.5, np.sqrt(874.0 / 1482.0)),
                (7.5, np.sqrt(483.0 / 1482.0)))
SPIN232_ONE = ((11.5, -np.sqrt(125.0 / 1482.0)),
               (2.5, np.sqrt(874.0 / 1482.0)),
               (-7.5, np.sqrt(483.0 / 1482.0)))

#: three-qudit word amplitudes: (level index 0..7, amplitude) per branch
THREEQ_ZERO = ((0, np.sqrt(2.0 / 16.0)),
               (2, np.sqrt(7.0 / 16.0)),
               (6, np.sqrt(7.0 / 16.0)))
THREEQ_ONE = ((7, np.sqrt(2.0 / 16.0)),
              (5, np.sqrt(7.0 / 16.0)),
              (1, -np.sqrt(7.0 / 16.0)))

FAMILIES = ("ideal-7/2", "distorted-7/2", "ideal-9/2", "tailored-9/2",
            "spin-23/2", "three-qudit")

_TWO_LEVEL = {
    # family: (nuclear spin, theta0, support0, support1, sign of stretched |1>)
    "ideal-7/2": (3.5, THETA0_72, (-3.5, 1.5), (3.5, -1.5), -1.0),
    "distorted-7/2": (3.5, THETA0_72, (-3.5, 1.5), (3.5, -1.5), -1.0),
    "ideal-9/2": (4.5, THETA0_92, (-4.5, 1.5), (4.5, -1.5), +1.0),
    "tailored-9/2": (4.5, THETA0_92, (-4.5, 1.5), (4.5, -1.5), +1.0),
}


@dataclass(frozen=True)
class CodeWord:
    """A logical qubit: two orthonormal word vectors over some basis."""

    family: str
    basis: str
    zero_l: np.ndarray
    one_l: np.ndarray
    theta0: float = 0.0
    eps1: float = 0.0
    eps2: float = 0.0

    def __post_init__(self):
        n0 = np.linalg.norm(self.zero_l)
        n1 = np.linalg.norm(self.one_l)
        overlap = abs(np.vdot(self.zero_l, self.one_l))
        if not (abs(n0 - 1.0) < 1e-12 and abs(n1 - 1.0) < 1e-12 and overlap < 1e-12):
            raise PreconditionError("code words are not orthonormal")


def _levels_to_vector(dim_n, pairs, index_of):
    v = np.zeros(dim_n, dtype=np.complex128)
    for m, amp in pairs:
        v[index_of(m)] = amp
    return v


def _two_level_pairs(theta0, support0, support1, sign1, eps1, eps2):
    t1 = theta0 + eps1
    t2 = theta0 + eps2
    pairs0 = ((support0[0], np.cos(t1)), (support0[1], np.sin(t1)))
    pairs1 = ((support1[0], sign1 * np.cos(t2)), (support1[1], np.sin(t2)))
    return pairs0, pairs1


def make_codeword(family, system=None, b_field=None, eps1=0.0, eps2=0.0):
    """Construct a :class:`CodeWord`.

    Parameters
    ----------
    family : str
        One of :data:`FAMILIES`.
    system, b_field : SpinSystem, float, optional
        If both given (two-level families only), the words are built from the
        dressed m_S = -1/2 eigenstates of that system at that field and live
        on the full electron-nuclear space.  Otherwise the ideal |m> basis.
    eps1, eps2 : float
        Branch-angle corrections; only meaningful for ``distorted-7/2`` and
        ``tailored-9/2`` (the ideal families pin them to zero).
    """
    if family not in FAMILIES:
        raise PreconditionError(f"unknown family {family!r}; choose from {FAMILIES}")
    if family in ("ideal-7/2", "ideal-9/2") and (eps1 != 0.0 or eps2 != 0.0):
        raise PreconditionError(f"{family} does not take angle corrections")

    if family == "spin-23/2":
        if system is not None:
            raise PreconditionError("spin-23/2 words exist on the ideal basis only")
        dim = 24
        idx = lambda m: round(m + 11.5)  # noqa: E731
        zero = _levels_to_vector(dim, SPIN232_ZERO, idx)
        one = _levels_to_vector(dim, SPIN232_ONE, idx)
        return CodeWord(family, "ideal", zero, one)

    if family == "three-qudit":
        if system is not None:
            raise PreconditionError("three-qudit words exist on the ideal basis only")
        zero = np.zeros(512, dtype=np.complex128)
        one = np.zeros(512, dtype=np.complex128)
        for lvl, amp in THREEQ_ZERO:
            zero[lvl * 64 + lvl * 8 + lvl] = amp
        for lvl, amp in THREEQ_ONE:
            one[lvl * 64 + lvl * 8 + lvl] = amp
        return CodeWord(family, "ideal", zero, one)

    spin_i, theta0, sup0, sup1, sign1 = _TWO_LEVEL[family]
    if system is None and b_field is None:
        pairs0, pairs1 = _two_level_pairs(theta0, sup0, sup1, sign1, eps1, eps2)
        dim = round(2 * spin_i) + 1
        idx = lambda m: round(m + spin_i)  # noqa: E731
        zero = _levels_to_vector(dim, pairs0, idx)
        one = _levels_to_vector(dim, pairs1, idx)
        return CodeWord(family, "ideal", zero, one, theta0, eps1, eps2)

    if system is None or b_field is None:
        raise PreconditionError("dressed words need both system and b_field")
    if abs(system.i - spin_i) > 1e-9:
        raise PreconditionError(
            f"{family} needs a nuclear spin {spin_i}, system has I={system.i}"
        )
    return dressed_word(family, system, b_field,
                        manifold_states(system, b_field, m_s=-0.5), eps1, eps2)


def dressed_word(family, system, b_field, manifold, eps1, eps2):
    """A two-level family's words from its dressed m_S = -1/2 states.

    ``manifold`` is ``manifold_states(system, b_field, m_s=-0.5)``, passed in
    so that a caller holding it skips the labelled eigensolve.
    """
    _, theta0, sup0, sup1, sign1 = _TWO_LEVEL[family]
    pairs0, pairs1 = _two_level_pairs(theta0, sup0, sup1, sign1, eps1, eps2)
    zero = np.zeros(system.dim, dtype=np.complex128)
    one = np.zeros(system.dim, dtype=np.complex128)
    for m, amp in pairs0:
        zero += amp * manifold[m].vector
    for m, amp in pairs1:
        one += amp * manifold[m].vector
    basis = f"dressed({system.name}, B={float(b_field):g} T)"
    return CodeWord(family, basis, zero, one, theta0, eps1, eps2)


# ---------------------------------------------------------------------------
# error sets
# ---------------------------------------------------------------------------

ERROR_SET_KINDS = ("firstorder-B", "firstorder-EB", "multiqudit")

_LINEAR = ("X", "Y", "Z")
_QUADRATIC = ("XX", "YY", "ZZ", "XY", "YZ", "ZX")


@dataclass(frozen=True)
class ErrorSet:
    """A labelled list of error operators sharing one Hilbert space."""

    kind: str
    labels: tuple
    ops: tuple  # of ndarray

    def __len__(self):
        return len(self.ops)

    def as_dict(self):
        return dict(zip(self.labels, self.ops))


@lru_cache(maxsize=None)
def _single_spin_table(j):
    jx, jy, jz = spin_operators(j)
    ops = {"I": np.eye(round(2 * j) + 1, dtype=np.complex128),
           "X": jx, "Y": jy, "Z": jz,
           "XX": jx @ jx, "YY": jy @ jy, "ZZ": jz @ jz,
           "XY": (jx @ jy + jy @ jx) / 2.0,
           "YZ": (jy @ jz + jz @ jy) / 2.0,
           "ZX": (jz @ jx + jx @ jz) / 2.0}
    for op in ops.values():
        op.setflags(write=False)
    return MappingProxyType(ops)


def embed_on_qudit(op, qudit, n_qudits=3):
    """Dense embedding of ``op`` on one qudit of a chain (a test reference)."""
    eye = np.eye(op.shape[0], dtype=np.complex128)
    return kron_all(op if k == qudit else eye for k in range(n_qudits))


def standard_error_sets(kind, j=None):
    """Build one of the standard error sets.

    * ``firstorder-B``: identity + the three linear spin operators (needs j).
    * ``firstorder-EB``: as above plus the six second-order operators
      (squares and symmetrised cross products) -- ten operators (needs j).
    * ``multiqudit``: shared identity + the nine non-identity first-order
      electron-bath operators embedded on each of three spin-7/2 qudits
      (28 dense 512 x 512 operators: a test reference, no runtime path).
    """
    if kind not in ERROR_SET_KINDS:
        raise PreconditionError(f"unknown error-set kind {kind!r}")
    if kind in ("firstorder-B", "firstorder-EB"):
        if j is None:
            raise PreconditionError(f"{kind} needs the spin quantum number j")
        table = _single_spin_table(j)
        labels = ("I",) + _LINEAR
        if kind == "firstorder-EB":
            labels = labels + _QUADRATIC
        return ErrorSet(kind, labels, tuple(table[l] for l in labels))
    # multiqudit: three spin-7/2 qudits
    table = _single_spin_table(3.5)
    labels = ["I"]
    ops = [np.eye(512, dtype=np.complex128)]
    for qudit, tag in enumerate("ABC"):
        for l in _LINEAR + _QUADRATIC:
            labels.append(f"{l}@{tag}")
            ops.append(embed_on_qudit(table[l], qudit))
    return ErrorSet(kind, tuple(labels), tuple(ops))


def lift_to_electron_nuclear(errors, system):
    """Lift nuclear-spin error operators to the full electron-nuclear space.

    Error operators act on the bare nuclear spin; on a dressed code space
    they appear as 1_e (x) op.
    """
    eye_e = np.eye(system.dim_e, dtype=np.complex128)
    ops = tuple(kron(eye_e, op) for op in errors.ops)
    return ErrorSet(errors.kind, errors.labels, ops)


# ---------------------------------------------------------------------------
# Knill-Laflamme residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KLReport:
    """Knill-Laflamme residual matrices for one code word + error set.

    offdiag[i, j]  = | <0_L| A_i^dag A_j |1_L> |
    diagdiff[i, j] = | <0_L| A_i^dag A_j |0_L> - <1_L| A_i^dag A_j |1_L> |
    """

    labels: tuple
    offdiag: np.ndarray
    diagdiff: np.ndarray
    max_residual: float


def kl_residuals(codeword, errors):
    """Evaluate the Knill-Laflamme conditions for ``codeword`` / ``errors``.

    The images A_i |word> are the rows of M0 and M1, so the residuals are the
    Gram products |M0^* M1^T| and |M0^* M0^T - M1^* M1^T|; the test suite
    cross-checks them against a naive loop over full operator products.
    """
    dim = codeword.zero_l.shape[0]
    for op in errors.ops:
        if op.shape != (dim, dim):
            raise PreconditionError(
                f"operator shape {op.shape} does not match word dimension {dim}"
            )
    m0 = np.array([op @ codeword.zero_l for op in errors.ops])
    m1 = np.array([op @ codeword.one_l for op in errors.ops])
    offdiag = np.abs(m0.conj() @ m1.T)
    diagdiff = np.abs(m0.conj() @ m0.T - m1.conj() @ m1.T)
    return KLReport(errors.labels, offdiag, diagdiff,
                    float(max(offdiag.max(), diagdiff.max())))


def expectation(codeword, op):
    """(<0_L|op|0_L>, <1_L|op|1_L>) for a single operator."""
    return (complex(np.vdot(codeword.zero_l, op @ codeword.zero_l)),
            complex(np.vdot(codeword.one_l, op @ codeword.one_l)))


def offdiag_element(codeword, op):
    """<0_L| op |1_L> for a single operator."""
    return complex(np.vdot(codeword.zero_l, op @ codeword.one_l))

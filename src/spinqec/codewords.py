"""Code-word families on large spins and Knill-Laflamme residual checks.

Every family is declared once.  :data:`SPIN_ROWS` has one row per two-level
nuclear spin: mixing angle theta0, branch supports, the sign of the stretched
|1_L> term, and its ideal and branch-angle families; the latter offsets the two
branch angles by independent corrections (eps1, eps2).  Spin 7/2 has
``ideal-7/2`` / ``distorted-7/2`` (theta0 = arccos(sqrt(3/10)), signed), spin
9/2 ``ideal-9/2`` / ``tailored-9/2`` (theta0 = pi/3).  These words live on the
ideal basis (bare |m> states) or on the dressed m_S = -1/2 eigenstates of a
coupled electron-nuclear system, and one route builds both: each word is the
sum of amplitude * vector(m) over its branch supports, the vectors being the
unit vectors e_{m+I} or the dressed states.  ``spin-23/2`` (three-component
words on one spin 23/2 correcting the full first-order electron-bath error
set) and ``three-qudit`` (|m>_ABC = |m>|m>|m> across three spin-7/2 qudits)
exist on the ideal basis only, as rows of one (dim, entries) table.
"""

from dataclasses import dataclass
from functools import lru_cache, reduce
from types import MappingProxyType

import numpy as np

from .linalg import PreconditionError, kron, require_finite
from .spin import manifold_states, spin_operators

THETA0_72 = float(np.arccos(np.sqrt(3.0 / 10.0)))
THETA0_92 = float(np.arccos(0.5))

#: One row per two-level nuclear spin: (nuclear spin, theta0, support0, support1,
#: sign of the stretched |1_L> term, ideal family, branch-angle family)
SPIN_ROWS = (
    (3.5, THETA0_72, (-3.5, 1.5), (3.5, -1.5), -1.0, "ideal-7/2", "distorted-7/2"),
    (4.5, THETA0_92, (-4.5, 1.5), (4.5, -1.5), +1.0, "ideal-9/2", "tailored-9/2"),
)

#: two-level family -> (nuclear spin, theta0, support0, support1, sign), per spin row
_TWO_LEVEL = {family: row[:5] for row in SPIN_ROWS for family in row[5:]}

#: three-qudit word amplitudes: (level index 0..7, amplitude) per branch
THREEQ_ZERO = ((0, np.sqrt(2.0 / 16.0)),
               (2, np.sqrt(7.0 / 16.0)),
               (6, np.sqrt(7.0 / 16.0)))
THREEQ_ONE = ((7, np.sqrt(2.0 / 16.0)),
              (5, np.sqrt(7.0 / 16.0)),
              (1, -np.sqrt(7.0 / 16.0)))

#: The families whose words exist on the ideal basis only: family -> (dim,
#: |0_L> entries, |1_L> entries), an entry being (basis index, amplitude).
_IDEAL_ONLY = {
    # |0_L> on m = -23/2, -5/2, +15/2 and |1_L> on m = +23/2, +5/2, -15/2
    "spin-23/2": (24, ((0, np.sqrt(125.0 / 1482.0)), (9, np.sqrt(874.0 / 1482.0)),
                       (19, np.sqrt(483.0 / 1482.0))),
                  ((23, -np.sqrt(125.0 / 1482.0)), (14, np.sqrt(874.0 / 1482.0)),
                   (4, np.sqrt(483.0 / 1482.0)))),
    # |m>_A |m>_B |m>_C sits at index 64 m + 8 m + m
    "three-qudit": (512, *(tuple((73 * lvl, amp) for lvl, amp in word)
                           for word in (THREEQ_ZERO, THREEQ_ONE))),
}

FAMILIES = (*_TWO_LEVEL, *_IDEAL_ONLY)


@dataclass(frozen=True)
class CodeWord:
    """A logical qubit: two orthonormal word vectors over some basis."""

    zero_l: np.ndarray
    one_l: np.ndarray

    def __post_init__(self):
        n0 = np.linalg.norm(self.zero_l)
        n1 = np.linalg.norm(self.one_l)
        overlap = abs(np.vdot(self.zero_l, self.one_l))
        if not (abs(n0 - 1.0) < 1e-12 and abs(n1 - 1.0) < 1e-12 and overlap < 1e-12):
            raise PreconditionError("code words are not orthonormal")


def _vector(dim, entries):
    v = np.zeros(dim, dtype=np.complex128)
    for index, amp in entries:
        v[index] = amp
    return v


def branch_amplitudes(family, eps1, eps2):
    """A two-level family's word coefficients (cos t1, sin t1, sign cos t2, sin t2).

    t_k = theta0 + eps_k; the first two weigh support0 in |0_L>, the last two
    support1 in |1_L>, with the sign of the stretched |1_L> term.  eps1 and
    eps2 broadcast.
    """
    _, theta0, _, _, sign1 = _TWO_LEVEL[family]
    t1, t2 = theta0 + eps1, theta0 + eps2
    return np.cos(t1), np.sin(t1), sign1 * np.cos(t2), np.sin(t2)


def spin_families(spin_i):
    """The (ideal, branch-angle) families of nuclear spin ``spin_i``; () if it has none."""
    return next((row[5:] for row in SPIN_ROWS if abs(spin_i - row[0]) < 1e-9), ())


def default_family(spin_i, distorted=True):
    """The code family for nuclear spin ``spin_i`` when none is named.

    ``distorted`` picks the branch-angle family (``distorted-7/2`` /
    ``tailored-9/2``) over the ideal one.  A spin without a row of
    :data:`SPIN_ROWS` raises :class:`PreconditionError`.
    """
    families = spin_families(spin_i)
    if not families:
        raise PreconditionError(f"no default code family for I={spin_i}; pass a family")
    return families[1] if distorted else families[0]


def check_nuclear_spin(family, system):
    """Refuse a ``system`` whose nuclear spin is not the two-level ``family``'s."""
    if family not in spin_families(system.i):
        raise PreconditionError(f"{family} needs a nuclear spin {_TWO_LEVEL[family][0]}, "
                                f"system has I={system.i}")


def make_codeword(family, system=None, b_field=None, eps1=0.0, eps2=0.0):
    """Construct a :class:`CodeWord`.

    Parameters
    ----------
    family : str
        One of :data:`FAMILIES`.
    system, b_field : SpinSystem, float, optional
        If both given (two-level families only), the words are built from the
        dressed m_S = -1/2 eigenstates of that system at that field and live
        on the full electron-nuclear space.  With neither, the ideal |m> basis.
    eps1, eps2 : float
        Branch-angle corrections; only the branch-angle families of
        :data:`SPIN_ROWS` take them.

    Angle corrections for any other family, a NaN or infinite angle, and a
    system or a field for an ideal-basis-only family, raise
    :class:`PreconditionError`.
    """
    if family not in FAMILIES:
        raise PreconditionError(f"unknown family {family!r}; choose from {FAMILIES}")
    require_finite(eps1=eps1, eps2=eps2)
    if family not in (row[6] for row in SPIN_ROWS) and (eps1 != 0.0 or eps2 != 0.0):
        raise PreconditionError(f"{family} does not take angle corrections")
    if family in _IDEAL_ONLY and (system is not None or b_field is not None):
        raise PreconditionError(f"{family} words exist on the ideal basis only")

    if system is None and b_field is None:
        if family in _IDEAL_ONLY:
            dim, word0, word1 = _IDEAL_ONLY[family]
            return CodeWord(_vector(dim, word0), _vector(dim, word1))
        spin_i = _TWO_LEVEL[family][0]
        eye = _single_spin_table(spin_i)["I"]  # e_k: row k of the cached identity
        return _two_level_word(family, lambda m: eye[round(m + spin_i)], eps1, eps2)
    if system is None or b_field is None:
        raise PreconditionError("dressed words need both system and b_field")
    check_nuclear_spin(family, system)
    return dressed_word(family, manifold_states(system, b_field), eps1, eps2)


def dressed_word(family, manifold, eps1, eps2):
    """A two-level family's words from its dressed m_S = -1/2 states.

    ``manifold`` is ``manifold_states(system, b_field)``, passed in so that a
    caller holding it skips the labelled eigensolve.
    """
    return _two_level_word(family, lambda m: manifold[m].vector, eps1, eps2)


def _two_level_word(family, vector, eps1, eps2):
    """The :class:`CodeWord` with |0_L> and |1_L> the sums of amplitude * ``vector(m)``
    over the two branch supports, the amplitudes from :func:`branch_amplitudes`."""
    _, _, sup0, sup1, _ = _TWO_LEVEL[family]
    c1, s1, c2, s2 = branch_amplitudes(family, eps1, eps2)
    zero, one = (sum(amp * vector(m) for m, amp in zip(sup, amps))
                 for sup, amps in ((sup0, (c1, s1)), (sup1, (c2, s2))))
    return CodeWord(zero, one)


# ---------------------------------------------------------------------------
# error sets
# ---------------------------------------------------------------------------

ERROR_SET_KINDS = ("firstorder-B", "firstorder-EB", "multiqudit")

_LINEAR = ("X", "Y", "Z")
_QUADRATIC = ("XX", "YY", "ZZ", "XY", "YZ", "ZX")


@dataclass(frozen=True)
class ErrorSet:
    """A labelled list of error operators sharing one Hilbert space."""

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


def embed_on_qudit(op, qudit):
    """Dense embedding of ``op`` on one qudit of three (a test reference)."""
    eye = np.eye(op.shape[0], dtype=np.complex128)
    return reduce(kron, [op if k == qudit else eye for k in range(3)])


def standard_error_sets(kind, j=None):
    """Build one of the standard error sets.

    * ``firstorder-B``: identity + the three linear spin operators (needs j).
    * ``firstorder-EB``: as above plus the six second-order operators
      (squares and symmetrised cross products) -- ten operators (needs j).
    * ``multiqudit``: shared identity + the nine non-identity first-order
      electron-bath operators embedded on each of three spin-7/2 qudits
      (28 dense 512 x 512 operators: a test reference, no runtime path;
      refuses a j).
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
        return ErrorSet(labels, tuple(table[l] for l in labels))
    if j is not None:
        raise PreconditionError("multiqudit is three spin-7/2 qudits and takes no j")
    table = _single_spin_table(3.5)
    labels = ["I"]
    ops = [np.eye(512, dtype=np.complex128)]
    for qudit, tag in enumerate("ABC"):
        for l in _LINEAR + _QUADRATIC:
            labels.append(f"{l}@{tag}")
            ops.append(embed_on_qudit(table[l], qudit))
    return ErrorSet(tuple(labels), tuple(ops))


def lift_to_electron_nuclear(errors, system):
    """Lift nuclear-spin error operators to the full electron-nuclear space.

    Error operators act on the bare nuclear spin; on a dressed code space
    they appear as 1_e (x) op.
    """
    eye_e = np.eye(system.dim_e, dtype=np.complex128)
    ops = tuple(kron(eye_e, op) for op in errors.ops)
    return ErrorSet(errors.labels, ops)


@lru_cache(maxsize=8)
def first_order_errors(system):
    """The ``firstorder-B`` set lifted to ``system``'s electron-nuclear space, read-only."""
    errs = lift_to_electron_nuclear(standard_error_sets("firstorder-B", system.i), system)
    for op in errs.ops:
        op.flags.writeable = False
    return errs


# ---------------------------------------------------------------------------
# Knill-Laflamme residuals
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KLReport:
    """Knill-Laflamme residual matrices for one code word + error set.

    offdiag[i, j]  = | <0_L| A_i^dag A_j |1_L> |
    diagdiff[i, j] = | <0_L| A_i^dag A_j |0_L> - <1_L| A_i^dag A_j |1_L> |
    """

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
    return KLReport(offdiag, diagdiff, float(max(offdiag.max(), diagdiff.max())))


def expectation(codeword, op):
    """(<0_L|op|0_L>, <1_L|op|1_L>) for a single operator."""
    return (complex(np.vdot(codeword.zero_l, op @ codeword.zero_l)),
            complex(np.vdot(codeword.one_l, op @ codeword.one_l)))

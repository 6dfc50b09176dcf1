"""Dense Hermitian eigensolver and tensor-product helpers.

The eigensolver is an in-package Jacobi routine in plain numpy, kept for its
relative accuracy; library eigensolvers are used only as cross-checks in the
test suite, never at runtime.  Each sweep opens with one round over the
dominant pairs (each holds the largest off-diagonal |a| of both its rows, after
Becka, Oksa & Vajtersic, Parallel Comput. 28, 243 (2002)), then, unless that
round left the matrix diagonal, runs the round-robin rounds of Brent & Luk
(SIAM J. Sci. Stat. Comput. 6, 69 (1985)).  A round's rotations act on
disjoint pairs and are applied as one update.

Conventions
-----------
* eigenvalues ascending;
* each eigenvector's largest-magnitude component is made real positive; when
  the two largest |components| tie to rounding (within about 2e-14), rounding
  picks the pivot, so the column's global phase is unstable: a last-bit change
  can turn it (|v|^2, and everything read from it, is unaffected);
* matrices are plain ``numpy.ndarray`` (complex128, C-contiguous).
"""

import functools
from dataclasses import dataclass, field

import numpy as np

#: sweep cap for the Jacobi iteration; quadratic convergence makes ~10
#: sweeps plenty for dim <= 64, the cap flags genuinely pathological input
MAX_JACOBI_SWEEPS = 30
#: Hermiticity tolerance of the eigensolver's input, relative to max |entry|
HERMITIAN_TOL = 1e-10

PHASE_CONVENTION = "largest-component-real-positive"


class PreconditionError(ValueError):
    """Input violates a documented precondition (shape, symmetry, ...)."""


class NumericalError(RuntimeError):
    """An iteration failed to converge or a result failed verification."""


@dataclass(frozen=True)
class EigenDecomposition:
    """Result of :func:`hermitian_eigendecompose`.

    Attributes
    ----------
    eigenvalues : (n,) float64, ascending
    eigenvectors : (n, n) complex128, column k pairs with eigenvalue k
    sweeps, off_norm : int, float
        Jacobi sweeps used; final Frobenius norm of the strict upper triangle.
    phase_convention : str
        Documents how the per-column gauge was fixed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int
    off_norm: float
    phase_convention: str = field(default=PHASE_CONVENTION)


def as_matrix(m):
    """Coerce to a square complex128 C-contiguous 2-d array."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(m, tol=HERMITIAN_TOL):
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    if not a.size:
        raise PreconditionError("matrix is empty (0 x 0)")
    scale = max(1.0, float(np.max(np.abs(a))))
    return bool(np.max(np.abs(a - a.conj().T)) <= tol * scale)


def fix_phase(vec):
    """Rotate a vector's global phase so its largest |component| is real > 0.

    Returns the rotated copy.  Zero vectors are returned unchanged.
    """
    return _fix_column_phases(np.asarray(vec, dtype=np.complex128)[:, None])[:, 0]


def _fix_column_phases(m):
    """:func:`fix_phase` of every column of ``m`` at once (a copy).

    Real products, because numpy's complex multiply fuses multiply-adds in
    some inner loops only, so its last bit would depend on the array's shape.
    """
    mags = np.abs(m)
    at = (np.argmax(mags, axis=0), np.arange(m.shape[1]))
    zero = mags[at] == 0.0
    size = np.where(zero, 1.0, mags[at])
    fr, fi = m[at].real / size, -m[at].imag / size
    out = np.empty_like(m)
    out.real = m.real * fr - m.imag * fi
    out.imag = m.real * fi + m.imag * fr
    out[:, zero] = m[:, zero]
    return out


@functools.lru_cache(maxsize=32)
def _round_robin(n):
    """Round-robin schedule of ``n`` indices: per round, read-only ``(p, q)``.

    Circle method over m = n indices, or m = n + 1 for odd n: index m - 1
    stays put while the others rotate, so the m - 1 rounds each pair every
    index once and every pair meets exactly once.  For odd n the pair with
    the padding index n is dropped, and its partner sits out that round.
    """
    m = n + n % 2
    k = np.arange(1, m // 2)
    rounds = []
    for r in range(m - 1):
        pairs = np.array([(r, m - 1), *zip((r - k) % (m - 1), (r + k) % (m - 1))])
        p, q = np.sort(pairs[pairs.max(axis=1) < n], axis=1).T.copy()
        p.flags.writeable = q.flags.writeable = False
        rounds.append((p, q))
    return tuple(rounds)


def _dominant_pairs(a):
    """Pairs p < q with |a_pq| the first largest off-diagonal |a| of rows p and q:
    disjoint, and holding the unique largest entry if there is one."""
    mags = np.abs(a)
    np.fill_diagonal(mags, 0.0)
    best = np.argmax(mags, axis=1)
    p = np.flatnonzero(best[best] == np.arange(len(best)))
    p = p[p < best[p]]
    return p, best[p]


def _rotate(w, p, q):
    """One Jacobi round on the disjoint pairs (p, q) of ``w`` (see :func:`_jacobi`)."""
    a = w[:w.shape[1]]
    apq = a[p, q]
    absapq = np.abs(apq)
    live = absapq >= 1e-300
    if not live.any():
        return
    if not live.all():
        p, q, apq, absapq = p[live], q[live], apq[live], absapq[live]
    tau = (a[q, q].real - a[p, p].real) / (2.0 * absapq)
    t = np.where(tau < 0.0, -1.0, 1.0) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    su = t * c * (apq / absapq)
    suc = np.conj(su)
    col_p, col_q = w[:, p], w[:, q]
    w[:, p] = c * col_p - suc * col_q
    w[:, q] = su * col_p + c * col_q
    c, su, suc = c[:, None], su[:, None], suc[:, None]
    row_p, row_q = a[p], a[q]
    a[p] = c * row_p - su * row_q
    a[q] = suc * row_p + c * row_q
    a[p, q] = a[q, p] = 0.0
    a[p, p] = a[p, p].real
    a[q, q] = a[q, q].real


def _jacobi(w, tol, max_sweeps):
    """Jacobi sweeps on a complex Hermitian matrix, in place.

    ``w`` stacks the matrix ``a = w[:n]`` over ``v = w[n:]``; ``a`` is
    diagonalised while the unitary is accumulated in ``v``.  Returns
    ``(sweeps, off)``: the sweeps used (``-1`` if the norm ``off`` of the
    strict upper triangle, tested before each sweep, stayed above ``tol``).

    The elementary step annihilates ``a[p, q]`` (p < q) with the unitary that
    acts on the (p, q) plane as ``[[c, s*u], [-s*conj(u), c]]`` where
    ``u = a[p,q]/|a[p,q]|`` and ``t = tan(theta)`` is the stable small root of
    ``t^2 + 2*tau*t - 1 = 0``, ``tau = (a[q,q] - a[p,p]) / (2*|a[p,q]|)``
    (``t > 0`` at ``tau == 0``; ``hypot`` keeps a huge ``tau`` finite); pairs
    with ``|a[p,q]| < 1e-300`` are skipped.  A sweep opens with a round over
    :func:`_dominant_pairs`, which alone diagonalises a matrix whose live pairs
    are disjoint, then runs the rounds of :func:`_round_robin` unless the
    opening round left no live pair.  A round's pairs are disjoint, so its
    rotations commute and read no entry another one writes: the round is one
    update of columns p, q of ``w`` and rows p, q of ``a`` (:func:`_rotate`).
    """
    n = w.shape[1]
    a = w[:n]
    for sweep in range(max_sweeps + 1):
        off = np.sqrt(np.sum(np.abs(np.triu(a, 1)) ** 2))
        if off <= tol or sweep == max_sweeps:
            return (sweep if off <= tol else -1), off
        _rotate(w, *_dominant_pairs(a))
        if (np.abs(np.triu(a, 1)) >= 1e-300).any():
            for p, q in _round_robin(n):
                _rotate(w, p, q)


def hermitian_eigendecompose(h):
    """Diagonalise a Hermitian matrix with the in-package Jacobi iteration.

    Parameters
    ----------
    h : array_like, (n, n)
        Hermitian within :data:`HERMITIAN_TOL` (relative to max |entry|).

    Returns
    -------
    EigenDecomposition

    Raises
    ------
    PreconditionError
        If ``h`` is empty, not square, non-finite or not Hermitian within tolerance.
    NumericalError
        If the sweep cap is reached before convergence.
    """
    a = as_matrix(h)
    if not (a.size and np.isfinite(a).all()):
        raise PreconditionError("matrix has non-finite (NaN or inf) entries"
                                if a.size else "matrix is empty (0 x 0)")
    if not is_hermitian(a):
        raise PreconditionError("matrix is not Hermitian within tolerance")
    n = a.shape[0]
    work = np.vstack([a, np.eye(n, dtype=np.complex128)])
    scale = np.sqrt(np.sum(np.abs(a) ** 2))
    tol = 1e-14 * max(scale, 1e-300)
    sweeps, off = _jacobi(work, tol, MAX_JACOBI_SWEEPS)
    if sweeps < 0:
        raise NumericalError(
            f"Jacobi iteration did not converge in {MAX_JACOBI_SWEEPS} sweeps"
        )
    vals = work[:n].diagonal().real
    order = np.argsort(vals, kind="stable")
    return EigenDecomposition(eigenvalues=vals[order],
                              eigenvectors=_fix_column_phases(work[n:, order]),
                              sweeps=sweeps, off_norm=off)


def kron(a, b):
    """Tensor (Kronecker) product of two matrices, written out explicitly.

    out[i*rb + k, j*cb + l] = a[i, j] * b[k, l]
    """
    am = np.asarray(a, dtype=np.complex128)
    bm = np.asarray(b, dtype=np.complex128)
    if am.ndim != 2 or bm.ndim != 2:
        raise PreconditionError("kron expects 2-d arrays")
    ra, ca = am.shape
    rb, cb = bm.shape
    out = am[:, None, :, None] * bm[None, :, None, :]
    return np.ascontiguousarray(out.reshape(ra * rb, ca * cb))


def kron_all(mats):
    """Left-fold of :func:`kron` over a sequence of matrices."""
    mats = list(mats)
    if not mats:
        raise PreconditionError("kron_all needs at least one factor")
    out = np.asarray(mats[0], dtype=np.complex128)
    for m in mats[1:]:
        out = kron(out, m)
    return out

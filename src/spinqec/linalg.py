"""Dense Hermitian eigensolver and tensor-product helpers.

The eigensolver is an in-package Jacobi routine in plain numpy, kept for its
relative accuracy; library eigensolvers are used only as cross-checks in the
test suite, never at runtime.  Each sweep opens with one round over the
dominant pairs (each holds the largest off-diagonal |a| of both its rows, after
Becka, Oksa & Vajtersic, Parallel Comput. 28, 243 (2002)), then, unless that
round left the matrix diagonal, runs the round-robin rounds of Brent & Luk
(SIAM J. Sci. Stat. Comput. 6, 69 (1985)).  A round's rotations act on
disjoint pairs and are applied as one update: its columns are gathered as one
block, both halves are updated and the block is scattered back, then likewise
for its rows.  A rotation removes exactly |a_pq|^2 from the squared
off-diagonal norm in exact arithmetic, so a running ledger of that norm tells
when to measure it: the last sweep stops at the round where it converges.

Conventions
-----------
* eigenvalues ascending;
* each eigenvector's largest-magnitude component is made real positive; when
  the two largest |components| tie to rounding (within about 2e-14), rounding
  picks the pivot, so the column's global phase is unstable: a last-bit change
  can turn it (|v|^2, and everything read from it, is unaffected);
* matrices are plain ``numpy.ndarray`` (complex128, C-contiguous).

Work that does not depend on the matrix is done once per size n: the
round-robin schedule and the upper-triangle mask of the off-diagonal norm are
cached and read-only.  Per matrix, max |entry| is read once, for the
Hermiticity check and the power-of-two scaling alike.
"""

import functools
from dataclasses import dataclass

import numpy as np

#: sweep cap for the Jacobi iteration; quadratic convergence makes ~10
#: sweeps plenty for dim <= 64, the cap flags genuinely pathological input
MAX_JACOBI_SWEEPS = 30
#: Hermiticity tolerance of the eigensolver's input, relative to max |entry|
HERMITIAN_TOL = 1e-10


class PreconditionError(ValueError):
    """Input violates a documented precondition (shape, symmetry, ...)."""


class NumericalError(RuntimeError):
    """An iteration failed to converge or a result failed verification."""


def require_finite(**values):
    """Refuse, by its name, the first of ``values`` (numbers or arrays) that is not finite."""
    for name, value in values.items():
        if not np.isfinite(value).all():
            raise PreconditionError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class EigenDecomposition:
    """Result of :func:`hermitian_eigendecompose`.

    Attributes
    ----------
    eigenvalues : (n,) float64, ascending
    eigenvectors : (n, n) complex128, column k pairs with eigenvalue k
    sweeps, off_norm : int, float
        Jacobi sweeps begun (the last one may stop partway, at the round that
        converged); final Frobenius norm of the strict upper triangle.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    sweeps: int
    off_norm: float


def as_matrix(m):
    """Coerce to a square complex128 C-contiguous 2-d array."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    return a


def _fix_column_phases(m):
    """Rotate each column's global phase so its largest |entry| is real > 0 (a copy).

    The columns are those of a unitary, so each largest |entry| is >= 1/sqrt(n).
    Real products, because numpy's complex multiply fuses multiply-adds in
    some inner loops only, so its last bit would depend on the array's shape.
    """
    mags = np.abs(m)
    cols = np.arange(m.shape[1])
    rows = np.argmax(mags, axis=0)
    pivot, size = m[rows, cols], mags[rows, cols]
    fr, fi = pivot.real / size, -pivot.imag / size
    out = np.empty_like(m)
    out.real = m.real * fr - m.imag * fi
    out.imag = m.real * fi + m.imag * fr
    return out


def _round(p, q, n):
    """A round's disjoint pairs p < q of an ``n``-column matrix, read-only, as
    ``(p, q, pq, off, diag)``: ``pq`` is ``p`` then ``q``, and ``off`` (the
    (p, q) then the (q, p) entries) and ``diag`` (the (pq, pq) entries) are
    flat indices into the C-contiguous stack that :func:`_rotate` updates."""
    pq = np.concatenate([p, q])
    out = (p, q, pq, np.concatenate([p * n + q, q * n + p]), pq * (n + 1))
    for index in out:
        index.flags.writeable = False
    return out


@functools.lru_cache(maxsize=32)
def _round_robin(n):
    """Round-robin schedule of ``n`` indices: one :func:`_round` per round.

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
        rounds.append(_round(p, q, n))
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


@functools.lru_cache(maxsize=32)
def _upper(n):
    """The read-only float mask of the strict upper triangle of an n x n matrix:
    1.0 above the diagonal, 0.0 on and below it."""
    mask = np.triu(np.ones((n, n)), 1)
    mask.flags.writeable = False
    return mask


def _off_norm(a):
    """Frobenius norm of the strict upper triangle of ``a``.

    Multiplying the finite |a| by the 0/1 mask is exact, so this equals
    zeroing the lower triangle in place, bit for bit.
    """
    mags = np.abs(a)
    mags *= _upper(len(a))
    return np.sqrt(np.sum(mags ** 2))


def _rotate(w, p, q, pq, off, diag):
    """One Jacobi round on the pairs of a :func:`_round` (see :func:`_jacobi`).

    Returns the round's sum of |a_pq|^2 over the pairs it rotated.  Each side
    forms its s-terms as complex products on the gathered block's two halves,
    then scales the whole block by (c, c) in place: c has no imaginary part,
    so that product rounds alike whether or not an inner loop fuses its
    multiply-adds, and every bit is that of the per-half products.
    """
    flat = w.reshape(-1)
    k = len(p)
    apq = flat[off[:k]]
    absapq = np.abs(apq)
    if np.minimum.reduce(absapq, initial=np.inf) < 1e-300:
        live = absapq >= 1e-300
        if not live.any():
            return 0.0
        p, q, pq, off, diag = _round(p[live], q[live], w.shape[1])
        k, apq, absapq = len(p), apq[live], absapq[live]
    d = flat[diag].real
    tau = (d[k:] - d[:k]) / (2.0 * absapq)
    t = np.where(tau < 0.0, -1.0, 1.0) / (np.abs(tau) + np.hypot(1.0, tau))
    c = 1.0 / np.sqrt(1.0 + t * t)
    su = t * c * (apq / absapq)
    suc = np.conj(su)
    cc = np.concatenate((c, c))
    block = w[:, pq]
    x, y = block[:, :k], block[:, k:]
    sx, sy = su * x, suc * y
    block *= cc
    np.subtract(x, sy, out=x)
    np.add(sx, y, out=y)
    w[:, pq] = block
    su, suc = su[:, None], suc[:, None]
    block = w[pq]
    x, y = block[:k], block[k:]
    sx, sy = suc * x, su * y
    block *= cc[:, None]
    np.subtract(x, sy, out=x)
    np.add(sx, y, out=y)
    w[pq] = block
    flat[off] = 0.0
    flat.imag[diag] = 0.0
    return np.dot(absapq, absapq)


def _jacobi(w, tol, max_sweeps):
    """Jacobi sweeps on a complex Hermitian matrix, in place.

    ``w`` (C-contiguous) stacks the matrix ``a = w[:n]`` over ``v = w[n:]``;
    ``a`` is diagonalised while the unitary is accumulated in ``v``.  Returns
    ``(sweeps, off)``: the sweeps begun (``-1`` if the norm ``off`` of the
    strict upper triangle was still above ``tol`` after ``max_sweeps``).

    The elementary step annihilates ``a[p, q]`` (p < q) with the unitary that
    acts on the (p, q) plane as ``[[c, s*u], [-s*conj(u), c]]`` where
    ``u = a[p,q]/|a[p,q]|`` and ``t = tan(theta)`` is the stable small root of
    ``t^2 + 2*tau*t - 1 = 0``, ``tau = (a[q,q] - a[p,p]) / (2*|a[p,q]|)``
    (``t > 0`` at ``tau == 0``; ``hypot`` keeps a huge ``tau`` finite); pairs
    with ``|a[p,q]| < 1e-300`` are skipped.  A sweep opens with a round over
    :func:`_dominant_pairs`, which alone diagonalises a matrix whose live pairs
    are disjoint, then runs the rounds of :func:`_round_robin` unless ``off``,
    measured after the opening round, is within ``tol``.  A round's pairs are
    disjoint, so its rotations commute and read no entry another one writes:
    :func:`_rotate` gathers columns p, q of ``w`` as one block, updates both
    halves and scatters them back, then does the same for rows p, q of ``a``.

    Each rotation lowers ``off**2`` by exactly ``|a[p,q]|**2`` in exact
    arithmetic, so a ledger tracks ``off**2`` from the rounds' sums.  When it
    reads ``off <= tol`` the norm is measured: if the measurement agrees the
    sweep stops at that round, and otherwise the ledger restarts from it.  The
    norm is also measured after every full sweep; a returned ``off`` is always
    a measurement.
    """
    n = w.shape[1]
    a = w[:n]
    off = _off_norm(a)
    for sweep in range(max_sweeps + 1):
        if off <= tol or sweep == max_sweeps:
            return (sweep if off <= tol else -1), off
        _rotate(w, *_round(*_dominant_pairs(a), n))
        off = _off_norm(a)
        if off <= tol:
            return sweep + 1, off
        ledger = off * off
        for rnd in _round_robin(n):
            ledger -= _rotate(w, *rnd)
            if ledger <= tol * tol:
                off = _off_norm(a)
                if off <= tol:
                    return sweep + 1, off
                ledger = off * off
        off = _off_norm(a)


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
        If ``h`` is empty, not square, non-finite, has an entry whose magnitude
        overflows float64, or is not Hermitian within tolerance.
    NumericalError
        If the sweep cap is reached before convergence.
    """
    m = as_matrix(h)
    if not m.size:
        raise PreconditionError("matrix is empty (0 x 0)")
    top = np.max(np.abs(m))
    if not np.isfinite(top):
        raise PreconditionError("matrix has non-finite (NaN or inf) entries"
                                if not np.isfinite(m).all() else
                                "matrix has an entry whose magnitude overflows float64")
    # no floor on the tolerance: a tiny matrix is judged at its own scale
    if not np.max(np.abs(m - m.conj().T)) <= HERMITIAN_TOL * float(top):
        raise PreconditionError("matrix is not Hermitian within tolerance")
    n = m.shape[0]
    work = np.zeros((2 * n, n), dtype=np.complex128)  # a over the identity
    a = work[:n]
    np.fill_diagonal(work[n:], 1.0)
    # an exact power of two brings max |entry| into [1/2, 1), so the norm below
    # neither overflows nor underflows; the rotations do not depend on it
    shift = int(np.frexp(top)[1])
    np.ldexp(m.view(np.float64), -shift, out=a.view(np.float64))
    scale = np.sqrt(np.sum(np.abs(a) ** 2))
    tol = 1e-14 * max(scale, 1e-300)
    sweeps, off = _jacobi(work, tol, MAX_JACOBI_SWEEPS)
    if sweeps < 0:
        raise NumericalError(
            f"Jacobi iteration did not converge in {MAX_JACOBI_SWEEPS} sweeps"
        )
    vals = work[:n].diagonal().real
    order = np.argsort(vals, kind="stable")
    return EigenDecomposition(eigenvalues=np.ldexp(vals[order], shift),
                              eigenvectors=_fix_column_phases(work[n:, order]),
                              sweeps=sweeps, off_norm=np.ldexp(off, shift))


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

"""Dense Hermitian eigensolver and tensor-product helpers.

The eigensolver is an in-package cyclic Jacobi routine in plain numpy;
library eigensolvers are used only as cross-checks in the test suite, never
at runtime.

Conventions
-----------
* eigenvalues ascending;
* each eigenvector's largest-magnitude component is made real positive;
* matrices are plain ``numpy.ndarray`` (complex128, C-contiguous).
"""

from dataclasses import dataclass, field

import numpy as np

#: sweep cap for the Jacobi iteration; quadratic convergence makes ~10
#: sweeps plenty for dim <= 64, the cap flags genuinely pathological input
MAX_JACOBI_SWEEPS = 30

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
    phase_convention : str
        Documents how the per-column gauge was fixed.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    phase_convention: str = field(default=PHASE_CONVENTION)


def as_matrix(m):
    """Coerce to a square complex128 C-contiguous 2-d array."""
    a = np.ascontiguousarray(m, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise PreconditionError(f"expected a square matrix, got shape {a.shape}")
    return a


def is_hermitian(m, tol=1e-10):
    a = np.asarray(m)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        return False
    scale = max(1.0, float(np.max(np.abs(a))) if a.size else 1.0)
    return bool(np.max(np.abs(a - a.conj().T)) <= tol * scale)


def fix_phase(vec):
    """Rotate a vector's global phase so its largest |component| is real > 0.

    Returns the rotated copy.  Zero vectors are returned unchanged.
    """
    v = np.asarray(vec, dtype=np.complex128)
    k = int(np.argmax(np.abs(v)))
    pivot = v[k]
    if abs(pivot) == 0.0:
        return v.copy()
    return v * (np.conj(pivot) / abs(pivot))


def _jacobi(a, v, tol, max_sweeps):
    """Cyclic Jacobi sweeps on a complex Hermitian matrix, in place.

    ``a`` is destroyed (diagonalised) while the unitary is accumulated in
    ``v``.  Returns the number of sweeps used, or ``-1`` when the
    off-diagonal norm failed to drop below ``tol`` within ``max_sweeps``.

    The elementary step annihilates ``a[p, q]`` with the unitary that acts on
    the (p, q) plane as ``[[c, s*u], [-s*conj(u), c]]`` where
    ``u = a[p,q]/|a[p,q]|`` and ``t = tan(theta)`` is the stable small root of
    ``t^2 + 2*tau*t - 1 = 0``, ``tau = (a[q,q] - a[p,p]) / (2*|a[p,q]|)``.
    """
    n = a.shape[0]
    for sweep in range(max_sweeps):
        off = np.sqrt(np.sum(np.abs(np.triu(a, 1)) ** 2))
        if off <= tol:
            return sweep
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p, q]
                absapq = abs(apq)
                if absapq < 1e-300:
                    continue
                app = a[p, p].real
                aqq = a[q, q].real
                u = apq / absapq
                tau = (aqq - app) / (2.0 * absapq)
                t = np.sign(tau if tau != 0.0 else 1.0) / (
                    abs(tau) + np.sqrt(1.0 + tau * tau)
                )
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                uc = np.conj(u)
                col_p = a[:, p].copy()
                col_q = a[:, q].copy()
                a[:, p] = c * col_p - s * uc * col_q
                a[:, q] = s * u * col_p + c * col_q
                row_p = a[p, :].copy()
                row_q = a[q, :].copy()
                a[p, :] = c * row_p - s * u * row_q
                a[q, :] = s * uc * row_p + c * row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p = v[:, p].copy()
                vcol_q = v[:, q].copy()
                v[:, p] = c * vcol_p - s * uc * vcol_q
                v[:, q] = s * u * vcol_p + c * vcol_q
    off = np.sqrt(np.sum(np.abs(np.triu(a, 1)) ** 2))
    if off <= tol:
        return max_sweeps
    return -1


def hermitian_eigendecompose(h, herm_tol=1e-10):
    """Diagonalise a Hermitian matrix with the in-package Jacobi iteration.

    Parameters
    ----------
    h : array_like, (n, n)
        Hermitian within ``herm_tol`` (relative to max |entry|).
    herm_tol : float
        Symmetry tolerance for the precondition check.

    Returns
    -------
    EigenDecomposition

    Raises
    ------
    PreconditionError
        If ``h`` is not square or not Hermitian within tolerance.
    NumericalError
        If the sweep cap is reached before convergence.
    """
    a = as_matrix(h)
    if not is_hermitian(a, herm_tol):
        raise PreconditionError("matrix is not Hermitian within tolerance")
    n = a.shape[0]
    work = a.copy()
    vecs = np.eye(n, dtype=np.complex128)
    scale = np.sqrt(np.sum(np.abs(work) ** 2))
    tol = 1e-14 * max(scale, 1e-300)
    sweeps = _jacobi(work, vecs, tol, MAX_JACOBI_SWEEPS)
    if sweeps < 0:
        raise NumericalError(
            f"Jacobi iteration did not converge in {MAX_JACOBI_SWEEPS} sweeps"
        )
    vals = work.diagonal().real.copy()
    order = np.argsort(vals, kind="stable")
    vals = vals[order]
    vecs = vecs[:, order]
    for k in range(n):
        vecs[:, k] = fix_phase(vecs[:, k])
    return EigenDecomposition(eigenvalues=vals, eigenvectors=vecs)


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

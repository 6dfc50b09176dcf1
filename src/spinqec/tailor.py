"""Branch-angle tailoring: residual conditions, contours, and root finding.

A two-level code word family over the dressed m_S = -1/2 manifold has two
free branch angles (eps1, eps2).  A condition is one of the six names of
:data:`CONDITIONS`, "<kind>-<op>" (e.g. "diag-IZ"): <0|op|0> - <1|op|1>
(``diag``) or <0|op|1> (``offdiag``) for a product ``op`` of nuclear factors,
as one real number: the real part of a real-entried operator, the imaginary
part of an imaginary one.  The six sandwiches are built once per field.

In t = theta0 + eps a diag condition is (a1 + b1 cos 2t1) - (a2 + b2 cos 2t2)
and an offdiag one p cos t1 sin t2 + q sin t1 cos t2
(:meth:`TailoringProblem.coefficients`), so the solvers need no iteration:
two diag conditions are a 2 x 2 linear system in (cos 2t1, cos 2t2), and a
diag plus an offdiag condition give tan t2 = kappa tan t1 and a quadratic in
tan^2 t1 (:func:`closed_form_roots`).  Contours are marching squares on
crossed edges and vertices found per grid line in closed form, with no n x n
grid (:meth:`TailoringProblem.line_zeros`).  The common-cell scan keeps a
cell when one of its corners is <= 0 and one is >= 0 (:func:`_qualifies`).
A diag condition needs no grid for it: on the grid it is g(eps1) - h(eps2),
so the rule reads as an overlap of the cell's g and h ranges, two outer
comparisons of 2n line terms (:meth:`TailoringProblem.cells`).  An offdiag
condition is gridded once on broadcast axes when first, and evaluated only
at the corners of the cells still in play when later.  ``newton_solve`` and
``find_roots``, the former Newton route, remain as the tests' oracle.
"""

from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from types import MappingProxyType

import numpy as np

from .codewords import _TWO_LEVEL, dressed_word, kl_residuals, \
    lift_to_electron_nuclear, standard_error_sets
from .linalg import NumericalError, PreconditionError
from .spin import manifold_states, spin_operators

DEFAULT_BOX = 0.05
DEFAULT_STEP = 0.0025  # marching-squares cell size of trace_zero_contour
DEFAULT_SCAN_CELLS = 400  # cells per side of scan_common_zero_cells
FD_STEP = 1e-7
STEP_TOL = 1e-13
RESIDUAL_TOL = 1e-13
MAX_NEWTON_ITER = 100


class EmptyContourError(NumericalError):
    """The condition has no zero crossing inside the requested box."""


class VerificationError(NumericalError):
    """A converged root failed the independent residual verification."""


class DegenerateConditionsError(NumericalError):
    """The target conditions are near-dependent, so their roots are not isolated."""


class StructuralZeroError(NumericalError):
    """A coefficient the closed form takes to be zero is not zero."""


#: The first-order conditions: name -> (kind, nuclear factors, part kept).
CONDITIONS = MappingProxyType({
    "diag-IZ": ("diag", ("IZ",), "real"),
    "diag-IXIX": ("diag", ("IX", "IX"), "real"),
    "diag-IYIY": ("diag", ("IY", "IY"), "real"),
    "diag-IZIZ": ("diag", ("IZ", "IZ"), "real"),
    "offdiag-IXIX": ("offdiag", ("IX", "IX"), "real"),
    "offdiag-IXIY": ("offdiag", ("IX", "IY"), "imag"),
})


class TailoringProblem:
    """Precomputed branch-basis sandwiches for fast condition evaluation.

    Problems at one (family, system, field) share one labelled eigensolve and
    the six sandwiches of :data:`CONDITIONS`, built once per field (a small
    LRU cache, :func:`_field_setup`); the shared arrays are read-only.

    Parameters
    ----------
    family : str
        ``distorted-7/2`` or ``tailored-9/2``.
    system : SpinSystem
    b_field : float
        Static field in tesla.
    """

    def __init__(self, family, system, b_field):
        if family not in ("distorted-7/2", "tailored-9/2"):
            raise PreconditionError(
                f"tailoring applies to the distorted/tailored families, not {family!r}"
            )
        spin_i, self.theta0, _, _, self.sign1 = _TWO_LEVEL[family]
        if abs(system.i - spin_i) > 1e-9:
            raise PreconditionError(
                f"{family} needs I={spin_i}, system has I={system.i}"
            )
        self.family = family
        self.system = system
        self.b_field = float(b_field)
        self._manifold, _, self._blocks = _field_setup(family, system, self.b_field)

    def _sandwiches(self, name):
        """(kind, m00, m11, m01) of condition ``name``, from the field's shared map."""
        if name not in CONDITIONS:
            raise PreconditionError(
                f"unknown condition {name!r}; the conditions are {', '.join(CONDITIONS)}")
        return self._blocks[name]

    def evaluate(self, name, eps1, eps2):
        """Evaluate one condition, in real arithmetic, on broadcastable eps1/eps2."""
        kind, m00, m11, m01 = self._sandwiches(name)
        e1, e2 = np.asarray(eps1, dtype=float), np.asarray(eps2, dtype=float)
        if kind == "diag":
            g, h = self._diag_terms(m00, m11, e1, e2)
            z = g - h
        else:
            c1, s1, c2, s2 = self._trig(e1, e2)
            z = (c1 * c2 * m01[0, 0] + c1 * s2 * m01[0, 1]
                 + s1 * c2 * m01[1, 0] + s1 * s2 * m01[1, 1])
        return float(z) if np.ndim(z) == 0 else z

    def _trig(self, e1, e2):
        """cos and sin of t1 = theta0 + e1 and of t2 = theta0 + e2, cos t2 signed."""
        return (np.cos(self.theta0 + e1), np.sin(self.theta0 + e1),
                self.sign1 * np.cos(self.theta0 + e2), np.sin(self.theta0 + e2))

    def _diag_terms(self, m00, m11, e1, e2):
        """A diag condition's line terms (g(e1), h(e2)); the condition is g - h."""
        c1, s1, c2, s2 = self._trig(e1, e2)
        return (c1 * c1 * m00[0, 0] + c1 * s1 * (m00[0, 1] + m00[1, 0])
                + s1 * s1 * m00[1, 1],
                c2 * c2 * m11[0, 0] + c2 * s2 * (m11[0, 1] + m11[1, 0])
                + s2 * s2 * m11[1, 1])

    def cells(self, name, xs, rows=None, cols=None):
        """Which cells of xs x xs qualify for ``name`` (see :func:`_qualifies`).

        Returns the (n - 1, n - 1) mask of every cell, or, given the lower nodes
        (rows, cols) of some cells, the mask of those.  On the grid a diag
        condition is g(xs[i]) - h(xs[j]), and the IEEE difference of two finite
        numbers is < 0 exactly when g < h and 0 exactly when g == h; so the
        rule, a corner <= 0 and one >= 0, is the same predicate in separable
        form: min g <= max h and max g >= min h over the cell, read from the 2n
        line terms.  An offdiag condition is evaluated on the grid, or on the
        cells' corners, and the rule applied to those values.
        """
        kind, m00, m11, _ = self._sandwiches(name)
        if kind != "diag":
            fn = partial(self.evaluate, name)
            return _grid_cells(fn, xs) if rows is None else _corner_cells(fn, xs, rows, cols)
        g, h = self._diag_terms(m00, m11, xs, xs)
        g_lo, g_hi = np.minimum(g[:-1], g[1:]), np.maximum(g[:-1], g[1:])
        h_lo, h_hi = np.minimum(h[:-1], h[1:]), np.maximum(h[:-1], h[1:])
        if rows is None:
            return np.less_equal.outer(g_lo, h_hi) & np.greater_equal.outer(g_hi, h_lo)
        return (g_lo[rows] <= h_hi[cols]) & (g_hi[rows] >= h_lo[cols])

    def line_zeros(self, name, xs):
        """The grid edges that ``name`` crosses on xs x xs (xs ascending, evenly spaced).

        Along a grid line f = alpha + a cos kt + b sin kt in the moving angle
        t = theta0 + eps (k = 2 diag, 1 offdiag); two calls on broadcast axes at
        kt = 0, pi/2, pi give (alpha, a, b) on all 2n lines, and so the roots
        atan2(b, a) +- arccos(-alpha / hypot(a, b)) + 2 pi m.  Only the edges
        beside each root's nearest node can change sign; their end values come
        from the form, or from one elementwise call (the grid's own values) where
        it is within 1e-11 of max |alpha| + hypot(a, b) of zero.  An edge is
        crossed on the split f < 0 against f >= 0 (a fold, two roots in one edge,
        is not) at its zero end node, else the root nearest its midpoint clipped
        into it.  Returns (edges, vertices, zero, negative), per crossed edge the
        moving axis and lower node (i, j) (k x 3; axis 0 runs to (i + 1, j), axis
        1 to (i, j + 1)), the vertex (k x 2), i n + j of a zero end node or -1,
        and f(i, j) < 0.  A condition that vanishes on the box raises NumericalError.
        """
        k = 2.0 if self._sandwiches(name)[0] == "diag" else 1.0
        n, tau = xs.size, 2.0 * np.pi
        moving = (np.array([0.0, np.pi / 2.0, np.pi]) / k - self.theta0)[:, None]
        # rows l < n run along eps1 at eps2 = xs[l], the rest along eps2
        f0, f1, f2 = np.hstack((self.evaluate(name, moving, xs[None, :]),
                                self.evaluate(name, xs[None, :], moving)))
        alpha, a, b = (f0 + f2) / 2.0, (f0 - f2) / 2.0, f1 - (f0 + f2) / 2.0
        radius = np.hypot(a, b)
        size = np.abs(alpha) + radius  # bounds |f| along each line
        if np.count_nonzero(size < 1e-13) > 0.9 * 2 * n:
            raise NumericalError(
                "condition vanishes identically over the box; no curve to trace")
        half = np.arccos(np.clip(-alpha / np.maximum(radius, 1e-300), -1.0, 1.0))
        roots = np.arctan2(b, a) + np.multiply.outer((-1.0, 1.0), half)
        # each root's nearest node at every 2 pi shift, as a flat index into rows of
        # n + 2 marks, where column e + 1 is edge e and roots past the box land in n
        kx = k * (self.theta0 + xs)
        spacing = (kx[-1] - kx[0]) / (n - 1)
        turns = tau * np.arange(int(n * spacing / tau) + 1)[:, None, None]
        near = np.minimum(((np.mod(roots - kx[0] + spacing / 2.0, tau) + turns) / spacing)
                          .astype(int), n) + np.arange(0, 2 * n * (n + 2), n + 2)
        marked = np.zeros((2 * n, n + 2), dtype=bool)
        marked.ravel()[near] = marked.ravel()[near + 1] = True
        line, lo = np.divmod(np.flatnonzero(marked[:, 1:n]), n - 1)
        ends = lo + np.array([[0], [1]])
        value = alpha[line] + a[line] * np.cos(kx)[ends] + b[line] * np.sin(kx)[ends]
        unsure = np.abs(value) < 1e-11 * size.max()  # rounding is far below this
        if unsure.any():
            rows, node = np.broadcast_to(line, ends.shape)[unsure], ends[unsure]
            value[unsure] = self.evaluate(name, xs[np.where(rows < n, node, rows - n)],
                                          xs[np.where(rows < n, rows, node)])
        neg = value < 0.0
        crossed = np.flatnonzero(neg[0] != neg[1])
        line, lo, value = line[crossed], lo[crossed], value[:, crossed]
        ends = xs[lo], xs[lo + 1]
        mid = k * (self.theta0 + (ends[0] + ends[1]) / 2.0)
        roots = roots[:, line]
        roots = roots + tau * np.rint((mid - roots) / tau)
        kt = np.where(np.abs(roots[0] - mid) <= np.abs(roots[1] - mid), *roots)
        t = np.minimum(np.maximum(kt / k - self.theta0, ends[0]), ends[1])
        # rows of lines along eps1 come first, as (i, j) = (lo, line); swap the rest
        split, fixed = np.searchsorted(line, n), line % n
        pts, edges = np.array([t, xs[fixed]]), np.array([line >= n, lo, fixed])
        pts[:, split:], edges[1:, split:] = pts[::-1, split:], edges[:0:-1, split:]
        zero = np.full(len(line), -1)
        for side, at in enumerate(value == 0.0 if not value.all() else ()):
            node = edges[1:, at] + side * np.stack((line[at] < n, line[at] >= n))
            zero[at], pts[:, at] = node[0] * n + node[1], xs[node]  # the zero end
        return edges.T, pts.T, zero, neg[0, crossed]

    def coefficients(self, name):
        """The closed-form coefficients of condition ``name`` in t_k = theta0 + eps_k.

        diag:    ((a1, b1), (a2, b2)), f = (a1 + b1 cos 2t1) - (a2 + b2 cos 2t2)
        offdiag: (p, q),               f = p cos t1 sin t2 + q sin t1 cos t2

        Both forms rest on structural zeros of the sandwiches: the diag cross
        terms m[0, 1] + m[1, 0] and the offdiag diagonal m01[0, 0], m01[1, 1].
        One above 1e-12 of the largest entry raises :class:`StructuralZeroError`.
        """
        kind, m00, m11, m01 = self._sandwiches(name)
        if kind == "diag":
            zeros = (m00[0, 1] + m00[1, 0], m11[0, 1] + m11[1, 0])
            coeffs = tuple(((m[0, 0] + m[1, 1]) / 2.0, (m[0, 0] - m[1, 1]) / 2.0)
                           for m in (m00, m11))
        else:
            zeros = (m01[0, 0], m01[1, 1])
            coeffs = (m01[0, 1], self.sign1 * m01[1, 0])
        scale = max(np.max(np.abs(m)) for m in (m00, m11, m01))
        if max(abs(z) for z in zeros) > 1e-12 * scale:
            raise StructuralZeroError(
                f"{name} of {self.family} at B={self.b_field:g} T has a non-zero "
                f"structural coefficient; its roots have no closed form here")
        return coeffs

    def condition(self, name):
        """Condition ``name`` as a callable of (eps1, eps2) with ``line_zeros(xs)``
        and ``cells(xs, rows=None, cols=None)``."""
        self._sandwiches(name)  # validate eagerly
        fn = partial(self.evaluate, name)
        fn.line_zeros = partial(self.line_zeros, name)
        fn.cells = partial(self.cells, name)
        return fn

    def codeword(self, eps1, eps2):
        """The dressed code word at (eps1, eps2), as ``make_codeword`` builds it."""
        return dressed_word(self.family, self.system, self.b_field, self._manifold,
                            eps1, eps2)


@lru_cache(maxsize=8)
def _field_setup(family, system, b_field):
    """The labelled m_S = -1/2 states, stacked branch basis (dim_e, dim_n, 4) and
    map of each condition name to its (kind, m00, m11, m01) of ``family`` at one
    field, all read-only."""
    _, _, sup0, sup1, _ = _TWO_LEVEL[family]
    manifold = manifold_states(system, b_field, m_s=-0.5)
    basis = np.column_stack([manifold[m].vector for m in (*sup0, *sup1)]).reshape(
        system.dim_e, system.dim_n, 4)
    nuclear = dict(zip(("IX", "IY", "IZ"), spin_operators(system.i)))
    blocks = {}
    for name, (kind, factors, part) in CONDITIONS.items():
        op = reduce(np.matmul, (nuclear[f] for f in factors))
        # one contraction over the stacked basis; blocks of the 4 x 4 result
        m = getattr(np.einsum("eia,ij,ejb->ab", basis.conj(), op, basis), part)
        m.flags.writeable = False
        blocks[name] = (kind, m[:2, :2], m[2:, 2:], m[:2, 2:])
    for array in (basis, *(st.vector for st in manifold.values())):
        array.flags.writeable = False
    return manifold, basis, MappingProxyType(blocks)


# ---------------------------------------------------------------------------
# closed-form roots
# ---------------------------------------------------------------------------

def _branches(t, box, theta0):
    """Every eps = t + k pi - theta0 (k integer) with |eps| <= box."""
    lo, hi = (theta0 - box - t) / np.pi, (theta0 + box - t) / np.pi
    k = np.arange(np.ceil(lo), np.floor(hi) + 1.0)
    return [float(eps) for eps in t + k * np.pi - theta0 if abs(eps) <= box]


def _diag_pair_roots(problem, names, box):
    """Two diag conditions: a 2 x 2 linear system in (cos 2t1, cos 2t2)."""
    rows, rhs = [], []
    for name in names:
        (a1, b1), (a2, b2) = problem.coefficients(name)
        rows.append((b1, -b2))
        rhs.append(a2 - a1)
    (r00, r01), (r10, r11) = rows
    det = r00 * r11 - r01 * r10
    if abs(det) <= 1e-12 * np.hypot(r00, r01) * np.hypot(r10, r11):
        raise DegenerateConditionsError(
            f"{names[0]} and {names[1]} are near-dependent at B={problem.b_field:g} T "
            f"(2 x 2 determinant {det:.3e})")
    cos2t = ((r11 * rhs[0] - r01 * rhs[1]) / det, (r00 * rhs[1] - r10 * rhs[0]) / det)
    if max(abs(u) for u in cos2t) > 1.0:
        return []
    eps = [{e for sign in (-1.0, 1.0)
            for e in _branches(sign * np.arccos(u) / 2.0, box, problem.theta0)}
           for u in cos2t]
    return [(e1, e2) for e1 in eps[0] for e2 in eps[1]]


def _mixed_pair_roots(problem, diag_name, offdiag_name, box):
    """A diag and an offdiag condition: tan t2 = kappa tan t1, then a quadratic.

    With x = tan^2 t1, cos 2t1 = (1 - x) / (1 + x) and cos 2t2 =
    (1 - kappa^2 x) / (1 + kappa^2 x); clearing the (positive) denominators
    leaves A x^2 + B x + C = 0.  Roots with cos t1 = 0 need A = 0 exactly
    and are not listed.
    """
    (a1, b1), (a2, b2) = problem.coefficients(diag_name)
    p, q = problem.coefficients(offdiag_name)
    if min(abs(p), abs(q)) <= 1e-12 * max(abs(p), abs(q), 1e-300):
        raise DegenerateConditionsError(
            f"{offdiag_name} vanishes or factorises at B={problem.b_field:g} T "
            f"(coefficients {p:.3e}, {q:.3e}); no isolated roots with {diag_name}")
    kappa = -q / p
    k2, d = kappa * kappa, a1 - a2
    quad_a = k2 * (d - b1 + b2)
    quad_b = d * (1.0 + k2) + (b1 + b2) * (k2 - 1.0)
    quad_c = d + b1 - b2
    disc = quad_b * quad_b - 4.0 * quad_a * quad_c
    if disc < 0.0:
        return []
    # the root of larger magnitude first, the other from the product C / A
    big = -(quad_b + np.copysign(np.sqrt(disc), quad_b)) / 2.0
    tan_sq = (big / quad_a if quad_a else np.inf, quad_c / big if big else np.inf)
    roots = set()
    for tan1 in {sign * np.sqrt(x) for x in tan_sq if 0.0 <= x < np.inf
                 for sign in (-1.0, 1.0)}:
        for e1 in _branches(np.arctan(tan1), box, problem.theta0):
            for e2 in _branches(np.arctan(kappa * tan1), box, problem.theta0):
                roots.add((e1, e2))
    return list(roots)


def closed_form_roots(problem, names, box=DEFAULT_BOX):
    """Every common root of the two conditions ``names`` with |eps1|, |eps2| <= box.

    Sorted by distance from the origin (nearest first); an empty list when
    the solution's cosines leave [-1, 1] or no branch lies in the box.

    Raises
    ------
    PreconditionError
        If ``box`` is not finite and positive, or ``names`` is not two diag
        conditions or a diag then an offdiag one.
    DegenerateConditionsError
        If two diag conditions are near-dependent (the sine between the rows
        of their 2 x 2 system is below 1e-12), or the offdiag condition
        vanishes or factorises (one of p, q below 1e-12 of the other).
    StructuralZeroError
        See :meth:`TailoringProblem.coefficients`.
    """
    if not 0.0 < box < np.inf:
        raise PreconditionError(f"need box > 0, got {box!r}")
    kinds = [problem._sandwiches(name)[0] for name in names]
    if kinds == ["diag", "diag"]:
        roots = _diag_pair_roots(problem, names, box)
    elif kinds == ["diag", "offdiag"]:
        roots = _mixed_pair_roots(problem, *names, box)
    else:
        raise PreconditionError(f"no closed form for the conditions {tuple(names)}")
    return sorted(roots, key=lambda r: (float(np.hypot(*r)), r))


# ---------------------------------------------------------------------------
# Newton iteration: the tests' oracle for the closed form
# ---------------------------------------------------------------------------

def newton_solve(funcs, x0, box=DEFAULT_BOX, fd_step=FD_STEP,
                 max_iter=MAX_NEWTON_ITER):
    """Two-dimensional Newton with central-difference Jacobian.

    The former runtime route, kept as the test oracle for
    :func:`closed_form_roots`; no solver calls it.  Returns (x, converged,
    iterations, residual_norm).  Convergence: step norm < 1e-13 or residual
    norm < 1e-13.  Leaving the box |eps| <= box or a singular Jacobian
    counts as failure.
    """
    if len(funcs) != 2:
        raise PreconditionError(
            f"newton_solve is specialised to two conditions, got {len(funcs)}"
        )
    x = np.array(x0, dtype=float)

    def f_of(x_):
        return np.array([fn(x_[0], x_[1]) for fn in funcs])

    fx = f_of(x)
    for iteration in range(1, max_iter + 1):
        jac = np.column_stack([(f_of(x + dx) - f_of(x - dx)) / (2.0 * fd_step)
                               for dx in fd_step * np.eye(2)])
        det = jac[0, 0] * jac[1, 1] - jac[0, 1] * jac[1, 0]
        if abs(det) < 1e-300:
            return x, False, iteration, float(np.linalg.norm(fx))
        step = np.array([jac[1, 1] * fx[0] - jac[0, 1] * fx[1],
                         jac[0, 0] * fx[1] - jac[1, 0] * fx[0]]) / det
        x = x - step
        if np.max(np.abs(x)) > box:
            return x, False, iteration, float(np.linalg.norm(f_of(x)))
        fx = f_of(x)
        if np.linalg.norm(step) < STEP_TOL or np.linalg.norm(fx) < RESIDUAL_TOL:
            return x, True, iteration, float(np.linalg.norm(fx))
    return x, False, max_iter, float(np.linalg.norm(fx))


def seed_cells(funcs, box=DEFAULT_BOX, n=41):
    """Cell centres where every condition changes sign across the cell.

    A cell qualifies for a condition when one of its corners holds a value
    <= 0 and one a value >= 0 (:func:`_qualifies`).  A
    :meth:`TailoringProblem.condition` (marked by ``cells``) gives the mask
    itself: a diag one from its 2n line terms with no grid, an offdiag one from
    one call on the grid axes when first and one elementwise call on the four
    corners of each cell still kept when later.  Any other ``fn`` is called
    once on the grid axes, ``fn(xs[:, None], xs[None, :])``, which it must
    broadcast (the result is broadcast to (n, n)).  The scan stops once no
    cell is left.  Centres come in row-major order; a NaN value it reads raises
    :class:`NumericalError`, and no condition, an n that is not an integer >= 2,
    or a box that is not finite and positive, :class:`PreconditionError`.
    """
    _check_grid(n, 2, "grid nodes", box)
    xs = np.linspace(-box, box, n)
    centres = (xs[:-1] + xs[1:]) / 2.0
    rows = cols = None  # the kept cells' lower-left nodes, row-major
    for fn in funcs:
        marked = hasattr(fn, "cells")
        if rows is None:
            # flat indices: a 2-d np.nonzero of a 400 x 400 mask is ten times slower
            mask = fn.cells(xs) if marked else _grid_cells(fn, xs)
            rows, cols = np.divmod(np.flatnonzero(mask), n - 1)
        else:
            keep = fn.cells(xs, rows, cols) if marked else _grid_cells(fn, xs)[rows, cols]
            rows, cols = rows[keep], cols[keep]
        if not rows.size:
            break
    if rows is None:
        raise PreconditionError("need at least one condition to scan")
    return [(centres[i], centres[j]) for i, j in zip(rows, cols)]


def _check_grid(n, least, what, box):
    """Refuse an ``n`` that is not an integer >= ``least``, or a bad ``box``."""
    if not (isinstance(n, (int, np.integer)) and n >= least and 0.0 < box < np.inf):
        raise PreconditionError(
            f"need an integer n >= {least} {what} and box > 0, got {n!r}, {box!r}")


def _qualifies(values, any4):
    """The scan's rule: a corner is <= 0 and one is >= 0 (``any4``: node to cell mask).

    A NaN value, which is neither, raises :class:`NumericalError`."""
    if np.isnan(values).any():
        raise NumericalError("a scanned condition is NaN on the grid")
    return any4(values <= 0.0) & any4(values >= 0.0)


def _any_corner(mask):
    """Per cell of an (n, n) node mask, whether any of its four corners is set."""
    mask = mask[:-1] | mask[1:]
    return mask[:, :-1] | mask[:, 1:]


def _grid_cells(fn, xs):
    """The (n - 1, n - 1) mask of the cells that qualify for ``fn`` on xs x xs."""
    n = xs.size
    return _qualifies(np.broadcast_to(fn(xs[:, None], xs[None, :]), (n, n)), _any_corner)


def _corner_cells(fn, xs, rows, cols):
    """Which of the cells (rows, cols) qualify for ``fn``, from one call on their corners."""
    e1, e2 = xs[rows + [[0], [1], [1], [0]]], xs[cols + [[0], [0], [1], [1]]]
    corners = np.asarray(fn(e1.ravel(), e2.ravel())).reshape(e1.shape)
    return _qualifies(corners, partial(np.any, axis=0))


def find_roots(funcs, box=DEFAULT_BOX, seed_grid=41):
    """All distinct converged Newton roots seeded from the grid scan.

    The test oracle for :func:`closed_form_roots`; no solver calls it.
    Sorted by distance from the origin (nearest first).
    """
    roots = []
    for centre in seed_cells(funcs, box, seed_grid):
        x, converged, iters, res = newton_solve(funcs, centre, box)
        if not converged:
            continue
        if any(np.hypot(x[0] - r[0][0], x[1] - r[0][1]) < 1e-9 for r in roots):
            continue
        roots.append((x, iters, res))
    roots.sort(key=lambda entry: float(np.hypot(entry[0][0], entry[0][1])))
    return roots


# ---------------------------------------------------------------------------
# solutions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TailoringSolution:
    """Converged branch angles plus residual bookkeeping."""

    family: str
    system_name: str
    b_field: float
    eps1: float
    eps2: float
    converged: bool  # always True: a solver without a root raises
    iterations: int  # always 0: the roots are closed-form
    targets: tuple  # condition names driven to zero
    residuals: dict  # name -> value at the solution (targets and leftovers)
    kl_max: float  # max first-order KL residual at the solution (nan if unchecked)
    all_roots: tuple = field(default_factory=tuple)  # every root in the box, nearest first


def _solve(problem, target_names, leftover_names, box, verify_kl):
    roots = closed_form_roots(problem, target_names, box)
    if not roots:
        raise NumericalError(
            f"no tailoring root found for {problem.family} on "
            f"{problem.system.name} at B={problem.b_field:g} T"
        )
    x = roots[0]
    residuals = {name: problem.evaluate(name, x[0], x[1])
                 for name in (*target_names, *leftover_names)}
    kl_max = float("nan")
    if verify_kl:
        word = problem.codeword(x[0], x[1])
        errs = lift_to_electron_nuclear(
            standard_error_sets("firstorder-B", problem.system.i), problem.system
        )
        report = kl_residuals(word, errs)
        kl_max = report.max_residual
        if kl_max > 1e-10:
            raise VerificationError(
                f"root ({x[0]:.3e}, {x[1]:.3e}) fails first-order KL "
                f"verification: max residual {kl_max:.3e}"
            )
    return TailoringSolution(
        family=problem.family,
        system_name=problem.system.name,
        b_field=problem.b_field,
        eps1=float(x[0]),
        eps2=float(x[1]),
        converged=True,
        iterations=0,
        targets=tuple(target_names),
        residuals=residuals,
        kl_max=kl_max,
        all_roots=tuple(roots),
    )


def solve_full_tailoring_92(system, b_field, box=DEFAULT_BOX):
    """Zero both independent diagonal conditions of the spin-9/2 family.

    Branch supports of the 9/2 words differ by |dm| >= 3, so every
    first-order cross (offdiag) condition vanishes identically; closing
    ``diag-IZ`` and ``diag-IXIX`` closes the whole first-order set, which is
    verified here through an independent Knill-Laflamme evaluation
    (max residual < 1e-10, else :class:`VerificationError`).
    """
    problem = TailoringProblem("tailored-9/2", system, b_field)
    return _solve(problem,
                  ("diag-IZ", "diag-IXIX"),
                  ("diag-IYIY", "diag-IZIZ", "offdiag-IXIX", "offdiag-IXIY"),
                  box, verify_kl=True)


def solve_partial_tailoring_72(system, b_field, box=DEFAULT_BOX):
    """Zero ``diag-IZ`` and ``offdiag-IXIX`` for the spin-7/2 family.

    Two angles cannot close the full first-order set here; the solution
    reports the remaining conditions as leftovers: ``offdiag-IXIY`` (locked
    to offdiag-IXIX by the ladder structure of the supports, so zero at the
    root) and ``diag-IXIX`` (genuinely non-zero).
    """
    problem = TailoringProblem("distorted-7/2", system, b_field)
    return _solve(problem,
                  ("diag-IZ", "offdiag-IXIX"),
                  ("offdiag-IXIY", "diag-IXIX"),
                  box, verify_kl=False)


_SOLVERS = {
    "tailored-9/2": solve_full_tailoring_92,
    "distorted-7/2": solve_partial_tailoring_72,
}


def default_family(spin_i, distorted=True):
    """The code family for nuclear spin ``spin_i`` when none is named.

    ``distorted`` picks the branch-angle family (``distorted-7/2`` /
    ``tailored-9/2``) over the ideal one.  Only I = 7/2 and 9/2 have a
    family; any other spin raises :class:`PreconditionError`.
    """
    if abs(spin_i - 3.5) < 1e-9:
        return "distorted-7/2" if distorted else "ideal-7/2"
    if abs(spin_i - 4.5) < 1e-9:
        return "tailored-9/2" if distorted else "ideal-9/2"
    raise PreconditionError(f"no default code family for I={spin_i}; pass a family")


def tailoring_solver(family):
    """The root solver for ``distorted-7/2`` or ``tailored-9/2``."""
    if family not in _SOLVERS:
        raise PreconditionError(f"no tailoring solver for family {family!r}")
    return _SOLVERS[family]


def field_sweep_tailoring(system, b_values, family=None, mode="re-solve",
                          freeze_at=None, box=DEFAULT_BOX):
    """Tailoring solutions across a field range.

    mode="re-solve": solve at every field point.
    mode="frozen":   solve once at ``freeze_at`` (tesla) and re-evaluate the
                     frozen angles at every field point.
    Returns a list of dict rows (b_tesla, eps1_rad, eps2_rad, one column per
    condition residual, converged).  The residual columns are the solver's
    targets followed by its leftovers.
    """
    if family is None:
        family = default_family(system.i)
    solver = tailoring_solver(family)
    if mode not in ("re-solve", "frozen"):
        raise PreconditionError(f"unknown sweep mode {mode!r}")
    frozen = None
    if mode == "frozen":
        if freeze_at is None:
            raise PreconditionError("frozen mode needs freeze_at (tesla)")
        frozen = solver(system, freeze_at, box)
    rows = []
    for b in b_values:
        if frozen is None:
            sol = solver(system, b, box)
            residuals = sol.residuals
        else:
            sol = frozen
            problem = TailoringProblem(family, system, b)
            residuals = {name: problem.evaluate(name, sol.eps1, sol.eps2)
                         for name in sol.residuals}
        row = {"b_tesla": float(b), "eps1_rad": sol.eps1, "eps2_rad": sol.eps2}
        for name, value in residuals.items():
            row[f"residual_{name}"] = value
        row["converged"] = sol.converged
        rows.append(row)
    return rows


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

def _chains(segments):
    """Join segments (pairs of vertex ids) into ordered chains of vertex ids."""
    adjacency, pairs, used = {}, set(), []
    for a, b in segments:
        # a row of zero nodes that f <= 0 only touches gets each segment twice
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.add((a, b))
            adjacency.setdefault(a, []).append((b, len(used)))
            adjacency.setdefault(b, []).append((a, len(used)))
            used.append(False)
    chains = []
    # open chains first, each walked from an end (odd degree), then closed loops
    for start in [key for key in adjacency if len(adjacency[key]) % 2] + list(adjacency):
        chain = [start]
        while edges := adjacency[chain[-1]]:
            nb, edge = edges.pop(0)  # each node's next edge in order; used ones drop
            if not used[edge]:
                used[edge] = True
                chain.append(nb)
        if len(chain) > 1:
            chains.append(chain)
    return chains


def trace_zero_contour(fn, box=DEFAULT_BOX, step=DEFAULT_STEP):
    """Trace the zero set of a condition inside the square |eps| <= box.

    Marching squares on a uniform grid (cell size about ``step``) over the
    crossed edges, vertices and signs of one ``fn.line_zeros(xs)`` call, which
    a :meth:`TailoringProblem.condition` finds per grid line in closed form.
    The strict split f < 0 against f >= 0 gives every cell 0, 2 or 4 crossed
    edges: two are joined first to last in the order bottom, right, top, left,
    and a saddle cell's four are paired by the sign of ``fn`` at its centre.
    A vertex at an exactly-zero node is shared by every segment reaching it.
    The segments, in row-major cell order, join into chains by :func:`_chains`;
    returns one ordered polyline (array of shape (k, 2)) per chain.

    Raises :class:`PreconditionError` if ``box`` or ``step`` is not finite and
    positive or ``fn`` lacks ``line_zeros``, :class:`EmptyContourError` if no
    grid edge changes sign, and :class:`NumericalError` if the condition
    vanishes on essentially the whole box (its "contour" is not a curve).
    """
    if not (0.0 < box < np.inf and 0.0 < step < np.inf):
        raise PreconditionError(f"need box > 0 and step > 0, got {box!r}, {step!r}")
    if not hasattr(fn, "line_zeros"):
        raise PreconditionError("fn has no line_zeros; trace TailoringProblem.condition")
    n = max(3, int(np.ceil(2.0 * box / step)) + 1)
    xs = np.linspace(-box, box, n)
    edges, pts, zero, neg = fn.line_zeros(xs)
    vertex = np.arange(len(edges))
    if (zero >= 0).any():  # edges ending at one zero node share its first edge's vertex
        _, first, inverse = np.unique(np.where(zero >= 0, zero, -1 - vertex),
                                      return_index=True, return_inverse=True)
        vertex = first[inverse]
    # key 4 cell + side: an axis-0 edge is the bottom (0) of cell (i, j) and the top (2)
    # of (i, j - 1), an axis-1 edge the left (3) of (i, j) and the right (1) of (i - 1, j)
    axis, i, j = edges.T
    key = (i * (n - 1) + j) * 4 + 3 * axis
    key, fixed = np.concatenate((key, key - 2 - 4 * (n - 1) * axis)), np.where(axis, i, j)
    # the first cell of an edge on the last line, and the second on the first, are off grid
    inside = np.flatnonzero(np.concatenate((fixed < n - 1, fixed > 0)))
    order = inside[np.argsort(key[inside])]
    cell, edge = key[order] // 4, order % len(edges)
    # the strict split gives every cell 2 or 4 crossed edges, so sorted rows pair up
    if len(cell) % 2 or (cell[::2] != cell[1::2]).any():
        raise NumericalError("crossed edges do not pair up within grid cells")
    segments = vertex[edge].reshape(-1, 2)
    for s in np.flatnonzero(cell[2::2] == cell[:-2:2]).tolist():
        i, j = divmod(int(cell[2 * s]), n - 1)
        # saddle: pair so the curve separates signs; the bottom edge's lower node is (i, j)
        centre = fn((xs[i] + xs[i + 1]) / 2.0, (xs[j] + xs[j + 1]) / 2.0)
        if (centre < 0.0) != neg[edge[2 * s]]:  # (bottom, left), (right, top)
            segments[s:s + 2] = segments[s:s + 2].ravel()[[0, 3, 1, 2]].reshape(2, 2)
    segments = segments[segments[:, 0] != segments[:, 1]].tolist()  # not at one zero node
    if not segments:
        raise EmptyContourError("no zero crossing inside the box")
    return [pts[chain] for chain in _chains(segments)]


def scan_common_zero_cells(funcs, box=DEFAULT_BOX, n=DEFAULT_SCAN_CELLS):
    """Grid cells (centres) where every condition changes sign.

    A uniform n x n cell scan (on n + 1 grid nodes; see :func:`seed_cells`);
    used to test whether several conditions can vanish simultaneously inside
    the box.  An ``n`` that is not an integer >= 1 raises :class:`PreconditionError`.
    """
    _check_grid(n, 1, "cells", box)
    return seed_cells(funcs, box, n + 1)

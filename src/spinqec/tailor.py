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
tan^2 t1.  Both give principal angle pairs, which :func:`closed_form_roots`
alone expands into the branches in the box.  Contours are marching squares on
the sign changes of the condition at the grid nodes, with vertices at each grid
line's closed-form roots, from one evaluation on the grid axes extended by the
fit angles (:meth:`TailoringProblem.line_zeros`).  The common-cell scan keeps a
cell when one of its corners is <= 0 and one is >= 0 (:func:`_qualifies`),
with no grid for a diag condition (:meth:`TailoringProblem.cells`).
``newton_solve`` and ``find_roots``, the former Newton route, remain as the
tests' oracle.
"""

import math
from dataclasses import dataclass, field
from functools import lru_cache, partial, reduce
from itertools import accumulate
from operator import sub
from types import MappingProxyType

import numpy as np

from .codewords import _TWO_LEVEL, branch_amplitudes, check_nuclear_spin, dressed_word, \
    first_order_errors, kl_residuals
from .linalg import NumericalError, PreconditionError
from .spin import manifold_states, spin_operators

DEFAULT_BOX = 0.05
DEFAULT_STEP = 0.0025  # marching-squares cell size of trace_zero_contour
DEFAULT_SCAN_CELLS = 400  # cells per side of scan_common_zero_cells
MAX_GRID_NODES = 1001  # nodes per side of a contour or scan grid
MAX_BRANCHES = 100  # branches eps = t + k pi - theta0 a box may span, 2 box / pi
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

#: The tailored families: family -> (target conditions, leftovers, KL-verified,
#: the conditions ``spinqec contour`` draws and scans).
TAILORING = MappingProxyType({
    "tailored-9/2": (("diag-IZ", "diag-IXIX"),
                     ("diag-IYIY", "diag-IZIZ", "offdiag-IXIX", "offdiag-IXIY"), True,
                     ("diag-IZ", "diag-IXIX")),
    "distorted-7/2": (("diag-IZ", "offdiag-IXIX"), ("offdiag-IXIY", "diag-IXIX"), False,
                      ("diag-IZ", "offdiag-IXIX", "offdiag-IXIY")),
})


class TailoringProblem:
    """Precomputed branch-basis sandwiches of a :data:`TAILORING` family, a
    SpinSystem and a field in tesla, for fast condition evaluation.

    Problems at one (family, system, field) share one labelled eigensolve and
    the six sandwiches of :data:`CONDITIONS`, built once per field (a small
    LRU cache, :func:`_field_setup`) from the condition operators, which are
    stacked once per nuclear spin, in two steps: conj(basis) O, then its
    product with the basis.  That keeps the product order, and so the bits,
    of one three-operand einsum; the shared arrays are read-only.
    """

    def __init__(self, family, system, b_field):
        if family not in TAILORING:
            raise PreconditionError(
                f"tailoring applies to the families {', '.join(TAILORING)}, not {family!r}")
        check_nuclear_spin(family, system)
        _, self.theta0, _, _, self.sign1 = _TWO_LEVEL[family]
        self.family = family
        self.system = system
        self.b_field = float(b_field)
        self._manifold, self._blocks = _field_setup(family, system, self.b_field)

    def _sandwiches(self, name):
        """(kind, m00, m11, m01) of condition ``name``, from the field's shared map."""
        if name not in CONDITIONS:
            raise PreconditionError(
                f"unknown condition {name!r}; the conditions are {', '.join(CONDITIONS)}")
        return self._blocks[name]

    def evaluate(self, name, eps1, eps2):
        """Evaluate one condition, in real arithmetic, on broadcastable eps1/eps2."""
        e1, e2 = np.asarray(eps1, dtype=float), np.asarray(eps2, dtype=float)
        z = self._value(name, branch_amplitudes(self.family, e1, e2))
        return float(z) if np.ndim(z) == 0 else z

    def _value(self, name, amplitudes):
        """Condition ``name`` from the word amplitudes (:func:`branch_amplitudes`),
        so that one amplitude pass serves every condition at the same angles."""
        kind, m00, m11, m01 = self._sandwiches(name)
        return (sub(*_diag_lines(m00, m11, *amplitudes)) if kind == "diag"
                else _offdiag_value(m01, *amplitudes))

    def cells(self, name, xs, rows=None, cols=None):
        """The lower nodes (rows, cols), row-major, of the cells of xs x xs (or of
        the given cells) that qualify for ``name`` (see :func:`_qualifies`).

        Every route reads the word amplitudes on the axis nodes from
        :func:`_amplitudes`, one trig pass per (family, axis) in the process.
        On the grid a diag condition is g(xs[i]) - h(xs[j]), and the IEEE
        difference of two finite numbers is < 0 exactly when g < h and 0 exactly
        when g == h; so on the full grid the rule is the same predicate in
        separable form: min g <= max h and max g >= min h over the cell, read
        from the 2n line terms (:func:`_range_cells`), which must be finite (else
        NumericalError).  Given cells take g[i] - h[j] at their corners.  An
        offdiag condition is evaluated on the grid axes, or on the given cells'
        corners.
        """
        kind, m00, m11, _ = self._sandwiches(name)
        c1, s1, c2, s2 = _amplitudes(self.family, np.asarray(xs, dtype=float).tobytes())
        if kind == "diag":
            g, h = _diag_lines(m00, m11, c1, s1, c2, s2)
            if not (np.isfinite(g).all() and np.isfinite(h).all()):
                raise NumericalError(f"{name} is NaN or infinite on the scan grid")
            if rows is None:
                return _range_cells(np.minimum(g[:-1], g[1:]), np.maximum(g[:-1], g[1:]), h)
            keep = _corner_cells(lambda i, j: g[i] - h[j], rows, cols)
        elif rows is None:
            return _grid_cells(self._value(name, (c1[:, None], s1[:, None], c2, s2)))
        else:
            keep = _corner_cells(lambda i, j: self._value(name, (c1[i], s1[i], c2[j], s2[j])),
                                 rows, cols)
        return rows[keep], cols[keep]

    def line_zeros(self, name, xs):
        """The grid edges that ``name`` crosses on xs x xs (xs ascending, evenly spaced).

        One :meth:`_value` call evaluates ``name`` on the grid axes extended by
        the fit angles, xs and kt = 0, pi/2, pi, as an (n + 3) x (n + 3) array,
        from the axis amplitudes that :func:`_line_axis` keeps.  Its n x n block
        is f at every node; its fit-angle blocks give each of the 2n grid lines
        its closed form f = alpha + a cos kt + b sin kt in the moving angle
        t = theta0 + eps (k = 2 diag, 1 offdiag).  An edge is crossed where f
        changes sign between its ends on the split f < 0 against f >= 0 (a
        fold, two roots in one edge, is not).  Its vertex is at its zero end
        node, else at the root atan2(b, a) +- arccos(-alpha / hypot(a, b)) +
        2 pi m nearest its midpoint, clipped into the edge.  Returns (edges,
        vertices, zero, negative), per crossed edge the moving axis and lower
        node (i, j) (k x 3; axis 0 runs to (i + 1, j), axis 1 to (i, j + 1)),
        the vertex (k x 2), i n + j of a zero end node or -1, and f(i, j) < 0.
        A condition that vanishes on the box, or is NaN or infinite on a line,
        raises NumericalError; xs that :func:`_check_grid` refuses (its box half
        the span of xs), or whose nodes theta0 + xs do not all differ in
        floating point, raise PreconditionError first.
        """
        # the bound on n also bounds the (n + 3) x (n + 3) evaluation below
        _check_grid(xs.size, 2, MAX_GRID_NODES, "grid nodes", float(xs[-1] - xs[0]) / 2.0)
        k = 2.0 if self._sandwiches(name)[0] == "diag" else 1.0
        n, tau, raw = xs.size, 2.0 * np.pi, np.asarray(xs, dtype=float).tobytes()
        amplitudes, distinct = _line_axis(self.family, k, raw)
        grid = self._value(name, amplitudes)
        # rows l < n run along eps1 at eps2 = xs[l], the rest along eps2
        f0, f1, f2 = np.hstack((grid[n:, :n], grid[:n, n:].T))
        alpha, a, b = (f0 + f2) / 2.0, (f0 - f2) / 2.0, f1 - (f0 + f2) / 2.0
        radius = np.hypot(a, b)
        size = np.abs(alpha) + radius  # bounds |f| along each line
        if not np.isfinite(size).all():
            raise NumericalError(f"{name} is NaN or infinite on a grid line")
        if np.count_nonzero(size < 1e-13) > 0.9 * 2 * n:
            raise NumericalError(
                "condition vanishes identically over the box; no curve to trace")
        if not distinct:
            raise PreconditionError(f"nodes theta0 + eps coincide for |eps| <= {xs[-1]:g}")
        value = np.concatenate((grid[:n, :n].T, grid[:n, :n]))
        neg = value < 0.0
        line, lo = np.divmod(np.flatnonzero(neg[:, :-1] != neg[:, 1:]), n - 1)
        value, neg = value[line, lo + np.array([[0], [1]])], neg[line, lo]
        half = np.arccos(np.clip(-alpha[line] / np.maximum(radius[line], 1e-300), -1.0, 1.0))
        roots = np.arctan2(b[line], a[line]) + np.multiply.outer((-1.0, 1.0), half)
        ends = xs[lo], xs[lo + 1]
        mid = k * (self.theta0 + (ends[0] + ends[1]) / 2.0)
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
        return edges.T, pts.T, zero, neg

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
        # the supports make these exact zeros, and 0 never exceeds the scale
        zero = max(abs(z) for z in zeros)
        if zero and zero > 1e-12 * np.abs((m00, m11, m01)).max():
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
        return dressed_word(self.family, self._manifold, eps1, eps2)


@lru_cache(maxsize=8)
def _condition_ops(i):
    """The nuclear operators of the :data:`CONDITIONS`, in table order, stacked
    (6, 2i + 1, 2i + 1) and read-only: they do not depend on the field."""
    nuclear = dict(zip(("IX", "IY", "IZ"), spin_operators(i)))
    ops = np.stack([reduce(np.matmul, (nuclear[f] for f in factors))
                    for _, factors, _ in CONDITIONS.values()])
    ops.flags.writeable = False
    return ops


@lru_cache(maxsize=8)
def _field_setup(family, system, b_field):
    """The labelled m_S = -1/2 states and the map of each condition name to its
    (kind, m00, m11, m01) of ``family`` at one field, all read-only."""
    _, _, sup0, sup1, _ = _TWO_LEVEL[family]
    manifold = manifold_states(system, b_field)
    basis = np.column_stack([manifold[m].vector for m in (*sup0, *sup1)]).reshape(
        system.dim_e, system.dim_n, 4)
    # every condition operator over the stacked basis in two steps, conj(basis) O
    # and then its product with basis: the product order of the three-operand
    # einsum, and so its bits (conj(basis) (O basis) moves last bits)
    bra_ops = np.einsum("eia,cij->ceaj", basis.conj(), _condition_ops(system.i))
    sandwiches = np.einsum("ceaj,ejb->cab", bra_ops, basis)
    blocks = {}
    for m, (name, (kind, _, part)) in zip(sandwiches, CONDITIONS.items()):
        m = getattr(m, part)  # blocks of the 4 x 4 sandwich
        m.flags.writeable = False
        blocks[name] = (kind, m[:2, :2], m[2:, 2:], m[:2, 2:])
    return manifold, MappingProxyType(blocks)


@lru_cache(maxsize=8)
def _grid(box, n):
    """``np.linspace(-box, box, n)``, read-only: a contour or scan grid axis."""
    xs = np.linspace(-box, box, n)
    xs.flags.writeable = False
    return xs


@lru_cache(maxsize=8)
def _amplitudes(family, raw):
    """:func:`branch_amplitudes` of ``family`` with both angles on the axis whose
    float64 bytes are ``raw``, as read-only (c1, s1, c2, s2); they depend on no field."""
    amplitudes = branch_amplitudes(family, np.frombuffer(raw), np.frombuffer(raw))
    for a in amplitudes:
        a.flags.writeable = False
    return amplitudes


@lru_cache(maxsize=8)
def _line_axis(family, k, raw):
    """For :meth:`TailoringProblem.line_zeros` on the grid axis with float64
    bytes ``raw``: the word amplitudes on the axis extended by the fit angles kt
    = 0, pi/2, pi, as (c1, s1) down and (c2, s2) across it, read-only; and
    whether the nodes theta0 + xs all differ in floating point."""
    theta0, xs = _TWO_LEVEL[family][1], np.frombuffer(raw)
    axis = np.concatenate((xs, np.array([0.0, np.pi / 2.0, np.pi]) / k - theta0))
    c1, s1, c2, s2 = _amplitudes(family, axis.tobytes())
    return (c1[:, None], s1[:, None], c2[None, :], s2[None, :]), bool(
        (np.diff(theta0 + xs) > 0.0).all())


# ---------------------------------------------------------------------------
# closed-form roots
# ---------------------------------------------------------------------------

def _branches(t, box, theta0):
    """Every eps = t + k pi - theta0 (k integer) with |eps| <= box, in float arithmetic."""
    t = float(t)
    lo, hi = math.ceil((theta0 - box - t) / np.pi), math.floor((theta0 + box - t) / np.pi)
    return [e for e in (t + k * np.pi - theta0 for k in range(lo, hi + 1)) if abs(e) <= box]


def _diag_pair_roots(problem, names):
    """Two diag conditions: (+-arccos(u1) / 2, +-arccos(u2) / 2), u_k = cos 2t_k solved."""
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
    h1, h2 = (np.arccos(u) / 2.0 for u in cos2t)
    return [(s1 * h1, s2 * h2) for s1 in (-1.0, 1.0) for s2 in (-1.0, 1.0)]


def _mixed_pair_roots(problem, diag_name, offdiag_name):
    """A diag and an offdiag condition: tan t2 = kappa tan t1, then a quadratic.

    With x = tan^2 t1, cos 2t1 = (1 - x) / (1 + x) and cos 2t2 =
    (1 - kappa^2 x) / (1 + kappa^2 x); clearing the (positive) denominators
    leaves A x^2 + B x + C = 0; each real tan t1 = +-sqrt(x) gives the principal
    pair (arctan tan t1, arctan kappa tan t1).  Roots with cos t1 = 0 need A = 0
    exactly and are not listed.
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
    tans = {sign * np.sqrt(x) for x in tan_sq if 0.0 <= x < np.inf for sign in (-1.0, 1.0)}
    return [(np.arctan(tan1), np.arctan(kappa * tan1)) for tan1 in tans]


def closed_form_roots(problem, names, box=DEFAULT_BOX):
    """Every common root of the two conditions ``names`` with |eps1|, |eps2| <= box.

    Each distinct angle of the pair solvers' principal pairs (t1, t2) is
    expanded once into its branches (:func:`_branches`).  Sorted by distance
    from the origin (nearest first); an empty list when the solution's cosines
    leave [-1, 1] or no branch lies in the box.  A box :func:`_check_box`
    refuses, or ``names`` not two diag conditions or a diag then an offdiag one,
    raise :class:`PreconditionError`; near-dependent diag conditions (the sine
    between their 2 x 2 rows below 1e-12), or an offdiag one that vanishes or
    factorises (p or q below 1e-12 of the other), :class:`DegenerateConditionsError`;
    see :meth:`TailoringProblem.coefficients` for :class:`StructuralZeroError`.
    """
    _check_box(box)
    kinds = [problem._sandwiches(name)[0] for name in names]
    if kinds == ["diag", "diag"]:
        pairs = _diag_pair_roots(problem, names)
    elif kinds == ["diag", "offdiag"]:
        pairs = _mixed_pair_roots(problem, *names)
    else:
        raise PreconditionError(f"no closed form for the conditions {tuple(names)}")
    eps = {t: _branches(t, box, problem.theta0) for t in set().union(*pairs)}
    roots = {(e1, e2) for t1, t2 in pairs for e1 in eps[t1] for e2 in eps[t2]}
    return sorted(roots, key=lambda r: (float(np.hypot(*r)), r))


# ---------------------------------------------------------------------------
# Newton iteration: the tests' oracle for the closed form
# ---------------------------------------------------------------------------

def newton_solve(funcs, x0, box=DEFAULT_BOX):
    """Two-dimensional Newton with central-difference Jacobian (step :data:`FD_STEP`).

    The former runtime route, kept as the test oracle for
    :func:`closed_form_roots`; no solver calls it.  Returns (x, converged,
    iterations, residual_norm).  Convergence: step norm < 1e-13 or residual
    norm < 1e-13 within :data:`MAX_NEWTON_ITER` iterations.  Leaving the box
    |eps| <= box or a singular Jacobian counts as failure.
    """
    if len(funcs) != 2:
        raise PreconditionError(
            f"newton_solve is specialised to two conditions, got {len(funcs)}")
    x = np.array(x0, dtype=float)

    def f_of(x_):
        return np.array([fn(x_[0], x_[1]) for fn in funcs])

    fx = f_of(x)
    for iteration in range(1, MAX_NEWTON_ITER + 1):
        jac = np.column_stack([(f_of(x + dx) - f_of(x - dx)) / (2.0 * FD_STEP)
                               for dx in FD_STEP * np.eye(2)])
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
    return x, False, MAX_NEWTON_ITER, float(np.linalg.norm(fx))


def seed_cells(funcs, box=DEFAULT_BOX, n=41):
    """Cell centres where every condition changes sign across the cell.

    A cell qualifies for a condition when one of its corners is <= 0 and one
    >= 0 (:func:`_qualifies`).  A :meth:`TailoringProblem.condition` lists its
    cells itself, with no grid for a diag one (see its ``cells``); any other
    ``fn`` is called once on the grid axes, ``fn(xs[:, None], xs[None, :])``,
    broadcast to (n, n).  The scan stops once no cell is left.  Centres come in
    row-major order; a NaN value or diag line term raises
    :class:`NumericalError`, and no condition, an n that is not an integer in
    [2, :data:`MAX_GRID_NODES`], or a box :func:`_check_box` refuses,
    :class:`PreconditionError`.
    """
    _check_grid(n, 2, MAX_GRID_NODES, "grid nodes", box)
    xs = _grid(float(box), n)
    centres = (xs[:-1] + xs[1:]) / 2.0
    rows = cols = None  # the kept cells' lower-left nodes, row-major
    for fn in funcs:
        if hasattr(fn, "cells"):
            rows, cols = fn.cells(xs, rows, cols)
        else:
            rows, cols = _grid_cells(
                np.broadcast_to(fn(xs[:, None], xs[None, :]), (n, n)), rows, cols)
        if not rows.size:
            break
    if rows is None:
        raise PreconditionError("need at least one condition to scan")
    return [(centres[i], centres[j]) for i, j in zip(rows, cols)]


def _check_grid(n, least, most, what, box):
    """Refuse an ``n`` that is not an integer in [least, most], or a bad ``box``."""
    _check_box(box)
    if not (isinstance(n, (int, np.integer)) and least <= n <= most):
        raise PreconditionError(
            f"need an integer {least} <= n <= {most} {what}, got {n!r}, box {box!r}")


def _check_box(box):
    """Refuse a box that is not positive or spans more than MAX_BRANCHES branches."""
    if not 0.0 < 2.0 * box / np.pi <= MAX_BRANCHES:
        raise PreconditionError(f"need box > 0 spanning at most {MAX_BRANCHES} branches "
                                f"(2 box / pi), got {box!r}")


def _qualifies(values, any4):
    """The scan's rule: a corner is <= 0 and one is >= 0 (``any4``: node to cell
    mask).  A NaN value, which is neither, raises :class:`NumericalError`."""
    if np.isnan(values).any():
        raise NumericalError("a scanned condition is NaN on the grid")
    return any4(values <= 0.0) & any4(values >= 0.0)


def _any_corner(mask):
    """Per cell of an (n, n) node mask, whether any of its four corners is set."""
    mask = mask[:-1] | mask[1:]
    return mask[:, :-1] | mask[:, 1:]


def _grid_cells(values, rows=None, cols=None):
    """As :meth:`TailoringProblem.cells`, from a condition's (n, n) node values."""
    mask = _qualifies(values, _any_corner)
    if rows is None:  # flat indices: a 2-d nonzero of a 400 x 400 mask is ten times slower
        return np.divmod(np.flatnonzero(mask), mask.shape[1])
    keep = mask[rows, cols]
    return rows[keep], cols[keep]


def _corner_cells(fn, rows, cols):
    """Which cells (rows, cols) qualify for ``fn`` of their corners' nodes (i, j)."""
    return _qualifies(fn(rows + [[0], [1], [1], [0]], cols + [[0], [0], [1], [1]]),
                      partial(np.any, axis=0))


def _diag_lines(m00, m11, c1, s1, c2, s2):
    """A diag condition's line terms (g, h) from the word amplitudes; it is g - h."""
    return (c1 * c1 * m00[0, 0] + c1 * s1 * (m00[0, 1] + m00[1, 0]) + s1 * s1 * m00[1, 1],
            c2 * c2 * m11[0, 0] + c2 * s2 * (m11[0, 1] + m11[1, 0]) + s2 * s2 * m11[1, 1])


def _offdiag_value(m01, c1, s1, c2, s2):
    """An offdiag condition's value from the word amplitudes (:func:`branch_amplitudes`)."""
    return (c1 * c2 * m01[0, 0] + c1 * s2 * m01[0, 1]
            + s1 * c2 * m01[1, 0] + s1 * s2 * m01[1, 1])


def _range_cells(g_lo, g_hi, h):
    """Row-major lower nodes (rows, cols) of the cells with g_lo[i] <= max(h[j], h[j + 1])
    and g_hi[i] >= min(h[j], h[j + 1]).  On each maximal monotone run of h (a flat
    step joins either direction) a row's columns form one range, which two
    searchsorted calls find for all rows; a falling run is the rising run of -h
    with the bounds (-g_hi, -g_lo)."""
    step = np.sign(np.diff(h))
    turn = np.flatnonzero(step)  # the cells that are not flat
    starts = turn[1:][step[turn[1:]] != step[turn[:-1]]].tolist()
    # a run rises or falls as its first non-flat cell; an all-flat h is one rising run
    ups = step[[turn[0] if turn.size else 0, *starts]] >= 0.0
    bounds, lo, hi = [0, *starts, h.size - 1], [], []
    for c0, c1, up in zip(bounds, bounds[1:], ups):
        low, high, v = (g_lo, g_hi, h) if up else (-g_hi, -g_lo, -h)
        lo.append(c0 + np.searchsorted(v[c0 + 1:c1 + 1], low, side="left"))
        hi.append(c0 + np.searchsorted(v[c0:c1], high, side="right"))
    # one range per (row, run), row-major, so each row's columns ascend
    lo, hi = np.ravel(lo, order="F"), np.ravel(hi, order="F")
    count = np.maximum(hi - lo, 0)
    rows = np.repeat(np.arange(lo.size) // ups.size, count)
    return rows, np.arange(rows.size) + np.repeat(lo - (np.cumsum(count) - count), count)


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


def solve_tailoring(family, system, b_field, box=DEFAULT_BOX):
    """Close ``family``'s target conditions of :data:`TAILORING` at one field.

    The root is the one of :func:`closed_form_roots` nearest the origin; the
    residuals are the targets' and then the leftovers' values there.  A
    KL-verified family's root is checked by an independent first-order
    Knill-Laflamme evaluation (max residual < 1e-10, else
    :class:`VerificationError`); otherwise ``kl_max`` is nan.  A family
    outside :data:`TAILORING` raises :class:`PreconditionError`, and no root
    in the box :class:`NumericalError`.
    """
    problem = TailoringProblem(family, system, b_field)
    target_names, leftover_names, verify_kl, _ = TAILORING[family]
    roots = closed_form_roots(problem, target_names, box)
    if not roots:
        raise NumericalError(f"no tailoring root found for {problem.family} on "
                             f"{problem.system.name} at B={problem.b_field:g} T")
    x = roots[0]
    amplitudes = branch_amplitudes(family, x[0], x[1])
    residuals = {name: float(problem._value(name, amplitudes))
                 for name in (*target_names, *leftover_names)}
    kl_max = float("nan")
    if verify_kl:
        kl_max = kl_residuals(problem.codeword(x[0], x[1]),
                              first_order_errors(problem.system)).max_residual
        if kl_max > 1e-10:
            raise VerificationError(f"root ({x[0]:.3e}, {x[1]:.3e}) fails first-order KL "
                                    f"verification: max residual {kl_max:.3e}")
    return TailoringSolution(
        family=problem.family, system_name=problem.system.name, b_field=problem.b_field,
        eps1=float(x[0]), eps2=float(x[1]), converged=True, iterations=0,
        targets=target_names, residuals=residuals, kl_max=kl_max, all_roots=tuple(roots))


def solve_full_tailoring_92(system, b_field, box=DEFAULT_BOX):
    """Zero both independent diagonal conditions of the spin-9/2 family.

    Branch supports of the 9/2 words differ by |dm| >= 3, so every offdiag
    condition vanishes identically, and closing ``diag-IZ`` and ``diag-IXIX``
    closes the whole first-order set (Knill-Laflamme verified, else
    :class:`VerificationError`).
    """
    return solve_tailoring("tailored-9/2", system, b_field, box)


def solve_partial_tailoring_72(system, b_field, box=DEFAULT_BOX):
    """Zero ``diag-IZ`` and ``offdiag-IXIX`` for the spin-7/2 family.

    Two angles cannot close the full first-order set here; the leftovers are
    ``offdiag-IXIY`` (locked to offdiag-IXIX by the ladder structure of the
    supports, so zero at the root) and ``diag-IXIX`` (genuinely non-zero).
    """
    return solve_tailoring("distorted-7/2", system, b_field, box)


def field_sweep_tailoring(system, b_values, family, freeze_at=None, box=DEFAULT_BOX):
    """Tailoring solutions of ``family`` across a field range.

    ``freeze_at`` is the one switch: ``None`` solves at every field point, and
    a field in tesla solves once there and re-evaluates the frozen angles at
    every field point.
    Returns a list of dict rows (b_tesla, eps1_rad, eps2_rad, one column per
    condition residual, converged).  The residual columns are the solver's
    targets followed by its leftovers.
    """
    if family not in TAILORING:
        raise PreconditionError(f"no tailoring solver for family {family!r}")
    frozen = None if freeze_at is None else solve_tailoring(family, system, freeze_at, box)
    rows = []
    for b in b_values:
        sol = frozen or solve_tailoring(family, system, b, box)
        problem = TailoringProblem(family, system, b)
        amplitudes = branch_amplitudes(family, sol.eps1, sol.eps2)
        rows.append({"b_tesla": float(b), "eps1_rad": sol.eps1, "eps2_rad": sol.eps2,
                     **{f"residual_{name}": float(problem._value(name, amplitudes))
                        for name in sol.residuals},
                     "converged": sol.converged})
    return rows


# ---------------------------------------------------------------------------
# contours
# ---------------------------------------------------------------------------

def _distinct_segments(segments):
    """``segments`` (k x 2 vertex ids) with each segment repeated either way kept
    once, at its first occurrence (a row of zero nodes that f <= 0 only touches
    gives each segment twice)."""
    low, high = np.sort(segments, axis=1).T
    _, first = np.unique(low * (high.max(initial=0) + 1) + high, return_index=True)
    return segments[np.sort(first)]


def _chains(segments):
    """Join distinct segments, a (k, 2) array of non-negative vertex ids, into
    ordered chains.

    A stable sort of the ends lists each vertex's incidences in segment order
    (CSR rows); a walk leaves each vertex by its first unused segment and ends
    at one with none.  Walks start at odd-degree vertices, then at every vertex,
    each in order of first appearance.
    """
    ends = np.asarray(segments, dtype=np.int64).ravel()  # segment s: ends[2 s], ends[2 s + 1]
    degree = np.bincount(ends).tolist()
    stop = list(accumulate(degree))
    cursor = [0, *stop[:-1]]
    at, ends, chains = np.argsort(ends, kind="stable").tolist(), ends.tolist(), []
    order, left = list(dict.fromkeys(ends)), len(ends) // 2
    used = [False] * left
    for v in [u for u in order if degree[u] % 2] + order:
        if not left:
            break
        chain = [v]
        while cursor[v] < stop[v]:  # at[cursor[v]]: v's next incidence, 2 s + side
            end = at[cursor[v]]
            cursor[v] += 1
            if not used[end >> 1]:
                used[end >> 1] = True
                left -= 1
                v = ends[end ^ 1]
                chain.append(v)
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
    A vertex at an exactly-zero node is shared by every segment reaching it,
    and so only there can a segment repeat (:func:`_distinct_segments`).  The
    segments, in row-major cell order, join into chains by :func:`_chains`;
    returns one ordered polyline (array of shape (k, 2)) per chain.

    Raises :class:`PreconditionError` if :func:`_check_box` refuses ``box``,
    ``step`` is not positive or gives more than :data:`MAX_GRID_NODES` nodes, or
    ``fn`` lacks ``line_zeros``, :class:`EmptyContourError` if no grid edge
    changes sign, and :class:`NumericalError` if the condition is NaN or
    infinite on a grid line, or vanishes on nearly the whole box (no curve to trace).
    """
    _check_box(box)
    if not (0.0 < step < np.inf and 2.0 * box / step <= MAX_GRID_NODES - 1):
        raise PreconditionError(f"need step > 0 giving at most {MAX_GRID_NODES} grid "
                                f"nodes, got {step!r} for box {box!r}")
    if not hasattr(fn, "line_zeros"):
        raise PreconditionError("fn has no line_zeros; trace TailoringProblem.condition")
    n = max(3, int(np.ceil(2.0 * box / step)) + 1)
    xs = _grid(float(box), n)
    edges, pts, zero, neg = fn.line_zeros(xs)
    vertex, merged = np.arange(len(edges)), (zero >= 0).any()
    if merged:  # edges ending at one zero node share its first edge's vertex
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
    # distinct edges have distinct vertices, so only merged ones can give a
    # segment at one zero node or a segment twice
    if merged:
        segments = _distinct_segments(segments[segments[:, 0] != segments[:, 1]])
    if not segments.size:
        raise EmptyContourError("no zero crossing inside the box")
    return [pts[chain] for chain in _chains(segments)]


def scan_common_zero_cells(funcs, box=DEFAULT_BOX, n=DEFAULT_SCAN_CELLS):
    """Grid cells (centres) where every condition changes sign.

    A uniform n x n cell scan (on n + 1 grid nodes; see :func:`seed_cells`);
    used to test whether several conditions can vanish simultaneously inside
    the box.  An ``n`` that is not an integer in [1, :data:`MAX_GRID_NODES` - 1]
    raises :class:`PreconditionError`.
    """
    _check_grid(n, 1, MAX_GRID_NODES - 1, "cells", box)
    return seed_cells(funcs, box, n + 1)

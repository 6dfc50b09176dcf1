"""Angle tailoring: residual conditions, closed-form roots, contour tracing.

Root coordinates and leftover residuals were frozen from solver runs that
were cross-checked against a numpy.linalg.eigh reconstruction of the same
dressed words.
"""

from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinqec.spin
import spinqec.tailor
from spinqec.codewords import _TWO_LEVEL, expectation, make_codeword, offdiag_element
from spinqec.linalg import NumericalError, PreconditionError
from spinqec.spin import get_system, manifold_states, spin_operators
from spinqec.tailor import (
    CONDITIONS,
    DegenerateConditionsError,
    EmptyContourError,
    StructuralZeroError,
    TailoringProblem,
    _chains,
    _field_setup,
    closed_form_roots,
    field_sweep_tailoring,
    find_roots,
    newton_solve,
    scan_common_zero_cells,
    seed_cells,
    solve_full_tailoring_92,
    solve_partial_tailoring_72,
    trace_zero_contour,
)

# frozen solver roots (eps1, eps2) and the residual left over by design
PARTIAL_72_ROOTS = {
    0.5: (-3.055034798e-05, 2.965443521e-05, 7.770234310e-06),
    1.0: (-7.578501164e-06, 7.467957585e-06, 9.853316278e-07),
    2.0: (-1.887521610e-06, 1.873796714e-06, 1.240443028e-07),
}
BI_ROOT_1T = (-2.396351951977e-03, 1.773512305037e-03)
CONTOUR_FTOL = 1e-10


def _bisect_edges(fn, lo, hi, f_lo):
    """Bisect the edges lo[r]-hi[r] together to vertices with |f| < 1e-10.

    The former runtime route, kept as the oracle for the closed-form vertices.
    Each step evaluates ``fn`` once on every row's midpoint (``lo`` only moves
    to a midpoint of its sign); a row's vertex is its first midpoint with
    |f| < 1e-10, and a row still open after 200 steps raises NumericalError.
    """
    out = np.empty_like(lo)
    neg_lo = f_lo < 0.0
    open_rows = np.ones(len(lo), dtype=bool)
    for _ in range(200):
        mid = (lo + hi) / 2.0
        f_mid = np.asarray(fn(mid[:, 0], mid[:, 1]), dtype=float)
        done = open_rows & (np.abs(f_mid) < CONTOUR_FTOL)
        out[done] = mid[done]
        open_rows &= ~done
        if not open_rows.any():
            return out
        same = (neg_lo == (f_mid < 0.0))[:, None]
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    raise NumericalError("edge bisection failed to reach |f| < 1e-10")


def _edge_crossings(g):
    """The edges of grid ``g`` that the zero set crosses, as masks ``h`` and ``v``.

    ``h[i, j]`` is the edge (i, j)-(i+1, j), ``v[i, j]`` the edge (i, j)-(i, j+1);
    one is crossed when an end is < 0 and the other >= 0 (the strict split).
    """
    neg = g < 0.0
    return neg[:-1, :] != neg[1:, :], neg[:, :-1] != neg[:, 1:]


def _grid_line_zeros(fn, xs, vertices_of):
    """A ``line_zeros`` from the dense grid on broadcast axes and ``_edge_crossings``.

    ``vertices_of(lo, hi, f_lo)`` places the vertices of the crossed edges
    without an exactly-zero end; an edge with one gets that node as its vertex.
    """
    n = xs.size
    g = np.broadcast_to(np.asarray(fn(xs[:, None], xs[None, :]), dtype=float), (n, n))
    if np.mean(np.abs(g) < 1e-13) > 0.9:
        raise NumericalError(
            "condition vanishes identically over the box; no curve to trace")
    h, v = _edge_crossings(g)
    lo = np.concatenate((np.argwhere(h), np.argwhere(v)))
    axis = np.repeat([0, 1], (h.sum(), v.sum()))
    hi = lo + np.column_stack((1 - axis, axis))
    f_lo, f_hi = g[tuple(lo.T)], g[tuple(hi.T)]
    node = np.where((f_lo == 0.0)[:, None], lo, hi)
    at_node = (f_lo == 0.0) | (f_hi == 0.0)
    pts = xs[node]
    pts[~at_node] = vertices_of(xs[lo[~at_node]], xs[hi[~at_node]], f_lo[~at_node])
    zero = np.where(at_node, node[:, 0] * n + node[:, 1], -1)
    return np.column_stack((axis, lo)), pts, zero, f_lo < 0.0


def _bisected(fn):
    """``fn`` with a ``line_zeros`` that grids and bisects, so any function traces."""
    def traced(x, y):
        return fn(x, y)

    traced.line_zeros = lambda xs: _grid_line_zeros(
        fn, xs, lambda lo, hi, f_lo: _bisect_edges(fn, lo, hi, f_lo))
    return traced


def _edge_zeros(problem, name, lo, hi):
    """The zero of condition ``name`` on each edge from lo[r] up to hi[r] (k x 2).

    The former per-edge closed form, kept for the dense oracle.  Along an edge
    one angle moves; in t = theta0 + eps the condition is alpha + a cos kt +
    b sin kt (k = 2 diag, 1 offdiag), and evaluations at kt = 0, pi/2, pi give
    (alpha, a, b).  The vertex is the root atan2(b, a) +- arccos(-alpha /
    hypot(a, b)) + 2 pi n nearest the midpoint, clipped into the edge.
    """
    k = 2.0 if problem._sandwiches(name)[0] == "diag" else 1.0
    moving = lo != hi
    f0, f1, f2 = (problem.evaluate(name, *np.where(moving, kt / k - problem.theta0, lo).T)
                  for kt in (0.0, np.pi / 2.0, np.pi))
    alpha, a, b = (f0 + f2) / 2.0, (f0 - f2) / 2.0, f1 - (f0 + f2) / 2.0
    half = np.arccos(np.clip(-alpha / np.maximum(np.hypot(a, b), 1e-300), -1.0, 1.0))
    ends = lo[moving], hi[moving]
    mid = k * (problem.theta0 + (ends[0] + ends[1]) / 2.0)
    roots = np.arctan2(b, a) + np.multiply.outer((-1.0, 1.0), half)
    roots += 2.0 * np.pi * np.round((mid - roots) / (2.0 * np.pi))
    kt = np.where(np.abs(roots[0] - mid) <= np.abs(roots[1] - mid), *roots)
    return np.where(moving, np.clip(kt / k - problem.theta0, *ends)[:, None], lo)


def _dense_trace(fn, box, step, edge_zeros):
    """The former tracer, kept as the oracle for the line route.

    One grid call on the axes, the crossed edges of ``_edge_crossings``, a
    vertex per edge from ``edge_zeros(lo, hi)`` (or its exactly-zero node,
    shared by de-duplication), a (cells, 4) stack of each cell's edges in the
    order bottom, right, top, left, and ``_chains``.
    """
    n = max(3, int(np.ceil(2.0 * box / step)) + 1)
    xs = np.linspace(-box, box, n)
    g = np.broadcast_to(np.asarray(fn(xs[:, None], xs[None, :]), dtype=float), (n, n))
    if np.mean(np.abs(g) < 1e-13) > 0.9:
        raise NumericalError(
            "condition vanishes identically over the box; no curve to trace")
    h, v = _edge_crossings(g)
    lo = np.concatenate((np.argwhere(h), np.argwhere(v)))
    hi = lo + np.repeat([[1, 0], [0, 1]], (h.sum(), v.sum()), axis=0)
    f_lo, f_hi = g[tuple(lo.T)], g[tuple(hi.T)]
    node = np.where((f_lo == 0.0)[:, None], lo, hi)
    at_node = (f_lo == 0.0) | (f_hi == 0.0)
    pts = xs[node]
    pts[~at_node] = edge_zeros(xs[lo[~at_node]], xs[hi[~at_node]])
    uid = np.where(at_node, node[:, 0] * n + node[:, 1], n * n + np.arange(len(lo)))
    _, first, inverse = np.unique(uid, return_index=True, return_inverse=True)
    vert_h, vert_v = np.full(h.shape, -1), np.full(v.shape, -1)
    vert_h[h], vert_v[v] = np.split(first[inverse], [np.count_nonzero(h)])
    cells = np.stack((vert_h[:, :-1], vert_v[1:, :], vert_h[:, 1:], vert_v[:-1, :]),
                     axis=-1).reshape(-1, 4)
    crossed = cells >= 0
    count = crossed.sum(axis=1)
    two = np.flatnonzero(count == 2)
    seg_cell = [two]
    seg_ends = [np.stack((cells[two, np.argmax(crossed[two], axis=1)],
                          cells[two, 3 - np.argmax(crossed[two, ::-1], axis=1)]), axis=1)]
    for cell in np.flatnonzero(count == 4).tolist():
        i, j = divmod(cell, n - 1)
        bottom, right, top, left = cells[cell].tolist()
        centre = fn((xs[i] + xs[i + 1]) / 2.0, (xs[j] + xs[j + 1]) / 2.0)
        if (centre < 0.0) == (g[i, j] < 0.0):
            pairs = ((bottom, right), (top, left))
        else:
            pairs = ((bottom, left), (right, top))
        seg_cell.append([cell, cell])
        seg_ends.append(pairs)
    order = np.argsort(np.concatenate(seg_cell), kind="stable")
    ends = np.concatenate(seg_ends)[order]
    segments = [tuple(pair) for pair in ends[ends[:, 0] != ends[:, 1]].tolist()]
    if not segments:
        raise EmptyContourError("no zero crossing inside the box")
    return [pts[chain] for chain in _chains(segments)]


def _oracle_trace(problem, name, box, step):
    """The dense oracle on condition ``name``, its vertices from ``_edge_zeros``."""
    return _dense_trace(problem.condition(name), box, step,
                        lambda lo, hi: _edge_zeros(problem, name, lo, hi))


def _chains_oracle(segments):
    """The former chain walk, one generator scan per vertex, kept as the oracle."""
    adjacency, pairs, used = {}, set(), []
    for a, b in segments:
        if (a, b) not in pairs and (b, a) not in pairs:
            pairs.add((a, b))
            adjacency.setdefault(a, []).append((b, len(used)))
            adjacency.setdefault(b, []).append((a, len(used)))
            used.append(False)

    def next_unused(key):
        return next(((nb, edge) for nb, edge in adjacency[key] if not used[edge]),
                    None)

    def walk(start):
        chain = [start]
        while (step := next_unused(chain[-1])) is not None:
            used[step[1]] = True
            chain.append(step[0])
        return chain

    ends = [key for key in adjacency if len(adjacency[key]) % 2]
    return [walk(key) for key in ends + list(adjacency) if next_unused(key) is not None]


@st.composite
def _segment_lists(draw):
    """Paths, loops and figure-eights on disjoint ids, plus random extra segments
    on a few shared ids, shuffled, with repeated and reversed duplicates."""
    segments, base = [], 100
    for kind in draw(st.lists(st.sampled_from(["path", "loop", "eight"]), max_size=4)):
        size = draw(st.integers(min_value={"path": 1, "loop": 3, "eight": 4}[kind],
                                max_value=6))
        ids = list(range(base, base + size + 1))
        base += size + 1
        if kind == "loop":
            ids[-1] = ids[0]
        elif kind == "eight":  # two loops through one degree-4 node
            ids = [ids[0], *ids[1:3], ids[0], *ids[3:], ids[0]]
        segments += list(zip(ids[:-1], ids[1:]))
    pairs = st.tuples(st.integers(0, 5), st.integers(0, 5)).filter(lambda p: p[0] != p[1])
    segments += draw(st.lists(pairs, max_size=12))
    segments = draw(st.permutations(segments)) if segments else []
    for seg in draw(st.lists(st.sampled_from(segments), max_size=4)) if segments else []:
        at = draw(st.integers(0, len(segments)))
        segments.insert(at, seg[::-1] if draw(st.booleans()) else seg)
    return segments


@settings(max_examples=300, deadline=None)
@given(segments=_segment_lists())
@example(segments=[(0, 1), (1, 2), (2, 0), (0, 3), (3, 4), (4, 0)])  # degree-4 node
@example(segments=[(0, 1), (1, 0), (1, 2), (2, 1), (5, 6), (6, 7), (7, 5)])
@example(segments=[(0, 1), (1, 2), (1, 3), (1, 4)])  # odd ends meeting at degree 4
@example(segments=[])
def test_chains_match_generator_walk_oracle(segments):
    # same chains, in the same order and direction
    assert _chains(segments) == _chains_oracle(segments)


def test_evaluate_is_vectorised(bi):
    problem = TailoringProblem("tailored-9/2", bi, 1.0)
    grid = np.linspace(-0.01, 0.01, 5)
    e1, e2 = np.meshgrid(grid, grid, indexing="ij")
    vals = problem.evaluate("diag-IZ", e1, e2)
    assert vals.shape == (5, 5)
    one = problem.evaluate("diag-IZ", grid[1], grid[3])
    assert np.isclose(vals[1, 3], one, rtol=1e-12)


def test_conditions_match_direct_expectations(sb, bi):
    # diag-IZ must equal the dressed-word <I_Z> difference, entry for entry
    jx72, _, jz72 = spin_operators(3.5)
    jx92, jy92, jz92 = spin_operators(4.5)
    for system, family, jz, jx in (
        (sb, "distorted-7/2", jz72, jx72),
        (bi, "tailored-9/2", jz92, jx92),
    ):
        problem = TailoringProblem(family, system, 1.0)
        iz = np.kron(np.eye(2), jz)
        ixix = np.kron(np.eye(2), jx @ jx)
        for eps in ((0.0, 0.0), (0.004, -0.003)):
            cw = make_codeword(family, system, 1.0, *eps)
            e0, e1 = expectation(cw, iz)
            assert np.isclose(
                problem.evaluate("diag-IZ", *eps), (e0 - e1).real, atol=1e-12
            )
            got = problem.evaluate("offdiag-IXIX", *eps)
            ref = offdiag_element(cw, ixix)
            assert np.isclose(abs(got), abs(ref), atol=1e-12)


def test_newton_on_linear_system():
    funcs = (lambda x, y: x + y - 0.01, lambda x, y: x - y + 0.002)
    root, converged, iters, res = newton_solve(funcs, (0.0, 0.0))
    assert converged and iters <= 3 and res < 1e-13
    np.testing.assert_allclose(root, (0.004, 0.006), atol=1e-12)


def test_newton_respects_box():
    funcs = (lambda x, y: x - 1.0, lambda x, y: y - 1.0)  # root far outside
    _, converged, _, _ = newton_solve(funcs, (0.0, 0.0), box=0.05)
    assert not converged


def test_find_roots_on_circle_and_line():
    r2 = 2.0e-4
    funcs = (lambda x, y: x * x + y * y - r2, lambda x, y: x - y)
    roots = find_roots(funcs, box=0.05)
    assert len(roots) == 2
    a = np.sqrt(r2 / 2.0)
    got = sorted((round(x[0], 10), round(x[1], 10)) for x, _, _ in roots)
    np.testing.assert_allclose(got[0], (-a, -a), atol=1e-9)
    np.testing.assert_allclose(got[1], (a, a), atol=1e-9)


def test_trace_zero_contour_line_and_circle():
    polys = trace_zero_contour(_bisected(lambda x, y: x + y - 0.0031), box=0.05,
                               step=0.01)
    assert len(polys) >= 1
    allv = np.vstack(polys)
    assert np.max(np.abs(allv[:, 0] + allv[:, 1] - 0.0031)) < 1e-9
    # the traced set spans the whole box diagonal
    assert allv[:, 0].min() < -0.045 and allv[:, 0].max() > 0.045

    r = 0.0213
    polys = trace_zero_contour(
        _bisected(lambda x, y: x * x + y * y - r * r), box=0.05, step=0.005
    )
    verts = np.vstack(polys)
    radii = np.hypot(verts[:, 0], verts[:, 1])
    np.testing.assert_allclose(radii, r, atol=1e-8)


def test_trace_zero_contour_errors():
    with pytest.raises(EmptyContourError):
        trace_zero_contour(_bisected(lambda x, y: x + y + 10.0), box=0.05)
    with pytest.raises(NumericalError):
        trace_zero_contour(_bisected(lambda x, y: 0.0 * x), box=0.05)
    # a plain function has no edge_zeros to place its vertices
    with pytest.raises(PreconditionError, match="TailoringProblem.condition"):
        trace_zero_contour(lambda x, y: x + y, box=0.05)


def test_scan_common_zero_cells():
    cells = scan_common_zero_cells(
        (lambda x, y: x, lambda x, y: y), box=0.05, n=100
    )
    assert len(cells) >= 1
    assert all(np.hypot(cx, cy) < 2.0 * 0.05 / 50 for cx, cy in cells)
    # two parallel lines never meet
    none = scan_common_zero_cells(
        (lambda x, y: x - 0.01, lambda x, y: x + 0.01), box=0.05, n=100
    )
    assert none == []


def test_scan_refuses_nan_values():
    # a NaN node is neither <= 0 nor >= 0, so it would drop its cells silently
    nan_right = lambda x, y: np.where(x > 0.0, np.nan, -1.0 + 0.0 * y)  # noqa: E731
    with pytest.raises(NumericalError, match="NaN"):
        scan_common_zero_cells([nan_right], 0.05, 10)
    # later, on the corners of the cells the first condition keeps
    with pytest.raises(NumericalError, match="NaN"):
        scan_common_zero_cells([lambda x, y: x + 0 * y, nan_right], 0.05, 10)


@st.composite
def _integer_grids(draw):
    side = draw(st.integers(min_value=2, max_value=12))
    count = draw(st.integers(min_value=1, max_value=3))
    values = st.integers(min_value=-2, max_value=2)
    return [np.array(draw(st.lists(st.lists(values, min_size=side, max_size=side),
                                   min_size=side, max_size=side)), dtype=float)
            for _ in range(count)]


@settings(max_examples=200, deadline=None)
@given(grids=_integer_grids())
def test_seed_cells_matches_per_cell_corner_test(grids):
    # reference: a cell qualifies when min(corners) <= 0 <= max(corners) for
    # every grid; integer values put many corners exactly at 0
    n = grids[0].shape[0]
    xs = np.linspace(-0.05, 0.05, n)
    expected = []
    for i in range(n - 1):
        for j in range(n - 1):
            corners = [g[i:i + 2, j:j + 2].ravel() for g in grids]
            if all(min(c) <= 0.0 <= max(c) for c in corners):
                expected.append(((xs[i] + xs[i + 1]) / 2.0, (xs[j] + xs[j + 1]) / 2.0))
    funcs = [lambda e1, e2, g=g: g for g in grids]
    assert seed_cells(funcs, box=0.05, n=n) == expected
    # the kept-corner route, given the lower nodes of every cell and an
    # elementwise lookup of one grid, keeps the cells of the same test
    rows, cols = np.divmod(np.arange((n - 1) ** 2), n - 1)
    for g in grids:
        want = [min(c) <= 0.0 <= max(c)
                for c in (g[i:i + 2, j:j + 2].ravel() for i, j in zip(rows, cols))]
        lookup = lambda e1, e2, g=g: g[np.searchsorted(xs, e1), np.searchsorted(xs, e2)]
        assert spinqec.tailor._corner_cells(lookup, xs, rows, cols).tolist() == want


@pytest.mark.parametrize("fn, closed", [
    (lambda x, y: y + 0.0 * x, False),
    (lambda x, y: x + 0.0 * y, False),
    (lambda x, y: x + y, False),
    (lambda x, y: x * x + y * y - 0.02 ** 2, True),
    (lambda x, y: x * x + y * y - 0.03 ** 2, True),
    (lambda x, y: x * x + y * y - 0.04 ** 2, True),
    (lambda x, y: 0.0 * x - y * y, False),
], ids=["y", "x", "x+y", "r=0.02", "r=0.03", "r=0.04", "touching-y"])
def test_trace_zero_contour_through_zero_nodes(fn, closed):
    # on the 0.01 grid all but the r = 0.02 circle pass through nodes where fn
    # is exactly 0; a vertex there joins the segments on either side of it
    (poly,) = trace_zero_contour(_bisected(fn), box=0.05, step=0.01)
    assert np.array_equal(poly[0], poly[-1]) == closed
    assert np.max(np.abs(fn(poly[:, 0], poly[:, 1]))) < 1e-10


def _edge_bisect(fn, p_lo, p_hi, v_lo, v_hi):
    """Bisect along one straight edge to a contour vertex with |f| < 1e-10."""
    if v_lo == 0.0:
        return p_lo
    if v_hi == 0.0:
        return p_hi
    a = np.array(p_lo, dtype=float)
    b = np.array(p_hi, dtype=float)
    fa = v_lo
    for _ in range(200):
        mid = (a + b) / 2.0
        fm = fn(mid[0], mid[1])
        if abs(fm) < CONTOUR_FTOL:
            return tuple(mid)
        if (fa < 0.0) == (fm < 0.0):
            a, fa = mid, fm
        else:
            b = mid
    raise NumericalError("edge bisection failed to reach |f| < 1e-10")


def _scalar_trace(fn, box, step):
    """Reference tracer: one scalar bisection per crossed edge, memoised by edge."""
    n = max(3, int(np.ceil(2.0 * box / step)) + 1)
    xs = np.linspace(-box, box, n)
    e1, e2 = np.meshgrid(xs, xs, indexing="ij")
    g = np.asarray(fn(e1, e2), dtype=float)
    verts = {}

    def edge_vertex(kind, i, j):
        key = (kind, i, j)
        if key not in verts:
            di, dj = (1, 0) if kind == "h" else (0, 1)
            verts[key] = _edge_bisect(fn, (xs[i], xs[j]), (xs[i + di], xs[j + dj]),
                                      g[i, j], g[i + di, j + dj])
        return key

    h, v = _edge_crossings(g)
    cell_edges = np.stack((h[:, :-1], v[1:, :], h[:, 1:], v[:-1, :]), axis=-1)
    segments = []
    for i, j in np.argwhere(cell_edges.any(axis=-1)).tolist():
        keys = (("h", i, j), ("v", i + 1, j), ("h", i, j + 1), ("v", i, j))
        crossed = [edge_vertex(*key) for key, hit in zip(keys, cell_edges[i, j]) if hit]
        pairs = ((0, 1),)
        if len(crossed) == 4:
            centre = fn((xs[i] + xs[i + 1]) / 2.0, (xs[j] + xs[j + 1]) / 2.0)
            if (centre < 0.0) == (g[i, j] < 0.0):
                pairs = ((0, 1), (2, 3))
            else:
                pairs = ((0, 3), (1, 2))
        segments += [(crossed[a], crossed[b]) for a, b in pairs]
    if not segments:
        raise EmptyContourError("no zero crossing inside the box")
    return [np.array([verts[key] for key in chain]) for chain in _chains(segments)]


_coord = st.floats(min_value=-0.04, max_value=0.04)


@st.composite
def _off_node_shapes(draw):
    kind = draw(st.sampled_from(["line", "circle", "saddle"]))
    cx, cy = draw(_coord), draw(_coord)
    if kind == "line":
        angle = draw(st.floats(min_value=0.0, max_value=np.pi))
        a, b = np.cos(angle), np.sin(angle)
        return lambda x, y: a * (x - cx) + b * (y - cy)
    if kind == "circle":
        r = draw(st.floats(min_value=0.003, max_value=0.04))
        return lambda x, y: (x - cx) ** 2 + (y - cy) ** 2 - r * r
    shift = draw(st.floats(min_value=-1e-4, max_value=1e-4))
    return lambda x, y: (x - cx) * (y - cy) + shift


@settings(max_examples=150, deadline=None)
@given(fn=_off_node_shapes(), step=st.sampled_from([0.01, 0.005, 0.0025]))
def test_batched_bisection_matches_scalar_route(fn, step):
    # polynomials evaluate identically on scalars and arrays, so the batched
    # bisection must reproduce every scalar vertex bit for bit
    xs = np.linspace(-0.05, 0.05, max(3, int(np.ceil(0.1 / step)) + 1))
    assume(np.all(fn(*np.meshgrid(xs, xs, indexing="ij")) != 0.0))
    try:
        ref = _scalar_trace(fn, 0.05, step)
    except EmptyContourError:
        with pytest.raises(EmptyContourError):
            trace_zero_contour(_bisected(fn), box=0.05, step=step)
        return
    got = trace_zero_contour(_bisected(fn), box=0.05, step=step)
    assert len(got) == len(ref)
    for poly, want in zip(got, ref):
        assert np.array_equal(poly, want)
        assert np.max(np.abs(fn(poly[:, 0], poly[:, 1]))) < CONTOUR_FTOL


@pytest.mark.parametrize("step", [0.01, 0.0025])
@pytest.mark.parametrize("shift", [1e-6, -1e-6])
@pytest.mark.parametrize("at_cell_centre", [False, True])
def test_trace_zero_contour_saddle(shift, step, at_cell_centre):
    # (x - c)(y - c) + shift is a hyperbola whose two branches pass close to
    # the saddle at (c, c); with c = 0 the saddle sits on a grid node, with
    # c = step / 2 in the middle of a cell whose four edges are all crossed,
    # and the pairing there must not join the branches
    c = step / 2.0 if at_cell_centre else 0.0

    def fn(x, y):
        return (x - c) * (y - c) + shift

    polys = trace_zero_contour(_bisected(fn), box=0.05, step=step)
    assert len(polys) == 2
    for poly in polys:
        assert np.all(poly[:, 0] > c) or np.all(poly[:, 0] < c)
        assert np.max(np.abs(fn(poly[:, 0], poly[:, 1]))) < 1e-10


_CONDITIONS = ("diag-IZ", "diag-IXIX", "diag-IYIY", "diag-IZIZ", "offdiag-IXIX",
               "offdiag-IXIY")
_SYSTEM_OF = {"tailored-9/2": "si-bi", "distorted-7/2": "si-sb"}


def _complex_meshgrid_route(problem, name, xs):
    """The former grid evaluation, kept as the oracle.

    Complex 2 x 2 sandwiches, evaluated on a full meshgrid, with the real or
    imaginary part taken at the end.
    """
    kind, _, op_label = name.partition("-")
    factors = dict(zip(("IX", "IY", "IZ"), spin_operators(problem.system.i)))
    op = reduce(np.matmul, (factors[op_label[k:k + 2]] for k in range(0, len(op_label), 2)))
    real = np.max(np.abs(op.imag)) < 1e-12 * np.max(np.abs(op))
    basis = _field_setup(problem.family, problem.system, problem.b_field)[1]
    v0, v1 = basis[..., :2], basis[..., 2:]
    m00, m11, m01 = (np.einsum("eia,ij,ejb->ab", bra.conj(), op, ket)
                     for bra, ket in ((v0, v0), (v1, v1), (v0, v1)))
    e1, e2 = np.meshgrid(xs, xs, indexing="ij")
    c1, s1 = np.cos(problem.theta0 + e1), np.sin(problem.theta0 + e1)
    c2, s2 = problem.sign1 * np.cos(problem.theta0 + e2), np.sin(problem.theta0 + e2)
    if kind == "diag":
        z = (c1 * c1 * m00[0, 0] + c1 * s1 * (m00[0, 1] + m00[1, 0])
             + s1 * s1 * m00[1, 1])
        z = z - (c2 * c2 * m11[0, 0] + c2 * s2 * (m11[0, 1] + m11[1, 0])
                 + s2 * s2 * m11[1, 1])
    else:
        z = (c1 * c2 * m01[0, 0] + c1 * s2 * m01[0, 1]
             + s1 * c2 * m01[1, 0] + s1 * s2 * m01[1, 1])
    return z.real if real else z.imag


def _corner_cells(grids, xs):
    """Cells whose corners hold a value <= 0 and a value >= 0 on every grid."""
    keep = True
    for g in grids:
        corners = np.stack((g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]))
        keep = keep & (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
    centres = (xs[:-1] + xs[1:]) / 2.0
    return [(centres[i], centres[j]) for i, j in zip(*np.nonzero(keep))]


@settings(max_examples=12, deadline=None)
@given(b=st.floats(min_value=0.2, max_value=5.0),
       family=st.sampled_from(sorted(_SYSTEM_OF)),
       scanned=st.lists(st.sampled_from(_CONDITIONS), min_size=1, max_size=3,
                        unique=True))
def test_axis_evaluation_matches_complex_meshgrid_route(b, family, scanned):
    # real coefficients on broadcast axes run the same elementwise operations
    # in the same order as complex sandwiches on a meshgrid, so every value
    # and sign bit agrees, and with them the common cells
    problem = TailoringProblem(family, get_system(_SYSTEM_OF[family]), b)
    xs = np.linspace(-0.05, 0.05, 401)
    oracle = {}
    for name in _CONDITIONS:
        oracle[name] = _complex_meshgrid_route(problem, name, xs)
        got = problem.evaluate(name, xs[:, None], xs[None, :])
        got = np.broadcast_to(got, oracle[name].shape)
        assert np.array_equal(got, oracle[name])
        assert np.array_equal(np.signbit(got), np.signbit(oracle[name]))
    funcs = [problem.condition(name) for name in scanned]
    assert scan_common_zero_cells(funcs, 0.05, 400) == \
        _corner_cells([oracle[name] for name in scanned], xs)


def _recording(fn, calls):
    def recorded(x, y):
        calls.append((np.shape(x), np.shape(y)))
        return fn(x, y)
    return recorded


def test_grid_is_evaluated_on_broadcast_axes():
    # the grid call gets the two axes, never a full (n, n) input grid
    calls = []
    scan_common_zero_cells([_recording(lambda x, y: x * x + y * y - 4e-4, calls)],
                           0.05, 40)
    assert calls == [((41, 1), (1, 41))]
    calls.clear()
    trace_zero_contour(_bisected(_recording(lambda x, y: x * x + y * y - 4e-4, calls)),
                       0.05, 0.01)
    assert calls[0] == ((11, 1), (1, 11))
    assert all(len(shape) <= 1 for call in calls[1:] for shape in call)


@pytest.mark.parametrize("low, full", [
    (lambda x, y: x, lambda x, y: x + 0.0 * y),
    (lambda x, y: y - 0.003, lambda x, y: y - 0.003 + 0.0 * x),
    (lambda x, y: 0.0 * x, lambda x, y: 0.0 * (x + y)),
    (lambda x, y: 1.0, lambda x, y: 1.0 + 0.0 * (x + y)),
], ids=["x", "y", "zero", "constant"])
def test_lower_rank_results_are_broadcast(low, full):
    # a result that depends on one axis (or none) stands for the whole grid
    assert scan_common_zero_cells([low], 0.05, 40) == \
        scan_common_zero_cells([full], 0.05, 40)
    try:
        want = trace_zero_contour(_bisected(full), 0.05, 0.01)
    except NumericalError as exc:
        with pytest.raises(type(exc)):
            trace_zero_contour(_bisected(low), 0.05, 0.01)
        return
    got = trace_zero_contour(_bisected(low), 0.05, 0.01)
    assert len(got) == len(want)
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@settings(max_examples=40, deadline=None)
@given(b=st.floats(min_value=0.2, max_value=5.0),
       family=st.sampled_from(sorted(_SYSTEM_OF)),
       name=st.sampled_from(_CONDITIONS),
       box_step=st.sampled_from([(0.05, 0.0025), (5e-4, 1e-4)]))
def test_closed_form_vertices_match_bisection_oracle(b, family, name, box_step):
    # both routes share the grid and its crossed edges, so the chains agree in
    # number and length; the closed form lands on the zero to rounding, the
    # oracle within |f| < 1e-10 of it
    fn = TailoringProblem(family, get_system(_SYSTEM_OF[family]), b).condition(name)
    try:
        ref = trace_zero_contour(_bisected(fn), *box_step)
    except NumericalError as exc:  # empty, or identically zero (9/2 offdiag)
        with pytest.raises(NumericalError) as info:
            trace_zero_contour(fn, *box_step)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    got = trace_zero_contour(fn, *box_step)
    assert [len(poly) for poly in got] == [len(poly) for poly in ref]
    for poly, want in zip(got, ref):
        assert np.max(np.abs(poly - want)) <= 1e-10
        assert np.max(np.abs(fn(poly[:, 0], poly[:, 1]))) <= 1e-13


@settings(max_examples=60, deadline=None)
@given(b=st.floats(min_value=0.2, max_value=5.0),
       family=st.sampled_from(sorted(_SYSTEM_OF)),
       name=st.sampled_from(_CONDITIONS),
       box_step=st.sampled_from([(0.05, 0.0025), (5e-4, 1e-4), (1.0, 0.05)]))
# on the 1.0 / 0.05 grid a line through the diag-IXIX fold has both roots in one edge
@example(b=0.2, family="distorted-7/2", name="diag-IXIX", box_step=(1.0, 0.05))
@example(b=1.0, family="tailored-9/2", name="offdiag-IXIX", box_step=(0.05, 0.0025))
def test_line_zeros_trace_matches_dense_oracle(b, family, name, box_step):
    # the crossed edges follow the grid's own sign split, and each vertex is
    # the per-edge closed form on the same inputs, so the chains agree bit for bit
    problem = TailoringProblem(family, get_system(_SYSTEM_OF[family]), b)
    try:
        want = _oracle_trace(problem, name, *box_step)
    except NumericalError as exc:  # empty, or identically zero (9/2 offdiag)
        with pytest.raises(NumericalError) as info:
            trace_zero_contour(problem.condition(name), *box_step)
        assert type(info.value) is type(exc) and str(info.value) == str(exc)
        return
    got = trace_zero_contour(problem.condition(name), *box_step)
    assert len(got) == len(want)
    for poly, ref in zip(got, want):
        assert np.array_equal(poly, ref)


def _patch_sandwiches(monkeypatch, problem, name, edit):
    """Give ``problem`` (only) the blocks ``edit(kind, m00, m11, m01)`` for ``name``."""
    sandwiches = problem._sandwiches
    patched = edit(*sandwiches(name))
    monkeypatch.setattr(problem, "_sandwiches",
                        lambda key: patched if key == name else sandwiches(key))


def _equal_diag_blocks(kind, m00, m11, m01):
    """m00's diagonal as both diag blocks: f is exactly 0 where eps1 == eps2."""
    block = np.diag(np.diag(m00))
    return kind, block, block, m01


@pytest.mark.parametrize("family", sorted(_SYSTEM_OF))
@pytest.mark.parametrize("box_step", [(0.05, 0.0025), (5e-4, 1e-4), (1.0, 0.05)])
def test_zero_nodes_trace_as_the_dense_oracle(monkeypatch, family, box_step):
    # equal m00 and m11 blocks without cross terms give f = g(eps1) - g(eps2),
    # exactly 0 at every diagonal node, so the contour runs through nodes whose
    # closed-form values are rounding noise; they are settled by evaluation
    problem = TailoringProblem(family, get_system(_SYSTEM_OF[family]), 1.0)
    _patch_sandwiches(monkeypatch, problem, "diag-IZ", _equal_diag_blocks)
    n = max(3, int(np.ceil(2.0 * box_step[0] / box_step[1])) + 1)
    xs = np.linspace(-box_step[0], box_step[0], n)
    assert not np.any(problem.evaluate("diag-IZ", xs, xs))
    want = _oracle_trace(problem, "diag-IZ", *box_step)
    got = trace_zero_contour(problem.condition("diag-IZ"), *box_step)
    assert len(got) == len(want) >= 1
    for poly, ref in zip(got, want):
        assert np.array_equal(poly, ref)
    vertices = np.vstack(got)
    assert np.count_nonzero(vertices[:, 0] == vertices[:, 1]) >= n  # every diagonal node


def test_condition_lines_take_two_broadcast_evaluations(monkeypatch, sb):
    # two 3 x n calls on broadcast axes give every grid line's coefficients:
    # no n x n grid, and no more calls as the crossed edges multiply; scalar
    # calls are the saddle-cell centres
    calls = []
    evaluate = TailoringProblem.evaluate
    monkeypatch.setattr(TailoringProblem, "evaluate", lambda self, name, e1, e2: (
        calls.append((np.shape(e1), np.shape(e2))) or evaluate(self, name, e1, e2)))
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    for name in ("diag-IZ", "offdiag-IXIX"):
        vertices = []
        for step, n in ((0.0025, 41), (0.0005, 201)):
            calls.clear()
            vertices.append(sum(map(len, trace_zero_contour(problem.condition(name),
                                                            0.05, step))))
            assert [call for call in calls if call != ((), ())] == \
                [((3, 1), (1, n)), ((1, n), (3, 1))]
        assert vertices[1] > 4 * vertices[0]


_TARGETS = {"tailored-9/2": ("diag-IZ", "diag-IXIX"),
            "distorted-7/2": ("diag-IZ", "offdiag-IXIX")}


@settings(max_examples=30, deadline=None)
@given(b=st.floats(min_value=0.2, max_value=5.0),
       family=st.sampled_from(sorted(_SYSTEM_OF)))
def test_closed_form_roots_match_newton_oracle(b, family):
    # the seeded Newton iteration, the former runtime route, finds the same
    # root set in the default box
    problem = TailoringProblem(family, get_system(_SYSTEM_OF[family]), b)
    names = _TARGETS[family]
    got = closed_form_roots(problem, names)
    want = [tuple(x) for x, _, _ in find_roots([problem.condition(n) for n in names])]
    assert len(got) == len(want) >= 1
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)
    for root in got:
        for name in names:
            assert abs(problem.evaluate(name, *root)) < 1e-12


@settings(max_examples=20, deadline=None)
@given(b=st.floats(min_value=0.2, max_value=5.0),
       family=st.sampled_from(sorted(_SYSTEM_OF)),
       name=st.sampled_from(_CONDITIONS))
def test_coefficients_reproduce_evaluate(b, family, name):
    problem = TailoringProblem(family, get_system(_SYSTEM_OF[family]), b)
    eps = np.linspace(-0.05, 0.05, 9)
    t1, t2 = problem.theta0 + eps[:, None], problem.theta0 + eps[None, :]
    if name.startswith("diag"):
        (a1, b1), (a2, b2) = problem.coefficients(name)
        want = (a1 + b1 * np.cos(2.0 * t1)) - (a2 + b2 * np.cos(2.0 * t2))
    else:
        p, q = problem.coefficients(name)
        want = p * np.cos(t1) * np.sin(t2) + q * np.sin(t1) * np.cos(t2)
    got = np.broadcast_to(problem.evaluate(name, eps[:, None], eps[None, :]), want.shape)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-12)


def test_roots_cover_every_branch_in_the_box(bi):
    # with |eps| <= 2.5 each angle has three branches +-t + k pi of cos 2t in
    # the box; the Newton oracle, seeded finely enough, finds all nine roots
    problem = TailoringProblem("tailored-9/2", bi, 1.0)
    names = _TARGETS["tailored-9/2"]
    roots = closed_form_roots(problem, names, box=2.5)
    assert roots[0] == closed_form_roots(problem, names)[0]
    assert len(roots) == len(set(roots)) == 9
    assert roots == sorted(roots, key=lambda r: np.hypot(*r))
    want = [tuple(x) for x, _, _ in find_roots([problem.condition(n) for n in names],
                                                box=2.5, seed_grid=201)]
    np.testing.assert_allclose(roots, want, rtol=0.0, atol=1e-12)
    sol = solve_full_tailoring_92(bi, 1.0, box=2.5)
    assert sol.all_roots == tuple(roots) and (sol.eps1, sol.eps2) == roots[0]
    assert sol.converged and sol.iterations == 0


def test_degenerate_and_unsupported_pairs(bi):
    problem = TailoringProblem("tailored-9/2", bi, 1.0)
    # diag-IZIZ is diag-IXIX up to rounding: a 2 x 2 condition number near 1e16
    with pytest.raises(DegenerateConditionsError):
        closed_form_roots(problem, ("diag-IXIX", "diag-IZIZ"))
    # the 9/2 cross conditions vanish identically
    with pytest.raises(DegenerateConditionsError):
        closed_form_roots(problem, ("diag-IZ", "offdiag-IXIX"))
    for names in (("offdiag-IXIX", "diag-IZ"), ("offdiag-IXIX", "offdiag-IXIY"),
                  ("diag-IZ", "diag-IXIX", "diag-IYIY")):
        with pytest.raises(PreconditionError, match="no closed form"):
            closed_form_roots(problem, names)
    with pytest.raises(PreconditionError):
        closed_form_roots(problem, ("diag-IZ", "diag-IXIX"), box=float("nan"))
    # no branch inside a box that excludes the root
    assert closed_form_roots(problem, ("diag-IZ", "diag-IXIX"), box=1e-4) == []
    with pytest.raises(NumericalError, match="no tailoring root found"):
        solve_full_tailoring_92(bi, 1.0, box=1e-4)


def test_broken_structural_zero_is_named(monkeypatch, sb):
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    for name in ("diag-IZ", "offdiag-IXIX"):
        _patch_sandwiches(monkeypatch, problem, name, lambda kind, m00, m11, m01: (
            kind, m00 + [[0.0, 1e-3], [0.0, 0.0]], m11, m01 + [[1e-3, 0.0], [0.0, 0.0]]))
        with pytest.raises(StructuralZeroError, match=name):
            problem.coefficients(name)


@pytest.mark.parametrize("b", [0.3, 1.0, 2.9])
def test_problem_codeword_equals_make_codeword(sb, bi, b):
    # the problem's own dressed vectors give make_codeword's words bit for bit
    for system, family in ((sb, "distorted-7/2"), (bi, "tailored-9/2")):
        problem = TailoringProblem(family, system, b)
        for eps in ((0.0, 0.0), (-2.4e-3, 1.8e-3), (0.031, -0.047)):
            got = problem.codeword(*eps)
            want = make_codeword(family, system, b, *eps)
            assert np.array_equal(got.zero_l, want.zero_l)
            assert np.array_equal(got.one_l, want.one_l)
            assert (got.family, got.basis, got.theta0, got.eps1, got.eps2) == \
                (want.family, want.basis, want.theta0, want.eps1, want.eps2)


@settings(max_examples=15, deadline=None)
@given(b=st.floats(min_value=0.2, max_value=5.0),
       family=st.sampled_from(sorted(_SYSTEM_OF)),
       scanned=st.lists(st.sampled_from(_CONDITIONS), min_size=2, max_size=3,
                        unique=True),
       n=st.sampled_from([40, 400]))
@example(b=1.0, family="distorted-7/2",
         scanned=["diag-IZ", "offdiag-IXIX", "offdiag-IXIY"], n=400)
@example(b=1.0, family="tailored-9/2", scanned=["diag-IZ", "diag-IXIX"], n=400)
@example(b=1.0, family="distorted-7/2", scanned=["diag-IZ", "offdiag-IXIX"], n=400)
def test_corner_scan_matches_grid_route(b, family, scanned, n):
    # a plain callable has no cells, so every one is evaluated on the full
    # grid; the conditions' line terms and corner values are the same numbers
    problem = TailoringProblem(family, get_system(_SYSTEM_OF[family]), b)
    funcs = [problem.condition(name) for name in scanned]
    plain = [lambda x, y, fn=fn: fn(x, y) for fn in funcs]
    assert scan_common_zero_cells(funcs, 0.05, n) == \
        scan_common_zero_cells(plain, 0.05, n)


def test_scan_evaluates_later_conditions_on_kept_corners(monkeypatch, sb):
    calls = []
    evaluate = TailoringProblem.evaluate
    monkeypatch.setattr(TailoringProblem, "evaluate", lambda self, name, e1, e2: (
        calls.append((name, np.shape(e1), np.shape(e2))) or evaluate(self, name, e1, e2)))
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    names = ("diag-IZ", "offdiag-IXIX", "offdiag-IXIY")
    cells = scan_common_zero_cells([problem.condition(n) for n in names], 0.05, 400)
    assert len(cells) == 2
    # the diag first condition's mask comes from its line terms, with no
    # evaluate call; each offdiag one is evaluated once, on kept corners only
    assert [name for name, *_ in calls] == list(names[1:])
    for _, (nodes,), (nodes_too,) in calls:
        assert nodes == nodes_too < 0.02 * 401 * 401
    # no cell left: the remaining conditions are not evaluated at all
    calls.clear()
    far = [problem.condition("diag-IZ"), lambda x, y: 1.0 + 0.0 * x,
           problem.condition("offdiag-IXIX")]
    assert scan_common_zero_cells(far, 0.05, 400) == []
    assert calls == []


@pytest.mark.parametrize("family", sorted(_SYSTEM_OF))
@pytest.mark.parametrize("n", [40, 400])
def test_diag_cells_at_exact_zero_nodes(monkeypatch, family, n):
    # equal m00 and m11 blocks without cross terms make f exactly 0 at every
    # diagonal node, so many cells qualify only through a zero corner: the
    # line-term comparisons must keep them, as the corner test on the grid does
    problem = TailoringProblem(family, get_system(_SYSTEM_OF[family]), 1.0)
    _patch_sandwiches(monkeypatch, problem, "diag-IZ", _equal_diag_blocks)
    xs = np.linspace(-0.05, 0.05, n + 1)
    grid = problem.evaluate("diag-IZ", xs[:, None], xs[None, :])
    assert not np.any(np.diag(grid))
    corners = np.stack((grid[:-1, :-1], grid[1:, :-1], grid[1:, 1:], grid[:-1, 1:]))
    want = (corners.min(axis=0) <= 0.0) & (corners.max(axis=0) >= 0.0)
    strict = (corners < 0.0).any(axis=0) & (corners > 0.0).any(axis=0)
    assert np.count_nonzero(want & ~strict) >= n - 1  # kept by a zero corner alone
    assert np.array_equal(problem.cells("diag-IZ", xs), want)
    # the lower nodes of every kept cell and of every 7th cell
    rows, cols = np.divmod(np.union1d(np.flatnonzero(want), np.arange(0, n * n, 7)), n)
    assert np.array_equal(problem.cells("diag-IZ", xs, rows, cols), want[rows, cols])
    # the scan, with the diag condition first and later, equals the grid route
    for names in (("diag-IZ", "diag-IXIX"), ("offdiag-IXIX", "diag-IZ"),
                  ("diag-IXIX", "diag-IZ")):
        funcs = [problem.condition(name) for name in names]
        plain = [lambda x, y, fn=fn: fn(x, y) for fn in funcs]
        assert scan_common_zero_cells(funcs, 0.05, n) == \
            scan_common_zero_cells(plain, 0.05, n)


def test_full_tailoring_92_root_frozen(bi):
    sol = solve_full_tailoring_92(bi, 1.0)
    assert sol.converged
    assert np.isclose(sol.eps1, BI_ROOT_1T[0], rtol=1e-6)
    assert np.isclose(sol.eps2, BI_ROOT_1T[1], rtol=1e-6)
    assert sol.kl_max < 1e-10
    assert len(sol.all_roots) == 1  # unique root in the default box
    for name in sol.targets:
        assert abs(sol.residuals[name]) < 1e-12


def test_full_tailoring_92_closes_every_firstorder_pair(bi):
    from spinqec.codewords import kl_residuals, lift_to_electron_nuclear
    from spinqec.codewords import standard_error_sets

    sol = solve_full_tailoring_92(bi, 1.0)
    cw = make_codeword("tailored-9/2", bi, 1.0, sol.eps1, sol.eps2)
    es = lift_to_electron_nuclear(standard_error_sets("firstorder-B", 4.5), bi)
    assert kl_residuals(cw, es).max_residual < 1e-10


@pytest.mark.parametrize("b", sorted(PARTIAL_72_ROOTS))
def test_partial_tailoring_72_roots_frozen(sb, b):
    eps1, eps2, leftover = PARTIAL_72_ROOTS[b]
    sol = solve_partial_tailoring_72(sb, b)
    assert sol.converged
    assert np.isclose(sol.eps1, eps1, rtol=1e-5)
    assert np.isclose(sol.eps2, eps2, rtol=1e-5)
    problem = TailoringProblem("distorted-7/2", sb, b)
    assert abs(problem.evaluate("diag-IZ", sol.eps1, sol.eps2)) < 1e-12
    assert abs(problem.evaluate("offdiag-IXIX", sol.eps1, sol.eps2)) < 1e-12
    # the mixed off-diagonal collapses with offdiag-IXIX, by the family's
    # |<0|IXIX|1>| == |<0|IXIY|1>| identity
    assert abs(problem.evaluate("offdiag-IXIY", sol.eps1, sol.eps2)) < 1e-12
    # what remains is the second-order diagonal imbalance
    assert np.isclose(
        problem.evaluate("diag-IXIX", sol.eps1, sol.eps2), leftover, rtol=1e-4
    )


def test_offdiag_identity_on_grid(sb):
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    grid = np.linspace(-0.02, 0.02, 7)
    e1, e2 = np.meshgrid(grid, grid, indexing="ij")
    xx = problem.evaluate("offdiag-IXIX", e1, e2)
    xy = problem.evaluate("offdiag-IXIY", e1, e2)
    np.testing.assert_allclose(np.abs(xx), np.abs(xy), atol=1e-12)


def test_field_sweep_modes(sb):
    rows = field_sweep_tailoring(sb, (0.5, 1.0), mode="re-solve")
    assert [r["b_tesla"] for r in rows] == [0.5, 1.0]
    for row in rows:
        assert row["converged"]
        assert abs(row["residual_diag-IZ"]) < 1e-12
        assert abs(row["residual_offdiag-IXIX"]) < 1e-12
    frozen = field_sweep_tailoring(sb, (0.5, 1.0), mode="frozen", freeze_at=1.0)
    # angles frozen at 1 T no longer cancel the 0.5 T conditions
    assert abs(frozen[0]["residual_diag-IZ"]) > 1e-7
    assert abs(frozen[0]["eps1_rad"] - frozen[1]["eps1_rad"]) < 1e-15
    with pytest.raises(PreconditionError):
        field_sweep_tailoring(sb, (1.0,), mode="frozen")
    with pytest.raises(PreconditionError):
        field_sweep_tailoring(sb, (1.0,), mode="bogus")


@pytest.mark.parametrize("system, family, names", [
    ("sb", "distorted-7/2",
     ("diag-IZ", "offdiag-IXIX", "offdiag-IXIY", "diag-IXIX")),
    ("bi", "tailored-9/2",
     ("diag-IZ", "diag-IXIX", "diag-IYIY", "diag-IZIZ", "offdiag-IXIX",
      "offdiag-IXIY")),
])
def test_field_sweep_residuals_match_fresh_problem(request, system, family, names):
    # re-solve rows reuse the solver's residuals; a fresh problem per field
    # is the independent route
    spin_system = request.getfixturevalue(system)
    fields = (0.5, 1.0, 2.0)
    rows = field_sweep_tailoring(spin_system, fields, mode="re-solve")
    for b, row in zip(fields, rows):
        problem = TailoringProblem(family, spin_system, b)
        assert [k for k in row if k.startswith("residual_")] == \
            [f"residual_{name}" for name in names]
        for name in names:
            assert row[f"residual_{name}"] == problem.evaluate(
                name, row["eps1_rad"], row["eps2_rad"])


@settings(max_examples=40, deadline=None)
@given(b=st.floats(min_value=0.2, max_value=5.0),
       family=st.sampled_from(sorted(_SYSTEM_OF)),
       name=st.sampled_from(_CONDITIONS))
def test_stacked_sandwiches_equal_three_einsums(b, family, name):
    # one contraction over the stacked (dim_e, dim_n, 4) basis gives the same
    # bits as the three 2-column sandwiches built from fresh branch vectors
    system = get_system(_SYSTEM_OF[family])
    _, _, sup0, sup1, _ = _TWO_LEVEL[family]
    manifold = manifold_states(system, b, m_s=-0.5)
    v0, v1 = (np.column_stack([manifold[m].vector for m in sup]).reshape(
        system.dim_e, system.dim_n, 2) for sup in (sup0, sup1))
    kind, _, label = name.partition("-")
    factors = dict(zip(("IX", "IY", "IZ"), spin_operators(system.i)))
    op = reduce(np.matmul, (factors[label[k:k + 2]] for k in range(0, len(label), 2)))
    part = "real" if np.max(np.abs(op.imag)) < 1e-12 * np.max(np.abs(op)) else "imag"
    want = [getattr(np.einsum("eia,ij,ejb->ab", bra.conj(), op, ket), part)
            for bra, ket in ((v0, v0), (v1, v1), (v0, v1))]
    got = TailoringProblem(family, system, b)._sandwiches(name)
    assert got[0] == kind
    assert all(np.array_equal(g, w) for g, w in zip(got[1:], want))


def test_conditions_are_the_six_table_names(sb):
    assert tuple(CONDITIONS) == _CONDITIONS
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    # names the former operator-label grammar accepted, and malformed ones
    for name in ("diag-IX", "offdiag-IXIZ", "diag-bogus", "IZ", "diag-"):
        with pytest.raises(PreconditionError, match="the conditions are diag-IZ"):
            problem.evaluate(name, 0.0, 0.0)
        with pytest.raises(PreconditionError):
            problem.condition(name)


def test_shared_sandwich_map_refuses_assignment(sb):
    _, _, blocks = _field_setup("distorted-7/2", sb, 1.0)
    assert set(blocks) == set(CONDITIONS)
    with pytest.raises(TypeError):
        blocks["diag-IZ"] = blocks["diag-IXIX"]
    with pytest.raises(TypeError):
        CONDITIONS["diag-IX"] = ("diag", ("IX",), "real")


def test_problems_at_one_field_share_one_labelled_solve(monkeypatch, sb, bi):
    calls = []
    solve = spinqec.spin.hermitian_eigendecompose
    monkeypatch.setattr(spinqec.spin, "hermitian_eigendecompose",
                        lambda h: calls.append(h.shape) or solve(h))
    _field_setup.cache_clear()
    sol = solve_partial_tailoring_72(sb, 1.37)
    first, second = (TailoringProblem("distorted-7/2", sb, 1.37) for _ in range(2))
    assert len(calls) == 1
    # the solver's sandwiches are the very arrays the later problems read
    assert first._sandwiches("diag-IZ")[1] is second._sandwiches("diag-IZ")[1]
    assert first.evaluate("offdiag-IXIX", sol.eps1, sol.eps2) == \
        sol.residuals["offdiag-IXIX"]
    # another field, another family and system, or an equal system under
    # another name each make their own solve
    TailoringProblem("distorted-7/2", sb, 1.38)
    TailoringProblem("tailored-9/2", bi, 1.37)
    TailoringProblem("distorted-7/2", replace(sb, name="si-sb-copy"), 1.37)
    assert len(calls) == 4
    for array in (_field_setup("distorted-7/2", sb, 1.37)[1],
                  first._sandwiches("diag-IZ")[1], first._sandwiches("offdiag-IXIX")[3],
                  first._manifold[1.5].vector):
        with pytest.raises(ValueError):
            array[(0,) * array.ndim] = 1.0


def test_field_cache_is_bounded_and_rebuilds_equal(sb):
    _field_setup.cache_clear()
    xs = np.linspace(-0.05, 0.05, 41)
    names = ("diag-IZ", "offdiag-IXIX", "diag-IXIX")
    before = TailoringProblem("distorted-7/2", sb, 0.9)
    grids = [before.evaluate(name, xs[:, None], xs[None, :]) for name in names]
    maxsize = _field_setup.cache_info().maxsize
    for b in np.linspace(1.0, 2.0, maxsize + 3):
        TailoringProblem("distorted-7/2", sb, b)
        assert _field_setup.cache_info().currsize <= maxsize
    after = TailoringProblem("distorted-7/2", sb, 0.9)
    assert after._sandwiches("diag-IZ")[1] is not before._sandwiches("diag-IZ")[1]
    for name, grid in zip(names, grids):
        assert all(np.array_equal(m, n) for m, n in
                   zip(after._sandwiches(name)[1:], before._sandwiches(name)[1:]))
        assert np.array_equal(after.evaluate(name, xs[:, None], xs[None, :]), grid)


def test_grid_counts_are_refused_with_the_callers_value():
    for n in (0, -3, 2.5):
        with pytest.raises(PreconditionError, match=f"got {n!r},"):
            scan_common_zero_cells([lambda x, y: x], 0.05, n)
    for n in (1, 2.5):
        with pytest.raises(PreconditionError, match=f"got {n!r},"):
            seed_cells([lambda x, y: x], 0.05, n)
    assert len(scan_common_zero_cells([lambda x, y: x + 0.0 * y], 0.05, 1)) == 1


def test_problem_preconditions(sb, bi):
    with pytest.raises(PreconditionError):
        TailoringProblem("tailored-9/2", sb, 1.0)  # wrong nuclear spin
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    with pytest.raises(PreconditionError):
        problem.evaluate("diag-bogus", 0.0, 0.0)
    with pytest.raises(PreconditionError):
        solve_full_tailoring_92(sb, 1.0)
    with pytest.raises(PreconditionError):
        solve_partial_tailoring_72(bi, 1.0)

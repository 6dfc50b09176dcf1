"""Angle tailoring: residual conditions, closed-form roots, contour tracing.

Root coordinates and leftover residuals were frozen from solver runs that
were cross-checked against a numpy.linalg.eigh reconstruction of the same
dressed words.
"""

import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import spinqec.tailor
from spinqec.codewords import _TWO_LEVEL, branch_amplitudes, default_family, expectation, \
    first_order_errors, lift_to_electron_nuclear, make_codeword, standard_error_sets
from spinqec.linalg import NumericalError, PreconditionError
from spinqec.spin import SpinSystem, get_system, manifold_states, spin_operators
from spinqec.tailor import (
    CONDITIONS,
    TAILORING,
    DegenerateConditionsError,
    EmptyContourError,
    StructuralZeroError,
    TailoringProblem,
    VerificationError,
    _amplitudes,
    _chains,
    _distinct_segments,
    _field_setup,
    _line_axis,
    closed_form_roots,
    field_sweep_tailoring,
    find_roots,
    newton_solve,
    scan_common_zero_cells,
    seed_cells,
    solve_full_tailoring_92,
    solve_partial_tailoring_72,
    solve_tailoring,
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
    order bottom, right, top, left, and ``_chains_oracle``.
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
    return [pts[chain] for chain in _chains_oracle(segments)]


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
    # the duplicates go where trace_zero_contour removes them, each segment
    # kept at its first occurrence either way round
    distinct = _distinct_segments(np.asarray(segments, dtype=np.int64).reshape(-1, 2))
    want = []
    for a, b in segments:
        if [a, b] not in want and [b, a] not in want:
            want.append([a, b])
    assert distinct.tolist() == want
    # then the same chains, in the same order and direction
    assert _chains(distinct) == _chains_oracle(segments)


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
            ref = np.vdot(cw.zero_l, ixix @ cw.one_l)
            assert np.isclose(abs(got), abs(ref), atol=1e-12)


def _dense_targets(family, system, b, eps):
    """The family's target conditions at ``eps`` on the word ``make_codeword`` builds,
    through kron-lifted nuclear operators."""
    jx, _, jz = spin_operators(system.i)
    iz, ixix = (np.kron(np.eye(system.dim_e), op) for op in (jz, jx @ jx))
    cw = make_codeword(family, system, b, *eps)
    values = {"diag-IZ": np.subtract(*expectation(cw, iz)).real,
              "diag-IXIX": np.subtract(*expectation(cw, ixix)).real,
              "offdiag-IXIX": np.vdot(cw.zero_l, ixix @ cw.one_l).real}
    return [values[name] for name in TAILORING[family][0]]


@pytest.mark.parametrize("box, count", [(1.5, 2), (3.0, 5)])
def test_wide_box_roots_close_their_targets_by_the_dense_route(sb, box, count):
    # beyond the default box the 7/2 pair has roots from both signs of tan t1;
    # each must close diag-IZ and offdiag-IXIX on the word make_codeword builds
    roots = solve_tailoring("distorted-7/2", sb, 1.0, box).all_roots
    assert len(set(roots)) == len(roots) == count
    for eps in roots:
        assert max(abs(e) for e in eps) <= box
        assert max(map(abs, _dense_targets("distorted-7/2", sb, 1.0, eps))) < 1e-10


#: a donor whose 7/2 roots all come from the quad_c / big root of the quadratic in
#: tan^2 t1 (big / quad_a is -0.174 there).  For S = 1/2 that root is negative:
#: <I_z> of the m_S = -1/2 state labelled m is m - delta_m with delta_m in [0, 1],
#: which makes quad_b < 0 and so quad_c / big < 0; no S = 1/2 donor reaches it.
S11_2_DONOR = SpinSystem("s11_2-i7_2", 5.5, 3.5, -71.32951766985023, 0.5798996063768156,
                         2.1438092134845395)
S11_2_FIELD = 0.04792920350706706


@pytest.mark.parametrize("box, count", [(1.5, 2), (3.0, 8)])
def test_product_root_of_the_quadratic_is_reached_at_spin_11_2(box, count):
    problem = TailoringProblem("distorted-7/2", S11_2_DONOR, S11_2_FIELD)
    roots = closed_form_roots(problem, TAILORING["distorted-7/2"][0], box)
    assert len(set(roots)) == len(roots) == count
    for eps in roots:
        assert max(abs(e) for e in eps) <= box
        assert np.isclose(np.tan(problem.theta0 + eps[0]) ** 2, 0.023104111159185745,
                          rtol=1e-9, atol=0.0)
        targets = _dense_targets("distorted-7/2", S11_2_DONOR, S11_2_FIELD, eps)
        assert max(map(abs, targets)) < 1e-12


SCAN_CELLS = 400


@settings(max_examples=50, deadline=None)
@given(spin_i=st.sampled_from((3.5, 4.5)), g_n=st.floats(-10.0, 10.0),
       a=st.floats(20.0, 3000.0), a_sign=st.sampled_from((-1.0, 1.0)),
       b=st.floats(0.1, 6.0), box=st.floats(0.05, 3.0))
@example(spin_i=3.5, g_n=5.55, a=101.52, a_sign=1.0, b=1.0, box=3.0)  # Si:Sb, both tan signs
def test_roots_on_random_donors_match_a_plain_scan(spin_i, g_n, a, a_sign, b, box):
    system = SpinSystem("donor", 0.5, spin_i, 28020.0, g_n, a_sign * a)
    family = default_family(spin_i)
    names = TAILORING[family][0]
    problem = TailoringProblem(family, system, b)
    try:
        roots = solve_tailoring(family, system, b, box).all_roots
    except NumericalError:
        roots = ()  # a refusal
    # plain callables, so the scan evaluates every node (_grid_cells)
    funcs = [lambda x, y, name=name: problem.evaluate(name, x, y) for name in names]
    cells = np.reshape(scan_common_zero_cells(funcs, box, SCAN_CELLS), (-1, 2))
    h = 2.0 * box / SCAN_CELLS
    # a root up to two cells outside the box may make an edge cell qualify
    try:
        near = closed_form_roots(problem, names, box + 2.0 * h)
    except NumericalError:
        near = []
    assert list(roots) == [r for r in near if max(map(abs, r)) <= box]
    for eps in roots:
        assert max(map(abs, _dense_targets(family, system, b, eps))) < 1e-10
    # completeness: each qualifying cell lies within one cell diagonal of a root,
    # and each root in or next to a qualifying cell; a refusal has no cell but
    # next to a root just outside the box
    if cells.size:
        distance = np.hypot(*(cells - np.reshape(near, (-1, 1, 2))).T)  # cell x root
        assert distance.size and distance.min(axis=1).max() <= np.sqrt(2.0) * h
    for eps in roots:
        assert np.abs(cells - eps).max(axis=1).min() <= 1.5 * h


def test_field_independent_operators_are_read_only(sb, bi):
    # the cached condition operators and lifted error sets are shared by
    # every field; a write into one must raise, not move later solves
    for system in (sb, bi):
        ops = spinqec.tailor._condition_ops(system.i)
        assert ops.shape == (len(CONDITIONS), system.dim_n, system.dim_n)
        errors = first_order_errors(system)
        for op in (ops, *errors.ops):
            with pytest.raises(ValueError, match="read-only"):
                op[0, 0] = 1.0


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


@pytest.mark.parametrize("edges", [[(0, 5, 5)], [(0, 5, 5), (1, 5, 5), (0, 7, 7)]],
                         ids=["one-edge", "three-edges"])
def test_unpaired_crossed_edges_are_refused(edges):
    # a hand-made line_zeros whose crossed edges leave a cell with one edge;
    # unchecked, one edge raised EmptyContourError and three gave a mispaired
    # polyline
    def fn(x, y):
        return x + y

    edges = np.array(edges)
    fn.line_zeros = lambda xs: (edges, np.zeros((len(edges), 2)),
                                np.full(len(edges), -1), np.zeros(len(edges), bool))
    with pytest.raises(NumericalError, match="crossed edges do not pair up within grid cells"):
        trace_zero_contour(fn, 0.05, 0.01)


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
        lookup = lambda i, j, g=g: g[i, j]
        assert spinqec.tailor._corner_cells(lookup, rows, cols).tolist() == want


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
    return [np.array([verts[key] for key in chain]) for chain in _chains_oracle(segments)]


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
    _, _, sup0, sup1, _ = _TWO_LEVEL[problem.family]
    basis = np.column_stack([problem._manifold[m].vector for m in (*sup0, *sup1)]).reshape(
        problem.system.dim_e, problem.system.dim_n, 4)
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
    # evaluated values are exact zeros
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


def _recording_amplitudes(monkeypatch, passes):
    """Record the argument shapes of every non-scalar amplitude pass in tailor."""
    branch = spinqec.tailor.branch_amplitudes
    monkeypatch.setattr(spinqec.tailor, "branch_amplitudes", lambda family, e1, e2: (
        np.ndim(e1) and passes.append((family, np.shape(e1), np.shape(e2)))
        or branch(family, e1, e2)))


def test_condition_lines_take_one_broadcast_evaluation(monkeypatch, sb):
    # one _value call on the amplitudes of the grid axes extended by the three
    # fit angles gives every node's value and every grid line's coefficients,
    # and no more calls as the crossed edges multiply; scalar calls are the
    # saddle-cell centres.  The amplitudes are computed once per (family,
    # condition kind, grid) and only read by later traces
    calls, passes = [], []
    value = TailoringProblem._value
    monkeypatch.setattr(TailoringProblem, "_value", lambda self, name, amplitudes: (
        calls.append((np.shape(amplitudes[0]), np.shape(amplitudes[2])))
        or value(self, name, amplitudes)))
    _recording_amplitudes(monkeypatch, passes)
    _line_axis.cache_clear()
    _amplitudes.cache_clear()
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    for name in ("diag-IZ", "offdiag-IXIX"):
        vertices = []
        for step, n in ((0.0025, 41), (0.0005, 201)):
            first, again = [], []
            for polylines in (first, again):
                calls.clear()
                polylines += trace_zero_contour(problem.condition(name), 0.05, step)
                assert [call for call in calls if call != ((), ())] == \
                    [((n + 3, 1), (1, n + 3))]
            assert len(first) == len(again)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(first, again))
            vertices.append(sum(map(len, first)))
        assert vertices[1] > 4 * vertices[0]
    assert passes == [("distorted-7/2", (n + 3,), (n + 3,)) for n in (41, 201)] * 2


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


@pytest.mark.parametrize("family, names, coefficients, has_roots", [
    # cos 2t1 = 2 solves the diag pair: no real angle
    ("tailored-9/2", ("diag-IZ", "diag-IXIX"), (((0.0, 1.0), (2.0, 0.0)),
                                                ((0.0, 0.0), (0.0, 1.0))), False),
    ("tailored-9/2", ("diag-IZ", "diag-IXIX"), (((0.0, 1.0), (0.5, 0.0)),
                                                ((0.0, 0.0), (0.0, 1.0))), True),
    # kappa = 2 with quad_b = 0 and quad_a quad_c = 36: the quadratic in tan^2 t1
    # has a negative discriminant
    ("distorted-7/2", ("diag-IZ", "offdiag-IXIX"), (((3.0, -2.5), (0.0, -2.5)),
                                                    (1.0, -2.0)), False),
    ("distorted-7/2", ("diag-IZ", "offdiag-IXIX"), (((3.0, -2.5), (0.0, 2.5)),
                                                    (1.0, -2.0)), True),
], ids=["diag-no-cosine", "diag-roots", "mixed-negative-discriminant", "mixed-roots"])
def test_pair_without_real_angles_has_no_roots(monkeypatch, sb, bi, family, names,
                                               coefficients, has_roots):
    # closed-form coefficients with no real solution give no roots, and no NaN or
    # numpy warning on the way; nearby ones give roots
    problem = TailoringProblem(family, sb if family == "distorted-7/2" else bi, 1.0)
    monkeypatch.setattr(problem, "coefficients", dict(zip(names, coefficients)).__getitem__)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        found = closed_form_roots(problem, names, box=np.pi)
    assert bool(found) == has_roots and np.isfinite(found).all()


def test_root_failing_knill_laflamme_is_refused(monkeypatch, bi):
    # the 9/2 root closes the first-order set; against the ten-operator set,
    # which it does not close, the verification refuses it
    wider = lift_to_electron_nuclear(standard_error_sets("firstorder-EB", bi.i), bi)
    monkeypatch.setattr(spinqec.tailor, "first_order_errors", lambda system: wider)
    with pytest.raises(VerificationError, match="fails first-order KL verification"):
        solve_tailoring("tailored-9/2", bi, 1.0)


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


def test_scan_evaluates_later_conditions_on_kept_corners(monkeypatch, sb, bi):
    calls, passes = [], []
    evaluate = TailoringProblem.evaluate
    monkeypatch.setattr(TailoringProblem, "evaluate", lambda self, name, e1, e2: (
        calls.append(name) or evaluate(self, name, e1, e2)))
    offdiag = spinqec.tailor._offdiag_value
    monkeypatch.setattr(spinqec.tailor, "_offdiag_value", lambda m01, c1, *rest: (
        calls.append(np.shape(c1)) or offdiag(m01, c1, *rest)))
    _recording_amplitudes(monkeypatch, passes)
    _amplitudes.cache_clear()
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    names = ("diag-IZ", "offdiag-IXIX", "offdiag-IXIY")
    for _ in range(2):
        calls.clear()
        cells = scan_common_zero_cells([problem.condition(n) for n in names], 0.05, 400)
        assert len(cells) == 2
        # no evaluate call: the diag first condition's cells come from its line
        # terms, and each offdiag one is computed once, on kept corners only;
        # every condition reads the amplitudes on the 401 axis nodes that the
        # first scan computed once
        assert passes == [("distorted-7/2", (401,), (401,))]
        assert len(calls) == 2
        for corners, kept in calls:
            assert corners == 4 and 4 * kept < 0.02 * 401 * 401
    # another family or grid is one more pass each
    scan_common_zero_cells([TailoringProblem("tailored-9/2", bi, 1.0).condition("diag-IZ")],
                           0.05, 400)
    scan_common_zero_cells([problem.condition(n) for n in names], 0.05, 40)
    assert passes[1:] == [("tailored-9/2", (401,), (401,)), ("distorted-7/2", (41,), (41,))]
    # no cell left: the remaining conditions are not evaluated at all
    calls.clear()
    far = [problem.condition("diag-IZ"), lambda x, y: 1.0 + 0.0 * x,
           problem.condition("offdiag-IXIX")]
    assert scan_common_zero_cells(far, 0.05, 400) == []
    assert calls == []


@settings(max_examples=60, deadline=None)
@given(family=st.sampled_from(sorted(_SYSTEM_OF)),
       box=st.floats(min_value=1e-6, max_value=2.0),
       step_per_box=st.floats(min_value=2e-3, max_value=1.0), kind=st.sampled_from([1.0, 2.0]))
@example(family="distorted-7/2", box=0.05, step_per_box=0.05, kind=2.0)  # default contour
@example(family="tailored-9/2", box=0.05, step_per_box=0.005, kind=1.0)  # default scan
def test_cached_grids_and_amplitudes_are_the_uncached_bits(family, box, step_per_box, kind):
    # the grid axis, its amplitudes and the extended axis's amplitudes, as
    # line_zeros and cells read them, hold the very bits of the calls they replace
    n = max(3, int(np.ceil(2.0 * box / (box * step_per_box))) + 1)  # as trace_zero_contour
    xs = spinqec.tailor._grid(box, n)
    assert xs.tobytes() == np.linspace(-box, box, n).tobytes()
    got = _amplitudes(family, xs.tobytes())
    want = branch_amplitudes(family, xs, xs)
    assert [a.tobytes() for a in got] == [a.tobytes() for a in want]
    theta0 = _TWO_LEVEL[family][1]
    axis = np.concatenate((xs, np.array([0.0, np.pi / 2.0, np.pi]) / kind - theta0))
    got, distinct = _line_axis(family, kind, xs.tobytes())
    want = branch_amplitudes(family, axis[:, None], axis[None, :])
    assert [(a.shape, a.tobytes()) for a in got] == [(a.shape, a.tobytes()) for a in want]
    assert distinct == (np.diff(theta0 + xs) > 0.0).all()


def test_grid_caches_are_read_only_and_bounded(sb):
    grid, amplitudes, line_axis = spinqec.tailor._grid, _amplitudes, _line_axis
    for cache in (grid, amplitudes, line_axis):
        cache.cache_clear()
    fn = TailoringProblem("distorted-7/2", sb, 1.0).condition("offdiag-IXIX")
    for box in np.linspace(0.01, 0.05, 12):
        trace_zero_contour(fn, box, box / 20.0)
        scan_common_zero_cells([fn], box, 40)
    for cache in (grid, amplitudes, line_axis):
        info = cache.cache_info()
        assert info.maxsize == 8 and info.currsize == 8
    xs = grid(0.05, 41)
    arrays = [xs, *amplitudes("distorted-7/2", xs.tobytes()),
              *line_axis("distorted-7/2", 1.0, xs.tobytes())[0]]
    assert not any(array.flags.writeable for array in arrays)


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
    for got, nodes in zip(problem.cells("diag-IZ", xs), np.divmod(np.flatnonzero(want), n)):
        assert np.array_equal(got, nodes)
    # the lower nodes of every kept cell and of every 7th cell
    rows, cols = np.divmod(np.union1d(np.flatnonzero(want), np.arange(0, n * n, 7)), n)
    keep = want[rows, cols]
    for got, nodes in zip(problem.cells("diag-IZ", xs, rows, cols), (rows[keep], cols[keep])):
        assert np.array_equal(got, nodes)
    # the scan, with the diag condition first and later, equals the grid route
    for names in (("diag-IZ", "diag-IXIX"), ("offdiag-IXIX", "diag-IZ"),
                  ("diag-IXIX", "diag-IZ")):
        funcs = [problem.condition(name) for name in names]
        plain = [lambda x, y, fn=fn: fn(x, y) for fn in funcs]
        assert scan_common_zero_cells(funcs, 0.05, n) == \
            scan_common_zero_cells(plain, 0.05, n)


def _outer_cells(g, h):
    """The former diag route, kept as the oracle: the row-major lower nodes of the
    cells kept by two outer comparisons of the line terms' per-cell min/max."""
    g_lo, g_hi = np.minimum(g[:-1], g[1:]), np.maximum(g[:-1], g[1:])
    h_lo, h_hi = np.minimum(h[:-1], h[1:]), np.maximum(h[:-1], h[1:])
    mask = np.less_equal.outer(g_lo, h_hi) & np.greater_equal.outer(g_hi, h_lo)
    return np.divmod(np.flatnonzero(mask), h.size - 1)


@st.composite
def _line_term(draw, alpha):
    """(alpha, r, peak, cross) of a diag line term alpha + r cos 2(t - theta0 - peak):
    rising over |eps| <= 0.05 for peak 0.3, falling for -0.3, with an interior
    extremum for |peak| < 0.04, flat but for rounding for r = 0, or exactly 0."""
    shape = draw(st.sampled_from(["rising", "falling", "extremum", "flat", "zero"]))
    if shape == "zero":
        return 0.0, 0.0, 0.0, 0.0
    r = 0.0 if shape == "flat" else draw(st.floats(min_value=1e-3, max_value=1.0))
    peak = {"rising": 0.3, "falling": -0.3}.get(shape) or draw(
        st.floats(min_value=-0.04, max_value=0.04))
    return draw(alpha), r, peak, draw(st.floats(min_value=0.0, max_value=1.0))


def _diag_block(alpha, r, peak, cross, theta0, sign):
    """The 2 x 2 block of that line term for words with ``sign`` on cos t, its
    cross term split cross : 1 - cross over m[0, 1] and m[1, 0]."""
    phi = 2.0 * (theta0 + peak)
    off = 2.0 * sign * r * np.sin(phi)
    return np.array([[alpha + r * np.cos(phi), cross * off],
                     [(1.0 - cross) * off, alpha - r * np.cos(phi)]])


@settings(max_examples=150, deadline=None)
@given(family=st.sampled_from(sorted(_SYSTEM_OF)), data=st.data(),
       n=st.sampled_from([1, 2, 7, 40, 400]), box=st.sampled_from([0.05, 5e-4, 1.0]),
       same=st.booleans())
def test_range_cells_match_outer_comparison_oracle(family, data, n, box, same):
    # random diag sandwiches whose h is rising, falling, has an interior
    # extremum, is flat but for rounding, or is 0; with the same line term for
    # g and h, f is exactly 0 at every diagonal node
    problem = TailoringProblem(family, get_system(_SYSTEM_OF[family]), 1.0)
    g_term = data.draw(_line_term(st.floats(min_value=-1.0, max_value=1.0)))
    # h near g, so that many cells qualify
    h_term = g_term if same else data.draw(_line_term(
        st.floats(min_value=-0.05, max_value=0.05).map(lambda d: g_term[0] + d)))
    m00 = _diag_block(*g_term, problem.theta0, 1.0)
    m11 = _diag_block(*h_term, problem.theta0, problem.sign1)
    xs = np.linspace(-box, box, n + 1)
    with pytest.MonkeyPatch.context() as mp:
        _patch_sandwiches(mp, problem, "diag-IZ", lambda *_: ("diag", m00, m11, None))
        if same:
            assert not np.any(problem.evaluate("diag-IZ", xs, xs))
        got = problem.cells("diag-IZ", xs)
    want = _outer_cells(*spinqec.tailor._diag_lines(
        m00, m11, *branch_amplitudes(problem.family, xs, xs)))
    assert all(np.array_equal(a, b) and a.dtype == b.dtype for a, b in zip(got, want))


_LINE_VALUES = st.sampled_from([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0, 3.0])


@settings(max_examples=300, deadline=None)
@given(g=st.lists(_LINE_VALUES, min_size=2, max_size=30),
       h=st.lists(_LINE_VALUES, min_size=2, max_size=30))
@example(g=[0.0, 0.0], h=[0.0, 0.0])
@example(g=[1.0, -1.0, 1.0], h=[-0.0, 0.0, -0.0, 1.0, 1.0, -1.0])
def test_range_cells_on_many_runs_and_ties(g, h):
    # small integer line terms: many monotone runs, flat steps, signed zeros
    g, h = np.array(g), np.array(h)
    g_lo, g_hi = np.minimum(g[:-1], g[1:]), np.maximum(g[:-1], g[1:])
    got = spinqec.tailor._range_cells(g_lo, g_hi, h)
    assert all(np.array_equal(a, b) for a, b in zip(got, _outer_cells(g, h)))


def _nan_blocks(kind, m00, m11, m01):
    """The blocks with one NaN entry in each."""
    def poisoned(m):
        m = np.array(m)
        m[0, 0] = np.nan
        return m
    return kind, poisoned(m00), poisoned(m11), poisoned(m01)


@pytest.mark.parametrize("name", ["diag-IZ", "offdiag-IXIX"])
def test_nan_sandwich_is_refused_by_scan_and_contour(monkeypatch, sb, name):
    # the diag range route would read NaN line terms as no qualifying cell, and
    # the contour's nearest-node cast of NaN roots raised a bare IndexError
    problem = TailoringProblem("distorted-7/2", sb, 1.0)
    other = problem.condition("diag-IXIX")
    _patch_sandwiches(monkeypatch, problem, name, _nan_blocks)
    fn = problem.condition(name)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for funcs in ([fn], [other, fn], [lambda x, y: fn(x, y)]):
            with pytest.raises(NumericalError, match="NaN"):
                scan_common_zero_cells(funcs, 0.05, 400)
        with pytest.raises(NumericalError, match="NaN or infinite on a grid line"):
            trace_zero_contour(fn)


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


@pytest.mark.parametrize("family, at0, at1", [
    ("distorted-7/2", (0, 5), (7, 2)),  # m = -7/2, +3/2 and +7/2, -3/2
    ("tailored-9/2", (0, 6), (9, 3)),  # m = -9/2, +3/2 and +9/2, -3/2
])
def test_branch_amplitudes_are_the_word_entries(family, at0, at1):
    for eps1, eps2 in ((0.0, 0.0), (0.004, -0.003), (-0.05, 0.05), (1e-9, -2.5e-6)):
        word = make_codeword(family, eps1=eps1, eps2=eps2)
        want = (*word.zero_l[list(at0)].real, *word.one_l[list(at1)].real)
        got = branch_amplitudes(family, eps1, eps2)
        assert np.array(got).tobytes() == np.array(want).tobytes()
    # one convention: the stretched |1_L> term is signed for 7/2 only
    assert (branch_amplitudes(family, 0.0, 0.0)[2] < 0.0) == (family == "distorted-7/2")
    eps = np.linspace(-0.05, 0.05, 5)
    grid = branch_amplitudes(family, eps[:, None], eps[None, :3])
    assert [a.shape for a in grid] == [(5, 1), (5, 1), (1, 3), (1, 3)]
    grid = np.broadcast_arrays(*grid)
    for i, j in ((0, 0), (4, 2), (2, 1)):
        np.testing.assert_allclose([a[i, j] for a in grid],
                                   branch_amplitudes(family, eps[i], eps[j]), rtol=1e-15)


def test_solve_tailoring_reads_the_family_table(sb, bi):
    assert dict(TAILORING) == {
        "tailored-9/2": (("diag-IZ", "diag-IXIX"),
                         ("diag-IYIY", "diag-IZIZ", "offdiag-IXIX", "offdiag-IXIY"), True,
                         ("diag-IZ", "diag-IXIX")),
        "distorted-7/2": (("diag-IZ", "offdiag-IXIX"), ("offdiag-IXIY", "diag-IXIX"), False,
                          ("diag-IZ", "offdiag-IXIX", "offdiag-IXIY")),
    }
    with pytest.raises(TypeError):
        TAILORING["ideal-7/2"] = TAILORING["distorted-7/2"]
    for family, system, named in (("tailored-9/2", bi, solve_full_tailoring_92),
                                  ("distorted-7/2", sb, solve_partial_tailoring_72)):
        targets, leftovers, verified, _ = TAILORING[family]
        sol = solve_tailoring(family, system, 1.37)
        assert sol.targets == targets
        assert tuple(sol.residuals) == targets + leftovers
        assert np.isnan(sol.kl_max) != verified
        ref = named(system, 1.37)
        assert (sol.eps1, sol.eps2, sol.all_roots, sol.residuals) == \
            (ref.eps1, ref.eps2, ref.all_roots, ref.residuals)
    for family in ("ideal-7/2", "ideal-9/2", "spin-23/2", "bogus"):
        with pytest.raises(PreconditionError, match="tailoring applies to the families"):
            solve_tailoring(family, sb, 1.0)


def test_spin_mismatch_is_one_refusal(sb, bi):
    message = r"distorted-7/2 needs a nuclear spin 3\.5, system has I=4\.5"
    with pytest.raises(PreconditionError, match=message):
        make_codeword("distorted-7/2", bi, 1.0)
    with pytest.raises(PreconditionError, match=message):
        TailoringProblem("distorted-7/2", bi, 1.0)
    with pytest.raises(PreconditionError, match=message):
        solve_tailoring("distorted-7/2", bi, 1.0)


def test_oversized_grids_and_boxes_are_refused(sb):
    # each is refused before its grid or branch list is allocated
    fn = TailoringProblem("distorted-7/2", sb, 1.0).condition("diag-IZ")
    for box, step in ((1e300, 0.0025), (0.05, 1e-300), (1e300, 1e299), (1e308, 1e-308)):
        with pytest.raises(PreconditionError):
            trace_zero_contour(fn, box, step)
    for n in (10**15, 2**62):
        with pytest.raises(PreconditionError, match="cells"):
            scan_common_zero_cells([fn], 0.05, n)
        with pytest.raises(PreconditionError, match="grid nodes"):
            seed_cells([fn], 0.05, n)
    with pytest.raises(PreconditionError, match="branches"):
        solve_partial_tailoring_72(sb, 1.0, box=1e300)


@pytest.mark.parametrize("box", [1e-300, 1e-20, 1e-17])
def test_unresolved_contour_grid_is_refused(sb, box):
    # theta0 + eps rounds every node of so small a box to one angle; the
    # closed form would divide by a zero node spacing
    fn = TailoringProblem("distorted-7/2", sb, 1.0).condition("offdiag-IXIX")
    with pytest.raises(PreconditionError, match="coincide"):
        trace_zero_contour(fn, box, 1e-4)
    with pytest.raises(PreconditionError, match="coincide"):
        fn.line_zeros(np.linspace(-box, box, 3))


def test_field_sweep_modes(sb):
    rows = field_sweep_tailoring(sb, (0.5, 1.0), "distorted-7/2")
    assert [r["b_tesla"] for r in rows] == [0.5, 1.0]
    for row in rows:
        assert row["converged"]
        assert abs(row["residual_diag-IZ"]) < 1e-12
        assert abs(row["residual_offdiag-IXIX"]) < 1e-12
    frozen = field_sweep_tailoring(sb, (0.5, 1.0), "distorted-7/2", freeze_at=1.0)
    # angles frozen at 1 T no longer cancel the 0.5 T conditions
    assert abs(frozen[0]["residual_diag-IZ"]) > 1e-7
    assert abs(frozen[0]["eps1_rad"] - frozen[1]["eps1_rad"]) < 1e-15
    with pytest.raises(PreconditionError):
        field_sweep_tailoring(sb, (), family="ideal-7/2")  # refused with no field to solve


@pytest.mark.parametrize("system, family, names", [
    ("sb", "distorted-7/2",
     ("diag-IZ", "offdiag-IXIX", "offdiag-IXIY", "diag-IXIX")),
    ("bi", "tailored-9/2",
     ("diag-IZ", "diag-IXIX", "diag-IYIY", "diag-IZIZ", "offdiag-IXIX",
      "offdiag-IXIY")),
])
def test_field_sweep_residuals_match_fresh_problem(request, system, family, names):
    # a row reads its residuals from one amplitude pass at its angles; the
    # public evaluate of a fresh problem per field is the reference, bit for
    # bit, in re-solve and frozen sweeps
    spin_system = request.getfixturevalue(system)
    fields = (0.5, 1.0, 2.0)
    for freeze_at in (None, 1.3):
        rows = field_sweep_tailoring(spin_system, fields, family, freeze_at=freeze_at)
        for b, row in zip(fields, rows):
            problem = TailoringProblem(family, spin_system, b)
            assert [k for k in row if k.startswith("residual_")] == \
                [f"residual_{name}" for name in names]
            for name in names:
                value = row[f"residual_{name}"]
                want = problem.evaluate(name, row["eps1_rad"], row["eps2_rad"])
                assert type(value) is float
                assert np.float64(value).view(np.uint64) == np.float64(want).view(np.uint64)


@settings(max_examples=40, deadline=None)
@given(b=st.floats(min_value=0.2, max_value=5.0),
       family=st.sampled_from(sorted(_SYSTEM_OF)),
       name=st.sampled_from(_CONDITIONS))
@example(b=1.1, family="distorted-7/2", name="offdiag-IXIX")
def test_stacked_sandwiches_equal_three_einsums(b, family, name):
    # the two ordered steps over the stacked (dim_e, dim_n, 4) basis give the
    # same bits, signs of zeros included, as the three 2-column sandwiches
    # built from fresh branch vectors; conj(b) (O b) moves m01 at 1.1 T
    system = get_system(_SYSTEM_OF[family])
    _, _, sup0, sup1, _ = _TWO_LEVEL[family]
    manifold = manifold_states(system, b)
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
    assert all(np.array_equal(g.view(np.uint64), w.view(np.uint64))
               for g, w in zip(got[1:], want))


@pytest.mark.parametrize("family", sorted(_SYSTEM_OF))
def test_solver_residuals_are_evaluate_bits(family):
    # the solver reads every residual from one amplitude pass at its root; the
    # public evaluate at the same angles is the reference, bit for bit
    system = get_system(_SYSTEM_OF[family])
    targets, leftovers = TAILORING[family][:2]
    for b in (round(0.2 + 0.1 * k, 10) for k in range(59)):
        sol = solve_tailoring(family, system, b)
        problem = TailoringProblem(family, system, b)
        assert tuple(sol.residuals) == (*targets, *leftovers)
        for name, value in sol.residuals.items():
            want = problem.evaluate(name, sol.eps1, sol.eps2)
            assert type(value) is float
            assert np.float64(value).view(np.uint64) == np.float64(want).view(np.uint64)


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
    _, blocks = _field_setup("distorted-7/2", sb, 1.0)
    assert set(blocks) == set(CONDITIONS)
    with pytest.raises(TypeError):
        blocks["diag-IZ"] = blocks["diag-IXIX"]
    with pytest.raises(TypeError):
        CONDITIONS["diag-IX"] = ("diag", ("IX",), "real")


def test_problems_at_one_field_share_one_labelled_solve(solves, sb, bi):
    _field_setup.cache_clear()
    sol = solve_partial_tailoring_72(sb, 1.37)
    first, second = (TailoringProblem("distorted-7/2", sb, 1.37) for _ in range(2))
    assert len(solves) == 1
    # the solver's sandwiches are the very arrays the later problems read
    assert first._sandwiches("diag-IZ")[1] is second._sandwiches("diag-IZ")[1]
    assert first.evaluate("offdiag-IXIX", sol.eps1, sol.eps2) == \
        sol.residuals["offdiag-IXIX"]
    # another field, another family and system, or an equal system under
    # another name each make their own solve
    TailoringProblem("distorted-7/2", sb, 1.38)
    TailoringProblem("tailored-9/2", bi, 1.37)
    TailoringProblem("distorted-7/2", replace(sb, name="si-sb-copy"), 1.37)
    assert len(solves) == 4
    for array in (first._sandwiches("diag-IZ")[1], first._sandwiches("offdiag-IXIX")[3],
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

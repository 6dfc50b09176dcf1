"""In-memory span recorder that times calls into the spinqec layers from outside.

The tracer changes nothing under ``src/``.  It replaces each traced function
at every place it is looked up: ``from .x import y`` binds ``y`` inside the
importing module, so patching only the defining module would miss most
calls.  Methods (``TailoringProblem.__init__`` / ``evaluate``) are patched on
the class, which every caller shares.

Spans are kept in flat arrays (name id, start, end, parent index, op id) and
written out once, at the end of a run.  A span's self time is its duration
minus the durations of its direct children.
"""

import functools
import gzip
import json
import sys
import time
from array import array

import numpy as np

#: traced functions: (defining module, attribute, span name)
FUNCTIONS = (
    ("spinqec.linalg", "hermitian_eigendecompose", "linalg.hermitian_eigendecompose"),
    ("spinqec.linalg", "kron", "linalg.kron"),
    ("spinqec.spin", "build_hamiltonian", "spin.build_hamiltonian"),
    ("spinqec.spin", "dressed_eigenstates", "spin.dressed_eigenstates"),
    ("spinqec.spin", "transition_gradients", "spin.transition_gradients"),
    ("spinqec.codewords", "make_codeword", "codewords.make_codeword"),
    ("spinqec.codewords", "standard_error_sets", "codewords.standard_error_sets"),
    ("spinqec.codewords", "lift_to_electron_nuclear", "codewords.lift_to_electron_nuclear"),
    ("spinqec.codewords", "kl_residuals", "codewords.kl_residuals"),
    ("spinqec.tailor", "seed_cells", "tailor.seed_cells"),
    ("spinqec.tailor", "newton_solve", "tailor.newton_solve"),
    ("spinqec.tailor", "find_roots", "tailor.find_roots"),
    ("spinqec.tailor", "trace_zero_contour", "tailor.trace_zero_contour"),
    ("spinqec.tailor", "scan_common_zero_cells", "tailor.scan_common_zero_cells"),
    ("spinqec.register", "apply_gates", "register.apply_gates"),
    ("spinqec.register", "apply_error", "register.apply_error"),
    ("spinqec.blocks", "detection_block", "blocks.detection_block"),
    ("spinqec.blocks", "validate_block", "blocks.validate_block"),
    ("spinqec.cycle", "build_detection_plan", "cycle.build_detection_plan"),
    ("spinqec.cycle", "detection_records", "cycle.detection_records"),
    ("spinqec.cycle", "sample_records", "cycle.sample_records"),
    ("spinqec.cycle", "pulse_budget", "cycle.pulse_budget"),
)

#: traced methods: (module, class, method, span name)
METHODS = (
    ("spinqec.tailor", "TailoringProblem", "__init__", "tailor.TailoringProblem"),
    ("spinqec.tailor", "TailoringProblem", "evaluate", "tailor.evaluate"),
)

SPAN_NAMES = tuple(name for *_, name in FUNCTIONS + METHODS)

#: spans that may raise an error worth counting
FAIL_COUNTED = ("linalg.hermitian_eigendecompose", "spin.dressed_eigenstates")

#: (parent, child) pairs whose child span is folded into the parent:
#: scan_common_zero_cells is a one-line delegate to seed_cells on a finer
#: grid, so the scan's cost is the scan's own self time.
FOLDED = (("tailor.scan_common_zero_cells", "tailor.seed_cells"),)

COUNTERS = ("codewords.error_op_mb", "tailor.points_evaluated",
            "tailor.newton_iterations", "tailor.newton_converged",
            "register.pulses_applied")


class Tracer:
    """Span and counter store for one process.

    ``op`` is the id stamped on every span opened until it changes; the
    harness sets it to the op index around each timed op and to -1 during
    set-up.
    """

    def __init__(self):
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.span_op = array("i")
        self.ids = {n: k for k, n in enumerate(SPAN_NAMES)}
        self.fails = [0] * len(SPAN_NAMES)
        self.counts = dict.fromkeys(COUNTERS, 0.0)  # during ops
        self.setup_counts = dict.fromkeys(COUNTERS, 0.0)  # outside ops
        self.op = -1
        self._stack = []
        self._pulses = {}  # id(gate sequence) -> (sequence, pulse count)
        self._patches = []
        self._cache_info = None
        self._absorbed_cache = [0, 0]

    # -- span recording ----------------------------------------------------

    def _wrap(self, fn, span_name, after=None):
        nid = self.ids[span_name]
        count_fail = span_name in FAIL_COUNTED
        fold_under = {self.ids[p] for p, c in FOLDED if c == span_name}
        stack, names, parents = self._stack, self.name, self.parent
        span_op, starts, ends = self.span_op, self.start, self.end
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if fold_under and stack and names[stack[-1]] in fold_under:
                return fn(*args, **kwargs)
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            span_op.append(self.op)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if count_fail:
                    self.fails[nid] += 1
                raise
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(args, result)
            return result

        return traced

    # -- counters at the same boundaries ------------------------------------

    def _counts(self):
        return self.counts if self.op >= 0 else self.setup_counts

    def _count_error_ops(self, args, result):
        self._counts()["codewords.error_op_mb"] += sum(op.nbytes for op in result.ops) / 1e6

    def _count_points(self, args, result):
        self._counts()["tailor.points_evaluated"] += max(getattr(args[2], "size", 1),
                                                         getattr(args[3], "size", 1))

    def _count_newton(self, args, result):
        counts = self._counts()
        counts["tailor.newton_iterations"] += result[2]
        counts["tailor.newton_converged"] += bool(result[1])

    def _count_pulses(self, args, result):
        gates = args[1]
        hit = self._pulses.get(id(gates))
        if hit is None or hit[0] is not gates:
            hit = (gates, sum(g.pulse_count for g in gates))
            if isinstance(gates, tuple):
                self._pulses[id(gates)] = hit
        self._counts()["register.pulses_applied"] += hit[1]

    # -- installation --------------------------------------------------------

    def install(self):
        """Patch every lookup site of the traced functions and methods."""
        import spinqec  # noqa: F401  (loads every submodule)

        after = {
            "codewords.standard_error_sets": self._count_error_ops,
            "codewords.lift_to_electron_nuclear": self._count_error_ops,
            "tailor.evaluate": self._count_points,
            "tailor.newton_solve": self._count_newton,
            "register.apply_gates": self._count_pulses,
        }
        modules = [m for k, m in sorted(sys.modules.items())
                   if m is not None and (k == "spinqec" or k.startswith("spinqec."))]
        for modname, attr, span_name in FUNCTIONS:
            orig = getattr(sys.modules[modname], attr)
            if span_name == "cycle.build_detection_plan":
                self._cache_info = orig.cache_info
            traced = self._wrap(orig, span_name, after.get(span_name))
            for mod in modules:
                if mod.__dict__.get(attr) is orig:
                    self._patches.append((mod, attr, orig))
                    setattr(mod, attr, traced)
        for modname, clsname, meth, span_name in METHODS:
            cls = getattr(sys.modules[modname], clsname)
            orig = cls.__dict__[meth]
            self._patches.append((cls, meth, orig))
            setattr(cls, meth, self._wrap(orig, span_name, after.get(span_name)))
        return self

    def uninstall(self):
        for owner, attr, orig in reversed(self._patches):
            setattr(owner, attr, orig)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def absorb(self, payload, op):
        """Append the spans and counts a traced child process dumped."""
        base = len(self.start)
        self.name.extend(payload["name"])
        self.start.extend(payload["start"])
        self.end.extend(payload["end"])
        self.parent.extend(p + base if p >= 0 else -1 for p in payload["parent"])
        self.span_op.extend([op] * len(payload["name"]))
        for key, val in payload["fails"].items():
            self.fails[self.ids[key]] += val
        for key, val in payload["counts"].items():
            self.counts[key] += val
        for k in (0, 1):
            self._absorbed_cache[k] += payload["plan_cache"][k]

    # -- derived figures ----------------------------------------------------

    def plan_cache(self):
        """(hits, misses) of the detection-plan cache, this process plus children."""
        hits, misses = self._absorbed_cache
        if self._cache_info is not None:
            info = self._cache_info()
            hits, misses = hits + info.hits, misses + info.misses
        return hits, misses

    def self_times(self):
        """Per-span self time: duration minus the direct children's durations."""
        dur = np.array(self.end) - np.array(self.start)
        parent = np.array(self.parent, dtype=np.int64)
        own = dur.copy()
        has_parent = parent >= 0
        np.subtract.at(own, parent[has_parent], dur[has_parent])
        return own

    def layer_totals(self, ops):
        """{span name: (calls, self seconds)} over spans of the given op ids."""
        own = self.self_times()
        names = np.array(self.name, dtype=np.int64)
        keep = np.isin(np.array(self.span_op, dtype=np.int64), list(ops))
        calls = np.bincount(names[keep], minlength=len(SPAN_NAMES))
        selfs = np.bincount(names[keep], weights=own[keep], minlength=len(SPAN_NAMES))
        return {nm: (int(calls[k]), float(selfs[k])) for k, nm in enumerate(SPAN_NAMES)}

    def dump(self, path):
        """Write every span, column-wise, as gzipped JSON."""
        payload = {
            "names": list(SPAN_NAMES),
            "name": self.name.tolist(),
            "start": self.start.tolist(),
            "end": self.end.tolist(),
            "parent": self.parent.tolist(),
            "op": self.span_op.tolist(),
            "fails": dict(zip(SPAN_NAMES, self.fails)),
            "counts": self.counts,
            "setup_counts": self.setup_counts,
            "plan_cache": list(self.plan_cache()),
        }
        with gzip.open(path, "wt") as fh:
            json.dump(payload, fh)


def load_spans(path):
    with gzip.open(path, "rt") as fh:
        return json.load(fh)

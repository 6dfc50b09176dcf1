"""The four benchmark workloads: inputs from a seed, set-up, one op, and its check.

Every workload draws a pool of op inputs from the seed alone; op ``i`` runs
on ``pool[i % len(pool)]`` (for ``cli``, one entry per cycle of commands).
The program under test receives only those inputs.  Each ``check`` compares an op's output with references that do not
go through the measured route (``numpy.linalg.eigvalsh``, dense operators
built here, parsed CLI output) and raises :class:`CheckFailed` on a miss.
"""

import json
import math
import os
import subprocess
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(ROOT, ".perfbench_out")

#: odd, so that alternating traced/untraced ops both visit every input
POOL = 63


class CheckFailed(Exception):
    """An op's output disagreed with its reference."""


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _rng(seed, stream):
    return np.random.default_rng([seed % 2**32, stream])


def _halton(n, bases, rng):
    """n points of a Halton sequence in [0, 1)^d, shifted by a seeded offset.

    Op cost depends on the field, and a run reaches only as many pool
    entries as the host's speed allows.  With plain random draws the
    per-run median moved with which fields a run happened to reach; any
    prefix of a Halton sequence covers the ranges evenly.
    """
    shift = rng.random(len(bases))
    points = np.empty((n, len(bases)))
    for i in range(n):
        for d, base in enumerate(bases):
            k, f, r = i + 1, 1.0, 0.0
            while k:
                f /= base
                r += f * (k % base)
                k //= base
            points[i, d] = r
    return (points + shift) % 1.0


def spin_matrices(j):
    """(Jx, Jy, Jz) for spin j from the ladder formula, built here on purpose."""
    m = np.arange(-j, j + 1.0)
    lam = np.sqrt(j * (j + 1) - m[:-1] * (m[:-1] + 1))
    jp = np.diag(lam.astype(complex), -1)
    return (jp + jp.T) / 2, (jp - jp.T) / 2j, np.diag(m.astype(complex))


def child_env():
    """Environment for child interpreters: this checkout's ``src`` first."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Workload:
    name = ""
    #: ops that form one indivisible round (every run ends on a round boundary)
    round_ops = 1

    def inputs(self, seed):
        raise NotImplementedError

    def op_input(self, inputs, i):
        pool = inputs["pool"]
        return pool[i % len(pool)]

    def setup(self, sq, inputs):
        raise NotImplementedError

    def op(self, sq, state, x):
        raise NotImplementedError

    def check(self, sq, state, x, out):
        raise NotImplementedError


# ---------------------------------------------------------------------------
# spectra: dense Jacobi on tilted fields, labelling on axial fields
# ---------------------------------------------------------------------------

class Spectra(Workload):
    """Four donors per op; a tilted field makes every Jacobi matrix dense."""

    name = "spectra"
    #: user-supplied donors, written as key-value files.  Their parameters
    #: stay fixed: the Jacobi cost depends on them, and a per-seed donor
    #: would move every op of a run at once.
    USER = ({"name": "user-i11_2", "I": "11/2", "g_n": 5.0, "A": 300.0},
            {"name": "user-i23_2", "I": "23/2", "g_n": 3.0, "A": 200.0})

    def inputs(self, seed):
        fields = []
        for u_mag, u_tilt, u_phi in _halton(POOL, (2, 3, 5), _rng(seed, 1)):
            mag = 0.2 + 4.8 * u_mag
            tilt = math.radians(5.0 + 85.0 * u_tilt)
            phi = 2 * math.pi * u_phi
            vec = mag * np.array([math.sin(tilt) * math.cos(phi),
                                  math.sin(tilt) * math.sin(phi), math.cos(tilt)])
            fields.append((mag, vec))
        return {"pool": fields}

    def setup(self, sq, inputs):
        os.makedirs(OUT_DIR, exist_ok=True)
        systems = [sq.get_system("si-sb"), sq.get_system("si-bi")]
        for donor in self.USER:
            path = os.path.join(OUT_DIR, f"{donor['name']}-{os.getpid()}.txt")
            with open(path, "w") as fh:
                fh.write(f"name = {donor['name']}\nS = 1/2\nI = {donor['I']}\n"
                         f"g_e_MHz_per_T = 28020.0\n"
                         f"g_n_MHz_per_T = {donor['g_n']!r}\nA_MHz = {donor['A']!r}\n")
            systems.append(sq.load_system(path))
            os.remove(path)
        return {"systems": systems}

    def op(self, sq, state, x):
        mag, vec = x
        out = []
        for system in state["systems"]:
            h = sq.build_hamiltonian(system, vec)
            dec = sq.hermitian_eigendecompose(h)
            dressed = sq.dressed_eigenstates(system, mag)
            grads = sq.transition_gradients(system, mag)
            out.append((h, dec, dressed, grads))
        return out

    def check(self, sq, state, x, out):
        mag, vec = x
        for system, (h, dec, dressed, grads) in zip(state["systems"], out):
            ref = np.linalg.eigvalsh(h)
            scale = max(1.0, float(np.max(np.abs(ref))))
            _require(np.max(np.abs(dec.eigenvalues - ref)) <= 1e-9 * scale,
                     f"{system.name}: eigenvalues differ from eigvalsh")
            vecs, vals = dec.eigenvectors, dec.eigenvalues
            resid = np.max(np.abs(h @ vecs - vecs * vals)) / scale
            _require(resid < 1e-8, f"{system.name}: reconstruction residual {resid:.2e}")
            axial = np.linalg.eigvalsh(sq.build_hamiltonian(system, mag))
            energies = np.sort([st.energy for st in dressed])
            _require(np.max(np.abs(energies - axial)) <= 1e-9 * scale,
                     f"{system.name}: dressed energies differ from eigvalsh")
            _require(len(grads) == system.dim_n - 1 and np.all(np.isfinite(grads)),
                     f"{system.name}: bad transition gradients")


# ---------------------------------------------------------------------------
# tailoring: Newton solves, contours, common-cell scans
# ---------------------------------------------------------------------------

class Tailoring(Workload):
    """Both tailoring solves, four contours and two 400 x 400 scans per op."""

    name = "tailoring"
    BOX = 0.05
    STEP = 0.0025
    SCAN = 400
    #: (family, system preset, target conditions)
    FAMILIES = (("tailored-9/2", "si-bi", ("diag-IZ", "diag-IXIX")),
                ("distorted-7/2", "si-sb", ("diag-IZ", "offdiag-IXIX")))

    def inputs(self, seed):
        points = _halton(POOL, (2,), _rng(seed, 2))
        return {"pool": [0.5 + 2.5 * float(u) for u in points[:, 0]]}

    def setup(self, sq, inputs):
        return {"systems": {key: sq.get_system(key) for _, key, _ in self.FAMILIES}}

    def op(self, sq, state, b):
        systems = state["systems"]
        sol92 = sq.solve_full_tailoring_92(systems["si-bi"], b)
        sol72 = sq.solve_partial_tailoring_72(systems["si-sb"], b)
        contours, cells = {}, {}
        for family, key, names in self.FAMILIES:
            problem = sq.TailoringProblem(family, systems[key], b)
            funcs = [problem.condition(n) for n in names]
            for name, fn in zip(names, funcs):
                contours[family, name] = (
                    problem, sq.trace_zero_contour(fn, self.BOX, self.STEP))
            cells[family] = sq.tailor.scan_common_zero_cells(funcs, self.BOX, self.SCAN)
        return sol92, sol72, contours, cells

    @staticmethod
    def _word_conditions(sq, sol, system):
        """diag/offdiag conditions and KL matrix from the code-word vectors."""
        word = sq.make_codeword(sol.family, system, sol.b_field, sol.eps1, sol.eps2)
        jx, jy, jz = (np.kron(np.eye(system.dim_e), op) for op in spin_matrices(system.i))
        z0, z1 = word.zero_l, word.one_l

        def diag(op):
            return float((np.vdot(z0, op @ z0) - np.vdot(z1, op @ z1)).real)

        conditions = {"diag-IZ": diag(jz), "diag-IXIX": diag(jx @ jx),
                      "offdiag-IXIX": float(np.vdot(z0, jx @ jx @ z1).real)}
        ops = [np.eye(system.dim), jx, jy, jz]
        m0 = np.column_stack([op @ z0 for op in ops])
        m1 = np.column_stack([op @ z1 for op in ops])
        kl = max(np.max(np.abs(m0.conj().T @ m1)),
                 np.max(np.abs(m0.conj().T @ m0 - m1.conj().T @ m1)))
        return conditions, float(kl)

    def check(self, sq, state, b, out):
        sol92, sol72, contours, cells = out
        systems = state["systems"]
        for sol, key in ((sol92, "si-bi"), (sol72, "si-sb")):
            _require(sol.converged, f"{sol.family}: not converged")
            conditions, kl = self._word_conditions(sq, sol, systems[key])
            for name in sol.targets:
                _require(abs(sol.residuals[name]) < 1e-10,
                         f"{sol.family}: reported residual {name} too large")
                _require(abs(conditions[name]) < 1e-10,
                         f"{sol.family}: {name} = {conditions[name]:.2e} from the word")
            if sol is sol92:
                _require(sol.kl_max < 1e-10 and kl < 1e-10,
                         f"9/2 root fails KL: {sol.kl_max:.2e} / {kl:.2e}")
        for (family, name), (problem, lines) in contours.items():
            _require(lines, f"{family} {name}: empty contour")
            pts = np.concatenate(lines)
            worst = np.max(np.abs(problem.evaluate(name, pts[:, 0], pts[:, 1])))
            _require(worst < 1e-10, f"{family} {name}: contour vertex |f| = {worst:.2e}")
        for family, found in cells.items():
            _require(len(found) >= 1, f"{family}: no common cell")
            _require(all(abs(e1) <= self.BOX and abs(e2) <= self.BOX for e1, e2 in found),
                     f"{family}: common cell outside the box")


# ---------------------------------------------------------------------------
# detection: warm exact sweeps over both detection orders
# ---------------------------------------------------------------------------

class Detection(Workload):
    """41 exact sweeps (28 full-order + 13 z-biased) on one logical state."""

    name = "detection"
    DRAWS = 100
    BUDGETS = {"full": 902, "z-biased": 358}

    def inputs(self, seed):
        rng = _rng(seed, 3)
        pool = []
        for _ in range(POOL):
            z = rng.normal(size=2) + 1j * rng.normal(size=2)
            z /= np.linalg.norm(z)
            pool.append((complex(z[0]), complex(z[1]), int(rng.integers(2**31))))
        return {"pool": pool}

    def setup(self, sq, inputs):
        orders = {"full": sq.full_order(), "z-biased": sq.z_biased_order()}
        for order in orders.values():
            sq.build_detection_plan(order)
            sq.pulse_budget(order)
        return {"orders": orders}

    def op(self, sq, state, x):
        alpha, beta, draw_seed = x
        rng = np.random.default_rng(draw_seed)
        psi = sq.psi_encoded(alpha, beta)
        sweeps = []
        for key, order in state["orders"].items():
            for label in order:
                reg = sq.QuditRegister(psi.copy())
                if label != "I":
                    op_label, qudit = label.split("@")
                    sq.apply_error(reg, op_label, qudit)
                records = sq.detection_records(reg, order, (alpha, beta))
                draws = sq.cycle.sample_records(records, self.DRAWS, rng)
                sweeps.append((key, label, records, draws))
        budgets = {key: sq.pulse_budget(order)["total"]
                   for key, order in state["orders"].items()}
        return sweeps, budgets

    def check(self, sq, state, x, out):
        sweeps, budgets = out
        _require(budgets == self.BUDGETS, f"pulse budgets {budgets}")
        for key, label, records, draws in sweeps:
            total = sum(r.probability for r in records)
            _require(abs(total - 1.0) <= 1e-9, f"{key} {label}: probabilities sum {total}")
            for r in records:
                _require(r.detected_case is not None and r.logical_fidelity > 1 - 1e-9,
                         f"{key} {label}: record {r.detected_case} not recovered")
            seen = {id(r) for r in records}
            _require(len(draws) == self.DRAWS and all(id(d) in seen for d in draws),
                     f"{key} {label}: sampled records outside the distribution")


# ---------------------------------------------------------------------------
# cli: each README command as a fresh process
# ---------------------------------------------------------------------------

def _csv_header(name):
    if name == "levels":
        return ["b_tesla"] + [f"energy_{k:02d}_mhz" for k in range(16)]
    return {
        "klsweep": ["b_tesla", "kl_max", "offdiag_max", "diagdiff_max", "z_diag_gap"],
        "tailor-sweep": ["b_tesla", "eps1_rad", "eps2_rad", "residual_diag-IZ",
                         "residual_offdiag-IXIX", "residual_offdiag-IXIY",
                         "residual_diag-IXIX", "converged"],
        "contour-contours": ["condition", "segment", "eps1_rad", "eps2_rad"],
        "contour-common-cells": ["eps1_rad", "eps2_rad"],
    }[name]


#: CSV commands and their expected data-row counts (None: at least one)
_CSV_ROWS = {"levels": 61, "klsweep": 10, "tailor-sweep": 7,
             "contour-contours": None, "contour-common-cells": None}

TAILOR_KEYS = {"system", "family", "b_tesla", "eps1_rad", "eps2_rad", "amplitudes",
               "iterations", "converged", "targets", "residuals", "kl_max",
               "all_roots"}


class Cli(Workload):
    """The ten README commands in turn, each as ``python -m spinqec.cli``."""

    name = "cli"
    COMMANDS = ("levels", "klsweep", "tailor-point", "tailor-sweep",
                "contour-contours", "contour-common-cells", "qec-exact",
                "qec-sampled", "budget-full", "budget-z-biased")
    round_ops = len(COMMANDS)
    TRAJECTORIES = 5000

    def inputs(self, seed):
        rng = _rng(seed, 4)
        labels = [f"{op}@{q}" for q in "ABC"
                  for op in ("X", "Y", "Z", "XX", "YY", "ZZ", "XY", "YZ", "ZX")]
        pool = []
        for _ in range(POOL):
            f = lambda lo, hi: "%.4f" % rng.uniform(lo, hi)  # noqa: E731
            ab = rng.normal(size=2)
            ab /= np.linalg.norm(ab)
            argv = {
                "levels": ["levels", "--system", "si-sb", "--bstop", f(0.2, 0.5),
                           "--bpoints", "61"],
                "klsweep": ["klsweep", "--system", "si-sb", "--bstart", "0.5",
                            "--bstop", f(2.0, 5.0)],
                "tailor-point": ["tailor", "--b", f(0.5, 3.0)],
                "tailor-sweep": ["tailor", "--system", "si-sb", "--bstart", "0.5",
                                 "--bstop", f(1.5, 2.5), "--bpoints", "7"],
                "contour-contours": ["contour", "--system", "si-sb", "--b", f(0.5, 3.0),
                                     "--box", "5e-4", "--step", "1e-4"],
                "contour-common-cells": ["contour", "--system", "si-sb", "--b",
                                         f(0.5, 3.0), "--what", "common-cells"],
                "qec-exact": ["qec", "--alpha", "%.6f" % ab[0], "--beta", "%.6f" % ab[1],
                              "--error", labels[rng.integers(len(labels))]],
                "qec-sampled": ["qec", "--error", labels[rng.integers(len(labels))],
                                "--mode", "full", "--trajectories", str(self.TRAJECTORIES),
                                "--seed", str(int(rng.integers(2**31)))],
                "budget-full": ["budget", "--mode", "full", "--error-budget",
                                f(0.005, 0.03)],
                "budget-z-biased": ["budget", "--mode", "z-biased", "--error-budget",
                                    f(0.005, 0.03)],
            }
            pool.append(argv)
        return {"pool": pool}

    def op_input(self, inputs, i):
        name = self.COMMANDS[i % self.round_ops]
        pool = inputs["pool"]
        return name, pool[i // self.round_ops % len(pool)][name]

    def setup(self, sq, inputs):
        return {"env": child_env(), "spans": None}

    def op(self, sq, state, x):
        name, argv = x
        if state["spans"] is None:
            prefix = [sys.executable, "-m", "spinqec.cli"]
        else:
            prefix = [sys.executable, os.path.join(HERE, "cli_child.py"), state["spans"]]
        proc = subprocess.run(prefix + argv, capture_output=True, text=True,
                              env=state["env"], cwd=ROOT, timeout=150)
        return name, proc

    def check(self, sq, state, x, out):
        name, proc = out
        _require(proc.returncode == 0,
                 f"{name}: exit code {proc.returncode}: {proc.stderr.strip()[-200:]}")
        text = proc.stdout
        if name in _CSV_ROWS:
            lines = text.splitlines()
            header = lines[0][2:].split(",") if lines[0].startswith("# ") else None
            _require(header == _csv_header(name), f"{name}: header {lines[0]!r}")
            rows = [line.split(",") for line in lines[1:]]
            want = _CSV_ROWS[name]
            _require(len(rows) == want if want else len(rows) >= 1,
                     f"{name}: {len(rows)} rows")
            # contour rows start with a condition name and a segment id
            first = 2 if name == "contour-contours" else 0
            for row in rows:
                _require(len(row) == len(header), f"{name}: ragged row")
                cols = row[first:]
                _require(all(math.isfinite(float(v)) for v in cols), f"{name}: bad value")
        elif name == "tailor-point":
            payload = json.loads(text)
            _require(set(payload) == TAILOR_KEYS, f"{name}: keys {sorted(payload)}")
            _require(payload["converged"] and payload["kl_max"] < 1e-10,
                     f"{name}: root not verified")
        elif name.startswith("qec"):
            lines = [json.loads(line) for line in text.splitlines()]
            summary = lines[-1]
            _require(summary["type"] == "summary", f"{name}: no summary line")
            if name == "qec-exact":
                total = sum(r["probability"] for r in lines[:-1])
                _require(abs(total - 1.0) <= 1e-9, f"{name}: probabilities sum {total}")
            else:
                total = sum(r["count"] for r in lines[:-1])
                _require(total == self.TRAJECTORIES, f"{name}: {total} samples")
        else:
            payload = json.loads(text)
            want = Detection.BUDGETS[payload["mode"]]
            _require(payload["total_pulses"] == want,
                     f"{name}: {payload['total_pulses']} pulses, expected {want}")


WORKLOADS = {w.name: w for w in (Spectra(), Tailoring(), Detection(), Cli())}

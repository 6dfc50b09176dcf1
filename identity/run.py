"""spinqec bit-identity corpus: one SHA-256 per group of results.

    python3 identity/run.py [--write | --check] [--group NAME ...]

Run from anywhere; the package is imported from the checkout's ``src``.  Each
group hashes a fixed corpus as text: every float as ``float.hex``, and every
refusal as its type and text, so a refactor that claims "the same numbers"
can show that no last bit moved.  The groups:

- ``contours``: ``trace_zero_contour`` polylines for both tailored families on
  their presets, at six fields, for all six conditions and five (box, step)
  grids (360 traces);
- ``scans``: ``scan_common_zero_cells`` for every ordered choice of one to
  three conditions, both families, the six fields and three (cells, box)
  grids (5,616 scans);
- ``roots``: ``solve_tailoring``'s root and ``all_roots`` for both families
  at 0.2, 0.3, ..., 6.0 T;
- ``zero_nodes``: ``diag-IZ`` with m00's diagonal as both of its diag blocks,
  so that it is exactly 0 on every diagonal node, for both families at the six
  fields: its polylines on the five contour grids and its
  ``scan_common_zero_cells`` cells on the three scan grids;
- ``plans``: the ENC and ENTANGLE gates and, for ``full_order()`` and
  ``z_biased_order()``, each case's label, absorbed flag and pulse counts
  (its index is its position), each block's target phase and gates (the
  collapse ends are the A-controls of its two ancilla pulses), the plan's
  ``projector`` and ``phases``, and ``pulse_budget``;
- ``spectra``: ``hermitian_eigendecompose`` of ``build_hamiltonian`` (values,
  vectors, sweeps and off-diagonal norm) for the two presets, the two user
  donors of the perfbench ``spectra`` workload and one S = 3/2 system, at
  four axial and four tilted fields;
- ``labelling``: ``dressed_eigenstates`` (energy, labels, vector) of
  the two presets at 0 T and the six fields, and the three blocks of each of
  the six condition sandwiches of both tailored families there;
- ``records``: ``run_detection`` for each of the 28 labels of ``full_order()``
  (the ``multiqudit`` error set's; "I" as the identity on qudit A) on each of
  the 12 Bloch states of acceptance criterion 07, under ``full_order()`` and
  ``z_biased_order()``: the error weight, and per record its detected case,
  ancilla outcomes, probability, recovered amplitudes and fidelity;
- ``cli``: each argv of ``tests/test_golden.py``'s ``CASES``, run in-process as
  that file runs it, with its exit code and stdout, then each argv of
  :data:`REFUSED_ARGV` with its exit code and stderr.

With no flag the digests are printed.  ``--write`` stores them in
``identity/digests.json`` with the environment (numpy, Python, machine,
system, libc, click).  ``--check`` compares group by group with that file and
exits 1 if a group differs; when the environment differs it reports the
difference and exits 2 without judging, since another numpy or libm may move
last bits.  ``--group NAME`` (repeatable) prints or checks only the named
groups, in the order above, so that a change confined to one layer can check
its own groups without waiting for the slow ``scans``.  ``--write`` refuses
it, because a partial write would drop the other groups' digests.
"""

import argparse
import hashlib
import itertools
import json
import os
import platform
import sys
import time
from importlib.metadata import version

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
TESTS = os.path.join(os.path.dirname(HERE), "tests")
DIGESTS = os.path.join(HERE, "digests.json")

import numpy as np  # noqa: E402
from click.testing import CliRunner  # noqa: E402

sys.path[:0] = [SRC, TESTS]
from spinqec.blocks import enc_block, entangle_block  # noqa: E402
from spinqec.cli import cli as spinqec_cli  # noqa: E402
from spinqec.cycle import build_detection_plan, full_order, pulse_budget, \
    run_detection, z_biased_order  # noqa: E402
from spinqec.linalg import NumericalError, PreconditionError, \
    hermitian_eigendecompose  # noqa: E402
from spinqec.spin import SpinSystem, build_hamiltonian, dressed_eigenstates, \
    get_system  # noqa: E402
from spinqec.tailor import CONDITIONS, TailoringProblem, scan_common_zero_cells, \
    solve_tailoring, trace_zero_contour  # noqa: E402
from test_golden import CASES as GOLDEN_ARGV  # noqa: E402

#: each tailored family on the preset it is tailored for
PRESETS = {"tailored-9/2": "si-bi", "distorted-7/2": "si-sb"}
FIELDS = (0.2, 0.7, 1.0, 1.37, 2.9, 5.0)
#: (box, step) of the traced contours
CONTOUR_GRIDS = ((0.05, 0.0025), (5e-4, 1e-4), (0.05, 1e-4), (1.0, 0.01), (2.5, 0.005))
#: (cells per side, box) of the scans
SCAN_GRIDS = ((40, 0.05), (400, 0.05), (100, 1.0))
ROOT_FIELDS = tuple(round(0.2 + 0.1 * i, 10) for i in range(59))
#: the spectra systems: both presets, perfbench's two user donors and an S = 3/2 one
SPECTRA_SYSTEMS = (get_system("si-sb"), get_system("si-bi"),
                   SpinSystem("user-i11_2", 0.5, 5.5, 28020.0, 5.0, 300.0),
                   SpinSystem("user-i23_2", 0.5, 11.5, 28020.0, 3.0, 200.0),
                   SpinSystem("s3_2-i5_2", 1.5, 2.5, 28020.0, -4.0, 150.0))
SPECTRA_FIELDS = (0.2, 1.0, -1.37, 5.0, (0.3, 0.4, 1.0), (1.2, -0.7, 0.5),
                  (-2.0, 1.5, -3.0), (0.05, 0.0, 0.0))
#: the logical states of acceptance criterion 07: polar angles pi/4, pi/2, 3 pi/4
#: by azimuths 0, pi/2, pi, 3 pi/2
BLOCH_STATES = tuple((np.cos(theta / 2), np.sin(theta / 2) * np.exp(1j * phi))
                     for theta in (np.pi / 4, np.pi / 2, 3 * np.pi / 4)
                     for phi in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2))
#: argv the CLI refuses: a usage or precondition problem exits 2, a numerical failure 3
REFUSED_ARGV = (("tailor",), ("levels", "--bpoints", "0"), ("levels", "--system", "nope"),
                ("levels", "--bstart", "1", "--bstop", "0"), ("tailor", "--b", "1e306"),
                ("contour", "--b", "1", "--family", "ideal-7/2"), ("qec", "--error", "XX"),
                ("qec", "--error", "XX@3"), ("qec", "--mode", "full", "--seed", "-1"),
                ("qec", "--alpha", "0", "--beta", "0"), ("budget", "--error-budget", "2"),
                ("tailor", "--system", "si-sb", "--b", "0"),
                ("tailor", "--b", "1", "--box", "1e-9"))


def _hex(values):
    return " ".join(float(v).hex() for v in np.ravel(values))


def _refusal(exc):
    return f"{type(exc).__name__}: {exc}"


def _problems(b):
    return [TailoringProblem(family, get_system(preset), b)
            for family, preset in PRESETS.items()]


def contours():
    for b in FIELDS:
        for problem, name, (box, step) in itertools.product(
                _problems(b), CONDITIONS, CONTOUR_GRIDS):
            yield f"{problem.family} {b!r} {name} {box!r} {step!r}"
            try:
                lines = trace_zero_contour(problem.condition(name), box, step)
            except (NumericalError, PreconditionError) as exc:
                yield _refusal(exc)
                continue
            for line in lines:
                yield _hex(line)


def scans():
    choices = [c for r in (1, 2, 3) for c in itertools.permutations(CONDITIONS, r)]
    for b in FIELDS:
        for problem, names, (n, box) in itertools.product(
                _problems(b), choices, SCAN_GRIDS):
            yield f"{problem.family} {b!r} {','.join(names)} {n} {box!r}"
            try:
                cells = scan_common_zero_cells(
                    [problem.condition(name) for name in names], box, n)
            except (NumericalError, PreconditionError) as exc:
                yield _refusal(exc)
                continue
            yield _hex(cells)


def roots():
    for b, (family, preset) in itertools.product(ROOT_FIELDS, PRESETS.items()):
        yield f"{family} {b!r}"
        try:
            sol = solve_tailoring(family, get_system(preset), b)
        except (NumericalError, PreconditionError) as exc:
            yield _refusal(exc)
            continue
        yield _hex((sol.eps1, sol.eps2))
        yield _hex(sol.all_roots)


def _zero_node_problem(problem):
    """``problem`` with ``diag-IZ`` = g(eps1) - g(eps2), exactly 0 where eps1 == eps2."""
    sandwiches = problem._sandwiches
    kind, m00, _, m01 = sandwiches("diag-IZ")
    block = np.diag(np.diag(m00))
    problem._sandwiches = lambda name: (
        (kind, block, block, m01) if name == "diag-IZ" else sandwiches(name))
    return problem


def zero_nodes():
    for b in FIELDS:
        for problem in map(_zero_node_problem, _problems(b)):
            fn = problem.condition("diag-IZ")
            for box, step in CONTOUR_GRIDS:
                yield f"{problem.family} {b!r} contour {box!r} {step!r}"
                try:
                    for line in trace_zero_contour(fn, box, step):
                        yield _hex(line)
                except (NumericalError, PreconditionError) as exc:
                    yield _refusal(exc)
            for n, box in SCAN_GRIDS:
                yield f"{problem.family} {b!r} scan {n} {box!r}"
                try:
                    yield _hex(scan_common_zero_cells([fn], box, n))
                except (NumericalError, PreconditionError) as exc:
                    yield _refusal(exc)


def _gates(block):
    phase = complex(block.phase)
    yield f"block {block.name} {_hex((phase.real, phase.imag))}"
    for g in block.gates:
        yield f"{g.axis} {g.levels!r} {g.controls!r} {float(g.theta).hex()}"


def plans():
    yield from _gates(enc_block())
    yield from _gates(entangle_block())
    for order in (full_order(), z_biased_order()):
        plan = build_detection_plan(order)
        yield " ".join(plan.order)
        for case in plan.cases:
            yield f"{case.label} {case.absorbed} {case.detect_pulses} {case.recover_pulses}"
            if not case.absorbed:
                yield from _gates(case.block)
        for values in (plan.projector, plan.phases):
            yield _hex(values.real)
            yield _hex(values.imag)
        yield repr(pulse_budget(order))


def spectra():
    for system, b in itertools.product(SPECTRA_SYSTEMS, SPECTRA_FIELDS):
        yield f"{system.name} {b!r}"
        dec = hermitian_eigendecompose(build_hamiltonian(system, b))
        yield f"{dec.sweeps} {float(dec.off_norm).hex()}"
        yield _hex(dec.eigenvalues)
        yield _hex(dec.eigenvectors.real)
        yield _hex(dec.eigenvectors.imag)


def labelling():
    for b, (family, preset) in itertools.product((0.0, *FIELDS), PRESETS.items()):
        yield f"{preset} {b!r}"
        try:
            states = dressed_eigenstates(get_system(preset), b)
        except (NumericalError, PreconditionError) as exc:
            yield _refusal(exc)
            continue
        for st in states:
            yield f"{st.m_s!r} {st.m_i!r} {float(st.energy).hex()}"
            yield _hex(st.vector.view(float))
        problem = TailoringProblem(family, get_system(preset), b)
        for name in CONDITIONS:
            kind, *blocks = problem._sandwiches(name)
            yield f"{family} {name} {kind}"
            for block in blocks:
                yield _hex(block)


def _complex_hex(values):
    return " ".join(f"{complex(z).real.hex()} {complex(z).imag.hex()}" for z in values)


def records():
    for order, label in itertools.product((full_order(), z_biased_order()), full_order()):
        error = ("I", "A") if label == "I" else tuple(label.split("@"))
        for alpha, beta in BLOCH_STATES:
            recs, weight = run_detection(alpha, beta, error, order)
            yield f"{len(order)} {label} {_complex_hex((alpha, beta))} {float(weight).hex()}"
            for r in recs:
                amps = "-" if r.recovered_amplitudes is None else \
                    _complex_hex(r.recovered_amplitudes)
                yield (f"{r.detected_case} {r.ancilla_outcomes!r} {float(r.probability).hex()} "
                       f"{amps} {float(r.logical_fidelity).hex()}")


def cli_runs():
    runs = [(argv, "stdout") for argv in GOLDEN_ARGV.values()]
    for argv, stream in runs + [(argv, "stderr") for argv in REFUSED_ARGV]:
        result = CliRunner().invoke(spinqec_cli, list(argv), prog_name="spinqec",
                                    terminal_width=80)
        yield f"{' '.join(argv)} exit {result.exit_code} {stream}"
        yield from getattr(result, stream).split("\n")


GROUPS = {"contours": contours, "scans": scans, "roots": roots, "zero_nodes": zero_nodes,
          "plans": plans, "spectra": spectra, "labelling": labelling, "records": records,
          "cli": cli_runs}


def digest(group):
    """(SHA-256 of the group's lines, number of lines)."""
    sha, count = hashlib.sha256(), 0
    for line in GROUPS[group]():
        sha.update(line.encode() + b"\n")
        count += 1
    return sha.hexdigest(), count


def environment():
    return {"numpy": np.__version__, "python": platform.python_version(),
            "machine": platform.machine(), "system": platform.system(),
            "libc": " ".join(platform.libc_ver()), "click": version("click")}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--write", action="store_true", help=f"store the digests in {DIGESTS}")
    mode.add_argument("--check", action="store_true", help=f"compare with {DIGESTS}")
    parser.add_argument("--group", action="append", choices=list(GROUPS), metavar="NAME",
                        help=f"only this group, repeatable: {', '.join(GROUPS)}")
    args = parser.parse_args(argv)
    if args.write and args.group:
        parser.error("--write stores every group and does not take --group")
    groups = [g for g in GROUPS if args.group is None or g in args.group]
    stored = None
    if args.check:
        with open(DIGESTS, encoding="utf-8") as fh:
            stored = json.load(fh)
        env = environment()
        moved = {k: (stored["environment"].get(k), v) for k, v in env.items()
                 if stored["environment"].get(k) != v}
        if moved:
            for key, (old, new) in moved.items():
                print(f"environment differs: {key} {old!r} stored, {new!r} here")
            print("not judged: digests are only comparable in the same environment")
            return 2
    t0, result, differ = time.perf_counter(), {}, []
    for group in groups:
        g0 = time.perf_counter()
        sha, count = result[group] = digest(group)
        verdict = ""
        if stored is not None:
            same = stored["groups"].get(group) == [sha, count]
            verdict = "  equal" if same else "  DIFFERS"
            if not same:
                differ.append(group)
        print(f"{group:10s} {sha} {count:8d} lines {time.perf_counter() - g0:7.1f} s{verdict}")
    print(f"total {time.perf_counter() - t0:.1f} s")
    if args.write:
        with open(DIGESTS, "w", encoding="utf-8") as fh:
            json.dump({"environment": environment(),
                       "groups": {g: list(v) for g, v in result.items()}}, fh, indent=2)
            fh.write("\n")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())

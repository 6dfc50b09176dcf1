"""Command-line interface.

``spinqec --help`` lists the commands; each one writes CSV (single ``#``
header line, comma-separated columns) or JSON to stdout or ``--out``.

Exit codes: 0 on success, 2 for precondition/usage problems, 3 when a
numerical routine fails (no eigensolver convergence, no tailoring root,
state annihilated, ...).
"""

import functools
import json
import os
import sys

import click
import numpy as np

from .codewords import _TWO_LEVEL, expectation, kl_residuals, \
    lift_to_electron_nuclear, make_codeword, standard_error_sets
from .cycle import build_detection_plan, case_weights, fidelity_threshold, \
    full_order, pulse_budget, run_detection, sample_records, z_biased_order
from .linalg import NumericalError, PreconditionError, hermitian_eigendecompose
from .spin import build_hamiltonian, get_system, load_system
from .tailor import DEFAULT_BOX, DEFAULT_SCAN_CELLS, DEFAULT_STEP, \
    TailoringProblem, default_family, field_sweep_tailoring, \
    scan_common_zero_cells, tailoring_solver, trace_zero_contour

_ORDERS = {"full": full_order, "z-biased": z_biased_order}

#: option types for counts and for lengths in radians (box, grid step)
_COUNT = click.IntRange(min=1)
_POSITIVE = click.FloatRange(min=0.0, min_open=True)


def _resolve_system(key):
    """Preset name, alias, or path to a key-value system file."""
    if os.path.exists(key):
        return load_system(key)
    return get_system(key)


def _emit(text, out):
    if out is None:
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


def _csv(header, rows):
    lines = ["# " + ",".join(header)]
    for row in rows:
        lines.append(",".join("%.12g" % v if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _mapped_errors(fn):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PreconditionError as exc:
            click.echo(f"precondition error: {exc}", err=True)
            raise SystemExit(2)
        except NumericalError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            raise SystemExit(3)
    return wrapper


def _field_axis(bstart, bstop, bpoints):
    if bpoints < 1 or bstop < bstart:
        raise PreconditionError("need bpoints >= 1 and bstop >= bstart")
    return np.linspace(bstart, bstop, bpoints)


@click.group()
def cli():
    """Spin-qudit code tools: spectra, code tailoring, detection cycles."""


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--system", "system_key", default="si-sb", show_default=True,
              help="Preset (si-sb, si-bi), full preset name, or a file path.")
@click.option("--bstart", type=float, default=0.0, show_default=True)
@click.option("--bstop", type=float, default=0.5, show_default=True)
@click.option("--bpoints", type=int, default=101, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Write to this file instead of stdout.")
@_mapped_errors
def levels(system_key, bstart, bstop, bpoints, out):
    """Energy levels (MHz) across a static-field range (CSV)."""
    system = _resolve_system(system_key)
    fields = _field_axis(bstart, bstop, bpoints)
    header = ["b_tesla"] + [f"energy_{k:02d}_mhz" for k in range(system.dim)]
    rows = []
    for b in fields:
        dec = hermitian_eigendecompose(build_hamiltonian(system, b))
        rows.append([float(b)] + [float(e) for e in dec.eigenvalues])
    _emit(_csv(header, rows), out)


@cli.command()
@click.option("--system", "system_key", default="si-sb", show_default=True)
@click.option("--family", default=None,
              help="Code family (defaults to the ideal family matching I).")
@click.option("--eps1", type=float, default=0.0, show_default=True)
@click.option("--eps2", type=float, default=0.0, show_default=True)
@click.option("--bstart", type=float, default=0.5, show_default=True)
@click.option("--bstop", type=float, default=5.0, show_default=True)
@click.option("--bpoints", type=int, default=10, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_mapped_errors
def klsweep(system_key, family, eps1, eps2, bstart, bstop, bpoints, out):
    """First-order Knill-Laflamme residuals across a field range (CSV).

    Builds the dressed code words at each field and evaluates the
    identity + linear-operator conditions; z_diag_gap is the population
    imbalance <0|Iz|0> - <1|Iz|1> on its own.
    """
    system = _resolve_system(system_key)
    if family is None:
        family = default_family(system.i, distorted=bool(eps1 or eps2))
    errs = lift_to_electron_nuclear(
        standard_error_sets("firstorder-B", system.i), system)
    header = ["b_tesla", "kl_max", "offdiag_max", "diagdiff_max", "z_diag_gap"]
    rows = []
    for b in _field_axis(bstart, bstop, bpoints):
        word = make_codeword(family, system, b, eps1, eps2)
        report = kl_residuals(word, errs)
        iz0, iz1 = expectation(word, errs.as_dict()["Z"])
        rows.append([float(b), report.max_residual,
                     float(report.offdiag.max()), float(report.diagdiff.max()),
                     float((iz0 - iz1).real)])
    _emit(_csv(header, rows), out)


# ---------------------------------------------------------------------------
# tailoring
# ---------------------------------------------------------------------------

@cli.command()
@click.option("--system", "system_key", default="si-bi", show_default=True)
@click.option("--family", default=None)
@click.option("--b", "b_field", type=float, default=None,
              help="Single field point (JSON output).")
@click.option("--bstart", type=float, default=None)
@click.option("--bstop", type=float, default=None)
@click.option("--bpoints", type=int, default=9)
@click.option("--sweep-mode", type=click.Choice(["re-solve", "frozen"]),
              default="re-solve", show_default=True)
@click.option("--freeze-at", type=float, default=None,
              help="Field (T) whose angles a frozen sweep re-uses.")
@click.option("--box", type=_POSITIVE, default=DEFAULT_BOX, show_default=True,
              help="Half-width of the (eps1, eps2) search box in radians.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_mapped_errors
def tailor(system_key, family, b_field, bstart, bstop, bpoints, sweep_mode,
           freeze_at, box, out):
    """Solve the branch-angle conditions (single field: JSON; sweep: CSV)."""
    system = _resolve_system(system_key)
    if family is None:
        family = default_family(system.i)
    solver = tailoring_solver(family)
    if b_field is not None:
        sol = solver(system, b_field, box)
        theta0 = _TWO_LEVEL[family][1]
        t1 = theta0 + sol.eps1
        t2 = theta0 + sol.eps2
        payload = {
            "system": sol.system_name,
            "family": sol.family,
            "b_tesla": sol.b_field,
            "eps1_rad": sol.eps1,
            "eps2_rad": sol.eps2,
            "amplitudes": [float(np.cos(t1)), float(np.sin(t1)),
                           float(np.cos(t2)), float(np.sin(t2))],
            "iterations": sol.iterations,
            "converged": sol.converged,
            "targets": list(sol.targets),
            "residuals": {k: float(v) for k, v in sol.residuals.items()},
            "kl_max": None if np.isnan(sol.kl_max) else sol.kl_max,
            "all_roots": [list(r) for r in sol.all_roots],
        }
        _emit(json.dumps(payload, indent=2) + "\n", out)
        return
    if bstart is None or bstop is None:
        raise PreconditionError("pass --b for one field or --bstart/--bstop")
    rows = field_sweep_tailoring(system, _field_axis(bstart, bstop, bpoints),
                                 family, sweep_mode, freeze_at, box)
    header = list(rows[0].keys())
    table = [[row[k] if not isinstance(row[k], bool) else int(row[k])
              for k in header] for row in rows]
    _emit(_csv(header, table), out)


@cli.command()
@click.option("--system", "system_key", default="si-sb", show_default=True)
@click.option("--family", default=None)
@click.option("--b", "b_field", type=float, required=True)
@click.option("--box", type=_POSITIVE, default=DEFAULT_BOX, show_default=True)
@click.option("--step", type=_POSITIVE, default=DEFAULT_STEP, show_default=True,
              help="Marching-squares cell size (radians).")
@click.option("--what", type=click.Choice(["contours", "common-cells"]),
              default="contours", show_default=True)
@click.option("--scan-points", type=_COUNT, default=DEFAULT_SCAN_CELLS, show_default=True)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_mapped_errors
def contour(system_key, family, b_field, box, step, what, scan_points, out):
    """Zero contours of the tailoring conditions in the angle plane (CSV).

    "contours" traces each condition's zero set; "common-cells" lists grid
    cells where every condition changes sign (candidate common roots).
    """
    system = _resolve_system(system_key)
    if family is None:
        family = default_family(system.i)
    if family == "distorted-7/2":
        names = ("diag-IZ", "offdiag-IXIX", "offdiag-IXIY")
    else:
        names = ("diag-IZ", "diag-IXIX")
    problem = TailoringProblem(family, system, b_field)
    funcs = [problem.condition(n) for n in names]
    if what == "common-cells":
        cells = scan_common_zero_cells(funcs, box, scan_points)
        rows = [[float(x), float(y)] for x, y in cells]
        _emit(_csv(["eps1_rad", "eps2_rad"], rows), out)
        return
    rows = []
    for name, fn in zip(names, funcs):
        for seg_id, seg in enumerate(trace_zero_contour(fn, box, step)):
            for x, y in seg:
                rows.append([name, seg_id, float(x), float(y)])
    _emit(_csv(["condition", "segment", "eps1_rad", "eps2_rad"], rows), out)


# ---------------------------------------------------------------------------
# detection cycles
# ---------------------------------------------------------------------------

def _parse_error(text):
    if text is None or text.lower() == "none":
        return None
    label, _, qudit = text.partition("@")
    if not qudit:
        raise PreconditionError(
            f"error spec {text!r} must look like XX@B (or 'none')")
    return label, qudit


def _parse_amp(text):
    try:
        return complex(text)
    except ValueError:
        raise PreconditionError(f"cannot parse amplitude {text!r}") from None


@cli.command()
@click.option("--alpha", default="0.6", show_default=True,
              help="Logical amplitude of |0> (python complex syntax).")
@click.option("--beta", default="0.8", show_default=True)
@click.option("--error", default="none", show_default=True,
              help="Injected error, e.g. X@A or XX@B; 'none' for no error.")
@click.option("--mode", type=click.Choice(["full", "z-biased", "exact-branch"]),
              default="exact-branch", show_default=True,
              help="exact-branch lists every branch exactly; full / z-biased "
                   "sample trajectories against that detection order.")
@click.option("--trajectories", type=_COUNT, default=1000, show_default=True,
              help="Number of sampled runs (full / z-biased modes only).")
@click.option("--seed", type=int, default=None)
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_mapped_errors
def qec(alpha, beta, error, mode, trajectories, seed, out):
    """Encode a qubit, inject an error, run a detection sweep (JSON lines)."""
    a = _parse_amp(alpha)
    b = _parse_amp(beta)
    nrm = np.hypot(abs(a), abs(b))
    if nrm < 1e-12:
        raise PreconditionError("alpha and beta cannot both vanish")
    a, b = a / nrm, b / nrm
    err = _parse_error(error)
    order = "full" if mode == "exact-branch" else mode
    case_order = _ORDERS[order]()
    records, weight = run_detection(a, b, err, case_order, "exact-branch")
    lines = []
    for r in records:
        lines.append(json.dumps({
            "type": "record",
            "case": r.detected_case,
            "probability": r.probability,
            "fidelity": r.logical_fidelity,
            "outcomes": list(r.ancilla_outcomes),
            "recovered": None if r.recovered_amplitudes is None else
                [[z.real, z.imag] for z in r.recovered_amplitudes],
        }))
    summary = {
        "type": "summary",
        "mode": mode,
        "order": order,
        "error": error,
        "error_weight": weight,
        "cases": len(records),
        "mean_fidelity": float(sum(
            r.probability * r.logical_fidelity for r in records
            if r.logical_fidelity is not None)),
    }
    if mode != "exact-branch":
        draws = sample_records(records, trajectories, seed)
        counts = {}
        fid_sum = 0.0
        for r in draws:
            key = r.detected_case if r.detected_case is not None else "none"
            counts[key] = counts.get(key, 0) + 1
            fid_sum += r.logical_fidelity if r.logical_fidelity is not None else 0.0
        lines = [json.dumps({"type": "sample", "case": k, "count": n,
                             "fraction": n / trajectories})
                 for k, n in sorted(counts.items())]
        summary["trajectories"] = trajectories
        summary["seed"] = seed
        summary["sampled_mean_fidelity"] = fid_sum / trajectories
        summary["exact_weights"] = {k: v for k, v in
                                    sorted(case_weights(records).items())}
    lines.append(json.dumps(summary))
    _emit("\n".join(lines) + "\n", out)


@cli.command()
@click.option("--mode", type=click.Choice(sorted(_ORDERS)), default="full",
              show_default=True)
@click.option("--error-budget", type=float, default=None,
              help="First-order error weight for the break-even model.")
@click.option("--out", type=click.Path(dir_okay=False), default=None)
@_mapped_errors
def budget(mode, error_budget, out):
    """Pulse counts per detection case plus the break-even pulse infidelity."""
    case_order = _ORDERS[mode]()
    info = pulse_budget(case_order)
    plan = build_detection_plan(case_order)
    kwargs = {} if error_budget is None else {"error_budget": error_budget}
    payload = {
        "mode": mode,
        "total_pulses": info["total"],
        "encode_pulses": info["encode"],
        "emitted_cases": len(plan.emitted),
        "absorbed_cases": list(plan.absorbed_labels),
        "cases": info["cases"],
        "fidelity_threshold": fidelity_threshold(info["total"], **kwargs),
    }
    _emit(json.dumps(payload, indent=2) + "\n", out)


main = cli


if __name__ == "__main__":
    sys.exit(cli())

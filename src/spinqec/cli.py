"""Command-line interface.

``spinqec --help`` lists the commands.  Each command body returns its text,
CSV (single ``#`` header line, comma-separated columns) or JSON; one frame,
:func:`_command`, registers it, adds the ``--out`` option, writes the text
to stdout or ``--out`` and maps errors to exit codes.

Exit codes: 0 on success, 2 for precondition/usage problems, 3 when a
numerical routine fails (no eigensolver convergence, no tailoring root,
state annihilated, ...).
"""

import json
import os
import sys
from collections import Counter

import click
import numpy as np
from click.core import ParameterSource

from . import tailor as tailoring
from .codewords import branch_amplitudes, default_family, expectation, first_order_errors, \
    kl_residuals, make_codeword
from .cycle import DEFAULT_ERROR_BUDGET, case_weights, fidelity_threshold, \
    full_order, pulse_budget, run_detection, sample_records, z_biased_order
from .linalg import NumericalError, PreconditionError, hermitian_eigendecompose, \
    require_finite
from .spin import build_hamiltonian, get_system, load_system
from .tailor import DEFAULT_BOX, DEFAULT_SCAN_CELLS, DEFAULT_STEP, \
    TailoringProblem, field_sweep_tailoring, scan_common_zero_cells, solve_tailoring, \
    trace_zero_contour

_ORDERS = {"full": full_order, "z-biased": z_biased_order}

MAX_FIELD_POINTS = 10_000  # --bpoints of levels, klsweep and tailor
MAX_TRAJECTORIES = 1_000_000  # --trajectories of qec

#: option types for counts, field-point counts and lengths in radians (box, grid step)
_COUNT = click.IntRange(min=1)
_FIELD_POINTS = click.IntRange(min=1, max=MAX_FIELD_POINTS)
_POSITIVE = click.FloatRange(min=0.0, min_open=True)


def _resolve_system(key):
    """A preset name or alias always means the preset; any other value is the path
    of a key-value system file, and one that is neither lists the presets."""
    try:
        return get_system(key)
    except PreconditionError:
        if not os.path.exists(key):
            raise
    return load_system(key)


def _csv(header, rows):
    lines = ["# " + ",".join(header)]
    for row in rows:
        lines.append(",".join("%.12g" % v if isinstance(v, float) else str(v)
                              for v in row))
    return "\n".join(lines) + "\n"


def _field_axis(bstart, bstop, bpoints):
    require_finite(bstart=bstart, bstop=bstop)
    if bstop < bstart:
        raise PreconditionError("need bstop >= bstart")
    return np.linspace(bstart, bstop, bpoints)


@click.group()
def cli():
    """Spin-qudit code tools: spectra, code tailoring, detection cycles."""


#: command -> {option: (deciding option, the values under which the option is read)}
_READ_ONLY_WITH = {
    "tailor": dict.fromkeys(("bstart", "bstop", "bpoints", "freeze_at"), ("b_field", (None,))),
    "contour": {"step": ("what", ("contours",)), "scan_points": ("what", ("common-cells",))},
    "qec": dict.fromkeys(("trajectories", "seed"), ("mode", ("full", "z-biased"))),
}


def _command(body):
    """Register ``body``, which returns the command's text, as a command of :func:`cli`.

    ``--out`` follows ``body``'s options (``__click_params__`` lists them last
    first); a typed option that :data:`_READ_ONLY_WITH` leaves unread exits 2.
    The text goes to stdout or ``--out``; a :class:`PreconditionError` or an
    ``--out`` that cannot be written exits 2 and a :class:`NumericalError` 3,
    each with a one-line message.
    """
    @cli.command(body.__name__, help=body.__doc__, params=body.__click_params__[::-1])
    @click.option("--out", type=click.Path(dir_okay=False),
                  help="Write to this file instead of stdout.")
    def run(out, **options):
        try:
            ctx = click.get_current_context()
            flag = {p.name: p.opts[0] for p in ctx.command.params}
            for name, (decider, values) in _READ_ONLY_WITH.get(body.__name__, {}).items():
                if options[decider] not in values and \
                        ctx.get_parameter_source(name) is not ParameterSource.DEFAULT:
                    raise PreconditionError(
                        f"{flag[name]} is not read with {flag[decider]} {options[decider]}")
            text = body(**options)
            if out is None:
                click.echo(text, nl=False)
                return
            try:
                with open(out, "w") as fh:
                    fh.write(text)
            except OSError as exc:
                raise PreconditionError(f"cannot write --out: {exc}") from None
        except PreconditionError as exc:
            click.echo(f"precondition error: {exc}", err=True)
            raise SystemExit(2)
        except NumericalError as exc:
            click.echo(f"numerical error: {exc}", err=True)
            raise SystemExit(3)
    return run


@_command
@click.option("--system", "system_key", default="si-sb", show_default=True,
              help="Preset (si-sb, si-bi), full preset name, or a file path.")
@click.option("--bstart", type=float, default=0.0, show_default=True)
@click.option("--bstop", type=float, default=0.5, show_default=True)
@click.option("--bpoints", type=_FIELD_POINTS, default=101, show_default=True)
def levels(system_key, bstart, bstop, bpoints):
    """Energy levels (MHz) across a static-field range (CSV)."""
    system = _resolve_system(system_key)
    header = ["b_tesla"] + [f"energy_{k:02d}_mhz" for k in range(system.dim)]
    rows = []
    for b in _field_axis(bstart, bstop, bpoints):
        dec = hermitian_eigendecompose(build_hamiltonian(system, b))
        rows.append([float(b)] + [float(e) for e in dec.eigenvalues])
    return _csv(header, rows)


@_command
@click.option("--system", "system_key", default="si-sb", show_default=True)
@click.option("--family", default=None,
              help="Code family (defaults to the ideal family matching I).")
@click.option("--eps1", type=float, default=0.0, show_default=True)
@click.option("--eps2", type=float, default=0.0, show_default=True)
@click.option("--bstart", type=float, default=0.5, show_default=True)
@click.option("--bstop", type=float, default=5.0, show_default=True)
@click.option("--bpoints", type=_FIELD_POINTS, default=10, show_default=True)
def klsweep(system_key, family, eps1, eps2, bstart, bstop, bpoints):
    """First-order Knill-Laflamme residuals across a field range (CSV).

    Builds the dressed code words at each field and evaluates the
    identity + linear-operator conditions; z_diag_gap is the population
    imbalance <0|Iz|0> - <1|Iz|1> on its own.
    """
    system = _resolve_system(system_key)
    if family is None:
        family = default_family(system.i, distorted=bool(eps1 or eps2))
    errs = first_order_errors(system)
    header = ["b_tesla", "kl_max", "offdiag_max", "diagdiff_max", "z_diag_gap"]
    rows = []
    for b in _field_axis(bstart, bstop, bpoints):
        word = make_codeword(family, system, b, eps1, eps2)
        report = kl_residuals(word, errs)
        iz0, iz1 = expectation(word, errs.as_dict()["Z"])
        rows.append([float(b), report.max_residual,
                     float(report.offdiag.max()), float(report.diagdiff.max()),
                     float((iz0 - iz1).real)])
    return _csv(header, rows)


@_command
@click.option("--system", "system_key", default="si-bi", show_default=True)
@click.option("--family", default=None)
@click.option("--b", "b_field", type=float, default=None,
              help="Single field point (JSON output).")
@click.option("--bstart", type=float, default=None)
@click.option("--bstop", type=float, default=None)
@click.option("--bpoints", type=_FIELD_POINTS, default=9)
@click.option("--freeze-at", type=float, default=None,
              help="Freeze the sweep at this field's solved angles (T).")
@click.option("--box", type=_POSITIVE, default=DEFAULT_BOX, show_default=True,
              help="Half-width of the (eps1, eps2) search box in radians.")
def tailor(system_key, family, b_field, bstart, bstop, bpoints, freeze_at, box):
    """Solve the branch-angle conditions (single field: JSON; sweep: CSV)."""
    system = _resolve_system(system_key)
    if family is None:
        family = default_family(system.i)
    if b_field is None and (bstart is None or bstop is None):
        raise PreconditionError("pass --b for one field or --bstart/--bstop")
    if b_field is not None:
        sol = solve_tailoring(family, system, b_field, box)
        payload = {
            "system": sol.system_name,
            "family": sol.family,
            "b_tesla": sol.b_field,
            "eps1_rad": sol.eps1,
            "eps2_rad": sol.eps2,
            "amplitudes": [float(a) for a in branch_amplitudes(family, sol.eps1, sol.eps2)],
            "iterations": sol.iterations,
            "converged": sol.converged,
            "targets": list(sol.targets),
            "residuals": {k: float(v) for k, v in sol.residuals.items()},
            "kl_max": None if np.isnan(sol.kl_max) else sol.kl_max,
            "all_roots": [list(r) for r in sol.all_roots],
        }
        return json.dumps(payload, indent=2) + "\n"
    rows = field_sweep_tailoring(system, _field_axis(bstart, bstop, bpoints),
                                 family, freeze_at, box)
    header = list(rows[0].keys())
    table = [[row[k] if not isinstance(row[k], bool) else int(row[k])
              for k in header] for row in rows]
    return _csv(header, table)


@_command
@click.option("--system", "system_key", default="si-sb", show_default=True)
@click.option("--family", default=None)
@click.option("--b", "b_field", type=float, required=True)
@click.option("--box", type=_POSITIVE, default=DEFAULT_BOX, show_default=True)
@click.option("--step", type=_POSITIVE, default=DEFAULT_STEP, show_default=True,
              help="Marching-squares cell size (radians).")
@click.option("--what", type=click.Choice(["contours", "common-cells"]),
              default="contours", show_default=True)
@click.option("--scan-points", type=_COUNT, default=DEFAULT_SCAN_CELLS, show_default=True)
def contour(system_key, family, b_field, box, step, what, scan_points):
    """Zero contours of the tailoring conditions in the angle plane (CSV).

    "contours" traces each condition's zero set; "common-cells" lists grid
    cells where every condition changes sign (candidate common roots).
    """
    system = _resolve_system(system_key)
    if family is None:
        family = default_family(system.i)
    problem = TailoringProblem(family, system, b_field)  # refuses an untailored family
    names = tailoring.TAILORING[family][3]
    funcs = [problem.condition(n) for n in names]
    if what == "common-cells":
        cells = scan_common_zero_cells(funcs, box, scan_points)
        rows = [[float(x), float(y)] for x, y in cells]
        return _csv(["eps1_rad", "eps2_rad"], rows)
    rows = []
    for name, fn in zip(names, funcs):
        for seg_id, seg in enumerate(trace_zero_contour(fn, box, step)):
            for x, y in seg:
                rows.append([name, seg_id, float(x), float(y)])
    return _csv(["condition", "segment", "eps1_rad", "eps2_rad"], rows)


def _parse_error(text):
    if text.lower() == "none":
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


@_command
@click.option("--alpha", default="0.6", show_default=True,
              help="Logical amplitude of |0> (python complex syntax).")
@click.option("--beta", default="0.8", show_default=True)
@click.option("--error", default="none", show_default=True,
              help="Injected error, e.g. X@A or XX@B; 'none' for no error.")
@click.option("--mode", type=click.Choice(["full", "z-biased", "exact-branch"]),
              default="exact-branch", show_default=True,
              help="exact-branch lists every branch exactly; full / z-biased "
                   "sample trajectories against that detection order.")
@click.option("--trajectories", type=click.IntRange(min=1, max=MAX_TRAJECTORIES),
              default=1000, show_default=True,
              help="Number of sampled runs (full / z-biased modes only).")
@click.option("--seed", type=int, default=None)
def qec(alpha, beta, error, mode, trajectories, seed):
    """Encode a qubit, inject an error, run a detection sweep (JSON lines)."""
    a = _parse_amp(alpha)
    b = _parse_amp(beta)
    nrm = np.hypot(abs(a), abs(b))
    if not np.isfinite(nrm):
        raise PreconditionError(f"the norm of alpha {alpha!r} and beta {beta!r} is not finite")
    if nrm == 0.0:
        raise PreconditionError("alpha and beta cannot both vanish")
    a, b = a / nrm, b / nrm
    err = _parse_error(error)
    order = "full" if mode == "exact-branch" else mode
    case_order = _ORDERS[order]()
    records, weight = run_detection(a, b, err, case_order)
    summary = {
        "type": "summary",
        "mode": mode,
        "order": order,
        "error": error,
        "error_weight": weight,
        "cases": len(records),
        "mean_fidelity": float(sum(r.probability * r.logical_fidelity for r in records)),
    }
    if mode == "exact-branch":
        lines = [json.dumps({
            "type": "record",
            "case": r.detected_case,
            "probability": r.probability,
            "fidelity": r.logical_fidelity,
            "outcomes": list(r.ancilla_outcomes),
            "recovered": None if r.recovered_amplitudes is None else
                [[z.real, z.imag] for z in r.recovered_amplitudes],
        }) for r in records]
    else:
        draws = sample_records(records, trajectories, seed)
        counts = Counter("none" if r.detected_case is None else r.detected_case
                         for r in draws)
        fid_sum = sum(r.logical_fidelity for r in draws)
        lines = [json.dumps({"type": "sample", "case": k, "count": n,
                             "fraction": n / trajectories})
                 for k, n in sorted(counts.items())]
        summary["trajectories"] = trajectories
        summary["seed"] = seed
        summary["sampled_mean_fidelity"] = fid_sum / trajectories
        summary["exact_weights"] = dict(sorted(case_weights(records).items()))
    lines.append(json.dumps(summary))
    return "\n".join(lines) + "\n"


@_command
@click.option("--mode", type=click.Choice(sorted(_ORDERS)), default="full",
              show_default=True)
@click.option("--error-budget", type=float, default=DEFAULT_ERROR_BUDGET,
              help="First-order error weight for the break-even model.")
def budget(mode, error_budget):
    """Pulse counts per detection case plus the break-even pulse infidelity."""
    info = pulse_budget(_ORDERS[mode]())
    payload = {
        "mode": mode,
        "total_pulses": info["total"],
        "encode_pulses": info["encode"],
        "emitted_cases": sum(not c["absorbed"] for c in info["cases"].values()),
        "absorbed_cases": [l for l, c in info["cases"].items() if c["absorbed"]],
        "cases": info["cases"],
        "fidelity_threshold": fidelity_threshold(info["total"], error_budget),
    }
    return json.dumps(payload, indent=2) + "\n"


main = cli


if __name__ == "__main__":
    sys.exit(cli())

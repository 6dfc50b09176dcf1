"""spinqec benchmark: one workload per call, closed loop, one op at a time.

    python3 perfbench/run.py --workload {spectra,tailoring,detection,cli}
                             --seed N --seconds S --trace {0,1}

Run from the repository root; the package is imported from ``./src``.  The
last line of stdout is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics with ``--trace 1``.  The lines above it list every figure
with its unit, and the full result with run metadata is written to
``.perfbench_out/``.  See ``perfbench/README.md``.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: BLAS threads for this process and its children (<= nproc; one client)
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import numpy as np  # noqa: E402

sys.path.insert(0, HERE)
from workloads import OUT_DIR, WORKLOADS, child_env  # noqa: E402

#: fresh set-ups per run; setup_s is their median
SETUP_SAMPLES = 7
#: tail percentile (nearest rank).  It is fixed, not the highest one with
#: TAIL_ABOVE samples above it: run length varies with the host's speed, and
#: a percentile that moves with it jumps between the clusters of cli commands.
TAIL_PCT = 75
#: a short run lowers the tail percentile to keep this many samples above it
TAIL_ABOVE = 10
#: a run stops at the next op after this much overrun, whole round or not
HARD_STOP_S = 120.0
#: calibration time that defines one reference second (see calibrate()):
#: the loop's typical time on the 2-vCPU Xeon VM the benchmark was built on
REF_CAL_S = 0.003

_CAL_VIEW = np.zeros((8, 8, 8, 2), dtype=np.complex128)


def calibrate():
    """Seconds taken by a fixed mix of Python bytecode and small numpy calls.

    On a shared VM the host's speed swings by up to ~1.8x within seconds.
    Timing this fixed work next to every op measures the swing, and every
    timed figure is scaled by ``REF_CAL_S / calibration``: it reads in
    reference seconds, the time the op takes when this loop takes 3 ms.
    """
    t0 = time.perf_counter()
    acc = 0
    for i in range(20000):
        acc += i * i
    view = _CAL_VIEW
    for i in range(300):
        src = np.array(view[i % 8, :, 3], copy=True)
        view[(i + 1) % 8, :, 3] = 0.6 * src - 0.8 * view[(i + 1) % 8, :, 3]
    return time.perf_counter() - t0


def _import_spinqec():
    if not os.path.isfile(os.path.join(SRC, "spinqec", "__init__.py")):
        sys.exit(f"perfbench: no spinqec sources under {SRC}; run from a full checkout")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import spinqec

    if not os.path.abspath(spinqec.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: spinqec imported from {spinqec.__file__}, not {SRC}")
    return spinqec


def _setup(workload, seed):
    """Everything a user pays before the first op: import, inputs, lazy caches."""
    sq = _import_spinqec()
    inputs = workload.inputs(seed)
    state = workload.setup(sq, inputs)
    return sq, inputs, state


def _probe_setup(workload_name, seed):
    """Fresh interpreters timed from launch to the end of set-up.

    Returns (calibrated samples, raw samples) in seconds.
    """
    samples, raw = [], []
    for _ in range(SETUP_SAMPLES):
        if workload_name == "cli":
            argv = [sys.executable, "-c", "import spinqec"]
        else:
            argv = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", workload_name, "--seed", str(seed)]
        cal0 = statistics.median(calibrate() for _ in range(3))
        t0 = time.monotonic()
        proc = subprocess.run(argv, capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=150)
        t1 = time.monotonic()
        cal1 = statistics.median(calibrate() for _ in range(3))
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-400:]}")
        # a probe prints its monotonic clock at the end of set-up, so its
        # interpreter teardown stays out of the figure
        ready = float(proc.stdout.split()[-1]) if workload_name != "cli" else t1
        raw.append(ready - t0)
        samples.append((ready - t0) * 2 * REF_CAL_S / (cal0 + cal1))
    return samples, raw


def _pin_cpu():
    """Keep this process and its children on one CPU, next to the calibration."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def _metadata(sq, seed, cpu):
    import hashlib
    import platform

    sha = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        proc = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                              capture_output=True, text=True)
        sha = proc.stdout.strip() or None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "spinqec")
    for fname in sorted(os.listdir(pkg)):
        if fname.endswith(".py"):
            with open(os.path.join(pkg, fname), "rb") as fh:
                digest.update(fname.encode() + b"\0" + fh.read())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "pinned_cpu": cpu,
        "backend": sq.backend_name(),
        "have_numba": bool(sq.HAVE_NUMBA),
    }


def latency_stats(lat):
    """(median, tail value, tail percentile) of op latencies.

    The tail is the nearest-rank TAIL_PCT percentile, lowered when needed to
    keep TAIL_ABOVE samples above it.
    """
    ordered = sorted(lat)
    n = len(ordered)
    k = max(0, min(math.ceil(TAIL_PCT / 100 * n) - 1, n - TAIL_ABOVE - 1))
    return statistics.median(ordered), ordered[k], 100.0 * (k + 1) / n


def run_loop(workload, sq, inputs, state, seconds, tracer=None):
    """Closed loop: run ops until ``seconds`` have passed and a round is whole.

    Each op is bracketed by two calibrations; ``lat`` holds calibrated and
    ``raw`` wall seconds.  With a tracer, rounds alternate untraced / traced.
    """
    loop = {"workload": workload.name, "lat": [], "raw": [], "cal": [],
            "traced": [], "failures": []}
    rounds = workload.round_ops
    min_ops = 2 * TAIL_ABOVE + 1 if tracer is None else 2 * rounds
    t_start = time.perf_counter()
    i = 0
    while True:
        elapsed = time.perf_counter() - t_start
        if i % rounds == 0 and i >= min_ops and elapsed >= seconds:
            break
        if elapsed >= seconds + HARD_STOP_S and i >= 1:
            break
        traced = tracer is not None and (i // rounds) % 2 == 1
        x = workload.op_input(inputs, i)
        error = None
        if traced:
            tracer.op = i
            tracer.install()
            if "spans" in state:  # the op runs in a traced child process
                state["spans"] = os.path.join(OUT_DIR, f"child-{os.getpid()}.json.gz")
        cal0 = calibrate()
        t0 = time.perf_counter()
        try:
            out = workload.op(sq, state, x)
        except Exception as exc:  # an op that raises is a failed op
            error = f"op raised {type(exc).__name__}: {exc}"
        t1 = time.perf_counter()
        cal1 = calibrate()
        if traced:
            tracer.uninstall()
            tracer.op = -1
            if state.get("spans"):
                _absorb_child(tracer, state, i)
        if error is None:
            try:
                workload.check(sq, state, x, out)
            except Exception as exc:
                error = f"check failed: {type(exc).__name__}: {exc}"
        cal = (cal0 + cal1) / 2
        loop["raw"].append(t1 - t0)
        loop["cal"].append(cal)
        loop["lat"].append((t1 - t0) * REF_CAL_S / cal)
        loop["traced"].append(traced)
        if error is not None:
            loop["failures"].append((i, error))
        i += 1
    return loop


def _absorb_child(tracer, state, op_id):
    from tracer import load_spans

    path = state["spans"]
    state["spans"] = None
    if os.path.exists(path):
        tracer.absorb(load_spans(path), op_id)
        os.remove(path)


def end_to_end(loop, setup, raw_setup):
    import resource

    lat = loop["lat"]
    p50, tail, pct = latency_stats(lat)
    who = resource.RUSAGE_CHILDREN if loop["workload"] == "cli" else resource.RUSAGE_SELF
    rss_mb = resource.getrusage(who).ru_maxrss * 1024 / 1e6
    metrics = {
        "ops_per_s": (len(lat) / sum(lat), "op/s"),
        "op_p50_ms": (p50 * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw_p50, raw_tail, _ = latency_stats(loop["raw"])
    extra = {
        "error_rate": (len(loop["failures"]) / len(lat), "ratio"),
        "op_samples": (len(lat), "count"),
        "op_tail_percentile": (pct, "%"),
        "raw.ops_per_s": (len(lat) / sum(loop["raw"]), "op/s"),
        "raw.op_p50_ms": (raw_p50 * 1e3, "ms"),
        "raw.op_tail_ms": (raw_tail * 1e3, "ms"),
        "raw.setup_s": (statistics.median(raw_setup), "s"),
        "calibration_p50_ms": (statistics.median(loop["cal"]) * 1e3, "ms"),
    }
    return metrics, extra


def per_layer(workload, loop, tracer, setup):
    from tracer import SPAN_NAMES

    traced_ops = [i for i, t in enumerate(loop["traced"]) if t]
    plain_ops = [i for i, t in enumerate(loop["traced"]) if not t]
    n = len(traced_ops)
    totals = tracer.layer_totals(traced_ops)
    metrics = {}
    for name in SPAN_NAMES:
        calls, self_s = totals[name]
        metrics[f"{name}.calls"] = (calls / n, "count")
        metrics[f"{name}.self_s"] = (self_s / n, "s")
    for name in ("linalg.hermitian_eigendecompose", "spin.dressed_eigenstates"):
        metrics[f"{name}.fails"] = (tracer.fails[tracer.ids[name]] / n, "count")
    counts = tracer.counts
    newton_calls = totals["tailor.newton_solve"][0]
    hits, misses = tracer.plan_cache()
    metrics.update({
        "codewords.error_op_mb": (counts["codewords.error_op_mb"] / n, "MB"),
        "tailor.points_evaluated": (counts["tailor.points_evaluated"] / n, "count"),
        "tailor.newton_iterations": (counts["tailor.newton_iterations"] / n, "count"),
        "tailor.newton_converged_ratio": (
            counts["tailor.newton_converged"] / newton_calls if newton_calls else 0.0,
            "ratio"),
        "register.pulses_applied": (counts["register.pulses_applied"] / n, "count"),
        "cycle.plan_cache_hit_ratio": (
            hits / (hits + misses) if hits + misses else 0.0, "ratio"),
    })
    is_cli = workload.name == "cli"
    metrics["cli.import_s"] = (statistics.median(setup) if is_cli else 0.0, "s")
    commands = WORKLOADS["cli"].COMMANDS
    for k, cmd in enumerate(commands):
        walls = [loop["lat"][i] for i in plain_ops if is_cli and i % len(commands) == k]
        metrics[f"cli.{cmd}.wall_s"] = (statistics.median(walls) if walls else 0.0, "s")
    rate = {flag: len(ops) / sum(loop["lat"][i] for i in ops)
            for flag, ops in ((True, traced_ops), (False, plain_ops))}
    metrics["trace.ops_per_s_ratio"] = (rate[True] / rate[False], "ratio")
    extra = {"traced_ops": (n, "count"), "untraced_ops": (len(plain_ops), "count"),
             "traced_ops_per_s": (rate[True], "op/s"),
             "untraced_ops_per_s": (rate[False], "op/s")}
    for name, value in tracer.setup_counts.items():
        if value:
            unit = "MB" if name.endswith("_mb") else "count"
            extra[f"setup.{name}"] = (value, unit)
    for name, (calls, self_s) in tracer.layer_totals([-1]).items():
        if calls:
            extra[f"setup.{name}.self_s"] = (self_s, "s")
    return metrics, extra


def _print_table(title, metrics):
    print(f"# {title}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:44s} {value:>16.6g} {unit}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="internal: do one set-up, print the clock, exit")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    if args.setup_probe:
        _setup(workload, args.seed)
        print(repr(time.monotonic()))
        return 0

    sq = _import_spinqec()
    from tracer import Tracer

    cpu = _pin_cpu()
    os.makedirs(OUT_DIR, exist_ok=True)
    setup, raw_setup = _probe_setup(args.workload, args.seed)
    tracer = Tracer() if args.trace else None
    if tracer is not None:
        tracer.install()
    _, inputs, state = _setup(workload, args.seed)
    if tracer is not None:
        tracer.uninstall()
    loop = run_loop(workload, sq, inputs, state, args.seconds, tracer)
    meta = _metadata(sq, args.seed, cpu)

    if tracer is None:
        metrics, extra = end_to_end(loop, setup, raw_setup)
    else:
        metrics, extra = per_layer(workload, loop, tracer, setup)
    stem = os.path.join(OUT_DIR, f"{workload.name}-seed{args.seed}-trace{args.trace}")
    if tracer is not None:
        tracer.dump(stem + "-spans.json.gz")
    attempted = len(loop["lat"])
    failed = len(loop["failures"])
    record = {
        "workload": workload.name, "meta": meta, "seconds": args.seconds,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in {**metrics, **extra}.items()},
        "setup_samples_s": setup, "raw_setup_samples_s": raw_setup,
        "ops": {k: loop[k] for k in ("lat", "raw", "cal", "traced")},
        "failures": loop["failures"][:20],
    }
    with open(stem + ".json", "w") as fh:
        json.dump(record, fh, indent=1)

    print("# meta " + json.dumps(meta))
    for i, msg in loop["failures"][:5]:
        print(f"# FAILED op {i}: {msg}")
    _print_table(f"{workload.name} seed={args.seed} trace={args.trace} "
                 f"attempted={attempted} failed={failed}", {**metrics, **extra})
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

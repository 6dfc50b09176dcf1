"""Paired benchmark runs: a base revision against HEAD on one or more workloads.

    python3 bench/pairs.py --base REV --workload W [W ...] [--pairs N]
                           [--seconds S] [--seed K] [--head REV]

Run it from inside the repository; it needs only the standard library, git and
the Python that runs it.  A workload that the head's ``BENCHMARK.json`` does not
list is refused (exit 2) before anything is archived.  Both revisions are
``git archive``d once, side by side into a temporary directory (their committed
files, not the working tree), and the head's ``perfbench/`` is copied over the
base's, so both sides run one harness on their own ``src/``.  The workloads run
in the order given, all pairs of one before the next.  Each pair runs
``perfbench/run.py --trace 0`` once per side with the same seed, one process at
a time; odd pairs run the base first and even pairs the head.  Runs are
untraced, because the head's tracer may patch names that an older base lacks.

For each workload and every end-to-end metric of the head's ``BENCHMARK.json``
it prints each pair's two values, then each side's median and quartiles, the
base's IQR and the head's win count (ties count for neither side); the
workload's last line is the same summary as one JSON object.  Set-up figures
(``setup_s``, ``peak_rss_mb``) include compiling ``spinqec``, since the runs
write no ``.pyc``.
"""

import argparse
import io
import json
import os
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile


def _git(*args):
    return subprocess.run(["git", *args], check=True, capture_output=True).stdout


def _export(rev, dest):
    """Write the files committed at ``rev`` under ``dest``."""
    with tarfile.open(fileobj=io.BytesIO(_git("archive", rev))) as tar:
        tar.extractall(dest, filter="data")


def _run(tree, workload, seed, seconds):
    """One untraced perfbench run in ``tree``: its last stdout line, parsed."""
    env = {**os.environ, "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.exit(f"pairs: perfbench failed in {tree} (exit {proc.returncode}):\n"
                 f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def summarize(pairs, metrics):
    """Per metric: each side's median and quartiles, the base's IQR and the
    head's wins, from ``pairs`` of (base, head) metric dicts.

    ``metrics`` maps a name to ``"lower"`` or ``"higher"``, the better way.
    """
    out = {}
    for name, better in metrics.items():
        base = [b[name] for b, _ in pairs]
        head = [h[name] for _, h in pairs]
        sign = 1.0 if better == "higher" else -1.0
        row = {"wins": sum(sign * (h - b) > 0.0 for b, h in zip(base, head)),
               "pairs": len(pairs)}
        for side, values in (("base", base), ("head", head)):
            q1, q2, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                          if len(values) > 1 else values * 3)
            row[side] = {"median": q2, "q1": q1, "q3": q3}
        row["base_iqr"] = row["base"]["q3"] - row["base"]["q1"]
        row["change"] = row["head"]["median"] / row["base"]["median"] - 1.0
        out[name] = row
    return out


def _pairs(trees, workload, args, metrics):
    """Run ``args.pairs`` pairs of ``workload``, printing each pair as it ends,
    then the summary table and its JSON line."""
    print(f"# {workload} seed={args.seed} seconds={args.seconds:g} "
          f"base={args.base} head={args.head}; each cell is base/head")
    print("pair  first " + " ".join(f"{name:>23s}" for name in metrics))
    pairs = []
    for k in range(args.pairs):
        order = ("base", "head") if k % 2 == 0 else ("head", "base")
        runs = {side: _run(trees[side], workload, args.seed, args.seconds)
                for side in order}
        for side, run in runs.items():
            if not run["correct"]:
                sys.exit(f"pairs: {side} failed {run['failed']} of "
                         f"{run['attempted']} ops in pair {k + 1} of {workload}")
        pair = tuple({name: runs[side]["metrics"][name]["value"] for name in metrics}
                     for side in ("base", "head"))
        pairs.append(pair)
        print(f"{k + 1:4d}  {order[0]:5s} " + " ".join(
            f"{b:>11.5g}/{h:<11.5g}" for b, h in zip(pair[0].values(), pair[1].values())),
            flush=True)

    summary = summarize(pairs, metrics)
    print(f"{'metric':12s} {'base median':>12s} {'head median':>12s} {'change':>8s} "
          f"{'base IQR':>10s} {'head wins':>10s}")
    for name, row in summary.items():
        print(f"{name:12s} {row['base']['median']:12.5g} {row['head']['median']:12.5g} "
              f"{100.0 * row['change']:+7.2f}% {row['base_iqr']:10.4g} "
              f"{row['wins']:>6d}/{row['pairs']}")
    print(json.dumps({"workload": workload, "seed": args.seed, "seconds": args.seconds,
                      "base": args.base, "head": args.head, "pairs": pairs,
                      "summary": summary}), flush=True)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", required=True, help="base revision")
    parser.add_argument("--head", default="HEAD", help="head revision (default HEAD)")
    parser.add_argument("--workload", required=True, nargs="+",
                        help="one or more workloads of the head's BENCHMARK.json")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0.0:
        parser.error("--pairs must be at least 1 and --seconds positive")

    os.chdir(_git("rev-parse", "--show-toplevel").decode().strip())
    bench = json.loads(_git("show", f"{args.head}:BENCHMARK.json"))
    known = [w["name"] for w in bench["workloads"]]
    unknown = [name for name in args.workload if name not in known]
    if unknown:
        parser.error(f"no workload {', '.join(unknown)} in {args.head}:BENCHMARK.json; "
                     f"its workloads are {', '.join(known)}")
    metrics = {m["name"]: m["better"] for m in bench["end_to_end"]}

    work = tempfile.mkdtemp(prefix="pairs-")
    try:
        trees = {side: os.path.join(work, side) for side in ("base", "head")}
        for side, rev in (("base", args.base), ("head", args.head)):
            _export(rev, trees[side])
        shutil.rmtree(os.path.join(trees["base"], "perfbench"), ignore_errors=True)
        shutil.copytree(os.path.join(trees["head"], "perfbench"),
                        os.path.join(trees["base"], "perfbench"))
        for workload in args.workload:
            _pairs(trees, workload, args, metrics)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

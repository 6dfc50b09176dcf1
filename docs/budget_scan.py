"""Counting-rule scan for acceptance criterion 09 (pulse-budget windows).

    python3 docs/budget_scan.py

Run from anywhere; the package is imported from the checkout's ``src``.  The
criterion pins the full sweep's pulses to [1000, 2500] and the z-biased
sweep's to [300, 800]; ``cycle.pulse_budget`` counts 902 and 358.  The scan
recounts the gates of both orders' detection plans under every combination
of five named choices:

- ``rot``: a (controlled) rotation on A, B or C costs one pulse (``1``), or
  one more per control (``1+c``);
- ``flip``: the ancilla excitation costs one pulse per control state
  (``state``), or one per block (``one``);
- ``recover``: the exact inversion after an outcome-0 measurement
  (``blocks.recovery_gates``, costed by ``rot``) is counted or not;
- ``absorbed``: a case whose error words the earlier cases span is counted
  at the block built on its raw error words, or not;
- ``encode``: the encode and entangle pulses (costed by ``rot``) are added
  to the total, or not.

Each line gives both totals and whether each lands in its window; the line
of ``pulse_budget``'s own rule is marked, and its totals are checked against
``pulse_budget``.  The summary names the rules that put both counts inside.
Nothing in ``src/`` is edited.
"""

import itertools
import os
import sys

import numpy as np

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from spinqec.blocks import detection_block, enc_block, entangle_block, \
    recovery_gates  # noqa: E402
from spinqec.codewords import make_codeword  # noqa: E402
from spinqec.cycle import build_detection_plan, full_order, pulse_budget, \
    z_biased_order  # noqa: E402
from spinqec.register import ANCILLA_AXIS, QUDIT_NAMES, apply_on_axis, \
    single_qudit_error  # noqa: E402

WINDOWS = {"full": (1000, 2500), "z-biased": (300, 800)}
ORDERS = {"full": full_order(), "z-biased": z_biased_order()}
#: the values of each choice, pulse_budget's first
CHOICES = {"rot": ("1", "1+c"), "flip": ("state", "one"), "recover": ("yes", "no"),
           "absorbed": ("no", "yes"), "encode": ("no", "yes")}
REFERENCE = {key: values[0] for key, values in CHOICES.items()}


def _raw_block(label):
    """The detection block on ``label``'s error words without Gram-Schmidt."""
    word = make_codeword("three-qudit")
    name, qudit = label.split("@")
    vs = [apply_on_axis(single_qudit_error(name), w.reshape(8, 8, 8), QUDIT_NAMES[qudit])
          .ravel() for w in (word.zero_l, word.one_l)]
    return detection_block(label, *(v / np.linalg.norm(v) for v in vs))


def _blocks(order):
    """(emitted blocks, absorbed cases' raw blocks) of ``order``'s plan."""
    plan = build_detection_plan(order)
    return ([c.block for c in plan.emitted],
            [_raw_block(c.label) for c in plan.cases if c.absorbed])


def _count(rule, emitted, absorbed, encode):
    rot = (lambda g: 1) if rule["rot"] == "1" else (lambda g: 1 + len(g.controls))
    total = 0
    for block in emitted + (absorbed if rule["absorbed"] == "yes" else []):
        flips = [g for g in block.gates if g.axis == ANCILLA_AXIS]
        total += sum(rot(g) for g in block.gates if g.axis != ANCILLA_AXIS)
        total += len(flips) if rule["flip"] == "state" else 1
        if rule["recover"] == "yes":
            total += sum(rot(g) for g in recovery_gates(block))
    if rule["encode"] == "yes":
        total += sum(rot(g) for g in encode)
    return total


def scan():
    blocks = {key: _blocks(order) for key, order in ORDERS.items()}
    encode = enc_block().gates + entangle_block().gates
    inside = []
    for values in itertools.product(*CHOICES.values()):
        rule = dict(zip(CHOICES, values))
        totals = {key: _count(rule, *blocks[key], encode) for key in ORDERS}
        ok = {key: lo <= totals[key] <= hi for key, (lo, hi) in WINDOWS.items()}
        head = "  ".join(f"{k} {v:5s}" for k, v in rule.items())
        mark = ""
        if rule == REFERENCE:
            if any(totals[k] != pulse_budget(o)["total"] for k, o in ORDERS.items()):
                raise SystemExit(f"budget_scan: pulse_budget's rule counts {totals}, "
                                 "not pulse_budget's totals")
            mark = "  <- pulse_budget"
        if all(ok.values()):
            inside.append(head.rstrip())
        yield "  ".join([head, *(f"{key} {totals[key]:4d} {'in' if ok[key] else 'out':3s}"
                                 for key in ORDERS)]).rstrip() + mark
    yield f"{len(inside)} of {2 ** len(CHOICES)} rules put both counts inside their windows:"
    yield from (f"  {head}" for head in inside)


def main():
    for line in scan():
        print(line)


if __name__ == "__main__":
    main()

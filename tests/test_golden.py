"""Golden CLI transcripts and pulse listings, stored in tests/golden/.

Each CLI case runs one command in-process and compares its stdout with the
stored file line by line; ``blocks.txt`` lists every synthesised pulse (ENC,
ENTANGLE and each emitted detection block of both orders) and is compared
the same way.  Everything is compared exactly (headers, keys, labels, pulse
axes, levels and controls, case lists, row order, integer counts) except
numbers written with a decimal point or an exponent, which must agree to
rtol 1e-12 plus an atol of 1e-13 for values at rounding level, so last-bit
differences of another BLAS or libm do not trip the test.

A change that moves output on purpose regenerates the files::

    PYTHONPATH=src python tests/test_golden.py           # list the cases that differ
    PYTHONPATH=src python tests/test_golden.py --write   # rewrite those files
"""

import math
import re
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from conftest import collapse_ends
from spinqec.blocks import enc_block, entangle_block
from spinqec.cli import cli
from spinqec.cycle import build_detection_plan, full_order, z_biased_order

GOLDEN = Path(__file__).with_name("golden")
RTOL, ATOL = 1e-12, 1e-13

#: case name -> argv; the file is tests/golden/<name>.txt
CASES = {
    "help": ["--help"],
    "levels": ["levels", "--system", "si-sb", "--bstop", "0.3", "--bpoints", "61"],
    "klsweep": ["klsweep", "--system", "si-sb", "--bstart", "0.5", "--bstop", "5"],
    "tailor-point": ["tailor", "--b", "1"],
    "tailor-resolve": ["tailor", "--system", "si-sb", "--bstart", "0.5", "--bstop", "2",
                       "--bpoints", "7"],
    "tailor-frozen": ["tailor", "--system", "si-bi", "--bstart", "0.5", "--bstop", "2",
                      "--bpoints", "4", "--freeze-at", "1"],
    "contour-sb-small": ["contour", "--system", "si-sb", "--b", "1", "--box", "5e-4",
                         "--step", "1e-4"],
    "contour-sb": ["contour", "--system", "si-sb", "--b", "1.37"],
    "contour-bi": ["contour", "--system", "si-bi", "--b", "1"],
    "cells-sb": ["contour", "--system", "si-sb", "--b", "1", "--what", "common-cells"],
    "cells-bi": ["contour", "--system", "si-bi", "--b", "1", "--what", "common-cells"],
    "qec-exact": ["qec", "--error", "XX@A"],
    "qec-full": ["qec", "--error", "XX@B", "--mode", "full", "--trajectories", "5000",
                 "--seed", "1"],
    "qec-z-biased": ["qec", "--error", "ZZ@C", "--alpha", "0.8", "--beta", "0.6j",
                     "--mode", "z-biased", "--trajectories", "2000", "--seed", "7"],
    "budget-full": ["budget", "--mode", "full"],
    "budget-z-biased": ["budget", "--mode", "z-biased", "--error-budget", "0.02"],
    **{f"help-{command}": [command, "--help"]
       for command in ("levels", "klsweep", "tailor", "contour", "qec", "budget")},
}

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def run(argv):
    """The command's stdout; help is formatted for an 80-column terminal."""
    result = CliRunner().invoke(cli, argv, prog_name="spinqec", terminal_width=80)
    assert result.exit_code == 0, result.output
    return result.output


def _gate_line(gate):
    ctrl = " ".join(f"{axis}={level}" for axis, level in gate.controls) or "-"
    return f"  {gate.axis} {gate.levels[0]} {gate.levels[1]} [{ctrl}] {gate.theta!r}"


def blocks_listing():
    """Every synthesised pulse as text: axis, levels, [controls] and theta.

    Each detection block's header carries its case's position in the plan,
    its collapse ends (the A-controls of its two ancilla pulses), its target
    phase (real, imaginary) and its detect/recover pulse counts.
    """
    lines = []
    for block in (enc_block(), entangle_block()):
        lines.append(f"block {block.name} {block.pulse_count}")
        lines += [_gate_line(g) for g in block.gates]
    for name, order in (("full", full_order()), ("z-biased", z_biased_order())):
        plan = build_detection_plan(order)
        absorbed = " ".join(c.label for c in plan.cases if c.absorbed)
        lines.append(f"order {name} absorbed {absorbed}")
        for index, case in enumerate(plan.cases):
            if case.absorbed:
                continue
            (end0, end1), phase = collapse_ends(case.block), complex(case.block.phase)
            lines.append(f"case {case.label} {index} dest {end0} {end1} "
                         f"phase {phase.real:g} {phase.imag:g} "
                         f"pulses {case.detect_pulses} {case.recover_pulses}")
            lines += [_gate_line(g) for g in case.block.gates]
    return "\n".join(lines) + "\n"


def _is_float(token):
    return any(c in token for c in ".eE")


def mismatch(want, got):
    """The first line where ``got`` departs from ``want``, or None."""
    want_lines, got_lines = want.splitlines(), got.splitlines()
    if len(want_lines) != len(got_lines):
        return f"{len(got_lines)} lines, want {len(want_lines)}"
    for row, (w, g) in enumerate(zip(want_lines, got_lines), start=1):
        w_nums, g_nums = _NUMBER.findall(w), _NUMBER.findall(g)
        same = (_NUMBER.split(w) == _NUMBER.split(g)
                and all(math.isclose(float(a), float(b), rel_tol=RTOL, abs_tol=ATOL)
                        if _is_float(a) and _is_float(b) else a == b
                        for a, b in zip(w_nums, g_nums)))
        if not same:
            return f"line {row}: {g!r}, want {w!r}"
    return None


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_stdout_matches_golden(name):
    want = (GOLDEN / f"{name}.txt").read_text()
    assert mismatch(want, run(CASES[name])) is None


def test_synthesised_pulses_match_golden():
    want = (GOLDEN / "blocks.txt").read_text()
    assert mismatch(want, blocks_listing()) is None


def test_comparison_is_exact_but_for_non_integer_numbers():
    line = "# diag-IZ,3,2.5e-05,-0.125,7\n"
    assert mismatch(line, line.replace("2.5e-05", "2.50000000000001e-05")) is None
    for old, new in (("2.5e-05", "2.5000001e-05"), ("-0.125", "0.125"), ("IZ", "IX"),
                     (",3,", ",4,"), (",7", ",7.0"), ("\n", "\n\n")):
        assert mismatch(line, line.replace(old, new)) is not None


if __name__ == "__main__":
    write = "--write" in sys.argv[1:]
    producers = {name: (lambda argv=argv: run(argv)) for name, argv in CASES.items()}
    producers["blocks"] = blocks_listing
    for name, produce in sorted(producers.items()):
        path = GOLDEN / f"{name}.txt"
        out = produce()
        why = mismatch(path.read_text(), out) if path.exists() else "no file"
        if why is None:
            continue
        print(f"{name}: {why}")
        if write:
            GOLDEN.mkdir(exist_ok=True)
            path.write_text(out)
            print(f"  rewrote {path}")

"""End-to-end CLI checks (click runner, no subprocesses)."""

import json
import os
import tempfile
import warnings
from types import MappingProxyType

import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings
from hypothesis import strategies as st

from spinqec import spin, tailor
from spinqec.cli import cli
from spinqec.codewords import kl_residuals, lift_to_electron_nuclear, \
    make_codeword, standard_error_sets
from spinqec.linalg import PreconditionError
from spinqec.register import apply_error, init_register
from spinqec.spin import SYSTEM_KEYS, get_system, load_system

BI_AMPLITUDES = (0.502073864, 0.864824742, 0.498463308, 0.866910797)


@pytest.fixture()
def runner():
    return CliRunner()


def _rows(output):
    lines = [l for l in output.strip().splitlines() if l]
    assert lines[0].startswith("# ")
    header = lines[0][2:].split(",")
    return header, [l.split(",") for l in lines[1:]]


def _json_lines(output):
    return [json.loads(l) for l in output.strip().splitlines()]


def test_levels_csv(runner):
    res = runner.invoke(cli, ["levels", "--bstart", "0", "--bstop", "0.1",
                              "--bpoints", "3"])
    assert res.exit_code == 0, res.output
    header, rows = _rows(res.output)
    assert header[0] == "b_tesla"
    assert len(header) == 17 and header[1] == "energy_00_mhz"
    assert len(rows) == 3
    assert float(rows[0][0]) == 0.0 and np.isclose(float(rows[2][0]), 0.1)
    energies = [float(v) for v in rows[1][1:]]
    assert energies == sorted(energies)


def test_klsweep_matches_library(runner):
    res = runner.invoke(cli, ["klsweep", "--bstart", "1", "--bstop", "1",
                              "--bpoints", "1"])
    assert res.exit_code == 0, res.output
    header, rows = _rows(res.output)
    assert header == ["b_tesla", "kl_max", "offdiag_max", "diagdiff_max",
                      "z_diag_gap"]
    system = get_system("si-sb")
    word = make_codeword("ideal-7/2", system, 1.0)
    errs = lift_to_electron_nuclear(
        standard_error_sets("firstorder-B", system.i), system)
    report = kl_residuals(word, errs)
    assert np.isclose(float(rows[0][1]), report.max_residual, rtol=1e-9)
    assert np.isclose(float(rows[0][4]), 5.063415403e-07, rtol=1e-4)


def test_tailor_single_field_json(runner):
    res = runner.invoke(cli, ["tailor", "--b", "1"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["system"] == "Si:Bi-209"
    assert payload["family"] == "tailored-9/2"
    assert payload["b_tesla"] == 1.0
    assert payload["converged"] is True
    assert payload["kl_max"] < 1e-10
    assert len(payload["all_roots"]) == 1
    np.testing.assert_allclose(payload["amplitudes"], BI_AMPLITUDES, rtol=1e-6)
    np.testing.assert_allclose(payload["eps1_rad"], -2.396351951977e-03,
                               rtol=1e-6)
    for name in payload["targets"]:
        assert abs(payload["residuals"][name]) < 1e-12


def test_tailor_amplitudes_are_the_signed_word_coefficients(runner):
    # the 7/2 word puts -cos t2 on |+7/2>: amplitudes carry that sign
    res = runner.invoke(cli, ["tailor", "--system", "si-sb", "--b", "1"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    word = make_codeword(payload["family"], eps1=payload["eps1_rad"],
                         eps2=payload["eps2_rad"])
    # support0 (-7/2, +3/2) of |0_L>, then support1 (+7/2, -3/2) of |1_L>
    want = [word.zero_l[0].real, word.zero_l[5].real, word.one_l[7].real, word.one_l[2].real]
    assert payload["amplitudes"] == want
    assert payload["amplitudes"][2] < 0.0


def test_tailor_sweep_csv(runner):
    res = runner.invoke(cli, ["tailor", "--system", "si-sb", "--bstart", "0.5",
                              "--bstop", "2", "--bpoints", "3"])
    assert res.exit_code == 0, res.output
    header, rows = _rows(res.output)
    assert header[:3] == ["b_tesla", "eps1_rad", "eps2_rad"]
    assert "residual_offdiag-IXIX" in header
    assert "converged" in header
    assert len(rows) == 3
    for row in rows:
        assert int(row[header.index("converged")]) == 1
    eps1 = float(rows[1][1])  # middle row is b = 1.25 T
    assert abs(eps1) < 1e-4


@pytest.mark.parametrize("argv, reason", [
    (["tailor"], "pass --b for one field or --bstart/--bstop"),
    (["tailor", "--bstart", "0.5"], "pass --b for one field or --bstart/--bstop"),
    (["tailor", "--bstop", "2"], "pass --b for one field or --bstart/--bstop"),
    # qudit 3 is the ancilla's axis: refused by name, not by a shape error
    (["qec", "--error", "XX@3"], "errors act on qudits A, B, or C"),
    # an option that the chosen mode does not read is refused, not dropped
    (["tailor", "--b", "1", "--bpoints", "5"], "--bpoints is not read with --b 1.0"),
    # refused when typed, though 9 is the default
    (["tailor", "--b", "1", "--bpoints", "9"], "--bpoints is not read with --b 1.0"),
    (["tailor", "--b", "1", "--bstart", "0.5", "--bstop", "2"],
     "--bstart is not read with --b 1.0"),
    (["tailor", "--b", "1", "--freeze-at", "1"], "--freeze-at is not read with --b 1.0"),
    (["contour", "--b", "1", "--what", "common-cells", "--step", "0.001"],
     "--step is not read with --what common-cells"),
    (["contour", "--b", "1", "--scan-points", "17"],
     "--scan-points is not read with --what contours"),
    (["qec", "--trajectories", "7"], "--trajectories is not read with --mode exact-branch"),
    (["qec", "--seed", "3"], "--seed is not read with --mode exact-branch"),
])
def test_refusals_give_their_reason(runner, argv, reason):
    res = runner.invoke(cli, argv)
    assert res.exit_code == 2, res.output
    assert res.stderr == f"precondition error: {reason}\n"


#: small base runs of each command for the option walk
_LEVELS = ["levels", "--bpoints", "2"]
_KLSWEEP = ["klsweep", "--bpoints", "2"]
_TAILOR = ["tailor", "--system", "si-sb", "--b", "1"]
_CONTOUR = ["contour", "--b", "1", "--box", "5e-3", "--step", "5e-4"]
_QEC = ["qec", "--error", "XX@A"]
#: (command, option) -> (base run, the value the walk adds to it); every option but
#: --out and --help has a row, and each probe changes the base's stdout or exits 2
_PROBES = {
    ("levels", "--system"): (_LEVELS, "si-bi"),
    ("levels", "--bstart"): (_LEVELS, "0.1"),
    ("levels", "--bstop"): (_LEVELS, "0.3"),
    ("levels", "--bpoints"): (_LEVELS, "3"),
    ("klsweep", "--system"): (_KLSWEEP, "si-bi"),
    # at zero angles a branch-angle family has its ideal family's words, so only a
    # base with an angle can tell the family: there ideal-7/2 is refused
    ("klsweep", "--family"): (_KLSWEEP + ["--eps1", "1e-3"], "ideal-7/2"),
    ("klsweep", "--eps1"): (_KLSWEEP, "1e-3"),
    ("klsweep", "--eps2"): (_KLSWEEP, "1e-3"),
    ("klsweep", "--bstart"): (_KLSWEEP, "1"),
    ("klsweep", "--bstop"): (_KLSWEEP, "2"),
    ("klsweep", "--bpoints"): (_KLSWEEP, "3"),
    ("tailor", "--system"): (_TAILOR, "si-bi"),
    ("tailor", "--family"): (_TAILOR, "ideal-7/2"),
    ("tailor", "--b"): (_TAILOR, "2"),
    ("tailor", "--bstart"): (_TAILOR, "0.5"),
    ("tailor", "--bstop"): (_TAILOR, "2"),
    ("tailor", "--bpoints"): (_TAILOR, "9"),
    ("tailor", "--freeze-at"): (_TAILOR, "1"),
    ("tailor", "--box"): (_TAILOR, "2.5"),  # all_roots gains the roots of further branches
    ("contour", "--system"): (_CONTOUR, "si-bi"),
    ("contour", "--family"): (_CONTOUR, "ideal-7/2"),
    ("contour", "--b"): (_CONTOUR, "2"),
    ("contour", "--box"): (_CONTOUR, "4e-3"),
    ("contour", "--step"): (_CONTOUR, "1e-3"),
    ("contour", "--what"): (_CONTOUR, "common-cells"),
    ("contour", "--scan-points"): (_CONTOUR, "17"),
    ("qec", "--alpha"): (_QEC, "0.8"),
    ("qec", "--beta"): (_QEC, "0.6j"),
    ("qec", "--error"): (_QEC, "X@B"),
    ("qec", "--mode"): (_QEC, "full"),
    ("qec", "--trajectories"): (_QEC, "7"),
    ("qec", "--seed"): (_QEC, "3"),
    ("budget", "--mode"): (["budget"], "z-biased"),
    ("budget", "--error-budget"): (["budget"], "0.02"),
}


def test_every_option_is_read_or_refused(runner):
    # an option that a run does not read must not leave its output as it was
    options = {(name, p.opts[0]) for name, command in cli.commands.items()
               for p in command.params if p.name != "out"}
    assert options == set(_PROBES)
    dropped = []
    for (command, option), (base, value) in _PROBES.items():
        plain = runner.invoke(cli, base)
        assert plain.exit_code == 0, (base, plain.output)
        res = runner.invoke(cli, base + [option, value])
        if not (res.exit_code == 2 or res.exit_code == 0 and res.stdout != plain.stdout):
            dropped.append(f"{' '.join(base)} {option} {value}: exit {res.exit_code}")
    assert not dropped, dropped


def test_freeze_at_alone_freezes_a_sweep(runner):
    argv = ["tailor", "--system", "si-sb", "--bstart", "0.5", "--bstop", "1", "--bpoints", "2",
            "--freeze-at", "0.7"]
    res = runner.invoke(cli, argv)
    assert res.exit_code == 0, res.output
    header, rows = _rows(res.output)
    want = tailor.field_sweep_tailoring(get_system("si-sb"), np.linspace(0.5, 1, 2),
                                        "distorted-7/2", freeze_at=0.7)
    assert rows == [["%.12g" % row[k] if isinstance(row[k], float) else str(int(row[k]))
                     for k in header] for row in want]
    assert rows[0][1:3] == rows[1][1:3]  # both fields read the angles solved at 0.7 T


def test_an_error_acts_on_a_qudit_named_a_b_or_c(runner):
    # int() read "0_1", "１", " 1" and "+1" as qudit B, "٢" as C, and "-0" and
    # "0" as A, and upper() read "b" as B; each is refused like the ancilla
    reason = "errors act on qudits A, B, or C"
    for qudit in ("0_1", "１", " 1", "+1", "٢", "-0", "0", "b", 1, True):
        with pytest.raises(PreconditionError, match=f"^{reason}$"):
            apply_error(init_register(0.6, 0.8), "Z", qudit)
    for spec in ("Z@0_1", "Z@１", "Z@ 1", "Z@+1", "Z@٢", "Z@-0", "XX@0", "XX@b"):
        res = runner.invoke(cli, ["qec", "--error", spec])
        assert res.exit_code == 2, (spec, res.output)
        assert res.stderr == f"precondition error: {reason}\n", spec


def test_tailor_zero_field_is_numerical_error(runner):
    res = runner.invoke(cli, ["tailor", "--system", "si-sb", "--b", "0.0"])
    assert res.exit_code == 3


def test_contour_traces(runner):
    res = runner.invoke(cli, ["contour", "--system", "si-sb", "--b", "1",
                              "--box", "0.0005", "--step", "0.0001"])
    assert res.exit_code == 0, res.output
    header, rows = _rows(res.output)
    assert header == ["condition", "segment", "eps1_rad", "eps2_rad"]
    conditions = {r[0] for r in rows}
    assert conditions == {"diag-IZ", "offdiag-IXIX", "offdiag-IXIY"}
    for r in rows:
        assert abs(float(r[2])) <= 0.0005 + 1e-12
        assert abs(float(r[3])) <= 0.0005 + 1e-12


def test_contour_common_cells(runner):
    res = runner.invoke(cli, ["contour", "--system", "si-sb", "--b", "1",
                              "--box", "0.0005", "--what", "common-cells",
                              "--scan-points", "100"])
    assert res.exit_code == 0, res.output
    header, rows = _rows(res.output)
    assert header == ["eps1_rad", "eps2_rad"]
    # the three conditions share their root here, so candidate cells exist
    assert len(rows) >= 1
    root = np.array([-7.578501164e-06, 7.467957585e-06])
    dists = [np.hypot(float(r[0]) - root[0], float(r[1]) - root[1])
             for r in rows]
    assert min(dists) < 2 * (2 * 0.0005 / 100)


def test_contour_draws_the_conditions_of_the_family_table(runner, monkeypatch):
    table = dict(tailor.TAILORING)
    table["distorted-7/2"] = table["distorted-7/2"][:3] + (("offdiag-IXIX", "diag-IZ"),)
    monkeypatch.setattr(tailor, "TAILORING", MappingProxyType(table))
    argv = ["contour", "--system", "si-sb", "--b", "1", "--box", "0.0005"]
    res = runner.invoke(cli, argv + ["--step", "0.0001"])
    assert res.exit_code == 0, res.output
    _, rows = _rows(res.output)
    assert list(dict.fromkeys(r[0] for r in rows)) == ["offdiag-IXIX", "diag-IZ"]
    res = runner.invoke(cli, argv + ["--what", "common-cells", "--scan-points", "100"])
    assert res.exit_code == 0, res.output
    problem = tailor.TailoringProblem("distorted-7/2", get_system("si-sb"), 1.0)
    cells = tailor.scan_common_zero_cells(
        [problem.condition(n) for n in ("offdiag-IXIX", "diag-IZ")], 0.0005, 100)
    assert _rows(res.output)[1] == [["%.12g" % x, "%.12g" % y] for x, y in cells]


def test_qec_exact_branch(runner):
    res = runner.invoke(cli, ["qec", "--error", "XX@A"])
    assert res.exit_code == 0, res.output
    lines = _json_lines(res.output)
    records = [l for l in lines if l["type"] == "record"]
    summary = lines[-1]
    assert summary["type"] == "summary"
    assert summary["mode"] == "exact-branch" and summary["order"] == "full"
    assert summary["error"] == "XX@A"
    assert summary["cases"] == 2
    weights = {r["case"]: r["probability"] for r in records}
    assert np.isclose(weights["I"], 21.0 / 34.0, atol=1e-10)
    assert np.isclose(weights["XX@A"], 13.0 / 34.0, atol=1e-10)
    assert summary["mean_fidelity"] > 1.0 - 1e-10
    rec = {r["case"]: r for r in records}["I"]
    a = complex(*rec["recovered"][0])
    b = complex(*rec["recovered"][1])
    assert abs(abs(a) - 0.6) < 1e-9 and abs(abs(b) - 0.8) < 1e-9


def test_qec_sampled_deterministic(runner):
    args = ["qec", "--error", "XX@A", "--mode", "full",
            "--trajectories", "400", "--seed", "7"]
    res1 = runner.invoke(cli, args)
    res2 = runner.invoke(cli, args)
    assert res1.exit_code == 0, res1.output
    assert res1.output == res2.output
    lines = _json_lines(res1.output)
    samples = [l for l in lines if l["type"] == "sample"]
    summary = lines[-1]
    assert sum(s["count"] for s in samples) == 400
    assert {s["case"] for s in samples} == {"I", "XX@A"}
    assert summary["trajectories"] == 400 and summary["seed"] == 7
    assert np.isclose(summary["exact_weights"]["I"], 21.0 / 34.0, atol=1e-10)
    assert summary["sampled_mean_fidelity"] > 1.0 - 1e-10
    # sampled fractions near the exact weights (3 sigma)
    frac_i = next(s["fraction"] for s in samples if s["case"] == "I")
    p = 21.0 / 34.0
    assert abs(frac_i - p) < 3.0 * np.sqrt(p * (1 - p) / 400)


def test_qec_zbiased_mode(runner):
    res = runner.invoke(cli, ["qec", "--error", "Z@B", "--mode", "z-biased",
                              "--trajectories", "50", "--seed", "1"])
    assert res.exit_code == 0, res.output
    summary = _json_lines(res.output)[-1]
    assert summary["order"] == "z-biased"
    assert np.isclose(summary["exact_weights"]["Z@A"], 1.0, atol=1e-10)


def test_qec_normalises_amplitudes(runner):
    res = runner.invoke(cli, ["qec", "--alpha", "3", "--beta", "4"])
    assert res.exit_code == 0, res.output
    rec = _json_lines(res.output)[0]
    assert np.isclose(abs(complex(*rec["recovered"][0])), 0.6, atol=1e-9)


def test_qec_accepts_a_tiny_qubit(runner):
    # only a zero or non-finite norm is refused; a tiny qubit normalises exactly
    tiny = runner.invoke(cli, ["qec", "--alpha", "1e-13", "--beta", "0"])
    unit = runner.invoke(cli, ["qec", "--alpha", "1", "--beta", "0"])
    assert tiny.exit_code == 0, tiny.output
    assert tiny.output == unit.output


def test_budget_json(runner):
    res = runner.invoke(cli, ["budget"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["mode"] == "full"
    assert payload["total_pulses"] == 902
    assert payload["encode_pulses"] == 16
    assert payload["emitted_cases"] == 21
    assert payload["absorbed_cases"] == ["Z@B", "Z@C", "ZZ@A", "YY@B",
                                         "ZZ@B", "YY@C", "ZZ@C"]
    assert np.isclose(payload["fidelity_threshold"],
                      1.9008864600822406e-05, rtol=1e-10)
    res = runner.invoke(cli, ["budget", "--mode", "z-biased"])
    payload = json.loads(res.output)
    assert payload["total_pulses"] == 358
    assert np.isclose(payload["fidelity_threshold"],
                      4.7893151508104914e-05, rtol=1e-10)


def test_exit_code_2_cases(runner, tmp_path):
    assert runner.invoke(cli, ["levels", "--system", "nosuch"]).exit_code == 2
    infinite = tmp_path / "infinite.cfg"
    infinite.write_text("name = x\nS = 1/2\nI = inf\ng_e_MHz_per_T = 1\n"
                        "g_n_MHz_per_T = 1\nA_MHz = 1\n")
    assert runner.invoke(cli, ["levels", "--system", str(infinite)]).exit_code == 2
    assert runner.invoke(cli, ["qec", "--error", "XXB"]).exit_code == 2
    assert runner.invoke(cli, ["qec", "--alpha", "0", "--beta", "0"]).exit_code == 2
    assert runner.invoke(cli, ["qec", "--alpha", "zz"]).exit_code == 2
    assert runner.invoke(cli, ["qec", "--alpha", "nan"]).exit_code == 2
    assert runner.invoke(cli, ["qec", "--alpha", "inf"]).exit_code == 2
    assert runner.invoke(cli, ["budget", "--error-budget", "1.5"]).exit_code == 2
    assert runner.invoke(cli, ["levels", "--bpoints", "0"]).exit_code == 2
    # grids and branch counts too large to allocate are refused before any is built
    for argv in (["contour", "--system", "si-sb", "--b", "1", "--box", "1e300"],
                 ["contour", "--system", "si-sb", "--b", "1", "--step", "1e-300"],
                 ["tailor", "--b", "1", "--box", "1e300"],
                 ["contour", "--b", "1", "--what", "common-cells",
                  "--scan-points", str(10**15)],
                 ["contour", "--system", "si-sb", "--b", "1", "--family", "ideal-7/2"],
                 ["qec", "--error", "X@B", "--mode", "full", "--trajectories", "10",
                  "--seed", "-1"],
                 ["qec", "--error", "X@B", "--seed", "-1"]):
        res = runner.invoke(cli, argv)
        assert res.exit_code == 2, res.output
        assert "precondition error:" in res.output
    # field-point and trajectory counts are bounded before any array is made
    for argv in (["levels", "--bpoints", str(10**18)],
                 ["levels", "--bpoints", str(10**30)],
                 ["klsweep", "--bpoints", str(10**18)],
                 ["tailor", "--bstart", "1", "--bstop", "2", "--bpoints", str(10**18)],
                 ["qec", "--mode", "full", "--trajectories", str(10**18)]):
        res = runner.invoke(cli, argv)
        assert res.exit_code == 2, res.output
        assert "is not in the range" in res.output


#: one README command per subcommand
_README_COMMANDS = {
    "levels": ["levels", "--system", "si-sb", "--bstop", "0.3", "--bpoints", "61"],
    "klsweep": ["klsweep", "--system", "si-sb", "--bstart", "0.5", "--bstop", "5"],
    "tailor": ["tailor", "--b", "1"],
    "contour": ["contour", "--system", "si-sb", "--b", "1", "--box", "5e-4", "--step", "1e-4"],
    "qec": ["qec", "--error", "XX@A"],
    "budget": ["budget", "--mode", "z-biased"],
}


@pytest.mark.parametrize("command", sorted(_README_COMMANDS))
def test_out_flag_writes_file(runner, tmp_path, command):
    argv = _README_COMMANDS[command]
    plain = runner.invoke(cli, argv)
    assert plain.exit_code == 0, plain.output
    target = tmp_path / f"{command}.out"
    res = runner.invoke(cli, argv + ["--out", str(target)])
    assert res.exit_code == 0, res.output
    assert res.output == ""
    assert target.read_text() == plain.output


def test_unwritable_out_is_a_precondition_error(runner, tmp_path):
    target = tmp_path / "no" / "such" / "dir" / "x.csv"
    res = runner.invoke(cli, ["levels", "--bpoints", "2", "--out", str(target)])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.startswith("precondition error: cannot write --out: ")
    assert str(target) in res.stderr
    assert not target.exists()


#: --system paths that exist but cannot be read as text, and the refusal's reason
_UNREADABLE_SYSTEMS = {"directory": "cannot read: Is a directory",
                       "unreadable": "cannot read: Permission denied",
                       "not-utf8": "not UTF-8 text"}


@pytest.mark.parametrize("kind", sorted(_UNREADABLE_SYSTEMS))
def test_unreadable_system_file_is_a_precondition_error(runner, tmp_path, monkeypatch, kind):
    path = tmp_path / "system.cfg"
    if kind == "directory":
        path.mkdir()
    elif kind == "unreadable":
        # permission bits do not stop a superuser, so the refusal is simulated
        path.write_text("name = x\n")

        def denied(file, *args, **kwargs):
            raise PermissionError(13, "Permission denied", str(file))

        monkeypatch.setattr(spin, "open", denied, raising=False)
    else:
        path.write_bytes(b"name = caf\xe9\nS = 1/2\n")
    res = runner.invoke(cli, ["levels", "--system", str(path), "--bpoints", "2"])
    assert res.exit_code == 2, res.output
    assert isinstance(res.exception, SystemExit)
    assert res.stdout == ""
    assert res.stderr.startswith(f"precondition error: {path}: {_UNREADABLE_SYSTEMS[kind]}")


#: runs with a NaN or infinite number, and the name the refusal gives it
_NON_FINITE = [
    (["klsweep", "--bpoints", "2", "--eps1", "nan"], "eps1"),
    (["klsweep", "--bpoints", "2", "--eps2", "inf"], "eps2"),
    (["levels", "--bpoints", "2", "--bstart", "nan"], "bstart"),
    (["levels", "--bpoints", "2", "--bstop", "inf"], "bstop"),
    (["tailor", "--b", "nan"], "b_field"),
    (["tailor", "--b", "-inf"], "b_field"),
    (["tailor", "--system", "si-sb", "--bstart", "0.5", "--bstop", "1", "--bpoints", "2",
      "--freeze-at", "nan"], "b_field"),
    (["contour", "--system", "si-sb", "--b", "nan"], "b_field"),
]


@pytest.mark.parametrize("argv, name", _NON_FINITE,
                         ids=[f"{a[0]}{a[-2]}-{a[-1]}" for a, _ in _NON_FINITE])
def test_non_finite_numbers_are_refused_by_name(runner, argv, name):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(cli, argv)
    assert res.exit_code == 2, res.output
    assert res.stderr.startswith(f"precondition error: {name} must be finite, got ")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


_SI_BI_FILE = {"name": "custom-bi", "S": "1/2", "I": "9/2", "g_e_MHz_per_T": "28020.0",
               "g_n_MHz_per_T": "6.841", "A_MHz": "1475.4"}


def _system_file(tmp_path, **changes):
    path = tmp_path / "system.cfg"
    path.write_text("".join(f"{k} = {v}\n" for k, v in {**_SI_BI_FILE, **changes}.items()))
    return path


@pytest.mark.parametrize("key, name", [("g_e_MHz_per_T", "g_e"), ("g_n_MHz_per_T", "g_n"),
                                       ("A_MHz", "a")])
@pytest.mark.parametrize("value", ["nan", "-inf"])
def test_non_finite_system_constants_are_refused_by_name(runner, tmp_path, key, name, value):
    path = _system_file(tmp_path, **{key: value})
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(cli, ["levels", "--system", str(path), "--bpoints", "2"])
    assert res.exit_code == 2, res.output
    assert res.stderr == f"precondition error: {path}: {name} must be finite, got {value}\n"
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


@pytest.mark.parametrize("argv, system, field", [
    (["tailor", "--b", "1e306"], "Si:Bi-209", "1e+306"),
    (["levels", "--bstart", "1e306", "--bstop", "1e306", "--bpoints", "1"], "Si:Sb-123",
     "1e+306"),
    (["levels", "--bpoints", "1", "--system"], "custom-bi", "0.0"),  # A = 1e308 MHz
])
def test_hamiltonian_overflow_is_refused_before_numpy_warns(runner, tmp_path, argv, system,
                                                            field):
    if argv[-1] == "--system":
        argv = argv + [str(_system_file(tmp_path, A_MHz="1e308"))]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        res = runner.invoke(cli, argv)
    assert res.exit_code == 2, res.output
    assert res.stderr == (f"precondition error: the Hamiltonian of {system} "
                          f"at b_field={field} overflows float64\n")
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_system_file_path(runner, tmp_path):
    cfg = tmp_path / "system.cfg"
    cfg.write_text(
        "# custom donor\n"
        "name = custom-sb\n"
        "S = 1/2\n"
        "I = 7/2\n"
        "g_e_MHz_per_T = 28020.0\n"
        "g_n_MHz_per_T = 5.55\n"
        "A_MHz = 101.52\n"
    )
    res = runner.invoke(cli, ["levels", "--system", str(cfg),
                              "--bstart", "1", "--bstop", "1",
                              "--bpoints", "1"])
    assert res.exit_code == 0, res.output
    ref = runner.invoke(cli, ["levels", "--system", "si-sb",
                              "--bstart", "1", "--bstop", "1",
                              "--bpoints", "1"])
    assert res.output == ref.output


def test_a_preset_name_always_means_the_preset(runner, tmp_path, monkeypatch):
    # a directory named si-bi in the working directory made `--system si-bi`
    # exit 2 with "si-bi: cannot read: Is a directory"; a file of a preset's
    # name or alias no longer replaces the preset either
    monkeypatch.chdir(tmp_path)
    argv = ["levels", "--bstart", "1", "--bstop", "1", "--bpoints", "2", "--system"]
    want = {key: runner.invoke(cli, argv + [key]) for key in ("si-bi", "si-sb", "Si:Sb-123")}
    assert all(res.exit_code == 0 for res in want.values())
    (tmp_path / "si-bi").mkdir()
    (tmp_path / "si-sb").write_text("name = x\n")
    (tmp_path / "Si:Sb-123").write_text("name = x\n")
    for key, ref in want.items():
        res = runner.invoke(cli, argv + [key])
        assert res.exit_code == 0, res.output
        assert res.stdout == ref.stdout
    # any other value is a path, and one that is neither lists the presets
    (tmp_path / "other").write_text("name = x\n")
    res = runner.invoke(cli, argv + ["other"])
    assert res.exit_code == 2 and "other: missing keys" in res.stderr
    res = runner.invoke(cli, argv + ["si-p"])
    assert res.exit_code == 2 and "unknown system 'si-p'; presets:" in res.stderr


#: a well-formed donor, and values a system file may hold instead
_DONOR = {"name": "donor", "S": "1/2", "I": "3/2", "g_e_MHz_per_T": "28020",
          "g_n_MHz_per_T": "5.55", "A_MHz": "101.52"}
_HOSTILE = ("", "1/0", "0/0", "-1/2", "1e-400", "1e400", "1_0/2", "nan", "-inf", "1e308",
            "7/2", "4.5", "0", "3", "0x10", "\u0663", "1/2 # note", "=", "5e-324")
_TEXT = st.text("0123456789./_-+eE =#\tSIAnx\u0663\u00e9", max_size=10)
_LINES = st.one_of(
    st.tuples(st.sampled_from(SYSTEM_KEYS),
              st.one_of(st.sampled_from(_HOSTILE), _TEXT)).map(" = ".join),
    st.sampled_from(("A_mhz = 5000", "s = 1/2", "B_T = 3", "junk", "# comment", "",
                     "= 3", "name")),
    _TEXT,
)


@settings(max_examples=60, deadline=None)
@given(drop=st.sets(st.sampled_from(SYSTEM_KEYS), max_size=1),
       extra=st.lists(_LINES, max_size=3), order=st.randoms(use_true_random=False))
def test_generated_system_files_load_or_are_refused_by_path(drop, extra, order):
    # known keys with hostile values, unknown keys, junk and repeated lines: a
    # file loads, or is refused with its path first; a loaded one runs levels
    # to exit 0 or 2, never a crash
    lines = [f"{key} = {value}" for key, value in _DONOR.items() if key not in drop] + extra
    order.shuffle(lines)
    with tempfile.TemporaryDirectory() as folder:
        path = os.path.join(folder, "donor.cfg")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(lines) + "\n")
        try:
            load_system(path)
        except PreconditionError as exc:
            assert str(exc).startswith(path)
            return
        res = CliRunner().invoke(cli, ["levels", "--system", path, "--bpoints", "2"])
    assert res.exit_code in (0, 2), res.output


#: (family without, family with branch-angle corrections); None: no default
_DEFAULT_FAMILIES = {
    "si-sb": ("ideal-7/2", "distorted-7/2"),
    "si-bi": ("ideal-9/2", "tailored-9/2"),
    "i11_2": None,
}


@pytest.mark.parametrize("command", ["klsweep", "tailor", "contour"])
@pytest.mark.parametrize("system", sorted(_DEFAULT_FAMILIES))
def test_family_default(runner, tmp_path, system, command):
    key = system
    if system == "i11_2":
        cfg = tmp_path / "i11_2.cfg"
        cfg.write_text("name = user-i11_2\nS = 1/2\nI = 11/2\n"
                       "g_e_MHz_per_T = 28020.0\ng_n_MHz_per_T = 5.0\n"
                       "A_MHz = 300.0\n")
        key = str(cfg)
    argv = {
        "klsweep": ["klsweep", "--system", key, "--eps1", "1e-3",
                    "--bstart", "1", "--bstop", "1", "--bpoints", "1"],
        "tailor": ["tailor", "--system", key, "--b", "1"],
        "contour": ["contour", "--system", key, "--b", "1",
                    "--what", "common-cells", "--scan-points", "40"],
    }[command]
    res = runner.invoke(cli, argv)
    if _DEFAULT_FAMILIES[system] is None:
        assert res.exit_code == 2
        assert "no default code family for I=5.5" in res.output
        return
    ideal, distorted = _DEFAULT_FAMILIES[system]
    assert res.exit_code == 0, res.output
    named = runner.invoke(cli, argv + ["--family", distorted])
    assert named.exit_code == 0, named.output
    assert res.output == named.output
    if command == "klsweep":
        # without corrections the ideal family is the default
        plain = argv[:3] + argv[5:]
        res = runner.invoke(cli, plain)
        named = runner.invoke(cli, plain + ["--family", ideal])
        assert res.exit_code == 0 and named.exit_code == 0, res.output
        assert res.output == named.output


@pytest.mark.parametrize("argv", [
    ["qec", "--mode", "full", "--trajectories", "0"],
    ["qec", "--mode", "full", "--trajectories", "-5"],
    ["contour", "--b", "1", "--step", "0"],
    ["contour", "--b", "1", "--box", "0"],
    ["contour", "--b", "1", "--what", "common-cells", "--scan-points", "0"],
    ["tailor", "--b", "1", "--box", "-1e-3"],
])
def test_out_of_range_options_are_usage_errors(runner, argv):
    res = runner.invoke(cli, argv)
    assert res.exit_code == 2, res.output
    assert "is not in the range" in res.output


#: every float option of the README commands, each on a small base command
#: (two field points, the README contour box); count options are not probed
_HOSTILE_VALUES = ("nan", "inf", "-inf", "0", "-1", "1e300", "1e-300")
_README_BOX = ["--box", "5e-4", "--step", "1e-4"]
_FLOAT_OPTIONS = [(base, option) for base, options in (
    (["levels", "--bpoints", "2"], ("--bstart", "--bstop")),
    (["klsweep", "--bpoints", "2"], ("--eps1", "--eps2", "--bstart", "--bstop")),
    (["tailor", "--b", "1"], ("--b", "--box")),
    (["tailor", "--bstart", "0.5", "--bstop", "1", "--bpoints", "2", "--freeze-at", "1"],
     ("--bstart", "--bstop", "--freeze-at")),
    (["contour", "--system", "si-sb", "--b", "1", *_README_BOX], ("--b", "--box", "--step")),
    (["qec", "--error", "XX@A"], ("--alpha", "--beta")),
    (["budget"], ("--error-budget",)),
) for option in options]


@pytest.mark.parametrize("base, option", _FLOAT_OPTIONS,
                         ids=[f"{b[0]}{o}" for b, o in _FLOAT_OPTIONS])
def test_hostile_float_options_exit_cleanly(runner, base, option):
    for value in _HOSTILE_VALUES:
        res = runner.invoke(cli, base + [option, value])
        where = f"{option} {value}: {res.output!r}"
        assert res.exit_code in (0, 2, 3), where
        assert res.exception is None or isinstance(res.exception, SystemExit), where
        assert "Traceback" not in res.output, where


#: every integer option of the README commands, each on a small base command
_HOSTILE_COUNTS = ("-1", "0", "1", str(2**63))
_INT_OPTIONS = [
    (["levels", "--bstop", "0.3"], "--bpoints"),
    (["klsweep", "--system", "si-sb"], "--bpoints"),
    (["tailor", "--bstart", "1", "--bstop", "2"], "--bpoints"),
    (["contour", "--system", "si-sb", "--b", "1", "--what", "common-cells", "--box", "5e-4"],
     "--scan-points"),
    (["qec", "--error", "X@B", "--mode", "full"], "--trajectories"),
    (["qec", "--error", "X@B", "--mode", "full", "--trajectories", "10"], "--seed"),
]


@pytest.mark.parametrize("base, option", _INT_OPTIONS,
                         ids=[f"{b[0]}{o}" for b, o in _INT_OPTIONS])
def test_hostile_integer_options_exit_cleanly(runner, base, option):
    for value in _HOSTILE_COUNTS:
        res = runner.invoke(cli, base + [option, value])
        where = f"{option} {value}: {res.output!r}"
        assert res.exit_code in (0, 2), where
        assert res.exception is None or isinstance(res.exception, SystemExit), where
        assert "Traceback" not in res.output, where

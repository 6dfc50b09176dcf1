"""End-to-end CLI checks (click runner, no subprocesses)."""

import json

import numpy as np
import pytest
from click.testing import CliRunner

from spinqec.cli import cli
from spinqec.codewords import kl_residuals, lift_to_electron_nuclear, \
    make_codeword, standard_error_sets
from spinqec.spin import get_system

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


def test_tailor_frozen_needs_anchor(runner):
    res = runner.invoke(cli, ["tailor", "--system", "si-sb", "--bstart", "0.5",
                              "--bstop", "2", "--bpoints", "2",
                              "--sweep-mode", "frozen"])
    assert res.exit_code == 2
    assert "precondition" in res.output or res.exception


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


def test_out_flag_writes_file(runner, tmp_path):
    target = tmp_path / "levels.csv"
    res = runner.invoke(cli, ["levels", "--bpoints", "2", "--out", str(target)])
    assert res.exit_code == 0, res.output
    assert res.output == ""
    text = target.read_text()
    assert text.startswith("# b_tesla")
    assert len(text.strip().splitlines()) == 3


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

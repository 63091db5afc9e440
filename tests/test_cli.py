"""CLI integration: exit codes, provenance headers, determinism."""

import contextlib
import csv
import dataclasses
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import HealthCheck, event, given, settings, strategies as st

import trilinear
from trilinear import dynamics
from trilinear.cli import RUNNERS, convergence_rows, main
from trilinear.config import MAX_LEVELS
from trilinear.dynamics import default_step, piecewise_deltas, rc_ramp
from trilinear.trap import mode_params
from trilinear.report import read_data_rows

SMALL_WIGNER = """
simulation:
  radial_dim: 12
  axial_dim: 6
measurement:
  shots: 50
  seed: 99
state: fock:1
grid:
  extent: 1.0
  points: 3
"""

TWO_PI = 2 * math.pi


def run(args, capsys):
    code = main(args)
    out = capsys.readouterr()
    return code, out.out, out.err


def test_modes_reports_conversion_rate(tmp_path, capsys):
    code, out, _ = run(["modes", "--out", str(tmp_path)], capsys)
    assert code == 0
    line = next(l for l in out.splitlines() if l.startswith("conversion_2sqrt2xi_hz"))
    value = float(line.split("=")[1])
    assert value == pytest.approx(2.96e3, rel=0.01)
    csv = (tmp_path / "modes.csv").read_text().splitlines()
    assert csv[0].startswith("# trilinear")
    assert any("config-sha256" in l for l in csv if l.startswith("#"))
    assert any("frame: interaction frame" in l for l in csv if l.startswith("#"))
    data = [l for l in csv if not l.startswith("#")]
    assert len(data) == 2  # header + single row


def test_crossing_minimum_gap(tmp_path, capsys):
    code, out, _ = run(["crossing", "--out", str(tmp_path)], capsys)
    assert code == 0
    gap = float(next(l for l in out.splitlines()
                     if l.startswith("min_gap_hz")).split("=")[1])
    assert gap == pytest.approx(2.97e3, rel=0.02)
    rows = read_data_rows(tmp_path / "crossing.csv")
    assert rows[0] == "delta_hz,branch0_hz,branch1_hz"
    body = np.array([r.split(",") for r in rows[1:]], dtype=float)
    splitting = body[:, 2] - body[:, 1]
    assert splitting.min() == pytest.approx(gap, rel=1e-4)  # stdout prints %.6g
    assert body[np.argmin(splitting), 0] == 0.0


def test_oscillate_runs_and_reports_fit(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("oscillation:\n  hold_points: 33\n  hold_max_s: 1.5e-3\n"
                   "simulation:\n  radial_dim: 8\n  axial_dim: 4\n")
    code, out, _ = run(
        ["oscillate", "--config", str(cfg), "--out", str(tmp_path)], capsys
    )
    assert code == 0
    fitted = float(next(l for l in out.splitlines()
                        if l.startswith("fitted_frequency_hz")).split("=")[1])
    assert fitted == pytest.approx(2962.8, rel=0.005)
    # the fit sees only the exact column, so it reports no error bar, which
    # would be rounding
    assert not any(l.startswith("fitted_frequency_err_hz") for l in out.splitlines())
    rows = read_data_rows(tmp_path / "oscillation.csv")
    assert rows[0] == "t_ms,p_radial,p_axial,p_radial_sampled,p_axial_sampled"
    assert len(rows) == 1 + 33


def test_parity_runs(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER.replace("state: fock:1", "state: fock:2"))
    code, out, _ = run(["parity", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 0
    parity = float(next(l for l in out.splitlines()
                        if l.startswith("parity")).split("=")[1])
    assert abs(parity) < 2.5  # eta-corrected estimate, may exceed 1
    rows = read_data_rows(tmp_path / "parity.csv")
    assert rows[0] == "key,value"
    keys = {r.split(",")[0] for r in rows[1:]}
    assert {"p_phonon", "parity_exact", "readout_bias"} <= keys
    assert any(l.startswith("max_readout_bias = ") for l in out.splitlines())


def test_parity_state_with_a_line_break_stays_one_cell(tmp_path, capsys):
    # the config strips the whitespace around the descriptor, so a trailing
    # line break leaves a plain `fock:1` cell and the table still reads back
    # as key/value pairs
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text('state: "fock:1\\n"\nsimulation:\n  radial_dim: 8\n'
                   '  axial_dim: 4\n')
    code, _, _ = run(["parity", "--config", str(cfg), "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    with open(tmp_path / "parity.csv", newline="") as f:
        table = list(csv.reader(ln for ln in f if not ln.startswith("#")))
    assert all(len(row) == 2 for row in table)
    assert table[0] == ["key", "value"]
    assert table[1] == ["state", "fock:1"]
    assert table[2][0] == "p_phonon"


@pytest.mark.parametrize("command", ["wigner", "parity"])
def test_sweep_steps_reported(tmp_path, capsys, command):
    # stdout gives the grid the sweep marched: its size and extreme steps
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER)
    code, out, _ = run([command, "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 0
    sched = rc_ramp(TWO_PI * 35e3, -TWO_PI * 35e3, 2e-3)
    dts, _ = piecewise_deltas(sched, 0.0, sched.duration,
                              default_step(mode_params().xi, sched))
    expected = (f"sweep_steps = {dts.size} "
                f"({dts.min() * 1e6:.3g}..{dts.max() * 1e6:.3g} us)")
    assert expected in out.splitlines()
    assert 1500 < dts.size < 2000


def test_wigner_deterministic_rerun(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER)
    code, _, _ = run(["wigner", "--config", str(cfg), "--out",
                      str(tmp_path / "a")], capsys)
    assert code == 0
    code, _, _ = run(["wigner", "--config", str(cfg), "--out",
                      str(tmp_path / "b")], capsys)
    assert code == 0
    rows_a = read_data_rows(tmp_path / "a" / "wigner.csv")
    rows_b = read_data_rows(tmp_path / "b" / "wigner.csv")
    assert rows_a == rows_b
    # the provenance hash is configuration-determined (timestamp is not)
    sha_a = [l for l in (tmp_path / "a" / "wigner.csv").read_text().splitlines()
             if "config-sha256" in l]
    sha_b = [l for l in (tmp_path / "b" / "wigner.csv").read_text().splitlines()
             if "config-sha256" in l]
    assert sha_a == sha_b


@pytest.mark.parametrize("command, streams", [
    ("wigner", "per-point streams via SeedSequence(seed, point_index)"),
    ("oscillate", "per-hold streams via SeedSequence(seed, hold_index, 0 for "
                  "radial or 1 for axial)"),
    ("parity", "one stream via SeedSequence(seed, 0), the scan's point 0; "
               "equal to SeedSequence(seed) below 2^96"),
    ("crossing", "no shots drawn"),
])
def test_provenance_names_the_random_streams(tmp_path, capsys, command, streams):
    # each experiment's header states the streams its sampled columns are
    # drawn from, which the draws below reproduce
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER + "oscillation:\n  hold_points: 9\n"
                   "  hold_max_s: 1.0e-3\n")
    code, _, _ = run([command, "--config", str(cfg), "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    name = {"oscillate": "oscillation"}.get(command, command)
    text = (tmp_path / f"{name}.csv").read_text()
    assert f"# seed: 99 rng: PCG64, {streams}" in text.splitlines()
    rows = read_data_rows(tmp_path / f"{name}.csv")
    header = rows[0].split(",")
    body = [dict(zip(header, r.split(","))) for r in rows[1:]]
    model = trilinear.MeasurementModel(eta=0.86, shots=50, seed=99)

    def drawn(p1, *stream):
        return model.rng(*stream).binomial(50, p1) / 50

    if command == "wigner":
        for i, row in enumerate(body):
            assert float(row["p1_sampled"]) == drawn(float(row["p1_exact"]), i)
    elif command == "oscillate":
        for i, row in enumerate(body):
            for col, sub in (("p_radial", 0), ("p_axial", 1)):
                p1 = 0.86 * min(float(row[col]), 1.0)
                assert float(row[f"{col}_sampled"]) == drawn(p1, i, sub)
    elif command == "parity":
        values = {row["key"]: row["value"] for row in body}
        assert float(values["p1_sampled"]) == drawn(float(values["p1_exact"]), 0)


def test_wigner_reports_flagged_points(tmp_path, capsys):
    # 8x4 is far too small for the default grid: all rows but the origin's
    # leak, and stdout has to say so; the sweep itself reads out within
    # tolerance everywhere
    code, out, _ = run(["wigner", "--dims", "8x4", "--exact", "--out",
                        str(tmp_path)], capsys)
    assert code == 0
    rows = read_data_rows(tmp_path / "wigner.csv")
    flags = [set(r.split(",")[-1].split(";")) - {""} for r in rows[1:]]
    leak = sum("leak" in f for f in flags)
    diabatic = sum("diabatic" in f for f in flags)
    assert (leak, diabatic) == (1680, 0)
    summary = f"flagged_points = leak {leak}, diabatic {diabatic} of 1681"
    assert summary in out.splitlines()
    bias = next(l for l in out.splitlines() if l.startswith("max_readout_bias = "))
    assert float(bias.split("=")[1]) <= 0.01


def test_wigner_reports_swept_sectors(tmp_path, capsys):
    # the default grid populates all 8 sectors of 8x4; the readout needs
    # the even ones and the odd ones holding a guard-band state: K = 5
    # (|1, 2>, axial guard) and K = 7 (|7, 0>, radial guard)
    code, out, _ = run(["wigner", "--dims", "8x4", "--exact", "--out",
                        str(tmp_path)], capsys)
    assert code == 0
    lines = out.splitlines()
    steps = next(i for i, l in enumerate(lines) if l.startswith("sweep_steps = "))
    assert lines[steps + 1] == "sweep_sectors = 6 of 8"


def test_product_descriptor_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("state: product:1:0\n")
    code, _, err = run(["parity", "--dims", "8x4", "--config", str(cfg),
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "path=state" in err


def test_header_hash_matches_config(tmp_path, capsys):
    import dataclasses

    from trilinear.config import config_hash, parse_config

    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(SMALL_WIGNER)
    code, _, _ = run(["wigner", "--config", str(cfg_path), "--out",
                      str(tmp_path)], capsys)
    assert code == 0
    header = [l for l in (tmp_path / "wigner.csv").read_text().splitlines()
              if "config-sha256" in l]
    written = header[0].split("config-sha256:")[1].strip()
    resolved = dataclasses.replace(parse_config(SMALL_WIGNER),
                                   experiment="wigner", output=str(tmp_path))
    assert written == config_hash(resolved)


def test_wigner_seed_override_changes_samples(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER)
    run(["wigner", "--config", str(cfg), "--out", str(tmp_path / "a")], capsys)
    run(["wigner", "--config", str(cfg), "--out", str(tmp_path / "b"),
         "--seed", "100"], capsys)
    rows_a = read_data_rows(tmp_path / "a" / "wigner.csv")
    rows_b = read_data_rows(tmp_path / "b" / "wigner.csv")
    assert rows_a != rows_b


def test_wigner_exact_mode(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER)
    code, _, _ = run(["wigner", "--config", str(cfg), "--out", str(tmp_path),
                      "--exact"], capsys)
    assert code == 0
    rows = read_data_rows(tmp_path / "wigner.csv")
    header = rows[0].split(",")
    i_exact, i_sample = header.index("p1_exact"), header.index("p1_sampled")
    i_err = header.index("stderr")
    for row in rows[1:]:
        cells = row.split(",")
        assert cells[i_exact] == cells[i_sample]
        assert float(cells[i_err]) == 0.0


def test_dims_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER)
    code, _, _ = run(["wigner", "--config", str(cfg), "--out", str(tmp_path),
                      "--dims", "10x5", "--exact"], capsys)
    assert code == 0
    header = (tmp_path / "wigner.csv").read_text().splitlines()
    assert any("radial 10" in l and "axial 5" in l for l in header
               if l.startswith("#"))


def test_config_error_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("measurement:\n  shots: -5\n")
    code, _, err = run(["modes", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 2
    assert "config-error" in err


@pytest.mark.parametrize("command, section, key, value", [
    ("wigner", "grid", "extent", math.nan),
    ("wigner", "trap", "omega_x_hz", math.nan),
    ("modes", "trap", "omega_z_hz", math.nan),
    ("parity", "simulation", "step_s", math.nan),
    ("parity", "simulation", "step_s", math.inf),
    ("parity", "simulation", "tau_slow_s", math.nan),
    ("parity", "simulation", "tau_slow_s", math.inf),
    ("parity", "simulation", "parking_hz", math.nan),
    ("parity", "simulation", "parking_hz", math.inf),
    ("parity", "simulation", "parking_hz", -math.inf),
    ("converge", "converge", "radial_dims", [8, math.nan]),
])
def test_non_finite_value_exit_code(tmp_path, capsys, command, section, key,
                                    value):
    body = {"simulation": {"radial_dim": 8, "axial_dim": 4}}
    body.setdefault(section, {})[key] = value
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump(body))
    code, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 2
    assert f"path={section}.{key}" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("source", ["yaml", "flag"])
def test_negative_seed_exit_code(tmp_path, capsys, source):
    args = ["parity", "--dims", "8x4", "--out", str(tmp_path)]
    if source == "yaml":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("measurement:\n  seed: -5\n")
        args += ["--config", str(cfg)]
    else:
        args += ["--seed", "-5"]
    code, _, err = run(args, capsys)
    assert code == 2
    assert "path=measurement.seed" in err


def test_seed_flag_that_is_not_an_integer_exit_code(tmp_path, capsys):
    # refused on one config-error line, not argparse's three
    code, _, err = run(["parity", "--dims", "8x4", "--seed", "x", "--out",
                        str(tmp_path)], capsys)
    assert_refused(code, err, "measurement.seed")
    assert not list(tmp_path.glob("*.csv"))


def test_shots_flag_that_is_not_an_integer_exit_code(tmp_path, capsys):
    code, _, err = run(["parity", "--dims", "8x4", "--shots", "x", "--out",
                        str(tmp_path)], capsys)
    assert_refused(code, err, "measurement.shots")
    assert not list(tmp_path.glob("*.csv"))


def test_empty_dims_flag_exit_code(tmp_path, capsys):
    # an empty value is refused, not read as no flag at all
    code, _, err = run(["modes", "--dims=", "--out", str(tmp_path)], capsys)
    assert_refused(code, err, "dims")
    assert not list(tmp_path.glob("*.csv"))


def flag_and_file_runs(tmp_path, capsys, command, flags, text):
    """The exit code, stderr, and each table's config hash and data rows, of
    a run given `flags` and of one given a config file holding `text`."""
    file = tmp_path / "file.yaml"
    file.write_text(text, encoding="utf-8")
    results = []
    for name, args in (("flag", flags), ("file", ["--config", str(file)])):
        out = tmp_path / name
        code, _, err = run([command, *args, "--out", str(out)], capsys)
        results.append((code, err, {
            table.name: ([l for l in table.read_text().splitlines()
                          if l.startswith("# config-sha256:")], read_data_rows(table))
            for table in out.glob("*.csv")}))
    return results


SMALL_DIMS = "simulation: {radial_dim: 8, axial_dim: 4}\n"


@pytest.mark.parametrize("flags, text, path", [
    (["--dims", "8x4", "--seed", "0x10"], SMALL_DIMS + "measurement: {seed: 0x10}\n",
     None),
    (["--dims", "8x4", "--seed", "\u0663"],
     SMALL_DIMS + "measurement: {seed: \u0663}\n", "measurement.seed"),
    (["--dims", "\uff18x4"], "simulation: {radial_dim: \uff18, axial_dim: 4}\n",
     "simulation.radial_dim"),
], ids=["seed-hex", "seed-arabic-indic-digit", "dims-fullwidth-digit"])
def test_flag_reads_as_the_same_text_in_the_config_file(tmp_path, capsys, flags,
                                                        text, path):
    # each flag was once read through int(): hex was refused and digits
    # other than ASCII accepted, the other way round from the config file
    flag, file = flag_and_file_runs(tmp_path, capsys, "parity", flags, text)
    assert flag == file
    if path is None:
        assert flag[0] == 0 and flag[2]["parity.csv"][1]
        assert "\n# seed: 16 " in (tmp_path / "flag" / "parity.csv").read_text()
    else:
        assert_refused(flag[0], flag[1], path)


@pytest.mark.parametrize("section, flags, text", [
    ("measurement: null\n", ["--seed", "3"], "measurement:\n  seed: 3\n"),
    ("simulation: null\n", ["--dims", "8x4"],
     "simulation:\n  radial_dim: 8\n  axial_dim: 4\n"),
    ("measurement: 5\n", ["--seed", "3"], "measurement: 5\n"),
    ("simulation: [8, 4]\n", ["--dims", "8x4"], "simulation: [8, 4]\n"),
], ids=["null-measurement", "null-simulation", "scalar-measurement",
        "list-simulation"])
def test_flag_beside_a_section_that_is_not_a_mapping(tmp_path, capsys, section,
                                                     flags, text):
    # a null section holds every default, so the flag's entry is all it
    # holds; any other section that is not a mapping is refused as if no
    # flag were given
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(section)
    flag, file = flag_and_file_runs(tmp_path, capsys, "modes",
                                    ["--config", str(cfg), *flags], text)
    assert flag == file
    if "null" in section:
        assert flag[0] == 0 and flag[2]["modes.csv"][0]
    else:
        assert_refused(flag[0], flag[1], section.split(":")[0])
        assert "expected a mapping" in flag[1]


def test_one_run_validates_its_config_once(tmp_path, capsys):
    # the flags are entries of the file's mapping, which is built and
    # validated once
    from trilinear import config

    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER)
    with mock.patch.object(config, "validate_config",
                           wraps=config.validate_config) as validate:
        code, _, _ = run(["wigner", "--config", str(cfg), "--seed", "3",
                          "--shots", "20", "--dims", "8x4", "--exact", "--out",
                          str(tmp_path)], capsys)
    assert code == 0
    assert validate.call_count == 1


def test_unknown_key_exit_code(tmp_path, capsys):
    cfg = tmp_path / "bad.yaml"
    cfg.write_text("blasters: 3\n")
    code, _, err = run(["modes", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 2
    assert "unknown-key" in err


def test_missing_config_exit_code(tmp_path, capsys):
    code, _, err = run(["modes", "--config", str(tmp_path / "nope.yaml"),
                        "--out", str(tmp_path)], capsys)
    assert code == 2


def test_experiment_mismatch_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("experiment: modes\n")
    code, _, err = run(["crossing", "--config", str(cfg), "--out",
                        str(tmp_path)], capsys)
    assert code == 2


def test_step_policy_violation_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("simulation:\n  step_s: 1.0e-5\n  radial_dim: 8\n"
                   "  axial_dim: 4\noscillation:\n  hold_points: 9\n")
    code, _, err = run(["oscillate", "--config", str(cfg), "--out",
                        str(tmp_path)], capsys)
    assert code == 3
    assert "numerical-contract" in err


@pytest.mark.parametrize("command, state", [
    ("wigner", "cat:0:pi:minus"),  # zero norm
    ("wigner", "fock:50"),  # past the physical levels
    ("wigner", "cat:1e200:pi:plus"),  # |alpha|^2 overflows
    ("wigner", "coherent:100"),  # every amplitude underflows
    ("parity", "coherent:100"),
    ("parity", "cat:0:pi:minus"),
    ("converge", "fock:50"),
    ("converge", "coherent:100"),
])
def test_unbuildable_state_exit_code(tmp_path, capsys, command, state):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"state: '{state}'\nconverge:\n  radial_dims: [8, 10]\n")
    code, _, err = run([command, "--dims", "8x4", "--exact", "--config",
                        str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 2
    assert "path=state" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command", ["wigner", "parity", "oscillate"])
def test_step_count_bound_exit_code(tmp_path, capsys, command):
    # 1e-300 s would need about 1e297 steps: refused before any is laid
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("simulation:\n  step_s: 1.0e-300\n  radial_dim: 8\n"
                   "  axial_dim: 4\n")
    code, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 3
    assert "MAX_STEPS" in err
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("command, parking", [
    ("parity", "1.0e306"),  # the Magnus coefficients overflow: NaN columns
    ("wigner", "1.0e300"),  # the step matrices defeat eigh
])
def test_sweep_that_breaks_its_arithmetic_exit_code(tmp_path, capsys, command,
                                                    parking):
    # a finite detuning far past any trap, at a fixed step: the sweep's norm
    # contract refuses it, and no overflow warning reaches stderr
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"simulation:\n  step_s: 1.0e-5\n  parking_hz: {parking}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run([command, "--dims", "8x4", "--exact", "--config",
                            str(cfg), "--out", str(tmp_path)], capsys)
    assert code == 3
    assert err.startswith("numerical-contract violation: ")
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("command, source", [
    ("wigner", "flag"), ("parity", "flag"), ("wigner", "yaml"),
])
def test_shots_past_the_binomial_limit_exit_code(tmp_path, capsys, command,
                                                 source):
    # 10^20 shots overflow numpy's binomial draw
    args = [command, "--dims", "8x4", "--out", str(tmp_path)]
    if source == "yaml":
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text("measurement:\n  shots: 100000000000000000000\n")
        args += ["--config", str(cfg)]
    else:
        args += ["--shots", "100000000000000000000"]
    code, _, err = run(args, capsys)
    assert code == 2
    assert "path=measurement.shots" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_largest_shot_count_draws(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER)
    code, _, _ = run(["wigner", "--config", str(cfg), "--shots",
                      str(2 ** 63 - 1), "--out", str(tmp_path)], capsys)
    assert code == 0


@pytest.mark.parametrize("command, section, key, value", [
    ("wigner", "grid", "points", 10 ** 6),
    ("oscillate", "oscillation", "hold_points", 10 ** 12),
    ("crossing", "crossing", "points", 10 ** 12),
])
def test_unallocatable_row_count_exit_code(tmp_path, capsys, command, section,
                                           key, value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({section: {key: value}}))
    code, _, err = run([command, "--dims", "8x4", "--config", str(cfg),
                        "--out", str(tmp_path)], capsys)
    assert code == 2
    assert f"path={section}.{key}" in err
    assert "MAX_ROWS" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


def assert_refused(code, err, path):
    assert code == 2
    assert f"path={path}" in err
    assert len(err.strip().splitlines()) == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("command, section, key", [
    ("parity", "simulation", "parking_hz"),
    ("crossing", "crossing", "span_hz"),
])
def test_frequency_whose_angular_value_overflows_exit_code(tmp_path, capsys,
                                                           command, section,
                                                           key):
    # 1e308 Hz is a finite float, but 2 pi times it is not
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({section: {key: 1.0e308}}))
    code, _, err = run([command, "--dims", "8x4", "--config", str(cfg),
                        "--out", str(tmp_path)], capsys)
    assert_refused(code, err, f"{section}.{key}")
    assert "overflows" in err
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("source, path", [
    ("simulation:\n  radial_dim: 100000\n", "simulation.radial_dim"),
    ("simulation:\n  axial_dim: 100000\n", "simulation.axial_dim"),
    ("--dims 100000x4", "simulation.radial_dim"),
    ("converge:\n  radial_dims: [8, 100000]\n", "converge.radial_dims"),
], ids=["radial_dim", "axial_dim", "dims_flag", "converge_radial_dims"])
def test_dims_past_max_levels_exit_code(tmp_path, capsys, source, path):
    # refused in validation, before any space of that size is built; the
    # modes run would build none either way, and only converge reads the
    # converge section
    command = "converge" if path.startswith("converge") else "modes"
    args = [command, "--out", str(tmp_path)]
    if source.startswith("--dims"):
        args += source.split()
    else:
        cfg = tmp_path / "cfg.yaml"
        cfg.write_text(source)
        args += ["--config", str(cfg)]
    code, _, err = run(args, capsys)
    assert_refused(code, err, path)
    assert f"MAX_LEVELS = {MAX_LEVELS}" in err
    assert not list(tmp_path.glob("*.csv"))


def test_dims_at_max_levels_are_accepted(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"simulation:\n  radial_dim: {MAX_LEVELS}\n"
                   f"  axial_dim: {MAX_LEVELS}\n")
    code, _, _ = run(["modes", "--config", str(cfg), "--out", str(tmp_path)],
                     capsys)
    assert code == 0


def test_config_naming_a_directory_exit_code(tmp_path, capsys):
    code, _, err = run(["modes", "--config", str(tmp_path), "--out",
                        str(tmp_path / "out")], capsys)
    assert_refused(code, err, tmp_path)
    assert "kind=io" in err


def test_config_that_is_not_utf8_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_bytes(b"state: \xff\xfe\n")
    code, _, err = run(["modes", "--config", str(cfg), "--out",
                        str(tmp_path / "out")], capsys)
    assert_refused(code, err, cfg)
    assert "kind=io" in err


def test_output_naming_a_file_exit_code(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"output": str(taken)}))
    code, _, err = run(["modes", "--config", str(cfg)], capsys)
    assert_refused(code, err, taken)
    assert "kind=io" in err
    assert taken.read_text() == ""


# the holes the config fuzzer found: each ended in a traceback


def test_output_with_a_nul_byte_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"output": str(tmp_path / "a\0b")}))
    code, _, err = run(["modes", "--config", str(cfg)], capsys)
    assert code == 2
    assert "kind=io" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.rglob("*.csv"))


@pytest.mark.parametrize("section, key, value", [
    ("simulation", "parking_hz", 10 ** 400),
    ("trap", "omega_x_hz", -10 ** 400),
    ("converge", "step_fractions", [1.0, 10 ** 400]),
], ids=["parking_hz", "omega_x_hz", "step_fractions"])
def test_integer_past_the_float_range_exit_code(tmp_path, capsys, section, key,
                                                value):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({section: {key: value}}))
    code, _, err = run(["modes", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert_refused(code, err, f"{section}.{key}")
    assert "float range" in err


@pytest.mark.parametrize("text", [
    "grid:\n  points: 1" + "0" * 5000 + "\n",
    "state: 2001-13-45\n",
    "grid:\n  points: !!int 1.5\n",
    "state: !!timestamp x\n",
    "state: " + "[" * 3000 + "]" * 3000 + "\n",
], ids=["digits", "date", "int_tag", "timestamp_tag", "nesting"])
def test_yaml_that_cannot_be_built_exit_code(tmp_path, capsys, text):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(text)
    code, _, err = run(["modes", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert_refused(code, err, "?")
    assert "kind=parse" in err


def test_grid_of_more_rows_than_print_as_digits_exit_code(tmp_path, capsys):
    # its square has more digits than int() prints
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(f"grid:\n  points: {10 ** 4000}\n")
    code, _, err = run(["wigner", "--dims", "8x4", "--config", str(cfg),
                        "--out", str(tmp_path)], capsys)
    assert_refused(code, err, "grid.points")
    assert "MAX_ROWS" in err


def test_key_with_a_line_break_is_refused_on_one_line(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"simulation": {"a\nb": 1}}))
    code, _, err = run(["modes", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert_refused(code, err, "simulation.a\\nb")
    assert "kind=unknown-key" in err


@pytest.mark.parametrize("command, key", [("parity", "tau_slow_s"),
                                          ("oscillate", "tau_fast_s")])
def test_ramp_whose_length_overflows_exit_code(tmp_path, capsys, command, key):
    # a ramp runs for 5 tau, which is infinite here
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"simulation": {key: 1e308}}))
    code, _, err = run([command, "--dims", "8x4", "--config", str(cfg),
                        "--out", str(tmp_path)], capsys)
    assert_refused(code, err, f"simulation.{key}")
    assert "overflows" in err


def test_angle_divided_by_zero_exit_code(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text('state: "cat:1:pi/0:plus"\n')
    code, _, err = run(["modes", "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert_refused(code, err, "state")
    assert "cannot parse angle" in err


CONVERGE_10x5 = ("simulation:\n  radial_dim: 10\n  axial_dim: 5\n"
                 "converge:\n  radial_dims: [8, 10]\n"
                 "  step_fractions: [1, 0.5, 0.25]\n")


def converge_stdout_rows(out: str) -> list[list[str]]:
    """converge prints each row with its values at full precision."""
    return [line.split(",") for line in out.splitlines()]


def test_converge_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "simulation:\n  radial_dim: 10\n  axial_dim: 5\n"
        "converge:\n  radial_dims: [8, 10]\n  step_fractions: [1.0, 0.5]\n"
    )
    code, out, _ = run(["converge", "--config", str(cfg), "--out",
                        str(tmp_path)], capsys)
    assert code == 0
    rows = read_data_rows(tmp_path / "converge.csv")
    assert rows[0] == "kind,setting,observable,value,delta_vs_finest,flag"
    table = [r.split(",") for r in rows[1:]]
    assert [r[0] for r in table] == ["truncation"] * 2 + ["step"] * 2
    # both groups read the state's W(0); the rows that could not move
    # (the K = 2 gap, the conversion tone, the sweep infidelity) are gone
    assert {r[2] for r in table} == {"wigner_origin"}
    # the coarsest step sits a Magnus step error away from the finest
    coarsest = next(r for r in converge_stdout_rows(out) if r[0] == "step")
    assert 0 < float(coarsest[4]) < 1e-7


def test_converge_values_are_the_wigner_scan_at_each_setting(tmp_path, capsys):
    from trilinear.config import parse_config
    from trilinear.fock import FockDim, TwoModeSpace, fock_state
    from trilinear.protocols import MeasurementModel, wigner_scan

    (tmp_path / "cfg.yaml").write_text(CONVERGE_10x5)
    code, out, _ = run(["converge", "--config", str(tmp_path / "cfg.yaml"),
                        "--out", str(tmp_path)], capsys)
    assert code == 0
    cfg = parse_config(CONVERGE_10x5)
    xi = mode_params(trilinear.YB171, cfg.to_trap()).xi
    sched = rc_ramp(cfg.parking, -cfg.parking, cfg.simulation.tau_slow_s)
    steps = [default_step(xi, sched) * fr for fr in (1, 0.5, 0.25)]
    m = cfg.measurement
    model = MeasurementModel(eta=m.eta, shots=m.shots, seed=m.seed)

    def w0(space, step):
        return float(wigner_scan(fock_state(space.radial, 2), np.array([0j]),
                                 xi, space, sched, model, exact=True,
                                 step=step).wigner[0])

    rows = converge_stdout_rows(out)
    assert [r[:3] for r in rows] == [
        ["truncation", "8x4", "wigner_origin"],
        ["truncation", "10x5", "wigner_origin"],
        *(["step", f"{step:.3e}", "wigner_origin"] for step in steps)]
    truncation = [w0(TwoModeSpace(FockDim(r, 2), FockDim(a, 2)), None)
                  for r, a in ((8, 4), (10, 5))]
    assert [float(r[3]) for r in rows] == truncation + [
        w0(cfg.to_space(), step) for step in steps]
    # sixth order: each halving cuts the step's W(0) error 64-fold
    d_coarse, d_mid, d_finest = (float(r[4]) for r in rows[2:])
    assert d_finest == 0 and 32 < d_coarse / d_mid < 128
    assert not any(r[5] for r in rows)


def test_converge_scans_each_setting_once(tmp_path, capsys, monkeypatch):
    from trilinear import cli
    from trilinear.config import RunConfig
    from trilinear.fock import FockDim, TwoModeSpace, fock_state
    from trilinear.protocols import MeasurementModel, slow_sweep

    scan, settings = cli.wigner_scan, []

    def counted(state, alphas, xi, space, schedule, model, **kwargs):
        settings.append((space, kwargs["step"]))
        return scan(state, alphas, xi, space, schedule, model, **kwargs)

    monkeypatch.setattr(cli, "wigner_scan", counted)
    code, out, _ = run(["converge", "--out", str(tmp_path)], capsys)
    assert code == 0
    # the configured 40x20 space at the configured step is both the finest
    # truncation row and the coarsest step row
    assert len(settings) == len(set(settings)) == 5
    cfg = RunConfig()
    xi = mode_params(trilinear.YB171, cfg.to_trap()).xi
    sched = slow_sweep(cfg.parking, cfg.simulation.tau_slow_s)
    base = default_step(xi, sched)
    m = cfg.measurement
    model = MeasurementModel(eta=m.eta, shots=m.shots, seed=m.seed)

    def w0(radial, step):
        space = TwoModeSpace(FockDim(radial, 2), FockDim(radial // 2, 2))
        return float(scan(fock_state(space.radial, 2), np.array([0j]), xi,
                          space, sched, model, exact=True, step=step).wigner[0])

    assert [(r[0], r[1], float(r[3])) for r in converge_stdout_rows(out)] == [
        *(("truncation", f"{r}x{r // 2}", w0(r, None)) for r in (20, 30, 40)),
        *(("step", f"{base * fr:.3e}", w0(40, base * fr)) for fr in (1, 0.5, 0.25))]


def test_converge_runs_no_conversion_or_spectrum(tmp_path, capsys, monkeypatch):
    from trilinear import cli
    from trilinear.dynamics import SweepResult

    def refuse(*args, **kwargs):
        raise AssertionError("converge reads W(0) alone")

    monkeypatch.setattr(cli, "oscillation_experiment", refuse)
    monkeypatch.setattr(cli, "avoided_crossing_spectrum", refuse)
    monkeypatch.setattr(SweepResult, "unitaries", property(refuse))
    (tmp_path / "cfg.yaml").write_text(CONVERGE_10x5)
    code, _, _ = run(["converge", "--config", str(tmp_path / "cfg.yaml"),
                      "--out", str(tmp_path)], capsys)
    assert code == 0


def test_converge_of_one_phonon_fits_the_radial_levels(tmp_path, capsys):
    # 4x4 keeps radial levels 0..1: room for fock:1 on the configured space
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("state: fock:1\n")
    code, _, _ = run(["converge", "--dims", "4x4", "--config", str(cfg),
                      "--out", str(tmp_path)], capsys)
    assert code == 0


@pytest.mark.parametrize("key, entries", [
    pytest.param("radial_dims", ["abc"], id="dims-abc"),
    pytest.param("radial_dims", [[8]], id="dims-list"),
    pytest.param("radial_dims", ["1e400"], id="dims-1e400"),  # a YAML string
    pytest.param("radial_dims", [8.7, 10], id="dims-8.7"),
    pytest.param("radial_dims", [True, 10], id="dims-true"),
    pytest.param("step_fractions", ["x"], id="fractions-x"),
    pytest.param("step_fractions", [True], id="fractions-true"),
])
@pytest.mark.parametrize("command", ["modes", "converge"])
def test_bad_converge_list_entry_exit_code(tmp_path, capsys, command, key,
                                           entries):
    # every subcommand parses the converge section, entry by entry with
    # the rule of a scalar field of the entry's type; only converge checks
    # the values
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"converge": {key: entries}}))
    code, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 2
    assert f"path=converge.{key}" in err
    assert ("expected an integer" if key == "radial_dims"
            else "expected a number") in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


@pytest.mark.parametrize("dims", [[4, 6], [6, 8]])
def test_converge_dims_too_small_for_the_guard_band_exit_code(tmp_path, capsys,
                                                              dims):
    # radial dims below 8 pair with a 3-level axial mode, which cannot hold
    # the default 2-level guard band
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(yaml.safe_dump({"converge": {"radial_dims": dims}}))
    code, _, err = run(["converge", "--config", str(cfg), "--out",
                        str(tmp_path)], capsys)
    assert code == 2
    assert "path=converge.radial_dims" in err
    assert not list(tmp_path.glob("*.csv"))


def test_converge_section_is_checked_by_converge_alone(tmp_path, capsys):
    # guard band 9 fits the configured 40x20 but not converge's 20x10
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("simulation: {guard_band: 9}\n")
    code, _, _ = run(["modes", "--config", str(cfg), "--out", str(tmp_path)],
                     capsys)
    assert code == 0
    code, _, err = run(["converge", "--config", str(cfg), "--out",
                        str(tmp_path / "converge")], capsys)
    assert_refused(code, err, "converge.radial_dims")
    assert "cannot hold guard band 9" in err


@pytest.mark.parametrize("command, path", [
    ("oscillate", "oscillation.n_initial"),
    ("converge", "state"),
])
def test_two_phonons_past_the_radial_levels_exit_code(tmp_path, capsys,
                                                      command, path):
    # 4x4 with the 2-level guard band keeps radial levels 0..1: too few for
    # the two phonons that oscillate and the default fock:2 state start from
    code, _, err = run([command, "--dims", "4x4", "--out", str(tmp_path)],
                       capsys)
    assert code == 2
    assert f"path={path}" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_one_phonon_oscillation_fits_the_radial_levels(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text("oscillation:\n  n_initial: 1\n  hold_points: 9\n")
    code, _, _ = run(["oscillate", "--dims", "4x4", "--config", str(cfg),
                      "--out", str(tmp_path)], capsys)
    assert code == 0


@pytest.mark.parametrize("trap", [
    {"omega_x_hz": 1.0e300, "omega_y_hz": 1.0e300},  # omega_x^2 overflows
    {"omega_z_hz": 1.0e-300},  # omega_z^2 underflows to 0
])
@pytest.mark.parametrize("command", ["modes", "oscillate"])
def test_trap_without_finite_mode_parameters_exit_code(tmp_path, capsys,
                                                       command, trap):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(yaml.safe_dump({"trap": trap}))
    code, _, err = run([command, "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 2
    assert "path=trap" in err
    assert len(err.strip().splitlines()) == 1
    assert not list(tmp_path.glob("*.csv"))


def test_convergence_flags_divergence_not_rounding():
    settings = ["coarse", "mid", "fine", "finest"]
    # a 1e-13 Hz wobble on a kHz observable is rounding, not divergence
    wobble = [2960.0 + 1e-9, 2960.0 + 2e-13, 2960.0 + 3e-13, 2960.0]
    rows = convergence_rows("step", "freq", settings, wobble)
    assert [r[5] for r in rows] == ["", "", "", ""]
    # a deviation that grows as the setting gets finer is flagged
    rows = convergence_rows("step", "freq", settings, [1.3, 1.1, 1.2, 1.0])
    assert [r[5] for r in rows] == ["", "", "non-monotone", ""]


def test_every_experiment_has_a_subcommand():
    from trilinear import cli, config

    assert config.EXPERIMENTS == tuple(cli.RUNNERS)


SMALL_RUNS = {
    "oscillate": "simulation:\n  radial_dim: 8\n  axial_dim: 4\n"
                 "oscillation:\n  hold_points: 33\n  hold_max_s: 1.5e-3\n",
    "converge": "simulation:\n  radial_dim: 10\n  axial_dim: 5\n"
                "converge:\n  radial_dims: [8, 10]\n  step_fractions: [1.0, 0.5]\n"
                "oscillation:\n  hold_max_s: 1.0e-3\n",
}


@pytest.mark.parametrize(
    "command", ["modes", "crossing", "parity", "wigner", "oscillate", "converge"])
def test_run_loads_no_scipy(tmp_path, command):
    # no module of the package needs scipy: with its import blocked, every
    # subcommand still runs and writes its table
    args = [command, "--out", str(tmp_path)]
    if command in ("parity", "wigner"):
        args += ["--dims", "8x4", "--exact"]
    if command in SMALL_RUNS:
        (tmp_path / "cfg.yaml").write_text(SMALL_RUNS[command])
        args += ["--config", str(tmp_path / "cfg.yaml")]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "import trilinear.cli\n"
        f"sys.exit(trilinear.cli.main({args!r}))\n"
    )
    src = Path(trilinear.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    table = "oscillation" if command == "oscillate" else command
    assert (tmp_path / f"{table}.csv").stat().st_size > 0


# ---------------------------------------------------------------------------
# config fuzzer

# values no field should accept or, where one does, should run: signed
# zeros, subnormals, the float range's ends, integers past every bound and
# past the float range, NaN and infinity spelled as numbers and as
# strings, digits other than ASCII, values of the wrong type, and YAML
# that PyYAML cannot build
# (each RAW_YAML key stands for its text, written into the file as it is;
# nesting past the stack takes a second to refuse, so only
# test_yaml_that_cannot_be_built_exit_code tries it)
RAW_YAML = {"RAWDIGITS": "1" + "0" * 5000, "RAWDATE": "2001-13-45",
            "RAWINT": "!!int 1.5", "RAWSTAMP": "!!timestamp x",
            "RAWALIAS": "*nowhere"}
HOSTILE_SCALARS = [0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308,
                   -1e308, 10 ** 12, 2 ** 63, -2 ** 63 - 1, 10 ** 400,
                   10 ** 4000, math.nan, math.inf, -math.inf, "nan", "NaN",
                   "-inf", "1e999", "", "abc", "0x10", "\u0663", "\uff18", "a\nb",
                   True, None, {"a": 1}, [], *RAW_YAML]
HOSTILE = st.sampled_from(HOSTILE_SCALARS) | st.lists(
    st.sampled_from(HOSTILE_SCALARS), min_size=1, max_size=3)
# keys that name no field
ODD_KEYS = st.sampled_from(["a\nb", "", 5, None, "grid.points", "ü"])
# each hostile value as the text of a flag, a RAW_YAML key as its raw text
HOSTILE_TEXT = st.sampled_from(HOSTILE_SCALARS).map(
    lambda v: RAW_YAML.get(v, v) if isinstance(v, str) else str(v))
# the flags that take a value, each with the config paths its text stands
# for and valid texts for them
FUZZ_FLAGS = {
    "--seed": {"measurement.seed": ["0", "7", "0x10"]},
    "--shots": {"measurement.shots": ["1", "50"]},
    "--dims": {"simulation.radial_dim": ["4", "8", "12"],
               "simulation.axial_dim": ["3", "4", "6"]},
}

# valid values of every config field, and some odd ones, each small enough
# to run in a fraction of a second: dims <= 12, grid points <= 9, holds <=
# 33, tau <= 2 ms and steps of at least 2 us or the default; FUZZ_SIZES,
# whose defaults make larger runs, are always set
FUZZ_VALID = {
    "experiment": st.none(),
    "trap.omega_x_hz": st.sampled_from([0.99e6, 1.1e6]),
    "trap.omega_y_hz": st.sampled_from([0.90e6, 0.95e6]),
    "trap.omega_z_hz": st.sampled_from([0.75e6, 0.7e6]),
    "simulation.radial_dim": st.sampled_from([4, 6, 8, 12]),
    "simulation.axial_dim": st.sampled_from([3, 4, 6]),
    "simulation.guard_band": st.sampled_from([0, 1, 2]),
    "simulation.parking_hz": st.sampled_from([35e3, 5e3, 1e-3]),
    "simulation.tau_slow_s": st.sampled_from([2e-3, 2e-4]),
    "simulation.tau_fast_s": st.sampled_from([20e-6, 5e-6]),
    "simulation.step_s": st.sampled_from([None, 2e-6, 1e-5]),
    "measurement.eta": st.sampled_from([0.86, 1.0, 1e-3]),
    "measurement.shots": st.sampled_from([1, 500]),
    "measurement.seed": st.sampled_from([0, 2 ** 63]),
    "state": st.sampled_from(["fock:0", "fock:1", "coherent:0.5",
                              "coherent:0.3+0.2j", "cat:0.8:pi/2:minus",
                              "fock:-1", "fock:1e3", "coherent:nan",
                              "coherent:1e308", "cat:1:pi/0:plus",
                              "cat:1:pi/nan:plus", "cat:0:pi:minus",
                              "dark:1", "fock", ""]),
    "grid.extent": st.sampled_from([3.0, 0.5, 1e-300]),
    "grid.points": st.sampled_from([2, 3, 9]),
    "oscillation.n_initial": st.sampled_from([1, 2]),
    "oscillation.hold_max_s": st.sampled_from([2e-3, 1e-4, 1e-300]),
    "oscillation.hold_points": st.sampled_from([8, 33]),
    "oscillation.envelope_tau_s": st.sampled_from([None, 1e-3, 1e-300]),
    "crossing.span_hz": st.sampled_from([20e3, 1e-3]),
    "crossing.points": st.sampled_from([3, 81]),
    "converge.radial_dims": st.sampled_from([[8, 12], [12], [8]]),
    "converge.step_fractions": st.sampled_from([[1.0], [1.0, 0.5]]),
    "exact": st.booleans(),
    # relative to the run's own directory; "taken" names a file
    "output": st.sampled_from(["out", "a/b c/ü", "new\nline", "taken",
                               "x" * 300, "nul\0byte", "."]),
}
FUZZ_SIZES = ["simulation.radial_dim", "simulation.axial_dim", "grid.points",
              "oscillation.hold_points", "converge.radial_dims",
              "converge.step_fractions"]


def config_paths() -> set[str]:
    """Every field of a config file, as section.field or a top-level name."""
    from trilinear.config import SECTIONS, RunConfig

    return {f"{f.name}.{g.name}" if f.name in SECTIONS else f.name
            for f in dataclasses.fields(RunConfig)
            for g in (dataclasses.fields(SECTIONS[f.name]) if f.name in SECTIONS
                      else [None])}


def exact_cells_are_finite(directory: Path) -> bool:
    """Whether every number in every table under `directory` is finite."""
    for table in directory.rglob("*.csv"):
        for row in csv.reader(read_data_rows(table)[1:]):
            for cell in row:
                try:
                    value = float(cell)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    return False
    return True


# Every subcommand on a config of valid, odd and hostile values must exit 0,
# 2 or 3, with one line on stderr when it refuses and no non-finite cell
# when it runs. The run is in-process, exact and on one core, so no example
# starts a thread or a process, and every config it accepts is small. Half
# the loaded profile's examples: 50 by default, 500 under
# `--hypothesis-profile=ci` (tests/conftest.py).
@settings(max_examples=settings.default.max_examples // 2, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(sorted(RUNNERS)), data=st.data())
def test_config_fuzzer_exits_typed(command, data):
    from trilinear.config import SECTIONS

    assert set(FUZZ_VALID) == config_paths()
    paths = sorted(FUZZ_VALID)
    config = {}

    def put(path, value):
        *section, key = path.split(".")
        target = config.setdefault(section[0], {}) if section else config
        if isinstance(target, dict):
            target[key] = value

    sizes = {path: FUZZ_VALID[path] for path in FUZZ_SIZES}
    others = {path: s for path, s in FUZZ_VALID.items() if path not in sizes}
    for path, value in data.draw(st.fixed_dictionaries(sizes, optional=others),
                                 label="valid").items():
        put(path, value)
    # half the examples stay valid; the others hold up to two hostile
    # values, in place of a field or of a whole section (not null, which is
    # the defaults, whose runs are not small), or a key that names no field
    mode = data.draw(st.integers(0, 3), label="mode")
    for path in data.draw(st.lists(st.sampled_from(paths + sorted(SECTIONS)),
                                   unique=True, min_size=1, max_size=2)
                          ) if mode == 2 else []:
        hostile = HOSTILE.filter(lambda v: v is not None) if path in SECTIONS else HOSTILE
        put(path, data.draw(hostile, label=path))
    if mode == 3:
        section = data.draw(st.sampled_from([None, *sorted(SECTIONS)]),
                            label="section")
        target = config if section is None else config.setdefault(section, {})
        target[data.draw(ODD_KEYS, label="odd key")] = 1
    if data.draw(st.booleans(), label="experiment names the command"):
        config.setdefault("experiment", command)
    # each flag absent, valid or hostile text: --dims joins two with an "x"
    flags, entries = [], {}
    for flag, texts in FUZZ_FLAGS.items():
        if data.draw(st.booleans(), label=f"{flag} given"):
            parts = [data.draw(st.sampled_from(valid) | HOSTILE_TEXT, label=path)
                     for path, valid in texts.items()]
            # `--seed=-5e-324`: argparse takes a separate "-5e-324" for an option
            flags.append(f"{flag}={'x'.join(parts)}")
            entries.update(zip(texts, parts))

    def readable(text):
        try:
            yaml.safe_load(text)
        except (yaml.YAMLError, ValueError, AttributeError, RecursionError):
            return False
        return True

    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "taken").write_text("")
        # every output path lies in the run's own directory
        output = config.setdefault("output", "out")
        if isinstance(output, str):
            config["output"] = os.path.join(tmp, output)

        def config_text(config):
            # in the dict's order, in which a flag's new entry comes last
            text = yaml.safe_dump(config, sort_keys=False)
            for key, raw in RAW_YAML.items():
                text = text.replace(key, raw)
            return text

        def run_config(config, flags):
            (Path(tmp) / "cfg.yaml").write_text(config_text(config), encoding="utf-8")
            out, err = io.StringIO(), io.StringIO()
            with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
                  mock.patch.object(dynamics, "_worker_count", lambda: 1)):
                code = main([command, "--config", os.path.join(tmp, "cfg.yaml"),
                             "--exact", *flags])
            tables = {t: read_data_rows(t) for t in Path(tmp).rglob("*.csv")}
            return code, out.getvalue(), err.getvalue(), tables

        code, out, err, tables = run_config(config, flags)
        event(f"exit {code}")
        assert code in (0, 2, 3), err
        assert len(err.splitlines()) == (code != 0), err
        assert "Traceback" not in err
        if code == 0:
            assert exact_cells_are_finite(Path(tmp))
        # a flag's text reads as the same text in the file: an --dims that
        # is not two texts joined by one "x" is refused at dims, a text that
        # YAML cannot build at the flag's path, and any other flags run as
        # the file holding what YAML reads from each text would
        dims = [text for path, text in entries.items() if path.startswith("simulation.")]
        unreadable = [path for path, text in entries.items() if not readable(text)]
        if dims and not all(text.strip() and "x" not in text.lower() for text in dims):
            event("flag: malformed --dims")
            assert code == 2 and "path=dims:" in err, err
        elif unreadable:
            event("flag: text YAML cannot build")
            assert code == 2 and f"kind=parse path={unreadable[0]}:" in err, err
        elif flags:
            event("flag: compared with the file")
            # YAML that cannot be built is refused before a flag is written in
            if readable(config_text(config)):
                for path, text in entries.items():
                    put(path, yaml.safe_load(text))
            assert run_config(config, []) == (code, out, err, tables)

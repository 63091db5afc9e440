"""CLI integration: exit codes, provenance headers, determinism."""

import csv
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
import yaml

import trilinear
from trilinear.cli import convergence_rows, main
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
    # the fit's uncertainty; the hold at delta = 0 is exact, so it is tiny
    err = float(next(l for l in out.splitlines()
                     if l.startswith("fitted_frequency_err_hz = ")).split("=")[1])
    assert 0 <= err < 1e-3 * fitted
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
    ("parity", "one stream via SeedSequence(seed)"),
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
        assert float(values["p1_sampled"]) == drawn(float(values["p1_exact"]))


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
    # modes run would build none either way
    args = ["modes", "--out", str(tmp_path)]
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
    # every subcommand validates the converge section, entry by entry with
    # the rule of a scalar field of the entry's type
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

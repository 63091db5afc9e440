"""CLI integration: exit codes, provenance headers, determinism."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import trilinear
from trilinear.cli import convergence_rows, main
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


@pytest.mark.parametrize("command", ["wigner", "parity"])
def test_sweep_steps_reported(tmp_path, capsys, command):
    # stdout gives the grid the sweep marched: its size and extreme steps
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(SMALL_WIGNER)
    code, out, _ = run([command, "--config", str(cfg), "--out", str(tmp_path)],
                       capsys)
    assert code == 0
    sched = rc_ramp(TWO_PI * 35e3, -TWO_PI * 35e3, 2e-3)
    _, dts, _ = piecewise_deltas(sched, 0.0, sched.duration,
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


def test_converge_report(tmp_path, capsys):
    cfg = tmp_path / "cfg.yaml"
    cfg.write_text(
        "simulation:\n  radial_dim: 10\n  axial_dim: 5\n"
        "converge:\n  radial_dims: [8, 10]\n  step_fractions: [1.0, 0.5]\n"
        "oscillation:\n  hold_max_s: 1.0e-3\n"
    )
    code, out, _ = run(["converge", "--config", str(cfg), "--out",
                        str(tmp_path)], capsys)
    assert code == 0
    rows = read_data_rows(tmp_path / "converge.csv")
    assert rows[0] == "kind,setting,observable,value,delta_vs_finest,flag"
    table = [r.split(",") for r in rows[1:]]
    observables = {r[2] for r in table}
    assert {"wigner_origin", "gap_hz", "sweep_infidelity",
            "oscillation_freq_hz"} <= observables
    # the gap is truncation-independent: deltas vs finest are exactly zero
    gap_rows = [r for r in table if r[2] == "gap_hz"]
    assert all(float(r[4]) == 0.0 for r in gap_rows)
    # step-halving infidelity stays inside the convergence contract
    inf_rows = [r for r in table if r[2] == "sweep_infidelity"]
    assert all(float(r[3]) < 1e-8 for r in inf_rows)


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


def test_convergence_flags_divergence_not_rounding():
    settings = ["coarse", "mid", "fine", "finest"]
    # a 1e-13 Hz wobble on a kHz observable is rounding, not divergence
    wobble = [2960.0 + 1e-9, 2960.0 + 2e-13, 2960.0 + 3e-13, 2960.0]
    rows = convergence_rows("step", "freq", settings, wobble)
    assert [r[5] for r in rows] == ["", "", "", ""]
    # a deviation that grows as the setting gets finer is flagged
    rows = convergence_rows("step", "freq", settings, [1.3, 1.1, 1.2, 1.0])
    assert [r[5] for r in rows] == ["", "", "non-monotone", ""]


def test_wigner_run_loads_no_scipy(tmp_path):
    # scipy serves only the oscillation fit and the closed-form oracle; a
    # Wigner run must not pay its import time and memory
    script = (
        "import sys\n"
        "import trilinear.cli\n"
        "code = trilinear.cli.main(['wigner', '--dims', '8x4', '--exact', "
        f"'--out', {str(tmp_path)!r}])\n"
        "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = Path(trilinear.__file__).resolve().parents[1]
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, timeout=300, env={**os.environ, "PYTHONPATH": str(src)})
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "0 []"
    assert (tmp_path / "wigner.csv").exists()

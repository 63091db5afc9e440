"""Workload definitions, accuracy references and output checks.

Each workload is one `trilinear` subcommand with a fixed configuration;
the benchmark seed becomes the CLI's `--seed`, which drives the sampled
columns and nothing else.

Accuracy references are computed outside the timed region and depend only
on the sources, so the runner caches them per source hash:

- the Wigner oracle, `trilinear.wigner_oracle` on every grid point;
- the step-halving reference, a CLI run of the same workload with
  `simulation.step_s` set to half the default step, on a 21 x 21 subgrid
  (Wigner) or on every 40th hold (oscillation).
"""

from __future__ import annotations

import copy
import csv
import io
import math
import warnings
from dataclasses import dataclass

import numpy as np

WIGNER_COLUMNS = ["re_alpha", "im_alpha", "p1_exact", "p1_sampled", "parity",
                  "wigner", "stderr", "flags"]
WIGNER_EXACT = ["re_alpha", "im_alpha", "p1_exact", "flags"]
OSC_COLUMNS = ["t_ms", "p_radial", "p_axial", "p_radial_sampled",
               "p_axial_sampled"]
OSC_EXACT = ["t_ms", "p_radial", "p_axial"]

# acceptance criterion 5: |W - oracle| on the grid
ORACLE_TOLERANCE = 0.01
# acceptance criterion 2: fitted conversion frequency vs 2 sqrt(2) xi
FIT_TOLERANCE = 0.005
# The hold is exact at delta = 0, so the fitted frequency matches 2 sqrt(2) xi
# to rounding; the fit resolves it to about this, and smaller deviations
# read as this floor rather than as rounding noise.
FIT_RESOLUTION = 1e-9
SUBGRID_POINTS = 21
HOLD_STRIDE = 40


@dataclass(frozen=True)
class Workload:
    name: str
    command: str
    config: dict  # handed to --config as YAML; empty means the CLI defaults
    why: str

    @property
    def csv_name(self) -> str:
        return "wigner.csv" if self.command == "wigner" else "oscillation.csv"


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "wigner-ref", "wigner", {},
            "the paper's headline scan at the defaults (fock:2, 40x20, "
            "41x41 grid); the detuning sweep dominates",
        ),
        Workload(
            "wigner-dense", "wigner",
            {"state": "cat:1.0:pi:plus",
             "simulation": {"radial_dim": 16, "axial_dim": 8},
             "grid": {"extent": 1.5, "points": 101}},
            "10201-point cat grid on 16x8: per-point displacement, readout "
            "and sampling dominate; the sweep is cheap",
        ),
        Workload(
            "oscillate-holds", "oscillate",
            {"oscillation": {"hold_max_s": 4.0e-3, "hold_points": 8001}},
            "8001 holds through two short K=2 propagators: applying the "
            "sweep and reading out per hold dominate; no scan runs",
        ),
    )
}


def load_config(config: dict):
    import yaml
    from trilinear.config import RunConfig, parse_config, validate_config

    cfg = parse_config(yaml.safe_dump(config)) if config else RunConfig()
    validate_config(cfg)
    return cfg


def _grid(extent: float, points: int) -> np.ndarray:
    axis = np.linspace(-extent, extent, points)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    return np.column_stack([re.ravel(), im.ravel()])


def _subgrid(points: int) -> np.ndarray:
    axis = np.linspace(0, points - 1, SUBGRID_POINTS).round().astype(int)
    return (axis[:, None] * points + axis[None, :]).ravel()


# ---------------------------------------------------------------------------
# references


def halved_step_config(workload: Workload) -> dict:
    """The workload's configuration at half the default step, on the subgrid
    or hold subset that the step-halving figure compares."""
    from trilinear import YB171, default_step, mode_params, rc_ramp

    cfg = load_config(workload.config)
    xi = mode_params(YB171, cfg.to_trap()).xi
    sim = cfg.simulation
    half = copy.deepcopy(workload.config)
    if workload.command == "wigner":
        schedule = rc_ramp(cfg.parking, -cfg.parking, sim.tau_slow_s)
        if (cfg.grid.points - 1) % (SUBGRID_POINTS - 1):
            raise ValueError("the subgrid must fall on grid points")
        half["grid"] = {"extent": cfg.grid.extent, "points": SUBGRID_POINTS}
    else:
        schedule = rc_ramp(cfg.parking, 0.0, sim.tau_fast_s)
        o = cfg.oscillation
        if (o.hold_points - 1) % HOLD_STRIDE:
            raise ValueError("the hold subset must fall on configured holds")
        half["oscillation"] = dict(half.get("oscillation", {}),
                                   hold_points=(o.hold_points - 1) // HOLD_STRIDE + 1)
    step = sim.step_s or default_step(xi, schedule)
    half["simulation"] = dict(half.get("simulation", {}), step_s=step / 2)
    return half


def compute_reference(workload: Workload, halved_csv: str) -> dict:
    """Reference values for check(); halved_csv is the output of the CLI
    run on halved_step_config(workload)."""
    from trilinear import YB171, mode_params, wigner_oracle
    from trilinear.config import build_radial_state, parse_descriptor

    cfg = load_config(workload.config)
    rows = _table(halved_csv, WIGNER_COLUMNS if workload.command == "wigner"
                  else OSC_COLUMNS)
    if rows is None:
        raise ValueError("the halved-step run wrote a CSV with the wrong schema")
    if workload.command == "wigner":
        state = build_radial_state(parse_descriptor(cfg.state),
                                   cfg.to_space().radial)
        grid = _grid(cfg.grid.extent, cfg.grid.points)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # guard-band warnings at the rim
            oracle = [wigner_oracle(state, complex(*a)) for a in grid]
        sub = _subgrid(cfg.grid.points)
        half = np.array([[float(x) for x in r[:3]] for r in rows])
        if np.abs(half[:, :2] - grid[sub]).max() > 1e-9:
            raise ValueError("halved-step grid does not match the subgrid")
        return {"grid": grid.tolist(), "oracle": oracle, "subgrid": sub.tolist(),
                "half_p1": half[:, 2].tolist(), "eta": cfg.measurement.eta}
    o = cfg.oscillation
    half = np.array([[float(x) for x in r[:3]] for r in rows])
    holds_ms = np.linspace(0.0, o.hold_max_s * 1e3, o.hold_points)
    if np.abs(half[:, 0] - holds_ms[::HOLD_STRIDE]).max() > 1e-9:
        raise ValueError("halved-step holds do not match the hold subset")
    return {"holds_ms": holds_ms.tolist(), "half": half[:, 1:].tolist(),
            "predicted_hz": mode_params(YB171, cfg.to_trap()).conversion_rate
            / (2 * math.pi)}


# ---------------------------------------------------------------------------
# checks of one run's output


@dataclass
class Checked:
    reason: str  # empty when the run passed
    data_rows: str = ""  # CSV lines below the header, for identity checks
    exact_rows: str = ""  # the seed-independent columns only
    oracle_err: float = math.nan
    step_halving_err: float = math.nan
    flags: tuple[int, int] = (0, 0)  # points flagged leak, diabatic


def _data_lines(text: str) -> list[str]:
    return [ln for ln in text.splitlines() if not ln.startswith("#")]


def _table(text: str, columns: list[str]) -> list[list[str]] | None:
    lines = _data_lines(text)
    if not lines or lines[0] != ",".join(columns):
        return None
    rows = list(csv.reader(io.StringIO("\n".join(lines[1:]))))
    if any(len(r) != len(columns) for r in rows):
        return None
    return rows


def _project(rows, columns, keep) -> str:
    idx = [columns.index(c) for c in keep]
    return "\n".join(",".join(r[i] for i in idx) for r in rows)


def check(workload: Workload, csv_text: str, stdout: str, ref: dict) -> Checked:
    if workload.command == "wigner":
        return _check_wigner(csv_text, ref)
    return _check_oscillation(csv_text, stdout, ref)


def _check_wigner(csv_text: str, ref: dict) -> Checked:
    rows = _table(csv_text, WIGNER_COLUMNS)
    if rows is None:
        return Checked("wigner.csv header or row width is wrong")
    grid = np.array(ref["grid"])
    if len(rows) != len(grid):
        return Checked(f"{len(rows)} rows, expected {len(grid)}")
    values = np.array([[float(x) for x in r[:3]] for r in rows])
    if np.abs(values[:, :2] - grid).max() > 1e-9:
        return Checked("grid coordinates differ from the configured grid")
    eta = ref["eta"]
    w_exact = 2 / math.pi * (1 - 2 * values[:, 2] / eta)
    w_half = 2 / math.pi * (1 - 2 * np.array(ref["half_p1"]) / eta)
    oracle_err = float(np.abs(w_exact - np.array(ref["oracle"])).max())
    flags = [set(r[7].split(";")) for r in rows]
    return Checked(
        "" if oracle_err <= ORACLE_TOLERANCE
        else f"oracle error {oracle_err:.3g} > {ORACLE_TOLERANCE}",
        data_rows="\n".join(_data_lines(csv_text)[1:]),
        exact_rows=_project(rows, WIGNER_COLUMNS, WIGNER_EXACT),
        oracle_err=oracle_err,
        step_halving_err=float(np.abs(w_exact[ref["subgrid"]] - w_half).max()),
        flags=(sum("leak" in f for f in flags), sum("diabatic" in f for f in flags)),
    )


def _fit_frequency(t: np.ndarray, y: np.ndarray) -> float:
    """Cosine least-squares fit seeded from the FFT peak; returns Hz, or
    nan when no start phase converges."""
    from scipy.optimize import curve_fit

    def model(tt, c, a, f, phi):
        return c + a * np.cos(2 * np.pi * f * tt + phi)

    yc = y - y.mean()
    freqs = np.fft.rfftfreq(t.size, d=t[1] - t[0])
    f0 = freqs[np.argmax(np.abs(np.fft.rfft(yc))[1:]) + 1]
    best = (math.inf, math.nan)
    for phi0 in (0.0, math.pi / 2, math.pi, 3 * math.pi / 2):
        try:
            popt, _ = curve_fit(model, t, y,
                                p0=[y.mean(), yc.std() * math.sqrt(2), f0, phi0],
                                maxfev=20000, xtol=1e-14, ftol=1e-14)
        except RuntimeError:
            continue
        resid = float(np.sum((model(t, *popt) - y) ** 2))
        if resid < best[0]:
            best = (resid, float(popt[2]))
    return best[1]


def _check_oscillation(csv_text: str, stdout: str, ref: dict) -> Checked:
    rows = _table(csv_text, OSC_COLUMNS)
    if rows is None:
        return Checked("oscillation.csv header or row width is wrong")
    holds_ms = np.array(ref["holds_ms"])
    if len(rows) != len(holds_ms):
        return Checked(f"{len(rows)} rows, expected {len(holds_ms)}")
    values = np.array([[float(x) for x in r[:3]] for r in rows])
    if np.abs(values[:, 0] - holds_ms).max() > 1e-9:
        return Checked("hold times differ from the configured holds")
    predicted = ref["predicted_hz"]
    fitted = _fit_frequency(values[:, 0] * 1e-3, values[:, 2])
    reported = math.nan  # the CLI prints "nan" when its fit did not converge
    for line in stdout.splitlines():
        if line.startswith("fitted_frequency_hz = "):
            reported = float(line.split("=", 1)[1].split()[0])
    reason = ""
    for label, f in (("reported", reported), ("refitted", fitted)):
        if not abs(f / predicted - 1) <= FIT_TOLERANCE:
            reason = (f"{label} frequency {f:.6g} Hz is not within "
                      f"{FIT_TOLERANCE:.1%} of 2 sqrt(2) xi = {predicted:.6g} Hz")
    return Checked(
        reason,
        data_rows="\n".join(_data_lines(csv_text)[1:]),
        exact_rows=_project(rows, OSC_COLUMNS, OSC_EXACT),
        oracle_err=max(abs(fitted / predicted - 1), FIT_RESOLUTION),
        step_halving_err=float(np.abs(
            values[::HOLD_STRIDE, 1:] - np.array(ref["half"])).max()),
    )

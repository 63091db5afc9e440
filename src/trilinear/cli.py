"""Configuration-driven experiment runner.

One subcommand per experiment; every run writes CSV artifacts topped with a
provenance comment header (config hash, tool version, seed, truncation,
frame note). Identical configuration and seed reproduce the data rows
byte for byte.

Exit codes: 0 success, 2 configuration error, 3 numerical-contract
violation (truncation leak, step policy).
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ConfigValueError,
    RunConfig,
    build_radial_state,
    config_hash,
    parse_config,
    parse_descriptor,
)
from .dynamics import default_step, rc_ramp, sweep_unitaries
from .errors import NumericalContractError, StepPolicyError
from .fock import fock_state
from .protocols import (
    MeasurementModel,
    adiabatic_parity,
    avoided_crossing_spectrum,
    oscillation_experiment,
    phase_space_grid,
    spectrum_to_csv,
    wigner_scan,
)
from .report import write_csv
from .trap import YB171, mode_params

TWO_PI = 2 * math.pi


def provenance(cfg: RunConfig, experiment: str) -> list[str]:
    s = cfg.simulation
    return [
        f"trilinear {__version__}",
        f"experiment: {experiment}",
        f"config-sha256: {config_hash(cfg)}",
        f"seed: {cfg.measurement.seed} rng: PCG64, per-point streams via "
        "SeedSequence(seed, point_index)",
        f"truncation: radial {s.radial_dim} guard {s.guard_band}, "
        f"axial {s.axial_dim} guard {s.guard_band}",
        "frame: interaction frame at omega_r (radial) and 2 omega_r (axial); "
        "H/hbar = delta*n_c + xi*(a^dag^2 c + a^2 c^dag); "
        "frequencies reported as /2pi values in Hz",
        f"timestamp: {datetime.now(timezone.utc).isoformat()}",
    ]


def _model(cfg: RunConfig) -> MeasurementModel:
    m = cfg.measurement
    return MeasurementModel(eta=m.eta, shots=m.shots, seed=m.seed)


def _slow_schedule(cfg: RunConfig):
    return rc_ramp(cfg.parking, -cfg.parking, cfg.simulation.tau_slow_s)


def _print_sweep_steps(dts: np.ndarray) -> None:
    """The sweep's step count and its shortest and longest step."""
    print(f"sweep_steps = {dts.size} "
          f"({dts.min() * 1e6:.3g}..{dts.max() * 1e6:.3g} us)")


def run_modes(cfg: RunConfig, out: Path) -> None:
    p = mode_params(YB171, cfg.to_trap())
    report = {
        "omega_s_hz": p.omega_s / TWO_PI,
        "omega_r_hz": p.omega_r / TWO_PI,
        "z0_m": p.z0,
        "xi_hz": p.xi / TWO_PI,
        "conversion_2sqrt2xi_hz": p.conversion_rate / TWO_PI,
        "delta_bare_hz": p.delta / TWO_PI,
        "parking_hz": cfg.simulation.parking_hz,
    }
    for key, value in report.items():
        print(f"{key} = {value:.6g}")
    write_csv(
        out / "modes.csv",
        list(report.keys()),
        [list(report.values())],
        provenance(cfg, "modes"),
    )


def run_oscillate(cfg: RunConfig, out: Path) -> None:
    p = mode_params(YB171, cfg.to_trap())
    o = cfg.oscillation
    holds = np.linspace(0.0, o.hold_max_s, o.hold_points)
    result = oscillation_experiment(
        o.n_initial,
        holds,
        p,
        _model(cfg),
        envelope_tau=o.envelope_tau_s,
        space=cfg.to_space(),
        parking=cfg.parking,
        tau_fast=cfg.simulation.tau_fast_s,
        step=cfg.simulation.step_s,
    )
    result.to_csv(out / "oscillation.csv", provenance(cfg, "oscillate"))
    if result.fit_ok:
        print(f"fitted_frequency_hz = {result.fit_frequency / TWO_PI:.6g}")
    else:
        print("fitted_frequency_hz = nan (fit did not converge)")
    print(f"fitted_frequency_err_hz = {result.fit_frequency_err / TWO_PI:.3g}")
    print(f"predicted_frequency_hz = {p.conversion_rate / TWO_PI:.6g}")


def run_crossing(cfg: RunConfig, out: Path) -> None:
    p = mode_params(YB171, cfg.to_trap())
    half = TWO_PI * cfg.crossing.span_hz / 2
    deltas = np.linspace(-half, half, cfg.crossing.points)
    spec = avoided_crossing_spectrum(deltas, p.xi)
    spectrum_to_csv(spec, out / "crossing.csv", provenance(cfg, "crossing"))
    print(f"min_gap_hz = {spec.min_gap / TWO_PI:.6g}")
    print(f"min_gap_delta_hz = {spec.min_gap_delta / TWO_PI:.6g}")


def run_parity(cfg: RunConfig, out: Path) -> None:
    p = mode_params(YB171, cfg.to_trap())
    space = cfg.to_space()
    state = build_radial_state(parse_descriptor(cfg.state), space.radial)
    res = adiabatic_parity(
        state, p.xi, space, _slow_schedule(cfg), _model(cfg),
        step=cfg.simulation.step_s,
    )
    rows = [
        ("state", cfg.state),
        ("p_phonon", res.p_phonon),
        ("p1_exact", res.exact.p1),
        ("p1_sampled", res.sampled.p1),
        ("parity_exact", res.exact.parity),
        ("parity_sampled", res.sampled.parity),
        ("stderr", res.sampled.stderr),
        ("readout_bias", res.readout_bias),
        ("flags", ";".join(res.flags)),
    ]
    rows += [
        (f"axial_p{n}", prob) for n, prob in enumerate(res.axial_distribution)
    ]
    write_csv(out / "parity.csv", ["key", "value"], rows, provenance(cfg, "parity"))
    parity = res.exact.parity if cfg.exact else res.sampled.parity
    print(f"parity = {parity:.6g}")
    print(f"max_readout_bias = {abs(res.readout_bias):.3g}")
    _print_sweep_steps(res.sweep_dts)


def run_wigner(cfg: RunConfig, out: Path) -> None:
    p = mode_params(YB171, cfg.to_trap())
    space = cfg.to_space()
    state = build_radial_state(parse_descriptor(cfg.state), space.radial)
    grid = phase_space_grid(cfg.grid.extent, cfg.grid.points)
    scan = wigner_scan(
        state, grid, p.xi, space, _slow_schedule(cfg), _model(cfg),
        exact=cfg.exact, step=cfg.simulation.step_s,
        meta={"state": cfg.state},
    )
    scan.to_csv(out / "wigner.csv", provenance(cfg, "wigner"))
    origin = int(np.argmin(np.abs(scan.alphas)))
    print(f"wigner_at_origin = {scan.wigner[origin]:.6g}")
    print(f"negative_points = {int(np.sum(scan.wigner < 0))} / {scan.wigner.size}")
    flags = [set(f.split(";")) for f in scan.flags]
    print(f"flagged_points = leak {sum('leak' in f for f in flags)}, "
          f"diabatic {sum('diabatic' in f for f in flags)} of {len(flags)}")
    print(f"max_readout_bias = {np.abs(scan.readout_bias).max():.3g}")
    _print_sweep_steps(scan.sweep_dts)
    # odd sectors without a guard-band state read out exactly unswept
    print("sweep_sectors = {} of {}".format(*scan.sweep_sectors))


def run_converge(cfg: RunConfig, out: Path) -> None:
    rows = convergence_report(cfg)
    write_csv(
        out / "converge.csv",
        ["kind", "setting", "observable", "value", "delta_vs_finest", "flag"],
        rows,
        provenance(cfg, "converge"),
    )
    for row in rows:
        print(",".join(str(v) for v in row))


# relative size, against max(1, |finest value|), of a rise in the deviation
# from the finest setting that counts as rounding rather than divergence
CONVERGENCE_ROUNDING_FLOOR = 1e-12


def convergence_rows(kind: str, observable: str, settings, values) -> list[tuple]:
    """Rows of one convergence group, ordered coarse to fine: each value, its
    deviation from the finest (last) one, and a `non-monotone` flag where
    that deviation rises above the previous setting's by more than rounding."""
    finest = values[-1]
    floor = CONVERGENCE_ROUNDING_FLOOR * max(1.0, abs(finest))
    deltas = [abs(v - finest) for v in values]
    rows = []
    for i, (setting, value) in enumerate(zip(settings, values)):
        rising = 0 < i < len(deltas) - 1 and deltas[i] - deltas[i - 1] > floor
        rows.append((kind, setting, observable, value, deltas[i],
                     "non-monotone" if rising else ""))
    return rows


def convergence_report(cfg: RunConfig) -> list[tuple]:
    """Truncation and step sweeps for the configured state.

    Reports, per setting, the key observable and its deviation from the
    finest setting; non-monotone convergence is flagged.
    """
    from .fock import FockDim, TwoModeSpace, embed_radial

    p = mode_params(YB171, cfg.to_trap())
    model = _model(cfg)
    spec = parse_descriptor(cfg.state)
    schedule = _slow_schedule(cfg)
    rows: list[tuple] = []

    # truncation sweep: Wigner at the origin through the full protocol
    dims = [int(d) for d in cfg.converge.radial_dims]
    w0 = []
    for d in dims:
        space = TwoModeSpace(
            FockDim(d, cfg.simulation.guard_band),
            FockDim(cfg.converge.axial_dim(d), cfg.simulation.guard_band),
        )
        state = build_radial_state(spec, space.radial)
        scan = wigner_scan(
            state, np.array([0j]), p.xi, space, schedule, model, exact=True,
            step=cfg.simulation.step_s,
        )
        w0.append(float(scan.wigner[0]))
    rows += convergence_rows("truncation", "wigner_origin",
                             [f"{d}x{cfg.converge.axial_dim(d)}" for d in dims],
                             w0)

    # truncation sweep: the two-phonon gap (exactly dimension-independent,
    # the sector closes at two basis states)
    gap_hz = avoided_crossing_spectrum(
        np.array([-p.xi, 0.0, p.xi]), p.xi
    ).min_gap / TWO_PI
    rows += convergence_rows("truncation", "gap_hz", [str(d) for d in dims],
                             [gap_hz for _ in dims])

    # step sweep: sweep-propagation fidelity and oscillation frequency
    space = cfg.to_space()
    base_step = cfg.simulation.step_s or default_step(p.xi, schedule)
    fractions = [float(f) for f in cfg.converge.step_fractions]
    finals = []
    freqs = []
    psi0 = embed_radial(fock_state(space.radial, 2), space)
    for frac in fractions:
        sweep = sweep_unitaries(space, p.xi, schedule, base_step * frac,
                                sector_ks=[2])
        finals.append(sweep.apply(psi0))
        osc = oscillation_experiment(
            2, np.linspace(0, cfg.oscillation.hold_max_s, 33), p, model,
            space=space, parking=cfg.parking,
            tau_fast=cfg.simulation.tau_fast_s,
            step=cfg.simulation.tau_fast_s / 50 * frac,
        )
        freqs.append(osc.fit_frequency / TWO_PI)
    settings = [f"{base_step * fr:.3e}" for fr in fractions]
    rows += convergence_rows("step", "sweep_infidelity", settings,
                             [1.0 - f.fidelity(finals[-1]) for f in finals])
    rows += convergence_rows("step", "oscillation_freq_hz", settings, freqs)
    return rows


RUNNERS = {
    "modes": run_modes,
    "oscillate": run_oscillate,
    "crossing": run_crossing,
    "parity": run_parity,
    "wigner": run_wigner,
    "converge": run_converge,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilinear",
        description="Two-ion trilinear phonon system: experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        s = sub.add_parser(name, help=f"run the {name} experiment")
        s.add_argument("--config", type=Path, help="YAML run configuration")
        s.add_argument("--out", type=Path, help="output directory")
        s.add_argument("--seed", type=int, help="override the RNG seed")
        s.add_argument("--shots", type=int, help="override the shot count")
        s.add_argument("--exact", action="store_true",
                       help="infinite-shot mode (exact probabilities)")
        s.add_argument("--dims", help="override truncation dims, e.g. 40x20")
    return parser


def _apply_overrides(cfg: RunConfig, args) -> RunConfig:
    if cfg.experiment is not None and cfg.experiment != args.command:
        raise ConfigValueError(
            "experiment",
            f"config names {cfg.experiment!r} but the {args.command!r} "
            "subcommand was invoked",
        )
    updates = {"experiment": args.command}
    m_updates = {}
    if args.seed is not None:
        m_updates["seed"] = args.seed
    if args.shots is not None:
        if args.shots < 1:
            raise ConfigValueError("shots", "shots must be >= 1")
        m_updates["shots"] = args.shots
    if m_updates:
        updates["measurement"] = dataclasses.replace(cfg.measurement, **m_updates)
    if args.exact:
        updates["exact"] = True
    if args.dims:
        try:
            r, a = (int(tok) for tok in str(args.dims).lower().split("x"))
        except ValueError:
            raise ConfigValueError(
                "dims", f"expected RxA (e.g. 40x20), got {args.dims!r}"
            ) from None
        updates["simulation"] = dataclasses.replace(
            cfg.simulation, radial_dim=r, axial_dim=a
        )
    if args.out is not None:
        updates["output"] = str(args.out)
    cfg = dataclasses.replace(cfg, **updates)
    from .config import validate_config

    validate_config(cfg)
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.config is not None:
            cfg = parse_config(Path(args.config).read_text())
        else:
            cfg = RunConfig()
        cfg = _apply_overrides(cfg, args)
        out = Path(cfg.output)
        out.mkdir(parents=True, exist_ok=True)
        RUNNERS[args.command](cfg, out)
    except ConfigError as e:
        print(e, file=sys.stderr)
        return 2
    except FileNotFoundError as e:
        print(f"config-error kind=io path={e.filename}: {e}", file=sys.stderr)
        return 2
    except (NumericalContractError, StepPolicyError) as e:
        print(f"numerical-contract violation: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Configuration-driven experiment runner.

One subcommand per experiment; every run writes CSV artifacts topped with a
provenance comment header (config hash, tool version, seed, truncation,
frame note). Identical configuration and seed reproduce the data rows
byte for byte.

Exit codes: 0 success, 2 configuration error (an unreadable config file
or output directory included), 3 numerical-contract violation (the step
policy, or a sweep that breaks its norm contract).
"""

from __future__ import annotations

import argparse
import functools
import math
import re
import sys
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from . import __version__
from .config import (
    ConfigError,
    ConfigIOError,
    ConfigParseError,
    ConfigValueError,
    RunConfig,
    build_config,
    build_radial_state,
    config_hash,
    parse_descriptor,
    read_yaml,
)
from .dynamics import default_step, sweep_unitaries
from .errors import NumericalContractError, StepPolicyError
from .fock import FockDim, TwoModeSpace
from .protocols import (
    AMPLITUDE_FLOOR,
    STREAMS,
    MeasurementModel,
    avoided_crossing_spectrum,
    axial_distribution,
    oscillation_experiment,
    phase_space_grid,
    scan_sweep,
    slow_sweep,
    spectrum_to_csv,
    wigner_scan,
)
from .report import format_column, write_csv
from .trap import YB171, mode_params

TWO_PI = 2 * math.pi


def provenance(cfg: RunConfig, experiment: str) -> list[str]:
    s = cfg.simulation
    return [
        f"trilinear {__version__}",
        f"experiment: {experiment}",
        f"config-sha256: {config_hash(cfg)}",
        f"seed: {cfg.measurement.seed} rng: PCG64, "
        + STREAMS.get(experiment, "no shots drawn"),
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
        list(report),
        [[value] for value in report.values()],
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
    # the parity is the Wigner scan at the origin, <P> = (pi/2) W(0); its
    # sweep also covers the odd populated sectors, which the axial
    # distribution reads
    p = mode_params(YB171, cfg.to_trap())
    space = cfg.to_space()
    state = build_radial_state(parse_descriptor(cfg.state), space.radial)
    schedule = slow_sweep(cfg.parking, cfg.simulation.tau_slow_s)
    model = _model(cfg)
    sweep = sweep_unitaries(
        space, p.xi, schedule, cfg.simulation.step_s,
        sector_ks=np.flatnonzero(np.abs(state.amplitudes) > AMPLITUDE_FLOOR))
    scan = wigner_scan(state, [0j], sweep, model)
    axial = axial_distribution(state, sweep)
    p1, p1_hat = scan.p1_exact[0], scan.p1_sampled[0]
    parity_exact = 1.0 - 2.0 * p1 / model.eta
    # the scan's W figures times pi/2 are parity figures
    stderr, bias = math.pi / 2 * scan.stderr[0], math.pi / 2 * scan.readout_bias[0]
    keys = ["state", "p_phonon", "p1_exact", "p1_sampled", "parity_exact",
            "parity_sampled", "stderr", "readout_bias", "flags"]
    keys += [f"axial_p{n}" for n in range(axial.size)]
    values = [
        cfg.state,
        *format_column([p1 / model.eta, p1, p1_hat, parity_exact,
                        scan.parity[0], stderr, bias]),
        scan.flags[0],
        *format_column(axial),
    ]
    write_csv(out / "parity.csv", ["key", "value"], [keys, values],
              provenance(cfg, "parity"))
    parity = parity_exact if cfg.exact else scan.parity[0]
    print(f"parity = {parity:.6g}")
    print(f"max_readout_bias = {abs(bias):.3g}")
    _print_sweep_steps(sweep.dts)


def run_wigner(cfg: RunConfig, out: Path) -> None:
    p = mode_params(YB171, cfg.to_trap())
    space = cfg.to_space()
    state = build_radial_state(parse_descriptor(cfg.state), space.radial)
    grid = phase_space_grid(cfg.grid.extent, cfg.grid.points)
    sweep = scan_sweep(state, grid, p.xi, space,
                       slow_sweep(cfg.parking, cfg.simulation.tau_slow_s),
                       cfg.simulation.step_s)
    scan = wigner_scan(state, grid, sweep, _model(cfg), exact=cfg.exact)
    scan.to_csv(out / "wigner.csv", provenance(cfg, "wigner"))
    origin = int(np.argmin(np.abs(scan.alphas)))
    print(f"wigner_at_origin = {scan.wigner[origin]:.6g}")
    print(f"negative_points = {int(np.sum(scan.wigner < 0))} / {scan.wigner.size}")
    print(f"flagged_points = leak {int(scan.leak.sum())}, "
          f"diabatic {int(scan.diabatic.sum())} of {scan.alphas.size}")
    print(f"max_readout_bias = {np.abs(scan.readout_bias).max():.3g}")
    _print_sweep_steps(sweep.dts)
    # odd sectors without a guard-band state read out exactly unswept
    print("sweep_sectors = {} of {}".format(*scan.sweep_sectors))


def run_converge(cfg: RunConfig, out: Path) -> None:
    rows = convergence_report(cfg)
    write_csv(
        out / "converge.csv",
        ["kind", "setting", "observable", "value", "delta_vs_finest", "flag"],
        list(zip(*rows)),
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
    """Truncation and step sweeps of the configured state's W(0).

    Both groups read W(0) through the exact Wigner scan: the truncation
    group once per `converge.radial_dims` at the configured step, the step
    group once per `converge.step_fractions` on the configured space. A
    setting both groups share, such as the configured space at the
    configured step, is scanned once. Each row gives the value and its
    deviation from the finest setting; non-monotone convergence is flagged.
    """
    p = mode_params(YB171, cfg.to_trap())
    model = _model(cfg)
    spec = parse_descriptor(cfg.state)
    schedule = slow_sweep(cfg.parking, cfg.simulation.tau_slow_s)
    c = cfg.converge

    @functools.cache
    def wigner_origin(space: TwoModeSpace, step: float) -> float:
        state = build_radial_state(spec, space.radial)
        sweep = scan_sweep(state, [0j], p.xi, space, schedule, step)
        return float(wigner_scan(state, [0j], sweep, model, exact=True).wigner[0])

    # the configured space first: a state it cannot hold is refused before
    # the truncation sweep runs
    base_step = cfg.simulation.step_s or default_step(p.xi, schedule)
    steps = [base_step * fr for fr in c.step_fractions]
    by_step = [wigner_origin(cfg.to_space(), step) for step in steps]
    g = cfg.simulation.guard_band
    by_dim = [wigner_origin(TwoModeSpace(FockDim(d, g), FockDim(c.axial_dim(d), g)),
                            base_step)
              for d in c.radial_dims]
    return (convergence_rows("truncation", "wigner_origin",
                             [f"{d}x{c.axial_dim(d)}" for d in c.radial_dims],
                             by_dim)
            + convergence_rows("step", "wigner_origin",
                               [f"{step:.3e}" for step in steps], by_step))


RUNNERS = {
    "modes": run_modes,
    "oscillate": run_oscillate,
    "crossing": run_crossing,
    "parity": run_parity,
    "wigner": run_wigner,
    "converge": run_converge,
}


# the flags that take a value, with their help; _run_config reads each
# value, so a bad one is a config error
VALUE_FLAGS = {"--config": "YAML run configuration", "--out": "output directory",
               "--seed": "override the RNG seed", "--shots": "override the shot count",
               "--dims": "override truncation dims, e.g. 40x20"}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="trilinear",
        description="Two-ion trilinear phonon system: experiment runner",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in RUNNERS:
        s = sub.add_parser(name, help=f"run the {name} experiment")
        for flag, text in VALUE_FLAGS.items():
            s.add_argument(flag, help=text)
        s.add_argument("--exact", action="store_true",
                       help="infinite-shot mode (exact probabilities)")
    return parser


def _read_config(path: str):
    """The value that the UTF-8 YAML file at `path` holds, {} if none."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigIOError(path, str(e)) from None
    data = read_yaml(text)
    return {} if data is None else data


def _run_config(args) -> RunConfig:
    """The config file's mapping with each given flag written into it as
    the entry it stands for, built and validated once. A flag's text reads
    as the same text at its path in a config file does."""
    texts = {"measurement.seed": args.seed, "measurement.shots": args.shots}
    if args.dims is not None:
        dims = re.split("[xX]", args.dims)
        if len(dims) != 2 or not all(d.strip() for d in dims):
            raise ConfigValueError("dims", f"expected RxA (e.g. 40x20), got {args.dims!r}")
        texts.update(zip(("simulation.radial_dim", "simulation.axial_dim"), dims))
    values = {}
    for path, text in texts.items():
        try:
            if text is not None:
                values[path] = read_yaml(text)
        except ConfigParseError as e:
            raise ConfigParseError(path, e.message) from None
    data = {} if args.config is None else _read_config(args.config)
    if not isinstance(data, dict):
        return build_config(data)  # refused: not a mapping
    named = data.get("experiment")
    if named is not None and named != args.command:
        raise ConfigValueError("experiment", f"config names {named!r} but the "
                               f"{args.command!r} subcommand was invoked")
    data["experiment"] = args.command
    for path, value in values.items():
        section, key = path.split(".")
        entries = {} if data.get(section) is None else data[section]
        if isinstance(entries, dict):  # any other section is refused in the build
            data[section] = {**entries, key: value}
    if args.exact:
        data["exact"] = True
    if args.out is not None:
        data["output"] = args.out
    return build_config(data)


def _output_dir(path: Path) -> Path:
    """The output directory, made if it does not exist."""
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (OSError, ValueError) as e:  # ValueError: a NUL in the path
        raise ConfigIOError(str(path), str(e)) from None
    return path


def main(argv=None) -> int:
    # `--seed -1e3` as `--seed=-1e3`, else argparse takes -1e3 for an option
    rest, argv = iter(sys.argv[1:] if argv is None else argv), []
    for arg in rest:
        value = next(rest, None) if arg in VALUE_FLAGS else None
        argv.append(arg if value is None else f"{arg}={value}")
    args = build_parser().parse_args(argv)
    try:
        cfg = _run_config(args)
        RUNNERS[args.command](cfg, _output_dir(Path(cfg.output)))
    except ConfigError as e:
        print(e, file=sys.stderr)
        return 2
    except (NumericalContractError, StepPolicyError) as e:
        print(f"numerical-contract violation: {e}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())

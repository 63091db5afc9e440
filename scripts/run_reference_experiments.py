#!/usr/bin/env python3
"""Run the bread-and-butter experiments at the reference trap parameters and
write their CSV artifacts: mode report, two-phonon conversion oscillation
(with the one-phonon control), avoided-crossing spectrum, and adiabatic
parity of the first few Fock states, each the Wigner scan at the origin.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from trilinear import (
    FockDim,
    MeasurementModel,
    TwoModeSpace,
    avoided_crossing_spectrum,
    fock_state,
    measurement_channel,
    mode_params,
    oscillation_experiment,
    slow_sweep,
    sweep_unitaries,
    wigner_scan,
)
from trilinear.protocols import spectrum_to_csv
from trilinear.report import write_csv

TWO_PI = 2 * math.pi


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/reference"))
    ap.add_argument("--seed", type=int, default=2016)
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    params = mode_params()
    space = TwoModeSpace(FockDim(40), FockDim(20))
    model = MeasurementModel(eta=0.86, shots=500, seed=args.seed)

    print("== mode report ==")
    rows = {
        "omega_s_hz": params.omega_s / TWO_PI,
        "omega_r_hz": params.omega_r / TWO_PI,
        "z0_um": params.z0 * 1e6,
        "xi_hz": params.xi / TWO_PI,
        "conversion_2sqrt2xi_hz": params.conversion_rate / TWO_PI,
        "delta_bare_hz": params.delta / TWO_PI,
    }
    for k, v in rows.items():
        print(f"  {k:24s} {v:.6g}")
    write_csv(args.out / "modes.csv", list(rows), [[v] for v in rows.values()])

    print("== conversion oscillation ==")
    holds = np.linspace(0, 3e-3, 121)
    for n in (2, 1):
        res = oscillation_experiment(n, holds, params, model, space=space)
        res.to_csv(args.out / f"oscillation_n{n}.csv")
        if n == 2:
            print(f"  fitted frequency: {res.fit_frequency / TWO_PI:.2f} Hz "
                  f"(prediction {params.conversion_rate / TWO_PI:.2f} Hz)")
        else:
            print(f"  one-phonon control: max transfer {res.p_axial.max():.2e}")

    print("== avoided crossing ==")
    deltas = np.linspace(-TWO_PI * 15e3, TWO_PI * 15e3, 201)
    spec = avoided_crossing_spectrum(deltas, params.xi)
    spectrum_to_csv(spec, args.out / "crossing.csv")
    print(f"  minimum gap {spec.min_gap / TWO_PI:.2f} Hz at "
          f"delta = {spec.min_gap_delta / TWO_PI:.1f} Hz")

    print("== adiabatic parity, fock 0..6 ==")
    # each parity is the exact Wigner scan at the origin, <P> = (pi/2) W(0);
    # the seven are drawn together, value n from the stream (seed, n)
    schedule = slow_sweep()
    sweep = sweep_unitaries(space, params.xi, schedule, sector_ks=range(13))
    scans = [wigner_scan(fock_state(space.radial, n), [0j], params.xi, space,
                         schedule, model, exact=True, sweep=sweep)
             for n in range(7)]
    p_phonon = np.array([s.p1_exact[0] for s in scans]) / model.eta
    p1, p1_hat, stderr = measurement_channel(p_phonon, model)
    parity_exact = 1.0 - 2.0 * p1 / model.eta
    parity_sampled = 1.0 - 2.0 * p1_hat / model.eta
    for n in range(7):
        print(f"  n={n}: parity {parity_exact[n]:+.4f} "
              f"(sampled {parity_sampled[n]:+.3f})")
    write_csv(args.out / "parity_fock.csv",
              ["n", "parity_exact", "parity_sampled", "stderr",
               "readout_bias", "flags"],
              [np.arange(7), parity_exact, parity_sampled,
               2.0 * stderr / model.eta,
               [math.pi / 2 * s.readout_bias[0] for s in scans],
               [s.flags[0] for s in scans]])
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()

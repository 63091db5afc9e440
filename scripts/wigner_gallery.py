#!/usr/bin/env python3
"""Wigner-function gallery through the full measurement chain.

Scans the displaced-parity protocol over a phase-space grid for the vacuum,
two coherent states, three Schroedinger-cat states, and phase-averaged
radial cuts of the Fock states n = 1, 2, 5. One CSV per state.

The full gallery (41 x 41 grid, 80 x 40 truncation) takes a few minutes;
--quick drops to a 21 x 21 grid over |Re|,|Im| <= 2 at 40 x 20.
"""

import argparse
import math
from pathlib import Path

import numpy as np

from trilinear import (
    FockDim,
    MeasurementModel,
    TwoModeSpace,
    cat_state,
    coherent_state,
    fock_state,
    fock_wigner_closed_form,
    mode_params,
    phase_space_grid,
    radial_cut,
    slow_sweep,
    sweep_unitaries,
    wigner_scan,
)
from trilinear.report import write_csv


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("out/gallery"))
    ap.add_argument("--seed", type=int, default=2016)
    ap.add_argument("--shots", type=int, default=500)
    ap.add_argument("--exact", action="store_true",
                    help="skip shot sampling (infinite-shot estimates)")
    ap.add_argument("--quick", action="store_true")
    args = ap.parse_args()
    args.out.mkdir(parents=True, exist_ok=True)

    if args.quick:
        space = TwoModeSpace(FockDim(40), FockDim(20))
        grid = phase_space_grid(extent=2.0, points=21)
        radii = np.linspace(0, 2.0, 21)
    else:
        space = TwoModeSpace(FockDim(80), FockDim(40))
        grid = phase_space_grid(extent=3.0, points=41)
        radii = np.linspace(0, 3.0, 61)

    params = mode_params()
    model = MeasurementModel(eta=0.86, shots=args.shots, seed=args.seed)
    schedule = slow_sweep()
    print(f"building the sweep propagator on {space.radial.dim} x "
          f"{space.axial.dim} ...")
    sweep = sweep_unitaries(space, params.xi, schedule,
                            sector_ks=range(space.radial.dim))

    alpha = 1.73
    gallery = {
        "vacuum": fock_state(space.radial, 0),
        "coherent_0p87": coherent_state(space.radial, 0.87),
        "coherent_1p73": coherent_state(space.radial, alpha),
        "cat_even": cat_state(space.radial, alpha, math.pi, +1),
        "cat_odd": cat_state(space.radial, alpha, math.pi, -1),
        "cat_quarter": cat_state(space.radial, alpha, math.pi / 2, -1),
    }
    for name, state in gallery.items():
        scan = wigner_scan(state, grid, params.xi, space, schedule, model,
                           exact=args.exact, sweep=sweep)
        scan.to_csv(args.out / f"wigner_{name}.csv")
        print(f"  {name}: W(0) = {scan.wigner[np.argmin(np.abs(grid))]:+.4f}, "
              f"{int(np.sum(scan.wigner < 0))} negative points")

    for n in (1, 2, 5):
        cut = radial_cut(fock_state(space.radial, n), radii, params.xi, space,
                         schedule, model, sweep=sweep)
        closed = [fock_wigner_closed_form(n, r) for r in radii]
        write_csv(args.out / f"fock{n}_radial_cut.csv",
                  ["r", "wigner", "closed_form"], [radii, cut, closed])
        print(f"  fock({n}) cut: W(0) = {cut[0]:+.4f} "
              f"(closed form {closed[0]:+.4f})")
    print(f"artifacts in {args.out}")


if __name__ == "__main__":
    main()

"""Row-by-row CSV reference for the tests: one type dispatch per cell, and
the rows each table is made of.

The package formats a table column by column (`trilinear.report.
write_csv`); the tests write the same table through this reference and
compare the bytes.
"""

import numbers
from pathlib import Path

import numpy as np


def format_cell(value) -> str:
    if isinstance(value, str):
        return value
    if isinstance(value, numbers.Integral):
        return str(int(value))
    if isinstance(value, numbers.Real):
        return f"{float(value):.12g}"
    return str(value)


def write_rows(path, header, rows, comments=()) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as f:
        for line in comments:
            f.write(f"# {line}\n")
        f.write(",".join(header) + "\n")
        for row in rows:
            f.write(",".join(format_cell(v) for v in row) + "\n")


WIGNER_HEADER = ["re_alpha", "im_alpha", "p1_exact", "p1_sampled", "parity",
                 "wigner", "stderr", "flags"]
OSCILLATION_HEADER = ["t_ms", "p_radial", "p_axial", "p_radial_sampled",
                      "p_axial_sampled"]
CROSSING_HEADER = ["delta_hz", "branch0_hz", "branch1_hz"]
CONVERGE_HEADER = ["kind", "setting", "observable", "value",
                   "delta_vs_finest", "flag"]


def wigner_rows(scan):
    return [
        (a.real, a.imag, p1e, p1s, par, w, se, fl)
        for a, p1e, p1s, par, w, se, fl in zip(
            scan.alphas, scan.p1_exact, scan.p1_sampled, scan.parity,
            scan.wigner, scan.stderr, scan.flags,
        )
    ]


def oscillation_rows(result):
    return np.column_stack([
        result.hold_times * 1e3, result.p_radial, result.p_axial,
        result.p_radial_sampled, result.p_axial_sampled,
    ])


def crossing_rows(spec):
    two_pi = 2 * np.pi
    return np.column_stack([spec.deltas / two_pi, spec.branches[:, 0] / two_pi,
                            spec.branches[:, 1] / two_pi])


def parity_rows(state, scan, axial):
    """The parity table from the one-point scan at the origin: parity cells
    are 1 - 2 p1 / eta, the error and the bias the scan's W figures times
    pi / 2."""
    eta = scan.eta
    p1 = scan.p1_exact[0]
    rows = [
        ("state", state),
        ("p_phonon", p1 / eta),
        ("p1_exact", p1),
        ("p1_sampled", scan.p1_sampled[0]),
        ("parity_exact", 1.0 - 2.0 * p1 / eta),
        ("parity_sampled", scan.parity[0]),
        ("stderr", np.pi / 2 * scan.stderr[0]),
        ("readout_bias", np.pi / 2 * scan.readout_bias[0]),
        ("flags", scan.flags[0]),
    ]
    return rows + [(f"axial_p{n}", prob) for n, prob in enumerate(axial)]


def modes_table(p, parking_hz):
    two_pi = 2 * np.pi
    report = {
        "omega_s_hz": p.omega_s / two_pi,
        "omega_r_hz": p.omega_r / two_pi,
        "z0_m": p.z0,
        "xi_hz": p.xi / two_pi,
        "conversion_2sqrt2xi_hz": p.conversion_rate / two_pi,
        "delta_bare_hz": p.delta / two_pi,
        "parking_hz": parking_hz,
    }
    return list(report.keys()), [list(report.values())]


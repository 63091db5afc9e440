"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
report. The Wigner-tomography criterion propagates a full 41 x 41 grid for
five states plus three Fock-state radial cuts; most of its time is the
80 x 40 sweep.
"""

import math

import numpy as np
import pytest
import scipy.linalg

from trilinear import (
    FockDim,
    MeasurementModel,
    RotatingFrameHamiltonian,
    StateVector,
    TwoModeSpace,
    avoided_crossing_spectrum,
    axial_distribution,
    cat_state,
    coherent_state,
    fock_state,
    fock_wigner_closed_form,
    mode_params,
    oscillation_experiment,
    phase_space_grid,
    radial_cut,
    rc_ramp,
    slow_sweep,
    sweep_unitaries,
    wigner_scan,
    wigner_sweep_needed,
)
from trilinear.cli import main
from trilinear.dynamics import default_step, piecewise_deltas
from trilinear.protocols import normal_mode_populations
from trilinear.report import read_data_rows

from sector_reference import (apply_sweep, held_steps, march_state,
                              normal_mode_embedding)
from wigner_kernel import pinned_grid_wigner

TWO_PI = 2 * math.pi
PARAMS = mode_params()
PARKING = TWO_PI * 35e3


def report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\n[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")


@pytest.fixture(scope="module")
def space40():
    return TwoModeSpace(FockDim(40), FockDim(20))


@pytest.fixture(scope="module")
def sweep40(space40):
    return sweep_unitaries(space40, PARAMS.xi, slow_sweep(),
                           sector_ks=range(13))


@pytest.fixture(scope="module")
def space80():
    return TwoModeSpace(FockDim(80), FockDim(40))


@pytest.fixture(scope="module")
def sweep80(space80):
    # it feeds only Wigner readouts, which need just the rule's sectors
    return sweep_unitaries(
        space80, PARAMS.xi, slow_sweep(),
        sector_ks=np.flatnonzero(wigner_sweep_needed(space80)))


def test_criterion_1_coupling_constant():
    rate_hz = PARAMS.conversion_rate / TWO_PI
    rel = abs(rate_hz - 2.96e3) / 2.96e3
    ok = rel < 0.01
    report(1, ok, f"2*sqrt(2)*xi/2pi = {rate_hz:.2f} Hz vs 2960 Hz "
                  f"({100 * rel:.3f}% off, tolerance 1%)")
    assert ok


def test_criterion_2_conversion_oscillation(space40):
    model = MeasurementModel(eta=1.0, shots=400, seed=21)
    holds = np.linspace(0, 2e-3, 81)
    res2 = oscillation_experiment(2, holds, PARAMS, model, space=space40)
    fit_hz = res2.fit_frequency / TWO_PI
    pred_hz = PARAMS.conversion_rate / TWO_PI
    rel_pred = abs(fit_hz - pred_hz) / pred_hz
    rel_meas = abs(fit_hz - 3.02e3) / 3.02e3
    res1 = oscillation_experiment(1, holds, PARAMS, model, space=space40)
    max_transfer = float(res1.p_axial.max())
    ok = (res2.fit_ok and rel_pred < 0.005 and rel_meas < 0.03
          and max_transfer < 1e-3)
    report(2, ok, f"fit {fit_hz:.2f} Hz: {100 * rel_pred:.4f}% from prediction "
                  f"(<0.5%), {100 * rel_meas:.2f}% from measured 3020 Hz (<3%); "
                  f"one-phonon max transfer {max_transfer:.2e} (<1e-3)")
    assert ok


def test_criterion_3_avoided_crossing():
    deltas = np.linspace(-TWO_PI * 15e3, TWO_PI * 15e3, 121)  # includes 0
    spec = avoided_crossing_spectrum(deltas, PARAMS.xi)
    closed = math.sqrt(8) * PARAMS.xi
    rel_closed = abs(spec.min_gap - closed) / closed
    gap_hz = spec.min_gap / TWO_PI
    rel_meas = abs(gap_hz - 2.97e3) / 2.97e3
    ok = (spec.min_gap_delta == 0.0 and rel_closed < 1e-9 and rel_meas < 0.02)
    report(3, ok, f"min gap {gap_hz:.2f} Hz at delta = "
                  f"{spec.min_gap_delta / TWO_PI:.1f} Hz; closed-form deviation "
                  f"{rel_closed:.1e} (<1e-9), {100 * rel_meas:.2f}% from "
                  f"measured 2970 Hz (<2%)")
    assert ok


def test_criterion_4_adiabatic_parity(space40, sweep40):
    model = MeasurementModel(eta=1.0, shots=500, seed=4)
    worst_parity_err = 0.0
    worst_axial = 1.0
    for n in range(7):
        # the parity is the exact Wigner scan at the origin
        state = fock_state(space40.radial, n)
        scan = wigner_scan(state, [0.0], PARAMS.xi, space40, slow_sweep(),
                           model, exact=True, sweep=sweep40)
        worst_parity_err = max(worst_parity_err,
                               abs(scan.parity[0] - (-1.0) ** n))
        worst_axial = min(worst_axial,
                          float(axial_distribution(state, sweep40)[n // 2]))

    # diabatic control: the fast (20 us) ramp over the same detuning range
    # leaves the two-phonon state's populations essentially unchanged
    fast = rc_ramp(PARKING, -PARKING, 20e-6)
    usweep = sweep_unitaries(space40, PARAMS.xi, fast, sector_ks=[2])
    psi = normal_mode_embedding(fock_state(space40.radial, 2), space40, usweep)
    pops = normal_mode_populations(apply_sweep(usweep, psi), usweep)
    change = 1.0 - float(pops[space40.index(2, 0)])

    ok = worst_parity_err <= 0.02 and worst_axial >= 0.99 and change < 0.05
    report(4, ok, f"fock 0..6: max parity error {worst_parity_err:.4f} "
                  f"(<=0.02), min P(axial = n//2) {worst_axial:.4f} (>=0.99); "
                  f"fast-ramp population change {100 * change:.2f}% (<5%)")
    assert ok


def test_criterion_5_wigner_oracle_equivalence(space80, sweep80):
    model = MeasurementModel(eta=1.0, shots=100, seed=5)
    schedule = slow_sweep()
    grid = phase_space_grid(extent=3.0, points=41)
    dim = space80.radial

    states = {
        "vacuum": fock_state(dim, 0),
        "coherent(0.87)": coherent_state(dim, 0.87),
        "coherent(1.73)": coherent_state(dim, 1.73),
        "even cat(1.73)": cat_state(dim, 1.73, math.pi, +1),
        "odd cat(1.73)": cat_state(dim, 1.73, math.pi, -1),
    }
    details = []
    worst = 0.0
    for name, state in states.items():
        scan = wigner_scan(state, grid, PARAMS.xi, space80, schedule, model,
                           exact=True, sweep=sweep80)
        oracle = pinned_grid_wigner(state, grid)
        dev = float(np.abs(scan.wigner - oracle).max())
        details.append(f"{name}: {dev:.4f}")
        worst = max(worst, dev)

    radii = np.linspace(0, 3, 61)
    for n in (1, 2, 5):
        cut = radial_cut(fock_state(dim, n), radii, PARAMS.xi, space80,
                         schedule, model, sweep=sweep80)
        closed = np.array([fock_wigner_closed_form(n, r) for r in radii])
        dev = float(np.abs(cut - closed).max())
        details.append(f"fock({n}) cut: {dev:.4f}")
        worst = max(worst, dev)

    ok = worst <= 0.01
    report(5, ok, "max |W_protocol - W_oracle| per state (tolerance 0.01): "
                  + "; ".join(details))
    assert ok


def test_criterion_6_negativity_with_shot_noise(space40):
    schedule = slow_sweep()
    sweep = sweep_unitaries(space40, PARAMS.xi, schedule, sector_ks=[1])
    state = fock_state(space40.radial, 1)
    negatives = 0
    reps = 200
    for rep in range(reps):
        model = MeasurementModel(eta=0.86, shots=500, seed=rep)
        scan = wigner_scan(state, [0.0], PARAMS.xi, space40, schedule, model,
                           sweep=sweep)
        negatives += scan.wigner[0] < 0
    ok = negatives >= math.ceil(0.99 * reps)
    report(6, ok, f"W(0) < 0 for fock(1) in {negatives}/{reps} seeded "
                  f"repetitions at eta = 0.86, 500 shots (need >= 99%)")
    assert ok


def test_criterion_7_decoherence_envelope():
    # the contrast that the conversion experiment applies at a 10 ms hold:
    # the swing about the centre with the envelope over the swing without it
    space = TwoModeSpace(FockDim(8), FockDim(5))
    model = MeasurementModel(eta=1.0, shots=1, seed=7)
    holds = np.linspace(0, 10e-3, 41)
    decayed = oscillation_experiment(2, holds, PARAMS, model, space=space,
                                     envelope_tau=10.2e-3)
    ideal = oscillation_experiment(2, holds, PARAMS, model, space=space)
    center = 0.5 * (ideal.p_axial.max() + ideal.p_axial.min())
    contrast = (decayed.p_axial[-1] - center) / (ideal.p_axial[-1] - center)
    ok = abs(contrast - 0.375) < 1e-3 and 0.32 <= contrast <= 0.46
    report(7, ok, f"contrast at 10 ms with tau_c = 10.2 ms: {contrast:.4f} "
                  f"(expected 0.375, inside 0.39 +- 0.07)")
    assert ok


def test_criterion_8_property_suite(tmp_path):
    checks = []

    # K conservation and unitarity along a ramped trajectory
    space = TwoModeSpace(FockDim(16), FockDim(8))
    schedule = slow_sweep()
    psi = StateVector(np.kron(coherent_state(space.radial, 1.0).amplitudes,
                              np.eye(space.axial.dim)[0]), space)
    step = default_step(PARAMS.xi, schedule)
    times = np.linspace(0, schedule.duration, 21)
    states = [psi]
    for t0, t1 in zip(times, times[1:]):
        states.append(march_state(states[-1], PARAMS.xi,
                                  *piecewise_deltas(schedule, t0, t1, step)))
    pops = np.abs([s.amplitudes for s in states]) ** 2
    k_drift = float(np.ptp(pops @ space.k_values()))
    norm_drift = float(np.abs(np.sqrt(pops.sum(axis=1)) - 1.0).max())
    checks.append(("K conservation", k_drift, 1e-9))
    checks.append(("unitarity", norm_drift, 1e-9))

    # block/dense equivalence on an 8 x 5 space
    small = TwoModeSpace(FockDim(8), FockDim(5))
    ham_s = RotatingFrameHamiltonian(PARAMS.xi, 0.4 * PARAMS.xi, small)
    worst_block = 0.0
    t = 2.0 / PARAMS.xi
    for seed in range(3):
        rng = np.random.default_rng(seed)
        amp = rng.normal(size=small.dim) + 1j * rng.normal(size=small.dim)
        psi_s = StateVector(amp / np.linalg.norm(amp), small)
        dense = scipy.linalg.expm(-1j * ham_s.matrix * t) @ psi_s.amplitudes
        block = march_state(psi_s, PARAMS.xi,
                            *held_steps([0.4 * PARAMS.xi], [t])).amplitudes
        worst_block = max(worst_block, abs(1 - abs(np.vdot(dense, block)) ** 2))
    checks.append(("block/dense fidelity deviation", worst_block, 1e-10))

    # step-halving convergence
    finals = []
    for s in (step, step / 2):
        finals.append(march_state(
            psi, PARAMS.xi, *piecewise_deltas(schedule, 0.0, schedule.duration, s)))
    halving = abs(1 - abs(np.vdot(finals[0].amplitudes, finals[1].amplitudes)) ** 2)
    checks.append(("step-halving fidelity change", halving, 1e-8))

    # Wigner normalization on the |alpha| <= 4 region
    dim = FockDim(80)
    axis = np.linspace(-4, 4, 81)
    h = axis[1] - axis[0]
    worst_norm = 0.0
    for state in (fock_state(dim, 0), coherent_state(dim, 1.0)):
        w = pinned_grid_wigner(state, axis[:, None] + 1j * axis[None, :])
        integral = float(np.trapezoid(np.trapezoid(w, dx=h, axis=1), dx=h))
        worst_norm = max(worst_norm, abs(integral - 1.0))
    checks.append(("Wigner normalization", worst_norm, 1e-3))

    # byte-identical reruns through the CLI
    cfg = tmp_path / "det.yaml"
    cfg.write_text(
        "simulation:\n  radial_dim: 12\n  axial_dim: 6\n"
        "measurement:\n  shots: 64\n  seed: 8\nstate: fock:1\n"
        "grid:\n  extent: 1.0\n  points: 3\n"
    )
    assert main(["wigner", "--config", str(cfg), "--out", str(tmp_path / "a")]) == 0
    assert main(["wigner", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    identical = (read_data_rows(tmp_path / "a" / "wigner.csv")
                 == read_data_rows(tmp_path / "b" / "wigner.csv"))
    checks.append(("determinism (rows differ)", 0.0 if identical else 1.0, 0.5))

    ok = all(value < bound for _, value, bound in checks)
    detail = "; ".join(f"{name} {value:.2e} (<{bound:.0e})"
                       for name, value, bound in checks)
    report(8, ok, detail)
    assert ok

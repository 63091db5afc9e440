"""Block-diagonal evolution: sectors, propagation, ramps, sweep unitaries."""

import math
import multiprocessing
import os
import sys
import threading
import time
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.linalg
from hypothesis import assume, example, given, settings, strategies as st

from trilinear import (
    FockDim,
    MeasurementModel,
    RampSchedule,
    RotatingFrameHamiltonian,
    StateVector,
    TwoModeSpace,
    block_decompose,
    cat_state,
    coherent_state,
    default_step,
    fock_state,
    phase_space_grid,
    rc_ramp,
    slow_sweep,
    sweep_unitaries,
    wigner_scan,
    wigner_sweep_needed,
)
from trilinear import dynamics
from trilinear.dynamics import piecewise_deltas
from trilinear.errors import NumericalContractError, StepPolicyError
from trilinear.fock import guard_leak
from trilinear.trap import mode_params

from sector_reference import apply_sweep, held_steps, march_state

TWO_PI = 2 * math.pi
XI = mode_params().xi
PARKING = TWO_PI * 35e3
detunings = st.floats(-TWO_PI * 40e3, TWO_PI * 40e3)


def small_space(dr=8, da=5):
    return TwoModeSpace(FockDim(dr), FockDim(da))


def random_state(space, seed=0):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=space.dim) + 1j * rng.normal(size=space.dim)
    return StateVector(amp / np.linalg.norm(amp), space)


# ---------------------------------------------------------------------------
# Hamiltonian assembly


def test_zero_coupling_hamiltonian_is_diagonal():
    space = small_space()
    h = RotatingFrameHamiltonian(0.0, 3.0, space).matrix
    occ = space.occupations()
    assert np.allclose(h, np.diag(3.0 * occ[:, 1]), atol=1e-15)
    assert np.allclose(np.linalg.eigvalsh(h), np.sort(3.0 * occ[:, 1]))


def test_two_phonon_sector_matrix_element():
    # <0,1| a^2 c^dag |2,0> = sqrt(2); diagonal (0, delta)
    xi, delta = 1.7, 0.3
    block = block_decompose(small_space()).by_k(2)
    expect = np.array([[0.0, math.sqrt(2) * xi], [math.sqrt(2) * xi, delta]])
    assert np.allclose(block.hamiltonians(xi, [delta])[0], expect, atol=1e-15)


def test_block_matches_dense_submatrix():
    space = small_space()
    h = RotatingFrameHamiltonian(1.3, -0.7, space).matrix
    assert np.abs(h - h.conj().T).max() < 1e-12
    for block in block_decompose(space).blocks:
        sub = h[np.ix_(block.indices, block.indices)]
        assert np.allclose(sub, block.hamiltonians(1.3, [-0.7])[0], atol=1e-14)


def test_hamiltonian_commutes_with_weight_exactly():
    space = small_space()
    h = RotatingFrameHamiltonian(2.0, 1.0, space).matrix
    k = np.diag(space.k_values().astype(float))
    assert np.abs(h @ k - k @ h).max() == 0.0


def test_single_phonon_is_exact_eigenstate():
    space = small_space()
    psi = StateVector(np.eye(space.dim)[space.index(1, 0)], space)
    states = [psi]
    for dt in np.diff(np.linspace(0, 5e-3, 11)):
        states.append(march_state(states[-1], XI, *held_steps([0.0], [dt])))
    pops = np.array([abs(s.amplitudes[space.index(1, 0)]) ** 2 for s in states])
    assert np.abs(pops - 1.0).max() < 1e-12


# ---------------------------------------------------------------------------
# sector decomposition


def test_small_space_k2_sector_contents():
    space = TwoModeSpace(FockDim(5), FockDim(3))
    block = block_decompose(space).by_k(2)
    occ = [tuple(divmod(int(i), 3)) for i in block.indices]
    assert occ == [(2, 0), (0, 1)]


@given(st.integers(2, 10), st.integers(2, 8))
@settings(max_examples=30)
def test_sector_count_matches_enumeration(dr, da):
    space = TwoModeSpace(FockDim(dr), FockDim(da))
    decomp = block_decompose(space)
    brute = sorted({int(k) for k in space.k_values()})
    ks = [b.k for b in decomp.blocks]
    assert ks == brute
    assert len(ks) == dr + 2 * (da - 1)


@given(st.integers(2, 10), st.integers(2, 8))
@settings(max_examples=30)
def test_sectors_partition_basis(dr, da):
    space = TwoModeSpace(FockDim(dr), FockDim(da))
    seen = np.concatenate([b.indices for b in block_decompose(space).blocks])
    assert sorted(seen.tolist()) == list(range(space.dim))


# ---------------------------------------------------------------------------
# the K index: the sector of each K


@given(st.integers(2, 10), st.integers(2, 8))
@settings(max_examples=30)
def test_k_index_matches_the_blocks(dr, da):
    space = small_space(dr, da)
    decomp = block_decompose(space)
    for b in decomp.blocks:
        assert decomp.by_k(b.k) is b
        assert decomp.by_k(np.int64(b.k)) is b


def test_by_k_refuses_a_missing_k():
    decomp = block_decompose(small_space(4, 3))
    top = max(b.k for b in decomp.blocks)
    for k in (-1, top + 1, 100):
        with pytest.raises(KeyError, match=f"no K = {k} sector"):
            decomp.by_k(k)


# ---------------------------------------------------------------------------
# constant-detuning propagation


def test_resonant_two_phonon_rabi():
    space = small_space()
    psi = StateVector(np.eye(space.dim)[space.index(2, 0)], space)
    times = np.linspace(0, 5 * math.pi / (math.sqrt(2) * XI), 161)
    states = [psi]
    for dt in np.diff(times):
        states.append(march_state(states[-1], XI, *held_steps([0.0], [dt])))
    pops = np.abs([[s.amplitudes[space.index(2, 0)], s.amplitudes[space.index(0, 1)]]
                   for s in states]) ** 2
    analytic = np.sin(math.sqrt(2) * XI * times) ** 2
    assert np.abs(pops[:, 1] - analytic).max() < 1e-6
    assert np.abs(pops[:, 0] - (1 - analytic)).max() < 1e-6


def test_full_transfer_time():
    space = small_space()
    psi = StateVector(np.eye(space.dim)[space.index(2, 0)], space)
    t_swap = math.pi / (2 * math.sqrt(2) * XI)
    final = march_state(psi, XI, *held_steps([0.0], [t_swap]))
    assert abs(final.amplitudes[space.index(0, 1)]) ** 2 == pytest.approx(1.0, abs=1e-10)


def test_detuned_transfer_suppression():
    # two-level maximum transfer g^2 / (g^2 + (delta/2)^2) with g = sqrt(2) xi,
    # i.e. (2 sqrt2 xi)^2 / ((2 sqrt2 xi)^2 + delta^2), reached at t = pi/2Omega
    space = small_space()
    delta = PARKING
    psi = StateVector(np.eye(space.dim)[space.index(2, 0)], space)
    g = math.sqrt(2) * XI
    omega = math.sqrt(g**2 + (delta / 2) ** 2)
    t_peak = math.pi / (2 * omega)
    final = march_state(psi, XI, *held_steps([delta], [t_peak]))
    expect = (2 * math.sqrt(2) * XI) ** 2 / ((2 * math.sqrt(2) * XI) ** 2 + delta**2)
    assert abs(final.amplitudes[space.index(0, 1)]) ** 2 == pytest.approx(expect, rel=1e-10)
    assert expect < 0.008  # effectively decoupled at the parking detuning


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_weight_conserved_and_unitary_for_random_states(seed):
    space = small_space(6, 4)
    states = [random_state(space, seed)]
    for dt in np.diff(np.linspace(0, 2e-3, 7)):
        states.append(march_state(states[-1], XI, *held_steps([0.5 * XI], [dt])))
    pops = np.abs([s.amplitudes for s in states]) ** 2
    assert np.abs(np.sqrt(pops.sum(axis=1)) - 1.0).max() < 1e-9
    assert np.ptp(pops @ space.k_values()) < 1e-9


def test_block_propagation_equals_dense_exponential():
    space = small_space()  # 8 x 5
    ham = RotatingFrameHamiltonian(XI, 0.4 * XI, space)
    t = 2.5 / XI
    for seed in range(5):
        psi = random_state(space, seed)
        dense = scipy.linalg.expm(-1j * ham.matrix * t) @ psi.amplitudes
        block = march_state(psi, XI, *held_steps([0.4 * XI], [t])).amplitudes
        fid = abs(np.vdot(dense, block)) ** 2
        assert abs(1 - fid) < 1e-10


# ---------------------------------------------------------------------------
# ramps


def test_rc_ramp_profile_points():
    ramp = rc_ramp(10.0, 2.0, tau_rc=1e-3)
    assert ramp.delta_at(0.0) == pytest.approx(10.0)
    assert ramp.delta_at(1e-3) == pytest.approx(2.0 + 8.0 / math.e)
    assert ramp.delta_at(50e-3) == pytest.approx(2.0)


def test_rc_ramp_duration_floor():
    with pytest.raises(ValueError):
        RampSchedule(1.0, 0.0, tau_rc=1e-3, duration=4e-3)


# the last goes through rc_ramp, whose duration 5 tau_rc is NaN too
@pytest.mark.parametrize("values", [
    (math.nan, -1.0, 1e-3, 5e-3),
    (-math.inf, -1.0, 1e-3, 5e-3),
    (1.0, math.inf, 1e-3, 5e-3),
    (1.0, -1.0, math.nan, 5e-3),
    (1.0, -1.0, 1e-3, math.nan),
    (1.0, -1.0, 1e-3, math.inf),
    (1.0, -1.0, math.nan),
])
def test_ramp_rejects_non_finite_values(values):
    with pytest.raises(ValueError, match="not finite"):
        RampSchedule(*values) if len(values) == 4 else rc_ramp(*values)


def test_ramp_time_scales_against_coupling():
    # adiabatic: 2 ms > 2 pi / xi ~ 0.95 ms; diabatic: 20 us << 0.95 ms
    t_coupling = TWO_PI / XI
    assert t_coupling == pytest.approx(0.9546e-3, rel=1e-3)
    assert 2e-3 > t_coupling
    assert 20e-6 < t_coupling / 10


def test_step_policy_violation_raises():
    space = small_space()
    sched = rc_ramp(PARKING, 0.0, 20e-6)
    with pytest.raises(StepPolicyError):
        sweep_unitaries(space, XI, sched, step=1e-5)


def test_sweep_that_breaks_its_norm_raises():
    # at 1e306 Hz the Magnus coefficients overflow and the marched column
    # turns NaN, which fails the norm contract
    sched = rc_ramp(TWO_PI * 1e306, 0.0, 2e-3)
    with pytest.raises(NumericalContractError, match="norm"):
        sweep_unitaries(small_space(), XI, sched, step=1e-5, sector_ks=[2])


def test_default_step_respects_both_bounds():
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    step = default_step(XI, sched)
    assert step <= 2e-3 / 50
    assert step <= TWO_PI / (12.5 * PARKING) * (1 + 1e-12)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
def test_step_must_be_finite_and_positive(step):
    space = small_space()
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    with pytest.raises(StepPolicyError):
        piecewise_deltas(sched, 0.0, sched.duration, step)
    with pytest.raises(StepPolicyError):
        sweep_unitaries(space, XI, sched, step=step)


def gauss_quadrature(schedule, mids, dts):
    """The three-point Gauss-Legendre quadrature of the detuning over steps
    of durations `dts` about `mids`."""
    offset = dts * math.sqrt(15) / 10
    return dts * (5 * schedule.delta_at(mids - offset) + 8 * schedule.delta_at(mids)
                  + 5 * schedule.delta_at(mids + offset)) / 18


def uniform_deltas(schedule, t0, t1, step):
    """The uniform grid of equal steps of at most `step`."""
    span = t1 - t0
    n = max(1, int(math.ceil(span / step - 1e-12)))
    mids = t0 + (np.arange(n) + 0.5) * (span / n)
    dts = np.full(n, span / n)
    return dts, dynamics._magnus_coefficients(schedule, mids, dts)


def uniform_midpoint_deltas(schedule, t0, t1, step):
    """The uniform grid of midpoint exponentials (no twist), which the graded
    grid of Magnus steps replaced."""
    span = t1 - t0
    n = max(1, int(math.ceil(span / step - 1e-12)))
    mids = t0 + (np.arange(n) + 0.5) * (span / n)
    return held_steps(schedule.delta_at(mids), np.full(n, span / n))


@given(detunings, detunings, st.floats(10e-6, 5e-3), st.floats(0, 1),
       st.floats(0, 1), st.floats(0.01, 1))
@example(0.0, 1.0, 0.0005042753108978788, 1.0, 0.0625, 0.03125)
@example(-164656.0, -165929.0, 0.004294663302476291, 0.125, 1.0, 0.03125)
@settings(max_examples=200, deadline=None)
def test_graded_grid_properties(d0, d1, tau, a, b, fraction):
    sched = rc_ramp(d0, d1, tau)
    t0, t1 = sorted((a * sched.duration, b * sched.duration))
    assume(t1 - t0 > 1e-9 * tau)
    coarsest = tau / 50
    step = coarsest * fraction
    dts, coefs = piecewise_deltas(sched, t0, t1, step)
    n = dts.size
    assert coefs.shape == (n, 6)
    assert np.all(dts > 0)
    assert dts.sum() == pytest.approx(t1 - t0, rel=1e-12)
    assert dts.max() <= coarsest * (1 + 1e-12)
    # rounding the step count up shortens every step by at most n / (n - 1)
    assert dts.min() >= step * (n - 1) / n * (1 - 1e-12)
    nodes = t0 + np.concatenate([[0.0], np.cumsum(dts)])
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    # the coefficients are those of the steps about these midpoints, and the
    # detuning's is its Gauss quadrature over the step; a_D rests on a
    # second difference of the detuning, whose rounding is absolute
    scale = max(abs(d0), abs(d1), 1.0)
    expected = dynamics._magnus_coefficients(sched, mids, dts)
    atol = 1e-7 * np.abs(expected).max(axis=0) + np.zeros((n, 1))
    atol[:, 1] += 1e-15 * scale * dts ** 3
    assert np.all(np.abs(coefs - expected) <= atol + 1e-9 * np.abs(expected))
    assert np.allclose(coefs[:, 0], gauss_quadrature(sched, mids, dts), rtol=1e-9,
                       atol=1e-9 * scale * dts.max())
    # each step spans the same share of the capped density, so dt * rho is
    # constant up to rho's change within a step (at most 1% at tau / 50)
    work = dts * dynamics._grid_density(mids / tau, step / coarsest)
    assert work.max() <= work.min() * 1.02
    if fraction == 1:
        uniform = uniform_deltas(sched, t0, t1, step)
        assert np.array_equal(dts, uniform[0])
        assert np.array_equal(coefs, uniform[1])


@given(detunings, st.floats(10e-6, 5e-3), st.floats(0.01, 1))
@settings(max_examples=50, deadline=None)
def test_graded_grid_is_the_uniform_one_at_the_coarsest_step(d0, tau, fraction):
    # tau / 50 makes the cap bind everywhere, and so does a step whose cap
    # binds from t0 on
    sched = rc_ramp(d0, -d0, tau)
    for t0, step in ((0.0, tau / 50), (sched.duration * fraction, None)):
        if step is None:
            # rho(t0) below step / (tau / 50)
            rho = float(dynamics._grid_density(t0 / tau))
            step = min(tau / 50, 1.01 * rho * tau / 50)
        got = piecewise_deltas(sched, t0, sched.duration, step)
        expected = uniform_deltas(sched, t0, sched.duration, tau / 50)
        for g, e in zip(got, expected):
            assert np.array_equal(g, e)


@given(st.floats(10e-6, 5e-3), st.floats(0, 1), st.floats(0, 1),
       st.floats(0.01, 1))
@example(2e-3, 0.3, 1.0, 0.05)  # t0 > 0, across the kink at u = 2 ln 5
@example(2e-3, 0.1, 0.9, 0.5)  # the step's floor moves the kink to 2 ln 2
@example(2e-3, 0.8, 0.2, 0.01)  # t0 past the kink
# uniform grids whose summed steps end a few ulps past t1
@example(0.00421875113999456, 0.0, 1.0, 1.0)
@example(0.00011911294713179829, 0.0, 1.0, 1.0)
@settings(max_examples=200, deadline=None)
def test_graded_grid_nodes_hit_their_counts(tau, a, b, fraction):
    # the integral of rho from t0 reaches k / n of its value over [t0, t1]
    # at node k; rho = exp(-u / 2) integrates to 2 (1 - exp(-u / 2)) up to
    # the kink where it meets its floor f, and grows by f per unit u after
    sched = rc_ramp(PARKING, -PARKING, tau)
    t0, t1 = sorted((a * sched.duration, b * sched.duration))
    assume(t1 - t0 > 1e-3 * tau)
    step = tau / 50 * fraction
    dts, _ = piecewise_deltas(sched, t0, t1, step)
    floor = max(dynamics.GRID_FLOOR, fraction)
    kink = -2 * math.log(floor)

    def count(t):
        u = np.asarray(t) / tau
        return np.where(u < kink, 2 * (1 - np.exp(-u / 2)),
                        2 * (1 - floor) + floor * (u - kink))

    nodes = t0 + np.concatenate([[0.0], np.cumsum(dts)])
    counts = count(nodes) - count(t0)
    n = dts.size
    # the step count over [t0, t1] is rounded up to n, with the same 1e-12
    # slack as piecewise_deltas; it is taken at t1 itself, since the summed
    # steps may end a few ulps past it
    total = float(count(t1) - count(t0)) * tau / step
    assert total - 1e-12 <= n < total + 1
    assert np.allclose(counts, counts[-1] * np.arange(n + 1) / n, rtol=0,
                       atol=1e-12 * max(1.0, t1 / tau))


def test_step_count_is_bounded_before_the_grid_is_laid(monkeypatch):
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    tracemalloc.start()
    try:
        # 1e297 steps; at 5e-324 the count overflows to inf
        for step in (1e-300, 5e-324):
            with pytest.raises(StepPolicyError, match="MAX_STEPS"):
                piecewise_deltas(sched, 0.0, sched.duration, step)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    space = small_space()
    with pytest.raises(StepPolicyError, match="MAX_STEPS"):
        sweep_unitaries(space, XI, sched, step=1e-300)
    # the bound admits a grid of MAX_STEPS steps and refuses one step more,
    # graded or uniform
    for step in (default_step(XI, sched), sched.tau_rc / 50):
        n = piecewise_deltas(sched, 0.0, sched.duration, step)[0].size
        monkeypatch.setattr(dynamics, "MAX_STEPS", n)
        piecewise_deltas(sched, 0.0, sched.duration, step)
        monkeypatch.setattr(dynamics, "MAX_STEPS", n - 1)
        with pytest.raises(StepPolicyError, match="MAX_STEPS"):
            piecewise_deltas(sched, 0.0, sched.duration, step)


def test_flat_ramp_gets_the_grid_of_its_tau():
    # the grid depends on the ramp only through tau_rc
    tau = 2e-3
    flat = RampSchedule(PARKING, PARKING, tau, 5 * tau)
    sloped = rc_ramp(PARKING, -PARKING, tau)
    step = default_step(XI, sloped)
    dts, coefs = piecewise_deltas(flat, 0.0, flat.duration, step)
    assert np.array_equal(dts, piecewise_deltas(sloped, 0.0, tau * 5, step)[0])
    # a flat ramp's Magnus steps hold its detuning
    assert np.array_equal(coefs, held_steps(np.full(dts.size, PARKING), dts)[1])
    assert 0 < dts.min() <= dts.max() <= tau / 50


def test_graded_grid_halves_the_uniform_steps_at_lower_error():
    # the reference sweep's ramp on 16x8: a quarter of the steps of the old
    # uniform grid of midpoint steps at 20 per parking period, and a
    # step-halving change of W no larger than that grid's
    space = TwoModeSpace(FockDim(16), FockDim(8))
    sched = slow_sweep()
    model = MeasurementModel(eta=0.86, shots=1, seed=0)
    state = cat_state(space.radial, 1.0)
    alphas = phase_space_grid(1.5, 11)
    uniform_step = TWO_PI / (20 * PARKING)

    def halving(step):
        w = []
        for s in (step, step / 2):
            sweep = sweep_unitaries(space, XI, sched, s)
            w.append(wigner_scan(state, alphas, XI, space, sched, model,
                                 exact=True, sweep=sweep).wigner)
        return np.abs(w[0] - w[1]).max(), sweep.dts.size

    graded, graded_steps = halving(default_step(XI, sched))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "piecewise_deltas", uniform_midpoint_deltas)
        uniform, uniform_steps = halving(uniform_step)
    assert uniform_steps == 14000
    assert graded_steps < 0.3 * uniform_steps
    assert graded <= uniform


def test_step_halving_convergence():
    space = TwoModeSpace(FockDim(16), FockDim(8))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    step = default_step(XI, sched)
    psi = StateVector(np.kron(coherent_state(space.radial, 1.2).amplitudes,
                              np.eye(space.axial.dim)[0]), space)
    finals = []
    for s in (step, step / 2):
        finals.append(march_state(
            psi, XI, *piecewise_deltas(sched, 0.0, sched.duration, s)))
    assert abs(1 - abs(np.vdot(finals[0].amplitudes, finals[1].amplitudes)) ** 2) < 1e-8


def test_magnus_step_is_sixth_order():
    # halving every step cuts the error against a fine reference by about
    # 64 (the two-point Magnus step's 16, the midpoint step's 4)
    space = TwoModeSpace(FockDim(16), FockDim(8))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    step = default_step(XI, sched)
    psi = StateVector(np.kron(coherent_state(space.radial, 1.2).amplitudes,
                              np.eye(space.axial.dim)[0]), space)

    def final(s):
        return march_state(
            psi, XI, *piecewise_deltas(sched, 0.0, sched.duration, s)).amplitudes

    fine = final(step / 8)
    coarse, half = (np.abs(final(s) - fine).max() for s in (step, step / 2))
    assert coarse > 1e-11
    assert coarse >= 40 * half


def test_time_reversal_returns_initial_state():
    space = TwoModeSpace(FockDim(12), FockDim(7))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    step = default_step(XI, sched)
    dts, coefs = piecewise_deltas(sched, 0.0, sched.duration, step)
    # the steps laid backwards in time, each from its end to its start,
    # are the forward ones negated: the three-point scheme is time-symmetric
    nodes = np.concatenate([[0.0], np.cumsum(dts)])
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    back_coefs = dynamics._magnus_coefficients(sched, mids[::-1], -dts[::-1])
    assert np.abs(coefs[:, 4]).max() > 0
    assert np.allclose(back_coefs, -coefs[::-1], rtol=0,
                       atol=1e-9 * np.abs(coefs).max(axis=0))
    psi = StateVector(np.kron(coherent_state(space.radial, 1.0).amplitudes,
                              np.eye(space.axial.dim)[0]), space)
    fwd = march_state(psi, XI, dts, coefs)
    back = march_state(fwd, XI, -dts[::-1], back_coefs)
    assert abs(1 - abs(np.vdot(psi.amplitudes, back.amplitudes)) ** 2) < 1e-8
    # no steps leave the state as it is
    assert np.array_equal(march_state(psi, XI, *held_steps([], [])).amplitudes,
                          psi.amplitudes)


def test_ramped_trajectory_contracts():
    space = TwoModeSpace(FockDim(16), FockDim(8))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    psi = StateVector(np.kron(coherent_state(space.radial, 1.0).amplitudes,
                              np.eye(space.axial.dim)[0]), space)
    step = default_step(XI, sched)
    times = np.linspace(0, sched.duration, 21)
    states = [psi]
    for t0, t1 in zip(times, times[1:]):
        states.append(march_state(states[-1], XI,
                                  *piecewise_deltas(sched, t0, t1, step)))
    pops = np.abs([s.amplitudes for s in states]) ** 2
    assert np.abs(np.sqrt(pops.sum(axis=1)) - 1.0).max() < 1e-9
    assert np.ptp(pops @ space.k_values()) < 1e-9
    assert max(guard_leak(s.amplitudes, space) for s in states) < 1e-6


def test_state_and_operator_buffers_are_read_only():
    space = small_space()
    psi = StateVector(np.eye(space.dim)[space.index(1, 0)], space)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
    ham = RotatingFrameHamiltonian(XI, 0.0, space)
    with pytest.raises(ValueError):
        ham.matrix[0, 0] = 1.0


# ---------------------------------------------------------------------------
# sweep unitaries


def test_sweep_unitaries_are_unitary():
    space = TwoModeSpace(FockDim(10), FockDim(6))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    sweep = sweep_unitaries(space, XI, sched, sector_ks=range(6))
    for k, u in sweep.unitaries.items():
        assert np.abs(u.conj().T @ u - np.eye(u.shape[0])).max() < 1e-9
        v0, v1 = sweep.endpoint_bases[k]
        assert np.abs(v0.T @ v0 - np.eye(u.shape[0])).max() < 1e-9
        assert np.abs(v1.T @ v1 - np.eye(u.shape[0])).max() < 1e-9


def test_sweep_adiabatic_theorem_low_sectors():
    # 2 ms RC sweep over +-35 kHz carries the instantaneous lowest eigenstate
    # to the final lowest eigenstate with >= 0.99 fidelity for K <= 12
    space = TwoModeSpace(FockDim(40), FockDim(20))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    sweep = sweep_unitaries(space, XI, sched, sector_ks=range(13))
    for k, (_, v_last) in sweep.endpoint_bases.items():
        assert abs(np.vdot(v_last[:, 0], sweep.evolved[k][:, 0])) ** 2 >= 0.99


# The sweep against an integrator that shares none of its steps: DOP853 at
# rtol 1e-12 on the reference ramp agrees with the K = 2 column to
# 9.1e-9 in |amplitude| and 2.3e-11 in 1 - |overlap| (the two-point
# fourth-order step: 8.0e-8 and 2.3e-11); the bounds leave a factor of 3.3
# and 4
ODE_AMPLITUDE_BOUND = 3e-8
ODE_INFIDELITY_BOUND = 1e-10


def test_sweep_matches_an_independent_ode_integrator():
    from scipy.integrate import solve_ivp

    # the dense Hamiltonian of the whole space, H = delta N_c + xi X, split
    # into its detuning and coupling parts; no sector decomposition
    space = TwoModeSpace(FockDim(4), FockDim(2))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    coupling = RotatingFrameHamiltonian(XI, 0.0, space).matrix
    number = RotatingFrameHamiltonian(0.0, 1.0, space).matrix

    def rhs(t, y):
        return -1j * (sched.delta_at(t) * (number @ y) + coupling @ y)

    sweep = sweep_unitaries(space, XI, sched, sector_ks=[2])
    indices = block_decompose(space).by_k(2).indices
    start = np.zeros(space.dim, dtype=complex)
    start[indices] = sweep.endpoint_bases[2][0][:, 0]
    sol = solve_ivp(rhs, (0.0, sched.duration), start, method="DOP853",
                    rtol=1e-12, atol=1e-13)
    assert sol.success
    final = sol.y[:, -1]
    marched = np.zeros(space.dim, dtype=complex)
    marched[indices] = sweep.evolved[2][:, 0]
    assert np.abs(np.abs(final) - np.abs(marched)).max() < ODE_AMPLITUDE_BOUND
    assert 1.0 - abs(np.vdot(final, marched)) < ODE_INFIDELITY_BOUND


# The K = 2, 4, 6 and 8 columns of 12 x 6 through the reference ramp against
# DOP853 at rtol = atol = 1e-12, whose own error is about 1.3e-8 here: the
# sweep's columns lie 2.2e-8 from it at the default step (4.4e-7 with the
# two-point fourth-order step) and 3.6e-6 at twice that step
DOP853_COLUMN_BOUNDS = {1: 5e-8, 2: 1e-5}


@pytest.mark.slow
def test_sweep_columns_match_dop853_at_one_and_two_default_steps():
    from scipy.integrate import solve_ivp

    space = TwoModeSpace(FockDim(12), FockDim(6))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    ks = [2, 4, 6, 8]
    coupling = RotatingFrameHamiltonian(XI, 0.0, space).matrix
    number = RotatingFrameHamiltonian(0.0, 1.0, space).matrix
    decomp = block_decompose(space)
    step = default_step(XI, sched)
    sweeps = {f: sweep_unitaries(space, XI, sched, step=f * step, sector_ks=ks)
              for f in DOP853_COLUMN_BOUNDS}
    start = np.zeros((space.dim, len(ks)), dtype=complex)
    for i, k in enumerate(ks):
        start[decomp.by_k(k).indices, i] = sweeps[1].endpoint_bases[k][0][:, 0]

    def rhs(t, y):
        y = y.reshape(space.dim, -1)
        return (-1j * (sched.delta_at(t) * (number @ y) + coupling @ y)).ravel()

    sol = solve_ivp(rhs, (0.0, sched.duration), start.ravel(), method="DOP853",
                    rtol=1e-12, atol=1e-12)
    assert sol.success
    final = sol.y[:, -1].reshape(space.dim, -1)
    for f, bound in DOP853_COLUMN_BOUNDS.items():
        err = max(np.abs(sweeps[f].evolved[k][:, 0]
                         - final[decomp.by_k(k).indices, i]).max()
                  for i, k in enumerate(ks))
        assert err < bound, (f, err)


def test_one_sector_unitary_agrees_with_the_covered_set():
    # a sweep over K = 2 alone marches the K = 2 unitary alone, and it
    # agrees with the one marched together with every covered sector
    space = TwoModeSpace(FockDim(10), FockDim(6))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    alone = sweep_unitaries(space, XI, sched, sector_ks=[2]).unitaries
    full = sweep_unitaries(space, XI, sched, sector_ks=range(8)).unitaries
    assert list(alone) == [2]
    assert len(full) == 8
    assert np.abs(alone[2] - full[2]).max() < 1e-12


def test_sweep_matches_propagate():
    space = TwoModeSpace(FockDim(10), FockDim(6))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    psi = StateVector(np.kron(fock_state(space.radial, 2).amplitudes,
                              np.eye(space.axial.dim)[0]), space)
    sweep = sweep_unitaries(space, XI, sched)
    via_sweep = apply_sweep(sweep, psi)
    via_prop = march_state(psi, XI, *piecewise_deltas(
        sched, 0.0, sched.duration, default_step(XI, sched)))
    assert abs(1 - abs(np.vdot(via_sweep.amplitudes, via_prop.amplitudes)) ** 2) < 1e-10


# ---------------------------------------------------------------------------
# propagation kernel: pinned to the dense exponential and to the per-step loop


def commutator(x, y):
    return x @ y - y @ x


def magnus_exponent(hamiltonian, t, dt):
    """The anti-Hermitian exponent Omega of the three-Gauss-point
    sixth-order Magnus step over [t, t + dt] (Blanes, Casas & Ros), built
    from the matrices A_j = -i hamiltonian(t_j) at the Gauss points
    t_j = t + dt / 2 + (-1, 0, 1) dt sqrt(15) / 10, every commutator
    written out."""
    mid, offset = t + dt / 2, dt * math.sqrt(15) / 10
    a_1, a_2, a_3 = (-1j * hamiltonian(mid + k * offset) for k in (-1, 0, 1))
    alpha_1 = dt * a_2
    alpha_2 = (math.sqrt(15) * dt / 3) * (a_3 - a_1)
    alpha_3 = (10 * dt / 3) * (a_3 - 2 * a_2 + a_1)
    c_1 = commutator(alpha_1, alpha_2)
    c_2 = -commutator(alpha_1, 2 * alpha_3 + c_1) / 60
    return alpha_1 + alpha_3 / 12 + commutator(
        -20 * alpha_1 - alpha_3 + c_1, alpha_2 + c_2) / 240


def reference_sweep(space, xi, schedule, step):
    """Per-step sweep loop (one complex eigh per sector per step), kept as
    the reference for the batched kernel: the per-sector unitaries. A step
    is exp(-i H_eff), with the grid's Magnus coefficients on the sector's
    matrices H_eff = a_N N + xi^2 a_D D + xi s_0 C - xi^3 s_1 [A, D] -
    i xi r_0 A + i xi^3 r_1 [C, D], A = [N, C] and D = [C, A] / 2, the
    commutators written out rather than reduced to a twist."""
    _, coefs = piecewise_deltas(schedule, 0.0, schedule.duration, step)
    out = {}
    for b in block_decompose(space).blocks:
        n_c = np.diag(b.n_c_diag)
        coupling = b.hamiltonians(1.0, [0.0])[0]
        a = commutator(n_c, coupling)
        d = commutator(coupling, a) / 2
        terms = (n_c, xi ** 2 * d, xi * coupling, -xi ** 3 * commutator(a, d),
                 -1j * xi * a, 1j * xi ** 3 * commutator(coupling, d))
        u = np.eye(b.size, dtype=complex)
        for row in coefs:
            w, v = np.linalg.eigh(sum(c * term for c, term in zip(row, terms)))
            u = (v * np.exp(-1j * w)) @ (v.conj().T @ u)
        out[b.k] = u
    return out


def test_kernel_columns_match_the_dense_magnus_exponent():
    # every sector's columns of a 6 x 4 space through a short ramp: the
    # kernel's twisted tridiagonal steps against the dense exponentials of
    # the sixth-order exponent built from full-space commutators
    space = small_space(6, 4)
    sched = rc_ramp(PARKING, -PARKING, 40e-6)
    dts, coefs = piecewise_deltas(sched, 0.0, sched.duration,
                                  default_step(XI, sched))
    blocks = block_decompose(space).blocks
    cols = dynamics._march(blocks, XI, coefs, [np.eye(b.size) for b in blocks])

    def hamiltonian(t):
        return RotatingFrameHamiltonian(XI, float(sched.delta_at(t)), space).matrix

    dense = np.eye(space.dim, dtype=complex)
    for t, dt in zip(np.concatenate([[0.0], np.cumsum(dts)[:-1]]), dts):
        dense = scipy.linalg.expm(magnus_exponent(hamiltonian, t, dt)) @ dense
    assert dts.size > 100
    for b, col in zip(blocks, cols):
        assert np.abs(col - dense[np.ix_(b.indices, b.indices)]).max() < 1e-12


@given(st.integers(2, 10), st.integers(2, 8))
@settings(max_examples=30, deadline=None)
def test_sector_commutators_close_on_tridiagonal_matrices(dr, da):
    # n_c rises by one along every sector, so with A = [N, C]: [N, A] = C
    # and [C, A] = 2 diag(c_i^2 - c_{i-1}^2), truncated sectors included
    for b in block_decompose(small_space(dr, da)).blocks:
        n_c = np.diag(b.n_c_diag)
        coupling = b.hamiltonians(1.0, [0.0])[0]
        a = commutator(n_c, coupling)
        squares = np.diff(b.coupling_offdiag ** 2, prepend=0.0, append=0.0)
        scale = 1e-13 * max(1.0, float(np.abs(squares).max()))
        assert np.abs(commutator(n_c, a) - coupling).max() <= scale
        assert np.abs(commutator(coupling, a) - 2 * np.diag(squares)).max() <= scale


# per-sector chunk budgets from one step per chunk up to the default
chunk_budgets = st.sampled_from([64, 64 * 16, dynamics.CHUNK_BYTES])


@given(st.integers(4, 8), st.integers(3, 4), detunings, detunings,
       st.floats(20e-6, 200e-6), st.integers(1, 40), st.integers(0, 1000),
       chunk_budgets, st.booleans())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_dense_expm_product(dr, da, d0, d1, tau, n_steps, seed,
                                           budget, magnus):
    # the Magnus steps are the dense exponentials of the Magnus exponent,
    # built on the full space from the Gauss-point Hamiltonians; held steps
    # the exponentials exp(-i H(delta) dt) at the steps' midpoints
    space = small_space(dr, da)
    sched = rc_ramp(d0, d1, tau)
    dts, coefs = piecewise_deltas(sched, 0.0, n_steps * tau / 50, tau / 50)
    starts = np.concatenate([[0.0], np.cumsum(dts)[:-1]])
    deltas = sched.delta_at(starts + dts / 2)
    if not magnus:
        coefs = held_steps(deltas, dts)[1]
    psi = random_state(space, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "CHUNK_BYTES", budget)
        out = march_state(psi, XI, dts, coefs).amplitudes

    def hamiltonian(t):
        return RotatingFrameHamiltonian(XI, float(sched.delta_at(t)), space).matrix

    dense = psi.amplitudes
    for t, delta, dt in zip(starts, deltas, dts):
        omega = (magnus_exponent(hamiltonian, t, dt) if magnus
                 else -1j * dt * RotatingFrameHamiltonian(XI, delta, space).matrix)
        dense = scipy.linalg.expm(omega) @ dense
    assert np.abs(out - dense).max() < 1e-10
    k_vec = space.k_values()
    pops_in, pops_out = np.abs(psi.amplitudes) ** 2, np.abs(out) ** 2
    assert abs(pops_out.sum() - 1.0) < 1e-12
    assert abs(pops_out @ k_vec - pops_in @ k_vec) < 1e-12


# a 1000x weaker coupling makes the crossings narrower than a step, so the
# sweep is far from adiabatic
@given(st.integers(4, 8), st.integers(3, 4), detunings, detunings,
       st.floats(10e-6, 40e-6), st.sampled_from([XI, XI / 1000]), chunk_budgets)
@settings(max_examples=15, deadline=None)
def test_sweep_matches_per_step_reference(dr, da, d0, d1, tau, xi, budget):
    space = small_space(dr, da)
    sched = rc_ramp(d0, d1, tau)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "CHUNK_BYTES", budget)
        sweep = sweep_unitaries(space, xi, sched)
    ref = reference_sweep(space, xi, sched, sweep.step)
    assert sweep.unitaries.keys() == ref.keys()
    for k, u in ref.items():
        assert np.abs(sweep.unitaries[k] - u).max() < 1e-12


# sector sets of mixed sizes, both signs of the start detuning (which
# decides the evolved columns), and chunks down to a single step
@given(st.integers(4, 8), st.integers(3, 4), st.data(),
       st.sampled_from([1.0, -1.0]), st.floats(TWO_PI * 5e3, TWO_PI * 40e3),
       detunings, st.floats(10e-6, 40e-6), st.sampled_from([XI, XI / 1000]),
       chunk_budgets)
@settings(max_examples=20, deadline=None)
def test_lockstep_columns_match_per_step_reference(dr, da, data, sign, d0, d1,
                                                    tau, xi, budget):
    space = small_space(dr, da)
    all_ks = [b.k for b in block_decompose(space).blocks]
    ks = data.draw(st.lists(st.sampled_from(all_ks), min_size=1, unique=True))
    sched = rc_ramp(sign * d0, d1, tau)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "CHUNK_BYTES", budget)
        sweep = sweep_unitaries(space, xi, sched, sector_ks=ks)
    ref = reference_sweep(space, xi, sched, sweep.step)
    assert sorted(sweep.evolved) == sorted(ks)
    starts = [0] if sign > 0 else [0, -1]
    for k in ks:
        expected = ref[k] @ sweep.endpoint_bases[k][0][:, starts]
        assert np.abs(sweep.evolved[k] - expected).max() < 1e-12
    assert "unitaries" not in vars(sweep)


def counted_shares(monkeypatch):
    """Wrap `dynamics._split` to record, per march, the number of bins and
    the number of shares they are split into."""
    split, calls = dynamics._split, []

    def recorded(costs, n):
        calls.append((len(costs), n))
        return split(costs, n)

    monkeypatch.setattr(dynamics, "_split", recorded)
    return calls


# each share of the bins runs in a thread of its own; the number of shares
# must not change a single bit of the result. The sector set holds more rows
# than two bins of the widest sector, so it fills at least three bins. A
# short switch interval interleaves the threads as finely as the interpreter
# can.
@given(st.integers(4, 8), st.integers(3, 4), st.data(),
       st.sampled_from([1.0, -1.0]), st.floats(TWO_PI * 5e3, TWO_PI * 40e3),
       detunings, st.floats(10e-6, 40e-6), st.sampled_from([XI, XI / 1000]),
       chunk_budgets)
@settings(max_examples=15, deadline=None)
def test_sweep_does_not_depend_on_worker_count(dr, da, data, sign, d0, d1, tau,
                                               xi, budget):
    space = small_space(dr, da)
    size_of = {b.k: b.size for b in block_decompose(space).blocks}
    widest = max(size_of.values())
    ks = set(data.draw(st.lists(st.sampled_from(list(size_of)), unique=True)))
    ks |= {k for k, s in size_of.items() if s == widest}
    for k in size_of:
        if sum(size_of[j] for j in ks) > 2 * widest:
            break
        ks.add(k)
    ks = sorted(ks)
    sched = rc_ramp(sign * d0, d1, tau)
    sweeps = []
    interval = sys.getswitchinterval()
    try:
        sys.setswitchinterval(1e-6)
        for workers in (1, 2, 3):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(dynamics, "CHUNK_BYTES", budget)
                mp.setattr(dynamics, "SHARE_WORK", 1)
                mp.setattr(dynamics, "_worker_count", lambda: workers)
                shares = counted_shares(mp)
                sweeps.append(sweep_unitaries(space, xi, sched, sector_ks=ks))
            assert [n for _, n in shares] == [workers]
            assert shares[0][0] >= 3
    finally:
        sys.setswitchinterval(interval)
    one = sweeps[0]
    for other in sweeps[1:]:
        for k in ks:
            assert np.array_equal(one.evolved[k], other.evolved[k])


class SlowSubmit(ThreadPoolExecutor):
    """Lets another march submit its tasks between two of this one's."""

    def submit(self, *args, **kwargs):
        future = super().submit(*args, **kwargs)
        time.sleep(1e-3)
        return future


def test_concurrent_sweeps_share_the_workers(monkeypatch):
    # more marches than cores, each with a worker thread of its own, started
    # together and switching as often as the interpreter allows, a few
    # batches each: each must finish and give the result of a march run
    # alone
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 1 << 19)
    monkeypatch.setattr(dynamics, "SHARE_WORK", 1)
    monkeypatch.setattr(dynamics, "_worker_count", lambda: 2)
    monkeypatch.setattr(dynamics, "ThreadPoolExecutor", SlowSubmit)
    space = small_space(8, 4)
    sched = rc_ramp(PARKING, -PARKING, 40e-6)
    alone = sweep_unitaries(space, XI, sched)
    results = [[] for _ in range(8)]

    def run(i):
        for _ in range(10):
            results[i].append(sweep_unitaries(space, XI, sched))

    interval = sys.getswitchinterval()
    threads = [threading.Thread(target=run, args=(i,), daemon=True)
               for i in range(len(results))]
    try:
        sys.setswitchinterval(1e-6)
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for sweeps in results:
        assert len(sweeps) == 10
        for sweep in sweeps:
            for k, col in alone.evolved.items():
                assert np.array_equal(sweep.evolved[k], col)


def _sweep_matches(space, sched, expected):
    sweep = sweep_unitaries(space, XI, sched)
    same = all(np.array_equal(sweep.evolved[k], col) for k, col in expected.items())
    sys.exit(0 if same else 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_forked_child_starts_its_own_workers(monkeypatch):
    # the child inherits none of the parent's threads
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 64 * 16)
    monkeypatch.setattr(dynamics, "SHARE_WORK", 1)
    monkeypatch.setattr(dynamics, "_worker_count", lambda: 2)
    space = small_space(8, 4)
    sched = rc_ramp(PARKING, -PARKING, 40e-6)
    expected = sweep_unitaries(space, XI, sched).evolved
    child = multiprocessing.get_context("fork").Process(
        target=_sweep_matches, args=(space, sched, expected))
    child.start()
    child.join(timeout=60)
    if child.is_alive():
        child.kill()
        child.join()
    assert child.exitcode == 0


def test_worker_error_reaches_the_caller(monkeypatch):
    space = small_space(8, 4)
    sched = rc_ramp(PARKING, -PARKING, 40e-6)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 64 * 16)
    monkeypatch.setattr(dynamics, "SHARE_WORK", 1)
    monkeypatch.setattr(dynamics, "_worker_count", lambda: 2)
    eigh = np.linalg.eigh
    calls = []

    def failing(a, *args, **kwargs):
        calls.append(None)
        if len(calls) == 20:
            raise np.linalg.LinAlgError("injected")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    raised = []

    def run():
        try:
            sweep_unitaries(space, XI, sched)
        except NumericalContractError as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    # sweep_unitaries reports the worker's LinAlgError as a contract error
    assert [str(exc) for exc in raised] == [
        "sweep eigendecomposition failed: injected"]
    monkeypatch.setattr(np.linalg, "eigh", eigh)
    # the workers are free again
    assert sweep_unitaries(space, XI, sched).evolved


def eigh_threads():
    return [t for t in threading.enumerate()
            if t.name.startswith("trilinear-eigh")]


def test_worker_error_stops_the_other_shares(monkeypatch):
    # a share that raises stops the calling thread's share at its next
    # batch: the caller finishes at most the batch it is in (and one more
    # that it may start before the failure is posted), not its whole march
    space = small_space(8, 4)
    sched = rc_ramp(PARKING, -PARKING, 40e-6)
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 64 * 16)
    monkeypatch.setattr(dynamics, "SHARE_WORK", 1)
    monkeypatch.setattr(dynamics, "_worker_count", lambda: 2)
    eigh = np.linalg.eigh
    caller = threading.current_thread()
    failed, after = threading.Event(), []

    def failing(a, *args, **kwargs):
        if threading.current_thread() is caller:
            if failed.is_set():
                after.append(None)
            else:
                time.sleep(1e-3)
        else:
            failed.set()
            raise np.linalg.LinAlgError("injected")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericalContractError, match="injected"):
        sweep_unitaries(space, XI, sched)
    n_sizes = len({b.size for b in block_decompose(space).blocks})
    assert len(after) <= 2 * n_sizes
    assert not eigh_threads()


def test_no_worker_thread_outlives_its_sweep(monkeypatch):
    # each call owns its worker threads and joins them before it returns,
    # whether it returns or raises
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 64 * 16)
    monkeypatch.setattr(dynamics, "SHARE_WORK", 1)
    monkeypatch.setattr(dynamics, "_worker_count", lambda: 2)
    space = small_space(8, 4)
    sched = rc_ramp(PARKING, -PARKING, 40e-6)
    started = []
    eigh = np.linalg.eigh

    def watched(a, *args, **kwargs):
        started.extend(t.name for t in eigh_threads())
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", watched)
    sweep_unitaries(space, XI, sched)
    assert started  # the sweep did run on worker threads
    assert not eigh_threads()

    def failing(a, *args, **kwargs):
        if threading.current_thread().name.startswith("trilinear-eigh"):
            raise np.linalg.LinAlgError("injected")
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", failing)
    with pytest.raises(NumericalContractError, match="injected"):
        sweep_unitaries(space, XI, sched)
    assert not eigh_threads()


def test_kernel_memory_stays_within_the_budget(monkeypatch):
    # each share holds one batch of steps at a time, so a ramp four times
    # longer needs no more memory
    monkeypatch.setattr(dynamics, "CHUNK_BYTES", 1 << 20)
    monkeypatch.setattr(dynamics, "SHARE_WORK", 1)
    monkeypatch.setattr(dynamics, "_worker_count", lambda: 2)
    blocks = block_decompose(small_space(8, 4)).blocks
    cols = [np.eye(b.size) for b in blocks]
    # tau_rc / 50 = 1e-7 s, so that the grid is uniform
    sched = rc_ramp(PARKING, -PARKING, 5e-6)
    dynamics._march(blocks, XI, piecewise_deltas(sched, 0.0, 1e-7, 1e-7)[1],
                    cols)  # warm up
    peaks = []
    for n_steps in (1000, 4000):
        # Magnus steps, whose twists differ from row to row
        coefs = piecewise_deltas(sched, 0.0, n_steps * 1e-7, 1e-7)[1]
        assert coefs.shape == (n_steps, 6)
        tracemalloc.start()
        try:
            dynamics._march(blocks, XI, coefs, cols)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] < 1.25 * peaks[0]
    assert peaks[1] < 1.5 * dynamics.CHUNK_BYTES


@pytest.mark.parametrize("workers", [1, 2])
def test_reference_sweep_stays_within_the_budget(monkeypatch, workers):
    # the reference 40x20 sweep of the Wigner readout's 22 sectors: the
    # kernel's stacks stay within CHUNK_BYTES, and within 12 MiB however
    # CHUNK_BYTES is set, whatever the share count, beside the start and
    # evolved columns and the sweep's own arrays
    monkeypatch.setattr(dynamics, "_worker_count", lambda: workers)
    space = TwoModeSpace(FockDim(40), FockDim(20))
    ks = np.flatnonzero(wigner_sweep_needed(space))
    assert ks.size == 22
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    tracemalloc.start()
    try:
        sweep = sweep_unitaries(space, XI, sched, sector_ks=ks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the columns, in and out, and the march's two stacks of them; the
    # grid's durations and coefficients and the endpoint bases
    columns = 4 * 16 * space.dim * 2
    arrays = sweep.dts.nbytes + sweep.coefs.nbytes + sum(
        v0.nbytes + v1.nbytes for v0, v1 in sweep.endpoint_bases.values())
    assert peak <= min(dynamics.CHUNK_BYTES, 12 << 20) + columns + arrays


def test_sweep_batches_eigh_in_bounded_chunks(monkeypatch):
    space = small_space(8, 4)
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    eigh = np.linalg.eigh
    stacks = []

    def counted(a, *args, **kwargs):
        stacks.append(np.asarray(a).nbytes)
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", counted)
    sweep = sweep_unitaries(space, XI, sched)
    grid = piecewise_deltas(sched, 0.0, sched.duration, sweep.step)
    for got, expected in zip((sweep.dts, sweep.coefs), grid):
        assert np.array_equal(got, expected)
    n_steps = grid[0].size
    # endpoint_bases, not unitaries: reading those would march them now
    n_sectors = len(sweep.endpoint_bases)
    assert n_steps > 1000
    assert len(stacks) < n_sectors * n_steps / 100
    assert max(stacks) <= dynamics.CHUNK_BYTES // 8

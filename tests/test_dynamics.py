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
    StateVector,
    TruncationLeakError,
    TwoModeSpace,
    block_decompose,
    build_hamiltonian,
    cat_state,
    coherent_state,
    default_step,
    embed_radial,
    fock_state,
    phase_space_grid,
    product_state,
    propagate,
    rc_ramp,
    slow_sweep,
    sweep_unitaries,
    wigner_scan,
    wigner_sweep_needed,
)
from trilinear import dynamics
from trilinear.dynamics import apply_piecewise, piecewise_deltas
from trilinear.errors import NumericalContractError, StepPolicyError
from trilinear.trap import mode_params

from sector_reference import apply_sweep

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
    h = build_hamiltonian(0.0, 3.0, space).matrix.matrix
    occ = space.occupations()
    assert np.allclose(h, np.diag(3.0 * occ[:, 1]), atol=1e-15)
    assert np.allclose(np.linalg.eigvalsh(h), np.sort(3.0 * occ[:, 1]))


def test_two_phonon_sector_matrix_element():
    # <0,1| a^2 c^dag |2,0> = sqrt(2); diagonal (0, delta)
    xi, delta = 1.7, 0.3
    block = block_decompose(small_space()).by_k(2)
    expect = np.array([[0.0, math.sqrt(2) * xi], [math.sqrt(2) * xi, delta]])
    assert np.allclose(block.hamiltonian(xi, delta), expect, atol=1e-15)


def test_block_matches_dense_submatrix():
    space = small_space()
    h = build_hamiltonian(1.3, -0.7, space).matrix.matrix
    for block in block_decompose(space).blocks:
        sub = h[np.ix_(block.indices, block.indices)]
        assert np.allclose(sub, block.hamiltonian(1.3, -0.7), atol=1e-14)


def test_hamiltonian_commutes_with_weight_exactly():
    space = small_space()
    h = build_hamiltonian(2.0, 1.0, space).matrix.matrix
    k = np.diag(space.k_values().astype(float))
    assert np.abs(h @ k - k @ h).max() == 0.0


def test_single_phonon_is_exact_eigenstate():
    space = small_space()
    ham = build_hamiltonian(XI, 0.0, space)
    psi = product_state(space, 1, 0)
    traj = propagate(psi, ham, 5e-3, sample_times=np.linspace(0, 5e-3, 11),
                     tracked=((1, 0),))
    assert np.abs(traj.populations[:, 0] - 1.0).max() < 1e-12


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
    assert list(decomp.k_values) == brute
    assert len(decomp.k_values) == dr + 2 * (da - 1)


@given(st.integers(2, 10), st.integers(2, 8))
@settings(max_examples=30)
def test_sectors_partition_basis(dr, da):
    space = TwoModeSpace(FockDim(dr), FockDim(da))
    seen = np.concatenate([b.indices for b in block_decompose(space).blocks])
    assert sorted(seen.tolist()) == list(range(space.dim))


# ---------------------------------------------------------------------------
# the K index: which sectors a state populates


def scanned_blocks(amp, space):
    """The sectors holding a nonzero amplitude, by the per-block scan that
    the K index replaced."""
    return [b for b in block_decompose(space).blocks
            if np.any(np.abs(amp[b.indices]) > 0.0)]


# exact zeros, the smallest subnormal (its modulus is still above 0) and
# ordinary amplitudes
amplitude_values = st.sampled_from([0.0, 5e-324, -5e-324j, 1e-200, 1.0, 0.6 - 0.8j])


@st.composite
def sparse_states(draw, dims=(st.integers(2, 12), st.integers(2, 8))):
    space = small_space(draw(dims[0]), draw(dims[1]))
    amp = np.zeros(space.dim, dtype=complex)
    for i, value in draw(st.dictionaries(st.integers(0, space.dim - 1),
                                         amplitude_values, max_size=12)).items():
        amp[i] = value
    return space, amp


def one_sector_state(dr, da, k, first=1.0):
    """Sector K = k alone populated: `first` in its first state, the
    smallest subnormal in the others."""
    space = small_space(dr, da)
    amp = np.zeros(space.dim, dtype=complex)
    indices = block_decompose(space).by_k(k).indices
    amp[indices] = 5e-324
    amp[indices[0]] = first
    return space, amp


def normalized(space, amp):
    norm = np.linalg.norm(amp)
    assume(norm > 0)
    return StateVector(amp / norm, space)


def every_sector_state(dr, da):
    space = small_space(dr, da)
    return space, random_state(space).amplitudes


@given(sparse_states())
@example((small_space(2, 2), np.zeros(4, dtype=complex)))
@example(one_sector_state(6, 4, 5, first=5e-324))
@example(one_sector_state(12, 8, 0))
@example(every_sector_state(12, 8))
@example(every_sector_state(2, 5))
@settings(max_examples=100, deadline=None)
def test_populated_blocks_match_the_per_block_scan(state):
    space, amp = state
    found = dynamics._populated_blocks(amp, space)
    expected = scanned_blocks(amp, space)
    assert [b.k for b in found] == [b.k for b in expected]
    assert all(f is e for f, e in zip(found, expected))


@given(st.integers(2, 10), st.integers(2, 8))
@settings(max_examples=30)
def test_k_index_matches_the_blocks(dr, da):
    space = small_space(dr, da)
    decomp = block_decompose(space)
    assert np.array_equal(decomp.k_of, space.k_values())
    for b in decomp.blocks:
        assert decomp.by_k(b.k) is b
        assert decomp.by_k(np.int64(b.k)) is b
        assert np.all(decomp.k_of[b.indices] == b.k)


def test_by_k_refuses_a_missing_k():
    decomp = block_decompose(small_space(4, 3))
    top = max(decomp.k_values)
    for k in (-1, top + 1, 100):
        with pytest.raises(KeyError, match=f"no K = {k} sector"):
            decomp.by_k(k)


def march_scanned(amp, space, xi, deltas, dts, gammas=None):
    """`amp` marched on the sectors the per-block scan finds: the
    composition that apply_piecewise and propagate must reproduce."""
    amp = amp.copy()
    blocks = scanned_blocks(amp, space)
    evolved = dynamics._march(blocks, xi, deltas, dts,
                              [amp[b.indices] for b in blocks], gammas)
    for b, sub in zip(blocks, evolved):
        amp[b.indices] = sub
    return amp


@given(sparse_states((st.integers(4, 8), st.integers(3, 4))))
@example(one_sector_state(6, 4, 5))
@example(every_sector_state(6, 3))
@settings(max_examples=15, deadline=None)
def test_applying_steps_composes_the_scanned_sectors(state):
    space, amp = state
    psi = normalized(space, amp)
    amp = psi.amplitudes
    # the first 40 us of a ramp, about 40 graded steps; samples at 20, 50 us
    sched = rc_ramp(PARKING, -PARKING, 100e-6)
    deltas, dts, gammas = piecewise_deltas(sched, 0.0, 40e-6, 1e-6)
    for twists in (gammas, None):
        out = apply_piecewise(psi, XI, deltas, dts, twists)
        assert np.array_equal(out.amplitudes,
                              march_scanned(amp, space, XI, deltas, dts, twists))

    # propagate marches each interval between samples on the same sectors
    times = [0.0, 20e-6, 50e-6]
    ham = build_hamiltonian(XI, PARKING, space)
    traj = propagate(psi, ham, schedule=sched, step=1e-6, sample_times=times,
                     t_final=times[-1], strict_leak=False)
    const = propagate(psi, ham, times[-1], sample_times=times, strict_leak=False)
    ramped, flat = amp, amp
    for i, (t0, t1) in enumerate(zip(times, times[1:])):
        ramped = march_scanned(ramped, space, XI,
                               *piecewise_deltas(sched, t0, t1, 1e-6))
        flat = march_scanned(flat, space, XI, [PARKING], [t1 - t0])
        assert np.array_equal(traj.amplitudes[i + 1], ramped)
        assert np.array_equal(const.amplitudes[i + 1], flat)


# ---------------------------------------------------------------------------
# constant-detuning propagation


def test_resonant_two_phonon_rabi():
    space = small_space()
    ham = build_hamiltonian(XI, 0.0, space)
    psi = product_state(space, 2, 0)
    times = np.linspace(0, 5 * math.pi / (math.sqrt(2) * XI), 161)
    traj = propagate(psi, ham, times[-1], sample_times=times,
                     tracked=((2, 0), (0, 1)))
    analytic = np.sin(math.sqrt(2) * XI * times) ** 2
    assert np.abs(traj.populations[:, 1] - analytic).max() < 1e-6
    assert np.abs(traj.populations[:, 0] - (1 - analytic)).max() < 1e-6


def test_full_transfer_time():
    space = small_space()
    ham = build_hamiltonian(XI, 0.0, space)
    psi = product_state(space, 2, 0)
    t_swap = math.pi / (2 * math.sqrt(2) * XI)
    traj = propagate(psi, ham, t_swap, sample_times=[t_swap], tracked=((0, 1),))
    assert traj.populations[-1, 0] == pytest.approx(1.0, abs=1e-10)


def test_detuned_transfer_suppression():
    # two-level maximum transfer g^2 / (g^2 + (delta/2)^2) with g = sqrt(2) xi,
    # i.e. (2 sqrt2 xi)^2 / ((2 sqrt2 xi)^2 + delta^2), reached at t = pi/2Omega
    space = small_space()
    delta = PARKING
    ham = build_hamiltonian(XI, delta, space)
    psi = product_state(space, 2, 0)
    g = math.sqrt(2) * XI
    omega = math.sqrt(g**2 + (delta / 2) ** 2)
    t_peak = math.pi / (2 * omega)
    traj = propagate(psi, ham, t_peak, sample_times=[t_peak], tracked=((0, 1),))
    expect = (2 * math.sqrt(2) * XI) ** 2 / ((2 * math.sqrt(2) * XI) ** 2 + delta**2)
    assert traj.populations[-1, 0] == pytest.approx(expect, rel=1e-10)
    assert expect < 0.008  # effectively decoupled at the parking detuning


@given(st.integers(0, 1000))
@settings(max_examples=25, deadline=None)
def test_weight_conserved_and_unitary_for_random_states(seed):
    space = small_space(6, 4)
    ham = build_hamiltonian(XI, 0.5 * XI, space)
    psi = random_state(space, seed)
    traj = propagate(psi, ham, 2e-3, sample_times=np.linspace(0, 2e-3, 7),
                     strict_leak=False)
    assert np.abs(traj.norms - 1.0).max() < 1e-9
    assert np.ptp(traj.k_expect) < 1e-9


def test_block_propagation_equals_dense_exponential():
    space = small_space()  # 8 x 5
    ham = build_hamiltonian(XI, 0.4 * XI, space)
    t = 2.5 / XI
    for seed in range(5):
        psi = random_state(space, seed)
        dense = scipy.linalg.expm(-1j * ham.matrix.matrix * t) @ psi.amplitudes
        traj = propagate(psi, ham, t, sample_times=[t], strict_leak=False)
        fid = abs(np.vdot(dense, traj.amplitudes[-1])) ** 2
        assert abs(1 - fid) < 1e-10


# ---------------------------------------------------------------------------
# ramps


def test_rc_ramp_profile_points():
    ramp = rc_ramp(10.0, 2.0, tau_rc=1e-3)
    assert ramp.delta_at(0.0) == pytest.approx(10.0)
    assert ramp.delta_at(1e-3) == pytest.approx(2.0 + 8.0 / math.e)
    assert ramp.delta_at(50e-3) == pytest.approx(2.0)
    assert ramp.direction == "down"


def test_rc_ramp_duration_floor():
    with pytest.raises(ValueError):
        RampSchedule(1.0, 0.0, tau_rc=1e-3, duration=4e-3)


# the last has the default duration 5 tau_rc, NaN too
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
        rc_ramp(*values)


def test_rc_ramp_direction_tags():
    assert rc_ramp(0.0, 5.0, 1e-3).direction == "up"
    assert rc_ramp(5.0, 5.0, 1e-3).direction == "flat"
    assert rc_ramp(5.0, -5.0, 1e-3).direction == "down"


def test_propagate_sample_time_validation():
    space = small_space()
    ham = build_hamiltonian(XI, 0.0, space)
    psi = product_state(space, 1, 0)
    with pytest.raises(ValueError):
        propagate(psi, ham, 1e-3, sample_times=[2e-3])  # beyond t_final
    with pytest.raises(ValueError):
        propagate(psi, ham, 1e-3, sample_times=[5e-4, 1e-4])  # not ascending
    with pytest.raises(ValueError):
        propagate(psi, ham, None)  # t_final required without a schedule


def test_trajectory_states_accessor():
    space = small_space()
    ham = build_hamiltonian(XI, 0.0, space)
    psi = product_state(space, 2, 0)
    traj = propagate(psi, ham, 1e-4, sample_times=[0.0, 1e-4])
    states = traj.states()
    assert len(states) == 2
    assert states[0].fidelity(psi) == pytest.approx(1.0, abs=1e-12)
    assert traj.final.fidelity(states[-1]) == pytest.approx(1.0, abs=1e-12)


def test_ramp_time_scales_against_coupling():
    # adiabatic: 2 ms > 2 pi / xi ~ 0.95 ms; diabatic: 20 us << 0.95 ms
    t_coupling = TWO_PI / XI
    assert t_coupling == pytest.approx(0.9546e-3, rel=1e-3)
    assert 2e-3 > t_coupling
    assert 20e-6 < t_coupling / 10


def test_step_policy_violation_raises():
    space = small_space()
    ham = build_hamiltonian(XI, 0.0, space)
    sched = rc_ramp(PARKING, 0.0, 20e-6)
    psi = product_state(space, 2, 0)
    with pytest.raises(StepPolicyError):
        propagate(psi, ham, schedule=sched, step=1e-5)
    with pytest.raises(StepPolicyError):
        sweep_unitaries(space, XI, sched, step=1e-5)


def test_default_step_respects_both_bounds():
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    step = default_step(XI, sched)
    assert step <= 2e-3 / 50
    assert step <= TWO_PI / (12.5 * PARKING) * (1 + 1e-12)


@pytest.mark.parametrize("step", [math.nan, math.inf, -math.inf, 0.0, -1e-6])
def test_step_must_be_finite_and_positive(step):
    space = small_space()
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    ham = build_hamiltonian(XI, PARKING, space)
    with pytest.raises(StepPolicyError):
        piecewise_deltas(sched, 0.0, sched.duration, step)
    with pytest.raises(StepPolicyError):
        sweep_unitaries(space, XI, sched, step=step)
    with pytest.raises(StepPolicyError):
        propagate(product_state(space, 2, 0), ham, schedule=sched, step=step)


def gauss_points(schedule, mids, dts):
    """Mean detuning and twist of steps of durations `dts` about `mids`,
    from the detunings at their two Gauss points."""
    half = dts * (math.sqrt(3) / 6)
    later = np.asarray(schedule.delta_at(mids + half), dtype=float)
    earlier = np.asarray(schedule.delta_at(mids - half), dtype=float)
    return 0.5 * (later + earlier), (math.sqrt(3) / 12) * dts * (later - earlier)


def uniform_deltas(schedule, t0, t1, step):
    """The uniform grid of equal steps of at most `step`."""
    span = t1 - t0
    n = max(1, int(math.ceil(span / step - 1e-12)))
    mids = t0 + (np.arange(n) + 0.5) * (span / n)
    dts = np.full(n, span / n)
    deltas, gammas = gauss_points(schedule, mids, dts)
    return deltas, dts, gammas


def uniform_midpoint_deltas(schedule, t0, t1, step):
    """The uniform grid of midpoint exponentials (no twist), which the graded
    grid of Magnus steps replaced."""
    span = t1 - t0
    n = max(1, int(math.ceil(span / step - 1e-12)))
    mids = t0 + (np.arange(n) + 0.5) * (span / n)
    return (np.asarray(schedule.delta_at(mids), dtype=float),
            np.full(n, span / n), np.zeros(n))


@given(detunings, detunings, st.floats(10e-6, 5e-3), st.floats(0, 1),
       st.floats(0, 1), st.floats(0.01, 1))
@settings(max_examples=200, deadline=None)
def test_graded_grid_properties(d0, d1, tau, a, b, fraction):
    sched = rc_ramp(d0, d1, tau)
    t0, t1 = sorted((a * sched.duration, b * sched.duration))
    assume(t1 - t0 > 1e-9 * tau)
    coarsest = tau / 50
    step = coarsest * fraction
    deltas, dts, gammas = piecewise_deltas(sched, t0, t1, step)
    n = dts.size
    assert deltas.shape == gammas.shape == (n,)
    assert np.all(dts > 0)
    assert dts.sum() == pytest.approx(t1 - t0, rel=1e-12)
    assert dts.max() <= coarsest * (1 + 1e-12)
    # rounding the step count up shortens every step by at most n / (n - 1)
    assert dts.min() >= step * (n - 1) / n * (1 - 1e-12)
    nodes = t0 + np.concatenate([[0.0], np.cumsum(dts)])
    mids = 0.5 * (nodes[:-1] + nodes[1:])
    expected, twists = gauss_points(sched, mids, dts)
    scale = max(abs(d0), abs(d1), 1.0)
    assert np.allclose(deltas, expected, rtol=1e-9, atol=1e-9 * scale)
    assert np.allclose(gammas, twists, rtol=1e-9, atol=1e-9 * scale * dts.max())
    # each step spans the same share of the capped density, so dt * rho is
    # constant up to rho's change within a step (at most 1% at tau / 50)
    work = dts * dynamics._grid_density(mids / tau, step / coarsest)
    assert work.max() <= work.min() * 1.02
    if fraction == 1:
        uniform = uniform_deltas(sched, t0, t1, step)
        assert np.array_equal(deltas, uniform[0])
        assert np.array_equal(dts, uniform[1])
        assert np.array_equal(gammas, uniform[2])


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
    _, dts, _ = piecewise_deltas(sched, t0, t1, step)
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
        n = piecewise_deltas(sched, 0.0, sched.duration, step)[1].size
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
    deltas, dts, gammas = piecewise_deltas(flat, 0.0, flat.duration, step)
    assert flat.direction == "flat"
    assert np.array_equal(dts, piecewise_deltas(sloped, 0.0, tau * 5, step)[1])
    assert np.all(deltas == PARKING)
    assert np.all(gammas == 0.0)
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
    psi = embed_radial(coherent_state(space.radial, 1.2), space)
    finals = []
    for s in (step, step / 2):
        finals.append(apply_piecewise(
            psi, XI, *piecewise_deltas(sched, 0.0, sched.duration, s)))
    assert abs(1 - finals[0].fidelity(finals[1])) < 1e-8


def test_magnus_step_is_fourth_order():
    # halving every step cuts the error against a fine reference by about
    # 16 (the midpoint step's 4)
    space = TwoModeSpace(FockDim(16), FockDim(8))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    step = default_step(XI, sched)
    psi = embed_radial(coherent_state(space.radial, 1.2), space)

    def final(s):
        return apply_piecewise(
            psi, XI, *piecewise_deltas(sched, 0.0, sched.duration, s)).amplitudes

    fine = final(step / 8)
    coarse, half = (np.abs(final(s) - fine).max() for s in (step, step / 2))
    assert coarse > 1e-11
    assert coarse >= 12 * half


def test_time_reversal_returns_initial_state():
    space = TwoModeSpace(FockDim(12), FockDim(7))
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    step = default_step(XI, sched)
    deltas, dts, gammas = piecewise_deltas(sched, 0.0, sched.duration, step)
    assert np.abs(gammas).max() > 0
    psi = embed_radial(coherent_state(space.radial, 1.0), space)
    fwd = apply_piecewise(psi, XI, deltas, dts, gammas)
    back = apply_piecewise(fwd, XI, deltas[::-1], -dts[::-1], gammas[::-1])
    assert abs(1 - psi.fidelity(back)) < 1e-8
    # no steps leave the state as it is
    assert np.array_equal(apply_piecewise(psi, XI, [], []).amplitudes,
                          psi.amplitudes)


def test_ramped_trajectory_contracts():
    space = TwoModeSpace(FockDim(16), FockDim(8))
    ham = build_hamiltonian(XI, PARKING, space)
    sched = rc_ramp(PARKING, -PARKING, 2e-3)
    psi = embed_radial(coherent_state(space.radial, 1.0), space)
    traj = propagate(psi, ham, schedule=sched,
                     sample_times=np.linspace(0, sched.duration, 21))
    assert np.abs(traj.norms - 1.0).max() < 1e-9
    assert np.ptp(traj.k_expect) < 1e-9
    assert traj.max_leak < 1e-6


def test_propagate_raises_on_guard_leak():
    space = TwoModeSpace(FockDim(8), FockDim(5))
    with pytest.warns(Warning):
        hot = coherent_state(space.radial, 2.0)  # leaks into the guard band
    psi = embed_radial(hot, space)
    ham = build_hamiltonian(XI, 0.0, space)
    with pytest.raises(TruncationLeakError):
        propagate(psi, ham, 1e-4, sample_times=[0.0, 1e-4])


def test_trajectory_csv_schema(tmp_path):
    space = small_space()
    ham = build_hamiltonian(XI, 0.0, space)
    psi = product_state(space, 2, 0)
    traj = propagate(psi, ham, 1e-3, sample_times=np.linspace(0, 1e-3, 5),
                     tracked=((2, 0), (0, 1)))
    path = tmp_path / "traj.csv"
    traj.to_csv(path, comments=["ramp: none"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# ramp: none"
    assert lines[1] == "t_s,p_2_0,p_0_1,norm,K_expect"
    assert len(lines) == 2 + 5
    last = [float(x) for x in lines[-1].split(",")]
    assert last[3] == pytest.approx(1.0, abs=1e-9)
    assert last[4] == pytest.approx(2.0, abs=1e-9)


def test_state_and_operator_buffers_are_read_only():
    space = small_space()
    psi = product_state(space, 1, 0)
    with pytest.raises(ValueError):
        psi.amplitudes[0] = 1.0
    ham = build_hamiltonian(XI, 0.0, space)
    with pytest.raises(ValueError):
        ham.matrix.matrix[0, 0] = 1.0


def test_trajectory_contract_violation_detected():
    space = small_space()
    good = np.zeros((1, space.dim), dtype=complex)
    good[0, 0] = 1.0
    with pytest.raises(NumericalContractError):
        from trilinear.dynamics import Trajectory

        Trajectory(
            times=np.array([0.0]),
            amplitudes=good,
            space=space,
            tracked=(),
            populations=np.empty((1, 0)),
            k_expect=np.array([0.0]),
            norms=np.array([1.0 + 1e-6]),
            max_leak=0.0,
        )


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
    ham = build_hamiltonian(XI, PARKING, space)
    psi = embed_radial(fock_state(space.radial, 2), space)
    sweep = sweep_unitaries(space, XI, sched)
    via_sweep = apply_sweep(sweep, psi)
    via_prop = propagate(psi, ham, schedule=sched,
                         sample_times=[sched.duration]).final
    assert abs(1 - via_sweep.fidelity(via_prop)) < 1e-10


# ---------------------------------------------------------------------------
# propagation kernel: pinned to the dense exponential and to the per-step loop


def magnus_hamiltonian(hamiltonian, t, dt):
    """The Hermitian H_eff whose exponential exp(-i H_eff dt) is the
    two-Gauss-point fourth-order Magnus step over [t, t + dt]:
    H_eff = (H_+ + H_-) / 2 - i (sqrt(3) dt / 12) [H_+, H_-], with
    H_+- = hamiltonian(t + dt / 2 +- dt sqrt(3) / 6), the commutator
    written out."""
    mid, half = t + dt / 2, dt * math.sqrt(3) / 6
    later, earlier = hamiltonian(mid + half), hamiltonian(mid - half)
    return 0.5 * (later + earlier) - 1j * (math.sqrt(3) * dt / 12) * (
        later @ earlier - earlier @ later)


def reference_sweep(space, xi, schedule, step):
    """Per-step sweep loop (one complex eigh per sector per step), kept as
    the reference for the batched kernel: the per-sector unitaries. A step
    is exp(-i H_eff dt), with the Magnus H_eff = delta N + xi C +
    i gamma xi [C, N] of the grid's mean detuning and twist, the commutator
    written out rather than reduced to a twist."""
    deltas, dts, gammas = piecewise_deltas(schedule, 0.0, schedule.duration, step)
    out = {}
    for b in block_decompose(space).blocks:
        n_c = np.diag(b.n_c_diag)
        commutator = b.coupling @ n_c - n_c @ b.coupling
        u = np.eye(b.size, dtype=complex)
        for delta, dt, gamma in zip(deltas, dts, gammas):
            h_eff = b.hamiltonian(xi, float(delta)) + 1j * gamma * xi * commutator
            w, v = np.linalg.eigh(h_eff)
            u = (v * np.exp(-1j * w * dt)) @ (v.conj().T @ u)
        out[b.k] = u
    return out


# per-sector chunk budgets from one step per chunk up to the default
chunk_budgets = st.sampled_from([64, 64 * 16, dynamics.CHUNK_BYTES])


@given(st.integers(4, 8), st.integers(3, 4), detunings, detunings,
       st.floats(20e-6, 200e-6), st.integers(1, 40), st.integers(0, 1000),
       chunk_budgets, st.booleans())
@settings(max_examples=40, deadline=None)
def test_kernel_matches_dense_expm_product(dr, da, d0, d1, tau, n_steps, seed,
                                           budget, magnus):
    # with the twists, the steps are the dense exponentials of the Magnus
    # exponent, built on the full space from the Gauss-point Hamiltonians;
    # without them, the exponentials exp(-i H(delta) dt)
    space = small_space(dr, da)
    sched = rc_ramp(d0, d1, tau)
    deltas, dts, gammas = piecewise_deltas(sched, 0.0, n_steps * tau / 50, tau / 50)
    psi = random_state(space, seed)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(dynamics, "CHUNK_BYTES", budget)
        out = apply_piecewise(psi, XI, deltas, dts,
                              gammas if magnus else None).amplitudes

    def hamiltonian(t):
        return build_hamiltonian(XI, float(sched.delta_at(t)), space).matrix.matrix

    dense = psi.amplitudes
    starts = np.concatenate([[0.0], np.cumsum(dts)[:-1]])
    for t, delta, dt in zip(starts, deltas, dts):
        h = (magnus_hamiltonian(hamiltonian, t, dt) if magnus
             else build_hamiltonian(XI, delta, space).matrix.matrix)
        dense = scipy.linalg.expm(-1j * h * dt) @ dense
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
    all_ks = block_decompose(space).k_values
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
        except np.linalg.LinAlgError as exc:
            raised.append(exc)

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    thread.join(timeout=60)
    assert not thread.is_alive()
    assert [str(exc) for exc in raised] == ["injected"]
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
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
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
    with pytest.raises(np.linalg.LinAlgError, match="injected"):
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
    dynamics._march(blocks, XI, [PARKING], [1e-7], cols)  # warm up
    peaks = []
    for n_steps in (1000, 4000):
        deltas = np.linspace(PARKING, -PARKING, n_steps)
        dts = np.full(n_steps, 1e-7)
        tracemalloc.start()
        try:
            dynamics._march(blocks, XI, deltas, dts, cols)
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
    # grid's three arrays and the endpoint bases
    columns = 4 * 16 * space.dim * 2
    arrays = 3 * sweep.dts.nbytes + sum(
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
    for got, expected in zip((sweep.deltas, sweep.dts, sweep.gammas), grid):
        assert np.array_equal(got, expected)
    n_steps = grid[1].size
    # endpoint_bases, not unitaries: reading those would march them now
    n_sectors = len(sweep.endpoint_bases)
    assert n_steps > 1000
    assert len(stacks) < n_sectors * n_steps / 100
    assert max(stacks) <= dynamics.CHUNK_BYTES // 8

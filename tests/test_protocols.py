"""Measurement protocols: channel, parity sweep, spectra, Wigner scans."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from trilinear import (
    FockDim,
    MeasurementModel,
    StateVector,
    TruncationLeakWarning,
    TwoModeSpace,
    avoided_crossing_spectrum,
    axial_distribution,
    block_decompose,
    cat_state,
    coherent_state,
    fock_state,
    fock_wigner_closed_form,
    measurement_channel,
    mode_params,
    oscillation_experiment,
    radial_cut,
    rc_ramp,
    slow_sweep,
    sweep_unitaries,
    wigner_oracle,
    wigner_scan,
    wigner_sweep_needed,
)
from trilinear import protocols
from trilinear.fock import (
    GUARD_LEAK_THRESHOLD,
    _displacement_matrix,
    displaced_amplitudes,
    guard_leak,
)
from trilinear.protocols import (
    READOUT_BIAS_TOLERANCE,
    normal_mode_populations,
    phase_space_grid,
    spectrum_to_csv,
)

from fit_reference import reference_fit_tone
from sector_reference import apply_sweep, normal_mode_embedding

TWO_PI = 2 * math.pi
TWO_OVER_PI = 2 / math.pi
PARAMS = mode_params()
PARKING = TWO_PI * 35e3


@pytest.fixture(scope="module")
def space():
    return TwoModeSpace(FockDim(40), FockDim(20))


@pytest.fixture(scope="module")
def schedule():
    return slow_sweep()


@pytest.fixture(scope="module")
def sweep(space, schedule):
    return sweep_unitaries(space, PARAMS.xi, schedule,
                           sector_ks=range(space.radial.dim))


def cat_wigner_closed_form(gamma: complex, alpha: float, sign: int) -> float:
    """Oracle: three-Gaussian form for a real-amplitude cat
    N (|alpha> + sign |-alpha>)."""
    n2 = 1.0 / (2 * (1 + sign * math.exp(-2 * alpha**2)))
    direct = math.exp(-2 * abs(gamma - alpha) ** 2) + math.exp(
        -2 * abs(gamma + alpha) ** 2
    )
    fringe = 2 * sign * math.exp(-2 * abs(gamma) ** 2) * math.cos(4 * alpha * gamma.imag)
    return TWO_OVER_PI * n2 * (direct + fringe)


# ---------------------------------------------------------------------------
# measurement channel and parity estimator


def scalar_channel(p_phonon: float, model: MeasurementModel,
                   stream: tuple[int, ...] = ()) -> tuple[float, float, float]:
    """The channel one value at a time, the reference for the array channel:
    (p1_exact, p1_sampled, stderr), drawn from the stream (seed, *stream)."""
    if not 0.0 <= p_phonon <= 1.0 + 1e-12:
        raise ValueError(f"p_phonon = {p_phonon} outside [0, 1]")
    p = min(p_phonon, 1.0)
    p1 = model.eta * p
    p1_hat = model.rng(*stream).binomial(model.shots, p1) / model.shots
    return p1, p1_hat, math.sqrt(max(p1_hat * (1.0 - p1_hat), 0.0) / model.shots)


PROBABILITIES = st.floats(0.0, 1.0) | st.just(1.0 + 1e-13)


@settings(max_examples=60, deadline=None)
@given(values=st.lists(PROBABILITIES, min_size=1, max_size=6),
       layout=st.sampled_from(["scalar", "flat", "pairs"]),
       eta=st.floats(0.01, 1.0),
       shots=st.integers(1, 1000) | st.integers(1, protocols.MAX_SHOTS),
       seed=st.integers(0, 2 ** 64),
       stream=st.lists(st.integers(0, 2 ** 32), max_size=2))
@example(values=[1.0 + 1e-13, 0.0, 1.0], layout="pairs", eta=0.86,
         shots=protocols.MAX_SHOTS, seed=0, stream=[3])
@example(values=[0.37], layout="scalar", eta=0.86, shots=500, seed=42,
         stream=[5])
def test_channel_matches_the_per_element_reference(values, layout, eta, shots,
                                                   seed, stream):
    # each value of the array draws what the scalar channel draws from the
    # stream (seed, *stream, *index), bit for bit; an exact call draws
    # nothing and returns p1_exact with no error
    p = {"scalar": values[0], "flat": np.array(values),
         "pairs": np.array(values + values).reshape(-1, 2)}[layout]
    model = MeasurementModel(eta=eta, shots=shots, seed=seed)
    got = measurement_channel(p, model, stream=tuple(stream))
    assert all(np.shape(g) == np.shape(p) for g in got)
    for idx in np.ndindex(np.shape(p)):
        want = scalar_channel(float(np.asarray(p)[idx]), model, (*stream, *idx))
        assert tuple(float(np.asarray(g)[idx]) for g in got) == want
    p1, p1_sampled, stderr = measurement_channel(p, model, exact=True)
    assert np.array_equal(p1, got[0]) and np.array_equal(p1_sampled, got[0])
    assert np.all(stderr == 0.0)


@settings(max_examples=30, deadline=None)
@given(bad=st.floats(max_value=-1e-300) | st.floats(min_value=1.0 + 2e-12)
       | st.just(math.nan),
       at=st.integers(0, 3), exact=st.booleans())
def test_channel_refuses_a_probability_outside_the_unit_interval(bad, at, exact):
    p = np.full(4, 0.5)
    p[at] = bad
    model = MeasurementModel(seed=1)
    with pytest.raises(ValueError, match="outside"):
        measurement_channel(p, model, exact=exact)
    with pytest.raises(ValueError, match="outside"):
        scalar_channel(bad, model)


def test_exact_scan_draws_nothing(monkeypatch):
    def draw(*stream):
        raise AssertionError("an exact scan drew shots")

    monkeypatch.setattr(MeasurementModel, "rng", draw)
    space = TwoModeSpace(FockDim(8), FockDim(4))
    scan = wigner_scan(fock_state(space.radial, 1), phase_space_grid(1.0, 5),
                       PARAMS.xi, space, slow_sweep(), MeasurementModel(seed=3),
                       exact=True)
    assert np.array_equal(scan.p1_sampled, scan.p1_exact)
    assert np.all(scan.stderr == 0.0)
    with pytest.raises(AssertionError, match="drew"):
        wigner_scan(fock_state(space.radial, 1), [0.0], PARAMS.xi, space,
                    slow_sweep(), MeasurementModel(seed=3))


def test_channel_full_phonon_at_paper_efficiency():
    model = MeasurementModel(eta=0.86, shots=10**6, seed=3)
    p1, p1_hat, _ = measurement_channel(1.0, model)
    assert p1 == pytest.approx(0.86, abs=1e-15)
    assert p1_hat == pytest.approx(0.86, abs=2e-3)


def test_channel_zero_phonon():
    model = MeasurementModel(eta=0.73, shots=500, seed=3)
    p1, p1_hat, stderr = measurement_channel(0.0, model)
    assert p1 == 0.0 and p1_hat == 0.0 and stderr == 0.0


def test_binomial_stderr_value():
    # the channel's stderr is the binomial error at the sampled estimate,
    # 0.025 for an estimate of 0.5 from 400 shots
    model = MeasurementModel(eta=1.0, shots=400, seed=5)
    _, p1_hat, stderr = measurement_channel(np.full(200, 0.5), model)
    assert np.array_equal(stderr, np.sqrt(p1_hat * (1 - p1_hat) / 400))
    assert stderr[p1_hat == 0.5] == pytest.approx(0.025, abs=1e-15)


def test_channel_is_deterministic_per_seed_and_stream():
    model = MeasurementModel(eta=0.86, shots=500, seed=42)
    a = measurement_channel(0.37, model, stream=(5,))
    b = measurement_channel(0.37, model, stream=(5,))
    c = measurement_channel(0.37, model, stream=(6,))
    assert a == b
    assert a != c


def origin_scan(state, space, schedule, model, exact=True, sweep=None):
    """The parity measurement: the one-point scan at alpha = 0, whose
    parity column is <P> = (pi / 2) W(0)."""
    return wigner_scan(state, [0.0], PARAMS.xi, space, schedule, model,
                       exact=exact, sweep=sweep)


def two_level_state(dim, p_one):
    """sqrt(1 - p_one) |0> + sqrt(p_one) |1>: the sweep reads sector K = 0
    exactly and K = 1 holds no radial-label-0 state, so p_phonon = p_one."""
    amp = np.zeros(dim.dim, complex)
    amp[:2] = math.sqrt(1.0 - p_one), math.sqrt(p_one)
    return StateVector(amp, dim)


def test_parity_estimate_endpoints(space, schedule, sweep):
    # <P> = 1 - 2 p1 / eta, unclamped: p1 = 0, eta and 0.5 at eta = 0.86
    model = MeasurementModel(eta=0.86)
    parity = [origin_scan(two_level_state(space.radial, p_one), space,
                          schedule, model, sweep=sweep).parity[0]
              for p_one in (0.0, 1.0, 0.5 / 0.86)]
    assert parity[0] == pytest.approx(1.0, abs=1e-15)
    assert parity[1] == pytest.approx(-1.0, abs=1e-15)
    assert parity[2] == pytest.approx(-0.16279069767, abs=1e-10)


@given(st.floats(0.5, 1.0), st.floats(0.0, 1.0))
def test_eta_correction_is_exact_inverse(space, schedule, sweep, eta, p_phonon):
    scan = origin_scan(two_level_state(space.radial, p_phonon), space,
                       schedule, MeasurementModel(eta=eta), sweep=sweep)
    assert scan.parity[0] == pytest.approx(1 - 2 * p_phonon, abs=1e-12)


def test_eta_correction_independent_of_eta_through_protocol(space, schedule,
                                                            sweep):
    state = two_level_state(space.radial, 0.3120)
    values = [origin_scan(state, space, schedule, MeasurementModel(eta=eta),
                          sweep=sweep).parity[0] for eta in (0.7, 0.86, 1.0)]
    assert max(values) - min(values) < 1e-12


def test_model_validation():
    with pytest.raises(ValueError):
        MeasurementModel(eta=0.0)
    with pytest.raises(ValueError):
        MeasurementModel(shots=0)
    with pytest.raises(ValueError, match="seed"):
        MeasurementModel(seed=-5)


def test_shots_past_the_binomial_limit_rejected():
    # numpy's binomial draw takes at most 2^63 - 1 shots; one more used to
    # construct and then die in the draw with an OverflowError
    assert protocols.MAX_SHOTS == 2 ** 63 - 1
    with pytest.raises(ValueError, match="MAX_SHOTS"):
        MeasurementModel(shots=2 ** 63)
    model = MeasurementModel(shots=2 ** 63 - 1, seed=1)
    p1, p1_hat, _ = measurement_channel(0.3, model)
    assert abs(p1_hat - p1) < 1e-6


# ---------------------------------------------------------------------------
# conversion oscillation


def test_two_phonon_oscillation_frequency(space):
    model = MeasurementModel(eta=0.86, shots=400, seed=11)
    holds = np.linspace(0, 2e-3, 81)
    res = oscillation_experiment(2, holds, PARAMS, model, space=space)
    assert res.fit_ok
    assert res.fit_frequency == pytest.approx(PARAMS.conversion_rate, rel=1e-4)


def test_one_phonon_control_is_flat(space):
    model = MeasurementModel(eta=0.86, shots=400, seed=11)
    holds = np.linspace(0, 2e-3, 41)
    res = oscillation_experiment(1, holds, PARAMS, model, space=space)
    assert res.p_axial.max() < 1e-3
    assert (1 - res.p_radial).max() < 1e-3


def test_oscillation_envelope_contrast(space):
    model = MeasurementModel(eta=0.86, shots=400, seed=11)
    holds = np.linspace(0, 10.5e-3, 421)
    res = oscillation_experiment(2, holds, PARAMS, model, space=space,
                                 envelope_tau=10.2e-3)
    # envelope scales the swing about 1/2: check the trace against the ideal
    ideal = oscillation_experiment(2, holds, PARAMS, model, space=space)
    env = np.exp(-holds / 10.2e-3)
    center = 0.5 * (ideal.p_axial.max() + ideal.p_axial.min())
    assert np.abs(res.p_axial - (center + (ideal.p_axial - center) * env)).max() < 1e-12
    # contrast at 10 ms is e^(-10/10.2) ~ 0.375 of the initial amplitude
    i10 = np.argmin(np.abs(holds - 10e-3))
    assert env[i10] == pytest.approx(0.375, abs=2e-3)
    assert res.fit_ok
    assert res.fit_frequency == pytest.approx(PARAMS.conversion_rate, rel=1e-3)


def test_oscillation_rejects_other_occupations(space):
    with pytest.raises(ValueError):
        oscillation_experiment(3, [0.0, 1e-4], PARAMS,
                               MeasurementModel(seed=0), space=space)


# ---------------------------------------------------------------------------
# conversion-tone fit against curve_fit (fit_reference.py)


@settings(max_examples=40, deadline=None)
@given(n=st.integers(16, 2001), position=st.floats(0, 1),
       duration=st.floats(1e-3, 1e-2), phase=st.floats(0, TWO_PI),
       offset=st.floats(-1, 1), amp=st.floats(0.1, 1),
       noise=st.sampled_from([0.0, 1e-3, 2e-2]), decay=st.booleans(),
       efolds=st.floats(0.1, 2), seed=st.integers(0, 2**32 - 1))
def test_tone_fit_matches_curve_fit(n, position, duration, phase, offset, amp,
                                    noise, decay, efolds, seed):
    # a tone between 2 FFT bins and n/4, decaying by up to e^-2 over the
    # record with decay on
    t = np.linspace(0, duration, n)
    bin_hz = (n - 1) / (n * duration)
    f = bin_hz * (2 + position * (n / 4 - 2))
    k = efolds / duration if decay else 0.0
    y = (offset + amp * np.exp(-k * t) * np.cos(TWO_PI * f * t + phase)
         + noise * np.random.default_rng(seed).standard_normal(n))
    omega, ok, rss = protocols._fit_tone(t, y, decay)
    ref_omega, ref_err, _, ref_rss = reference_fit_tone(t, y, decay)
    # above the Nyquist frequency a tone fits the samples exactly as its
    # alias below it does, and curve_fit may wander there
    sampling = TWO_PI / (t[1] - t[0])
    ref_omega = abs((ref_omega + sampling / 2) % sampling - sampling / 2)
    assert ok
    # a noiseless tone leaves a residual of rounding only: its phase runs
    # up to 2 pi n / 4, whose rounding reaches 1e-13 of the signal
    rounding = n * (1e-12 * np.abs(y).max()) ** 2
    assert rss <= ref_rss * (1 + 1e-9) + rounding
    # where curve_fit stops short of the minimum (its tolerances are 1e-8),
    # its frequency belongs to another point
    if ref_err < 1e-3 * ref_omega and ref_rss <= rss * (1 + 1e-6) + rounding:
        assert abs(omega - ref_omega) <= max(1e-8 * ref_omega, 1e-2 * ref_err)


@pytest.mark.parametrize("hold_max, holds", [(4e-3, 8001), (2e-3, 81)])
def test_tone_fit_of_the_conversion_matches_curve_fit(space, hold_max, holds):
    # the oscillate-holds record and the default oscillate run: both fits
    # find 2 sqrt(2) xi to rounding
    t = np.linspace(0, hold_max, holds)
    res = oscillation_experiment(2, t, PARAMS, MeasurementModel(seed=0),
                                 space=space)
    omega, ok, rss = protocols._fit_tone(t, res.p_axial, decay=False)
    ref_omega, _, _, ref_rss = reference_fit_tone(t, res.p_axial, decay=False)
    assert ok and res.fit_frequency == omega
    assert omega / TWO_PI == pytest.approx(2962.760729312, rel=1e-12)
    assert omega == pytest.approx(ref_omega, rel=1e-12)
    assert omega == pytest.approx(PARAMS.conversion_rate, rel=1e-12)
    assert rss <= ref_rss + holds * 1e-26


def test_tone_fit_of_a_sub_period_record(space):
    # 33 holds over 0.3 ms, less than one 0.34 ms conversion period
    t = np.linspace(0, 3e-4, 33)
    res = oscillation_experiment(2, t, PARAMS, MeasurementModel(seed=0),
                                 space=space)
    assert res.fit_ok
    assert res.fit_frequency == pytest.approx(PARAMS.conversion_rate, rel=1e-6)


def per_state_oscillation(n, holds, space, model, envelope_tau):
    """The conversion sequence composed on full two-mode states: embed
    |n>, sweep down, hold, sweep up, read the labels, shape, sample."""
    down = rc_ramp(PARKING, 0.0, protocols.TAU_FAST)
    up = rc_ramp(0.0, PARKING, protocols.TAU_FAST)
    u_down = sweep_unitaries(space, PARAMS.xi, down, sector_ks=[n])
    u_up = sweep_unitaries(space, PARAMS.xi, up, sector_ks=[n])
    after_down = apply_sweep(
        u_down, normal_mode_embedding(fock_state(space.radial, n), space, u_down))
    b = block_decompose(space).by_k(n)
    w, v = np.linalg.eigh(b.hamiltonians(PARAMS.xi, [0.0])[0])
    p_rad, p_ax = np.empty(holds.size), np.empty(holds.size)
    for i, tau in enumerate(holds):
        amp = after_down.amplitudes.copy()
        amp[b.indices] = v @ (np.exp(-1j * w * tau) * (v.conj().T @ amp[b.indices]))
        final = apply_sweep(u_up, StateVector(amp, space))
        grid = normal_mode_populations(final, u_up).reshape(
            space.radial.dim, space.axial.dim)
        p_rad[i], p_ax[i] = 1.0 - grid.sum(axis=1)[0], 1.0 - grid.sum(axis=0)[0]
    if envelope_tau is not None:
        env = np.exp(-holds / envelope_tau)
        for trace in (p_rad, p_ax):
            center = 0.5 * (trace.max() + trace.min())
            trace[:] = center + (trace - center) * env
    sampled = np.array([[scalar_channel(p, model, stream=(i, j))[1]
                         for j, p in enumerate(pair)]
                        for i, pair in enumerate(zip(p_rad, p_ax))])
    return p_rad, p_ax, sampled[:, 0], sampled[:, 1]


@pytest.mark.parametrize("dims", [(8, 4), (12, 6)])
@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("envelope_tau", [None, 0.8e-3])
def test_oscillation_matches_per_state_composition(dims, n, envelope_tau):
    # the sector-local sequence gives, bit for bit, what the full-space one
    # gives
    space = TwoModeSpace(FockDim(dims[0]), FockDim(dims[1]))
    model = MeasurementModel(eta=0.86, shots=400, seed=7)
    holds = np.linspace(0, 1e-3, 17)
    res = oscillation_experiment(n, holds, PARAMS, model,
                                 envelope_tau=envelope_tau, space=space)
    ref = per_state_oscillation(n, holds, space, model, envelope_tau)
    for got, want in zip((res.p_radial, res.p_axial, res.p_radial_sampled,
                          res.p_axial_sampled), ref):
        assert np.array_equal(got, want)


def test_oscillation_refuses_a_start_in_the_guard_band():
    # radial levels 0..1 hold one phonon, not two
    space = TwoModeSpace(FockDim(4), FockDim(4))
    model = MeasurementModel(seed=0)
    oscillation_experiment(1, [0.0, 1e-4], PARAMS, model, space=space)
    with pytest.raises(ValueError, match="exceeds physical range 0..1"):
        oscillation_experiment(2, [0.0, 1e-4], PARAMS, model, space=space)


def test_oscillation_csv_schema(space, tmp_path):
    model = MeasurementModel(eta=0.86, shots=400, seed=11)
    res = oscillation_experiment(2, np.linspace(0, 5e-4, 9), PARAMS, model,
                                 space=space)
    path = tmp_path / "osc.csv"
    res.to_csv(path, comments=["probe"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# probe"
    assert lines[1] == "t_ms,p_radial,p_axial,p_radial_sampled,p_axial_sampled"
    assert len(lines) == 2 + 9


# ---------------------------------------------------------------------------
# avoided crossing


def test_gap_closed_form():
    deltas = np.linspace(-TWO_PI * 10e3, TWO_PI * 10e3, 41)
    spec = avoided_crossing_spectrum(deltas, PARAMS.xi)
    gaps = spec.branches[:, 1] - spec.branches[:, 0]
    closed = np.sqrt(deltas**2 + 8 * PARAMS.xi**2)
    assert np.abs(gaps - closed).max() / closed.max() < 1e-12


def test_minimum_gap_at_resonance():
    deltas = np.linspace(-TWO_PI * 10e3, TWO_PI * 10e3, 41)  # includes 0
    spec = avoided_crossing_spectrum(deltas, PARAMS.xi)
    assert spec.min_gap_delta == 0.0
    assert spec.min_gap == pytest.approx(math.sqrt(8) * PARAMS.xi, rel=1e-12)
    assert spec.min_gap / TWO_PI == pytest.approx(2.96e3, rel=0.01)


def test_branches_asymptote_to_bare_levels():
    big = TWO_PI * 400e3
    spec = avoided_crossing_spectrum(np.array([-big, 0.0, big]), PARAMS.xi)
    lo, hi = spec.branches[-1]
    assert lo == pytest.approx(0.0, abs=8 * PARAMS.xi**2 / big * 1.01)
    assert hi == pytest.approx(big, rel=1e-4)


def test_spectrum_requires_range_spanning_zero():
    with pytest.raises(ValueError):
        avoided_crossing_spectrum(np.array([1.0, 2.0]), PARAMS.xi)


def test_spectrum_csv_schema(tmp_path):
    spec = avoided_crossing_spectrum(np.linspace(-1e3, 1e3, 5), PARAMS.xi)
    path = tmp_path / "spec.csv"
    spectrum_to_csv(spec, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "delta_hz,branch0_hz,branch1_hz"
    assert len(lines) == 1 + 5


# ---------------------------------------------------------------------------
# adiabatic parity


def test_even_fock_maps_to_axial_half(space, schedule, sweep):
    state = fock_state(space.radial, 2)
    scan = origin_scan(state, space, schedule, MeasurementModel(eta=1.0),
                       sweep=sweep)
    assert scan.parity[0] == pytest.approx(1.0, abs=0.02)
    assert axial_distribution(state, sweep)[1] >= 0.99


def test_odd_fock_maps_to_single_radial_phonon(space, schedule, sweep):
    state = fock_state(space.radial, 3)
    scan = origin_scan(state, space, schedule, MeasurementModel(eta=1.0),
                       sweep=sweep)
    assert scan.parity[0] == pytest.approx(-1.0, abs=0.02)
    assert axial_distribution(state, sweep)[1] >= 0.99


def test_coherent_parity_is_gaussian_in_amplitude(space, schedule, sweep):
    model = MeasurementModel(eta=1.0, shots=200, seed=5)
    for alpha in (0.5, 0.87, 1.3):
        # oracle: sum_n (-1)^n Poisson(n; |a|^2) = exp(-2 |a|^2)
        poisson = np.exp(-alpha**2) * alpha ** (2 * np.arange(40)) / np.array(
            [math.factorial(n) for n in range(40)]
        )
        oracle = float(np.sum((-1.0) ** np.arange(40) * poisson))
        assert oracle == pytest.approx(math.exp(-2 * alpha**2), abs=1e-12)
        scan = origin_scan(coherent_state(space.radial, alpha), space,
                           schedule, model, sweep=sweep)
        assert scan.parity[0] == pytest.approx(oracle, abs=0.01)


def test_parity_eta_correction_through_channel(space, schedule, sweep):
    # |1> reads p_phonon = 1 exactly: no label of sector K = 1 has radial
    # label 0
    scan = origin_scan(fock_state(space.radial, 1), space, schedule,
                       MeasurementModel(eta=0.86, shots=200, seed=5),
                       sweep=sweep)
    assert scan.p1_exact[0] == pytest.approx(0.86, abs=1e-12)
    assert scan.parity[0] == pytest.approx(-1.0, abs=1e-9)


def test_fast_ramp_flags_the_two_phonon_state_diabatic():
    # the 20 us ramp leaves |2> nearly where it started, so its parity reads
    # close to -1 instead of +1; the bias says by how much
    small = TwoModeSpace(FockDim(10), FockDim(5))
    scan = origin_scan(fock_state(small.radial, 2), small,
                       rc_ramp(PARKING, -PARKING, 20e-6),
                       MeasurementModel(eta=1.0, seed=5))
    assert scan.flags == ("diabatic",)
    parity_bias = math.pi / 2 * scan.readout_bias[0]
    assert parity_bias == pytest.approx(scan.parity[0] - 1.0, abs=1e-12)
    assert parity_bias < -1.9


def test_normal_mode_embedding_reduces_to_bare_at_weak_coupling():
    # with xi 1000x smaller the dressing must be indistinguishable from bare:
    # the label-0 start state of every sector, which the conversion
    # experiment starts from, is the bare |k, 0>
    small = TwoModeSpace(FockDim(16), FockDim(8))
    sched = slow_sweep()
    weak = sweep_unitaries(small, PARAMS.xi / 1000, sched,
                           sector_ks=range(small.radial.dim))
    delta0 = float(sched.delta_at(0.0))
    for k in range(small.radial.dim):
        label0 = protocols._label_basis(weak.endpoint_bases[k][0], delta0)[:, 0]
        bare = np.zeros(small.dim)
        bare[small.index(k, 0)] = 1.0
        psi = np.zeros(small.dim)
        psi[block_decompose(small).by_k(k).indices] = label0
        assert np.abs(np.abs(np.vdot(bare, psi)) - 1) < 1e-6


def test_normal_mode_populations_sum_to_one(space, sweep):
    psi = normal_mode_embedding(coherent_state(space.radial, 1.2), space, sweep)
    pops = normal_mode_populations(apply_sweep(sweep, psi), sweep)
    assert pops.sum() == pytest.approx(1.0, abs=1e-9)


# A rising ramp starts below zero detuning, where each sector's label-0 state
# is its highest start eigenvector: the sweep marches that column, and the
# readout of it must agree with the per-state composition and still realize
# the parity map
@pytest.mark.parametrize("dims", [(12, 6), (16, 8)])
def test_rising_sweep_reads_as_the_per_state_reference(dims):
    space = TwoModeSpace(FockDim(dims[0]), FockDim(dims[1]))
    sched = rc_ramp(-PARKING, PARKING, protocols.TAU_SLOW)
    sweep = sweep_unitaries(space, PARAMS.xi, sched,
                            sector_ks=range(space.radial.dim))
    model = MeasurementModel(eta=0.86, seed=5)
    states = ([fock_state(space.radial, n) for n in range(4)]
              + [coherent_state(space.radial, 1.0)])
    for state in states:
        scan = origin_scan(state, space, sched, model, sweep=sweep)
        final = apply_sweep(sweep, normal_mode_embedding(state, space, sweep))
        pops = normal_mode_populations(final, sweep).reshape(
            space.radial.dim, space.axial.dim)
        assert abs(scan.p1_exact[0] - 0.86 * (1.0 - pops[0].sum())) < 1e-12
        assert np.abs(axial_distribution(state, sweep)
                      - pops.sum(axis=0)).max() < 1e-12
        levels = np.abs(state.amplitudes) ** 2
        ideal = float(np.sum((-1.0) ** np.arange(levels.size) * levels))
        assert scan.parity[0] == pytest.approx(ideal, abs=0.02)
    state = coherent_state(space.radial, 1.0)
    alphas = phase_space_grid(1.5, 5)
    scan = wigner_scan(state, alphas, PARAMS.xi, space, sched, model,
                       exact=True, sweep=sweep)
    p1_exact, _, flags = per_point_reference(state, alphas, space, sweep, model)
    assert np.abs(scan.p1_exact - p1_exact).max() < 1e-12
    assert list(scan.flags) == flags


def test_readout_refuses_a_sweep_from_zero_detuning():
    # no label is defined at delta = 0, where the oscillation's up ramp
    # starts
    space = TwoModeSpace(FockDim(8), FockDim(4))
    sched = rc_ramp(0.0, PARKING, protocols.TAU_FAST)
    sweep = sweep_unitaries(space, PARAMS.xi, sched, sector_ks=[2])
    with pytest.raises(ValueError, match="undefined at delta = 0"):
        protocols._SectorReadout.of(sweep)
    state = fock_state(space.radial, 2)
    with pytest.raises(ValueError, match="undefined at delta = 0"):
        origin_scan(state, space, sched, MeasurementModel(), sweep=sweep)
    with pytest.raises(ValueError, match="undefined at delta = 0"):
        axial_distribution(state, sweep)


# ---------------------------------------------------------------------------
# Wigner scans


def test_wigner_scan_vacuum(space, schedule, sweep):
    model = MeasurementModel(eta=1.0, shots=200, seed=5)
    scan = wigner_scan(fock_state(space.radial, 0), [0.0, 2.0], PARAMS.xi,
                       space, schedule, model, exact=True, sweep=sweep)
    assert scan.wigner[0] == pytest.approx(TWO_OVER_PI, abs=5e-3)
    # large-displacement value (2/pi) e^{-8} = 2.136e-4, i.e. ~0 within the
    # protocol's diabatic floor
    assert scan.wigner[1] == pytest.approx(TWO_OVER_PI * math.exp(-8), abs=5e-3)


def test_wigner_scan_matches_oracle_on_small_grid(space, schedule, sweep):
    model = MeasurementModel(eta=1.0, shots=200, seed=5)
    axis = np.linspace(-1.2, 1.2, 5)
    grid = (axis[:, None] + 1j * axis[None, :]).ravel()
    state = coherent_state(space.radial, 0.87)
    scan = wigner_scan(state, grid, PARAMS.xi, space, schedule, model,
                       exact=True, sweep=sweep)
    oracle = np.array([wigner_oracle(state, a) for a in grid])
    assert np.abs(scan.wigner - oracle).max() < 0.01


def test_slower_ramp_tightens_oracle_agreement(space):
    # adiabatic convergence: tau_rc = 4 ms beats 2 ms on the same grid
    model = MeasurementModel(eta=1.0, shots=200, seed=5)
    state = coherent_state(space.radial, 1.0)
    grid = np.array([0.0, 0.4, 0.8j, -0.6 + 0.3j])
    oracle = np.array([wigner_oracle(state, a) for a in grid])
    devs = {}
    for tau in (2e-3, 4e-3):
        sched = rc_ramp(PARKING, -PARKING, tau)
        scan = wigner_scan(state, grid, PARAMS.xi, space, sched, model,
                           exact=True)
        devs[tau] = np.abs(scan.wigner - oracle).max()
    assert devs[4e-3] < devs[2e-3] < 0.01


def test_even_cat_fringes_match_three_gaussian_form(space, schedule, sweep):
    model = MeasurementModel(eta=1.0, shots=200, seed=5)
    alpha = 1.73
    state = cat_state(space.radial, alpha, math.pi, +1)
    period = math.pi / (2 * alpha)
    ys = np.linspace(0, 2 * period, 9)
    scan = wigner_scan(state, 1j * ys, PARAMS.xi, space, schedule, model,
                       exact=True, sweep=sweep)
    closed = np.array([cat_wigner_closed_form(1j * y, alpha, +1) for y in ys])
    assert np.abs(scan.wigner - closed).max() < 0.01
    assert scan.wigner[0] == pytest.approx(TWO_OVER_PI, abs=0.01)
    # interference oscillates with period pi/(2 alpha) in Im(alpha) under the
    # e^{-2 y^2} envelope: deep negative at half a period, positive again at
    # one full period
    assert scan.wigner[2] < -0.3
    assert scan.wigner[4] > 0.05


def test_fock_radial_cut_matches_closed_form(space, schedule, sweep):
    model = MeasurementModel(eta=1.0, shots=200, seed=5)
    radii = np.array([0.0, 0.5, 1.0, 1.5])
    cut = radial_cut(fock_state(space.radial, 1), radii, PARAMS.xi, space,
                     schedule, model, sweep=sweep)
    closed = np.array([fock_wigner_closed_form(1, r) for r in radii])
    assert np.abs(cut - closed).max() < 0.01


def test_scan_determinism_and_seed_sensitivity(space, schedule, sweep):
    model = MeasurementModel(eta=0.86, shots=300, seed=123)
    grid = phase_space_grid(extent=1.0, points=3)
    state = fock_state(space.radial, 1)
    one = wigner_scan(state, grid, PARAMS.xi, space, schedule, model, sweep=sweep)
    again = wigner_scan(state, grid, PARAMS.xi, space, schedule, model, sweep=sweep)
    assert np.array_equal(one.p1_sampled, again.p1_sampled)
    other_seed = wigner_scan(state, grid, PARAMS.xi, space, schedule,
                             MeasurementModel(eta=0.86, shots=300, seed=124),
                             sweep=sweep)
    assert not np.array_equal(one.p1_sampled, other_seed.p1_sampled)


def test_sampled_wigner_stderr_matches_binomial(space, schedule, sweep):
    # over 200 seeded repetitions the empirical spread of sampled W matches
    # the predicted binomial error within 15%
    shots = 400
    state = fock_state(space.radial, 1)
    p1 = origin_scan(state, space, schedule,
                     MeasurementModel(eta=0.86, shots=shots, seed=0),
                     sweep=sweep).p1_exact[0]
    values = []
    for rep in range(200):
        model = MeasurementModel(eta=0.86, shots=shots, seed=1000 + rep)
        values.append(origin_scan(state, space, schedule, model, exact=False,
                                  sweep=sweep).wigner[0])
    empirical = float(np.std(values, ddof=1))
    predicted = TWO_OVER_PI * 2 * math.sqrt(p1 * (1 - p1) / shots) / 0.86
    assert empirical == pytest.approx(predicted, rel=0.15)


def test_scan_stderr_column_is_the_wigner_error(space, schedule, sweep):
    # W = (2/pi) (1 - 2 p1 / eta), so its error is (2/pi) 2 sigma(p1) / eta
    model = MeasurementModel(eta=0.86, shots=500, seed=7)
    scan = wigner_scan(fock_state(space.radial, 1), [0.0, 0.5, 1.0j], PARAMS.xi,
                       space, schedule, model, sweep=sweep)
    p = scan.p1_sampled
    predicted = TWO_OVER_PI * 2 * np.sqrt(p * (1 - p) / 500) / 0.86
    assert np.abs(scan.stderr - predicted).max() < 1e-15
    assert scan.stderr.min() > 0


def test_one_point_scan_draws_from_the_parity_stream(space, schedule, sweep):
    # the parity run's sampled cells are the scan's point 0, drawn from
    # SeedSequence(seed, 0); numpy pads the entropy with zeros to four
    # 32-bit words, so below 2^96 that is SeedSequence(seed), the stream of
    # measurement_channel's 0-d draw
    state = coherent_state(space.radial, 0.9)
    for seed in (0, 11, 2**64, 2**96 - 1):
        model = MeasurementModel(eta=0.86, shots=500, seed=seed)
        scan = origin_scan(state, space, schedule, model, exact=False,
                           sweep=sweep)
        p1, p1_hat, _ = measurement_channel(scan.p1_exact[0] / 0.86, model)
        assert p1 == scan.p1_exact[0]
        assert p1_hat.ndim == 0
        assert scan.p1_sampled[0] == p1_hat
    model = MeasurementModel(seed=2**96)
    assert model.rng(0).bit_generator.state != model.rng().bit_generator.state


def test_scan_reads_evolved_columns_without_unitaries():
    small = TwoModeSpace(FockDim(10), FockDim(5))
    sched = slow_sweep()
    sweep = sweep_unitaries(small, PARAMS.xi, sched, sector_ks=range(10))
    model = MeasurementModel(seed=3)
    wigner_scan(coherent_state(small.radial, 0.5), phase_space_grid(1.0, 5),
                PARAMS.xi, small, sched, model, sweep=sweep)
    axial_distribution(fock_state(small.radial, 2), sweep)
    assert "unitaries" not in vars(sweep)


def readout_rule(space, ks):
    """The sectors of ks a Wigner readout needs swept, from the rule's
    statement: K = k is even, or one of its basis states (k - 2j, j),
    j = 0..min(k // 2, da - 1), lies in a guard band."""
    top_r, top_a = space.radial.top_physical, space.axial.top_physical
    return [int(k) for k in ks
            if k % 2 == 0 or k > top_r or min(k // 2, space.axial.dim - 1) > top_a]


def populated_sectors(state, alphas):
    disp = displaced_amplitudes(state.amplitudes, -np.asarray(alphas),
                                state.basis)
    return np.flatnonzero((np.abs(disp) > protocols.AMPLITUDE_FLOOR).any(axis=0))


def test_scan_without_sweep_covers_only_populated_sectors(monkeypatch):
    small = TwoModeSpace(FockDim(16), FockDim(8))
    sched = rc_ramp(PARKING, -PARKING, 200e-6)
    model = MeasurementModel(seed=3)
    state = fock_state(small.radial, 1)
    grid = np.array([0.0, 0.3, 0.2j])
    swept = []

    def recording(*args, **kwargs):
        swept.append(sorted(int(k) for k in kwargs["sector_ks"]))
        return sweep_unitaries(*args, **kwargs)

    monkeypatch.setattr(protocols, "sweep_unitaries", recording)
    scan = wigner_scan(state, grid, PARAMS.xi, small, sched, model, exact=True)
    populated = populated_sectors(state, grid)
    assert swept == [readout_rule(small, populated)]
    assert len(populated) < small.radial.dim
    assert 0 < len(swept[0]) < len(populated)
    assert scan.sweep_sectors == (len(swept[0]), len(populated))
    full = sweep_unitaries(small, PARAMS.xi, sched, sector_ks=range(16))
    ref = wigner_scan(state, grid, PARAMS.xi, small, sched, model, exact=True,
                      sweep=full)
    assert np.array_equal(scan.p1_exact, ref.p1_exact)
    assert np.array_equal(scan.readout_bias, ref.readout_bias)
    assert scan.flags == ref.flags
    assert ref.sweep_sectors == (len(populated), len(populated))


def test_partial_sweep_rejects_uncovered_sectors():
    small = TwoModeSpace(FockDim(10), FockDim(5))
    sched = rc_ramp(PARKING, -PARKING, 20e-6)
    partial = sweep_unitaries(small, PARAMS.xi, sched, sector_ks=[0, 1, 2])
    full = sweep_unitaries(small, PARAMS.xi, sched, sector_ks=range(10))
    model = MeasurementModel()
    # K = 3 is odd and holds no guard-band state: a scan reads it exactly
    # without a sweep, so the partial sweep serves a state populating it
    amp = np.zeros(10, complex)
    amp[[1, 3]] = 1 / math.sqrt(2)
    state = StateVector(amp, small.radial)
    scans = [wigner_scan(state, [0.0], PARAMS.xi, small, sched, model,
                         sweep=sw) for sw in (partial, full)]
    for name in ("p1_exact", "p1_sampled", "readout_bias"):
        assert np.array_equal(getattr(scans[0], name), getattr(scans[1], name))
    assert scans[0].flags == scans[1].flags
    assert scans[0].sweep_sectors == (1, 2)
    # the displaced point populates the even K = 4, which needs the sweep
    with pytest.raises(ValueError, match="does not cover the populated K = 4"):
        wigner_scan(fock_state(small.radial, 1), [0.0, 1.0], PARAMS.xi, small,
                    sched, model, sweep=partial)
    # the axial distribution reads every populated sector, K = 3 included
    for n in (3, 4):
        with pytest.raises(ValueError, match=f"does not cover the populated K = {n}"):
            axial_distribution(fock_state(small.radial, n), partial)


@given(st.integers(4, 12), st.integers(3, 6), st.integers(0, 2),
       st.integers(0, 1000), st.integers(1, 12), st.floats(0.0, 2.0),
       st.booleans(), st.booleans())
@example(dr=8, da=4, guard=2, seed=0, n_levels=8, extent=1.0, falling=True,
         exact=False)  # odd K = 5 (axial guard) and 7 (radial guard) swept
@example(dr=9, da=3, guard=1, seed=1, n_levels=3, extent=1.5, falling=False,
         exact=True)
@settings(max_examples=25, deadline=None)
def test_pruned_sweep_reads_as_the_full_sweep(dr, da, guard, seed, n_levels,
                                              extent, falling, exact):
    guard = min(guard, da - 2)
    space = TwoModeSpace(FockDim(dr, guard), FockDim(da, guard))
    state = random_radial_state(space.radial, min(n_levels, dr), seed)
    # a rising ramp starts below zero detuning and marches the highest start
    # eigenvector
    sched = rc_ramp(PARKING, -PARKING, 15e-6) if falling else rc_ramp(
        -PARKING, PARKING, 15e-6)
    alphas = phase_space_grid(extent, 3) if extent > 0 else np.array([0j])
    model = MeasurementModel(eta=0.86, shots=200, seed=seed)
    populated = populated_sectors(state, alphas)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationLeakWarning)
        pruned = wigner_scan(state, alphas, PARAMS.xi, space, sched, model,
                             exact=exact)
        full = sweep_unitaries(space, PARAMS.xi, sched, sector_ks=populated)
        ref = wigner_scan(state, alphas, PARAMS.xi, space, sched, model,
                          exact=exact, sweep=full)
    for name in ("p1_exact", "p1_sampled", "readout_bias"):
        assert np.array_equal(getattr(pruned, name), getattr(ref, name))
    assert pruned.flags == ref.flags
    swept = readout_rule(space, populated)
    assert populated[wigner_sweep_needed(space)[populated]].tolist() == swept
    assert pruned.sweep_sectors == (len(swept), len(populated))


def test_scan_of_an_odd_fock_state_at_the_origin_sweeps_nothing():
    space = TwoModeSpace(FockDim(12), FockDim(6))
    scan = wigner_scan(fock_state(space.radial, 1), [0.0], PARAMS.xi, space,
                       rc_ramp(PARKING, -PARKING, 15e-6),
                       MeasurementModel(eta=0.86), exact=True)
    assert scan.sweep_sectors == (0, 1)
    assert scan.wigner[0] == -TWO_OVER_PI
    assert scan.readout_bias[0] == 0.0
    assert scan.flags == ("",)


def leaky_oracle(state, alpha):
    """wigner_oracle, silent where the displaced state reaches the guard
    band (the truncated displacement is exact there too)."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", TruncationLeakWarning)
        return wigner_oracle(state, alpha)


def random_radial_state(dim, n_levels, seed):
    rng = np.random.default_rng(seed)
    amp = np.zeros(dim.dim, dtype=complex)
    amp[:n_levels] = rng.normal(size=n_levels) + 1j * rng.normal(size=n_levels)
    return StateVector(amp / np.linalg.norm(amp), dim)


def per_point_reference(state, alphas, space, sweep, model):
    """The scan composed point by point from the protocol's pieces:
    displace, embed, sweep, read the labels, sample; a point is 'diabatic'
    where its exact W misses the Wigner oracle by more than the tolerance."""
    dim = state.basis
    p1_exact, p1_sampled, flags = [], [], []
    for i, alpha in enumerate(alphas):
        disp = _displacement_matrix(-alpha, dim) @ state.amplitudes
        psi0 = normal_mode_embedding(StateVector(disp, dim), space, sweep)
        final = apply_sweep(sweep, psi0)
        pops = normal_mode_populations(final, sweep)
        radial0 = pops.reshape(space.radial.dim, space.axial.dim)[0].sum()
        p_phonon = min(max(1.0 - radial0, 0.0), 1.0)
        p1, p1_hat, _ = scalar_channel(p_phonon, model, stream=(i,))
        leak = (guard_leak(disp, dim) >= GUARD_LEAK_THRESHOLD
                or guard_leak(final.amplitudes, space) >= GUARD_LEAK_THRESHOLD)
        w_point = TWO_OVER_PI * (1.0 - 2.0 * p1 / model.eta)
        diabatic = abs(w_point - leaky_oracle(state, alpha)) > READOUT_BIAS_TOLERANCE
        p1_exact.append(p1)
        p1_sampled.append(p1_hat)
        flags.append(";".join(name for name, on in
                              (("leak", leak), ("diabatic", diabatic)) if on))
    return np.array(p1_exact), np.array(p1_sampled), flags


# fast ramps leave more sectors diabatic than slow ones; extents up to 3
# push the displaced states of a 6..10-level radial mode into its guard band.
# The examples pin two edges: on 6x5 a displaced state can reach the radial
# guard band while its swept image stays clear of both, and near the
# vacuum the fast ramp's large K = 2 error is weighted by so small a
# population that the point's bias stays within the tolerance.
# The small block budget splits the 25-point grid into blocks of 4 to 7.
@given(st.integers(6, 10), st.integers(3, 5), st.integers(0, 1000),
       st.integers(1, 5), st.floats(0.01, 3.0), st.floats(15e-6, 500e-6),
       st.sampled_from([64 * 6 * 7, protocols.BLOCK_BYTES]))
@example(dr=6, da=5, seed=0, n_levels=1, extent=0.4, tau=500e-6,
         budget=protocols.BLOCK_BYTES)
@example(dr=10, da=5, seed=0, n_levels=1, extent=0.01, tau=15e-6,
         budget=64 * 6 * 7)
@settings(max_examples=20, deadline=None)
def test_scan_matches_per_point_composition(dr, da, seed, n_levels, extent, tau,
                                            budget):
    space = TwoModeSpace(FockDim(dr), FockDim(da))
    state = random_radial_state(space.radial, n_levels, seed)
    sched = rc_ramp(PARKING, -PARKING, tau)
    sweep = sweep_unitaries(space, PARAMS.xi, sched, sector_ks=range(dr))
    model = MeasurementModel(eta=0.86, shots=200, seed=seed)
    alphas = phase_space_grid(extent, 5)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(protocols, "BLOCK_BYTES", budget)
        scan = wigner_scan(state, alphas, PARAMS.xi, space, sched, model,
                           sweep=sweep)
    p1_exact, p1_sampled, flags = per_point_reference(state, alphas, space,
                                                      sweep, model)
    assert np.abs(scan.p1_exact - p1_exact).max() < 1e-12
    assert np.array_equal(scan.p1_sampled, p1_sampled)
    assert list(scan.flags) == flags


# the readout is per K sector, so its error is known in closed form: the
# reported bias is the exact W's departure from the oracle at every point,
# whatever the ramp, and sectors of odd k, which hold no radial-label-0
# state, read out without any error
@given(st.integers(6, 10), st.integers(3, 5), st.integers(0, 1000),
       st.integers(1, 6), st.floats(0.01, 2.0), st.floats(15e-6, 2e-3))
@settings(max_examples=20, deadline=None)
def test_readout_bias_is_the_error_against_the_oracle(dr, da, seed, n_levels,
                                                       extent, tau):
    space = TwoModeSpace(FockDim(dr), FockDim(da))
    state = random_radial_state(space.radial, n_levels, seed)
    sched = rc_ramp(PARKING, -PARKING, tau)
    sweep = sweep_unitaries(space, PARAMS.xi, sched, sector_ks=range(dr))
    alphas = phase_space_grid(extent, 5)
    scan = wigner_scan(state, alphas, PARAMS.xi, space, sched,
                       MeasurementModel(eta=0.86, seed=seed), exact=True,
                       sweep=sweep)
    oracle = np.array([leaky_oracle(state, a) for a in alphas])
    assert np.abs(scan.readout_bias - (scan.wigner - oracle)).max() < 1e-12
    radial0 = protocols._SectorReadout.of(sweep).radial0
    assert np.all(radial0[1::2] == 0.0)


def test_scan_csv_schema(space, schedule, sweep, tmp_path):
    model = MeasurementModel(eta=0.86, shots=300, seed=123)
    scan = wigner_scan(fock_state(space.radial, 0), [0.0, 1.0], PARAMS.xi,
                       space, schedule, model, sweep=sweep)
    path = tmp_path / "wig.csv"
    scan.to_csv(path, comments=["hello"])
    lines = path.read_text().splitlines()
    assert lines[0] == "# hello"
    assert lines[1] == ("re_alpha,im_alpha,p1_exact,p1_sampled,parity,"
                        "wigner,stderr,flags")
    assert len(lines) == 2 + 2


def test_scan_flags_follow_the_leak_and_diabatic_masks():
    # the slow 8x4 scan leaks at its rim; the 20 us ramp makes every point
    # of |2> diabatic; together they give all four flag cells
    small = TwoModeSpace(FockDim(8), FockDim(4))
    fast = rc_ramp(PARKING, -PARKING, 20e-6)
    model = MeasurementModel(eta=1.0, seed=5)
    seen = set()
    for state, ramp in ((0, slow_sweep()), (0, fast), (2, fast)):
        scan = wigner_scan(fock_state(small.radial, state),
                           phase_space_grid(2.5, 7), PARAMS.xi, small, ramp,
                           model, exact=True)
        assert np.array_equal(scan.diabatic,
                              np.abs(scan.readout_bias) > READOUT_BIAS_TOLERANCE)
        assert scan.flags == tuple(
            ";".join(name for name, on in
                     (("leak", lk), ("diabatic", abs(b) > READOUT_BIAS_TOLERANCE))
                     if on)
            for lk, b in zip(scan.leak.tolist(), scan.readout_bias.tolist()))
        seen |= set(scan.flags)
    assert seen == {"", "leak", "diabatic", "leak;diabatic"}


def test_scan_bound_validation():
    from trilinear.protocols import WignerScan

    n = 1
    with pytest.raises(ValueError):
        WignerScan(
            alphas=np.zeros(n, complex),
            p1_exact=np.zeros(n),
            p1_sampled=np.zeros(n),
            parity=np.ones(n),
            wigner=np.array([5.0]),  # beyond the eta-corrected bound
            stderr=np.zeros(n),
            flags=("",),
            eta=0.86,
        )


def test_wigner_negativity_with_shot_noise(space, schedule, sweep):
    # quick version of the acceptance statistic
    state = fock_state(space.radial, 1)
    negatives = 0
    for rep in range(50):
        model = MeasurementModel(eta=0.86, shots=500, seed=rep)
        negatives += origin_scan(state, space, schedule, model, exact=False,
                                 sweep=sweep).wigner[0] < 0
    assert negatives == 50


# a sweep passed in must have been built for the arguments it is used with
SWEEP_USERS = {
    "wigner_scan": lambda state, xi, space, sched, model, step, sweep: wigner_scan(
        state, [0.0], xi, space, sched, model, exact=True, step=step, sweep=sweep),
    "radial_cut": lambda state, xi, space, sched, model, step, sweep: radial_cut(
        state, [0.5], xi, space, sched, model, step=step, sweep=sweep),
}


@pytest.mark.parametrize("user", sorted(SWEEP_USERS))
def test_a_sweep_built_for_other_arguments_is_refused(user):
    space = TwoModeSpace(FockDim(8), FockDim(4))
    sched = rc_ramp(PARKING, -PARKING, 100e-6)
    sweep = sweep_unitaries(space, PARAMS.xi, sched, sector_ks=range(8))
    state = fock_state(space.radial, 2)
    model = MeasurementModel(eta=0.86, seed=3)
    call = SWEEP_USERS[user]
    # its own arguments, with or without the step
    for step in (None, sweep.step):
        call(state, PARAMS.xi, space, sched, model, step, sweep)
    others = {
        "space": (PARAMS.xi, TwoModeSpace(FockDim(8), FockDim(5)), sched,
                  sweep.step),
        "coupling": (10 * PARAMS.xi, space, sched, None),
        "ramp": (PARAMS.xi, space, rc_ramp(PARKING, -PARKING, 50e-6), None),
        "step": (PARAMS.xi, space, sched, sweep.step / 2),
    }
    for name, (xi, other_space, other_sched, step) in others.items():
        with pytest.raises(ValueError, match=f"built for another {name}$"):
            call(state, xi, other_space, other_sched, model, step, sweep)

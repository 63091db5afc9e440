"""Experiment procedures on the two-ion phonon system.

Preparation and readout act on the normal modes: sideband and displacement
drives address the crystal's true normal-mode frequencies, so "n phonons in
the radial mode with the axial mode empty" denotes the sector eigenstate
adiabatically connected to the bare |n_a, 0> level at the working detuning
(eigenvalue rank within each K sector; this reduces to the bare product
state in the decoupled limit xi/delta -> 0, and stays well defined at high
K where the parking detuning no longer decouples the modes). Readout
likewise resolves normal-mode occupation labels. With this convention the
detuning sweep realizes the parity map exactly up to its own diabatic
error, for every sector.

Measurement model: after the adiabatic sweep the radial mode holds 0 or 1
phonon, and a red-sideband pi-pulse converts "n_r >= 1" into a bright
internal-state outcome with efficiency eta. Parity of the pre-sweep radial
state follows as <P> = 1 - 2 p1 / eta; no clamping is applied, so finite-shot
estimates may leave [-1, 1] (the estimator stays unbiased). The same
"n_r >= 1" Bernoulli channel is reused for non-swept diagnostics with higher
occupation, a documented simplification.

Randomness: every sampled quantity draws from a PCG64 generator seeded with
(seed, *stream indices), so grid points are independent work items whose
results do not depend on evaluation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .dynamics import (
    RampSchedule,
    SweepResult,
    block_decompose,
    rc_ramp,
    sweep_unitaries,
)
from .fock import (
    FockDim,
    StateVector,
    TwoModeSpace,
    displaced_amplitudes,
    fock_state,
    GUARD_LEAK_THRESHOLD,
)
from .trap import ModeParams

PARKING_DETUNING = 2 * math.pi * 35e3  # rad/s, mode-decoupling point
TAU_SLOW = 2e-3  # s, adiabatic RC constant
TAU_FAST = 20e-6  # s, diabatic RC constant
DISPLACEMENT_RATE = math.sqrt(3.0e-4)  # |alpha| per microsecond of drive
# memory for a Wigner scan's arrays of one block of grid points; the block
# length follows from it
BLOCK_BYTES = 1 << 20

# |readout bias of W| above which a point is flagged 'diabatic': the
# tolerance of the scan against the Wigner oracle (acceptance criterion 5)
READOUT_BIAS_TOLERANCE = 0.01

# amplitudes at or below this are treated as unpopulated when choosing
# which K sectors a protocol needs (coherent-state tails reach every level
# with ~1e-50 weight; dropping them perturbs the norm below 1e-24)
AMPLITUDE_FLOOR = 1e-12


@dataclass(frozen=True)
class MeasurementModel:
    """Phonon-to-qubit mapping efficiency plus shot sampling parameters.

    dark_bright_prob models false bright counts with no phonon present; it
    stays 0 by default because the reference calibration folds every
    imperfection into eta.
    """

    eta: float = 0.86
    shots: int = 500
    seed: int = 0
    dark_bright_prob: float = 0.0

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if self.shots < 1:
            raise ValueError("shots must be a positive integer")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")
        if not 0 <= self.dark_bright_prob < 1:
            raise ValueError("dark_bright_prob must lie in [0, 1)")

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])


def binomial_stderr(p: float, shots: int) -> float:
    return math.sqrt(max(p * (1.0 - p), 0.0) / shots)


def measurement_channel(p_phonon: float, model: MeasurementModel,
                        stream: tuple[int, ...] = ()) -> tuple[float, float, float]:
    """Bright-state probability through the eta-limited mapping.

    Returns (p1_exact, p1_sampled, stderr): p1_exact = eta * p_phonon plus
    the dark-count term, p1_sampled a Binomial(shots, p1_exact)/shots draw
    from the seeded generator, stderr the binomial error at the sampled
    estimate.
    """
    if not 0.0 <= p_phonon <= 1.0 + 1e-12:
        raise ValueError(f"p_phonon = {p_phonon} outside [0, 1]")
    p1 = _bright_probability(min(p_phonon, 1.0), model)
    k = model.rng(*stream).binomial(model.shots, p1)
    p1_hat = k / model.shots
    return p1, p1_hat, binomial_stderr(p1_hat, model.shots)


def _bright_probability(p_phonon, model: MeasurementModel):
    """p1_exact of the mapping channel, for one p_phonon in [0, 1] or an
    array of them."""
    return model.eta * p_phonon + model.dark_bright_prob * (1.0 - p_phonon)


def parity_estimate(p1: float, eta: float) -> float:
    """<P> = 1 - 2 p1 / eta, unclamped."""
    if eta <= 0:
        raise ValueError("eta must be positive")
    return 1.0 - 2.0 * p1 / eta


@dataclass(frozen=True)
class ParityResult:
    p1: float
    parity: float
    shots: int
    stderr: float
    eta: float

    def __post_init__(self):
        if abs(self.parity - parity_estimate(self.p1, self.eta)) > 1e-12:
            raise ValueError("parity inconsistent with 1 - 2 p1 / eta")


def decoherence_envelope(t: float, tau_c: float) -> float:
    """Phenomenological contrast factor exp(-t / tau_c)."""
    if tau_c <= 0 or t < 0:
        raise ValueError("need t >= 0 and tau_c > 0")
    return math.exp(-t / tau_c)


def displacement_calibration(duration_us: float) -> float:
    """|alpha| produced by a coherent drive of the given duration, from the
    measured calibration |alpha|^2 = 3.0e-4 * t^2 (t in microseconds)."""
    if duration_us < 0:
        raise ValueError("drive duration must be >= 0")
    return DISPLACEMENT_RATE * duration_us


def default_space(radial_dim: int = 40, axial_dim: int = 20) -> TwoModeSpace:
    return TwoModeSpace(FockDim(radial_dim), FockDim(axial_dim))


# ---------------------------------------------------------------------------
# normal-mode (adiabatic-label) basis at a working detuning


def _label_basis(vecs: np.ndarray, delta: float) -> np.ndarray:
    """Columns indexed by the local bare label (ascending n_c); column j is
    the eigenvector adiabatically connected to that label at the given
    detuning: eigenvalue rank j for delta > 0, reversed order for delta < 0
    (bare sector energies are delta * n_c). Phases are fixed by making each
    column's largest component real positive."""
    if delta == 0:
        raise ValueError("normal-mode labels are undefined at delta = 0")
    v = vecs if delta > 0 else vecs[:, ::-1]
    lead = v[np.argmax(np.abs(v), axis=0), np.arange(v.shape[1])]
    return v * (np.abs(lead) / lead)


def normal_mode_embedding(state_r: StateVector, space: TwoModeSpace,
                          sweep: SweepResult) -> StateVector:
    """Radial normal-mode state (axial normal mode empty) as a two-mode
    state at the sweep's starting detuning."""
    if not isinstance(state_r.basis, FockDim) or state_r.basis != space.radial:
        raise ValueError("state must live on the radial mode of the space")
    delta0 = float(sweep.schedule.delta_at(0.0))
    amp = np.zeros(space.dim, dtype=complex)
    blocks = block_decompose(space)
    for k in np.nonzero(np.abs(state_r.amplitudes) > AMPLITUDE_FLOOR)[0]:
        bases = sweep.endpoint_bases.get(int(k))
        if bases is None:
            raise ValueError(f"sweep does not cover the populated K = {k}")
        b = blocks.by_k(int(k))
        amp[b.indices] += state_r.amplitudes[k] * _label_basis(bases[0], delta0)[:, 0]
    return StateVector(amp, space)


def normal_mode_populations(state: StateVector, sweep: SweepResult) -> np.ndarray:
    """Populations of the normal-mode occupation labels at the sweep's final
    detuning, as a full-space array indexed like the bare basis."""
    space = state.basis
    if not isinstance(space, TwoModeSpace):
        raise ValueError("normal_mode_populations needs a two-mode state")
    delta1 = float(sweep.schedule.delta_at(sweep.schedule.duration))
    pops = np.zeros(space.dim)
    for b in block_decompose(space).blocks:
        sub = state.amplitudes[b.indices]
        if not np.any(np.abs(sub) > AMPLITUDE_FLOOR):
            continue
        bases = sweep.endpoint_bases.get(b.k)
        if bases is None:
            raise ValueError(f"sweep does not cover the populated K = {b.k}")
        basis = _label_basis(bases[1], delta1)
        pops[b.indices] = np.abs(basis.conj().T @ sub) ** 2
    return pops


def _label_marginals(pops: np.ndarray,
                     space: TwoModeSpace) -> tuple[np.ndarray, np.ndarray]:
    grid = pops.reshape(space.radial.dim, space.axial.dim)
    return grid.sum(axis=1), grid.sum(axis=0)


def wigner_sweep_needed(space: TwoModeSpace) -> np.ndarray:
    """Per radial level k, whether the Wigner readout of sector K = k
    depends on the sweep: k is even (the sector may hold the radial-label-0
    label |0, k/2>), or its basis holds a guard-band state. Any other
    sector has no label with radial label 0 and no guard-band state, so
    its `_SectorReadout` figures radial0 and guard are exactly 0 whatever
    the sweep does to it, and a Wigner scan reads it without a sweep."""
    occ = space.occupations()
    tops = np.array([space.radial.top_physical, space.axial.top_physical])
    blocks = block_decompose(space)
    ks = np.arange(space.radial.dim)
    guard = [bool((occ[blocks.by_k(int(k)).indices] > tops).any()) for k in ks]
    return (ks % 2 == 0) | np.array(guard)


@dataclass(frozen=True)
class _SectorReadout:
    """What one sweep and the label readout do to each K sector, indexed by
    the radial level k whose label-0 state e_k opens sector K = k.

    The readout acts on each sector separately, so a radial state psi
    yields the incoherent sum over k of |psi_k|^2 times the per-sector
    figures of f_k = U_k e_k: `radial0` is the final population of the
    labels with radial label 0, `axial` the final axial-label marginal and
    `guard` the radial and axial guard-band populations. An ideal sweep
    maps e_k to radial label 0 for even k and to radial label 1 for odd k,
    so radial0[k] - [k even] is all that sector's readout error; for odd k
    no label of the sector has radial label 0, and it is exactly 0.

    `swept` marks the sectors the sweep marched and `known` those whose
    radial0 and guard `read` knows: the swept ones and every sector that
    `wigner_sweep_needed` leaves out, whose radial0 = 0 and guard = 0 by its
    basis alone. Such a sector's axial marginal does depend on the sweep, so
    `axial_distribution` takes swept sectors only.
    """

    swept: np.ndarray  # (dr,) bool
    known: np.ndarray  # (dr,) bool
    radial0: np.ndarray  # (dr,)
    axial: np.ndarray  # (dr, da)
    guard: np.ndarray  # (dr, 2)

    @classmethod
    def of(cls, sweep: SweepResult) -> "_SectorReadout":
        space = sweep.space
        dr = space.radial.dim
        delta0 = float(sweep.schedule.delta_at(0.0))
        delta1 = float(sweep.schedule.delta_at(sweep.schedule.duration))
        occ = space.occupations()
        tops = np.array([space.radial.top_physical, space.axial.top_physical])
        blocks = block_decompose(space)
        swept = np.zeros(dr, dtype=bool)
        radial0 = np.zeros(dr)
        axial = np.zeros((dr, space.axial.dim))
        guard = np.zeros((dr, 2))
        for k in range(dr):
            bases = sweep.endpoint_bases.get(k)
            if bases is None:
                continue
            block_occ = occ[blocks.by_k(k).indices]
            # the label-0 start state is the sweep's evolved start
            # eigenvector (the lowest for delta0 > 0, the highest below
            # zero) up to the phase _label_basis fixes
            start = 0 if delta0 > 0 else -1
            label0 = _label_basis(bases[0], delta0)[:, 0]
            f = sweep.evolved[k][:, start] * np.vdot(bases[0][:, start], label0)
            labels = np.abs(_label_basis(bases[1], delta1).conj().T @ f) ** 2
            swept[k] = True
            radial0[k] = labels[block_occ[:, 0] == 0].sum()
            axial[k, block_occ[:, 1]] = labels
            guard[k] = np.abs(f) ** 2 @ (block_occ > tops)
        return cls(swept, swept | ~wigner_sweep_needed(space), radial0,
                   axial, guard)

    @staticmethod
    def _weights(amplitudes: np.ndarray, known: np.ndarray) -> np.ndarray:
        """|psi_k|^2 per row, 0 where |psi_k| <= AMPLITUDE_FLOOR counts as
        unpopulated; a populated level outside `known` is an error."""
        populated = np.abs(amplitudes) > AMPLITUDE_FLOOR
        missing = populated & ~known
        if missing.any():
            k = int(missing[missing.any(axis=1).argmax()].argmax())
            raise ValueError(f"sweep does not cover the populated K = {k}")
        return np.where(populated, np.abs(amplitudes) ** 2, 0.0)

    def read(self, amplitudes: np.ndarray) -> tuple[np.ndarray, ...]:
        """Readout of each row of radial amplitudes: (p_phonon, leak, bias),
        one entry per input row. bias is sum_k |psi_k|^2 (radial0[k] -
        [k even]), the exact error of the readout's P(radial label 0)
        against the ideal parity map: the parity it reads is off by
        2 bias, W by (4 / pi) bias. A populated level outside `known`
        is an error."""
        w = self._weights(amplitudes, self.known)
        p_phonon = np.clip(1.0 - w @ self.radial0, 0.0, 1.0)
        leak = (w @ self.guard).max(axis=1) >= GUARD_LEAK_THRESHOLD
        even = np.arange(self.radial0.size) % 2 == 0
        return p_phonon, leak, w @ (self.radial0 - even)

    def axial_distribution(self, amplitudes: np.ndarray) -> np.ndarray:
        """Final axial-label distribution of each row of radial amplitudes;
        every populated sector must be swept."""
        return self._weights(amplitudes, self.swept) @ self.axial


def _flags(leak: bool, wigner_bias: float) -> tuple[str, ...]:
    return (("leak",) if leak else ()) + (
        ("diabatic",) if abs(wigner_bias) > READOUT_BIAS_TOLERANCE else ())


# ---------------------------------------------------------------------------
# conversion oscillation


@dataclass(frozen=True)
class OscillationResult:
    hold_times: np.ndarray
    p_radial: np.ndarray
    p_axial: np.ndarray
    p_radial_sampled: np.ndarray
    p_axial_sampled: np.ndarray
    fit_frequency: float  # rad/s
    fit_frequency_err: float  # rad/s, 1 sigma from the fit covariance
    fit_ok: bool
    envelope_tau: float | None

    def to_csv(self, path, comments=()) -> None:
        from .report import write_csv

        rows = np.column_stack([
            self.hold_times * 1e3,
            self.p_radial,
            self.p_axial,
            self.p_radial_sampled,
            self.p_axial_sampled,
        ])
        write_csv(
            path,
            ["t_ms", "p_radial", "p_axial", "p_radial_sampled", "p_axial_sampled"],
            rows,
            comments,
        )


def _fit_tone(t, y, decay: bool):
    """Least-squares cosine fit; returns (omega, omega_err, ok)."""
    # imported here: scipy costs start-up time and memory, and only the fit
    # needs it
    from scipy.optimize import curve_fit

    t = np.asarray(t, float)
    y = np.asarray(y, float)
    yc = y - y.mean()
    dt = np.mean(np.diff(t))
    spec = np.abs(np.fft.rfft(yc))
    freqs = np.fft.rfftfreq(t.size, d=dt)
    f0 = float(freqs[np.argmax(spec[1:]) + 1]) if spec.size > 1 else 1.0 / t[-1]
    a0 = float(y.max() - y.min()) / 2
    c0 = float(y.mean())

    if decay:
        def model(tt, c, a, f, phi, tau):
            return c + a * np.exp(-tt / tau) * np.cos(2 * np.pi * f * tt + phi)
        extra = [t[-1]]
        bounds = ([-np.inf, 0, 0, -2 * np.pi, 1e-6],
                  [np.inf, np.inf, np.inf, 2 * np.pi, np.inf])
    else:
        def model(tt, c, a, f, phi):
            return c + a * np.cos(2 * np.pi * f * tt + phi)
        extra = []
        bounds = ([-np.inf, 0, 0, -2 * np.pi], [np.inf, np.inf, np.inf, 2 * np.pi])

    best = None
    for phi0 in (0.0, np.pi / 2, np.pi, 3 * np.pi / 2):
        try:
            popt, pcov = curve_fit(
                model, t, y, p0=[c0, a0, f0, phi0, *extra], bounds=bounds,
                maxfev=20000,
            )
        except (RuntimeError, ValueError):
            continue
        resid = float(np.sum((model(t, *popt) - y) ** 2))
        if best is None or resid < best[0]:
            best = (resid, popt, pcov)
    if best is None:
        return math.nan, math.nan, False
    _, popt, pcov = best
    f_err = math.sqrt(abs(pcov[2, 2])) if np.isfinite(pcov[2, 2]) else math.nan
    return 2 * math.pi * popt[2], 2 * math.pi * f_err, True


def oscillation_experiment(n_initial: int, hold_times, params: ModeParams,
                           model: MeasurementModel,
                           envelope_tau: float | None = None,
                           space: TwoModeSpace | None = None,
                           parking: float = PARKING_DETUNING,
                           tau_fast: float = TAU_FAST,
                           step: float | None = None) -> OscillationResult:
    """Two-phonon conversion sequence: start at the parking detuning with
    |n_initial> in the radial mode, ramp fast to resonance, hold, ramp back,
    read out both modes.

    The hold sits at delta = 0 exactly (the completed-ramp idealization; the
    RC residual after 5 tau is below 1%). The optional decoherence envelope
    multiplies each excitation probability about the midpoint of its ideal
    swing before the measurement channel is applied.
    """
    if n_initial not in (1, 2):
        raise ValueError("the conversion experiment starts with 1 or 2 phonons")
    space = space or default_space()
    hold_times = np.asarray(hold_times, float)

    down = rc_ramp(parking, 0.0, tau_fast)
    up = rc_ramp(0.0, parking, tau_fast)
    u_down = sweep_unitaries(space, params.xi, down, step, sector_ks=[n_initial])
    u_up = sweep_unitaries(space, params.xi, up, step, sector_ks=[n_initial])

    psi0 = normal_mode_embedding(fock_state(space.radial, n_initial), space, u_down)
    b = block_decompose(space).by_k(n_initial)
    w, v = np.linalg.eigh(b.hamiltonian(params.xi, 0.0))
    after_down = u_down.apply(psi0)

    p_rad = np.empty(hold_times.size)
    p_ax = np.empty(hold_times.size)
    for i, tau in enumerate(hold_times):
        amp = after_down.amplitudes.copy()
        amp[b.indices] = v @ (np.exp(-1j * w * tau) * (v.conj().T @ amp[b.indices]))
        final = u_up.apply(StateVector(amp, space))
        label_pops = normal_mode_populations(final, u_up)
        radial_labels, axial_labels = _label_marginals(label_pops, space)
        p_rad[i] = 1.0 - radial_labels[0]
        p_ax[i] = 1.0 - axial_labels[0]

    if envelope_tau is not None:
        env = np.exp(-hold_times / envelope_tau)
        for trace in (p_rad, p_ax):
            center = 0.5 * (trace.max() + trace.min())
            trace[:] = center + (trace - center) * env

    p_rad_s = np.empty_like(p_rad)
    p_ax_s = np.empty_like(p_ax)
    for i in range(hold_times.size):
        _, p_rad_s[i], _ = measurement_channel(p_rad[i], model, stream=(i, 0))
        _, p_ax_s[i], _ = measurement_channel(p_ax[i], model, stream=(i, 1))

    omega, omega_err, ok = _fit_tone(hold_times, p_ax, decay=envelope_tau is not None)
    return OscillationResult(
        hold_times=hold_times,
        p_radial=p_rad,
        p_axial=p_ax,
        p_radial_sampled=p_rad_s,
        p_axial_sampled=p_ax_s,
        fit_frequency=omega,
        fit_frequency_err=omega_err,
        fit_ok=ok,
        envelope_tau=envelope_tau,
    )


# ---------------------------------------------------------------------------
# avoided crossing


@dataclass(frozen=True)
class SpectrumBranch:
    """Eigenvalue branches of the two-phonon (K = 2) sector vs detuning."""

    deltas: np.ndarray  # rad/s
    branches: np.ndarray  # (n, 2) rad/s, ascending per row
    min_gap: float  # rad/s
    min_gap_delta: float  # rad/s


def avoided_crossing_spectrum(deltas, xi: float) -> SpectrumBranch:
    """K = 2 eigenvalues over a detuning range spanning zero. The sector is
    exactly two-dimensional ({|2,0>, |0,1>}), so truncation plays no role."""
    deltas = np.asarray(deltas, float)
    if deltas.min() > 0 or deltas.max() < 0:
        raise ValueError("the detuning range must span 0")
    block = block_decompose(
        TwoModeSpace(FockDim(4, guard_band=0), FockDim(2, guard_band=0))
    ).by_k(2)
    branches = np.empty((deltas.size, 2))
    for i, d in enumerate(deltas):
        branches[i] = np.linalg.eigvalsh(block.hamiltonian(xi, float(d)))
    gaps = branches[:, 1] - branches[:, 0]
    i_min = int(np.argmin(gaps))
    return SpectrumBranch(
        deltas=deltas,
        branches=branches,
        min_gap=float(gaps[i_min]),
        min_gap_delta=float(deltas[i_min]),
    )


def spectrum_to_csv(spec: SpectrumBranch, path, comments=()) -> None:
    from .report import write_csv

    two_pi = 2 * math.pi
    rows = np.column_stack([
        spec.deltas / two_pi,
        spec.branches[:, 0] / two_pi,
        spec.branches[:, 1] / two_pi,
    ])
    write_csv(path, ["delta_hz", "branch0_hz", "branch1_hz"], rows, comments)


# ---------------------------------------------------------------------------
# adiabatic parity measurement


@dataclass(frozen=True)
class AdiabaticParityResult:
    exact: ParityResult
    sampled: ParityResult
    p_phonon: float
    axial_distribution: np.ndarray
    # exact parity minus the ideal sum_n (-1)^n |psi_n|^2: the sweep's error
    readout_bias: float
    flags: tuple[str, ...]
    sweep_dts: np.ndarray  # the step durations of the sweep's grid


def slow_sweep(parking: float = PARKING_DETUNING,
               tau_rc: float = TAU_SLOW) -> RampSchedule:
    """The parity-measurement ramp: +parking -> -parking, adiabatic RC."""
    return rc_ramp(parking, -parking, tau_rc)


def adiabatic_parity(state_r: StateVector, xi: float, space: TwoModeSpace,
                     schedule: RampSchedule, model: MeasurementModel,
                     step: float | None = None,
                     sweep: SweepResult | None = None,
                     stream: tuple[int, ...] = ()) -> AdiabaticParityResult:
    """Sweep the detuning through the crossing and read the radial mode.

    Even initial Fock components end with the radial mode empty, odd ones
    with a single radial phonon, so P(n_r >= 1) through the mapping channel
    estimates the parity. The final axial distribution (which carries n/2)
    is returned as an extra diagnostic. readout_bias is the exact parity's
    departure from the ideal sum_n (-1)^n |psi_n|^2, known in closed form
    because the readout is per sector (`_SectorReadout.read`); a bias of
    the Wigner value (2 / pi) <P> beyond READOUT_BIAS_TOLERANCE raises the
    'diabatic' flag. It is reported, not fatal.
    """
    if not isinstance(state_r.basis, FockDim) or state_r.basis != space.radial:
        raise ValueError("state must live on the radial mode of the space")
    if sweep is None:
        populated = sorted(
            int(k) for k in np.nonzero(np.abs(state_r.amplitudes) > AMPLITUDE_FLOOR)[0]
        )
        sweep = sweep_unitaries(space, xi, schedule, step, sector_ks=populated)
    elif sweep.space != space:
        raise ValueError("the sweep was built for another space")
    readout = _SectorReadout.of(sweep)
    amplitudes = state_r.amplitudes[None, :]
    # the axial distribution needs every populated sector swept
    axial = readout.axial_distribution(amplitudes)
    p_phonon, leak, bias = readout.read(amplitudes)
    p_phonon = float(p_phonon[0])
    parity_bias = 2.0 * float(bias[0])
    p1, p1_hat, stderr = measurement_channel(p_phonon, model, stream=stream)
    exact = ParityResult(
        p1=p1, parity=parity_estimate(p1, model.eta), shots=0, stderr=0.0,
        eta=model.eta,
    )
    sampled = ParityResult(
        p1=p1_hat, parity=parity_estimate(p1_hat, model.eta),
        shots=model.shots, stderr=2 * stderr / model.eta, eta=model.eta,
    )
    return AdiabaticParityResult(
        exact=exact,
        sampled=sampled,
        p_phonon=p_phonon,
        axial_distribution=axial[0],
        readout_bias=parity_bias,
        flags=_flags(leak[0], 2.0 / math.pi * parity_bias),
        sweep_dts=sweep.dts,
    )


# ---------------------------------------------------------------------------
# Wigner tomography


@dataclass(frozen=True)
class WignerScan:
    """Per-point displaced-parity estimates of the Wigner function."""

    alphas: np.ndarray
    p1_exact: np.ndarray
    p1_sampled: np.ndarray
    parity: np.ndarray
    wigner: np.ndarray
    stderr: np.ndarray
    flags: tuple[str, ...]
    meta: dict = field(compare=False)
    # the step durations of the sweep's grid
    sweep_dts: np.ndarray | None = field(default=None, compare=False)
    # per point, the error of the exact W against the ideal displaced
    # parity (2/pi) <P> that the sweep's readout makes (`_SectorReadout.
    # read`); dark counts, if modelled, come on top
    readout_bias: np.ndarray | None = field(default=None, compare=False)
    # (swept, populated): of the K sectors some displaced grid state
    # populates, how many the readout took from the sweep's march; the
    # others it reads exactly without one (`wigner_sweep_needed`)
    sweep_sectors: tuple[int, int] | None = field(default=None, compare=False)

    def __post_init__(self):
        eta = self.meta.get("eta", 1.0)
        bound = (2 / math.pi) * (1 + 2 * (1 - eta) / eta) + 1e-9
        if np.abs(self.wigner).max() > bound:
            raise ValueError(
                f"Wigner estimate exceeds the eta-corrected bound {bound:.4f}"
            )

    def to_csv(self, path, comments=()) -> None:
        from .report import write_csv

        rows = [
            (
                a.real, a.imag, p1e, p1s, par, w, se, fl,
            )
            for a, p1e, p1s, par, w, se, fl in zip(
                self.alphas, self.p1_exact, self.p1_sampled, self.parity,
                self.wigner, self.stderr, self.flags,
            )
        ]
        write_csv(
            path,
            ["re_alpha", "im_alpha", "p1_exact", "p1_sampled", "parity",
             "wigner", "stderr", "flags"],
            rows,
            comments,
        )


def phase_space_grid(extent: float = 3.0, points: int = 41) -> np.ndarray:
    """Flat row-major square grid re + i*im, re outer, im inner."""
    axis = np.linspace(-extent, extent, points)
    re, im = np.meshgrid(axis, axis, indexing="ij")
    return (re + 1j * im).ravel()


def _displaced_blocks(state_r: StateVector, alphas: np.ndarray):
    """Yield (first point index, rows D(-alpha) psi) over the grid, a block
    of points at a time; a block's arrays stay near BLOCK_BYTES."""
    dim_r = state_r.basis
    block = max(1, BLOCK_BYTES // (64 * dim_r.dim))
    for lo in range(0, alphas.size, block):
        yield lo, displaced_amplitudes(state_r.amplitudes,
                                       -alphas[lo:lo + block], dim_r)


def wigner_scan(state_r: StateVector, alphas, xi: float, space: TwoModeSpace,
                schedule: RampSchedule, model: MeasurementModel,
                exact: bool = False, step: float | None = None,
                sweep: SweepResult | None = None,
                meta: dict | None = None) -> WignerScan:
    """Displace, sweep, map, estimate: W(alpha) = (2/pi) <P>.

    The sweep is computed once and shared across grid points (and across
    scans when passed in). Without one, the scan sweeps only the K sectors
    that some displaced grid state populates above AMPLITUDE_FLOOR and
    whose readout depends on the sweep (`wigner_sweep_needed`): an odd
    sector with no guard-band state reads radial0 = 0 and guard = 0
    exactly, swept or not, so a sweep passed in may lack it too. Because
    the readout acts on each K sector separately, a point needs only its
    displaced radial populations: the grid is displaced and read out in
    blocks of points, with the figures of each sector computed once per
    sweep, and gives at each point what adiabatic_parity gives for the
    displaced state, readout_bias included. Per-point randomness is
    drawn from the stream (seed, point index), so the scan is deterministic;
    an exact scan draws nothing.
    """
    alphas = np.asarray(alphas, complex).ravel()
    dim_r = state_r.basis
    if not isinstance(dim_r, FockDim) or dim_r != space.radial:
        raise ValueError("state must live on the radial mode of the space")
    if sweep is not None and sweep.space != space:
        raise ValueError("the sweep was built for another space")
    populated = np.zeros(dim_r.dim, dtype=bool)
    for _, disp in _displaced_blocks(state_r, alphas):
        populated |= (np.abs(disp) > AMPLITUDE_FLOOR).any(axis=0)
    if sweep is None:
        sweep = sweep_unitaries(
            space, xi, schedule, step,
            sector_ks=np.flatnonzero(populated & wigner_sweep_needed(space)))
    readout = _SectorReadout.of(sweep)

    n = alphas.size
    p_phonon = np.empty(n)
    leak = np.empty(n, dtype=bool)
    bias = np.empty(n)
    for lo, disp in _displaced_blocks(state_r, alphas):
        span = slice(lo, lo + disp.shape[0])
        p_phonon[span], leak[span], bias[span] = readout.read(disp)
        disp_leak = (np.abs(disp[:, dim_r.top_physical + 1:]) ** 2).sum(axis=1)
        leak[span] |= disp_leak >= GUARD_LEAK_THRESHOLD
    bias *= 4.0 / math.pi
    flags = tuple(";".join(_flags(lk, b))
                  for lk, b in zip(leak.tolist(), bias.tolist()))

    if exact:
        p1_exact = _bright_probability(p_phonon, model)
        p1_sampled = p1_exact.copy()
        stderr = np.zeros(n)
    else:
        p1_exact = np.empty(n)
        p1_sampled = np.empty(n)
        stderr = np.empty(n)
        for i, p in enumerate(p_phonon.tolist()):
            p1_exact[i], p1_sampled[i], stderr[i] = measurement_channel(
                p, model, stream=(i,))
    parity = 1.0 - 2.0 * p1_sampled / model.eta
    scan_meta = {
        "eta": model.eta,
        "shots": 0 if exact else model.shots,
        "seed": model.seed,
        "exact": exact,
        "radial_dim": space.radial.dim,
        "axial_dim": space.axial.dim,
        "tau_rc_s": schedule.tau_rc,
    }
    scan_meta.update(meta or {})
    return WignerScan(
        alphas=alphas,
        p1_exact=p1_exact,
        p1_sampled=p1_sampled,
        parity=parity,
        wigner=2.0 / math.pi * parity,
        stderr=2.0 / math.pi * 2.0 * stderr / model.eta,
        flags=flags,
        meta=scan_meta,
        sweep_dts=sweep.dts,
        readout_bias=bias,
        sweep_sectors=(int((populated & readout.swept).sum()),
                       int(populated.sum())),
    )


def radial_cut(state_r: StateVector, radii, xi: float, space: TwoModeSpace,
               schedule: RampSchedule, model: MeasurementModel,
               n_phases: int = 8, step: float | None = None,
               sweep: SweepResult | None = None) -> np.ndarray:
    """Phase-averaged exact W(|alpha|) on the given radii (n_phases points
    per circle; states with rotation-symmetric W make this a consistency
    average rather than new information)."""
    radii = np.asarray(radii, float)
    phases = np.exp(2j * np.pi * np.arange(n_phases) / n_phases)
    alphas = (radii[:, None] * phases[None, :]).ravel()
    scan = wigner_scan(state_r, alphas, xi, space, schedule, model,
                       exact=True, step=step, sweep=sweep)
    return scan.wigner.reshape(radii.size, n_phases).mean(axis=1)

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

Randomness: every shot is drawn in `measurement_channel`, which states the
stream layout.
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
    GUARD_LEAK_THRESHOLD,
)
from .trap import ModeParams

PARKING_DETUNING = 2 * math.pi * 35e3  # rad/s, mode-decoupling point
TAU_SLOW = 2e-3  # s, adiabatic RC constant
TAU_FAST = 20e-6  # s, diabatic RC constant
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

# most shots that numpy's binomial draw takes, the largest 64-bit integer
MAX_SHOTS = (1 << 63) - 1


@dataclass(frozen=True)
class MeasurementModel:
    """Phonon-to-qubit mapping efficiency plus shot sampling parameters.
    The reference calibration folds every readout imperfection into eta."""

    eta: float = 0.86
    shots: int = 500
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.eta <= 1:
            raise ValueError("eta must lie in (0, 1]")
        if not 1 <= self.shots <= MAX_SHOTS:
            raise ValueError(f"shots must lie in [1, MAX_SHOTS = {MAX_SHOTS}]")
        if self.seed < 0:
            raise ValueError("seed must be a non-negative integer")

    def rng(self, *stream: int) -> np.random.Generator:
        return np.random.default_rng([self.seed, *stream])


# The random streams of each experiment that draws shots: the value at
# index (i, ...) of the array `measurement_channel` samples draws from the
# PCG64 stream SeedSequence(seed, *stream, i, ...).
STREAMS = {
    "oscillate": "per-hold streams via SeedSequence(seed, hold_index, 0 for "
                 "radial or 1 for axial)",
    "parity": "one stream via SeedSequence(seed, 0), the scan's point 0; "
              "equal to SeedSequence(seed) below 2^96",
    "wigner": "per-point streams via SeedSequence(seed, point_index)",
}


def measurement_channel(p_phonon, model: MeasurementModel,
                        stream: tuple[int, ...] = (),
                        exact: bool = False) -> tuple[np.ndarray, ...]:
    """Bright-state probabilities through the eta-limited mapping, for an
    array of p_phonon values (a scalar is a 0-d array).

    Returns arrays (p1_exact, p1_sampled, stderr) of p_phonon's shape:
    p1_exact = eta * p_phonon, p1_sampled a Binomial(shots, p1_exact) /
    shots draw and stderr the binomial error at the sampled estimate. The
    value at index idx draws from the generator seeded with
    (seed, *stream, *idx) (`STREAMS`), so each value is an independent work
    item. With `exact` nothing is drawn: p1_sampled is p1_exact and stderr
    is 0.
    """
    p = np.asarray(p_phonon, dtype=float)
    outside = ~((p >= 0.0) & (p <= 1.0 + 1e-12))
    if outside.any():
        raise ValueError(f"p_phonon = {p[outside].flat[0]} outside [0, 1]")
    p = np.minimum(p, 1.0)
    p1 = model.eta * p
    if exact:
        return p1, p1.copy(), np.zeros(p.shape)
    shots = model.shots
    p1_hat = np.fromiter(
        (model.rng(*stream, *idx).binomial(shots, x) / shots
         for idx, x in zip(np.ndindex(p.shape), p1.ravel().tolist())),
        dtype=float, count=p.size).reshape(p.shape)
    return p1, p1_hat, np.sqrt(np.maximum(p1_hat * (1.0 - p1_hat), 0.0) / shots)


# ---------------------------------------------------------------------------
# normal-mode (adiabatic-label) basis at a working detuning


def _label_basis(vecs: np.ndarray, delta: float) -> np.ndarray:
    """Columns indexed by the local bare label (ascending n_c); column j is
    the eigenvector adiabatically connected to that label at the given
    detuning: eigenvalue rank j for delta > 0, reversed order for delta < 0
    (bare sector energies are delta * n_c). Only the order is fixed: every
    reader squares moduli, so a column's sign does not matter."""
    if delta == 0:
        raise ValueError("normal-mode labels are undefined at delta = 0")
    return vecs if delta > 0 else vecs[:, ::-1]


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
    figures of f_k = U_k e_k (`SweepResult.evolved`): `radial0` is the final population of the
    labels with radial label 0, `axial` the final axial-label marginal and
    `guard` the radial and axial guard-band populations. An ideal sweep
    maps e_k to radial label 0 for even k and to radial label 1 for odd k,
    so radial0[k] - [k even] is all that sector's readout error; for odd k
    no label of the sector has radial label 0, and it is exactly 0.

    `swept` marks the sectors the sweep marched and `known` those whose
    radial0 and guard `read` knows: the swept ones and every sector that
    `wigner_sweep_needed` leaves out, whose radial0 = 0 and guard = 0 by its
    basis alone. Such a sector's axial marginal does depend on the sweep, so
    `axial_distribution` takes swept sectors only. A sweep that starts at
    delta = 0, where no label is defined, is refused.
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
        if sweep.schedule.delta_start == 0:
            raise ValueError("normal-mode labels are undefined at delta = 0")
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
            f = sweep.evolved[k]
            labels = np.abs(_label_basis(bases[1], delta1).T @ f) ** 2
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
        one entry per input row, and per level k whether some row populates
        it. bias is sum_k |psi_k|^2 (radial0[k] - [k even]), the exact error
        of the readout's P(radial label 0) against the ideal parity map: the
        parity it reads is off by 2 bias, W by (4 / pi) bias. A populated
        level outside `known` is an error."""
        w = self._weights(amplitudes, self.known)
        p_phonon = np.clip(1.0 - w @ self.radial0, 0.0, 1.0)
        leak = (w @ self.guard).max(axis=1) >= GUARD_LEAK_THRESHOLD
        even = np.arange(self.radial0.size) % 2 == 0
        # w is 0 exactly where |psi_k| <= AMPLITUDE_FLOOR
        return p_phonon, leak, w @ (self.radial0 - even), (w > 0).any(axis=0)

    def axial_distribution(self, amplitudes: np.ndarray) -> np.ndarray:
        """Final axial-label distribution of each row of radial amplitudes;
        every populated sector must be swept."""
        return self._weights(amplitudes, self.swept) @ self.axial


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
    fit_ok: bool

    def to_csv(self, path, comments=()) -> None:
        from .report import write_csv

        write_csv(
            path,
            ["t_ms", "p_radial", "p_axial", "p_radial_sampled", "p_axial_sampled"],
            [self.hold_times * 1e3, self.p_radial, self.p_axial,
             self.p_radial_sampled, self.p_axial_sampled],
            comments,
        )


def _fit_tone(t, y, decay: bool):
    """Least-squares fit of c + a e^(-kt) cos(2 pi f t + phi), with k = 0
    without decay, by variable projection (Golub & Pereyra 1973): each trial
    (f, k) solves the offset and both quadratures linearly, so only f and k
    iterate. Returns (omega, ok, rss)."""
    t, y = np.asarray(t, float), np.asarray(y, float)

    def project(f, k=0.0):
        # Jacobian columns: d/dc, d/dp, d/dq of c + e^(-kt) (p cos - q sin),
        # then d/df and, with decay, d/dk
        env = np.exp(-k * t)
        cos, sin = env * np.cos(2 * np.pi * f * t), env * np.sin(2 * np.pi * f * t)
        basis = np.column_stack([np.ones_like(t), cos, -sin])
        c, p, q = np.linalg.lstsq(basis, y, rcond=None)[0]
        resid = y - basis @ [c, p, q]
        jac = np.column_stack([basis, -2 * np.pi * t * (p * sin + q * cos)]
                              + ([-t * (p * cos - q * sin)] if decay else []))
        return float(resid @ resid), resid, jac

    # seed f at the best of the three largest FFT bins, each refined over
    # +-1 bin on the projected residual
    bin_hz = 1.0 / (t.size * np.mean(np.diff(t)))
    peaks = bin_hz * (np.argsort(np.abs(np.fft.rfft(y - y.mean()))[1:])[-3:] + 1)
    trials = (peaks[:, None] + bin_hz * np.linspace(-1, 1, 21)).ravel()
    k0 = [1.0 / t[-1]] if decay else []
    x = np.array([min(trials, key=lambda f: project(f, *k0)[0])] + k0)
    rss, resid, jac = project(*x)
    for _ in range(100):  # Gauss-Newton; the linear part is re-solved per step
        step = np.linalg.lstsq(jac, resid, rcond=None)[0][3:]
        for _ in range(30):  # halve the step until the residual does not grow
            trial = project(*(x + step))
            if trial[0] <= rss:
                break
            step /= 2
        else:
            break  # no step lowers the residual: x is its minimum to rounding
        x, (rss, resid, jac) = x + step, trial
        if np.abs(step).max() * t[-1] <= 1e-12:
            break
    else:
        return math.nan, False, rss
    return 2 * math.pi * x[0], bool(x[0] > 0), rss


def oscillation_experiment(n_initial: int, hold_times, params: ModeParams,
                           model: MeasurementModel, space: TwoModeSpace,
                           envelope_tau: float | None = None,
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
    if n_initial > space.radial.top_physical:
        raise ValueError(
            f"fock occupation {n_initial} exceeds physical range "
            f"0..{space.radial.top_physical}")
    hold_times = np.asarray(hold_times, float)

    down = rc_ramp(parking, 0.0, tau_fast)
    up = rc_ramp(0.0, parking, tau_fast)
    u_down = sweep_unitaries(space, params.xi, down, step, sector_ks=[n_initial])
    u_up = sweep_unitaries(space, params.xi, up, step, sector_ks=[n_initial])

    # the whole sequence stays in sector K = n_initial: its label-0 state
    # at the parking detuning, swept down, held, swept up
    label0 = _label_basis(u_down.endpoint_bases[n_initial][0], parking)[:, 0]
    b = block_decompose(space).by_k(n_initial)
    w, v = np.linalg.eigh(b.hamiltonians(params.xi, [0.0])[0])
    after_down = u_down.unitaries[n_initial] @ label0
    up_unitary = u_up.unitaries[n_initial]

    # per hold, the radial and the axial excitation probability
    p = np.empty((hold_times.size, 2))
    for i, tau in enumerate(hold_times):
        held = v @ (np.exp(-1j * w * tau) * (v.conj().T @ after_down))
        amp = np.zeros(space.dim, dtype=complex)
        amp[b.indices] = up_unitary @ held
        labels = normal_mode_populations(StateVector(amp, space), u_up).reshape(
            space.radial.dim, space.axial.dim)
        p[i] = 1.0 - labels.sum(axis=1)[0], 1.0 - labels.sum(axis=0)[0]

    if envelope_tau is not None:
        env = np.exp(-hold_times / envelope_tau)
        for trace in p.T:
            center = 0.5 * (trace.max() + trace.min())
            trace[:] = center + (trace - center) * env

    # hold i draws from the streams (i, 0) and (i, 1)
    _, sampled, _ = measurement_channel(p, model)

    omega, ok, _ = _fit_tone(hold_times, p[:, 1], decay=envelope_tau is not None)
    return OscillationResult(
        hold_times=hold_times,
        p_radial=p[:, 0],
        p_axial=p[:, 1],
        p_radial_sampled=sampled[:, 0],
        p_axial_sampled=sampled[:, 1],
        fit_frequency=omega,
        fit_ok=ok,
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
    branches = np.linalg.eigvalsh(block.hamiltonians(xi, deltas))
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
    write_csv(path, ["delta_hz", "branch0_hz", "branch1_hz"],
              [spec.deltas / two_pi, spec.branches[:, 0] / two_pi,
               spec.branches[:, 1] / two_pi], comments)


# ---------------------------------------------------------------------------
# adiabatic parity measurement: the Wigner scan's undisplaced point,
# <P> = (pi / 2) W(0)


def slow_sweep(parking: float = PARKING_DETUNING,
               tau_rc: float = TAU_SLOW) -> RampSchedule:
    """The ramp of the displaced-parity readout, which parity and Wigner
    runs share: +parking -> -parking, adiabatic RC. It carries even radial
    Fock components to the empty radial mode and odd ones to one radial
    phonon."""
    return rc_ramp(parking, -parking, tau_rc)


def axial_distribution(state_r: StateVector, sweep: SweepResult) -> np.ndarray:
    """Final axial-label distribution of a radial state after the sweep,
    which carries n // 2 from |n>; every populated sector, odd ones
    included, must be swept."""
    if state_r.basis != sweep.space.radial:
        raise ValueError("state must live on the radial mode of the space")
    readout = _SectorReadout.of(sweep)
    return readout.axial_distribution(state_r.amplitudes[None, :])[0]


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
    eta: float  # the model's detection efficiency, which sets the bound on W
    # per point, the error of the exact W against the ideal displaced
    # parity (2/pi) <P> that the readout makes (`_SectorReadout.read`)
    readout_bias: np.ndarray = field(compare=False)
    # per point, the masks behind the 'leak' and 'diabatic' flags
    leak: np.ndarray = field(compare=False)
    diabatic: np.ndarray = field(compare=False)
    # (swept, populated): of the K sectors some displaced grid state
    # populates, how many the readout took from the sweep's march; the
    # others it reads exactly without one (`wigner_sweep_needed`)
    sweep_sectors: tuple[int, int] = field(compare=False)

    def __post_init__(self):
        bound = (2 / math.pi) * (1 + 2 * (1 - self.eta) / self.eta) + 1e-9
        if np.abs(self.wigner).max() > bound:
            raise ValueError(
                f"Wigner estimate exceeds the eta-corrected bound {bound:.4f}"
            )

    def to_csv(self, path, comments=()) -> None:
        from .report import write_csv

        write_csv(
            path,
            ["re_alpha", "im_alpha", "p1_exact", "p1_sampled", "parity",
             "wigner", "stderr", "flags"],
            [self.alphas.real, self.alphas.imag, self.p1_exact,
             self.p1_sampled, self.parity, self.wigner, self.stderr,
             self.flags],
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


def scan_sweep(state_r: StateVector, alphas, xi: float, space: TwoModeSpace,
               schedule: RampSchedule, step: float | None = None) -> SweepResult:
    """The sweep a Wigner scan of `state_r` on `alphas` needs: of the K
    sectors that some displaced grid state populates above AMPLITUDE_FLOOR,
    those whose readout depends on the sweep (`wigner_sweep_needed`)."""
    alphas = np.asarray(alphas, complex).ravel()
    if state_r.basis != space.radial:
        raise ValueError("state must live on the radial mode of the space")
    populated = np.zeros(space.radial.dim, dtype=bool)
    for _, disp in _displaced_blocks(state_r, alphas):
        populated |= (np.abs(disp) > AMPLITUDE_FLOOR).any(axis=0)
    return sweep_unitaries(
        space, xi, schedule, step,
        sector_ks=np.flatnonzero(populated & wigner_sweep_needed(space)))


def wigner_scan(state_r: StateVector, alphas, sweep: SweepResult,
                model: MeasurementModel, exact: bool = False) -> WignerScan:
    """Displace, sweep, map, estimate: W(alpha) = (2/pi) <P>.

    The sweep fixes the space, coupling, ramp and step, and is shared
    across grid points and scans. It must cover every populated sector
    whose readout depends on it; `scan_sweep` builds the least such sweep.
    Because the readout acts on each K sector separately, a point needs
    only its displaced radial populations: the grid is displaced and read
    out in one pass of blocks of points, with the figures of each sector
    computed once per sweep. Per-point randomness is drawn from the stream
    (seed, point index), so the scan is deterministic; an exact scan draws
    nothing.

    The parity measurement is the one-point scan at alpha = 0, <P> =
    (pi / 2) W(0). Its draw comes from the stream (seed, 0), which numpy's
    SeedSequence, padding its entropy with zeros to four 32-bit words,
    makes the stream (seed) for every seed below 2^96.
    """
    alphas = np.asarray(alphas, complex).ravel()
    dim_r = state_r.basis
    if dim_r != sweep.space.radial:
        raise ValueError("state must live on the radial mode of the space")
    readout = _SectorReadout.of(sweep)

    n = alphas.size
    p_phonon = np.empty(n)
    leak = np.empty(n, dtype=bool)
    bias = np.empty(n)
    populated = np.zeros(dim_r.dim, dtype=bool)
    for lo, disp in _displaced_blocks(state_r, alphas):
        span = slice(lo, lo + disp.shape[0])
        p_phonon[span], leak[span], bias[span], block = readout.read(disp)
        populated |= block
        disp_leak = (np.abs(disp[:, dim_r.top_physical + 1:]) ** 2).sum(axis=1)
        leak[span] |= disp_leak >= GUARD_LEAK_THRESHOLD
    bias *= 4.0 / math.pi
    diabatic = np.abs(bias) > READOUT_BIAS_TOLERANCE
    flags = np.where(leak, np.where(diabatic, "leak;diabatic", "leak"),
                     np.where(diabatic, "diabatic", ""))

    p1_exact, p1_sampled, stderr = measurement_channel(p_phonon, model,
                                                       exact=exact)
    parity = 1.0 - 2.0 * p1_sampled / model.eta
    return WignerScan(
        alphas=alphas,
        p1_exact=p1_exact,
        p1_sampled=p1_sampled,
        parity=parity,
        wigner=2.0 / math.pi * parity,
        stderr=2.0 / math.pi * 2.0 * stderr / model.eta,
        flags=tuple(flags.tolist()),
        eta=model.eta,
        readout_bias=bias,
        leak=leak,
        diabatic=diabatic,
        sweep_sectors=(int((populated & readout.swept).sum()),
                       int(populated.sum())),
    )


def radial_cut(state_r: StateVector, radii, sweep: SweepResult,
               model: MeasurementModel) -> np.ndarray:
    """Phase-averaged exact W(|alpha|) on the given radii (8 points per
    circle; states with rotation-symmetric W make this a consistency
    average rather than new information)."""
    radii = np.asarray(radii, float)
    phases = np.exp(2j * np.pi * np.arange(8) / 8)
    alphas = (radii[:, None] * phases[None, :]).ravel()
    scan = wigner_scan(state_r, alphas, sweep, model, exact=True)
    return scan.wigner.reshape(radii.size, 8).mean(axis=1)

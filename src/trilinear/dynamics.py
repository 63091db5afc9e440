"""Rotating-frame Hamiltonian, conserved-weight blocks and propagation.

Frame choice, documented once and relied on everywhere: the lab-frame
Hamiltonian contains free evolution at omega_r (radial mode a) and
omega_s ~ 2 omega_r (axial mode c), MHz scales that would force ns steps.
We work in the interaction frame rotating at omega_r for mode a and at
2 omega_r for mode c, which leaves

    H / hbar = delta * c^dag c + xi * (a^dag^2 c + a^2 c^dag),

with delta = omega_s - 2 omega_r. The coupling term is invariant under this
rotation (the 2 omega_r phase of a^dag^2 cancels against the one of c), so
populations and eigenvalue differences -- everything this package reports --
are unchanged, while step sizes are set by kHz scales.

H commutes exactly with K = a^dag a + 2 c^dag c, so evolution is computed
per K sector: dense full-space cost O(D^3) becomes a sum of small cubes.

Time-dependent detuning ramps are propagated step by step with the
fourth-order Magnus exponent of two Gauss points (Blanes et al., Phys. Rep.
470, 151 (2009)). H(t) is linear in delta(t), so that exponent is a real
symmetric sector matrix conjugated by a diagonal phase (`piecewise_deltas`),
and each step is the exact exponential of it, computed from one
eigendecomposition of the real matrix. Every step is exactly unitary;
accuracy is certified by the step-halving convergence contract rather than
by an adaptive integrator. One kernel, `_march`, does every step-by-step
propagation. It packs the sectors into bins and splits the bins into one
share per usable core; the calling thread and worker threads owned by the
call each march one share end to end, a batch of steps at a time: one
batched eigh per sector size diagonalizes the batch's step matrices, and
the given columns of all the share's sectors advance together, so the
Python-level cost per step is a few small array operations.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from .errors import NumericalContractError, StepPolicyError
from .fock import NORM_TOL, TwoModeSpace, _annihilation, _readonly

# Memory for the propagation kernel's stacks: the step matrices of a batch of
# steps, their eigenvalues and eigenvectors, and the march's stacks. The
# kernel's shares divide it, and each share's batch length follows from its
# part, so memory stays bounded whatever the ramp length. A batch holds at
# least one step, so one step's eigenvector stack over every bin is a floor
# above it on large spaces: 62 MiB at 256 x 128 and 152 MiB at 256 x 256,
# the largest that config.MAX_LEVELS admits.
CHUNK_BYTES = 12 << 20

# eigh work, in s^3 per s x s matrix (about 7 ns each on one core of a
# 2.1 GHz Xeon), that a share of the propagation kernel must carry over its
# whole march to be worth a thread of its own
SHARE_WORK = 1 << 20

# floor under the graded step grid's density exp(-t / (2 tau_rc))
# (`piecewise_deltas`): the steps of a settled ramp stay within 5 times the
# finest one, which keeps its phase evolution resolved
GRID_FLOOR = 0.2

# most steps of one grid (`piecewise_deltas`), 96 MiB for its three arrays:
# a step so fine that it needs more is refused before the grid is laid (the
# reference sweep lays 1712)
MAX_STEPS = 1 << 22


@dataclass(frozen=True)
class SectorBlock:
    """Basis slice of one K = n_a + 2 n_c sector.

    States are ordered by increasing n_c, which rises by one from state to
    state, so the sector matrix is tridiagonal: `n_c_diag` holds the
    diagonal of c^dag c and `coupling_offdiag` the off-diagonal of the
    symmetric (a^dag^2 c + a^2 c^dag).
    """

    k: int
    indices: np.ndarray
    n_c_diag: np.ndarray
    coupling_offdiag: np.ndarray

    @property
    def size(self) -> int:
        return self.indices.size

    def hamiltonians(self, xi: float, deltas) -> np.ndarray:
        """Stack (len(deltas), s, s) of the sector matrix at each detuning."""
        deltas = np.asarray(deltas, dtype=float)
        return _step_matrices(np.empty(deltas.size * self.size ** 2),
                              self.coupling_offdiag[None], self.n_c_diag[None],
                              np.full(deltas.size, xi), deltas)[0]


@dataclass(frozen=True)
class BlockDecomposition:
    """The K sectors of a space, in ascending K, with an index built once:
    `by_k` finds a sector."""

    space: TwoModeSpace
    blocks: tuple[SectorBlock, ...]
    _by_k: dict[int, SectorBlock] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        covered = np.zeros(self.space.dim, dtype=bool)
        for b in self.blocks:
            covered[b.indices] = True
        if not covered.all() or sum(b.size for b in self.blocks) != self.space.dim:
            raise ValueError("sectors do not partition the basis")
        object.__setattr__(self, "_by_k", {b.k: b for b in self.blocks})

    def by_k(self, k: int) -> SectorBlock:
        if k not in self._by_k:
            raise KeyError(f"no K = {k} sector in this space")
        return self._by_k[k]


@lru_cache(maxsize=32)
def block_decompose(space: TwoModeSpace) -> BlockDecomposition:
    """Partition the basis by the conserved weight K = n_a + 2 n_c."""
    occ, k_of = space.occupations(), space.k_values()
    blocks = []
    for k in np.unique(k_of):
        # the sector's states by increasing n_c, hence decreasing index
        indices = np.flatnonzero(k_of == k)[::-1].copy()
        n_a, n_c = occ[indices].T
        # <n_a + 2, n_c - 1| a^dag^2 c |n_a, n_c> beside the diagonal
        amp = np.sqrt((n_a + 1) * (n_a + 2) * n_c)[1:]
        blocks.append(SectorBlock(k=int(k), indices=indices, n_c_diag=n_c.astype(float),
                                  coupling_offdiag=amp))
    return BlockDecomposition(space=space, blocks=tuple(blocks))


@dataclass(frozen=True)
class RotatingFrameHamiltonian:
    """H / hbar = delta * c^dag c + xi * (a^dag^2 c + a^2 c^dag), rad/s."""

    xi: float
    delta: float
    space: TwoModeSpace

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense full-space matrix, read-only; built on demand (tests and
        small spaces)."""
        a = _annihilation(self.space.radial.dim)
        c = _annihilation(self.space.axial.dim)
        n_c = c.conj().T @ c
        up = np.kron(a.conj().T @ a.conj().T, c)
        m = self.delta * np.kron(np.eye(self.space.radial.dim), n_c)
        m = m + self.xi * (up + up.conj().T)
        return _readonly(m)


# ---------------------------------------------------------------------------
# detuning ramps


@dataclass(frozen=True)
class RampSchedule:
    """RC-filtered exponential detuning ramp
    delta(t) = delta_end + (delta_start - delta_end) exp(-t / tau_rc).
    """

    delta_start: float
    delta_end: float
    tau_rc: float
    duration: float

    def __post_init__(self):
        for name in ("delta_start", "delta_end", "tau_rc", "duration"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} {getattr(self, name)} is not finite")
        if self.tau_rc <= 0:
            raise ValueError("tau_rc must be positive")
        if self.duration < 5 * self.tau_rc:
            raise ValueError(
                f"duration {self.duration} shorter than 5 tau_rc = "
                f"{5 * self.tau_rc}; the ramp would not settle below 1%"
            )

    def delta_at(self, t):
        return self.delta_end + (self.delta_start - self.delta_end) * np.exp(
            -np.asarray(t) / self.tau_rc
        )


def rc_ramp(delta_start: float, delta_end: float, tau_rc: float) -> RampSchedule:
    """The ramp that runs for 5 tau_rc, where it has settled below 1%."""
    return RampSchedule(delta_start=delta_start, delta_end=delta_end,
                        tau_rc=tau_rc, duration=5 * tau_rc)


def default_step(xi: float, schedule: RampSchedule) -> float:
    """Conservative finest step of the graded grid (`piecewise_deltas`), taken
    where the ramp is steepest: it resolves both the ramp (tau_rc / 50) and
    the fastest relevant phase evolution, 12.5 fourth-order Magnus steps per
    period of max(|delta endpoints|, 2 sqrt(2) xi). On the reference sweep
    the graded grid then lays 1712 steps of 2.29 to 11.4 us, and halving
    the step changes W by 1.1e-8.
    """
    omega_ref = max(abs(schedule.delta_start), abs(schedule.delta_end),
                    2 * math.sqrt(2) * abs(xi))
    bound = 2 * math.pi / (12.5 * omega_ref) if omega_ref > 0 else math.inf
    return min(schedule.tau_rc / 50, bound)


def _check_step(step: float, schedule: RampSchedule | None = None) -> None:
    """StepPolicyError unless `step` is finite and positive and, given a
    schedule, at most its tau_rc / 50."""
    if not (math.isfinite(step) and step > 0):
        raise StepPolicyError(f"step {step} is not a finite positive duration")
    if schedule is not None and step > schedule.tau_rc / 50 * (1 + 1e-12):
        raise StepPolicyError(
            f"step {step} exceeds tau_rc / 50 = {schedule.tau_rc / 50}"
        )


# ---------------------------------------------------------------------------
# propagation


def _step_matrices(buffer: np.ndarray, offdiag: np.ndarray, n_c: np.ndarray,
                   xis: np.ndarray, deltas: np.ndarray) -> np.ndarray:
    """Stack (g, len(deltas), s, s) of the matrices deltas[t] N + xis[t] C
    of g sectors of equal size s, a view of the front of the flat `buffer`.
    The sector matrices are tridiagonal, so after zeroing that view only
    their two diagonals are written: the n_c diagonals N (g, s) and the
    coupling off-diagonals (g, s - 1) of C."""
    (g, s), c = n_c.shape, deltas.size
    flat = buffer[:g * c * s * s].reshape(g, c, s * s)
    flat.fill(0.0)
    flat[..., ::s + 1] += n_c[:, None, :] * deltas[None, :, None]
    flat[..., 1::s + 1] = flat[..., s::s + 1] = offdiag[:, None, :] * xis[None, :, None]
    return flat.reshape(g, c, s, s)


def _worker_count() -> int:
    """Decomposition workers of `_march`: one per core this process may use."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _split(costs, n: int) -> list[list[int]]:
    """Indices of `costs` in n shares of nearly equal sum (largest first,
    each to the lightest share)."""
    shares: list[list[int]] = [[] for _ in range(n)]
    loads = [0] * n
    for i in sorted(range(len(costs)), key=lambda i: -costs[i]):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]
    return [sorted(share) for share in shares]


def _march(blocks, xi: float, deltas, dts, cols, gammas):
    """Evolve, in lockstep, columns of several K sectors through the steps
    P_t^dag exp(-i dts[t] H_t) P_t, in order, with
    H_t = deltas[t] N + xi sqrt(1 + gammas[t]^2) C (N the n_c diagonal, C
    the coupling) and the twist P_t = diag(exp(i n_c atan gammas[t])):
    the fourth-order Magnus step of `piecewise_deltas`. With zero twists
    a step is exp(-i H(deltas[t]) dts[t]).

    `cols[j]` ((s_j,) or (s_j, m_j)) holds the start columns of `blocks[j]`;
    the evolved columns come back in the same shapes. The sectors are
    packed, largest first, into bins of the largest sector's size, whose
    eigenvector matrices are block diagonal, so two real matmuls on the
    (bins, size, .) stack step every sector at once. The march carries P_t
    times the columns: with V_t the eigenvectors of H_t, a step multiplies
    by the diagonal P_t P_{t-1}^dag, changes to the eigenbasis with V_t^T,
    applies one phase per eigenvalue and changes back with V_t; P_T^dag
    ends the march.

    The bins are split into shares of nearly equal eigh work (sectors times
    size cubed), one per usable core and at least SHARE_WORK each. The
    calling thread and a pool of threads that this call owns march one share
    each, end to end, a batch of steps at a time: `_step_matrices` writes
    the step matrices of the share's sectors of one size from their two
    diagonals into the share's one buffer, one batched eigh decomposes
    them, and the bins step through the batch. The shares divide
    CHUNK_BYTES, so memory stays bounded whatever the ramp length. A share
    that raises stops the others at their next batch, and its exception is
    raised here. Every matrix is decomposed and every bin multiplied alone,
    so the result does not depend on the number of shares.
    """
    n = len(blocks)
    if n == 0:
        return []
    deltas = np.atleast_1d(np.asarray(deltas, dtype=float))
    dts = np.atleast_1d(np.asarray(dts, dtype=float))
    gammas = np.atleast_1d(np.asarray(gammas, dtype=float))
    # twists too large to square leave infinite couplings, whose march
    # breaks its norm (`sweep_unitaries` reports it)
    with np.errstate(over="ignore"):
        xis = xi * np.sqrt(1 + gammas ** 2)
    # the twist angles, and their changes from step to step
    thetas = np.arctan(gammas)
    turns = np.diff(thetas, prepend=0.0)
    sizes = np.array([b.size for b in blocks])
    width = sizes.max()
    # first-fit packing: sector j occupies rows offset[j]:offset[j] + s_j
    # of bin bin_of[j]
    free: list[int] = []
    bin_of, offset = np.empty(n, dtype=int), np.empty(n, dtype=int)
    for j in sorted(range(n), key=lambda j: -sizes[j]):
        b = next((b for b, f in enumerate(free) if f >= sizes[j]), len(free))
        if b == len(free):
            free.append(width)
        bin_of[j], offset[j] = b, width - free[b]
        free[b] -= sizes[j]
    rows = [slice(offset[j], offset[j] + sizes[j]) for j in range(n)]
    n_bins = len(free)
    # the shares, with the bins renumbered so that share i holds the bins
    # ends[i]:ends[i + 1]
    work = np.zeros(n_bins, dtype=int)
    np.add.at(work, bin_of, sizes ** 3)
    shares = _split(work, max(1, min(_worker_count(), n_bins,
                                     deltas.size * int(work.sum()) // SHARE_WORK)))
    bin_of = np.argsort(np.concatenate(shares))[bin_of]
    ends = np.cumsum([0] + [len(share) for share in shares])
    budget = CHUNK_BYTES // len(shares)
    # n_c of every row, which the twists act on (0 in unused rows)
    n_c = np.zeros((n_bins, width, 1), dtype=int)
    for j, b in enumerate(blocks):
        n_c[bin_of[j], rows[j], 0] = b.n_c_diag
    levels = np.arange(n_c.max() + 1)

    cols = [np.asarray(col, dtype=complex) for col in cols]
    n_cols = [1 if col.ndim == 1 else col.shape[1] for col in cols]
    # P_t times the columns
    z = np.zeros((n_bins, width, max(n_cols)), dtype=complex)
    for j, col in enumerate(cols):
        z[bin_of[j], rows[j], :n_cols[j]] = col.reshape(sizes[j], -1)
    failed = threading.Event()

    def march(lo: int, hi: int) -> None:
        """March bins lo:hi of z through every step, unless a share fails."""
        try:
            mine = [j for j in range(n) if lo <= bin_of[j] < hi]
            # sectors of one size share an eigh call
            groups = [[j for j in mine if sizes[j] == s]
                      for s in np.unique(sizes[mine])]
            diagonals = [(np.stack([blocks[j].coupling_offdiag for j in m]),
                          np.stack([blocks[j].n_c_diag for j in m])) for m in groups]
            # bytes per step: the eigh's stack of step matrices with its
            # temporaries and its eigenvalues and eigenvectors, at most twice
            # those of every sector; and the march's stacks of eigenvectors,
            # eigenvalues, phases and twists, with the phases' arguments and
            # their sines and cosines
            decomposed = 16 * int(np.sum(sizes[mine] * (sizes[mine] + 1)))
            marched = 8 * (hi - lo) * width * (width + 10)
            widest = max(len(m) * sizes[m[0]] ** 2 for m in groups)
            batch = max(1, min(budget // (decomposed + marched),
                               budget // (64 * widest), deltas.size))
            # the step matrices, of every size group and batch in turn
            steps = np.empty(batch * widest)
            zs, rows_n_c = z[lo:hi], n_c[lo:hi]
            # the same in the step's eigenbasis
            y = np.empty_like(zs)
            # both as real arrays, which the real eigenvectors multiply
            zs_real, y_real = zs.view(float), y.view(float)
            basis = np.zeros((batch, hi - lo, width, width))
            basis_t = basis.transpose(0, 1, 3, 2)
            angle = np.zeros((batch, hi - lo, width))
            for first in range(0, deltas.size, batch):
                if failed.is_set():
                    return
                span = slice(first, first + batch)
                c = min(batch, deltas.size - first)
                for m, (offdiag, diag) in zip(groups, diagonals):
                    w, v = np.linalg.eigh(_step_matrices(
                        steps, offdiag, diag, xis[span], deltas[span]))
                    for k, j in enumerate(m):
                        b, r = bin_of[j] - lo, rows[j]
                        angle[:c, b, r] = w[k]
                        basis[:c, b, r, r] = v[k]
                arg = angle[:c] * dts[span, None, None]
                phases = np.empty((c, hi - lo, width, 1), dtype=complex)
                phases.real[..., 0], phases.imag[..., 0] = np.cos(arg), -np.sin(arg)
                # the twist P_t P_{t-1}^dag of every row
                twists = np.exp(1j * turns[span, None] * levels)[:, rows_n_c]
                for t in range(c):
                    np.multiply(zs, twists[t], out=zs)
                    np.matmul(basis_t[t], zs_real, out=y_real)
                    np.multiply(y, phases[t], out=y)
                    np.matmul(basis[t], y_real, out=zs_real)
        except BaseException:
            failed.set()
            raise

    # a pool starts its threads as jobs are submitted: none for one share
    with ThreadPoolExecutor(max(1, len(shares) - 1),
                            thread_name_prefix="trilinear-eigh") as pool:
        jobs = [pool.submit(march, lo, hi) for lo, hi in zip(ends[1:-1], ends[2:])]
        march(0, ends[1])
        for job in jobs:
            job.result()
    # undo the last step's twist
    untwist = np.exp(-1j * (thetas[-1] if thetas.size else 0.0) * n_c)
    return [(z[bin_of[j], rows[j], :n_cols[j]] * untwist[bin_of[j], rows[j]]
             ).reshape(col.shape) for j, col in enumerate(cols)]


def _grid_density(u, cap: float = 0.0):
    """Step density rho of the graded grid at u = t / tau_rc: exp(-u / 2),
    1 at the ramp start, held from below by GRID_FLOOR and by `cap`, the
    density at which a step lasts tau_rc / 50 (`piecewise_deltas`)."""
    return np.maximum(np.exp(-u / 2), max(GRID_FLOOR, cap))


def piecewise_deltas(schedule: RampSchedule, t0: float, t1: float,
                     step: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Detunings, durations and twists (deltas, dts, gammas) of the steps
    that march [t0, t1], for the fourth-order Magnus step of `_march`.

    Step k of duration h has the Gauss points t_m +- h sqrt(3) / 6 about
    its midpoint t_m, with detunings delta_+- there. With
    H(t) = delta(t) N + xi C (N the n_c diagonal, C the coupling), the
    two-point Magnus exponent is -i h (H(delta_+) + H(delta_-)) / 2 -
    (sqrt(3) h^2 / 12) [H(delta_+), H(delta_-)], and the commutator is
    xi (delta_+ - delta_-) [N, C]. n_c rises by one along each sector, so
    [C, N] is C with its lower half negated, and the exponent is
    -i h P^dag (delta N + xi sqrt(1 + gamma^2) C) P with
    delta = (delta_+ + delta_-) / 2, gamma = (sqrt(3) / 12) h (delta_+ -
    delta_-) and P = diag(exp(i n_c atan gamma)): a real symmetric matrix
    twisted by a diagonal phase. gamma = 0 is the midpoint exponential's
    step at the mean detuning.

    The grid follows the RC ramp. A step's local error grows with the
    ramp's rate of change, which falls as exp(-t / tau_rc), so a step at
    u = t / tau_rc lasts step / rho(u) with rho(u) = max(exp(-u / 2), f)
    (`_grid_density`) and f = max(GRID_FLOOR, step / (tau_rc / 50)): `step`
    is the finest step, and no step lasts longer than tau_rc / 50. The
    step count, the integral of rho / step over [t0, t1], is rounded up,
    which shortens every step by the same factor, at most n / (n - 1) for
    n steps. The integral of rho is 2 (1 - exp(-u / 2)) up to the kink
    u = -2 ln f and linear after it, so the nodes invert it in closed form.

    Where the tau_rc / 50 cap binds over the whole interval -- always when
    step >= tau_rc / 50 -- the grid is uniform: ceil(span / h) equal steps
    with h = max(step, tau_rc / 50). The grid depends on the ramp only
    through tau_rc, so a flat ramp (delta_start == delta_end) gets the grid
    of a sloped one with the same tau_rc. A step that is not finite and
    positive, or a grid of more than MAX_STEPS steps, is a StepPolicyError,
    raised before any array is allocated.
    """
    _check_step(step)
    span = t1 - t0
    tau = schedule.tau_rc
    coarsest = max(step, tau / 50)
    # the density at which a step lasts tau_rc / 50, and rho's floor
    cap = step / coarsest
    floor = max(GRID_FLOOR, cap)
    kink = -2 * math.log(floor)
    below = 2 * (1 - floor)  # the count at the kink

    def count(u):
        return -2 * np.expm1(-np.minimum(u, kink) / 2) + floor * np.maximum(
            u - kink, 0.0)

    def inverse(c):
        return -2 * np.log1p(-np.minimum(c, below) / 2) + np.maximum(
            c - below, 0.0) / floor

    u0, u1 = t0 / tau, t1 / tau
    uniform = cap >= _grid_density(u0, cap)
    if uniform:
        total = span / coarsest
    else:
        c0, c1 = float(count(u0)), float(count(u1))
        total = (c1 - c0) * tau / step
    if not total <= MAX_STEPS:
        raise StepPolicyError(
            f"step {step} needs {total:.3g} steps over [{t0}, {t1}], more "
            f"than MAX_STEPS = {MAX_STEPS}")
    n = max(1, int(math.ceil(total - 1e-12)))
    if uniform:
        dts = np.full(n, span / n)
        mids = t0 + (np.arange(n) + 0.5) * (span / n)
    else:
        u = inverse(c0 + (c1 - c0) * np.arange(1, n) / n)
        nodes = np.concatenate([[t0], tau * u, [t1]])
        dts = np.diff(nodes)
        mids = 0.5 * (nodes[:-1] + nodes[1:])
    half = dts * (math.sqrt(3) / 6)
    later = np.asarray(schedule.delta_at(mids + half), dtype=float)
    earlier = np.asarray(schedule.delta_at(mids - half), dtype=float)
    return (0.5 * (later + earlier), dts,
            (math.sqrt(3) / 12) * dts * (later - earlier))


# ---------------------------------------------------------------------------
# precomputed sweep propagator


@dataclass(frozen=True)
class SweepResult:
    """One detuning sweep over a set of K sectors, reusable across states.

    endpoint_bases holds the sector eigenvector matrices (columns ascending
    in eigenvalue) at the schedule's first and last instant; protocols use
    them as the normal-mode bases for state preparation and readout.

    evolved holds, per sector, the sweep unitary U_k applied to the start
    eigenvectors the readout needs: column 0 is U_k times the lowest one;
    unless the schedule starts above zero detuning, column 1 is U_k times
    the highest one (the label-0 state below zero). The full unitaries are
    built only on demand, by `unitaries`.

    step is the finest step of the graded grid, which `piecewise_deltas`
    lays once for the sweep; deltas, dts and gammas hold that grid's
    fourth-order Magnus steps: the mean detuning of each step's two Gauss
    points, the step durations and the twists. `unitaries` marches the same
    steps.
    """

    space: TwoModeSpace
    xi: float
    schedule: RampSchedule
    step: float
    deltas: np.ndarray
    dts: np.ndarray
    gammas: np.ndarray
    evolved: dict[int, np.ndarray]
    endpoint_bases: dict[int, tuple[np.ndarray, np.ndarray]]

    @cached_property
    def unitaries(self) -> dict[int, np.ndarray]:
        """Per-sector sweep unitaries of every covered sector, marched
        together from identity columns."""
        decomp = block_decompose(self.space)
        blocks = [decomp.by_k(k) for k in self.endpoint_bases]
        u = _march(blocks, self.xi, self.deltas, self.dts,
                   [np.eye(b.size) for b in blocks], self.gammas)
        return {b.k: uk for b, uk in zip(blocks, u)}


def sweep_unitaries(space: TwoModeSpace, xi: float, schedule: RampSchedule,
                    step: float | None = None,
                    sector_ks=None) -> SweepResult:
    """March a detuning sweep over the K sectors `sector_ks` (default all).

    The result is state-independent: one call serves a whole grid of initial
    states (the expensive part of Wigner scans is paid once here). All
    sectors advance together through one lockstep kernel that evolves only
    the start eigenvectors the readout needs; the full unitaries are built
    on demand (`SweepResult.unitaries`).

    A sweep whose arithmetic breaks down -- an eigendecomposition that does
    not converge, or an evolved column whose norm is not 1 within NORM_TOL
    (a NaN included) -- is a NumericalContractError.
    """
    if step is None:
        step = default_step(xi, schedule)
    _check_step(step, schedule)
    blocks = block_decompose(space).blocks
    if sector_ks is not None:
        wanted = set(int(k) for k in sector_ks)
        blocks = tuple(b for b in blocks if b.k in wanted)
    deltas, dts, gammas = piecewise_deltas(schedule, 0.0, schedule.duration, step)
    ends = schedule.delta_at(np.array([0.0, schedule.duration]))
    endpoint_bases = {}
    # column 0 is the lowest start eigenvector; below zero detuning the
    # label-0 state is the highest, marched as column 1
    starts = [0] if ends[0] > 0 else [0, -1]
    try:
        for b in blocks:
            _, (v_first, v_last) = np.linalg.eigh(b.hamiltonians(xi, ends))
            endpoint_bases[b.k] = (v_first, v_last)
        evolved = _march(blocks, xi, deltas, dts,
                         [endpoint_bases[b.k][0][:, starts] for b in blocks], gammas)
    except np.linalg.LinAlgError as e:
        raise NumericalContractError(f"sweep eigendecomposition failed: {e}") from None
    for b, f in zip(blocks, evolved):
        err = float(np.abs(np.linalg.norm(f, axis=0) - 1).max())
        if not err < NORM_TOL:
            raise NumericalContractError(
                f"swept column of K = {b.k} has norm off 1 by {err:.3g}, not "
                f"below NORM_TOL = {NORM_TOL}")
    return SweepResult(
        space=space,
        xi=xi,
        schedule=schedule,
        step=step,
        deltas=deltas,
        dts=dts,
        gammas=gammas,
        evolved={b.k: f for b, f in zip(blocks, evolved)},
        endpoint_bases=endpoint_bases,
    )

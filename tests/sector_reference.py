"""Per-state reference for the tests: a radial state embedded in the
normal-mode labels and a sweep applied to a full two-mode state, composed
from a sweep's endpoint bases and its per-sector unitaries, and a
two-mode state marched through steps of the propagation kernel, held or
laid by `piecewise_deltas`.

The package reads each K sector on its own and never builds these
full-space states; the tests compose them to check that readout
independently.
"""

import numpy as np

from trilinear import StateVector, block_decompose
from trilinear.dynamics import _march
from trilinear.protocols import AMPLITUDE_FLOOR, _label_basis


def normal_mode_embedding(state_r, space, sweep):
    """Radial normal-mode state (axial normal mode empty) as a two-mode
    state at the sweep's starting detuning: radial level k becomes the
    label-0 state of sector K = k."""
    if state_r.basis != space.radial:
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


def apply_sweep(sweep, state):
    """The swept two-mode state: each populated sector times its sweep
    unitary, the others as they were."""
    amp = state.amplitudes.copy()
    for b in block_decompose(state.basis).blocks:
        if np.any(amp[b.indices] != 0):
            amp[b.indices] = sweep.unitaries[b.k] @ amp[b.indices]
    return StateVector(amp, state.basis)


def held_steps(deltas, dts):
    """Durations and Magnus coefficients of steps that each hold a constant
    detuning: step t is exp(-i dts[t] H(deltas[t]))."""
    dts = np.asarray(dts, dtype=float)
    coefs = np.zeros((dts.size, 6))
    coefs[:, 0] = np.asarray(deltas, dtype=float) * dts
    coefs[:, 2] = dts
    return dts, coefs


def march_state(state, xi, dts, coefs):
    """The two-mode state after the steps of `dynamics._march` with
    durations `dts` and Magnus coefficients `coefs` (as `piecewise_deltas`
    or `held_steps` lays them), its populated sectors marched together."""
    assert len(coefs) == len(dts)
    amp = state.amplitudes.copy()
    blocks = [b for b in block_decompose(state.basis).blocks
              if np.any(amp[b.indices])]
    cols = _march(blocks, xi, coefs, [amp[b.indices] for b in blocks])
    for b, col in zip(blocks, cols):
        amp[b.indices] = col
    return StateVector(amp, state.basis)

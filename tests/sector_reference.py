"""Per-state reference for the tests: a radial state embedded in the
normal-mode labels and a sweep applied to a full two-mode state, composed
from a sweep's endpoint bases and its per-sector unitaries.

The package reads each K sector on its own and never builds these
full-space states; the tests compose them to check that readout
independently.
"""

import numpy as np

from trilinear import StateVector, block_decompose
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

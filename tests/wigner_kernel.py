"""Grid Wigner oracle for the tests, independent of the package's
displacement code.

W(alpha) = (2/pi) <psi| D(2 alpha) P |psi> with P the parity (Cahill &
Glauber, Phys. Rev. 177, 1882 (1969)). D(beta)|n> comes from the coherent
state D(beta)|0> = |beta> by the recurrence

    D(beta)|n+1> = (a^dag - beta*) D(beta)|n> / sqrt(n + 1),

which follows from D a^dag D^dag = a^dag - beta*. a^dag only raises, so the
first d levels of every D(beta)|n> follow exactly from the first d levels of
|beta>: the kernel needs no eigh, no displacement matrix and no padding, and
evaluates a whole grid at once.

It is the infinite-space value, which departs from the truncated
`wigner_oracle` where a displaced state reaches the cutoff. `grid_wigner`
therefore also builds every displaced state D(-alpha)|psi> by the same
recurrence and refuses a grid on which one of them leaves more than
GUARD_LEAK_THRESHOLD outside the physical levels, where `wigner_oracle`
would warn.
"""

import math
import warnings

import numpy as np

from trilinear import TruncationLeakWarning, wigner_oracle
from trilinear.fock import GUARD_LEAK_THRESHOLD, IMAG_RESIDUE_TOL

# the state's trailing amplitudes below this are dropped: they change W by
# less than about their sum
NEGLIGIBLE = 1e-16


def displaced_columns(coeffs, betas, levels: int) -> np.ndarray:
    """(levels, len(betas)): sum_n coeffs[n] D(beta)|n> on the first
    `levels` levels, one column per beta."""
    betas = np.asarray(betas, dtype=complex)
    v = np.empty((levels, betas.size), dtype=complex)
    v[0] = np.exp(-np.abs(betas) ** 2 / 2)
    for m in range(1, levels):
        v[m] = v[m - 1] * betas / math.sqrt(m)
    out = coeffs[0] * v
    root = np.sqrt(np.arange(1, levels))[:, None]
    for n in range(1, len(coeffs)):
        raised = np.zeros_like(v)
        raised[1:] = root * v[:-1]
        v = (raised - betas.conj() * v) / math.sqrt(n)
        out += coeffs[n] * v
    return out


def grid_wigner(state, alphas) -> np.ndarray:
    """W of a single-mode state at every point of `alphas` (any shape)."""
    alphas = np.asarray(alphas, dtype=complex)
    points = alphas.ravel()
    amp = state.amplitudes
    psi = amp[:np.flatnonzero(np.abs(amp) > NEGLIGIBLE)[-1] + 1]
    shifted = displaced_columns(psi, -points, state.basis.top_physical + 1)
    leak = 1.0 - (np.abs(shifted) ** 2).sum(axis=0)
    if leak.max() >= GUARD_LEAK_THRESHOLD:
        raise AssertionError(
            f"displacement by {points[leak.argmax()]} leaks {leak.max():.2e} "
            "past the physical levels: the grid oracle does not hold there")
    signs = (-1.0) ** np.arange(psi.size)
    value = psi.conj() @ displaced_columns(signs * psi, 2 * points, psi.size)
    if np.abs(value.imag).max() >= IMAG_RESIDUE_TOL:
        raise AssertionError(
            f"parity expectation has imaginary residue "
            f"{np.abs(value.imag).max():.2e}")
    return (2 / math.pi * value.real).reshape(alphas.shape)


def pinned_grid_wigner(state, alphas, stride: int = 97) -> np.ndarray:
    """`grid_wigner`, checked against `wigner_oracle` at every stride-th
    point of the flattened grid and at its four points farthest from the
    origin, where the displaced states come closest to the cutoff. The
    oracle must stay silent there, and the two may differ by no more than
    GUARD_LEAK_THRESHOLD, the population past the physical levels that
    `grid_wigner` admits."""
    w = grid_wigner(state, alphas)
    points, values = np.asarray(alphas, dtype=complex).ravel(), w.ravel()
    picks = np.union1d(np.arange(0, points.size, stride),
                       np.argsort(-np.abs(points))[:4])
    with warnings.catch_warnings():
        warnings.simplefilter("error", TruncationLeakWarning)
        oracle = np.array([wigner_oracle(state, points[i]) for i in picks])
    deviation = np.abs(values[picks] - oracle).max()
    if deviation > GUARD_LEAK_THRESHOLD:
        raise AssertionError(
            f"grid oracle departs from wigner_oracle by {deviation:.2e}")
    return w

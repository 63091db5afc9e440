"""Truncated Fock-space algebra for one and two bosonic modes.

Basis convention (fixed globally, all tests depend on it): a two-mode basis
state |n_a, n_c> of the radial (a) and axial (c) oscillators is stored at
flat index ``n_a * axial.dim + n_c`` (radial-major ordering).

The top ``guard_band`` levels of every mode are reserved for truncation-leak
detection: physical states must keep their population there below
``GUARD_LEAK_THRESHOLD``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import TruncationLeakWarning

HERMITIAN_TOL = 1e-12
UNITARY_TOL = 1e-9
NORM_TOL = 1e-9
GUARD_LEAK_THRESHOLD = 1e-6
IMAG_RESIDUE_TOL = 1e-8


@dataclass(frozen=True)
class FockDim:
    """Truncated single-mode Fock space |0> ... |dim-1>.

    guard_band defaults to the top 2 levels (fewer for tiny spaces, which
    exist only in tests of exact small sectors).
    """

    dim: int
    guard_band: int | None = None

    def __post_init__(self):
        if self.dim < 2:
            raise ValueError(f"Fock dimension must be >= 2, got {self.dim}")
        if self.guard_band is None:
            object.__setattr__(self, "guard_band", min(2, self.dim - 2))
        if not 0 <= self.guard_band <= self.dim - 2:
            raise ValueError(f"guard band {self.guard_band} invalid for dim {self.dim}")

    @property
    def top_physical(self) -> int:
        """Highest occupation number outside the guard band."""
        return self.dim - 1 - self.guard_band


@dataclass(frozen=True)
class TwoModeSpace:
    """Tensor product of a radial (a) and an axial (c) truncated mode."""

    radial: FockDim
    axial: FockDim

    @property
    def dim(self) -> int:
        return self.radial.dim * self.axial.dim

    def index(self, n_a: int, n_c: int) -> int:
        if not (0 <= n_a < self.radial.dim and 0 <= n_c < self.axial.dim):
            raise ValueError(f"occupation ({n_a}, {n_c}) outside space")
        return n_a * self.axial.dim + n_c

    def occupations(self) -> np.ndarray:
        """(dim, 2) array of (n_a, n_c) per flat basis index."""
        n_a, n_c = np.divmod(np.arange(self.dim), self.axial.dim)
        return np.column_stack([n_a, n_c])

    def k_values(self) -> np.ndarray:
        """Conserved excitation weight K = n_a + 2 n_c per basis index."""
        occ = self.occupations()
        return occ[:, 0] + 2 * occ[:, 1]


def _readonly(arr: np.ndarray) -> np.ndarray:
    """A read-only private copy: the caller's array stays its own."""
    arr = np.array(arr, order="C")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class Operator:
    """Dense operator over a FockDim or TwoModeSpace basis.

    The tag is a verified claim: hermitian and unitary tags are checked at
    construction against HERMITIAN_TOL and UNITARY_TOL.
    """

    matrix: np.ndarray
    tag: str = "general"

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"operator matrix must be square, got {m.shape}")
        object.__setattr__(self, "matrix", _readonly(m))
        if self.tag == "hermitian":
            err = np.abs(m - m.conj().T).max()
            if err >= HERMITIAN_TOL:
                raise ValueError(f"matrix tagged hermitian deviates by {err:.2e}")
        elif self.tag == "unitary":
            err = np.abs(m.conj().T @ m - np.eye(m.shape[0])).max()
            if err >= UNITARY_TOL:
                raise ValueError(f"matrix tagged unitary deviates by {err:.2e}")
        elif self.tag != "general":
            raise ValueError(f"unknown operator tag {self.tag!r}")

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    def dag(self) -> "Operator":
        return Operator(self.matrix.conj().T, tag=self.tag)


@dataclass(frozen=True)
class StateVector:
    """Normalized pure state over a FockDim or TwoModeSpace basis."""

    amplitudes: np.ndarray
    basis: FockDim | TwoModeSpace = field(compare=False)

    def __post_init__(self):
        amp = np.asarray(self.amplitudes, dtype=complex).ravel()
        if amp.size != _basis_dim(self.basis):
            raise ValueError(
                f"amplitude length {amp.size} does not match basis dim "
                f"{_basis_dim(self.basis)}"
            )
        nrm = np.linalg.norm(amp)
        if abs(nrm - 1.0) >= NORM_TOL:
            raise ValueError(f"state norm {nrm} deviates from 1 by >= {NORM_TOL}")
        object.__setattr__(self, "amplitudes", _readonly(amp))

    @property
    def dim(self) -> int:
        return self.amplitudes.size

    def overlap(self, other: "StateVector") -> complex:
        return complex(np.vdot(self.amplitudes, other.amplitudes))

    def fidelity(self, other: "StateVector") -> float:
        return abs(self.overlap(other)) ** 2

    def populations(self) -> np.ndarray:
        return np.abs(self.amplitudes) ** 2

    def guard_leak(self) -> float:
        """Largest per-mode population inside the guard bands."""
        return guard_leak(self.amplitudes, self.basis)


def _basis_dim(basis: FockDim | TwoModeSpace) -> int:
    return basis.dim


def guard_leak(amplitudes: np.ndarray, basis: FockDim | TwoModeSpace) -> float:
    pops = np.abs(np.asarray(amplitudes)) ** 2
    if isinstance(basis, FockDim):
        g = basis.guard_band
        return float(pops[basis.dim - g :].sum()) if g else 0.0
    occ = basis.occupations()
    leak = 0.0
    for mode, dim in ((0, basis.radial), (1, basis.axial)):
        if dim.guard_band:
            leak = max(leak, float(pops[occ[:, mode] > dim.top_physical].sum()))
    return leak


# ---------------------------------------------------------------------------
# operators


def mode_operator(dim: FockDim, kind: str) -> Operator:
    """Ladder/number/parity operator on a single truncated mode.

    kind: 'annihilate' (sqrt(n) on the (n-1, n) superdiagonal), 'create'
    (its adjoint), 'number' (diag 0..dim-1) or 'parity' (diag (-1)^n).
    """
    d = dim.dim
    n = np.arange(d)
    if kind == "annihilate":
        m = np.diag(np.sqrt(n[1:]).astype(complex), k=1)
        return Operator(m, tag="general")
    if kind == "create":
        m = np.diag(np.sqrt(n[1:]).astype(complex), k=-1)
        return Operator(m, tag="general")
    if kind == "number":
        return Operator(np.diag(n.astype(complex)), tag="hermitian")
    if kind == "parity":
        return Operator(np.diag(((-1.0) ** n).astype(complex)), tag="hermitian")
    raise ValueError(f"unknown operator kind {kind!r}")


def embed(op: Operator, space: TwoModeSpace, which: str) -> Operator:
    """Lift a single-mode operator to the two-mode space (kron by identity)."""
    if which == "radial":
        if op.dim != space.radial.dim:
            raise ValueError(
                f"radial operator dim {op.dim} != {space.radial.dim}"
            )
        m = np.kron(op.matrix, np.eye(space.axial.dim))
    elif which == "axial":
        if op.dim != space.axial.dim:
            raise ValueError(f"axial operator dim {op.dim} != {space.axial.dim}")
        m = np.kron(np.eye(space.radial.dim), op.matrix)
    else:
        raise ValueError(f"which must be 'radial' or 'axial', got {which!r}")
    return Operator(m, tag=op.tag)


def _displacement_matrix(alpha: complex, dim: FockDim) -> np.ndarray:
    """exp(alpha a^dag - alpha* a) by eigendecomposition of its Hermitian factor."""
    a = mode_operator(dim, "annihilate").matrix
    gen = alpha * a.conj().T - np.conj(alpha) * a
    herm = 1j * gen  # (i gen) is Hermitian since gen is anti-Hermitian
    evals, vecs = np.linalg.eigh(herm)
    return (vecs * np.exp(-1j * evals)) @ vecs.conj().T


@lru_cache(maxsize=8)
def _displacement_generator(d: int) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition (w, V) of the Hermitian i(a^dag - a) on d levels,
    so that D(r) = V exp(-i r w) V^dag for real r."""
    a = mode_operator(FockDim(d), "annihilate").matrix
    w, v = np.linalg.eigh(1j * (a.conj().T - a))
    return _readonly(w), _readonly(v)


def displaced_amplitudes(amplitudes, alphas, dim: FockDim) -> np.ndarray:
    """Rows D(alpha_m) psi, shape (len(alphas), dim.dim), for every alpha_m.

    One eigendecomposition of i(a^dag - a) serves every alpha through
    D(r e^{i theta}) = R(theta) D(r) R(theta)^dag with R(theta) = e^{i theta n},
    which holds exactly on the truncated basis. Agrees with
    _displacement_matrix(alpha) @ psi to rounding.
    """
    alphas = np.asarray(alphas, dtype=complex).ravel()
    w, v = _displacement_generator(dim.dim)
    rot = np.exp(1j * np.angle(alphas)[:, None] * np.arange(dim.dim))
    x = (rot.conj() * np.asarray(amplitudes)) @ v.conj()
    x *= np.exp(-1j * np.abs(alphas)[:, None] * w)
    return rot * (x @ v.T)


def displacement_operator(alpha: complex, dim: FockDim) -> Operator:
    """Phase-space displacement D(alpha) on a truncated mode.

    Warns with TruncationLeakWarning when D(alpha)|0> puts more than
    GUARD_LEAK_THRESHOLD population in the guard band, i.e. when |alpha| is
    too large for the truncation.
    """
    m = _displacement_matrix(complex(alpha), dim)
    leak = guard_leak(m[:, 0], dim)
    if leak >= GUARD_LEAK_THRESHOLD:
        warnings.warn(
            f"D({alpha}) leaks {leak:.2e} of the vacuum into the guard band "
            f"(dim {dim.dim}); increase the truncation",
            TruncationLeakWarning,
            stacklevel=2,
        )
    return Operator(m, tag="unitary")


# ---------------------------------------------------------------------------
# states


def fock_state(dim: FockDim, n: int) -> StateVector:
    if not 0 <= n <= dim.top_physical:
        raise ValueError(
            f"fock occupation {n} exceeds physical range 0..{dim.top_physical} "
            f"(dim {dim.dim}, guard band {dim.guard_band})"
        )
    amp = np.zeros(dim.dim, dtype=complex)
    amp[n] = 1.0
    return StateVector(amp, dim)


def _coherent_amplitudes(alpha: complex, d: int) -> np.ndarray:
    """Truncated coherent series exp(-|a|^2/2) a^n / sqrt(n!), unnormalized."""
    n = np.arange(d)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, d))]))
    if alpha == 0:
        amp = np.zeros(d, dtype=complex)
        amp[0] = 1.0
        return amp
    try:
        half_norm = abs(alpha) ** 2 / 2
    except OverflowError:
        raise ValueError(
            f"amplitude {alpha} is too large: |alpha|^2 overflows a float") from None
    log_mag = -half_norm + n * math.log(abs(alpha)) - log_fact / 2
    phase = np.exp(1j * n * np.angle(alpha))
    return np.exp(log_mag) * phase


def coherent_state(dim: FockDim, alpha: complex) -> StateVector:
    """Coherent state |alpha>, renormalized on the truncated basis."""
    amp = _coherent_amplitudes(complex(alpha), dim.dim)
    nrm = float(np.linalg.norm(amp))
    if not 0 < nrm < math.inf:
        raise ValueError(f"coherent({alpha}) has norm {nrm} on {dim.dim} levels")
    lost = 1.0 - nrm ** 2
    amp = amp / nrm
    leak = guard_leak(amp, dim) + max(lost, 0.0)
    if leak >= GUARD_LEAK_THRESHOLD:
        warnings.warn(
            f"coherent({alpha}) leaks {leak:.2e} past the physical levels "
            f"(dim {dim.dim})",
            TruncationLeakWarning,
            stacklevel=2,
        )
    return StateVector(amp, dim)


def cat_state(dim: FockDim, alpha: complex, phi: float = math.pi,
              sign: int = +1) -> StateVector:
    """Superposition of |alpha> and |alpha e^{i phi}> with exact normalization.

    sign=+1 gives the even-type cat, sign=-1 the odd-type cat (for phi=pi).
    The normalization uses the true coherent-state overlap rather than the
    large-|alpha| 1/sqrt(2) shortcut, so small-alpha cats are exact.
    """
    if sign not in (+1, -1):
        raise ValueError("cat sign must be +1 or -1")
    beta = complex(alpha) * np.exp(1j * phi)
    amp = _coherent_amplitudes(complex(alpha), dim.dim) + sign * _coherent_amplitudes(
        beta, dim.dim
    )
    nrm = np.linalg.norm(amp)
    if not 1e-12 <= nrm < math.inf:
        raise ValueError(f"cat({alpha}, {phi}, {sign:+d}) has norm {nrm} "
                         f"on {dim.dim} levels")
    state = StateVector(amp / nrm, dim)
    leak = state.guard_leak()
    if leak >= GUARD_LEAK_THRESHOLD:
        warnings.warn(
            f"cat({alpha}) leaks {leak:.2e} into the guard band (dim {dim.dim})",
            TruncationLeakWarning,
            stacklevel=2,
        )
    return state


def product_state(space: TwoModeSpace, n_a: int, n_c: int) -> StateVector:
    if n_a > space.radial.top_physical or n_c > space.axial.top_physical:
        raise ValueError(
            f"product occupation ({n_a}, {n_c}) exceeds the physical range of "
            f"({space.radial.dim}, {space.axial.dim}) with guard bands"
        )
    amp = np.zeros(space.dim, dtype=complex)
    amp[space.index(n_a, n_c)] = 1.0
    return StateVector(amp, space)


def embed_radial(state: StateVector, space: TwoModeSpace) -> StateVector:
    """Tensor a single-mode radial state with the axial vacuum."""
    if not isinstance(state.basis, FockDim) or state.dim != space.radial.dim:
        raise ValueError("state must live on the radial mode of the space")
    amp = np.zeros(space.dim, dtype=complex)
    amp[:: space.axial.dim] = state.amplitudes
    return StateVector(amp, space)


def radial_marginal(state: StateVector) -> np.ndarray:
    """Occupation distribution of the radial mode of a two-mode state."""
    space = state.basis
    if not isinstance(space, TwoModeSpace):
        raise ValueError("radial_marginal needs a two-mode state")
    return state.populations().reshape(space.radial.dim, space.axial.dim).sum(axis=1)


def axial_marginal(state: StateVector) -> np.ndarray:
    space = state.basis
    if not isinstance(space, TwoModeSpace):
        raise ValueError("axial_marginal needs a two-mode state")
    return state.populations().reshape(space.radial.dim, space.axial.dim).sum(axis=0)


# ---------------------------------------------------------------------------
# Wigner function oracles


def wigner_oracle(state: StateVector, alpha: complex) -> float:
    """Displaced-parity value W(alpha) = (2/pi) <psi| D(alpha) P D(-alpha) |psi>.

    Exact on the truncated basis; the imaginary residue is asserted below
    IMAG_RESIDUE_TOL before being discarded.
    """
    dim = state.basis
    if not isinstance(dim, FockDim):
        raise ValueError("wigner_oracle expects a single-mode state")
    displaced = _displacement_matrix(-complex(alpha), dim) @ state.amplitudes
    leak = guard_leak(displaced, dim)
    if leak >= GUARD_LEAK_THRESHOLD:
        warnings.warn(
            f"displacement by {alpha} leaks {leak:.2e} into the guard band",
            TruncationLeakWarning,
            stacklevel=2,
        )
    signs = (-1.0) ** np.arange(dim.dim)
    value = complex(np.vdot(displaced, signs * displaced))
    if abs(value.imag) >= IMAG_RESIDUE_TOL:
        raise AssertionError(
            f"parity expectation has imaginary residue {value.imag:.2e}"
        )
    return 2.0 / math.pi * value.real


def fock_wigner_closed_form(n: int, r: float) -> float:
    """Closed-form Wigner value of |n> at radius r = |alpha|:
    2 (-1)^n exp(-2 r^2) L_n(4 r^2) / pi.
    """
    # imported here: scipy costs start-up time and memory, and only this
    # oracle needs it
    from scipy.special import eval_laguerre

    if n < 0:
        raise ValueError("fock occupation must be >= 0")
    x = 4.0 * r * r
    return 2.0 / math.pi * (-1.0) ** n * math.exp(-2.0 * r * r) * float(
        eval_laguerre(n, x)
    )

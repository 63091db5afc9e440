"""Trap and ion parameters -> derived quantities of the two-ion crystal.

All frequencies in this module are angular (rad/s). Conversion to the /2pi
values quoted in configs and reports happens at the CLI boundary only.

For two equal ions confined with single-ion secular frequencies
(omega_x, omega_y, omega_z), omega_z < omega_x,y, the crystal aligns along z
at half-separation z0 and the out-of-phase modes relevant here are the axial
stretch mode at omega_s = sqrt(3) omega_z and the radial rocking mode at
omega_r = sqrt(omega_x^2 - omega_z^2). Near the parametric resonance
omega_s ~ 2 omega_r the Coulomb anharmonicity couples them with strength xi;
one stretch phonon converts into two rocking phonons and back.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

# CODATA values, SI
HBAR = 1.054571817e-34  # J s
ELEMENTARY_CHARGE = 1.602176634e-19  # C
EPSILON_0 = 8.8541878128e-12  # F / m
ATOMIC_MASS = 1.66053906660e-27  # kg


@dataclass(frozen=True)
class IonSpecies:
    mass: float  # kg
    charge: float  # C

    def __post_init__(self):
        if self.mass <= 0 or self.charge <= 0:
            raise ValueError("ion mass and charge must be positive")


YB171 = IonSpecies(mass=171 * ATOMIC_MASS, charge=ELEMENTARY_CHARGE)


@dataclass(frozen=True)
class TrapConfig:
    """Single-ion secular frequencies, angular rad/s."""

    omega_x: float
    omega_y: float
    omega_z: float

    def __post_init__(self):
        if min(self.omega_x, self.omega_y, self.omega_z) <= 0:
            raise ValueError("secular frequencies must be positive")
        if self.omega_z >= self.omega_x or self.omega_z >= self.omega_y:
            raise ValueError(
                "axial confinement must be the weakest (omega_z < omega_x, "
                "omega_y) for the two-ion crystal to align axially"
            )


# reference trap setting: (0.99, 0.90, 0.75) MHz secular frequencies
DEFAULT_TRAP = TrapConfig(
    omega_x=2 * math.pi * 0.99e6,
    omega_y=2 * math.pi * 0.90e6,
    omega_z=2 * math.pi * 0.75e6,
)


@dataclass(frozen=True)
class ModeParams:
    """Derived crystal quantities, all SI (rad/s and m)."""

    omega_s: float  # axial stretch mode
    omega_r: float  # radial rocking mode (bare)
    z0: float  # equilibrium half-separation
    xi: float  # trilinear coupling strength
    delta: float  # omega_s - 2 omega_r at the bare frequencies

    def __post_init__(self):
        if self.xi <= 0:
            raise ValueError("coupling strength must be positive")
        expected = self.omega_s - 2 * self.omega_r
        if abs(self.delta - expected) > 1e-9 * max(1.0, abs(expected)):
            raise ValueError("delta inconsistent with omega_s - 2 omega_r")

    @property
    def conversion_rate(self) -> float:
        """Angular frequency 2 sqrt(2) xi of the two-phonon conversion
        oscillation and of the minimum avoided-crossing gap."""
        return 2 * math.sqrt(2) * self.xi


def equilibrium_half_separation(ion: IonSpecies, trap: TrapConfig) -> float:
    """Minimizer of the axial relative-coordinate potential
    m omega_z^2 z^2 + e^2 / (8 pi eps0 z); closed form
    z0 = (e^2 / (16 pi eps0 m omega_z^2))^(1/3).
    """
    return (
        ion.charge**2 / (16 * math.pi * EPSILON_0 * ion.mass * trap.omega_z**2)
    ) ** (1.0 / 3.0)


def out_of_phase_modes(trap: TrapConfig) -> tuple[float, float]:
    """(omega_s, omega_r) of the out-of-phase axial/radial modes."""
    omega_s = math.sqrt(3.0) * trap.omega_z
    arg = trap.omega_x**2 - trap.omega_z**2
    if arg <= 0:
        raise ValueError("omega_x must exceed omega_z for a real rocking mode")
    return omega_s, math.sqrt(arg)


def coupling_strength(ion: IonSpecies, trap: TrapConfig) -> float:
    """Trilinear coupling xi = (1 / 8 z0) sqrt(hbar omega_s^3 / (m omega_r^2)),
    with omega_r at the parametric resonance omega_r = omega_s / 2, where
    the conversion dynamics take place.
    """
    z0 = equilibrium_half_separation(ion, trap)
    omega_s, _ = out_of_phase_modes(trap)  # refuses omega_x <= omega_z
    omega_r = omega_s / 2
    return math.sqrt(HBAR * omega_s**3 / (ion.mass * omega_r**2)) / (8 * z0)


def detuning(omega_s: float, omega_r: float) -> float:
    """Parametric detuning delta = omega_s - 2 omega_r."""
    return omega_s - 2 * omega_r


def mode_params(ion: IonSpecies = YB171, trap: TrapConfig = DEFAULT_TRAP) -> ModeParams:
    """Bundle every derived quantity for one ion/trap combination."""
    omega_s, omega_r = out_of_phase_modes(trap)
    return ModeParams(
        omega_s=omega_s,
        omega_r=omega_r,
        z0=equilibrium_half_separation(ion, trap),
        xi=coupling_strength(ion, trap),
        delta=detuning(omega_s, omega_r),
    )

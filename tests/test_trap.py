"""Trap model: equilibrium geometry, mode frequencies, coupling strength.

The z0 oracle minimizes the axial two-ion potential numerically (bracketed
root of its analytic derivative; function-value minimizers cannot reach the
1e-9 cross-check in double precision). Expected numbers quoted in comments
were computed from these oracles and frozen.
"""

import math

import pytest
from scipy.optimize import brentq

from trilinear import (
    DEFAULT_TRAP,
    YB171,
    IonSpecies,
    TrapConfig,
    coupling_strength,
    detuning,
    equilibrium_half_separation,
    mode_params,
    out_of_phase_modes,
)
from trilinear.trap import ATOMIC_MASS, ELEMENTARY_CHARGE, EPSILON_0, HBAR

TWO_PI = 2 * math.pi


def z0_numerical(ion, trap):
    """Oracle: stationary point of V(z) = m w_z^2 z^2 + e^2/(8 pi eps0 z)."""

    def dv(z):
        return 2 * ion.mass * trap.omega_z**2 * z - ion.charge**2 / (
            8 * math.pi * EPSILON_0 * z**2
        )

    return brentq(dv, 1e-9, 1e-3, xtol=1e-30, rtol=1e-15)


def test_yb171_constants():
    assert YB171.mass == 171 * ATOMIC_MASS
    assert YB171.charge == ELEMENTARY_CHARGE


def test_default_trap_is_the_reference_setting():
    assert DEFAULT_TRAP.omega_x == pytest.approx(TWO_PI * 0.99e6)
    assert DEFAULT_TRAP.omega_y == pytest.approx(TWO_PI * 0.90e6)
    assert DEFAULT_TRAP.omega_z == pytest.approx(TWO_PI * 0.75e6)


def test_trap_invariants_enforced():
    with pytest.raises(ValueError):
        TrapConfig(omega_x=TWO_PI * 0.7e6, omega_y=TWO_PI * 0.9e6,
                   omega_z=TWO_PI * 0.75e6)
    with pytest.raises(ValueError):
        TrapConfig(omega_x=-1.0, omega_y=1.0, omega_z=0.5)
    with pytest.raises(ValueError):
        IonSpecies(mass=-1e-25, charge=ELEMENTARY_CHARGE)


# ---------------------------------------------------------------------------
# equilibrium separation


def test_z0_matches_numerical_minimization():
    z_cf = equilibrium_half_separation(YB171, DEFAULT_TRAP)
    z_num = z0_numerical(YB171, DEFAULT_TRAP)
    assert abs(z_cf - z_num) / z_num < 1e-9
    assert z_cf == pytest.approx(2.0913e-6, rel=1e-4)  # ~2.09 um


def test_z0_matches_minimization_across_100x_range():
    for scale in (0.1, 0.3, 1.0, 3.0, 10.0):
        trap = TrapConfig(
            omega_x=DEFAULT_TRAP.omega_x * scale * 1.5,
            omega_y=DEFAULT_TRAP.omega_y * scale * 1.5,
            omega_z=DEFAULT_TRAP.omega_z * scale,
        )
        z_cf = equilibrium_half_separation(YB171, trap)
        assert abs(z_cf - z0_numerical(YB171, trap)) / z_cf < 1e-9


def test_z0_scaling_with_axial_frequency():
    z1 = equilibrium_half_separation(YB171, DEFAULT_TRAP)
    doubled = TrapConfig(DEFAULT_TRAP.omega_x * 4, DEFAULT_TRAP.omega_y * 4,
                         DEFAULT_TRAP.omega_z * 2)
    z2 = equilibrium_half_separation(YB171, doubled)
    assert z2 == pytest.approx(z1 / 2 ** (2 / 3), rel=1e-12)


def test_z0_independent_of_radial_confinement():
    other = TrapConfig(DEFAULT_TRAP.omega_x * 1.7, DEFAULT_TRAP.omega_y * 2.3,
                       DEFAULT_TRAP.omega_z)
    assert equilibrium_half_separation(YB171, other) == equilibrium_half_separation(
        YB171, DEFAULT_TRAP
    )


# ---------------------------------------------------------------------------
# mode frequencies


def test_out_of_phase_mode_values():
    omega_s, omega_r = out_of_phase_modes(DEFAULT_TRAP)
    # sqrt(3) * 0.75 MHz and sqrt(0.99^2 - 0.75^2) MHz
    assert omega_s / TWO_PI == pytest.approx(1.2990381e6, rel=1e-7)
    assert omega_r / TWO_PI == pytest.approx(0.64621978e6, rel=1e-7)


def test_stretch_mode_is_sqrt3_axial():
    omega_s, _ = out_of_phase_modes(DEFAULT_TRAP)
    assert abs(omega_s - math.sqrt(3) * DEFAULT_TRAP.omega_z) < 1e-12 * omega_s


def test_degenerate_radial_boundary_rejected():
    with pytest.raises(ValueError):
        TrapConfig(omega_x=DEFAULT_TRAP.omega_z, omega_y=DEFAULT_TRAP.omega_y,
                   omega_z=DEFAULT_TRAP.omega_z)


# ---------------------------------------------------------------------------
# coupling strength


def test_conversion_rate_reproduces_2p96_khz():
    xi = coupling_strength(YB171, DEFAULT_TRAP)
    assert 2 * math.sqrt(2) * xi / TWO_PI == pytest.approx(2.96e3, rel=0.01)


def test_xi_value_consistent_with_conversion_rate():
    xi = coupling_strength(YB171, DEFAULT_TRAP)
    # 2.96 kHz / (2 sqrt 2) = 1.0465 kHz; direct evaluation within 1%
    assert xi / TWO_PI == pytest.approx(2.96e3 / (2 * math.sqrt(2)), rel=0.01)
    # direct formula evaluation at resonance (independent arithmetic)
    z0 = equilibrium_half_separation(YB171, DEFAULT_TRAP)
    omega_s, _ = out_of_phase_modes(DEFAULT_TRAP)
    direct = math.sqrt(HBAR * omega_s**3 / (YB171.mass * (omega_s / 2) ** 2)) / (8 * z0)
    assert xi == pytest.approx(direct, rel=1e-12)


def test_xi_scales_as_axial_frequency_to_7_6():
    doubled = TrapConfig(DEFAULT_TRAP.omega_x * 4, DEFAULT_TRAP.omega_y * 4,
                         DEFAULT_TRAP.omega_z * 2)
    ratio = coupling_strength(YB171, doubled) / coupling_strength(YB171, DEFAULT_TRAP)
    assert ratio == pytest.approx(2 ** (7 / 6), rel=1e-12)


def test_xi_mass_and_charge_power_laws():
    # z0 ~ (e^2/m)^(1/3);  xi ~ z0^-1 m^-1/2  =>  xi ~ m^-1/6 e^-2/3
    heavy = IonSpecies(mass=4 * YB171.mass, charge=YB171.charge)
    ratio = coupling_strength(heavy, DEFAULT_TRAP) / coupling_strength(YB171, DEFAULT_TRAP)
    assert ratio == pytest.approx(4 ** (-1 / 6), rel=1e-12)
    charged = IonSpecies(mass=YB171.mass, charge=2 * YB171.charge)
    ratio = coupling_strength(charged, DEFAULT_TRAP) / coupling_strength(YB171, DEFAULT_TRAP)
    assert ratio == pytest.approx(2 ** (-2 / 3), rel=1e-12)


# ---------------------------------------------------------------------------
# detuning and the bundled parameters


def test_detuning_at_resonance_is_zero():
    assert detuning(2.0, 1.0) == 0.0


def test_bare_detuning_value():
    omega_s, omega_r = out_of_phase_modes(DEFAULT_TRAP)
    # sqrt(3)*0.75 - 2 sqrt(0.99^2 - 0.75^2) MHz = 6.5987 kHz
    assert detuning(omega_s, omega_r) / TWO_PI == pytest.approx(6.5987e3, rel=1e-4)


def test_mode_params_bundle_is_self_consistent():
    p = mode_params()
    assert p.delta == pytest.approx(p.omega_s - 2 * p.omega_r, abs=1e-9)
    assert p.conversion_rate == pytest.approx(2 * math.sqrt(2) * p.xi, rel=1e-15)
    assert abs(p.omega_s - math.sqrt(3) * DEFAULT_TRAP.omega_z) < 1e-12 * p.omega_s
    assert p.z0 == pytest.approx(equilibrium_half_separation(YB171, DEFAULT_TRAP))

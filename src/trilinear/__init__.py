"""Two-ion trilinear phonon system: a quantum degenerate parametric
oscillator at the single-phonon level, from trap parameters to sampled
measurement records.

Modules: fock (truncated two-mode algebra and Wigner oracles), trap
(parameters to mode frequencies and coupling), dynamics (K-sector sweep
propagators under detuning ramps), protocols (conversion oscillation,
avoided crossing, adiabatic parity, Wigner tomography), config/cli
(YAML-driven experiment runner with CSV provenance).
"""

__version__ = "0.1.0"

from .errors import (
    NumericalContractError,
    StepPolicyError,
    TruncationLeakWarning,
)
from .fock import (
    FockDim,
    StateVector,
    TwoModeSpace,
    cat_state,
    coherent_state,
    fock_state,
    fock_wigner_closed_form,
    wigner_oracle,
)
from .trap import (
    DEFAULT_TRAP,
    YB171,
    IonSpecies,
    ModeParams,
    TrapConfig,
    coupling_strength,
    detuning,
    equilibrium_half_separation,
    mode_params,
    out_of_phase_modes,
)
from .dynamics import (
    BlockDecomposition,
    RampSchedule,
    RotatingFrameHamiltonian,
    block_decompose,
    default_step,
    rc_ramp,
    sweep_unitaries,
)
from .protocols import (
    MeasurementModel,
    SpectrumBranch,
    WignerScan,
    avoided_crossing_spectrum,
    axial_distribution,
    measurement_channel,
    oscillation_experiment,
    phase_space_grid,
    radial_cut,
    scan_sweep,
    slow_sweep,
    wigner_scan,
    wigner_sweep_needed,
)

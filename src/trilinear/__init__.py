"""Two-ion trilinear phonon system: a quantum degenerate parametric
oscillator at the single-phonon level, from trap parameters to sampled
measurement records.

Modules: fock (truncated two-mode algebra and Wigner oracles), trap
(parameters to mode frequencies and coupling), dynamics (block-diagonal
propagation under detuning ramps), protocols (conversion oscillation,
avoided crossing, adiabatic parity, Wigner tomography), config/cli
(YAML-driven experiment runner with CSV provenance).
"""

__version__ = "0.1.0"

from .errors import (
    NumericalContractError,
    StepPolicyError,
    TruncationLeakError,
    TruncationLeakWarning,
)
from .fock import (
    FockDim,
    Operator,
    StateVector,
    TwoModeSpace,
    cat_state,
    coherent_state,
    displacement_operator,
    embed,
    embed_radial,
    fock_state,
    fock_wigner_closed_form,
    mode_operator,
    product_state,
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
    Trajectory,
    block_decompose,
    build_hamiltonian,
    default_step,
    propagate,
    rc_ramp,
    sweep_unitaries,
)
from .protocols import (
    MeasurementModel,
    ParityResult,
    SpectrumBranch,
    WignerScan,
    adiabatic_parity,
    avoided_crossing_spectrum,
    decoherence_envelope,
    displacement_calibration,
    measurement_channel,
    oscillation_experiment,
    parity_estimate,
    phase_space_grid,
    radial_cut,
    slow_sweep,
    wigner_scan,
    wigner_sweep_needed,
)

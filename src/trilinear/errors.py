"""Shared exception and warning types."""


class TruncationLeakWarning(UserWarning):
    """Population reached the guard band of a truncated Fock space."""


class NumericalContractError(RuntimeError):
    """A numerical guarantee of the simulator was violated."""


class StepPolicyError(ValueError):
    """Requested propagation step violates the step-size policy."""

"""Exception types shared across the package."""


class VbsError(Exception):
    """Base class for all model and solver errors."""


class InfeasibleLoadError(VbsError):
    """The requested rate needs more CPU than the configured cores provide."""


class PowerCapExceededError(VbsError):
    """Transmit power above the amplifier cap."""


class LinkCapacityError(VbsError, ValueError):
    """Rate beyond what the link budget can carry without overflow."""


class UnstableQueueError(VbsError):
    """Service rate at or below the offered load, so the queue diverges."""


class LambertDomainError(VbsError, ValueError):
    """Argument below -1/e, outside the principal branch."""


class ConvergenceError(VbsError):
    """An iterative solver hit its iteration cap without converging."""


class NoStationaryPointError(VbsError):
    """The cost derivative has no root in the stable rate region."""


class NoEnergyOptimumError(VbsError):
    """No finite-delay power minimum exists for this configuration."""

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class InfeasibleScenarioError(VbsError):
    """No stable operating point exists even at the maximum core count."""


class ConfigError(VbsError):
    """Malformed configuration file or override value."""

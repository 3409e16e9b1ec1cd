"""Exception types shared across the package, and how each is reported.

An InfeasibleError refuses one operating point; its class attribute
``status`` is the CSV status that sweeps, tradeoff curves and compare
grids write for the flagged point, and a single refused command exits
3. ConfigError and every other ValueError mean an input outside the
model's domain and exit 2. Anything else, ConvergenceError included, is
a bug and is not caught.
"""


class VbsError(Exception):
    """Base class for all model and solver errors."""


class InfeasibleError(VbsError):
    """The model refuses this operating point; ``status`` says why."""
    status: str


class InfeasibleLoadError(InfeasibleError):
    """The requested rate needs more CPU than the configured cores provide."""
    status = "over-compute-cap"


class PowerCapExceededError(InfeasibleError):
    """Transmit power above the amplifier cap."""
    status = "over-power-cap"


class LinkCapacityError(InfeasibleError, ValueError):
    """Rate beyond what the link budget can carry without overflow."""
    status = "over-link-cap"


class UnstableQueueError(InfeasibleError):
    """Service rate at or below the offered load, so the queue diverges."""
    status = "unstable"


class LambertDomainError(VbsError, ValueError):
    """Argument below -1/e, outside the principal branch."""


class ConvergenceError(VbsError):
    """An iterative solver hit its iteration cap without converging."""


class NoStationaryPointError(VbsError):
    """The cost derivative has no root in the stable rate region."""


class NoEnergyOptimumError(InfeasibleError):
    """No finite-delay power minimum exists for this configuration."""
    status = "no-optimum"

    def __init__(self, message: str, reason: str | None = None):
        super().__init__(message)
        self.reason = reason


class InfeasibleScenarioError(InfeasibleError):
    """No stable operating point exists even at the maximum core count."""
    status = "infeasible"


class ConfigError(VbsError):
    """Malformed configuration file or override value."""

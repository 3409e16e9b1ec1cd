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
    message: str

    @classmethod
    def at(cls, **fields) -> "InfeasibleError":
        """The error with ``message`` filled in from the named fields."""
        return cls(cls.message.format(**fields))


class InfeasibleLoadError(InfeasibleError):
    """The requested rate needs more CPU than the configured cores provide."""
    status = "over-compute-cap"
    message = "rate {rate:.6g} bit/s above the core capacity {capacity:.6g} bit/s"


class LinkCapacityError(InfeasibleError, ValueError):
    """Rate beyond what the link budget can carry without overflow."""
    status = "over-link-cap"
    message = "rate/bandwidth ratio above {max_exponent}; refusing to overflow"


class UnstableQueueError(InfeasibleError):
    """Service rate at or below the offered load, so the queue diverges."""
    status = "unstable"
    message = "rate must exceed the offered load {load:.6g} bit/s"


class LambertDomainError(VbsError, ValueError):
    """Argument below -1/e, outside the principal branch."""


class ConvergenceError(VbsError):
    """An iterative solver hit its iteration cap without converging."""


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


# The cost kernel's refusals, each with its ``message``, in the order they
# take precedence: the kernel flags a refused rate with the index of the
# first one that applies, and a served rate with 0. STATUSES holds the CSV
# status of each code.
REFUSALS = (None, UnstableQueueError, LinkCapacityError, InfeasibleLoadError)
STATUSES = ("ok", *(e.status for e in REFUSALS[1:]))

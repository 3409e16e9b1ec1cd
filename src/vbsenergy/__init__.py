"""Energy-delay analysis of virtual base stations.

A small numpy library around three pieces: a power model whose
baseband draw scales with the number of provisioned cores and the
served rate, a processor-sharing queue with sleep cycles on top of it,
and optimizers that pick the service rate and core count minimizing
average power plus an optional delay penalty. An event-driven simulator
cross-checks the stationary formulas, and a CLI wraps the common runs.

The top level exports only the README example's entry points. Every
other name, the exception classes included, is imported from the module
that defines it: vbsenergy.optimize, .power, .queueing, .radio,
.simulate or .errors.
"""
from .optimize import Scenario, evaluate_point, joint_optimize

__version__ = "0.1.0"

__all__ = ["Scenario", "evaluate_point", "joint_optimize"]

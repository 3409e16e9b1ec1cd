"""Energy-delay analysis of virtual base stations.

A small numpy library around three pieces: a power model whose
baseband draw scales with the number of provisioned cores and the
served rate, a processor-sharing queue with sleep cycles on top of it,
and optimizers that pick the service rate and core count minimizing
average power plus an optional delay penalty. An event-driven simulator
cross-checks the stationary formulas, and a CLI wraps the common runs.

The top level exports the names the README and the demos use, plus the
exception classes; every other name lives in its submodule.
"""
from .errors import (
    ConfigError,
    ConvergenceError,
    InfeasibleLoadError,
    InfeasibleScenarioError,
    LambertDomainError,
    LinkCapacityError,
    NoEnergyOptimumError,
    UnstableQueueError,
    VbsError,
)
from .optimize import (
    Scenario,
    asymptotic_power,
    cores_needed,
    earth_energy_optimal_rate,
    energy_optimal_exists,
    energy_optimal_rate,
    evaluate_point,
    joint_optimize,
    max_supportable_rate,
    scenario_profile,
    solve_optimal_rate,
    tradeoff_curve,
)
from .power import (
    BusyPowerProfile,
    ComputeParams,
    EarthParams,
    RadioParams,
    bbu_power,
    cpu_load,
    earth_profile,
    rrh_power,
    vbs_profile,
)
from .queueing import TrafficParams, average_power, cost, queue_metrics
from .radio import LinkBudget, tx_power_for_rate
from .simulate import SimConfig, validate_against_analytic

__version__ = "0.1.0"

__all__ = [
    "BusyPowerProfile",
    "ComputeParams",
    "ConfigError",
    "ConvergenceError",
    "EarthParams",
    "InfeasibleLoadError",
    "InfeasibleScenarioError",
    "LambertDomainError",
    "LinkCapacityError",
    "LinkBudget",
    "NoEnergyOptimumError",
    "RadioParams",
    "Scenario",
    "SimConfig",
    "TrafficParams",
    "UnstableQueueError",
    "VbsError",
    "asymptotic_power",
    "average_power",
    "bbu_power",
    "cores_needed",
    "cost",
    "cpu_load",
    "earth_energy_optimal_rate",
    "earth_profile",
    "energy_optimal_exists",
    "energy_optimal_rate",
    "evaluate_point",
    "joint_optimize",
    "max_supportable_rate",
    "queue_metrics",
    "rrh_power",
    "scenario_profile",
    "solve_optimal_rate",
    "tradeoff_curve",
    "tx_power_for_rate",
    "validate_against_analytic",
    "vbs_profile",
]

"""Op catalogue and seeded op streams of the three workloads.

An op is one `vbsenergy` command line. Every parameter is drawn from a
finite grid, so the catalogue of possible ops is finite and
`record_goldens.py` can record the expected output of each of them; the
workload seed only chooses and orders ops from the catalogue. The
program never sees the seed, only the argv it produces.

A workload runs in passes. Every pass of a workload has the same
composition (the same number of ops of each kind); the seed draws the
parameters of each op and the order inside the pass. Fixed composition
keeps a pass a fixed amount of work, so pass times from different seeds
can be compared.

Each workload sorts its ops into four classes (CLASSES); the benchmark
bounds the latency of each class on its own, so that a change which
slows one class and speeds up another cannot hide in a mean.

This module imports nothing from the package under test.
"""
from __future__ import annotations

import itertools
import random
from dataclasses import dataclass

WORKLOADS = ("cli-cold", "sweep-solve", "simulate")

# The four op classes of each workload, in the order of the metrics
# op_p90_ms.class1 .. op_p90_ms.class4.
CLASSES = {
    "cli-cold": ("model", "solve", "grid", "simulate"),
    "sweep-solve": ("target_delay", "alpha", "lambda", "n_cores"),
    "simulate": ("rho0.2", "rho0.5", "rho0.9", "trace"),
}

# Placeholders the workload runner replaces with files of its own.
TRACE_FILE = "{trace_file}"


def config_placeholder(dist: str) -> str:
    return "{config:" + dist + "}"


@dataclass(frozen=True)
class Op:
    """One command line and what the checks need to know about it.

    documented_exit is set for inputs that must be refused: the exit
    code the README documents for them. work is the op's unit of work
    for work_per_s: CSV rows, or simulated events for simulate ops. cls
    is the op's class, one of CLASSES of its workload.
    """

    kind: str
    cls: str
    argv: tuple[str, ...]
    work: int
    documented_exit: int | None = None
    arrivals: int = 0

    @property
    def key(self) -> str:
        return " ".join(self.argv)


# ---------------------------------------------------------------- cli-cold

# Inputs the README says end in exit 2 (usage or configuration error) or
# exit 3 (infeasible). The first five are the ROADMAP item 4 inputs.
CLI_ERROR_OPS = (
    Op("error", "model", ("sweep", "lambda=0:1:3"), 0, documented_exit=2),
    Op("error", "model", ("sweep", "file_size=-1:1e7:3"), 0, documented_exit=2),
    Op("error", "model", ("sweep", "alpha=-1:1:3", "--cores", "2"), 0, documented_exit=2),
    Op("error", "model", ("optimize", "--cores", "0"), 0, documented_exit=2),
    Op("error", "model", ("sweep", "target_delay=nan:1:3"), 0, documented_exit=2),
    Op("error", "model", ("optimize", "--lambda", "10/s", "--cores", "1"), 0, documented_exit=3),
    Op("error", "model", ("power", "--rate", "1Mbps"), 0, documented_exit=3),
)

_LAMBDAS = ("0.5/s", "1/s", "1.5/s")
_CLI_SWEEP_STEPS = 12
_CLI_SWEEP_SPECS = (
    f"target_delay=0.1:2:{_CLI_SWEEP_STEPS}",
    f"alpha=1:50:{_CLI_SWEEP_STEPS}",
    f"lambda=0.2:2:{_CLI_SWEEP_STEPS}",
    f"n_cores=1:{_CLI_SWEEP_STEPS}:{_CLI_SWEEP_STEPS}",
)
_COMPARE_GRID_ROWS = 40
_CLI_SIM_ARRIVALS = 5000


def cli_power(rate: str, cores: int) -> Op:
    return Op("power", "model", ("power", "--rate", rate, "--cores", str(cores)), 1)


def cli_optimize_fixed(cores: int, alpha: str) -> Op:
    return Op("optimize-fixed", "solve",
              ("optimize", "--cores", str(cores), "--alpha", alpha), 1)


def cli_optimize_joint(alpha: str, cores_max: int, lam: str) -> Op:
    return Op("optimize-joint", "solve",
              ("optimize", "--alpha", alpha, "--cores-max", str(cores_max),
               "--lambda", lam), 1)


def cli_sweep(spec: str) -> Op:
    return Op("sweep", "grid", ("sweep", spec), _CLI_SWEEP_STEPS)


def cli_compare(policy: str, lam: str) -> Op:
    grid = policy == "grid"
    return Op("compare-" + policy, "grid" if grid else "solve",
              ("compare", "--policy", policy, "--lambda", lam),
              _COMPARE_GRID_ROWS if grid else 1)


def cli_config_show(alpha: str, lam: str) -> Op:
    return Op("config-show", "model", ("config-show", "--alpha", alpha, "--lambda", lam), 0)


def cli_simulate(rate: str, seed: int) -> Op:
    return Op("simulate", "simulate",
              ("simulate", "--rate", rate, "--cores", "2", "--seed", str(seed),
               "--arrivals", str(_CLI_SIM_ARRIVALS)), 1,
              arrivals=_CLI_SIM_ARRIVALS)


_CLI_CHOICES = {
    "power": (cli_power, (("40Mbps", "50Mbps", "60Mbps", "77.56Mbps"), (2, 3))),
    "optimize-fixed": (cli_optimize_fixed, ((2, 3, 4), ("0", "5"))),
    "optimize-joint": (cli_optimize_joint, (("0", "2", "10"), (4, 8), _LAMBDAS)),
    "sweep": (cli_sweep, (_CLI_SWEEP_SPECS,)),
    "compare-grid": (cli_compare, (("grid",), _LAMBDAS)),
    "compare-cbs-optimal": (cli_compare, (("cbs-optimal",), _LAMBDAS)),
    "config-show": (cli_config_show, (("0", "5"), _LAMBDAS)),
    "simulate": (cli_simulate, (("32Mbps", "50Mbps"), (1, 2, 3, 4))),
}
# Ops of each kind in a pass. With the one refused input of each pass,
# which walks CLI_ERROR_OPS in order from a seeded start, a pass has
# three ops of each class.
_CLI_PER_PASS = {"power": 1, "config-show": 1, "optimize-fixed": 1, "optimize-joint": 1,
                 "compare-cbs-optimal": 1, "sweep": 2, "compare-grid": 1, "simulate": 3}

# --------------------------------------------------------------- sweep-solve

_TD_STEPS = 300
_ALPHA_STEPS = 20
_LAMBDA_STEPS = 80


def sweep_target_delay(start: float, stop: float, log: bool, cores: int | None) -> Op:
    spec = f"target_delay={start:g}:{stop:g}:{_TD_STEPS}" + (":log" if log else "")
    extra = () if cores is None else ("--cores", str(cores))
    return Op("target_delay", "target_delay", ("sweep", spec) + extra, _TD_STEPS)


def sweep_alpha(start: float, stop: float, log: bool, cores_max: int) -> Op:
    spec = f"alpha={start:g}:{stop:g}:{_ALPHA_STEPS}" + (":log" if log else "")
    return Op("alpha", "alpha", ("sweep", spec, "--cores-max", str(cores_max)), _ALPHA_STEPS)


def sweep_lambda(start: float, stop: float, cores: int | None) -> Op:
    spec = f"lambda={start:g}:{stop:g}:{_LAMBDA_STEPS}"
    extra = () if cores is None else ("--cores", str(cores))
    return Op("lambda", "lambda", ("sweep", spec) + extra, _LAMBDA_STEPS)


def sweep_n_cores(top: int, alpha: str) -> Op:
    return Op("n_cores", "n_cores", ("sweep", f"n_cores=1:{top}:{top}", "--alpha", alpha), top)


_SWEEP_CHOICES = {
    "target_delay": (sweep_target_delay, ((0.05, 0.1, 0.2), (2.0, 5.0),
                                          (False, True), (None, 2, 4))),
    "alpha": (sweep_alpha, ((0.5, 1.0, 2.0), (20.0, 50.0, 100.0),
                            (False, True), (4, 8, 16))),
    "lambda": (sweep_lambda, ((0.2, 0.5), (1.5, 2.2, 3.0), (None, 3))),
    "n_cores": (sweep_n_cores, ((8, 12, 16), ("0", "2", "5", "10"))),
}
_SWEEPS_PER_KIND = 2

# ------------------------------------------------------------------ simulate

SIM_ARRIVALS = 20000
SIM_RHOS = (0.2, 0.5, 0.9)
SIM_DISTRIBUTIONS = ("exponential", "deterministic", "bounded-pareto")
SIM_SEEDS = tuple(range(1, 17))
# --trace ops per pass, beside one plain op of each load and size law.
_SIM_TRACES_PER_PASS = 2
# Offered load of the default traffic: 1 flow/s of 2 MB (1.6e7 bits).
_OFFERED_LOAD_BPS = 1.6e7


def sim_op(rho: float, dist: str, seed: int, trace: bool = False) -> Op:
    argv = ("--config", config_placeholder(dist), "simulate",
            "--rate", f"{_OFFERED_LOAD_BPS / rho:.10g}", "--cores", "2",
            "--seed", str(seed), "--arrivals", str(SIM_ARRIVALS))
    if trace:
        argv += ("--trace", TRACE_FILE)
    # Every flow arrives and, since a run drains its queue, departs.
    cls = "trace" if trace else f"rho{rho:g}"
    return Op(cls, cls, argv, 2 * SIM_ARRIVALS, arrivals=SIM_ARRIVALS)


# ------------------------------------------------------------------- passes

def _draw(rng: random.Random, choices) -> Op:
    make, grids = choices
    return make(*(rng.choice(g) for g in grids))


def _product(choices):
    make, grids = choices
    combos = [()]
    for g in grids:
        combos = [c + (v,) for c in combos for v in g]
    return [make(*c) for c in combos]


def passes(workload: str, seed):
    """The seeded op stream: yields one pass (a list of ops, in run
    order) after another, without end."""
    rng = random.Random(f"{workload}:{seed}")
    err_start = rng.randrange(len(CLI_ERROR_OPS))
    for index in itertools.count():
        yield _make_pass(workload, rng, index, err_start)


def _make_pass(workload: str, rng: random.Random, index: int, err_start: int) -> list[Op]:
    if workload == "cli-cold":
        ops = [_draw(rng, _CLI_CHOICES[kind])
               for kind, n in _CLI_PER_PASS.items() for _ in range(n)]
        ops.append(CLI_ERROR_OPS[(err_start + index) % len(CLI_ERROR_OPS)])
    elif workload == "sweep-solve":
        ops = [_draw(rng, c) for c in _SWEEP_CHOICES.values()
               for _ in range(_SWEEPS_PER_KIND)]
    elif workload == "simulate":
        ops = [sim_op(rho, dist, rng.choice(SIM_SEEDS))
               for rho in SIM_RHOS for dist in SIM_DISTRIBUTIONS]
        ops += [sim_op(rng.choice(SIM_RHOS), rng.choice(SIM_DISTRIBUTIONS),
                       rng.choice(SIM_SEEDS), trace=True) for _ in range(_SIM_TRACES_PER_PASS)]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    rng.shuffle(ops)
    return ops


def catalogue(workload: str) -> list[Op]:
    """Every op a pass of this workload can contain."""
    if workload == "cli-cold":
        ops = [op for c in _CLI_CHOICES.values() for op in _product(c)]
        return ops + list(CLI_ERROR_OPS)
    if workload == "sweep-solve":
        return [op for c in _SWEEP_CHOICES.values() for op in _product(c)]
    if workload == "simulate":
        return [sim_op(rho, dist, seed, trace)
                for rho in SIM_RHOS for dist in SIM_DISTRIBUTIONS
                for seed in SIM_SEEDS for trace in (False, True)]
    raise ValueError(f"unknown workload {workload!r}")


# The simulate op measured under tracemalloc in a traced run, for
# simulate.peak_bytes_per_arrival. sweep-solve runs no simulation.
MEMORY_OPS = {
    "cli-cold": cli_simulate("32Mbps", 1),
    "simulate": sim_op(0.5, "exponential", 1),
}

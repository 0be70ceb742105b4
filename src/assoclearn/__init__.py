"""Online learning of user-to-access-point association policies.

The library models a downlink radio network in which the demand of every
location can be split across the access points in range. Association
policies (one probability distribution per location) are learned online
with multiplicative exponentiated-gradient updates, restarted per time
zone of a periodic calendar, and compared against hindsight benchmarks
that pick one optimal static policy per time zone.
"""

from .topology import (
    RadioConfig,
    Topology,
    build_topology,
    grid_positions,
    load_topology_json,
    max_degrees,
    save_topology_json,
    shannon_rate,
    topology_from_dict,
    topology_to_dict,
)
from .traffic import (
    SyntheticProfile,
    TimePartition,
    TrafficTrace,
    build_partition,
    generate_synthetic,
    load_trace_csv,
    save_trace_csv,
)
from .cost import (
    CostParams,
    alpha_cost,
    ap_load,
    grad_penalized_cost,
    lipschitz_bound,
    penalized_cost,
    penalized_cost_from_loads,
    total_load,
    validate_policy,
)
from .learner import (
    LearnerConfig,
    OnlineRun,
    RunLog,
    column_softmax,
    entropy_regularizer,
    init_uniform,
    mirror_map,
    run_online,
    run_online_stack,
)
from .benchmark import (
    BenchmarkSolution,
    SolverConfig,
    WindowDiagnostics,
    solve_dynamic,
    solve_periodic_static,
    solve_static,
    solve_windows,
)
from .metrics import (
    BoundReport,
    RegretReport,
    regret,
    replay_benchmark,
    runlog_to_csv,
    theoretical_bound,
    violation_counts,
)

__version__ = "0.1.0"

__all__ = [
    "RadioConfig",
    "Topology",
    "build_topology",
    "grid_positions",
    "load_topology_json",
    "max_degrees",
    "save_topology_json",
    "shannon_rate",
    "topology_from_dict",
    "topology_to_dict",
    "SyntheticProfile",
    "TimePartition",
    "TrafficTrace",
    "build_partition",
    "generate_synthetic",
    "load_trace_csv",
    "save_trace_csv",
    "CostParams",
    "alpha_cost",
    "ap_load",
    "grad_penalized_cost",
    "lipschitz_bound",
    "penalized_cost",
    "penalized_cost_from_loads",
    "total_load",
    "validate_policy",
    "LearnerConfig",
    "OnlineRun",
    "RunLog",
    "column_softmax",
    "entropy_regularizer",
    "init_uniform",
    "mirror_map",
    "run_online",
    "run_online_stack",
    "BenchmarkSolution",
    "SolverConfig",
    "WindowDiagnostics",
    "solve_dynamic",
    "solve_periodic_static",
    "solve_static",
    "solve_windows",
    "BoundReport",
    "RegretReport",
    "regret",
    "replay_benchmark",
    "runlog_to_csv",
    "theoretical_bound",
    "violation_counts",
]

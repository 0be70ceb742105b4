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
    window_of,
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
    egd_step,
    entropy_regularizer,
    init_uniform,
    mirror_map,
    run_online,
)
from .benchmark import (
    BenchmarkSolution,
    SolverConfig,
    WindowDiagnostics,
    solve_dynamic,
    solve_periodic_static,
    solve_static,
    solve_window,
    solve_windows,
    window_objective,
)
from .metrics import (
    BoundReport,
    RegretReport,
    count_violations,
    regret,
    regret_from_costs,
    replay_benchmark,
    runlog_to_csv,
    theoretical_bound,
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
    "window_of",
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
    "egd_step",
    "entropy_regularizer",
    "init_uniform",
    "mirror_map",
    "run_online",
    "BenchmarkSolution",
    "SolverConfig",
    "WindowDiagnostics",
    "solve_dynamic",
    "solve_periodic_static",
    "solve_static",
    "solve_window",
    "solve_windows",
    "window_objective",
    "BoundReport",
    "RegretReport",
    "count_violations",
    "regret",
    "regret_from_costs",
    "replay_benchmark",
    "runlog_to_csv",
    "theoretical_bound",
]

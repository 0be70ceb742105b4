"""Hindsight benchmarks: one optimal static policy per time window.

Each window's policy minimizes the window-aggregated penalized objective
over the product of per-location simplices. The solver reuses the
multiplicative-update kernel as a deterministic full-gradient method with
a fixed step, declaring convergence when one further update would move
the policy by less than the tolerance in entrywise 1-norm. A single
window covering the horizon gives the classic static benchmark; singleton
windows give the per-slot dynamic one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cost import CostParams, lipschitz_bound, load_slope, penalized_values
from .learner import egd_step, init_uniform
from .topology import Topology
from .traffic import TimePartition, TrafficTrace, build_partition


@dataclass(frozen=True)
class SolverConfig:
    """Iteration cap, fixed-point tolerance, and optional explicit step size."""

    max_iterations: int = 10_000
    tolerance: float = 1e-6
    step_size: float | None = None

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")
        if self.step_size is not None and self.step_size <= 0:
            raise ValueError("step_size must be positive when given")


@dataclass(frozen=True)
class WindowDiagnostics:
    iterations: int
    final_residual: float
    converged: bool


@dataclass
class BenchmarkSolution:
    """Per-zone optimal policies with their objectives and solver diagnostics."""

    zone_policies: list
    zone_objectives: list
    diagnostics: list

    @property
    def zones(self) -> int:
        return len(self.zone_policies)

    @property
    def total_objective(self) -> float:
        return float(sum(self.zone_objectives))

    @property
    def all_converged(self) -> bool:
        return all(d.converged for d in self.diagnostics)

    def to_dict(self) -> dict:
        return {
            "zones": self.zones,
            "zone_objectives": [float(v) for v in self.zone_objectives],
            "zone_policies": [np.asarray(pi, dtype=float).tolist() for pi in self.zone_policies],
            "diagnostics": [asdict(d) for d in self.diagnostics],
        }

    @classmethod
    def from_dict(cls, doc: dict) -> "BenchmarkSolution":
        return cls(
            zone_policies=[np.asarray(p, dtype=float) for p in doc["zone_policies"]],
            zone_objectives=[float(v) for v in doc["zone_objectives"]],
            diagnostics=[WindowDiagnostics(**d) for d in doc["diagnostics"]],
        )


def window_objective(
    pi: np.ndarray, demands: np.ndarray, topology: Topology, params: CostParams
) -> float:
    """Penalized objective summed over a window's (n_slots, n_locations) demand."""
    return float(penalized_values((pi * topology.inverse_rate) @ demands.T, params).sum())


def solve_windows(
    topology: Topology,
    demands: np.ndarray,
    params: CostParams,
    solver: SolverConfig | None = None,
) -> BenchmarkSolution:
    """Minimize every window's aggregated objective from the uniform split.

    demands is (n_windows, n_locations, window_length), window k's slots in
    calendar order along the last axis. All windows advance in lock-step as
    one policy stack, each with its own step 1/(window_length * L_k), and a
    window leaves the stack once a step moves it by at most the tolerance.
    Windows without demand are optimal at the uniform split and take no
    step. Non-convergence within the iteration cap is not an error: the last
    iterate is returned with converged=False in the diagnostics. A step
    bound window_length * L_k that overflows a float raises ValueError.
    """
    solver = solver or SolverConfig()
    n_windows, _, window_length = demands.shape
    pi = np.repeat(init_uniform(topology)[None], n_windows, axis=0)
    if solver.step_size is not None:
        steps = np.full(n_windows, solver.step_size)
    else:
        peaks = demands.max(axis=(1, 2))
        lipschitz = np.array([lipschitz_bound(topology, float(p), params) for p in peaks])
        with np.errstate(over="ignore"):
            bounds = window_length * lipschitz
        unbounded = np.flatnonzero(~np.isfinite(bounds))
        if unbounded.size:
            k = unbounded[0]
            raise ValueError(
                f"window {k + 1}: step bound {window_length} * L is not finite "
                f"(peak demand {peaks[k]}, L = {lipschitz[k]})"
            )
        with np.errstate(divide="ignore"):
            steps = 1.0 / bounds  # inf for a window without demand
    iterations, residuals = np.zeros(n_windows, dtype=int), np.zeros(n_windows)
    active = np.flatnonzero(np.isfinite(steps))
    current, step = pi[active], steps[active, None, None]
    # Demands stay the caller's single copy until some window finishes: the
    # loads product reads it as stored, the gradient through its transpose.
    active_demands = demands if active.size == n_windows else demands[active]
    for iteration in range(1, solver.max_iterations + 1):
        if not active.size:
            break
        loads = (current * topology.inverse_rate) @ active_demands  # (n, n_aps, window_length)
        grad = (load_slope(loads, params) @ active_demands.swapaxes(1, 2)) * topology.inverse_rate
        updated = egd_step(current, grad, step)
        residual = np.abs(updated - current).reshape(active.size, -1).sum(axis=1)
        current, iterations[active], residuals[active] = updated, iteration, residual
        running = ~(residual <= solver.tolerance)
        if not running.all():
            pi[active] = current
            active, current, step = active[running], current[running], step[running]
            active_demands = active_demands[running]
    pi[active] = current

    values = penalized_values((pi * topology.inverse_rate) @ demands, params)
    diagnostics = [
        WindowDiagnostics(n, r, r <= solver.tolerance)
        for n, r in zip(iterations.tolist(), residuals.tolist())
    ]
    return BenchmarkSolution(list(pi), values.reshape(n_windows, -1).sum(axis=1).tolist(), diagnostics)


def solve_window(
    topology: Topology,
    trace: TrafficTrace,
    window_slots: np.ndarray,
    params: CostParams,
    solver: SolverConfig | None = None,
) -> tuple[np.ndarray, float, WindowDiagnostics]:
    """Optimal static policy of one window: `solve_windows` on that window alone."""
    slots = np.asarray(window_slots, dtype=int)
    if slots.size == 0:
        raise ValueError("window_slots must be nonempty")
    demands = np.ascontiguousarray(trace.demand[slots - 1].T)[None]
    solution = solve_windows(topology, demands, params, solver)
    return solution.zone_policies[0], solution.zone_objectives[0], solution.diagnostics[0]


def solve_periodic_static(
    topology: Topology,
    trace: TrafficTrace,
    partition: TimePartition,
    params: CostParams,
    solver: SolverConfig | None = None,
) -> BenchmarkSolution:
    """One optimal static policy per window of the partition."""
    if partition.horizon != trace.horizon:
        raise ValueError(
            f"partition horizon {partition.horizon} != trace horizon {trace.horizon}"
        )
    periods, zones, width = partition.periods, partition.zones, partition.slots_per_zone
    # (period, zone, slot, location) -> (zone, location, period, slot): window
    # k's slots in calendar order, as `TimePartition.window(k)` lists them.
    demands = trace.demand.reshape(periods, zones, width, -1).transpose(1, 3, 0, 2)
    return solve_windows(topology, demands.reshape(zones, trace.n_locations, -1), params, solver)


def solve_static(
    topology: Topology,
    trace: TrafficTrace,
    params: CostParams,
    solver: SolverConfig | None = None,
) -> BenchmarkSolution:
    """Single static policy for the whole horizon (one all-covering window)."""
    partition = build_partition(trace.horizon, 1, trace.horizon)
    return solve_periodic_static(topology, trace, partition, params, solver)


def solve_dynamic(
    topology: Topology,
    trace: TrafficTrace,
    params: CostParams,
    solver: SolverConfig | None = None,
) -> BenchmarkSolution:
    """Per-slot optimal policies (every window a single slot)."""
    partition = build_partition(trace.horizon, trace.horizon, 1)
    return solve_periodic_static(topology, trace, partition, params, solver)

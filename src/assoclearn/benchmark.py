"""Hindsight benchmarks: one optimal static policy per time window.

Each window's policy minimizes the window-aggregated penalized objective f
over the product of per-location simplices, by entropic mirror steps from
the uniform split: pi+ = `column_softmax`(log(pi) - s * grad), as in the
online learner. Each window has its own step s: a step is accepted if
f(pi+) <= f(pi) + <grad, pi+ - pi> + KL(pi+ || pi) / s, which equals
f(pi) - <grad, pi> - sum_i log Z_i / s with Z_i = sum_j pi_ji exp(-s grad_ji);
then s grows by STEP_GROWTH. A rejected step is retried with s halved.
Before each step the window's Frank-Wolfe gap
<grad, pi> - sum_i min_{j in N(i)} grad_ji, an upper bound on f(pi) - f*,
is computed; the window stops once it is at most tolerance * max(1, |f|).
A single window covering the horizon gives the classic static benchmark;
singleton windows give the per-slot dynamic one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cost import CostParams, lipschitz_bound, load_slope, penalized_values
from .learner import column_softmax
from .topology import Topology
from .traffic import TimePartition, TrafficTrace, build_partition

STEP_GROWTH = 1.25  # step factor after an accepted mirror step
ROUNDING = 1e-12  # relative slack of the step test for rounding in f


@dataclass(frozen=True)
class SolverConfig:
    """Cap on accepted steps per window and relative Frank-Wolfe gap target."""

    max_iterations: int = 10_000
    tolerance: float = 1e-6

    def __post_init__(self):
        if self.max_iterations < 1:
            raise ValueError("max_iterations must be positive")
        if not 0 < self.tolerance < np.inf:
            raise ValueError("tolerance must be positive and finite")


@dataclass(frozen=True)
class WindowDiagnostics:
    iterations: int
    gap: float
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


def _objectives(loads: np.ndarray, params: CostParams) -> np.ndarray:
    """Per-window objective of a (n, n_aps, window_length) load stack."""
    return penalized_values(loads, params).sum(axis=(1, 2))


def solve_windows(
    topology: Topology,
    demands: np.ndarray,
    params: CostParams,
    solver: SolverConfig | None = None,
) -> BenchmarkSolution:
    """Minimize every window's aggregated objective from the uniform split.

    demands is (n_windows, n_locations, window_length), window k's slots in
    calendar order along the last axis. All windows advance in lock-step as
    one policy stack, by the method of the module docstring, with first
    steps 1/(window_length * L_k). Windows without demand are optimal at the
    uniform split and take no step. Non-convergence within the iteration cap
    is not an error: the last iterate is returned with its gap and
    converged=False. A first step bound that overflows raises ValueError.
    """
    solver = solver or SolverConfig()
    n_windows, _, window_length = demands.shape
    opening = np.where(topology.support, 0.0, -np.inf)  # log-weights of the uniform split
    uniform, log_norm = column_softmax(opening)
    pi = np.repeat(uniform[None], n_windows, axis=0)
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
    iterations, gaps = np.zeros(n_windows, dtype=int), np.zeros(n_windows)
    converged = np.ones(n_windows, dtype=bool)
    active = np.flatnonzero(np.isfinite(steps))
    current, step = pi[active], steps[active]
    log_pi = np.repeat((opening - log_norm)[None], active.size, axis=0)
    # Demands stay the caller's single copy until some window finishes: the
    # loads product reads it as stored, the gradient through its transpose.
    active_demands = demands if active.size == n_windows else demands[active]
    loads = (current * topology.inverse_rate) @ active_demands  # (n, n_aps, window_length)
    values = _objectives(loads, params)
    while active.size:
        grad = (load_slope(loads, params) @ active_demands.swapaxes(1, 2)) * topology.inverse_rate
        best = np.where(topology.support, grad, np.inf).min(axis=1).sum(axis=1)
        linear = (grad * current).sum(axis=(1, 2))
        gaps[active] = linear - best
        converged[active] = gaps[active] <= solver.tolerance * np.maximum(1.0, np.abs(values))
        running = ~converged[active] & (iterations[active] < solver.max_iterations)
        if not running.all():
            pi[active] = current
            active, current, log_pi, grad, linear, loads, values, step = (
                a[running] for a in (active, current, log_pi, grad, linear, loads, values, step)
            )
            active_demands = active_demands[running]
        trial = np.arange(active.size)  # windows yet to take this iteration's step
        while trial.size:
            g, s, f = grad[trial], step[trial], values[trial]
            theta = log_pi[trial] - s[:, None, None] * g
            candidate, log_norm = column_softmax(theta)
            new_loads = (candidate * topology.inverse_rate) @ (
                active_demands if trial.size == active.size else active_demands[trial]
            )
            new_values = _objectives(new_loads, params)
            model = -linear[trial] - log_norm.sum(axis=(1, 2)) / s
            ok = new_values - f <= model + ROUNDING * np.maximum(1.0, np.abs(f))
            done = trial[ok]
            current[done], loads[done], values[done] = candidate[ok], new_loads[ok], new_values[ok]
            log_pi[done] = (theta - log_norm)[ok]
            step[done] *= STEP_GROWTH
            trial = trial[~ok]
            step[trial] /= 2  # a rejected window retries with half the step
        iterations[active] += 1

    values = _objectives((pi * topology.inverse_rate) @ demands, params)
    diagnostics = [
        WindowDiagnostics(*d) for d in zip(iterations.tolist(), gaps.tolist(), converged.tolist())
    ]
    return BenchmarkSolution(list(pi), values.tolist(), diagnostics)


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

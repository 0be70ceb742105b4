"""Regret against the periodic-static benchmark, violation counts, and bounds.

Both regret legs are evaluated with the same penalized objective, so the
comparison is between identical functions of identical demands; when every
load on both legs stays below one, the report additionally carries the
regret recomputed with the raw fairness cost.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass

import numpy as np

from .benchmark import BenchmarkSolution
from .cost import CostParams, alpha_cost, lipschitz_bound, penalized_values
from .learner import RunLog
from .topology import Topology, max_degrees
from .traffic import TimePartition, TrafficTrace


@dataclass(frozen=True)
class BoundReport:
    """Worst-case regret guarantees for a windowed multiplicative-update run.

    general: the bound at the step size actually used.
    universal: the step-size-free form lipschitz * sqrt(2 * zones * horizon).
    eta_star: the step size minimizing the general bound, None when the
        environment is degenerate (note says why).
    """

    general: float | None
    universal: float
    eta_star: float | None
    note: str | None = None


def theoretical_bound(
    zones: int,
    horizon: int,
    lipschitz: float,
    eta: float,
    max_locations_per_ap: int,
    max_aps_per_location: int,
    n_locations: int,
) -> BoundReport:
    """Evaluate the regret guarantee for given problem constants.

    general = zones * M_loc * log(M_ap) / (eta * M_ap)
              + eta * horizon * lipschitz^2 / (2 * n_locations),
    with M_loc the maximum locations per AP and M_ap the maximum APs per
    location; eta_star = sqrt(2 * zones * M_loc * n_locations * log(M_ap)
    / (horizon * lipschitz^2 * M_ap)). Natural logarithms throughout.
    Where lipschitz^2 is not a normal float, both use lipschitz as two
    factors instead; a value that does not fit a float is inf, which still
    bounds the regret.
    """
    if min(zones, horizon, max_locations_per_ap, max_aps_per_location, n_locations) < 1:
        raise ValueError("all counts must be positive")
    if lipschitz < 0:
        raise ValueError("lipschitz must be non-negative")
    if eta <= 0:
        raise ValueError("eta must be positive")

    universal = lipschitz * math.sqrt(2.0 * zones * horizon)
    log_m = math.log(max_aps_per_location)
    first = zones * max_locations_per_ap * log_m / (eta * max_aps_per_location)
    try:
        square = lipschitz**2
    except OverflowError:
        square = math.inf
    exact = sys.float_info.min <= square < math.inf  # a normal float
    spread = eta * horizon * square if exact else eta * lipschitz * horizon * lipschitz
    general = first + spread / (2.0 * n_locations)

    if lipschitz == 0.0:
        return BoundReport(general, universal, None, note="zero_gradient")
    if max_aps_per_location == 1:
        return BoundReport(general, universal, 0.0, note="single_ap_per_location")
    ratio = 2.0 * zones * max_locations_per_ap * n_locations * log_m
    eta_star = math.sqrt(ratio / (horizon * square * max_aps_per_location)) if exact else 0.0
    if not 0.0 < eta_star < math.inf:  # T * L^2 * M_ap or the quotient left the float range
        eta_star = math.sqrt(ratio / (horizon * max_aps_per_location)) / lipschitz
    return BoundReport(general, universal, eta_star)


def violation_counts(loads: np.ndarray, rho0: float) -> tuple[int, int]:
    """(slot-AP pairs with load > rho0, slots with at least one such AP)."""
    flags = np.asarray(loads) > rho0
    return int(flags.sum()), int(flags.any(axis=1).sum())


def replay_benchmark(
    benchmark: BenchmarkSolution,
    trace: TrafficTrace,
    partition: TimePartition,
    topology: Topology,
    params: CostParams,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-slot penalized costs and loads of the benchmark policies in slot order."""
    if benchmark.zones != partition.zones:
        raise ValueError("benchmark zone count does not match the partition")
    if partition.horizon != trace.horizon:
        raise ValueError("partition horizon does not match the trace")
    periods, zones, width = partition.periods, partition.zones, partition.slots_per_zone
    # (period, zone, slot, location) -> (zone, location, period * slot), as in
    # `solve_periodic_static`; loads come back as (zone, AP, period, slot)
    demands = trace.demand.reshape(periods, zones, width, -1).transpose(1, 3, 0, 2)
    policies = np.asarray(benchmark.zone_policies) * topology.inverse_rate
    window_loads = (policies @ demands.reshape(zones, trace.n_locations, -1)).reshape(
        zones, topology.n_aps, periods, width
    )
    costs = penalized_values(window_loads, params).sum(axis=1).transpose(1, 0, 2).reshape(-1)
    loads = window_loads.transpose(2, 0, 3, 1).reshape(trace.horizon, topology.n_aps)
    return costs, loads


def prefix_regret_per_slot(
    online_costs: np.ndarray, benchmark_costs: np.ndarray
) -> np.ndarray:
    """Reg(t)/t for every prefix, with benchmark costs accumulated in slot order."""
    diff = np.cumsum(np.asarray(online_costs, dtype=float)) - np.cumsum(
        np.asarray(benchmark_costs, dtype=float)
    )
    return diff / np.arange(1, diff.size + 1)


@dataclass
class RegretReport:
    """Totals, regret, prefix curve, bound values and violation counts."""

    total_online_cost: float
    total_benchmark_cost: float
    regret: float
    regret_upper: float  # regret + the benchmark's gaps: bound against the exact optimum
    zone_regret: list  # per zone: online minus benchmark cost over the zone's slots
    prefix_regret: np.ndarray  # Reg(t)/t, length horizon
    lipschitz_used: float
    eta_used: float | None
    eta_star: float | None
    bound_at_eta: float | None
    bound_universal: float
    bound_note: str | None
    violations_online: tuple[int, int] | None
    violations_benchmark: tuple[int, int]
    raw_cost_regret: float | None

    def to_dict(self) -> dict:
        return {**asdict(self), "prefix_regret": self.prefix_regret.tolist()}


def regret(
    online_costs: np.ndarray,
    benchmark: BenchmarkSolution,
    trace: TrafficTrace,
    partition: TimePartition,
    topology: Topology,
    params: CostParams,
    *,
    eta: float | None = None,
    online_loads: np.ndarray | None = None,
) -> RegretReport:
    """Compare an online cost series against the replayed benchmark.

    The bound uses the analytic Lipschitz constant at the trace's peak
    demand. regret_upper adds the benchmark's Frank-Wolfe gaps, each an
    upper bound on its window's distance from the optimum, so it bounds the
    regret against the exact periodic optimum. `online_loads` enables the
    raw-cost regret reading and the online violation counts.
    """
    online_costs = np.asarray(online_costs, dtype=float)
    if online_costs.shape != (trace.horizon,):
        raise ValueError("online cost series length does not match the trace horizon")
    bench_costs, bench_loads = replay_benchmark(
        benchmark, trace, partition, topology, params
    )
    total_online = float(online_costs.sum())
    total_bench = float(bench_costs.sum())
    curve = prefix_regret_per_slot(online_costs, bench_costs)

    used_l = lipschitz_bound(topology, trace.max_intensity, params)
    m_loc, m_ap = max_degrees(topology)
    probe_eta = eta if eta is not None else 1.0
    bound = theoretical_bound(
        partition.zones,
        trace.horizon,
        used_l,
        probe_eta,
        m_loc,
        m_ap,
        topology.n_locations,
    )

    online_violations = raw_regret = None
    if online_loads is not None:
        online_loads = np.asarray(online_loads)
        online_violations = violation_counts(online_loads, params.rho0)
        if np.all(online_loads < 1) and np.all(bench_loads < 1):
            raw_regret = float(alpha_cost(online_loads, params) - alpha_cost(bench_loads, params))

    regret_value = total_online - total_bench
    by_zone = (online_costs - bench_costs).reshape(partition.periods, partition.zones, -1)
    return RegretReport(
        total_online_cost=total_online,
        total_benchmark_cost=total_bench,
        regret=regret_value,
        regret_upper=regret_value + sum(d.gap for d in benchmark.diagnostics),
        zone_regret=by_zone.sum(axis=(0, 2)).tolist(),
        prefix_regret=curve,
        lipschitz_used=float(used_l),
        eta_used=eta,
        eta_star=bound.eta_star,
        bound_at_eta=bound.general if eta is not None else None,
        bound_universal=bound.universal,
        bound_note=bound.note,
        violations_online=online_violations,
        violations_benchmark=violation_counts(bench_loads, params.rho0),
        raw_cost_regret=raw_regret,
    )


def runlog_to_csv(log: RunLog, path) -> None:
    """Per-slot series `t,zone,V,total_load,violations` for external plotting.

    Rows are CSV with CRLF line ends and floats written by repr.
    """
    columns = (log.zones, log.costs, log.total_loads, log.violations.sum(axis=1))
    rows = (
        f"{t},{zone},{cost!r},{total!r},{count}\r\n"
        for t, (zone, cost, total, count) in enumerate(zip(*(c.tolist() for c in columns)), 1)
    )
    with open(path, "w", newline="") as fh:
        fh.write("t,zone,V,total_load,violations\r\n" + "".join(rows))

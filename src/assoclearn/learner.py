"""Online association learning with per-window exponentiated-gradient threads.

Each location's association vector lives on a probability simplex over its
neighbor APs, so the natural online scheme is mirror descent with the
entropy regularizer: one Hedge instance per location, whose policy is the
column softmax of its log-weights (`column_softmax`). The hindsight solver
takes the same steps. The online runner keeps one update thread per time
zone; a thread starts from the uniform split at its window's first slot and
otherwise advances from the log-policy and gradient it stored at the
previous slot of the same window. Every window has the same length, so the
threads advance in lock-step, one window rank at a time, as a stack.

The stack can also carry several members: runs on one trace and calendar
that share alpha and differ in rho0, psi or eta, as the combinations of a
sweep do. Each (zone, member) pair is then one thread with its own step
size and threshold, and each member's run equals its one-member run bit
for bit (`run_online_stack`).
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from types import SimpleNamespace

import numpy as np

from .cost import CostParams, lipschitz_bound, load_slope, penalized_values
from .topology import Topology
from .traffic import TimePartition, TrafficTrace

# Policy entries per lock-step block of threads: a larger stack falls out of
# cache, and a step on it then costs more than steps on smaller blocks.
STACK_ENTRIES = 2**16
# exp is slow near float underflow (-708) and at -inf. A weight below
# exp(UNDERFLOW) ~ 1e-304 of its column's largest adds nothing to the total.
UNDERFLOW = -700.0


@dataclass(frozen=True)
class LearnerConfig:
    """Step size and logging options for an online run."""

    eta: float
    keep_policies: bool = False

    def __post_init__(self):
        if not 0 < self.eta < np.inf:
            raise ValueError("eta must be positive and finite")


def column_softmax(theta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Softmax of log-weights over axis -2, and each column's log-normalizer.

    theta may be a stack (..., rows, n_locations). Exponents are shifted by
    their column's largest, so the map is overflow-free at any scale; -inf
    entries and those more than -UNDERFLOW below the largest play exactly 0.
    The entropic mirror step from pi along g with step s is
    column_softmax(log(pi) - s * g), and theta minus the normalizer is the
    step's log-policy, finite wherever theta is.
    """
    shift = theta.max(axis=-2, keepdims=True)
    weights = theta - shift
    live = weights > UNDERFLOW
    np.exp(np.maximum(weights, UNDERFLOW, out=weights), out=weights)
    weights *= live
    totals = weights.sum(axis=-2, keepdims=True)
    weights /= totals
    return weights, shift + np.log(totals)


def init_uniform(topology: Topology) -> np.ndarray:
    """Split every location's demand evenly across its neighbor APs."""
    return column_softmax(np.where(topology.support, 0.0, -np.inf))[0]


def entropy_regularizer(pi: np.ndarray) -> float:
    """Aggregate entropy term sum_ji pi * log(pi), with 0*log(0) = 0; always <= 0."""
    pi = np.asarray(pi, dtype=float)
    positive = pi > 0
    return float(np.sum(pi[positive] * np.log(pi[positive])))


def mirror_map(topology: Topology, theta: np.ndarray, eta: float) -> np.ndarray:
    """Closed-form minimizer of h(pi) - <eta*theta, pi> over the support simplices.

    Columnwise softmax of eta*theta restricted to each location's neighbor
    set; equivalent to folding a whole gradient history into one update.
    """
    theta = np.asarray(theta, dtype=float)
    if theta.shape != topology.support.shape:
        raise ValueError("theta shape does not match the topology")
    return column_softmax(np.where(topology.support, eta * theta, -np.inf))[0]


@dataclass
class RunLog:
    """Per-slot record of an online run."""

    costs: np.ndarray  # (T,) penalized objective of the played policy
    loads: np.ndarray  # (T, n_aps)
    zones: np.ndarray  # (T,) 1-based zone of each slot
    rho0: float
    # support entries the final zone policies play as exactly 0 (underflow);
    # their log-weights stay finite, so later gradients can revive them
    support_loss_events: int = 0

    @property
    def horizon(self) -> int:
        return self.costs.shape[0]

    @property
    def total_loads(self) -> np.ndarray:
        return self.loads.sum(axis=1)

    @property
    def violations(self) -> np.ndarray:
        """(T, n_aps) flags for load > rho0."""
        return self.loads > self.rho0


@dataclass
class OnlineRun:
    """Outcome of `run_online`: the log, final per-zone policies, and
    optionally every played policy."""

    log: RunLog
    zone_policies: list
    policies: np.ndarray | None = None  # (T, n_aps, n_locations) when kept


def run_online(
    topology: Topology,
    trace: TrafficTrace,
    partition: TimePartition,
    params: CostParams,
    config: LearnerConfig,
) -> OnlineRun:
    """Play the windowed multiplicative-update scheme over the whole trace.

    At slot t the policy is decided before the slot's demand is seen: the
    uniform split if t opens its window, otherwise the column softmax of
    log(pi) - eta * grad, from the log-policy and gradient stored at the
    window's previous slot. The demand then arrives, the realized cost and
    loads are logged, and the gradient at the played policy is stored for
    the thread's next slot. This is `run_online_stack` with one member.
    """
    return run_online_stack(topology, trace, partition, [params], [config])[0]


def run_online_stack(
    topology: Topology,
    trace: TrafficTrace,
    partition: TimePartition,
    params: Sequence[CostParams],
    configs: Sequence[LearnerConfig],
) -> list[OnlineRun]:
    """`run_online` for several (params, config) members in one pass; one run each.

    The members share the trace, the calendar and alpha, which must stay a
    scalar (see `load_slope`), and may differ in rho0, psi and eta. Every
    output matches the member's own one-member run bit for bit.

    With the demand in `TimePartition.calendar` layout, rank
    p * slots_per_zone + s of window k is the slot at [p, k, s]. The loop
    therefore runs over the periods * slots_per_zone ranks and advances the
    (zone, member) threads of blocks of zones, at most STACK_ENTRIES /
    (members * M * n_locations) zones (at least one), as one log-policy stack
    in the compact layout of `Topology.neighbor_table`, M rows deep, -inf off
    the support. Loads come from the policies scattered back to a dense
    stack, so every output matches a slot-by-slot dense replay bit for bit.
    A member's support losses are its link count minus its final policies'
    nonzero count. A member whose eta times `lipschitz_bound` at the trace's
    peak is not finite raises: a step could take a whole column of
    log-weights to -inf, and its softmax to NaN.
    """
    if trace.n_locations != topology.n_locations:
        raise ValueError("trace and topology disagree on the number of locations")
    if len(params) != len(configs) or not configs:
        raise ValueError("a stack needs one config per cost and at least one member")
    alpha = params[0].alpha
    if any(p.alpha != alpha for p in params):
        raise ValueError("the members of a stack must share alpha")
    for member, config in zip(params, configs):
        if not np.isfinite(config.eta * lipschitz_bound(topology, trace.max_intensity, member)):
            raise ValueError(f"eta {config.eta} times the trace's gradient bound overflows a float")

    members = len(configs)
    periods, n_zones, width = partition.periods, partition.zones, partition.slots_per_zone
    n_aps, n_locations = topology.n_aps, topology.n_locations
    table = topology.neighbor_table
    inverse_rate = np.take_along_axis(topology.inverse_rate, table, axis=0)
    # flat position of each compact entry in one thread's dense (n_aps, n_locations) policy
    offsets = table * n_locations + np.arange(n_locations)
    demand = partition.calendar(trace.demand)
    # per-member parameters, shaped to broadcast over (zones, members, ...) stacks
    eta = np.array([c.eta for c in configs])[:, None, None]
    stacked = SimpleNamespace(alpha=alpha)
    for name in ("rho0", "psi", "threshold_slope"):
        setattr(stacked, name, np.array([getattr(p, name) for p in params])[:, None])
    # (T, members, ...) outputs, written through their calendar views
    loads = np.empty((trace.horizon, members, n_aps))
    keep = any(c.keep_policies for c in configs)
    kept = np.empty((trace.horizon, members, n_aps, n_locations)) if keep else None
    calendar_loads = partition.calendar(loads)
    zone_pi = np.zeros((n_zones, members, n_aps, n_locations))
    # a thread's log-weights at its window's first slot: 0 on links, -inf on padding
    opening = np.where(np.take_along_axis(topology.support, table, axis=0), 0.0, -np.inf)
    block = max(1, STACK_ENTRIES // (members * table.size))
    support_losses = np.zeros(members, dtype=np.int64)

    for start in range(0, n_zones, block):
        zones = slice(start, min(start + block, n_zones))
        count = zones.stop - start
        index = np.arange(count * members).reshape(count, members, 1, 1) * (n_aps * n_locations) + offsets
        dense = np.zeros((count, members, n_aps, n_locations))
        theta = np.broadcast_to(opening, (count, members, *opening.shape)).copy()
        for rank in range(periods * width):
            p, s = divmod(rank, width)
            if rank:
                theta -= eta * grad
            pi, log_norm = column_softmax(theta)
            theta -= log_norm

            lam = demand[p, zones, s][:, None]  # (count, 1, n_locations)
            dense.reshape(-1)[index] = pi * inverse_rate
            slot_loads = (dense @ lam[..., None])[..., 0]
            calendar_loads[p, zones, s] = slot_loads
            if kept is not None:
                played = np.zeros_like(dense)
                played.reshape(-1)[index] = pi
                partition.calendar(kept)[p, zones, s] = played
            slope = np.take(load_slope(slot_loads, stacked), table, axis=-1)
            grad = (slope * inverse_rate) * lam[..., None, :]
        zone_pi[zones].reshape(-1)[index] = pi
        support_losses += count * topology.support.sum() - np.count_nonzero(pi, axis=(0, 2, 3))

    zone_of_slot = partition.by_slot(np.arange(1, n_zones + 1)[:, None].repeat(periods * width, axis=1))
    runs = []
    for m, (member, config) in enumerate(zip(params, configs)):
        member_loads = np.ascontiguousarray(loads[:, m])
        log = RunLog(
            costs=penalized_values(member_loads, member).sum(axis=1),
            loads=member_loads,
            zones=zone_of_slot,
            rho0=member.rho0,
            support_loss_events=int(support_losses[m]),
        )
        policies = np.ascontiguousarray(kept[:, m]) if config.keep_policies else None
        runs.append(OnlineRun(log=log, zone_policies=list(zone_pi[:, m]), policies=policies))
    return runs

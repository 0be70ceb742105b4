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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cost import CostParams, load_slope, penalized_values
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
    the thread's next slot.

    With the demand in `TimePartition.calendar` layout, rank
    p * slots_per_zone + s of window k is the slot at [p, k, s]. The loop
    therefore runs over the periods * slots_per_zone ranks and advances
    blocks of at most STACK_ENTRIES / (M * n_locations) threads (at least
    one) as one log-policy stack in the compact layout of
    `Topology.neighbor_table`, M rows deep, -inf off the support. Loads come
    from the policies scattered back to a dense stack, so every output
    matches a slot-by-slot dense replay bit for bit. A block's support
    losses are its link count minus its final policies' nonzero count.
    """
    if trace.n_locations != topology.n_locations:
        raise ValueError("trace and topology disagree on the number of locations")

    periods, n_zones, width = partition.periods, partition.zones, partition.slots_per_zone
    n_aps, n_locations = topology.n_aps, topology.n_locations
    table = topology.neighbor_table
    inverse_rate = np.take_along_axis(topology.inverse_rate, table, axis=0)
    # flat position of each compact entry in one thread's dense (n_aps, n_locations) policy
    offsets = table * n_locations + np.arange(n_locations)
    demand = partition.calendar(trace.demand)
    loads = np.empty((periods, n_zones, width, n_aps))
    kept = np.empty((periods, n_zones, width, n_aps, n_locations)) if config.keep_policies else None
    zone_pi = np.zeros((n_zones, n_aps, n_locations))
    # a thread's log-weights at its window's first slot: 0 on links, -inf on padding
    opening = np.where(np.take_along_axis(topology.support, table, axis=0), 0.0, -np.inf)
    block = max(1, STACK_ENTRIES // table.size)
    support_losses = 0

    for start in range(0, n_zones, block):
        threads = slice(start, min(start + block, n_zones))
        count = threads.stop - start
        index = np.arange(count)[:, None, None] * (n_aps * n_locations) + offsets
        dense = np.zeros((count, n_aps, n_locations))
        theta = np.repeat(opening[None], count, axis=0)
        for rank in range(periods * width):
            p, s = divmod(rank, width)
            if rank:
                theta -= config.eta * grad
            pi, log_norm = column_softmax(theta)
            theta -= log_norm

            lam = demand[p, threads, s]
            dense.reshape(-1)[index] = pi * inverse_rate
            slot_loads = (dense @ lam[:, :, None])[:, :, 0]
            loads[p, threads, s] = slot_loads
            if kept is not None:
                played = np.zeros_like(dense)
                played.reshape(-1)[index] = pi
                kept[p, threads, s] = played
            slope = np.take(load_slope(slot_loads, params), table, axis=1)
            grad = (slope * inverse_rate) * lam[:, None, :]
        zone_pi[threads].reshape(-1)[index] = pi
        support_losses += count * topology.support.sum() - np.count_nonzero(pi)

    horizon = trace.horizon
    loads = loads.reshape(horizon, n_aps)
    log = RunLog(
        costs=penalized_values(loads, params).sum(axis=1),
        loads=loads,
        zones=np.tile(np.repeat(np.arange(1, n_zones + 1), width), periods),
        rho0=params.rho0,
        support_loss_events=int(support_losses),
    )
    policies = None if kept is None else kept.reshape(horizon, n_aps, n_locations)
    return OnlineRun(log=log, zone_policies=list(zone_pi), policies=policies)

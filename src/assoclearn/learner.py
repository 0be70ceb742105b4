"""Online association learning with per-window exponentiated-gradient threads.

Each location's association vector lives on a probability simplex over its
neighbor APs, so the natural online scheme is mirror descent with the
entropy regularizer: a multiplicative update followed by a per-column
normalization, which stays on the simplex without projections. The online
runner keeps one update thread per time zone; a thread starts from the
uniform split at its window's first slot and otherwise advances from the
policy and gradient it stored at the previous slot of the same window.
Every window has the same length, so the threads advance in lock-step,
one window rank at a time, as a stack of policies.
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


@dataclass(frozen=True)
class LearnerConfig:
    """Step size and logging options for an online run."""

    eta: float
    keep_policies: bool = False

    def __post_init__(self):
        if self.eta <= 0:
            raise ValueError("eta must be positive")


def init_uniform(topology: Topology) -> np.ndarray:
    """Split every location's demand evenly across its neighbor APs."""
    counts = topology.support.sum(axis=0)
    return topology.support / counts[None, :]


def egd_step(pi: np.ndarray, grad: np.ndarray, eta: float | np.ndarray) -> np.ndarray:
    """One multiplicative update: pi_ji * exp(-eta * g_ji), renormalized per column.

    pi and grad may be (K, n_aps, n_locations) stacks, with eta of shape
    (K, 1, 1) for one step per policy. Exponents are max-shifted per column
    before exponentiation, so the update is overflow-free for any gradient
    scale. Zero entries stay exactly zero.
    """
    pi = np.asarray(pi, dtype=float)
    grad = np.asarray(grad, dtype=float)
    if pi.shape != grad.shape:
        raise ValueError("policy and gradient shapes differ")
    support = pi > 0
    exponent = np.where(support, -eta * grad, -np.inf)
    shift = exponent.max(axis=-2, keepdims=True)
    # exp(-inf) takes a slow path; off-support entries are zeroed by pi anyway
    weights = pi * np.exp(np.where(support, exponent - shift, 0.0))
    totals = weights.sum(axis=-2, keepdims=True)
    if (totals <= 0).any():
        raise ValueError("a location lost all routing mass; policy column was empty")
    return weights / totals


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
    exponent = np.where(topology.support, eta * theta, -np.inf)
    shift = exponent.max(axis=0)
    weights = np.exp(exponent - shift[None, :])
    return weights / weights.sum(axis=0)[None, :]


@dataclass
class RunLog:
    """Per-slot record of an online run."""

    costs: np.ndarray  # (T,) penalized objective of the played policy
    loads: np.ndarray  # (T, n_aps)
    zones: np.ndarray  # (T,) 1-based zone of each slot
    rho0: float
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
    uniform split if t opens its window, otherwise one `egd_step` from the
    state stored at the window's previous slot. The demand then arrives, the
    realized cost and loads are logged, and the gradient at the played
    policy is stored for the thread's next slot.

    With the demand reshaped to (period, zone, slot, location), rank
    p * slots_per_zone + s of window k is the slot at [p, k, s]. The loop
    therefore runs over the periods * slots_per_zone ranks and advances
    blocks of at most STACK_ENTRIES / (M * n_locations) threads (at least
    one) as one policy stack in the compact layout of
    `Topology.neighbor_table`, M rows deep. Loads come from the policies
    scattered back to a dense stack, so every output matches a slot-by-slot
    dense replay bit for bit. Steps never revive a zero entry, so a block's
    support losses are its link count minus its final nonzero count.
    """
    if partition.horizon != trace.horizon:
        raise ValueError(
            f"partition horizon {partition.horizon} != trace horizon {trace.horizon}"
        )
    if trace.n_locations != topology.n_locations:
        raise ValueError("trace and topology disagree on the number of locations")

    periods, n_zones, width = partition.periods, partition.zones, partition.slots_per_zone
    n_aps, n_locations = topology.n_aps, topology.n_locations
    table = topology.neighbor_table
    inverse_rate = np.take_along_axis(topology.inverse_rate, table, axis=0)
    # flat position of each compact entry in one thread's dense (n_aps, n_locations) policy
    offsets = table * n_locations + np.arange(n_locations)
    demand = trace.demand.reshape(periods, n_zones, width, n_locations)
    loads = np.empty((periods, n_zones, width, n_aps))
    kept = np.empty((periods, n_zones, width, n_aps, n_locations)) if config.keep_policies else None
    zone_pi = np.zeros((n_zones, n_aps, n_locations))
    uniform = np.take_along_axis(init_uniform(topology), table, axis=0)
    block = max(1, STACK_ENTRIES // table.size)
    support_losses = 0

    for start in range(0, n_zones, block):
        threads = slice(start, min(start + block, n_zones))
        count = threads.stop - start
        index = np.arange(count)[:, None, None] * (n_aps * n_locations) + offsets
        dense = np.zeros((count, n_aps, n_locations))
        pi = np.repeat(uniform[None], count, axis=0)
        for rank in range(periods * width):
            p, s = divmod(rank, width)
            if rank:
                pi = egd_step(pi, grad, config.eta)

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

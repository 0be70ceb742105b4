"""Online association learning with per-window exponentiated-gradient threads.

Each location's association vector lives on a probability simplex over its
neighbor APs, so the natural online scheme is mirror descent with the
entropy regularizer: one Hedge instance per location, whose policy is the
column softmax of its log-weights (`column_softmax`). The hindsight solver
takes the same steps. The online runner keeps one update thread per time
zone; a thread starts from the uniform split at its window's first slot and
otherwise advances from the log-policy and gradient it stored at the
previous slot of the same window. Every window has the same length, so the
threads advance in lock-step, one window rank at a time, as a stack. A
stack holds one entry per link, in link rows (`row_softmax`; timings in
BENCH_20.json). A large stack is cut into cache-sized blocks of zones, which
are independent and advance at once in forked worker processes (`fork_map`).

The stack can also carry several members: runs on one trace and calendar
that share alpha and differ in rho0, psi or eta, as the combinations of a
sweep do. Each (zone, learner) pair is then one thread, a learner being a
distinct cost function and eta, and each member's run equals its
one-member run bit for bit (`run_online_stack`).
"""

from __future__ import annotations

import functools
import os
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path
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


def usable_cores() -> int:
    """Cores this process may run on: its CPU affinity where the OS reports one."""
    if hasattr(os, "sched_getaffinity"):  # Linux and some BSDs
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


@functools.cache
def openblas_threads() -> tuple | None:
    """(get, set) of the thread count of the OpenBLAS that numpy loaded, or None without one."""
    import ctypes

    for lib in (Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*"):
        handle = ctypes.CDLL(str(lib))
        for name in ("scipy_openblas_{}_num_threads64_", "openblas_{}_num_threads"):
            if hasattr(handle, name.format("get")) and hasattr(handle, name.format("set")):
                get, set_ = getattr(handle, name.format("get")), getattr(handle, name.format("set"))
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


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
    dead = weights <= UNDERFLOW
    np.exp(np.maximum(weights, UNDERFLOW, out=weights), out=weights)
    np.copyto(weights, 0.0, where=dead)
    totals = weights.sum(axis=-2, keepdims=True)
    weights /= totals
    return weights, shift + np.log(totals)


def row_softmax(theta: np.ndarray, rows: Sequence[tuple[int, int]]) -> np.ndarray:
    """`column_softmax` of a stack in link rows; theta becomes the step's log-policy.

    The first axis of theta holds a neighbor table's rows one after another,
    row r as the slice [start, start + n) for (start, n) = rows[r]: the r-th
    serving AP of the first n locations in an order of falling degree, so
    every row covers a prefix of the locations the row above covers. Any
    further axes stack threads, so each row is one contiguous block. Maxima
    and totals fold the rows in table order, as column_softmax's reduction
    does, so both give the same bits on the same links. Each entry of theta
    loses its column's log-normalizer, in place.
    """
    spans = [(slice(start, start + n), slice(n)) for start, n in rows]
    (top, _), *deeper = spans
    shift = theta[top].copy()
    for entries, heads in deeper:
        np.maximum(shift[heads], theta[entries], out=shift[heads])
    weights = np.empty_like(theta)
    for entries, heads in spans:
        np.subtract(theta[entries], shift[heads], out=weights[entries])
    dead = weights <= UNDERFLOW
    np.exp(np.maximum(weights, UNDERFLOW, out=weights), out=weights)
    np.copyto(weights, 0.0, where=dead)
    totals = weights[top].copy()
    for entries, heads in deeper:
        totals[heads] += weights[entries]
    log_norm = shift + np.log(totals)
    for entries, heads in spans:
        weights[entries] /= totals[heads]
        theta[entries] -= log_norm[heads]
    return weights


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
    workers: int | None = None,
) -> list[OnlineRun]:
    """`run_online` for several (params, config) members in one pass; one run each.

    The members share the trace, the calendar and alpha, which must stay a
    scalar (see `load_slope`), and may differ in rho0, psi and eta. Members
    with the same (`CostParams.function`, eta) share one learner's threads,
    and every output matches the member's own one-member run bit for bit.

    With the demand in `TimePartition.calendar` layout, rank
    p * slots_per_zone + s of window k is the slot at [p, k, s]. The loop
    therefore runs over the periods * slots_per_zone ranks and advances the
    (zone, learner) threads of blocks of zones as one log-policy stack of
    shape (links, zones, learners), in link rows of `Topology.neighbor_table`:
    the locations sorted by falling degree (stable), and row r kept only
    over those of degree > r, so no entry is padding. The step is
    `row_softmax`. Loads come from the policies scattered back to a dense
    (zones, learners, n_aps, n_locations) stack, so every output matches a
    slot-by-slot dense replay bit for bit.
    The zones are cut into the fewest blocks of at most STACK_ENTRIES
    entries, sizes within one of each other, and dealt round-robin by
    `fork_map` to `workers` processes (else `usable_cores()`), at most one
    per block, this one included. Forked workers write their zones' slices
    of the outputs to shared memory, so the result does not depend on the
    worker count.
    A member's support losses are its learner's link count minus its final
    policies' nonzero count. A member whose eta times `lipschitz_bound` at
    the trace's peak times the window's rank count is not finite raises: its
    log-weights could overflow to -inf, and a column of them all -inf
    softmaxes to NaN.
    """
    if trace.n_locations != topology.n_locations:
        raise ValueError("trace and topology disagree on the number of locations")
    if len(params) != len(configs) or not configs:
        raise ValueError("a stack needs one config per cost and at least one member")
    alpha = params[0].alpha
    if any(p.alpha != alpha for p in params):
        raise ValueError("the members of a stack must share alpha")
    periods, n_zones, width = partition.periods, partition.zones, partition.slots_per_zone
    ranks = periods * width
    # relative to its column's largest, a log-weight falls by at most eta * L per rank
    for member, config in zip(params, configs):
        if not np.isfinite(config.eta * lipschitz_bound(topology, trace.max_intensity, member) * ranks):
            raise ValueError(f"eta {config.eta} times the trace's gradient bound over a window overflows")

    distinct = {}  # (cost function, eta) -> learner; members that share both play the same policies
    learner_of = [distinct.setdefault((p.function, c.eta), len(distinct)) for p, c in zip(params, configs)]
    learners = len(distinct)
    n_aps, n_locations = topology.n_aps, topology.n_locations
    table = topology.neighbor_table
    degree = topology.support.sum(axis=0)
    # link rows: row r of the table over the locations of degree > r, in falling degree
    order = np.argsort(-degree, kind="stable")
    lengths = np.count_nonzero(degree > np.arange(table.shape[0])[:, None], axis=1)
    rows = list(zip((np.cumsum(lengths) - lengths).tolist(), lengths.tolist()))
    aps = np.concatenate([row[order[:n]] for row, n in zip(table, lengths)])
    locations = np.concatenate([order[:n] for n in lengths])
    links = aps.size
    inverse_rate = topology.inverse_rate[aps, locations][:, None, None]
    # flat position of each entry in one thread's dense (n_aps, n_locations) policy
    offsets = aps * n_locations + locations
    demand = partition.calendar(trace.demand)
    # per-learner parameters, shaped to broadcast over (..., zones, learners) stacks
    eta = np.array([step for _, step in distinct])
    stacked = SimpleNamespace(alpha=alpha)
    for name in ("rho0", "psi", "threshold_slope"):  # against (zones, learners, n_aps) loads
        setattr(stacked, name, np.array([getattr(p, name) for p, _ in distinct])[:, None])
    # the fewest blocks of at most STACK_ENTRIES entries, their sizes within one of each other
    n_blocks = -(-n_zones // max(1, STACK_ENTRIES // (learners * links)))
    bounds = [-(-n_zones * b // n_blocks) for b in range(n_blocks + 1)]
    blocks = [slice(start, stop) for start, stop in zip(bounds, bounds[1:])]
    workers = min(n_blocks, workers or usable_cores())

    def zeros(shape: tuple) -> np.ndarray:  # an output, in memory shared with the forked workers if any
        if workers < 2:
            return np.zeros(shape)
        import mmap  # here, so one-worker runs skip the import
        return np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape)))).reshape(shape)

    # (T, learners, ...) outputs, written through their calendar views
    loads = zeros((trace.horizon, learners, n_aps))
    keep = any(c.keep_policies for c in configs)
    kept = zeros((trace.horizon, learners, n_aps, n_locations)) if keep else None
    calendar_loads = partition.calendar(loads)
    zone_pi = zeros((n_zones, learners, n_aps, n_locations))

    def advance(zones: slice) -> np.ndarray:
        """Run the threads of `zones` over every rank; their learners' support losses."""
        count = zones.stop - zones.start
        starts = np.arange(count * learners).reshape(count, learners) * (n_aps * n_locations)
        index = offsets[:, None, None] + starts  # (links, count, learners), as theta
        scatter = np.ascontiguousarray(index.transpose(1, 2, 0))  # thread-major: each within its policy
        values = np.empty(scatter.shape)
        dense = np.zeros((count, learners, n_aps, n_locations))
        theta = np.zeros((links, count, learners))  # log-weights at a window's first slot
        rate = np.broadcast_to(inverse_rate, theta.shape).copy()  # products on it need no broadcast
        grad = np.empty_like(theta)
        scratch = np.empty_like(theta)
        for rank in range(ranks):
            p, s = divmod(rank, width)
            if rank:
                theta -= np.multiply(eta, grad, out=scratch)
            pi = row_softmax(theta, rows)  # and theta becomes log(pi)

            lam = demand[p, zones, s]  # (count, n_locations)
            np.multiply(pi, rate, out=values.transpose(2, 0, 1))
            dense.reshape(-1)[scatter] = values
            slot_loads = (dense @ lam[:, None, :, None])[..., 0]
            calendar_loads[p, zones, s] = slot_loads
            if kept is not None:
                played = np.zeros_like(dense)
                played.reshape(-1)[index] = pi
                partition.calendar(kept)[p, zones, s] = played
            slopes = load_slope(slot_loads, stacked).transpose(2, 0, 1)  # (n_aps, count, learners)
            # mode "clip" (the indices are valid) writes straight into grad; "raise" buffers out
            np.take(slopes, aps, axis=0, out=grad, mode="clip")
            grad *= rate
            grad *= np.take(lam.T, locations, axis=0)[..., None]
        zone_pi[zones].reshape(-1)[index] = pi
        return count * links - np.count_nonzero(pi, axis=(0, 1))

    support_losses = sum(fork_map(advance, blocks, workers))

    zone_of_slot = partition.by_slot(np.arange(1, n_zones + 1)[:, None].repeat(ranks, axis=1))
    runs = []
    for m, member, config in zip(learner_of, params, configs):
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


def fork_map(fn, items: Sequence, workers: int) -> list:
    """[fn(item) for item in items], in item order, on `workers` processes.

    This process maps items[::workers], and for each 0 < w < workers a child
    forked from it maps items[w::workers]. A child inherits fn and the items
    copy-on-write, so neither is pickled, and sends back only its results or
    the exception it raised. Every report is read before any child is joined,
    as a child blocks on one the pipe cannot hold; then the first exception in
    worker order is raised again here. Below two workers, or without `fork`,
    every item is mapped here; below two, `multiprocessing` is not imported.
    While it forks, OpenBLAS (`openblas_threads`) runs one thread here and
    in every child, as the workers already fill the cores; the old count is
    set again after the join. Another BLAS is left as it is.
    """
    if workers > 1:
        import multiprocessing
    if workers < 2 or "fork" not in multiprocessing.get_all_start_methods():
        return list(map(fn, items))

    def report(share, send):
        try:
            send(list(map(fn, share)))
        except BaseException as exc:  # raised again in the caller
            send(exc)

    context, children, outcomes = multiprocessing.get_context("fork"), [], []
    blas = openblas_threads()
    threads = blas and blas[0]()
    try:
        if blas:
            blas[1](1)
        for w in range(1, workers):
            receive, send = context.Pipe(duplex=False)
            child = context.Process(target=report, args=(items[w::workers], send.send))
            child.start()
            send.close()
            children.append((child, receive))
        report(items[::workers], outcomes.append)
        outcomes += [receive.recv() for _, receive in children]
    finally:
        for child, receive in children:
            receive.close()  # unread only if a child died: the others then fail to report and exit
            child.join()
        if blas:
            blas[1](threads)
    for outcome in outcomes:
        if isinstance(outcome, BaseException):
            raise outcome
    return [outcomes[i % workers][i // workers] for i in range(len(items))]

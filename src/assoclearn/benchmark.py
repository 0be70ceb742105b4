"""Hindsight benchmarks: one optimal static policy per time window.

Each window's policy minimizes the window-aggregated penalized objective f
over the product of per-location simplices from the uniform split, by Tseng's
accelerated Bregman proximal gradient with the entropy and adaptive restarts
(O'Donoghue and Candes). A window keeps x, the mirror iterate z with log z,
theta and a curvature L. An iteration takes y = (1-theta) x + theta z,
z+ = `column_softmax`(log z + a) with a = -grad f(y) / (theta L) and
x+ = (1-theta) x + theta z+, accepted if f(x+) - f(y) is at most
-theta^2 L sum_i (log Z_i - <z_i, a_i>) + ROUNDING slack. L then shrinks by
STEP_GROWTH (a rejection doubles it), and theta+ solves
theta+^2 / (1 - theta+) = theta^2 L / L+. theta is 1 for the first PLAIN_STEPS
accepted iterations (the learner's mirror step) and after a restart: on
f(x+) > f(x), on <g, x+ - x> > 0, every RESTART_PERIOD iterations, or when L
would overflow. A window stops once its Frank-Wolfe gap at y,
<g, y> - sum_i min_{j in N(i)} g_ji >= f(y) - f*, is at most
tolerance * max(1, |f(y)|), and returns y with that gap. A window that
reaches PLAIN_STEPS first tries a Newton finish (`_newton_finish`) on a copy
of x: it rounds, then takes up to NEWTON_STEPS projected Newton steps on the
split locations (Bertsekas 1982) and stops the window once the gap meets the
target. After a step that does not cut the gap it gives up, and the window
goes on unchanged. iterations counts the Newton steps of a finish that
certified the window, and max_iterations caps the total. A single
window covering the horizon gives the classic static benchmark; singleton
windows give the per-slot dynamic one.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .cost import CostParams, lipschitz_bound, load_slope, penalized_values
from .learner import column_softmax, fork_map, usable_cores
from .topology import Topology
from .traffic import TimePartition, TrafficTrace, build_partition

PLAIN_STEPS = 80  # accepted iterations at theta = 1 before momentum starts
RESTART_PERIOD = 250  # accepted iterations after which momentum restarts
STEP_GROWTH = 1.25  # L shrinks by this factor after an accepted iteration
ROUNDING = 1e-12  # relative slack of the step test for rounding in f
EPS, TINY = np.finfo(float).eps, np.finfo(float).tiny  # TINY floors a restarted log z
NEWTON_STEPS = 15  # budget of a window's Newton finish
DECIDED, TRACE = 1e-3, 1e-12  # a location within DECIDED of one AP goes to it; a link below TRACE is 0
# Stack entries from which a solve forks: a fork costs about 3 ms, the first 10 ms more to import
# multiprocessing; stacks of 288,000 entries took 8-10 ms to solve, one of 864,000 about 150 ms.
SPLIT_ENTRIES = 2**19


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
    workers: int | None = None,
) -> BenchmarkSolution:
    """Minimize every window's aggregated objective from the uniform split.

    demands is (n_windows, n_locations, window_length), as from
    `TimePartition.by_window`. The windows advance in lock-step as one stack,
    with first curvature L = window_length * L_k. Windows without demand, or
    whose curvature is too small to invert, keep the uniform split. A window
    at the iteration cap returns its last y with its gap and converged=False;
    a first curvature that overflows raises ValueError. Windows do not
    interact, so a stack of SPLIT_ENTRIES or more entries is dealt round-robin
    into min(workers, n_windows) stacks (workers None or 0: `usable_cores()`)
    that `fork_map` solves at once, with the same result.
    """
    solver = solver or SolverConfig()
    n_windows, _, window_length = demands.shape
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
    size = demands.size * topology.n_aps  # windows x APs x locations x window_length
    stacks = min(n_windows, workers or usable_cores()) if size >= SPLIT_ENTRIES else 1
    # window k goes to stack k mod stacks, which mixes the slow windows where they cluster
    deals = [slice(s, None, stacks) for s in range(stacks)]
    parts = fork_map(lambda k: _lockstep(topology, demands[k], params, solver, bounds[k]), deals, stacks)
    order = np.argsort(np.concatenate([np.arange(n_windows)[k] for k in deals]))  # back to window order
    pi, iterations, gaps, converged = (np.concatenate(part)[order] for part in zip(*parts))
    values = _objectives((pi * topology.inverse_rate) @ demands, params)
    diagnostics = [WindowDiagnostics(*d) for d in zip(iterations.tolist(), gaps.tolist(), converged.tolist())]
    return BenchmarkSolution(list(pi), values.tolist(), diagnostics)


def _lockstep(topology, demands, params, solver, bounds) -> tuple:
    """(policies, iterations, gaps, converged) of windows solved as one lock-step stack
    from first curvatures bounds; see `solve_windows`."""
    n_windows = demands.shape[0]
    support, inverse_rate = topology.support, topology.inverse_rate
    opening = np.where(support, 0.0, -np.inf)  # log-weights of the uniform split
    uniform, log_norm = column_softmax(opening)
    pi = np.repeat(uniform[None], n_windows, axis=0)
    iterations, gaps = np.zeros(n_windows, dtype=int), np.zeros(n_windows)
    converged = np.ones(n_windows, dtype=bool)
    with np.errstate(divide="ignore", over="ignore"):
        # no step for a window without demand or with a subnormal curvature
        active = np.flatnonzero(np.isfinite(1.0 / bounds))
    overflows = np.zeros(active.size, dtype=int)  # since the last accepted iteration
    curvature, theta, scale = bounds[active], np.ones(active.size), np.ones(active.size)
    x = pi[active]
    z, log_z = x.copy(), np.repeat((opening - log_norm)[None], active.size, axis=0)
    # Demands stay the caller's single copy until some window finishes: the
    # loads product reads it as stored, the gradient through swapped axes.
    active_demands = demands if active.size == n_windows else demands[active]
    loads_x = (x * inverse_rate) @ active_demands  # (n, n_aps, window_length)
    loads_z, values_x = loads_x.copy(), _objectives(loads_x, params)
    fresh = np.zeros(0, dtype=int)  # windows whose last accepted step was plain step PLAIN_STEPS
    while active.size:
        plain = (theta == 1).all()  # y = x = z
        mix = theta[:, None, None]
        loads_y = loads_x if plain else (1 - mix) * loads_x + mix * loads_z
        values_y = values_x if plain else _objectives(loads_y, params)
        slope = load_slope(loads_y, params)
        grad = (slope @ active_demands.swapaxes(1, 2)) * inverse_rate
        best = np.where(support, grad, np.inf).min(axis=1).sum(axis=1)
        target = solver.tolerance * np.maximum(1.0, np.abs(values_y))
        stop = (
            ((slope * loads_y).sum(axis=(1, 2)) - best <= target)
            | (iterations[active] >= solver.max_iterations)
            | (overflows > 1)
        )
        del loads_y  # the step needs only y's slope and value
        keep, trial = ~stop, fresh[~stop[fresh]]
        if trial.size:
            won, policy, gap, steps = _newton_finish(
                topology, active_demands[trial], params, solver, x[trial], uniform,
                min(NEWTON_STEPS, solver.max_iterations - PLAIN_STEPS))
            finished, keep[trial[won]] = active[trial[won]], False
            pi[finished], gaps[finished] = policy[won], gap[won]
            iterations[finished] += steps[won]
        if not keep.all():
            y = (1 - mix[stop]) * x[stop] + mix[stop] * z[stop]
            gap = (grad[stop] * y).sum(axis=(1, 2)) - best[stop]
            finished = active[stop]
            pi[finished], gaps[finished], converged[finished] = y, gap, gap <= target[stop]
            (active, active_demands, x, z, log_z, loads_x, loads_z, values_x, values_y, slope,
             grad, curvature, theta, scale, overflows, mix) = (
                a[keep] for a in (active, active_demands, x, z, log_z, loads_x, loads_z, values_x,
                                  values_y, slope, grad, curvature, theta, scale, overflows, mix)
            )
        step = grad / (theta * curvature)[:, None, None]
        shifted = log_z - step
        candidate, log_norm = column_softmax(shifted)
        new_loads_z = (candidate * inverse_rate) @ active_demands
        new_loads_x = new_loads_z if plain else (1 - mix) * loads_x + mix * new_loads_z
        new_values = _objectives(new_loads_x, params)
        # model -theta^2 L sum_i (log Z_i - <z_i, a_i>) with a = -step, <g, z> from the loads
        weight, linear_z = theta**2 * curvature, (slope * loads_z).sum(axis=(1, 2))
        slack = ROUNDING * np.maximum(1.0, np.abs(values_y)) - (new_values - values_y)
        with np.errstate(over="ignore", invalid="ignore"):  # an overflow leaves doubt
            room = slack - theta * linear_z - weight * log_norm.sum(axis=(1, 2))
            rounding = theta * linear_z + weight * (1 + np.abs(log_norm)).sum(axis=(1, 2))
        # where log Z_i's rounding can decide the test, log Z_i - <z_i, a_i> is log1p
        # of the centred exponents' expm1s (in columns where none exceeds 1)
        doubt = np.flatnonzero(~(np.abs(room) > 64 * EPS * rounding))
        if doubt.size:
            zd, sd = z[doubt], step[doubt]
            mean = np.einsum("kjn,kjn->kn", zd, sd)[:, None]
            centred = np.minimum(mean - sd, 1.0)
            small = np.log1p(np.einsum("kjn,kjn->kn", zd, np.expm1(centred))[:, None])
            far = centred.max(axis=1, keepdims=True) >= 1
            spread = np.where(far, log_norm[doubt] + mean, small).sum(axis=(1, 2))
            room[doubt] = slack[doubt] - weight[doubt] * spread
        ok = room >= 0
        done = np.flatnonzero(ok)
        iterations[active[done]] += 1
        fresh = done[iterations[active[done]] == PLAIN_STEPS]
        carried = done[theta[done] < 1]  # accepted steps with momentum
        # restart when f(x+) > f(x) or <g, x+ - x> = theta <g, z+ - x> > 0
        restart = carried[
            (iterations[active[carried]] % RESTART_PERIOD == 0)
            | (new_values[carried] > values_x[carried])
            | ((slope[carried] * (new_loads_z[carried] - loads_x[carried])).sum(axis=(1, 2)) > 0)
        ] if carried.size else carried
        np.copyto(x, candidate if plain else (1 - mix) * x + mix * candidate, where=ok[:, None, None])
        np.copyto(z, candidate, where=ok[:, None, None])
        np.copyto(log_z, np.subtract(shifted, log_norm, out=shifted), where=ok[:, None, None])
        loads_x[done], loads_z[done] = new_loads_x[done], new_loads_z[done]
        values_x[done], scale[done] = new_values[done], theta[done] ** 2 * curvature[done]
        with np.errstate(over="ignore"):
            curvature = np.where(ok, curvature / STEP_GROWTH, curvature * 2)
        blown = np.flatnonzero(np.isinf(curvature))
        overflows[done], overflows[blown] = 0, overflows[blown] + 1
        curvature[blown] = scale[blown] = bounds[active[blown]]
        # Tseng's rule, varying L: theta^2 L / (1 - theta) = last accepted theta^2 L
        ratio, momentum = scale / curvature, (theta < 1) | ok
        momentum &= iterations[active] >= PLAIN_STEPS
        theta = np.where(momentum, (np.sqrt(ratio * (ratio + 4)) - ratio) / 2, 1.0)
        reset = np.concatenate((restart, blown))
        if reset.size:  # log z = log x floored on the support, so no AP is lost
            theta[reset] = 1.0
            floored = np.where(support, np.log(np.maximum(x[reset], TINY)), -np.inf)
            log_z[reset] = floored - column_softmax(floored)[1]
            # x = z is a zero step from log z: a tiny next step moves f by its size
            x[reset] = z[reset] = column_softmax(log_z[reset])[0]
            loads_x[reset] = loads_z[reset] = (z[reset] * inverse_rate) @ active_demands[reset]
            values_x[reset] = _objectives(loads_x[reset], params)
    return pi, iterations, gaps, converged


def _evaluate(pi, demands, inverse_rate, params) -> tuple:
    """(loads, objectives, gradients) of a stack of window policies."""
    loads = (pi * inverse_rate) @ demands
    grad = (load_slope(loads, params) @ demands.swapaxes(1, 2)) * inverse_rate
    return loads, _objectives(loads, params), grad


def _newton_finish(topology, demands, params, solver, x, uniform, budget) -> tuple:
    """(certified, policies, gaps, steps) of at most budget Newton steps from each window's
    policy x rounded at DECIDED and TRACE, each with Armijo backtracking; a location with a
    large share of the gap off its steepest link first mixes DECIDED of the uniform back in."""
    support, inverse_rate = topology.support, topology.inverse_rate
    n, n_aps, n_locations = x.shape
    vertex = np.arange(n_aps)[:, None] == x.argmax(axis=1)[:, None]
    pi = np.where(x.max(axis=1, keepdims=True) >= 1 - DECIDED, vertex, np.where(x > TRACE, x, 0.0))
    pi /= pi.sum(axis=1, keepdims=True)
    gaps, last, steps, live = np.zeros(n), np.full(n, np.inf), np.zeros(n, dtype=int), np.arange(n)
    certified = np.zeros(n, dtype=bool)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        while live.size:
            p, dem = pi[live], demands[live]
            loads, values, grad = _evaluate(p, dem, inverse_rate, params)
            low = np.where(support, grad, np.inf).min(axis=1)
            share = (p * (grad - low[:, None])).sum(axis=1)  # each location's part of the gap
            gaps[live] = gap = share.sum(axis=1)
            target = solver.tolerance * np.maximum(1.0, np.abs(values))
            certified[live] = gap <= target
            go = ~certified[live] & (gap < last[live]) & (steps[live] < budget)
            last[live] = gap
            live, p, dem, loads, values, grad, low, share, target = (
                a[go] for a in (live, p, dem, loads, values, grad, low, share, target))
            # a location with more than its share of the gap off its steepest link is split again
            off = ~((np.where(support, grad, np.inf) == low[:, None]) & (p > TRACE)).any(axis=1)
            release = off & (share > 1e-2 * target[:, None] / n_locations)
            if release.any():
                p = np.where(release[:, None], (1 - DECIDED) * p + DECIDED * uniform, p)
                loads, values, grad = _evaluate(p, dem, inverse_rate, params)
            step = _newton_step(p, dem, loads, grad, topology, params)
            descent = (grad * step).sum(axis=(1, 2))
            t = np.minimum(1.0, np.where(step < 0, p / -step, np.inf).min(axis=(1, 2)))  # largest feasible
            todo, moved = np.flatnonzero(descent < 0), np.zeros(live.size, dtype=bool)
            while todo.size:  # Armijo backtracking
                q = np.maximum(p[todo] + t[todo, None, None] * step[todo], 0.0)
                slack = ROUNDING * np.maximum(1.0, np.abs(values[todo])) + 1e-4 * t[todo] * descent[todo]
                won = _objectives((q * inverse_rate) @ dem[todo], params) <= values[todo] + slack
                pi[live[todo[won]]], moved[todo[won]] = q[won], True
                todo = todo[~won & (t[todo] > 1e-9)]
                t[todo] /= 2
            steps[live[moved]] += 1
            live = live[moved]
    return certified, pi, gaps, steps


def _newton_step(pi, demands, loads, grad, topology, params) -> np.ndarray:
    """Steps solving the KKT systems of the cost's second-order model on the links above
    TRACE of locations with two or more, by a primal-dual active set from each location's
    steepest link (no solve where that is optimal; at most 10). Windows with equally many
    links and locations solve as one batch; a model that overflows gives NaN."""
    alpha, rho0, inverse_rate = params.alpha, params.rho0, topology.inverse_rate
    curvature = np.where(loads <= rho0, alpha * (1 - np.minimum(loads, rho0)) ** (-alpha - 1), 0.0)
    free = (pi > TRACE) & ((pi > TRACE).sum(axis=1, keepdims=True) > 1)
    steepest = np.arange(pi.shape[1])[:, None] == np.where(free, grad, np.inf).argmin(axis=1)[:, None]
    steepest &= free
    step = np.where(free & ~steepest, -pi, 0.0)
    step -= steepest * step.sum(axis=1, keepdims=True)
    model = grad + ((curvature * ((step * inverse_rate) @ demands)) @ demands.swapaxes(1, 2)) * inverse_rate
    others = np.where(free ^ steepest, model, np.inf).min(axis=1)
    free &= ~(np.where(steepest, model, -np.inf).max(axis=1) < others).all(axis=1)[:, None, None]
    step *= ~free
    sizes = np.stack((free.sum(axis=(1, 2)), free.any(axis=1).sum(axis=1)), axis=1)
    for n_free, n_split in np.unique(sizes[sizes[:, 0] > 0], axis=0):
        group = np.flatnonzero((sizes == (n_free, n_split)).all(axis=1))
        _, j, i = np.nonzero(free[group])
        j, i, b, diagonal = j.reshape(-1, n_free), i.reshape(-1, n_free), group[:, None], np.arange(n_free)
        split = np.nonzero(free[group].any(axis=1))[1].reshape(-1, 1, n_split)
        links = (i[:, :, None] == split).astype(float)  # (windows, links, locations)
        rows = inverse_rate[j, i][..., None] * demands[b, i]
        hessian = ((rows * curvature[b, j]) @ rows.swapaxes(1, 2)) * (j[:, :, None] == j[:, None, :])
        scale = hessian[:, diagonal, diagonal].max(axis=1)[:, None]  # solve in units of the largest curvature
        scale[scale == 0] = 1.0
        hessian = hessian / scale[..., None] + 1e-10 * np.eye(n_free)
        kkt = np.block([[hessian, links], [links.swapaxes(1, 2), np.zeros((group.size, n_split, n_split))]])
        finite = np.isfinite(kkt).all(axis=(1, 2))
        kkt[~finite] = np.eye(n_free + n_split)
        p, g, pinned = pi[b, j, i], grad[b, j, i] / scale, ~steepest[b, j, i]
        for _ in range(10):
            system, value = kkt.copy(), np.concatenate((-g, np.zeros((group.size, n_split))), axis=1)
            w, f = np.nonzero(pinned)
            system[w, f], value[w, f] = 0.0, -p[w, f]
            system[w, f, f] = 1.0
            solution = np.linalg.solve(system, value[..., None])[..., 0]
            d = solution[:, :n_free]
            multiplier = g + (hessian @ d[..., None] + links @ solution[:, n_free:, None])[..., 0]
            update = np.where(pinned, multiplier > 0, p + d < 0)
            if (update == pinned).all():
                break
            pinned = update
        step[b, j, i] += np.where(finite[:, None], d, np.nan)
    return step


def solve_periodic_static(
    topology: Topology,
    trace: TrafficTrace,
    partition: TimePartition,
    params: CostParams,
    solver: SolverConfig | None = None,
    workers: int | None = None,
) -> BenchmarkSolution:
    """One optimal static policy per window of the partition."""
    return solve_windows(topology, partition.by_window(trace.demand), params, solver, workers)


def solve_static(
    topology: Topology,
    trace: TrafficTrace,
    params: CostParams,
    solver: SolverConfig | None = None,
    workers: int | None = None,
) -> BenchmarkSolution:
    """Single static policy for the whole horizon (one all-covering window)."""
    partition = build_partition(trace.horizon, 1, trace.horizon)
    return solve_periodic_static(topology, trace, partition, params, solver, workers)


def solve_dynamic(
    topology: Topology,
    trace: TrafficTrace,
    params: CostParams,
    solver: SolverConfig | None = None,
    workers: int | None = None,
) -> BenchmarkSolution:
    """Per-slot optimal policies (every window a single slot)."""
    partition = build_partition(trace.horizon, trace.horizon, 1)
    return solve_periodic_static(topology, trace, partition, params, solver, workers)

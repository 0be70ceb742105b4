"""Reference computations that the benchmark checks assoclearn's outputs against.

Written from the model's definitions, not from assoclearn's code, and
importing nothing from it: Shannon service rates, the synthetic demand
profile, the penalized alpha-fair cost and its gradient, the Frank-Wolfe
certificate of a window policy, and a windowed exponentiated-gradient
replay. Arrays follow the program's layout: policies and rates are
(n_aps, n_locations), demand is (horizon, n_locations), slots are 0-based
here.
"""

from __future__ import annotations

import numpy as np


def dbm_to_watts(dbm):
    return 10.0 ** ((np.asarray(dbm, dtype=float) - 30.0) / 10.0)


def grid(nx: int, ny: int, spacing: float) -> np.ndarray:
    """Row-major grid of (x, y) location coordinates."""
    return np.array([(x * spacing, y * spacing) for y in range(ny) for x in range(nx)], dtype=float)


def service_rates(
    ap_positions,
    ap_power_dbm,
    locations,
    *,
    bandwidth_hz: float = 10e6,
    noise_dbm_per_hz: float = -174.0,
    path_loss_exponent: float = 3.0,
    rate_threshold_bps: float = 0.0,
    omega: float = 1.0,
    min_distance: float = 1.0,
) -> np.ndarray:
    """omega * W log2(1 + SINR) per link, every other AP interfering.

    Links below the threshold are dropped, except that a location left
    without links keeps its best one.
    """
    ap = np.asarray(ap_positions, dtype=float)
    loc = np.asarray(locations, dtype=float)
    dist = np.hypot(ap[:, None, 0] - loc[None, :, 0], ap[:, None, 1] - loc[None, :, 1])
    received = dbm_to_watts(ap_power_dbm)[:, None] * np.maximum(dist, min_distance) ** (-path_loss_exponent)
    noise = bandwidth_hz * dbm_to_watts(noise_dbm_per_hz)
    others = 1.0 - np.eye(ap.shape[0])
    interference = np.einsum("jk,kl->jl", others, received)
    rate = bandwidth_hz * np.log2(1.0 + received / (noise + interference))
    keep = rate >= rate_threshold_bps
    orphans = np.flatnonzero(~keep.any(axis=0))
    keep[rate[:, orphans].argmax(axis=0), orphans] = True
    return np.where(keep & (rate > 0), omega * rate, 0.0)


def synthetic_demand(
    n_locations: int,
    horizon: int,
    seed: int,
    *,
    slots_per_day: int,
    base_min: float = 0.5,
    base_max: float = 1.5,
    shape: str = "sinusoidal",
    amplitude: float = 0.6,
    sigma: float = 0.1,
) -> np.ndarray:
    """base_i * (1 + a sin(2 pi t / day)) * (1 + u_ti), u ~ U[-sigma, sigma].

    The draws come from numpy's default generator in the documented order:
    first one base per location, then the (horizon, n_locations) noise.
    """
    rng = np.random.default_rng(seed)
    base = rng.uniform(base_min, base_max, n_locations)
    phase = np.arange(horizon) % slots_per_day / slots_per_day
    daily = 1.0 + amplitude * np.sin(2.0 * np.pi * phase) if shape == "sinusoidal" else np.ones(horizon)
    noise = rng.uniform(-sigma, sigma, (horizon, n_locations))
    return np.maximum(0.0, base[None, :] * daily[:, None] * (1.0 + noise))


class Cost:
    """Penalized alpha-fair per-AP cost: phi below rho0, its scaled tangent above."""

    def __init__(self, alpha: float, rho0: float = 1.0, psi: float = 1.0):
        self.alpha, self.rho0, self.psi = float(alpha), float(rho0), float(psi)
        self.over_slope = psi * (1.0 - rho0) ** (-alpha)

    def _phi(self, rho):
        if self.alpha == 1.0:
            return -np.log1p(-rho)
        return (1.0 - rho) ** (1.0 - self.alpha) / (self.alpha - 1.0)

    def values(self, loads) -> np.ndarray:
        loads = np.asarray(loads, dtype=float)
        inside = loads <= self.rho0
        below = np.where(inside, loads, self.rho0)
        return np.where(inside, self._phi(below), self._phi(self.rho0) + self.over_slope * (loads - self.rho0))

    def slopes(self, loads) -> np.ndarray:
        loads = np.asarray(loads, dtype=float)
        inside = loads <= self.rho0
        below = np.where(inside, loads, 0.0)
        return np.where(inside, (1.0 - below) ** (-self.alpha), self.over_slope)


def inverse_rates(service: np.ndarray) -> np.ndarray:
    inv = np.zeros_like(service, dtype=float)
    np.divide(1.0, service, out=inv, where=service > 0)
    return inv


def window_certificate(pi, demands, service, cost: Cost) -> tuple[float, float]:
    """(objective, Frank-Wolfe gap) of one static policy over a window's demands.

    gap = <grad f, pi> - sum_i min_{j in N(i)} grad_ji, an upper bound on
    f(pi) - min f over the product of the locations' simplices.
    """
    inv = inverse_rates(service)
    loads = (pi * inv) @ np.asarray(demands, dtype=float).T  # (n_aps, slots)
    grad = (cost.slopes(loads) @ demands) * inv
    best = np.where(service > 0, grad, np.inf).min(axis=0)
    return float(cost.values(loads).sum()), float((grad * pi).sum() - best.sum())


def eg_replay(
    service: np.ndarray,
    demand: np.ndarray,
    zones: int,
    slots_per_zone: int,
    cost: Cost,
    eta: float,
    n_slots: int | None = None,
):
    """Windowed exponentiated gradient: one thread per zone.

    A zone's thread plays the uniform split at its first slot ever and, at
    each later slot of that zone, the previous policy reweighted by
    exp(-eta * gradient at that previous slot), columns renormalized.
    Returns per-slot costs (n,), loads (n, n_aps) and the last policy of
    every zone that played.
    """
    inv = inverse_rates(service)
    support = service > 0
    uniform = support / support.sum(axis=0)
    n = demand.shape[0] if n_slots is None else n_slots
    costs = np.empty(n)
    loads = np.empty((n, service.shape[0]))
    state = {}
    with np.errstate(divide="ignore"):
        for s in range(n):
            zone = (s // slots_per_zone) % zones
            if zone in state:
                prev, grad = state[zone]
                logits = np.log(prev) - eta * grad
                weights = np.exp(logits - logits.max(axis=0))
                pi = weights / weights.sum(axis=0)
            else:
                pi = uniform
            lam = demand[s]
            slot_loads = (pi * inv) @ lam
            costs[s] = cost.values(slot_loads).sum()
            loads[s] = slot_loads
            state[zone] = (pi, cost.slopes(slot_loads)[:, None] * inv * lam[None, :])
    return costs, loads, {zone: pi for zone, (pi, _) in state.items()}


def column_stochastic_on(pi, support, atol: float = 1e-9) -> bool:
    """True when pi >= 0, sums to one per column and is zero off the support."""
    pi = np.asarray(pi, dtype=float)
    return bool(
        pi.shape == support.shape
        and np.all(pi >= -atol)
        and np.all(pi[~support] == 0)
        and np.allclose(pi.sum(axis=0), 1.0, rtol=0, atol=atol)
    )

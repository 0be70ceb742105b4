"""AP loads, the fairness cost family, its penalized extension, and gradients.

The per-AP cost phi(rho) = (1-rho)^(1-alpha)/(alpha-1) for alpha != 1 and
-log(1-rho) for alpha = 1 interpolates total-load (alpha=0), log-barrier
(alpha=1) and average-delay (alpha=2) objectives. Above a load threshold
rho0 the cost continues as the linear extension with slope
psi * (1-rho0)^(-alpha), so the penalized objective V is finite, convex
and monotone on the whole policy simplex. Both branches share the
derivative (1-rho)^(-alpha), so with psi = 1 the extension is the tangent
at rho0 and V is continuously differentiable there.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .topology import Topology


@dataclass(frozen=True)
class CostParams:
    """Fairness exponent, load threshold and overload penalty factor."""

    alpha: float
    rho0: float = 1.0
    psi: float = 1.0

    def __post_init__(self):
        if not 0 <= self.alpha < np.inf:
            raise ValueError("alpha must be non-negative and finite")
        if not 0 < self.rho0 <= 1:
            raise ValueError("rho0 must lie in (0, 1]")
        if not 0 < self.psi < np.inf:
            raise ValueError("psi must be positive and finite")
        if self.rho0 == 1 and self.alpha > 0:
            raise ValueError(
                "rho0 = 1 is only allowed for alpha = 0; the cost and its "
                "gradient are unbounded at full load otherwise"
            )
        with np.errstate(over="ignore"):
            slope = float(np.float64(1.0 - self.rho0) ** (-self.alpha))
        # the cost's slope at the threshold, kept outside the fields (eq, hash)
        object.__setattr__(self, "threshold_slope", slope)
        if np.isinf(max(1.0, self.psi) * slope):
            raise ValueError(
                f"alpha = {self.alpha} with rho0 = {self.rho0}: the overload "
                "slope psi * (1 - rho0)^-alpha overflows a float"
            )


def validate_policy(pi: np.ndarray, topology: Topology, atol: float = 1e-9) -> None:
    """Raise unless pi is a column-stochastic matrix supported on the topology."""
    pi = np.asarray(pi, dtype=float)
    if pi.shape != (topology.n_aps, topology.n_locations):
        raise ValueError(
            f"policy shape {pi.shape} does not match "
            f"({topology.n_aps}, {topology.n_locations})"
        )
    if np.any(pi < -atol) or np.any(pi > 1 + atol):
        raise ValueError("policy entries must lie in [0, 1]")
    if np.any(pi[~topology.support] != 0):
        raise ValueError("policy routes traffic over non-existent links")
    sums = pi.sum(axis=0)
    bad = np.flatnonzero(np.abs(sums - 1.0) > atol)
    if bad.size:
        raise ValueError(f"columns {bad.tolist()} do not sum to 1 (sums {sums[bad]})")


def ap_load(pi: np.ndarray, lam: np.ndarray, topology: Topology) -> np.ndarray:
    """Per-AP utilization: load_j = sum_i lam_i * pi_ji / service_rate_ji."""
    pi = np.asarray(pi, dtype=float)
    lam = np.asarray(lam, dtype=float)
    if pi.shape != topology.service_rate.shape:
        raise ValueError("policy shape does not match the topology")
    if lam.shape != (topology.n_locations,):
        raise ValueError("demand vector length does not match the topology")
    return (pi * topology.inverse_rate) @ lam


def _phi(loads: np.ndarray, alpha: float) -> np.ndarray:
    """Elementwise fairness cost; callers keep loads < 1 when alpha >= 1."""
    if alpha == 1:
        return -np.log(1.0 - loads)
    return (1.0 - loads) ** (1.0 - alpha) / (alpha - 1.0)


def alpha_cost(loads: np.ndarray, params: CostParams) -> float:
    """Raw fairness cost of a load vector, summed over APs.

    For alpha = 0 this evaluates to total load minus one per AP; the
    plain total load is available separately via `total_load`.
    """
    loads = np.asarray(loads, dtype=float)
    if params.alpha >= 1 and np.any(loads >= 1):
        raise ValueError(
            "raw cost undefined at loads >= 1 for alpha >= 1; use penalized_cost"
        )
    return float(_phi(loads, params.alpha).sum())


def total_load(loads: np.ndarray) -> float:
    """Sum of AP utilizations, the human-facing reading of the alpha=0 cost."""
    return float(np.asarray(loads, dtype=float).sum())


def load_slope(loads: np.ndarray, params: CostParams) -> np.ndarray:
    """Elementwise derivative of the penalized per-AP cost w.r.t. its load.

    (1-rho)^(-alpha) below the threshold, psi*(1-rho0)^(-alpha) above it;
    the threshold itself takes the interior branch. params may hold rho0,
    psi and threshold_slope as arrays that broadcast against loads, but
    alpha must stay a scalar: x ** -1.0 takes numpy's reciprocal path,
    which differs in the last bit from the power with an array exponent.
    """
    loads = np.asarray(loads, dtype=float)
    interior = (1.0 - np.minimum(loads, params.rho0)) ** (-params.alpha)
    return np.where(loads <= params.rho0, interior, params.psi * params.threshold_slope)


def penalized_values(loads: np.ndarray, params: CostParams) -> np.ndarray:
    """Elementwise penalized cost V_j: phi below rho0, linear extension above."""
    loads = np.asarray(loads, dtype=float)
    overload_slope = params.psi * params.threshold_slope
    interior = _phi(np.minimum(loads, params.rho0), params.alpha)
    extension = _phi(np.float64(params.rho0), params.alpha) + overload_slope * (loads - params.rho0)
    return np.where(loads <= params.rho0, interior, extension)


def penalized_cost_from_loads(loads: np.ndarray, params: CostParams) -> float:
    return float(penalized_values(loads, params).sum())


def penalized_cost(
    pi: np.ndarray, lam: np.ndarray, topology: Topology, params: CostParams
) -> float:
    """Penalized objective V(pi, lam), finite for every feasible policy."""
    return penalized_cost_from_loads(ap_load(pi, lam, topology), params)


def grad_from_loads(
    loads: np.ndarray, lam: np.ndarray, topology: Topology, params: CostParams
) -> np.ndarray:
    """Gradient of V given precomputed loads; zero outside the link support.

    loads (..., n_aps) and lam (..., n_locations) may carry the same leading
    axes, giving one gradient per leading index.
    """
    scale = load_slope(loads, params)
    return (scale[..., None] * topology.inverse_rate) * np.asarray(lam, dtype=float)[..., None, :]


def grad_penalized_cost(
    pi: np.ndarray, lam: np.ndarray, topology: Topology, params: CostParams
) -> np.ndarray:
    """d V / d pi_ji = slope_j * lam_i / service_rate_ji on links, else 0."""
    return grad_from_loads(ap_load(pi, lam, topology), lam, topology, params)


def lipschitz_bound(topology: Topology, lambda_max: float, params: CostParams) -> float:
    """Upper bound on the sup-norm of grad V over all demands <= lambda_max.

    max(1, psi) * (1-rho0)^(-alpha) * lambda_max * max_links 1/service_rate.
    """
    if lambda_max < 0:
        raise ValueError("lambda_max must be non-negative")
    slope_cap = max(1.0, params.psi) * params.threshold_slope
    return float(slope_cap * lambda_max * topology.inverse_rate.max())

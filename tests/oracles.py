"""Independent reference computations used by unit and acceptance tests.

These deliberately re-derive objective values from scratch (scalar
formulas, exhaustive grids) so the code paths under test are never their
own oracle.
"""

import numpy as np


def reference_penalized_values(loads, alpha, rho0, psi):
    """Elementwise penalized cost, written independently of the library."""
    loads = np.asarray(loads, dtype=float)
    inside = loads <= rho0
    out = np.empty_like(loads)
    if alpha == 1:
        out[inside] = -np.log(1.0 - loads[inside])
        at_threshold = -np.log(1.0 - rho0)
    else:
        out[inside] = (1.0 - loads[inside]) ** (1.0 - alpha) / (alpha - 1.0)
        at_threshold = (1.0 - rho0) ** (1.0 - alpha) / (alpha - 1.0)
    slope = psi * (1.0 - rho0) ** (-alpha)
    out[~inside] = at_threshold + slope * (loads[~inside] - rho0)
    return out


def grid_min_window_objective(service_rate, demands, alpha, rho0, psi, step=1e-3):
    """Brute-force minimum of the window objective over the simplex product.

    Supports two APs and one or two locations, every location served by
    both APs. Returns the best objective found on a grid with the given
    resolution in each location's split fraction.
    """
    n_aps, n_locations = service_rate.shape
    assert n_aps == 2 and n_locations in (1, 2)
    assert (service_rate > 0).all()
    demands = np.atleast_2d(demands)
    fractions = np.arange(0.0, 1.0 + step / 2, step)

    if n_locations == 1:
        objective = np.zeros_like(fractions)
        for t in range(demands.shape[0]):
            lam = demands[t, 0]
            load0 = lam * fractions / service_rate[0, 0]
            load1 = lam * (1.0 - fractions) / service_rate[1, 0]
            objective += reference_penalized_values(load0, alpha, rho0, psi)
            objective += reference_penalized_values(load1, alpha, rho0, psi)
        return float(objective.min())

    x = fractions[:, None]
    y = fractions[None, :]
    objective = np.zeros((fractions.size, fractions.size))
    for t in range(demands.shape[0]):
        lam0, lam1 = demands[t]
        load0 = lam0 * x / service_rate[0, 0] + lam1 * y / service_rate[0, 1]
        load1 = lam0 * (1.0 - x) / service_rate[1, 0] + lam1 * (1.0 - y) / service_rate[1, 1]
        objective += reference_penalized_values(load0, alpha, rho0, psi)
        objective += reference_penalized_values(load1, alpha, rho0, psi)
    return float(objective.min())


def reference_frank_wolfe_gap(pi, service_rate, demands, alpha, rho0, psi):
    """Frank-Wolfe gap of a window policy, from scalar loops.

    gap = sum_ji grad_ji * pi_ji - sum_i min_{j serving i} grad_ji, where
    grad_ji sums slope_j(t) * demand_ti / service_rate_ji over the window's
    slots and slope is the derivative of the penalized per-AP cost. For a
    convex objective the gap bounds the policy's distance from the optimum.
    """
    n_aps, n_locations = service_rate.shape
    demands = np.atleast_2d(demands)
    grad = np.zeros((n_aps, n_locations))
    for lam in demands:
        for j in range(n_aps):
            load = sum(
                lam[i] * pi[j, i] / service_rate[j, i]
                for i in range(n_locations)
                if service_rate[j, i] > 0
            )
            slope = (1.0 - load) ** (-alpha) if load <= rho0 else psi * (1.0 - rho0) ** (-alpha)
            for i in range(n_locations):
                if service_rate[j, i] > 0:
                    grad[j, i] += slope * lam[i] / service_rate[j, i]
    gap = 0.0
    for i in range(n_locations):
        serving = [j for j in range(n_aps) if service_rate[j, i] > 0]
        gap += sum(grad[j, i] * pi[j, i] for j in serving) - min(grad[j, i] for j in serving)
    return gap

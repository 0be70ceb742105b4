import numpy as np
import pytest

from assoclearn import Topology, TrafficTrace, solve_static


def make_random_topology(rng, n_locations, n_aps, link_prob=0.7, rate_low=0.5, rate_high=4.0):
    """Random topology where every location keeps at least one serving AP."""
    support = rng.random((n_aps, n_locations)) < link_prob
    for i in range(n_locations):
        if not support[:, i].any():
            support[rng.integers(n_aps), i] = True
    rates = np.where(support, rng.uniform(rate_low, rate_high, (n_aps, n_locations)), 0.0)
    return Topology(service_rate=rates)


def make_random_policy(rng, topology):
    """Feasible policy: Dirichlet weights on each location's neighbor set."""
    pi = np.zeros((topology.n_aps, topology.n_locations))
    for i in range(topology.n_locations):
        neighbors = np.flatnonzero(topology.support[:, i])
        pi[neighbors, i] = rng.dirichlet(np.ones(neighbors.size))
    return pi


def window_solution(topology, trace, window_slots, params, solver=None):
    """(policy, objective, diagnostics) of the static benchmark on the 1-based slots."""
    slots = np.asarray(window_slots, dtype=int)
    solution = solve_static(topology, TrafficTrace(trace.demand[slots - 1]), params, solver)
    return solution.zone_policies[0], solution.zone_objectives[0], solution.diagnostics[0]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def two_ap_topology():
    # One location served by both APs, one served only by the second.
    return Topology(service_rate=np.array([[2.0, 0.0], [1.0, 4.0]]))

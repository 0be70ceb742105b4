"""Quick tests of the benchmark's reference code: python3 -m pytest -q bench/test_reference.py"""

import math

import numpy as np

import reference as ref


def test_single_ap_rate_is_plain_shannon():
    rate = ref.service_rates([[0.0, 0.0]], [30.0], [[10.0, 0.0]], bandwidth_hz=1e6, noise_dbm_per_hz=-174.0)
    snr = 1.0 * 10.0**-3.0 / (1e6 * 10.0 ** ((-174.0 - 30.0) / 10.0))
    assert math.isclose(rate[0, 0], 1e6 * math.log2(1.0 + snr), rel_tol=1e-12)


def test_interference_threshold_and_orphan_relaxation():
    aps, locations = [[0.0, 0.0], [100.0, 0.0]], [[10.0, 0.0], [50.0, 0.0]]
    full = ref.service_rates(aps, [30.0, 30.0], locations)
    # the midpoint sees the same signal and interference from both APs
    assert math.isclose(full[0, 1], full[1, 1], rel_tol=1e-12)
    assert full[0, 0] > full[1, 0]
    pruned = ref.service_rates(aps, [30.0, 30.0], locations, rate_threshold_bps=1e12, omega=2.0)
    # nothing passes the threshold, so each location keeps its best link only
    assert (pruned > 0).sum(axis=0).tolist() == [1, 1]
    assert pruned[0, 0] == 2.0 * full[0, 0] and pruned[1, 0] == 0.0


def test_synthetic_demand_without_noise_is_the_daily_profile():
    demand = ref.synthetic_demand(3, 48, 7, slots_per_day=24, sigma=0.0, amplitude=0.5)
    assert demand.shape == (48, 3) and np.all(demand >= 0)
    assert np.allclose(demand[:24], demand[24:])
    ratio = demand / demand[0]
    assert np.allclose(ratio[:, 0], 1.0 + 0.5 * np.sin(2 * np.pi * np.arange(48) / 24))
    assert np.array_equal(ref.synthetic_demand(3, 48, 7, slots_per_day=24), ref.synthetic_demand(3, 48, 7, slots_per_day=24))


def test_cost_slopes_are_derivatives_and_the_extension_is_tangent():
    loads = np.array([0.0, 0.3, 0.79, 0.81, 1.5, 3.0])
    for alpha in (0.0, 0.5, 1.0, 2.0, 3.5):
        cost = ref.Cost(alpha, rho0=0.8)
        h = 1e-6
        numeric = (cost.values(loads + h) - cost.values(loads - h)) / (2 * h)
        assert np.allclose(cost.slopes(loads), numeric, rtol=1e-5)
        assert math.isclose(cost.values(0.8 - 1e-9).item(), cost.values(0.8 + 1e-9).item(), abs_tol=1e-6)
    assert np.allclose(ref.Cost(0.0).values(loads), loads - 1.0)
    assert np.allclose(ref.Cost(1.0, 0.9).values([0.5]), -np.log(0.5))


def _random_policy(rng, support):
    pi = np.where(support, rng.random(support.shape), 0.0)
    return pi / pi.sum(axis=0)


def test_frank_wolfe_gap_bounds_suboptimality_of_a_linear_window():
    rng = np.random.default_rng(3)
    service = np.where(rng.random((4, 9)) < 0.7, rng.uniform(0.5, 4.0, (4, 9)), 0.0)
    service[0, (service > 0).sum(axis=0) == 0] = 1.0
    demands = rng.uniform(0.1, 1.0, (30, 9))
    cost = ref.Cost(0.0)
    # at alpha = 0 the optimum sends every location to its fastest AP
    best = np.zeros_like(service)
    best[service.argmax(axis=0), np.arange(9)] = 1.0
    f_best, gap_best = ref.window_certificate(best, demands, service, cost)
    assert abs(gap_best) < 1e-12
    for _ in range(20):
        pi = _random_policy(rng, service > 0)
        f, gap = ref.window_certificate(pi, demands, service, cost)
        assert gap >= f - f_best - 1e-9
    for alpha in (1.0, 2.0):
        pi = _random_policy(rng, service > 0)
        assert ref.window_certificate(pi, demands * 0.05, service, ref.Cost(alpha, 0.8))[1] >= 0.0


def test_eg_replay_by_hand():
    service = np.array([[2.0, 0.0], [1.0, 4.0]])
    demand = np.array([[1.0, 1.0], [0.5, 2.0], [1.0, 0.5], [0.2, 0.2]])
    cost = ref.Cost(2.0, rho0=0.8)
    costs, loads, last = ref.eg_replay(service, demand, zones=2, slots_per_zone=1, cost=cost, eta=0.7)
    uniform = np.array([[0.5, 0.0], [0.5, 1.0]])
    inv = np.array([[0.5, 0.0], [1.0, 0.25]])
    # slots 0 and 1 open zones 0 and 1 with the uniform split
    assert np.allclose(loads[0], (uniform * inv) @ demand[0])
    assert np.allclose(loads[1], (uniform * inv) @ demand[1])
    # slot 2 continues zone 0 from slot 0
    grad = cost.slopes(loads[0])[:, None] * inv * demand[0][None, :]
    w = uniform * np.exp(-0.7 * grad)
    pi = w / w.sum(axis=0)
    assert np.allclose(loads[2], (pi * inv) @ demand[2])
    assert math.isclose(costs[2], cost.values(loads[2]).sum())
    assert set(last) == {0, 1} and np.allclose(last[0], pi)
    assert ref.column_stochastic_on(pi, service > 0)
    assert not ref.column_stochastic_on(np.array([[0.5, 0.1], [0.5, 0.9]]), service > 0)

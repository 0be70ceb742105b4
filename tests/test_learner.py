import numpy as np
import pytest

from assoclearn import (
    CostParams,
    LearnerConfig,
    Topology,
    TrafficTrace,
    build_partition,
    egd_step,
    entropy_regularizer,
    grad_penalized_cost,
    init_uniform,
    mirror_map,
    penalized_cost_from_loads,
    run_online,
    validate_policy,
    window_of,
)
from assoclearn.cost import grad_from_loads, load_slope
from assoclearn.learner import STACK_ENTRIES
from conftest import make_random_policy, make_random_topology


class TestInitUniform:
    def test_two_neighbors(self, two_ap_topology):
        pi = init_uniform(two_ap_topology)
        np.testing.assert_allclose(pi[:, 0], [0.5, 0.5])

    def test_single_neighbor(self, two_ap_topology):
        pi = init_uniform(two_ap_topology)
        np.testing.assert_array_equal(pi[:, 1], [0.0, 1.0])

    def test_three_neighbors_column_sums(self):
        topo = Topology(service_rate=np.ones((3, 2)))
        pi = init_uniform(topo)
        np.testing.assert_allclose(pi, np.full((3, 2), 1 / 3))
        np.testing.assert_allclose(pi.sum(axis=0), [1.0, 1.0])


class TestEgdStep:
    def test_constant_gradient_is_identity(self, rng):
        topo = make_random_topology(rng, 4, 3)
        pi = make_random_policy(rng, topo)
        grad = np.where(topo.support, rng.uniform(-2, 2, 4)[None, :], 0.0)
        np.testing.assert_allclose(egd_step(pi, grad, 0.7), pi, rtol=0, atol=1e-15)

    def test_hand_example(self):
        pi = np.array([[0.5], [0.5]])
        grad = np.array([[1.0], [0.0]])
        np.testing.assert_allclose(
            egd_step(pi, grad, np.log(2)).ravel(), [1 / 3, 2 / 3]
        )

    def test_zero_step_is_identity(self, rng):
        topo = make_random_topology(rng, 3, 3)
        pi = make_random_policy(rng, topo)
        grad = rng.normal(size=pi.shape) * topo.support
        np.testing.assert_allclose(egd_step(pi, grad, 0.0), pi, rtol=0, atol=1e-15)

    def test_preserves_simplex_and_support(self, rng):
        topo = make_random_topology(rng, 6, 4)
        pi = make_random_policy(rng, topo)
        for _ in range(50):
            grad = rng.normal(scale=3.0, size=pi.shape) * topo.support
            pi = egd_step(pi, grad, 0.3)
            np.testing.assert_allclose(pi.sum(axis=0), np.ones(6), atol=1e-9)
            assert ((pi > 0) == topo.support).all()

    def test_stack_matches_per_policy_calls(self, rng):
        topo = make_random_topology(rng, 5, 3)
        pis = np.stack([make_random_policy(rng, topo) for _ in range(4)])
        grads = rng.normal(scale=2.0, size=pis.shape) * topo.support
        steps = rng.uniform(0.1, 2.0, 4)
        stacked = egd_step(pis, grads, steps[:, None, None])
        for k in range(4):
            np.testing.assert_array_equal(stacked[k], egd_step(pis[k], grads[k], steps[k]))

    def test_huge_gradients_stay_finite(self):
        pi = np.array([[0.5], [0.5]])
        grad = np.array([[1e6], [-1e6]])
        out = egd_step(pi, grad, 1.0)
        assert np.isfinite(out).all()
        np.testing.assert_allclose(out.sum(), 1.0)


class TestEntropy:
    def test_deterministic_policy_is_zero(self, two_ap_topology):
        pi = np.array([[1.0, 0.0], [0.0, 1.0]])
        assert entropy_regularizer(pi) == 0.0

    def test_even_pair(self):
        pi = np.array([[0.5], [0.5]])
        assert entropy_regularizer(pi) == pytest.approx(-np.log(2))

    def test_uniform_identity(self, rng):
        # h(uniform) = -sum_j sum_{i in N_j} log(|N^i|) / |N^i|, exactly
        for _ in range(10):
            topo = make_random_topology(rng, int(rng.integers(1, 7)), int(rng.integers(1, 6)))
            sizes = np.array([len(n) for n in topo.neighbors_of_location], dtype=float)
            expected = -sum(
                np.log(sizes[i]) / sizes[i]
                for j in range(topo.n_aps)
                for i in topo.neighbors_of_ap[j]
            )
            assert entropy_regularizer(init_uniform(topo)) == pytest.approx(expected, abs=1e-12)

    def test_nonpositive_on_random_policies(self, rng):
        topo = make_random_topology(rng, 5, 4)
        for _ in range(100):
            assert entropy_regularizer(make_random_policy(rng, topo)) <= 0.0


class TestMirrorMap:
    def test_uniform_at_zero(self, rng):
        topo = make_random_topology(rng, 4, 3)
        np.testing.assert_allclose(
            mirror_map(topo, np.zeros((3, 4)), 0.5), init_uniform(topo)
        )

    def test_minimizes_regularized_linear_objective(self, rng):
        # closed form must beat random feasible candidates
        topo = make_random_topology(rng, 4, 3)
        for _ in range(10):
            theta = rng.normal(scale=2.0, size=(3, 4)) * topo.support
            eta = float(rng.uniform(0.1, 2.0))
            best = mirror_map(topo, theta, eta)
            value = entropy_regularizer(best) - eta * float(np.sum(theta * best))
            for _ in range(200):
                candidate = make_random_policy(rng, topo)
                other = entropy_regularizer(candidate) - eta * float(np.sum(theta * candidate))
                assert value <= other + 1e-9

    def test_matches_sequential_updates_from_uniform(self, rng):
        # folding the gradient history into one mirror step is the same map
        topo = make_random_topology(rng, 5, 4)
        eta = 0.4
        pi = init_uniform(topo)
        theta = np.zeros_like(pi)
        for _ in range(3):
            grad = rng.normal(size=pi.shape) * topo.support
            pi = egd_step(pi, grad, eta)
            theta -= grad
            np.testing.assert_allclose(pi, mirror_map(topo, theta, eta), atol=1e-9)


class TestStrongConvexity:
    @pytest.mark.parametrize("dim", [2, 3, 4, 5, 6])
    def test_pinsker_form(self, dim, rng):
        def entropy(p):
            return float(np.sum(p * np.log(p)))

        for _ in range(200):
            p = rng.dirichlet(np.ones(dim))
            q = rng.dirichlet(np.ones(dim))
            lhs = entropy(q)
            rhs = (
                entropy(p)
                + float(np.dot(np.log(p) + 1.0, q - p))
                + 0.5 * float(np.abs(q - p).sum()) ** 2
            )
            assert lhs >= rhs - 1e-9


def toy_trace(values):
    return TrafficTrace(demand=np.asarray(values, dtype=float))


class TestRunOnline:
    def test_window_openers_play_uniform(self, rng):
        topo = make_random_topology(rng, 3, 3)
        trace = toy_trace(rng.uniform(0, 1, (12, 3)))
        partition = build_partition(12, 2, 2)
        params = CostParams(alpha=0)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=0.5, keep_policies=True))
        uniform = init_uniform(topo)
        for t in range(1, 13):
            _, _, first = window_of(partition, t)
            if first:
                np.testing.assert_array_equal(run.policies[t - 1], uniform)

    def test_single_zone_is_plain_sequential_descent(self, rng):
        topo = make_random_topology(rng, 3, 2)
        trace = toy_trace(rng.uniform(0, 1, (6, 3)))
        partition = build_partition(6, 1, 6)
        params = CostParams(alpha=2, rho0=0.9)
        eta = 0.3
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=eta, keep_policies=True))
        pi = init_uniform(topo)
        for t in range(1, 7):
            np.testing.assert_allclose(run.policies[t - 1], pi, atol=1e-12)
            grad = grad_penalized_cost(pi, trace.demand[t - 1], topo, params)
            pi = egd_step(pi, grad, eta)

    def test_two_slot_hand_execution(self):
        topo = Topology(service_rate=np.array([[1.0], [2.0]]))
        trace = toy_trace([[1.0], [1.0]])
        partition = build_partition(2, 1, 2)
        params = CostParams(alpha=0)
        eta = 0.5
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=eta, keep_policies=True))
        np.testing.assert_allclose(run.policies[0].ravel(), [0.5, 0.5])
        # gradient at slot 1 is (1/1, 1/2); slot 2 reweights accordingly
        weights = 0.5 * np.exp(-eta * np.array([1.0, 0.5]))
        np.testing.assert_allclose(run.policies[1].ravel(), weights / weights.sum())

    def test_threads_restart_once_per_window(self, rng):
        # the opener of every window is the only uniform play of its zone
        topo = make_random_topology(rng, 2, 2)
        trace = toy_trace(rng.uniform(0.5, 1.0, (18, 2)))
        partition = build_partition(18, 2, 3)
        run = run_online(
            topo, trace, partition, CostParams(alpha=0), LearnerConfig(eta=1.0, keep_policies=True)
        )
        uniform = init_uniform(topo)
        openers = [t for t in range(1, 19) if window_of(partition, t)[2]]
        assert openers == [1, 4]
        later = [t for t in range(1, 19) if t not in openers]
        assert all(not np.array_equal(run.policies[t - 1], uniform) for t in later)

    def test_log_consistency(self, rng):
        topo = make_random_topology(rng, 3, 3)
        trace = toy_trace(rng.uniform(0, 2, (8, 3)))
        partition = build_partition(8, 2, 2)
        params = CostParams(alpha=1, rho0=0.5)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=0.2))
        log = run.log
        assert log.horizon == 8
        np.testing.assert_array_equal(log.violations, log.loads > params.rho0)
        np.testing.assert_array_equal(
            log.zones, [window_of(partition, t)[0] for t in range(1, 9)]
        )
        assert log.support_loss_events == 0

    def test_policies_stay_feasible(self, rng):
        topo = make_random_topology(rng, 5, 4)
        trace = toy_trace(rng.uniform(0, 2, (20, 5)))
        partition = build_partition(20, 2, 5)
        run = run_online(
            topo, trace, partition, CostParams(alpha=0), LearnerConfig(eta=0.8, keep_policies=True)
        )
        for pi in run.policies:
            validate_policy(pi, topo)
            assert ((pi > 0) == topo.support).all()

    def test_horizon_mismatch_rejected(self, rng):
        topo = make_random_topology(rng, 2, 2)
        trace = toy_trace(rng.uniform(0, 1, (6, 2)))
        partition = build_partition(8, 2, 2)
        with pytest.raises(ValueError):
            run_online(topo, trace, partition, CostParams(alpha=0), LearnerConfig(eta=0.1))

    def test_lockstep_blocks_match_per_slot_loop(self, rng):
        # n_aps * n_locations = 18,000 > 2**16 / 4 zones: threads advance in
        # blocks of 3 and 1, and must replay the per-slot scheme bit for bit
        topo = make_random_topology(rng, 6000, 3, link_prob=0.5, rate_low=0.05, rate_high=4.0)
        periods, zones, width = 2, 4, 3
        horizon = periods * zones * width
        trace = toy_trace(rng.uniform(0.0, 1e-3, (horizon, 6000)))
        partition = build_partition(horizon, zones, width)
        params = CostParams(alpha=2, rho0=0.9)  # AP loads lie on both sides of rho0
        eta = 1e4  # large enough for some policy entries to underflow
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=eta, keep_policies=True))

        inverse_rate = topo.inverse_rate
        state = {}
        losses = 0
        for t in range(horizon):
            zone = (t // width) % zones
            if zone not in state:  # the window's first slot
                pi = init_uniform(topo)
            else:
                previous, grad = state[zone]
                pi = egd_step(previous, grad, eta)
                losses += int(np.count_nonzero((previous > 0) & (pi == 0)))
            lam = trace.demand[t]
            loads = (pi * inverse_rate) @ lam
            np.testing.assert_array_equal(run.policies[t], pi)
            np.testing.assert_array_equal(run.log.loads[t], loads)
            assert run.log.costs[t] == penalized_cost_from_loads(loads, params)
            assert run.log.zones[t] == zone + 1
            state[zone] = pi, grad_from_loads(loads, lam, topo, params)
        assert run.log.support_loss_events == losses > 0
        for zone in range(zones):
            np.testing.assert_array_equal(run.zone_policies[zone], state[zone][0])

    def test_compact_layout_matches_dense_eg_loop(self, rng):
        # irregular degrees: location 0 hears every AP (no padding), locations
        # 1-49 hear one AP, the rest a random subset
        n_aps, n_locations = 4, 6000
        support = rng.random((n_aps, n_locations)) < 0.4
        support[:, 0] = True
        support[:, 1:50] = False
        support[rng.integers(n_aps, size=49), np.arange(1, 50)] = True
        orphans = np.flatnonzero(~support.any(axis=0))
        support[rng.integers(n_aps, size=orphans.size), orphans] = True
        rate = np.where(support, rng.uniform(0.05, 4.0, support.shape), 0.0)
        topo = Topology(service_rate=rate)
        periods, zones, width = 2, 3, 3
        assert STACK_ENTRIES // topo.neighbor_table.size < zones  # more than one block
        horizon = periods * zones * width
        trace = toy_trace(rng.uniform(0.0, 1e-3, (horizon, n_locations)))
        partition = build_partition(horizon, zones, width)
        params = CostParams(alpha=2, rho0=0.9)
        eta = 1e4
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=eta, keep_policies=True))

        # slot by slot on dense (n_aps, n_locations) arrays
        inverse_rate = np.where(support, 1.0 / np.where(support, rate, 1.0), 0.0)
        state = {}
        losses = 0
        for t in range(horizon):
            zone = (t // width) % zones
            if zone not in state:
                pi = support / support.sum(axis=0)
            else:
                previous, grad = state[zone]
                live = previous > 0
                exponent = np.where(live, -eta * grad, -np.inf)
                weights = previous * np.exp(np.where(live, exponent - exponent.max(axis=0), 0.0))
                pi = weights / weights.sum(axis=0)
                losses += int((live & (pi == 0)).sum())
            lam = trace.demand[t]
            loads = (pi * inverse_rate) @ lam
            np.testing.assert_array_equal(run.policies[t], pi)
            np.testing.assert_array_equal(run.log.loads[t], loads)
            assert run.log.costs[t] == penalized_cost_from_loads(loads, params)
            state[zone] = pi, (load_slope(loads, params)[:, None] * inverse_rate) * lam
        assert run.log.support_loss_events == losses > 0
        assert type(run.log.support_loss_events) is int
        for zone in range(zones):
            np.testing.assert_array_equal(run.zone_policies[zone], state[zone][0])

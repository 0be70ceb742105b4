import numpy as np
import pytest

from assoclearn import (
    CostParams,
    LearnerConfig,
    Topology,
    TrafficTrace,
    build_partition,
    column_softmax,
    entropy_regularizer,
    grad_penalized_cost,
    init_uniform,
    mirror_map,
    penalized_cost_from_loads,
    run_online,
    solve_periodic_static,
    validate_policy,
)
from assoclearn.cost import grad_from_loads, load_slope
from assoclearn.learner import STACK_ENTRIES, UNDERFLOW, run_online_stack
from assoclearn.metrics import replay_benchmark
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


def log_policy(pi):
    """Entrywise log of a policy, -inf where it is 0."""
    with np.errstate(divide="ignore"):
        return np.log(pi)


class TestEgdStep:
    """An exponentiated-gradient step from pi along g is column_softmax(log(pi) - eta * g)."""

    def test_constant_gradient_is_identity(self, rng):
        topo = make_random_topology(rng, 4, 3)
        pi = make_random_policy(rng, topo)
        shift = rng.uniform(-2, 2, 4)
        grad = np.where(topo.support, shift[None, :], 0.0)
        out, log_norm = column_softmax(log_policy(pi) - 0.7 * grad)
        np.testing.assert_allclose(out, pi, rtol=0, atol=1e-15)
        np.testing.assert_allclose(log_norm.ravel(), -0.7 * shift, rtol=0, atol=1e-14)

    def test_hand_example(self):
        pi = np.array([[0.5], [0.5]])
        grad = np.array([[1.0], [0.0]])
        out, log_norm = column_softmax(np.log(pi) - np.log(2) * grad)
        np.testing.assert_allclose(out.ravel(), [1 / 3, 2 / 3])
        # normalizer 0.5 * exp(-log 2) + 0.5 * exp(0) = 3/4
        np.testing.assert_allclose(log_norm.ravel(), [np.log(0.75)])

    def test_zero_step_is_identity(self, rng):
        topo = make_random_topology(rng, 3, 3)
        pi = make_random_policy(rng, topo)
        grad = rng.normal(size=pi.shape) * topo.support
        out, log_norm = column_softmax(log_policy(pi) - 0.0 * grad)
        np.testing.assert_allclose(out, pi, rtol=0, atol=1e-15)
        np.testing.assert_allclose(log_norm, 0.0, rtol=0, atol=1e-15)

    def test_preserves_simplex_and_support(self, rng):
        topo = make_random_topology(rng, 6, 4)
        theta = log_policy(make_random_policy(rng, topo))
        for _ in range(50):
            grad = rng.normal(scale=3.0, size=theta.shape) * topo.support
            pi, log_norm = column_softmax(theta - 0.3 * grad)
            theta = theta - 0.3 * grad - log_norm
            np.testing.assert_allclose(pi.sum(axis=0), np.ones(6), atol=1e-9)
            assert ((pi > 0) == topo.support).all()
            assert (np.isfinite(theta) == topo.support).all()

    def test_stack_matches_per_policy_calls(self, rng):
        topo = make_random_topology(rng, 5, 3)
        pis = np.stack([make_random_policy(rng, topo) for _ in range(4)])
        grads = rng.normal(scale=2.0, size=pis.shape) * topo.support
        steps = rng.uniform(0.1, 2.0, 4)
        thetas = log_policy(pis) - steps[:, None, None] * grads
        stacked, log_norms = column_softmax(thetas)
        assert stacked.shape == pis.shape and log_norms.shape == (4, 1, 5)
        for k in range(4):
            out, log_norm = column_softmax(thetas[k])
            np.testing.assert_array_equal(stacked[k], out)
            np.testing.assert_array_equal(log_norms[k], log_norm)

    def test_far_below_the_column_maximum_plays_zero(self):
        theta = np.array([[0.0], [UNDERFLOW + 1.0], [UNDERFLOW - 1.0], [-np.inf]])
        out, log_norm = column_softmax(theta + 5.0)
        total = 1.0 + np.exp(UNDERFLOW + 1.0)
        np.testing.assert_array_equal(out.ravel(), [1.0 / total, np.exp(UNDERFLOW + 1.0) / total, 0.0, 0.0])
        np.testing.assert_allclose(log_norm.ravel(), [5.0 + np.log(total)], rtol=1e-15)

    def test_huge_gradients_stay_finite(self):
        theta = np.log(np.array([[0.5], [0.5]]))
        grad = np.array([[1e6], [-1e6]])
        out, log_norm = column_softmax(theta - grad)
        assert np.isfinite(out).all() and np.isfinite(log_norm).all()
        np.testing.assert_allclose(out.sum(), 1.0)
        # the first entry plays exactly 0, but its log-weight stays finite, so
        # an opposite gradient of the same size brings the split back
        assert out[0, 0] == 0.0
        theta = theta - grad - log_norm
        assert np.isfinite(theta).all()
        out, _ = column_softmax(theta + grad)
        np.testing.assert_allclose(out.ravel(), [0.5, 0.5])


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
            sizes = topo.support.sum(axis=0).astype(float)
            expected = -sum(
                np.log(sizes[i]) / sizes[i]
                for j in range(topo.n_aps)
                for i in np.flatnonzero(topo.support[j])
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
        log_pi = log_policy(init_uniform(topo))
        theta = np.zeros_like(log_pi)
        for _ in range(20):
            grad = rng.normal(size=log_pi.shape) * topo.support
            pi, log_norm = column_softmax(log_pi - eta * grad)
            log_pi = log_pi - eta * grad - log_norm
            theta -= grad
            np.testing.assert_allclose(pi, mirror_map(topo, theta, eta), rtol=0, atol=1e-12)


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
        openers = 0
        for t in range(1, 13):
            period, offset = divmod(t - 1, 4)
            rank = period * 2 + offset % 2 + 1
            if rank == 1:
                np.testing.assert_array_equal(run.policies[t - 1], uniform)
                openers += 1
        assert openers == 2

    def test_single_zone_is_plain_sequential_descent(self, rng):
        topo = make_random_topology(rng, 3, 2)
        trace = toy_trace(rng.uniform(0, 1, (6, 3)))
        partition = build_partition(6, 1, 6)
        params = CostParams(alpha=2, rho0=0.9)
        eta = 0.3
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=eta, keep_policies=True))
        theta = np.zeros(topo.support.shape)  # minus the summed gradients of the played policies
        for t in range(1, 7):
            pi = run.policies[t - 1]
            np.testing.assert_allclose(pi, mirror_map(topo, theta, eta), rtol=0, atol=1e-12)
            theta -= grad_penalized_cost(pi, trace.demand[t - 1], topo, params)

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
        openers = [int(window[0]) for window in partition.windows()]
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
        np.testing.assert_array_equal(log.zones, [(t - 1) // 2 % 2 + 1 for t in range(1, 9)])
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

    @pytest.mark.parametrize("stage", ["run_online", "solve_periodic_static", "replay_benchmark"])
    def test_horizon_mismatch_rejected(self, rng, stage):
        # every stage reads the trace through the partition's calendar
        topo = make_random_topology(rng, 2, 2)
        trace = toy_trace(rng.uniform(0, 1, (6, 2)))
        partition = build_partition(8, 2, 2)
        params = CostParams(alpha=0)
        fitted = toy_trace(rng.uniform(0, 1, (8, 2)))
        calls = {
            "run_online": lambda: run_online(topo, trace, partition, params, LearnerConfig(eta=0.1)),
            "solve_periodic_static": lambda: solve_periodic_static(topo, trace, partition, params),
            "replay_benchmark": lambda: replay_benchmark(
                solve_periodic_static(topo, fitted, partition, params), trace, partition, topo, params
            ),
        }
        with pytest.raises(ValueError, match="partition horizon 8 != series length 6"):
            calls[stage]()

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

        # slot by slot, one dense (n_aps, n_locations) log-policy per zone
        inverse_rate = topo.inverse_rate
        state = {}
        underflows = 0
        for t in range(horizon):
            zone = (t // width) % zones
            if zone not in state:  # the window's first slot
                theta = np.where(topo.support, 0.0, -np.inf)
            else:
                log_pi, grad, _ = state[zone]
                theta = log_pi - eta * grad
            pi, log_norm = column_softmax(theta)
            log_pi = theta - log_norm
            assert (np.isfinite(log_pi) == topo.support).all()  # no AP is lost for good
            underflows += int(np.count_nonzero(topo.support & (pi == 0)))
            lam = trace.demand[t]
            loads = (pi * inverse_rate) @ lam
            np.testing.assert_array_equal(run.policies[t], pi)
            np.testing.assert_array_equal(run.log.loads[t], loads)
            assert run.log.costs[t] == penalized_cost_from_loads(loads, params)
            assert run.log.zones[t] == zone + 1
            state[zone] = log_pi, grad_from_loads(loads, lam, topo, params), pi
        assert underflows > 0
        losses = 0
        for zone in range(zones):
            final = state[zone][2]
            np.testing.assert_array_equal(run.zone_policies[zone], final)
            losses += int(np.count_nonzero(topo.support & (final == 0)))
        assert run.log.support_loss_events == losses > 0

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

        # slot by slot on dense (n_aps, n_locations) log-policies, -inf off the links
        inverse_rate = np.where(support, 1.0 / np.where(support, rate, 1.0), 0.0)
        state = {}
        for t in range(horizon):
            zone = (t // width) % zones
            if zone not in state:
                theta = np.where(support, 0.0, -np.inf)
            else:
                log_pi, grad, _ = state[zone]
                theta = log_pi - eta * grad
            shift = theta.max(axis=0, keepdims=True)
            exponent = theta - shift
            weights = np.where(exponent > UNDERFLOW, np.exp(np.maximum(exponent, UNDERFLOW)), 0.0)
            totals = weights.sum(axis=0, keepdims=True)
            pi = weights / totals
            log_pi = theta - (shift + np.log(totals))
            lam = trace.demand[t]
            loads = (pi * inverse_rate) @ lam
            np.testing.assert_array_equal(run.policies[t], pi)
            np.testing.assert_array_equal(run.log.loads[t], loads)
            assert run.log.costs[t] == penalized_cost_from_loads(loads, params)
            state[zone] = log_pi, (load_slope(loads, params)[:, None] * inverse_rate) * lam, pi
        losses = sum(int((support & (state[zone][2] == 0)).sum()) for zone in range(zones))
        assert run.log.support_loss_events == losses > 0
        assert type(run.log.support_loss_events) is int
        for zone in range(zones):
            np.testing.assert_array_equal(run.zone_policies[zone], state[zone][2])

    def test_underflowed_ap_is_played_again(self):
        # location 0 hears AP 0 only, location 1 both APs. At slot 1 location 0
        # overloads AP 0 (slope 3 against 1), and eta * (3 - 1) * 0.5 = 1000
        # puts location 1's AP 0 entry at exp(-1000), exactly 0 in floats. At
        # slot 2 location 1 overloads AP 1 alone, and the step favours AP 0 by
        # 1600, so slot 3 of the same window plays AP 0 again.
        topo = Topology(service_rate=np.array([[1.0, 1.0], [0.0, 1.0]]))
        trace = toy_trace([[0.9, 0.5], [0.0, 0.8], [0.0, 0.8]])
        params = CostParams(alpha=0, rho0=0.5, psi=3.0)
        run = run_online(
            topo, trace, build_partition(3, 1, 3), params, LearnerConfig(eta=1000.0, keep_policies=True)
        )
        played = run.policies[:, 0, 1]  # AP 0's share of location 1, slot by slot
        assert played[0] == 0.5 and played[1] == 0.0
        assert played[2] > 0.5
        assert run.log.support_loss_events == 0


class TestRunOnlineStack:
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_members_match_their_single_runs(self, rng, alpha):
        # 4 members of 3 * 6000 compact entries overflow STACK_ENTRIES, so the
        # 4 zones advance in blocks of one; at alpha = 1 an array alpha would
        # change the last bit of some slopes
        topo = make_random_topology(rng, 6000, 3, link_prob=0.5, rate_low=0.05, rate_high=4.0)
        periods, zones, width = 2, 4, 3
        horizon = periods * zones * width
        trace = toy_trace(rng.uniform(0.0, 1e-3, (horizon, 6000)))
        partition = build_partition(horizon, zones, width)
        params = [CostParams(alpha=alpha, rho0=rho0, psi=psi) for rho0, psi in [(0.5, 1.0), (0.9, 2.0)] * 2]
        configs = [LearnerConfig(eta=eta, keep_policies=True) for eta in (0.3, 1.0, 50.0, 1e4)]
        assert 4 * topo.neighbor_table.size > STACK_ENTRIES
        runs = run_online_stack(topo, trace, partition, params, configs)
        assert len(runs) == 4
        for member, config, run in zip(params, configs, runs):
            single = run_online(topo, trace, partition, member, config)
            np.testing.assert_array_equal(run.log.loads, single.log.loads)
            np.testing.assert_array_equal(run.log.costs, single.log.costs)
            np.testing.assert_array_equal(run.log.zones, single.log.zones)
            np.testing.assert_array_equal(run.policies, single.policies)
            np.testing.assert_array_equal(run.zone_policies, single.zone_policies)
            assert run.log.rho0 == member.rho0
            assert run.log.support_loss_events == single.log.support_loss_events
        assert runs[-1].log.support_loss_events > 0

    def test_policies_kept_only_where_asked(self, rng):
        topo = make_random_topology(rng, 5, 2)
        trace = toy_trace(rng.uniform(0.0, 0.5, (4, 5)))
        params = [CostParams(alpha=1, rho0=0.9)] * 2
        configs = [LearnerConfig(eta=0.5), LearnerConfig(eta=0.5, keep_policies=True)]
        runs = run_online_stack(topo, trace, build_partition(4, 2, 1), params, configs)
        assert runs[0].policies is None and runs[1].policies.shape == (4, 2, 5)

    def test_step_whose_product_with_the_gradient_bound_overflows_raises(self):
        # L = 6 on unit rates under demand 6; eta * L = 6e308 would send whole
        # columns of log-weights to -inf and the played costs to NaN
        topo = Topology(service_rate=np.ones((2, 2)))
        trace = toy_trace(np.full((6, 2), 6.0))
        partition = build_partition(6, 2, 3)
        params = CostParams(alpha=0.0)
        with pytest.raises(ValueError, match=r"eta 1e\+308"):
            run_online(topo, trace, partition, params, LearnerConfig(eta=1e308))
        configs = [LearnerConfig(eta=0.5), LearnerConfig(eta=1e308)]
        with pytest.raises(ValueError, match=r"eta 1e\+308"):
            run_online_stack(topo, trace, partition, [params] * 2, configs)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=1e300))
        assert np.isfinite(run.log.costs).all()

    def test_members_must_share_alpha(self, rng):
        topo = make_random_topology(rng, 5, 2)
        trace = toy_trace(rng.uniform(0.0, 0.5, (4, 5)))
        partition = build_partition(4, 2, 1)
        params = [CostParams(alpha=1, rho0=0.9), CostParams(alpha=2, rho0=0.9)]
        with pytest.raises(ValueError, match="share alpha"):
            run_online_stack(topo, trace, partition, params, [LearnerConfig(eta=0.5)] * 2)
        with pytest.raises(ValueError, match="one config per cost"):
            run_online_stack(topo, trace, partition, params[:1], [LearnerConfig(eta=0.5)] * 2)

import numpy as np
import pytest

from assoclearn import (
    CostParams,
    LearnerConfig,
    SolverConfig,
    SyntheticProfile,
    Topology,
    TrafficTrace,
    build_partition,
    generate_synthetic,
    init_uniform,
    penalized_cost,
    run_online,
    solve_dynamic,
    solve_periodic_static,
    solve_static,
    validate_policy,
)
from assoclearn.cli import build_experiment_topology, build_experiment_trace, parse_config
from assoclearn.metrics import replay_benchmark
from conftest import make_random_topology, window_solution
from oracles import grid_min_window_objective, reference_frank_wolfe_gap
from test_acceptance import acceptance_topology
from test_cli import readme_config


def toy_trace(values):
    return TrafficTrace(demand=np.asarray(values, dtype=float))


def readme_two_days():
    """Topology and trace of the README config with a 480-slot horizon."""
    _, doc = readme_config()
    doc["traffic"]["horizon"] = 480
    config = parse_config(doc)
    topo = build_experiment_topology(config)
    return topo, build_experiment_trace(config, topo)


class TestSolveWindow:
    def test_zero_demand_returns_uniform(self, two_ap_topology):
        trace = toy_trace(np.zeros((3, 2)))
        pi, objective, diag = window_solution(
            two_ap_topology, trace, np.array([2]), CostParams(alpha=0)
        )
        np.testing.assert_array_equal(pi, init_uniform(two_ap_topology))
        assert diag.converged and diag.iterations == 0
        assert objective == pytest.approx(-2.0)  # alpha=0 value at zero load

    def test_concentrates_on_faster_ap(self):
        topo = Topology(service_rate=np.array([[1.0], [2.0]]))
        trace = toy_trace([[0.5]])
        params = CostParams(alpha=0, rho0=1.0, psi=1.0)
        pi, objective, diag = window_solution(topo, trace, np.array([1]), params)
        assert diag.converged
        assert pi[1, 0] > 0.999
        oracle = grid_min_window_objective(
            topo.service_rate, trace.demand, alpha=0, rho0=1.0, psi=1.0
        )
        assert objective == pytest.approx(oracle, abs=1e-3)

    def test_symmetric_instance_analytic_value(self):
        topo = Topology(service_rate=np.array([[2.0], [2.0]]))
        trace = toy_trace([[1.0]])
        params = CostParams(alpha=2, rho0=0.9)
        pi, objective, diag = window_solution(topo, trace, np.array([1]), params)
        assert diag.converged
        # strictly convex and symmetric: even split, value 2/(1 - 0.25)
        np.testing.assert_allclose(pi.ravel(), [0.5, 0.5], atol=1e-6)
        assert objective == pytest.approx(2 / 0.75, abs=1e-9)

    def test_against_grid_oracle_batch(self, rng):
        for _ in range(8):
            n_loc = int(rng.integers(1, 3))
            service = rng.uniform(0.8, 4.0, (2, n_loc))
            topo = Topology(service_rate=service)
            slots = int(rng.integers(1, 4))
            trace = toy_trace(rng.uniform(0.1, 0.9, (slots, n_loc)))
            alpha = float(rng.choice([0.0, 1.0, 2.0]))
            rho0 = 0.7 if alpha > 0 else 1.0
            params = CostParams(alpha=alpha, rho0=rho0, psi=1.0)
            pi, objective, _ = window_solution(
                topo, trace, np.arange(1, slots + 1), params
            )
            validate_policy(pi, topo)
            oracle = grid_min_window_objective(
                service, trace.demand, alpha=alpha, rho0=rho0, psi=1.0
            )
            assert objective == pytest.approx(oracle, abs=1e-3)

    def test_empty_window_rejected(self, two_ap_topology):
        trace = toy_trace(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            window_solution(two_ap_topology, trace, np.array([]), CostParams(alpha=0))

    def test_unconverged_reported_not_raised(self):
        topo = Topology(service_rate=np.array([[1.0], [2.0]]))
        trace = toy_trace([[0.5]])
        solver = SolverConfig(max_iterations=3, tolerance=1e-12)
        _, _, diag = window_solution(
            topo, trace, np.array([1]), CostParams(alpha=0), solver
        )
        assert not diag.converged and diag.iterations == 3

    @pytest.mark.parametrize("tolerance", [0.0, np.nan, np.inf])
    def test_tolerance_must_be_positive_and_finite(self, tolerance):
        # a NaN gap target never stops a window; an infinite one stops it unsolved
        with pytest.raises(ValueError, match="tolerance"):
            SolverConfig(tolerance=tolerance)

    def test_unbounded_step_rejected(self):
        # the overload slope 1e300 times a demand of 1e10 overflows the
        # Lipschitz bound; a zero step would leave NaN policies behind
        topo = Topology(service_rate=np.array([[1.0], [1.0]]))
        trace = toy_trace(np.full((4, 1), 1e10))
        with pytest.raises(ValueError, match="window 1: step bound"):
            window_solution(topo, trace, np.arange(1, 5), CostParams(alpha=150, rho0=0.99))

    @pytest.mark.parametrize(
        "alpha, slot", [(100.0, 175), (100.0, 389), (100.0, 455), (140.0, 142), (140.0, 403)]
    )
    def test_steep_cost_windows_converge(self, alpha, slot):
        # rho0 = 0.99 puts f above 1e150 with a first L near 1e200. At alpha =
        # 100 the step test's log Z_i - <z_i, a_i> falls far below the rounding
        # of log Z_i; taken as a plain difference it stalled accelerated steps
        # on these slots. At alpha = 140 the rounding in f exceeds the test's
        # slack at every step size, so L doubles until it would overflow (slot
        # 142 at iteration 863, with momentum; slot 403 at iteration 4, without)
        # and the window restarts from x renormalized. Plain mirror steps
        # halved their step to zero on 175, 142 and 403.
        topo, trace = readme_two_days()
        params, solver = CostParams(alpha=alpha, rho0=0.99), SolverConfig()
        pi, objective, diag = window_solution(topo, trace, np.array([slot]), params)
        validate_policy(pi, topo)
        assert diag.converged and diag.iterations < solver.max_iterations
        assert 0 <= diag.gap <= solver.tolerance * abs(objective)


class TestPeriodicStatic:
    def test_constant_trace_zone_objectives_equal(self, rng):
        topo = make_random_topology(rng, 3, 3)
        lam = rng.uniform(0.1, 0.5, 3)
        trace = toy_trace(np.tile(lam, (12, 1)))
        partition = build_partition(12, 3, 2)
        params = CostParams(alpha=2, rho0=0.9)
        solution = solve_periodic_static(topo, trace, partition, params)
        single_slot, _, _ = window_solution(topo, trace, np.array([1]), params)
        per_slot_value = penalized_cost(single_slot, lam, topo, params)
        for objective in solution.zone_objectives:
            # each window holds 4 identical slots
            assert objective == pytest.approx(4 * per_slot_value, rel=1e-6)

    def test_single_zone_equals_static_benchmark(self, rng):
        topo = make_random_topology(rng, 3, 2)
        trace = toy_trace(rng.uniform(0.1, 0.8, (10, 3)))
        params = CostParams(alpha=1, rho0=0.8)
        via_partition = solve_periodic_static(
            topo, trace, build_partition(10, 1, 10), params
        )
        direct = solve_static(topo, trace, params)
        assert direct.total_objective == pytest.approx(
            via_partition.total_objective, abs=2e-6
        )

    def test_full_split_equals_dynamic_benchmark(self, rng):
        topo = make_random_topology(rng, 2, 2)
        trace = toy_trace(rng.uniform(0.1, 0.8, (6, 2)))
        params = CostParams(alpha=2, rho0=0.8)
        via_partition = solve_periodic_static(
            topo, trace, build_partition(6, 6, 1), params
        )
        direct = solve_dynamic(topo, trace, params)
        for a, b in zip(via_partition.zone_objectives, direct.zone_objectives):
            assert a == pytest.approx(b, abs=2e-6)

    def test_dynamic_matches_per_slot_grid_oracle(self, rng):
        service = rng.uniform(0.8, 4.0, (2, 2))
        topo = Topology(service_rate=service)
        trace = toy_trace(rng.uniform(0.1, 0.9, (4, 2)))
        params = CostParams(alpha=2, rho0=0.7)
        solution = solve_dynamic(topo, trace, params)
        for t in range(4):
            oracle = grid_min_window_objective(
                service, trace.demand[t : t + 1], alpha=2, rho0=0.7, psi=1.0
            )
            assert solution.zone_objectives[t] == pytest.approx(oracle, abs=1e-3)

    def test_refinement_helps(self, rng):
        topo = make_random_topology(rng, 3, 3)
        trace = toy_trace(rng.uniform(0.1, 0.9, (12, 3)))
        params = CostParams(alpha=2, rho0=0.8)
        coarse = solve_periodic_static(topo, trace, build_partition(12, 1, 12), params)
        fine = solve_periodic_static(topo, trace, build_partition(12, 2, 6), params)
        assert fine.total_objective <= coarse.total_objective + 2e-6

    def test_never_worse_than_online_play(self, rng):
        topo = make_random_topology(rng, 4, 3)
        trace = toy_trace(rng.uniform(0.1, 1.0, (16, 4)))
        partition = build_partition(16, 2, 4)
        params = CostParams(alpha=0)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=0.5))
        solution = solve_periodic_static(topo, trace, partition, params)
        slack = partition.zones * 1e-6
        assert solution.total_objective <= run.log.costs.sum() + slack

    def test_policies_feasible_and_replay_consistent(self, rng):
        topo = make_random_topology(rng, 3, 3)
        trace = toy_trace(rng.uniform(0.1, 0.9, (8, 3)))
        partition = build_partition(8, 2, 2)
        params = CostParams(alpha=1, rho0=0.7)
        solution = solve_periodic_static(topo, trace, partition, params)
        for pi in solution.zone_policies:
            validate_policy(pi, topo)
        costs, _ = replay_benchmark(solution, trace, partition, topo, params)
        assert costs.sum() == pytest.approx(solution.total_objective, rel=1e-12)

    def test_batched_windows_match_single_window_solves(self, rng):
        zones, width = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        partition = build_partition(2 * zones * width, zones, width)
        topo = make_random_topology(rng, 4, 3)
        demand = rng.uniform(0.1, 0.9, (partition.horizon, 4))
        idle = int(rng.integers(1, zones + 1))
        demand[partition.window(idle) - 1] = 0.0
        trace = toy_trace(demand)
        params = CostParams(alpha=2, rho0=0.8)
        free = solve_periodic_static(topo, trace, partition, params)
        counts = sorted(d.iterations for d in free.diagnostics if d.iterations)
        # a cap one below the largest count stops the slowest windows, not the faster ones
        solver = SolverConfig(max_iterations=counts[-1] - 1)
        solution = solve_periodic_static(topo, trace, partition, params, solver)
        diagnostics = solution.diagnostics
        assert diagnostics[idle - 1].iterations == 0 and diagnostics[idle - 1].converged
        assert not all(d.converged for d in diagnostics)
        assert sum(d.converged and d.iterations > 0 for d in diagnostics) >= 1
        for k, window in enumerate(partition.windows()):
            pi, objective, diag = window_solution(topo, trace, window, params, solver)
            assert diag.iterations == diagnostics[k].iterations
            assert diag.converged == diagnostics[k].converged
            assert objective == pytest.approx(solution.zone_objectives[k], rel=1e-12, abs=1e-12)
            np.testing.assert_allclose(pi, solution.zone_policies[k], rtol=0, atol=1e-12)


class TestGapCertificate:
    def test_gap_bounds_grid_oracle_and_matches_reference(self, rng):
        # the instances of acceptance criterion 4, drawn in the same order
        for instance in range(20):
            n_loc = int(rng.integers(1, 3))
            service = rng.uniform(0.8, 4.0, (2, n_loc))
            topo = Topology(service_rate=service)
            slots = int(rng.integers(1, 3))
            trace = toy_trace(rng.uniform(0.1, 0.9, (slots, n_loc)))
            alpha = float(rng.choice([0.0, 1.0, 2.0]))
            rho0 = 0.7 if alpha > 0 else 1.0
            params = CostParams(alpha=alpha, rho0=rho0, psi=1.0)
            pi, objective, diag = window_solution(topo, trace, np.arange(1, slots + 1), params)
            oracle = grid_min_window_objective(service, trace.demand, alpha=alpha, rho0=rho0, psi=1.0)
            assert diag.gap >= objective - oracle - 1e-9, f"instance {instance}"
            reference = reference_frank_wolfe_gap(pi, service, trace.demand, alpha, rho0, 1.0)
            assert diag.gap == pytest.approx(reference, rel=1e-9, abs=1e-12), f"instance {instance}"

    def test_overloaded_window_converges_within_default_cap(self):
        # windows 2 and 12 of the six-AP network's README-profile day at
        # alpha = 2: about a quarter of their AP-slots sit above rho0, where
        # the cost is linear; a fixed-step solver stops there at the cap, and
        # plain mirror steps take 3,673 and 2,714 iterations
        topo = acceptance_topology()
        trace = generate_synthetic(25, 5760, seed=2024, profile=SyntheticProfile(slots_per_day=240))
        params = CostParams(alpha=2.0, rho0=0.8)
        for zone in (2, 12):
            window = build_partition(5760, 24, 10).window(zone)
            pi, objective, diag = window_solution(topo, trace, window, params)
            overloaded = ((pi * topo.inverse_rate) @ trace.demand[window - 1].T > params.rho0).mean()
            assert 0.2 <= overloaded <= 0.35, f"window {zone}"
            assert diag.converged and diag.iterations <= 1_000, f"window {zone}"
            assert diag.gap <= SolverConfig().tolerance * abs(objective), f"window {zone}"

    @pytest.mark.parametrize("alpha, rho0", [(0.0, 1.0), (1.0, 0.6), (2.0, 0.5)])
    def test_converged_windows_meet_gap_target(self, rng, alpha, rho0):
        topo = make_random_topology(rng, 5, 3)
        trace = toy_trace(rng.uniform(0.1, 1.2, (24, 5)))
        solver = SolverConfig(tolerance=1e-7)
        solution = solve_periodic_static(
            topo, trace, build_partition(24, 4, 3), CostParams(alpha=alpha, rho0=rho0), solver
        )
        assert solution.all_converged
        for diag, objective in zip(solution.diagnostics, solution.zone_objectives):
            assert 0 <= diag.gap <= solver.tolerance * max(1.0, abs(objective))


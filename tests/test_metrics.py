import csv
import math

import numpy as np
import pytest

from assoclearn import (
    CostParams,
    LearnerConfig,
    RunLog,
    Topology,
    TrafficTrace,
    build_partition,
    penalized_cost,
    regret,
    replay_benchmark,
    run_online,
    runlog_to_csv,
    solve_periodic_static,
    theoretical_bound,
)
from assoclearn.metrics import prefix_regret_per_slot, violation_counts
from conftest import make_random_topology
from oracles import reference_penalized_values


def toy_trace(values):
    return TrafficTrace(demand=np.asarray(values, dtype=float))


class TestTheoreticalBound:
    def test_universal_form(self):
        report = theoretical_bound(2, 18, 1.0, 0.5, 1, 2, 1)
        assert report.universal == pytest.approx(math.sqrt(72))

    def test_single_ap_degenerate(self):
        report = theoretical_bound(3, 10, 1.0, 0.5, 4, 1, 4)
        assert report.general == pytest.approx(0.5 * 10 * 1.0 / (2 * 4))
        assert report.eta_star == 0.0
        assert report.note == "single_ap_per_location"

    def test_plug_in_general_value(self):
        report = theoretical_bound(1, 100, 2.0, 0.1, 4, 3, 10)
        expected = 1 * 4 * math.log(3) / (0.1 * 3) + 0.1 * 100 * 4 / 20
        assert report.general == pytest.approx(expected)

    def test_eta_star_formula(self):
        report = theoretical_bound(2, 18, 1.0, 0.5, 1, 2, 1)
        expected = math.sqrt(2 * 2 * 1 * 1 * math.log(2) / (18 * 1 * 2))
        assert report.eta_star == pytest.approx(expected)

    def test_eta_star_minimizes_general(self):
        base = theoretical_bound(3, 500, 2.0, 1.0, 5, 4, 12)
        at_star = theoretical_bound(3, 500, 2.0, base.eta_star, 5, 4, 12)
        for eta in (0.5 * base.eta_star, 2.0 * base.eta_star):
            assert at_star.general <= theoretical_bound(3, 500, 2.0, eta, 5, 4, 12).general + 1e-12

    def test_zero_gradient_flagged(self):
        report = theoretical_bound(2, 10, 0.0, 0.5, 2, 3, 4)
        assert report.eta_star is None
        assert report.note == "zero_gradient"
        assert report.universal == 0.0

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            theoretical_bound(0, 10, 1.0, 0.5, 1, 1, 1)
        with pytest.raises(ValueError):
            theoretical_bound(1, 10, 1.0, -0.5, 1, 1, 1)

    @pytest.mark.parametrize("scale", [1e-170, 1e200])
    def test_lipschitz_square_outside_float_range(self, scale):
        # L^2 underflows to 0 or overflows, but eta_star * L and the bound at
        # eta_star over L do not depend on L
        unit = theoretical_bound(24, 5760, 1.0, 1.0, 5, 2, 25)
        report = theoretical_bound(24, 5760, scale, 1.0, 5, 2, 25)
        assert report.eta_star * scale == pytest.approx(unit.eta_star, rel=1e-12)
        assert report.universal / scale == pytest.approx(unit.universal, rel=1e-12)
        at_star = theoretical_bound(24, 5760, scale, report.eta_star, 5, 2, 25)
        at_unit_star = theoretical_bound(24, 5760, 1.0, unit.eta_star, 5, 2, 25)
        assert at_star.general / scale == pytest.approx(at_unit_star.general, rel=1e-12)

    def test_bound_beyond_float_range_is_inf(self):
        assert theoretical_bound(24, 5760, 1e200, 0.1, 5, 2, 25).general == math.inf
        # far below, the step term vanishes next to the first term
        report = theoretical_bound(24, 5760, 1e-170, 0.1, 5, 2, 25)
        assert report.general == pytest.approx(24 * 5 * math.log(2) / (0.1 * 2), rel=1e-12)


class TestViolations:
    def test_no_violations(self):
        loads = np.array([[0.1, 0.2], [0.3, 0.4]])
        assert violation_counts(loads, 0.5) == (0, 0)

    def test_hand_count(self):
        loads = np.array([[0.6, 0.4], [0.7, 0.8]])
        assert violation_counts(loads, 0.5) == (3, 2)

    def test_threshold_is_strict(self):
        assert violation_counts(np.array([[0.5]]), 0.5) == (0, 0)

    def test_count_from_runlog(self):
        log = RunLog(
            costs=np.zeros(2),
            loads=np.array([[0.6, 0.4], [0.7, 0.8]]),
            zones=np.array([1, 1]),
            rho0=0.5,
        )
        assert violation_counts(log.loads, log.rho0) == (3, 2)


class TestRegret:
    def test_prefix_curve(self):
        curve = prefix_regret_per_slot(np.array([2.0, 2.0, 2.0]), np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(curve, [1.0, 1.0, 1.0])

    def test_zero_when_online_replays_benchmark(self, rng):
        topo = make_random_topology(rng, 3, 2)
        trace = toy_trace(rng.uniform(0.1, 0.8, (6, 3)))
        partition = build_partition(6, 2, 3)
        params = CostParams(alpha=0)
        solution = solve_periodic_static(topo, trace, partition, params)
        costs, loads = replay_benchmark(solution, trace, partition, topo, params)
        report = regret(costs, solution, trace, partition, topo, params, online_loads=loads)
        assert report.regret == 0.0
        np.testing.assert_allclose(report.prefix_regret, np.zeros(6), atol=1e-15)

    def test_double_summation_oracle(self, rng):
        topo = Topology(service_rate=np.array([[1.0], [2.0]]))
        trace = toy_trace(rng.uniform(0.2, 1.0, (6, 1)))
        partition = build_partition(6, 2, 1)
        params = CostParams(alpha=0)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=0.4))
        solution = solve_periodic_static(topo, trace, partition, params)
        report = regret(run.log.costs, solution, trace, partition, topo, params)

        # independent re-summation: online total minus per-window benchmark replay
        expected = float(run.log.costs.sum())
        for k, window in enumerate(partition.windows()):
            pi = solution.zone_policies[k]
            for t in window:
                expected -= penalized_cost(pi, trace.demand[t - 1], topo, params)
        assert report.regret == pytest.approx(expected, abs=1e-12)

    def test_window_decomposition_identity(self, rng):
        topo = make_random_topology(rng, 3, 3)
        trace = toy_trace(rng.uniform(0.1, 0.9, (12, 3)))
        partition = build_partition(12, 3, 2)
        params = CostParams(alpha=2, rho0=0.8)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=0.3))
        solution = solve_periodic_static(topo, trace, partition, params)
        report = regret(run.log.costs, solution, trace, partition, topo, params)
        bench_costs, _ = replay_benchmark(solution, trace, partition, topo, params)
        partial = sum(
            run.log.costs[window - 1].sum() - bench_costs[window - 1].sum()
            for window in partition.windows()
        )
        assert report.regret == pytest.approx(partial, abs=1e-12)

    def test_report_fields(self, rng):
        topo = make_random_topology(rng, 3, 2)
        trace = toy_trace(rng.uniform(0.1, 0.6, (8, 3)))
        partition = build_partition(8, 2, 2)
        params = CostParams(alpha=2, rho0=0.9)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=0.2))
        solution = solve_periodic_static(topo, trace, partition, params)
        report = regret(
            run.log.costs,
            solution,
            trace,
            partition,
            topo,
            params,
            eta=0.2,
            online_loads=run.log.loads,
        )
        assert report.regret == pytest.approx(
            report.total_online_cost - report.total_benchmark_cost
        )
        assert report.prefix_regret.shape == (8,)
        assert report.eta_used == 0.2
        assert report.bound_at_eta is not None and report.bound_at_eta > 0
        assert report.violations_online is not None
        # loads stayed below one on both legs, so the raw reading exists
        assert report.raw_cost_regret is not None
        doc = report.to_dict()
        assert doc["regret"] == report.regret
        assert len(doc["prefix_regret"]) == 8

    def test_zone_regret_decomposes_regret(self, rng):
        topo = make_random_topology(rng, 4, 3)
        trace = toy_trace(rng.uniform(0.1, 0.9, (24, 4)))
        partition = build_partition(24, 3, 2)
        params = CostParams(alpha=2, rho0=0.8)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=2.0))
        solution = solve_periodic_static(topo, trace, partition, params)
        report = regret(run.log.costs, solution, trace, partition, topo, params)
        bench_costs, _ = replay_benchmark(solution, trace, partition, topo, params)
        assert len(report.zone_regret) == 3
        assert math.isclose(sum(report.zone_regret), report.regret, rel_tol=1e-9)
        expected = [0.0] * 3
        for t in range(24):
            expected[run.log.zones[t] - 1] += run.log.costs[t] - bench_costs[t]
        np.testing.assert_allclose(report.zone_regret, expected, rtol=1e-12, atol=1e-15)
        assert report.to_dict()["zone_regret"] == report.zone_regret

    def test_raw_reading_absent_when_overloaded(self, rng):
        topo = Topology(service_rate=np.array([[1.0], [1.0]]))
        trace = toy_trace(np.full((4, 1), 3.0))  # loads >= 1 whatever the split
        partition = build_partition(4, 1, 4)
        params = CostParams(alpha=0)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=0.1))
        solution = solve_periodic_static(topo, trace, partition, params)
        report = regret(
            run.log.costs, solution, trace, partition, topo, params,
            online_loads=run.log.loads,
        )
        assert report.raw_cost_regret is None

    def test_length_mismatch_rejected(self, rng):
        topo = make_random_topology(rng, 2, 2)
        trace = toy_trace(rng.uniform(0.1, 0.6, (4, 2)))
        partition = build_partition(4, 2, 1)
        params = CostParams(alpha=0)
        solution = solve_periodic_static(topo, trace, partition, params)
        with pytest.raises(ValueError):
            regret(np.zeros(5), solution, trace, partition, topo, params)


class TestRunlogCsv:
    def test_format_and_values(self, rng, tmp_path):
        topo = make_random_topology(rng, 2, 2)
        trace = toy_trace(rng.uniform(0.1, 2.0, (4, 2)))
        partition = build_partition(4, 2, 1)
        params = CostParams(alpha=1, rho0=0.5)
        run = run_online(topo, trace, partition, params, LearnerConfig(eta=0.2))
        path = tmp_path / "runlog.csv"
        runlog_to_csv(run.log, path)
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["t", "zone", "V", "total_load", "violations"]
        assert len(rows) == 5
        for t, row in enumerate(rows[1:], start=1):
            assert int(row[0]) == t
            assert int(row[1]) == run.log.zones[t - 1]
            assert float(row[2]) == pytest.approx(run.log.costs[t - 1])
            assert float(row[3]) == pytest.approx(run.log.total_loads[t - 1])
            assert int(row[4]) == run.log.violations[t - 1].sum()

    def test_bytes_match_csv_writer(self, tmp_path):
        # reference: one csv.writer row per slot, floats written by repr
        costs = np.array([np.inf, -0.0, 1e-310, 0.1 + 0.2, -3.5e12, 7.0])
        loads = np.array([[0.2, 0.9], [0.0, 0.0], [1.5, 0.1], [0.3, 0.3], [2.0, 2.0], [0.5, 0.51]])
        log = RunLog(costs=costs, loads=loads, zones=np.array([1, 2, 3, 1, 2, 3]), rho0=0.5)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["t", "zone", "V", "total_load", "violations"])
            for t in range(log.horizon):
                writer.writerow([
                    t + 1, int(log.zones[t]), repr(float(costs[t])),
                    repr(float(log.total_loads[t])), int(log.violations[t].sum()),
                ])
        runlog_to_csv(log, tmp_path / "runlog.csv")
        assert (tmp_path / "runlog.csv").read_bytes() == reference.read_bytes()


class TestReplayBenchmark:
    def test_matches_per_window_loop(self, rng):
        topo = make_random_topology(rng, 5, 3)
        partition = build_partition(36, 4, 3)
        trace = toy_trace(rng.uniform(0.1, 1.5, (36, 5)))
        params = CostParams(alpha=2, rho0=0.7)
        solution = solve_periodic_static(topo, trace, partition, params)
        costs, loads = replay_benchmark(solution, trace, partition, topo, params)
        # reference: each window's policy applied to its own slots
        expected_costs, expected_loads = np.empty(36), np.empty((36, 3))
        for k, window in enumerate(partition.windows()):
            window_loads = (solution.zone_policies[k] * topo.inverse_rate) @ trace.demand[window - 1].T
            expected_costs[window - 1] = reference_penalized_values(window_loads, 2, 0.7, 1.0).sum(axis=0)
            expected_loads[window - 1] = window_loads.T
        np.testing.assert_allclose(loads, expected_loads, rtol=1e-12, atol=0)
        np.testing.assert_allclose(costs, expected_costs, rtol=1e-12, atol=0)

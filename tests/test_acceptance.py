"""Acceptance suite: one test per release criterion, one PASS line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines. Heavyweight runs are shared through module-scoped fixtures.
"""

import json
import time

import numpy as np
import pytest

import assoclearn as al
from assoclearn.cli import main as cli_main
from assoclearn.metrics import violation_counts
from conftest import make_random_policy, make_random_topology, window_solution
from oracles import grid_min_window_objective


def report(criterion, text):
    print(f"[acceptance] criterion {criterion:2d}: PASS - {text}")


def acceptance_topology():
    """25 locations on a 5x5 grid, one macro and five micro APs."""
    radio = al.RadioConfig(
        ap_positions=np.array(
            [
                [200.0, 200.0],
                [50.0, 50.0],
                [350.0, 50.0],
                [50.0, 350.0],
                [350.0, 350.0],
                [200.0, 0.0],
            ]
        ),
        ap_power_dbm=np.array([43.0, 33.0, 33.0, 33.0, 33.0, 33.0]),
        bandwidth_hz=10e6,
        noise_dbm_per_hz=-174.0,
        path_loss_exponent=3.0,
        rate_threshold_bps=8e5,
        omega=3e-7,
    )
    return al.build_topology(radio, al.grid_positions(5, 5, 100.0))


@pytest.fixture(scope="module")
def bound_run():
    """Criteria 6 and 7: the large bound-checking run at the step size
    minimizing the theoretical guarantee."""
    topology = acceptance_topology()
    horizon, zones, slots_per_zone = 5760, 24, 10
    profile = al.SyntheticProfile(
        slots_per_day=zones * slots_per_zone,
        base_min=0.5,
        base_max=1.5,
        amplitude=0.6,
        sigma=0.1,
    )
    trace = al.generate_synthetic(25, horizon, seed=42, profile=profile)
    params = al.CostParams(alpha=0.0, rho0=1.0, psi=1.0)
    lipschitz = al.lipschitz_bound(topology, trace.max_intensity, params)
    m_loc, m_ap = al.max_degrees(topology)
    eta = al.theoretical_bound(
        zones, horizon, lipschitz, 1.0, m_loc, m_ap, 25
    ).eta_star

    start = time.perf_counter()
    partition = al.build_partition(horizon, zones, slots_per_zone)
    run = al.run_online(topology, trace, partition, params, al.LearnerConfig(eta=eta))
    benchmark = al.solve_periodic_static(topology, trace, partition, params)
    report_obj = al.regret(
        run.log.costs,
        benchmark,
        trace,
        partition,
        topology,
        params,
        eta=eta,
        online_loads=run.log.loads,
    )
    elapsed = time.perf_counter() - start
    return {
        "zones": zones,
        "horizon": horizon,
        "eta": eta,
        "lipschitz": lipschitz,
        "report": report_obj,
        "elapsed": elapsed,
        "benchmark": benchmark,
    }


def test_criterion_01_gradient_matches_finite_differences(rng):
    start = time.perf_counter()
    checked = 0
    for instance in range(200):
        n_loc = int(rng.integers(1, 6))
        n_aps = int(rng.integers(2, 6))
        topology = make_random_topology(rng, n_loc, n_aps, rate_low=0.5, rate_high=3.0)
        alpha = float(rng.choice([0.0, 1.0, 2.0]))
        rho0 = float(rng.uniform(0.3, 0.7))
        params = al.CostParams(alpha=alpha, rho0=rho0, psi=float(rng.uniform(0.5, 2.0)))
        pi = make_random_policy(rng, topology)
        # scale demand so the loads straddle the threshold across instances
        lam = rng.uniform(0.2, 1.0, n_loc) * rho0 * (0.5 + 2.0 * rng.random())
        loads = al.ap_load(pi, lam, topology)
        grad = al.grad_penalized_cost(pi, lam, topology, params)

        step = 1e-6
        for j, i in zip(*np.nonzero(topology.support)):
            if abs(loads[j] - rho0) < 1e-4:
                continue  # central differences would straddle the kink
            up, down = pi.copy(), pi.copy()
            up[j, i] += step
            down[j, i] -= step
            fd = (
                al.penalized_cost(up, lam, topology, params)
                - al.penalized_cost(down, lam, topology, params)
            ) / (2 * step)
            assert abs(fd - grad[j, i]) <= 1e-5 * max(1.0, abs(grad[j, i])), (
                f"instance {instance}, entry ({j},{i}): fd={fd} grad={grad[j, i]}"
            )
            checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"gradient check took {elapsed:.2f}s"
    report(1, f"{checked} finite-difference entries across 200 instances in {elapsed:.2f}s")


def test_criterion_02_simplex_preservation_long_run():
    topology = acceptance_topology()
    horizon = 10_000
    profile = al.SyntheticProfile(slots_per_day=250, sigma=0.2)
    trace = al.generate_synthetic(25, horizon, seed=5, profile=profile)
    partition = al.build_partition(horizon, 8, 25)
    params = al.CostParams(alpha=0.0, rho0=1.0)

    start = time.perf_counter()
    run = al.run_online(
        topology, trace, partition, params, al.LearnerConfig(eta=0.05, keep_policies=True)
    )
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0, f"run took {elapsed:.2f}s"

    sums = run.policies.sum(axis=1)
    assert np.abs(sums - 1.0).max() <= 1e-9
    support = topology.support
    assert all(((pi > 0) == support).all() for pi in run.policies)
    assert run.log.support_loss_events == 0
    report(2, f"{horizon} slots, max column-sum error {np.abs(sums - 1).max():.1e}, "
              f"support intact in {elapsed:.2f}s")


def test_criterion_03_window_calendar(rng):
    part = al.build_partition(18, 2, 3)
    assert list(part.window(1)) == [1, 2, 3, 7, 8, 9, 13, 14, 15]
    assert list(part.window(2)) == [4, 5, 6, 10, 11, 12, 16, 17, 18]

    for _ in range(100):
        p, k, z = (int(rng.integers(1, 7)) for _ in range(3))
        part = al.build_partition(p * k * z, k, z)
        for zone in range(1, k + 1):
            expected = sorted(
                k * z * (period - 1) + z * (zone - 1) + tau
                for period in range(1, p + 1)
                for tau in range(1, z + 1)
            )
            assert list(part.window(zone)) == expected
        for t in range(1, part.horizon + 1):
            period, offset = divmod(t - 1, k * z)
            zone = offset // z + 1
            rank = period * z + offset % z + 1
            assert part.window(zone)[rank - 1] == t
            assert (rank == 1) == (t == part.window(zone)[0])
    report(3, "documented example exact, 100 random calendars verified slot by slot")


def test_criterion_04_benchmark_matches_grid_oracle(rng):
    for instance in range(20):
        n_loc = int(rng.integers(1, 3))
        service = rng.uniform(0.8, 4.0, (2, n_loc))
        topology = al.Topology(service_rate=service)
        slots = int(rng.integers(1, 3))
        trace = al.TrafficTrace(demand=rng.uniform(0.1, 0.9, (slots, n_loc)))
        alpha = float(rng.choice([0.0, 1.0, 2.0]))
        rho0 = 0.7 if alpha > 0 else 1.0
        params = al.CostParams(alpha=alpha, rho0=rho0, psi=1.0)
        _, objective, _ = window_solution(
            topology, trace, np.arange(1, slots + 1), params
        )
        oracle = grid_min_window_objective(
            service, trace.demand, alpha=alpha, rho0=rho0, psi=1.0
        )
        assert objective == pytest.approx(oracle, abs=1e-3), f"instance {instance}"
    report(4, "20 tiny instances within 1e-3 of exhaustive grid search")


def test_criterion_05_benchmark_reductions_and_monotonicity(rng):
    topology = make_random_topology(rng, 3, 3)
    profile = al.SyntheticProfile(slots_per_day=8, base_min=0.2, base_max=0.6, sigma=0.3)
    trace = al.generate_synthetic(3, 16, seed=17, profile=profile)
    params = al.CostParams(alpha=2.0, rho0=0.8)
    tolerance = al.SolverConfig().tolerance

    via_one = al.solve_periodic_static(
        topology, trace, al.build_partition(16, 1, 16), params
    )
    static = al.solve_static(topology, trace, params)
    assert abs(via_one.total_objective - static.total_objective) <= 2 * tolerance

    via_full = al.solve_periodic_static(
        topology, trace, al.build_partition(16, 16, 1), params
    )
    dynamic = al.solve_dynamic(topology, trace, params)
    for a, b in zip(via_full.zone_objectives, dynamic.zone_objectives):
        assert abs(a - b) <= 2 * tolerance

    middle = al.solve_periodic_static(
        topology, trace, al.build_partition(16, 4, 2), params
    )
    slack = 1e-5
    assert middle.total_objective <= via_one.total_objective + slack
    assert via_full.total_objective <= middle.total_objective + slack
    report(5, "single/full-split reductions match; cost non-increasing along 1 -> 4 -> 16 zones")


def test_criterion_06_regret_within_universal_bound(bound_run):
    rep = bound_run["report"]
    bound = rep.bound_universal
    diagnostics = (
        f"regret={rep.regret:.3f} universal_bound={bound:.3f} "
        f"bound_at_eta={rep.bound_at_eta:.3f} L={rep.lipschitz_used:.4f} "
        f"eta={bound_run['eta']:.5f} zones={bound_run['zones']} horizon={bound_run['horizon']} "
        f"benchmark_converged={bound_run['benchmark'].all_converged}"
    )
    assert bound_run["elapsed"] < 120.0, f"took {bound_run['elapsed']:.1f}s; {diagnostics}"
    assert rep.regret <= bound, f"bound violated: {diagnostics}"
    report(6, diagnostics + f" ({bound_run['elapsed']:.1f}s)")


def test_criterion_07_no_regret_trend(bound_run):
    rep = bound_run["report"]
    horizon = bound_run["horizon"]
    quarter = horizon // 4
    early = rep.prefix_regret[:quarter].mean()
    late = rep.prefix_regret[3 * quarter:].mean()
    assert late < 0.5 * early, f"early avg {early:.5f}, late avg {late:.5f}"
    report(7, f"average regret-per-slot fell from {early:.4f} to {late:.4f} "
              f"(ratio {late / early:.3f})")


def test_criterion_08_entropy_identities(rng):
    topology = make_random_topology(rng, 6, 4)
    # vectorised Dirichlet on each location's neighbor set
    gamma = rng.gamma(1.0, size=(1000, 4, 6)) * topology.support[None, :, :]
    policies = gamma / gamma.sum(axis=1, keepdims=True)
    for pi in policies:
        assert al.entropy_regularizer(pi) <= 0.0

    for _ in range(20):
        topo = make_random_topology(rng, int(rng.integers(1, 8)), int(rng.integers(1, 6)))
        sizes = topo.support.sum(axis=0).astype(float)
        expected = -sum(
            np.log(sizes[i]) / sizes[i]
            for j in range(topo.n_aps)
            for i in np.flatnonzero(topo.support[j])
        )
        actual = al.entropy_regularizer(al.init_uniform(topo))
        assert actual == pytest.approx(expected, abs=1e-12)
    report(8, "1000 policies non-positive; uniform-entropy identity exact on 20 topologies")


def test_criterion_09_strong_convexity(rng):
    def entropy(p):
        return float(np.sum(p * np.log(p)))

    for dim in range(2, 7):
        for _ in range(1000):
            p = rng.dirichlet(np.ones(dim))
            q = rng.dirichlet(np.ones(dim))
            lhs = entropy(q)
            rhs = (
                entropy(p)
                + float(np.dot(np.log(p) + 1.0, q - p))
                + 0.5 * float(np.abs(q - p).sum()) ** 2
            )
            assert lhs >= rhs - 1e-9, f"dim={dim}: lhs={lhs} rhs={rhs}"
    report(9, "per-location strong convexity held on 1000 pairs per dimension 2..6")


def test_criterion_10_mirror_map_optimality(rng):
    topology = make_random_topology(rng, 5, 4)
    gamma = rng.gamma(1.0, size=(1000, 4, 5)) * topology.support[None, :, :]
    candidates = gamma / gamma.sum(axis=1, keepdims=True)
    log_candidates = np.where(candidates > 0, np.log(np.where(candidates > 0, candidates, 1.0)), 0.0)
    candidate_entropy = (candidates * log_candidates).sum(axis=(1, 2))

    for _ in range(50):
        theta = rng.normal(scale=2.0, size=(4, 5)) * topology.support
        eta = float(rng.uniform(0.1, 2.0))
        best = al.mirror_map(topology, theta, eta)
        best_value = al.entropy_regularizer(best) - eta * float(np.sum(theta * best))
        candidate_values = candidate_entropy - eta * np.tensordot(
            candidates, theta, axes=([1, 2], [0, 1])
        )
        assert best_value <= candidate_values.min() + 1e-9
    report(10, "closed-form mirror beat 1000 feasible candidates for all 50 gradient matrices")


@pytest.fixture(scope="module")
def trend_runs():
    """Criterion 11: identical traffic partitioned at 24, 12 and 2 zones."""
    topology = al.Topology(
        service_rate=np.array(
            [
                [3.0, 3.0, 0.0, 3.0, 3.0, 0.0, 0.0, 0.0, 0.0],
                [0.0, 3.0, 3.0, 0.0, 3.0, 3.0, 0.0, 3.0, 0.0],
                [0.0, 0.0, 0.0, 1.5, 1.5, 0.0, 1.5, 1.5, 1.5],
                [1.5, 0.0, 1.5, 0.0, 0.0, 1.5, 1.5, 0.0, 1.5],
            ]
        )
    )
    horizon, day = 240, 120
    profile = al.SyntheticProfile(
        slots_per_day=day, base_min=0.136, base_max=0.272, amplitude=0.85, sigma=0.05
    )
    trace = al.generate_synthetic(topology.n_locations, horizon, seed=9, profile=profile)
    params = al.CostParams(alpha=2.0, rho0=0.5, psi=1.0)
    solver = al.SolverConfig(max_iterations=20_000)

    counts = {}
    for zones in (24, 12, 2):
        partition = al.build_partition(horizon, zones, day // zones)
        run = al.run_online(topology, trace, partition, params, al.LearnerConfig(eta=0.6))
        benchmark = al.solve_periodic_static(topology, trace, partition, params, solver)
        _, bench_loads = al.replay_benchmark(benchmark, trace, partition, topology, params)
        counts[zones] = (
            violation_counts(run.log.loads, params.rho0)[0],
            violation_counts(bench_loads, params.rho0)[0],
        )
    return counts


def test_criterion_11_violation_trends(trend_runs):
    online = [trend_runs[k][0] for k in (24, 12, 2)]
    bench = [trend_runs[k][1] for k in (24, 12, 2)]
    # shrinking the zone count removes restarts from the online learner but
    # forces the hindsight policies to compromise over wider windows
    assert online[0] >= online[1] >= online[2], f"online counts {online}"
    assert bench[0] <= bench[1] <= bench[2], f"benchmark counts {bench}"
    report(11, f"online violations {online} non-increasing, "
               f"benchmark violations {bench} non-decreasing as zones drop 24 -> 12 -> 2")


def test_criterion_12_cli_determinism(tmp_path):
    config = {
        "seed": 21,
        "topology": {
            "source": "generate",
            "grid": {"nx": 3, "ny": 3, "spacing": 120.0},
            "radio": {
                "ap_positions": [[60.0, 60.0], [180.0, 180.0]],
                "ap_power_dbm": [43.0, 33.0],
                "rate_threshold_bps": 8e5,
                "omega": 3e-7,
            },
        },
        "traffic": {
            "source": "synthetic",
            "horizon": 48,
            "profile": {"slots_per_day": 24, "sigma": 0.2},
        },
        "partition": {"zones": 4, "slots_per_zone": 6},
        "cost": {"alpha": 0.0, "rho0": 1.0, "psi": 1.0},
        "eta": "auto",
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    out1, out2 = tmp_path / "first", tmp_path / "second"
    assert cli_main(["run", "--config", str(config_path), "--out", str(out1)]) == 0
    assert cli_main(["run", "--config", str(config_path), "--out", str(out2)]) == 0
    files = sorted(p.name for p in out1.iterdir())
    assert files == ["benchmark.json", "manifest.json", "regret.json", "runlog.csv"]
    for name in files:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
    report(12, f"repeated run produced byte-identical {', '.join(files)}")

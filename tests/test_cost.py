import dataclasses

import numpy as np
import pytest

from assoclearn import (
    CostParams,
    Topology,
    alpha_cost,
    ap_load,
    grad_penalized_cost,
    init_uniform,
    lipschitz_bound,
    penalized_cost,
    penalized_cost_from_loads,
    total_load,
    validate_policy,
)
from assoclearn.cost import load_slope, penalized_values
from conftest import make_random_policy, make_random_topology


def finite_difference_gradient(pi, lam, topology, params, step=1e-6):
    """Central differences of the penalized cost, entrywise on the support."""
    grad = np.zeros_like(pi)
    for j, i in zip(*np.nonzero(topology.support)):
        up, down = pi.copy(), pi.copy()
        up[j, i] += step
        down[j, i] -= step
        grad[j, i] = (
            penalized_cost(up, lam, topology, params)
            - penalized_cost(down, lam, topology, params)
        ) / (2 * step)
    return grad


class TestCostParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            CostParams(alpha=-0.5)
        with pytest.raises(ValueError):
            CostParams(alpha=0, rho0=0.0)
        with pytest.raises(ValueError):
            CostParams(alpha=0, rho0=1.2)
        with pytest.raises(ValueError):
            CostParams(alpha=1, psi=0.0)

    @pytest.mark.parametrize(
        "field, value",
        [("alpha", np.nan), ("alpha", np.inf), ("psi", np.nan), ("psi", np.inf), ("rho0", np.nan)],
    )
    def test_non_finite_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            CostParams(**{"alpha": 1.0, "rho0": 0.5, field: value})

    def test_full_threshold_needs_alpha_zero(self):
        CostParams(alpha=0.0, rho0=1.0)
        with pytest.raises(ValueError):
            CostParams(alpha=2.0, rho0=1.0)

    def test_overflowing_overload_slope_rejected(self):
        with pytest.raises(ValueError, match=r"alpha = 200.0 with rho0 = 0.99"):
            CostParams(alpha=200.0, rho0=0.99)
        with pytest.raises(ValueError, match="overflow"):
            CostParams(alpha=2.0, rho0=0.99999, psi=1e300)
        # a slope near the float limit that does not overflow is accepted
        params = CostParams(alpha=150.0, rho0=0.99)
        assert np.isfinite(lipschitz_bound(Topology(service_rate=np.ones((1, 1))), 1.0, params))

    def test_threshold_slope_is_not_a_field(self):
        a, b = CostParams(alpha=2.0, rho0=0.8, psi=3.0), CostParams(alpha=2.0, rho0=0.8, psi=3.0)
        assert a.threshold_slope == (1.0 - 0.8) ** -2.0
        assert a == b and hash(a) == hash(b)
        assert [f.name for f in dataclasses.fields(a)] == ["alpha", "rho0", "psi"]
        assert "threshold_slope" not in repr(a)

    def test_function_drops_rho0_only_where_the_cost_ignores_it(self):
        # at alpha = 0 and psi = 1 the penalized cost is rho - 1 on both branches, with slope 1
        shared = {CostParams(alpha=0.0, rho0=rho0).function for rho0 in (0.3, 0.5, 1.0)}
        assert shared == {CostParams(alpha=0.0)}
        loads = np.linspace(0.0, 2.0, 81)
        for rho0 in (0.3, 0.5):
            params = CostParams(alpha=0.0, rho0=rho0)
            np.testing.assert_array_equal(load_slope(loads, params), load_slope(loads, params.function))
            np.testing.assert_allclose(
                penalized_values(loads, params), penalized_values(loads, params.function), rtol=0, atol=1e-15
            )
        for params in (
            CostParams(alpha=0.0, rho0=0.5, psi=2.0),
            CostParams(alpha=0.0, rho0=1.0, psi=0.5),
            CostParams(alpha=1.0, rho0=0.5),
            CostParams(alpha=2.0, rho0=0.9, psi=1.0),
        ):
            assert params.function is params
        assert [f.name for f in dataclasses.fields(CostParams)] == ["alpha", "rho0", "psi"]


class TestApLoad:
    def test_zero_demand(self, two_ap_topology):
        pi = init_uniform(two_ap_topology)
        loads = ap_load(pi, np.zeros(2), two_ap_topology)
        np.testing.assert_array_equal(loads, np.zeros(2))

    def test_even_split_hand_sum(self):
        topo = Topology(service_rate=np.array([[2.0], [2.0]]))
        loads = ap_load(np.array([[0.5], [0.5]]), np.array([1.0]), topo)
        np.testing.assert_allclose(loads, [0.25, 0.25])

    def test_two_locations_one_ap(self):
        topo = Topology(service_rate=np.array([[4.0, 8.0]]))
        loads = ap_load(np.array([[1.0, 1.0]]), np.array([2.0, 4.0]), topo)
        np.testing.assert_allclose(loads, [1.0])

    def test_dimension_mismatch(self, two_ap_topology):
        with pytest.raises(ValueError):
            ap_load(np.ones((3, 2)) / 3, np.ones(2), two_ap_topology)
        with pytest.raises(ValueError):
            ap_load(init_uniform(two_ap_topology), np.ones(3), two_ap_topology)


class TestAlphaCost:
    def test_log_barrier_at_zero_load(self):
        assert alpha_cost(np.zeros(3), CostParams(alpha=1, rho0=0.9)) == 0.0

    def test_delay_cost_half_load(self):
        assert alpha_cost(np.array([0.5]), CostParams(alpha=2, rho0=0.9)) == pytest.approx(2.0)

    def test_total_load_reading(self):
        loads = np.array([0.25, 0.25])
        assert total_load(loads) == pytest.approx(0.5)
        # literal alpha=0 evaluation differs from the reading by one per AP
        assert alpha_cost(loads, CostParams(alpha=0)) == pytest.approx(0.5 - 2)

    def test_overload_rejected_for_barrier_costs(self):
        with pytest.raises(ValueError, match="penalized_cost"):
            alpha_cost(np.array([1.0]), CostParams(alpha=1, rho0=0.9))


class TestPenalizedCost:
    def test_matches_raw_cost_below_threshold(self, rng):
        params = CostParams(alpha=2, rho0=0.8)
        loads = rng.uniform(0, 0.8, 6)
        assert penalized_cost_from_loads(loads, params) == pytest.approx(
            alpha_cost(loads, params)
        )

    def test_delay_extension_hand_value(self):
        params = CostParams(alpha=2, rho0=0.5, psi=1.0)
        assert penalized_cost_from_loads(np.array([0.6]), params) == pytest.approx(2.4)

    def test_log_extension_hand_value(self):
        params = CostParams(alpha=1, rho0=0.5, psi=1.0)
        expected = -np.log(0.5) + 2 * 0.25
        assert penalized_cost_from_loads(np.array([0.75]), params) == pytest.approx(expected)

    def test_continuous_at_threshold(self):
        for alpha in (0.0, 1.0, 2.0):
            params = CostParams(alpha=alpha, rho0=0.7, psi=3.0)
            below = penalized_cost_from_loads(np.array([0.7 - 1e-12]), params)
            above = penalized_cost_from_loads(np.array([0.7 + 1e-12]), params)
            assert above == pytest.approx(below, abs=1e-9)

    def test_monotone_in_load(self):
        params = CostParams(alpha=2, rho0=0.5, psi=2.0)
        grid = np.linspace(0, 3, 301)
        values = [penalized_cost_from_loads(np.array([x]), params) for x in grid]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))

    def test_convexity_witness(self, rng):
        for _ in range(10):
            topo = make_random_topology(rng, 3, 3)
            params = CostParams(alpha=float(rng.choice([0, 1, 2])), rho0=0.6, psi=1.5)
            lam = rng.uniform(0, 2, 3)
            p1, p2 = make_random_policy(rng, topo), make_random_policy(rng, topo)
            theta = rng.random()
            mix = theta * p1 + (1 - theta) * p2
            lhs = penalized_cost(mix, lam, topo, params)
            rhs = theta * penalized_cost(p1, lam, topo, params) + (1 - theta) * penalized_cost(
                p2, lam, topo, params
            )
            assert lhs <= rhs + 1e-9

    def test_first_order_convexity(self, rng):
        for _ in range(10):
            topo = make_random_topology(rng, 3, 3)
            params = CostParams(alpha=float(rng.choice([0, 1, 2])), rho0=0.6, psi=1.5)
            lam = rng.uniform(0, 2, 3)
            p1, p2 = make_random_policy(rng, topo), make_random_policy(rng, topo)
            gap = penalized_cost(p1, lam, topo, params) - penalized_cost(p2, lam, topo, params)
            inner = float(np.sum(grad_penalized_cost(p1, lam, topo, params) * (p1 - p2)))
            assert gap <= inner + 1e-9


    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_where_form_matches_mask_form(self, alpha, rng):
        # the branch select must give the bits of a gather/scatter over the
        # loads below, at and above the threshold
        params = CostParams(alpha=alpha, rho0=0.7, psi=1.5)
        loads = np.concatenate([rng.uniform(0, 0.7, 50), [0.0, 0.7, 0.7], rng.uniform(0.7, 3, 50)])
        loads = rng.permutation(loads).reshape(103, 1) * np.ones((1, 4))
        inside = loads <= params.rho0
        overload_slope = params.psi * (1.0 - params.rho0) ** (-alpha)
        slope = np.empty_like(loads)
        slope[inside] = (1.0 - loads[inside]) ** (-alpha)
        slope[~inside] = overload_slope
        phi = (lambda x: -np.log(1.0 - x)) if alpha == 1 else (lambda x: (1.0 - x) ** (1.0 - alpha) / (alpha - 1.0))
        values = np.empty_like(loads)
        values[inside] = phi(loads[inside])
        values[~inside] = phi(np.float64(params.rho0)) + overload_slope * (loads[~inside] - params.rho0)
        np.testing.assert_array_equal(load_slope(loads, params), slope)
        np.testing.assert_array_equal(penalized_values(loads, params), values)


class TestGradient:
    def test_zero_outside_support(self, two_ap_topology):
        pi = init_uniform(two_ap_topology)
        grad = grad_penalized_cost(pi, np.array([1.0, 2.0]), two_ap_topology, CostParams(alpha=0))
        assert grad[0, 1] == 0.0

    def test_alpha_zero_scale(self):
        topo = Topology(service_rate=np.array([[2.0]]))
        grad = grad_penalized_cost(
            np.array([[1.0]]), np.array([1.0]), topo, CostParams(alpha=0, rho0=0.9, psi=1.0)
        )
        assert grad[0, 0] == pytest.approx(0.5)

    def test_matches_finite_differences(self, rng):
        for _ in range(20):
            topo = make_random_topology(rng, 2, 2)
            params = CostParams(alpha=float(rng.choice([0, 1, 2])), rho0=0.6, psi=1.0)
            lam = rng.uniform(0.2, 1.0, 2)
            pi = make_random_policy(rng, topo)
            loads = ap_load(pi, lam, topo)
            if np.any(np.abs(loads - params.rho0) < 1e-4):
                continue  # finite differences straddle the kink there
            grad = grad_penalized_cost(pi, lam, topo, params)
            fd = finite_difference_gradient(pi, lam, topo, params)
            np.testing.assert_allclose(grad, fd, rtol=1e-5, atol=1e-8)

    def test_one_sided_derivatives_agree_at_kink_for_tangent_penalty(self):
        # psi = 1 makes the extension the tangent at rho0
        topo = Topology(service_rate=np.array([[1.0]]))
        params = CostParams(alpha=2, rho0=0.5, psi=1.0)
        lam = np.array([0.5])
        step = 1e-7
        up = penalized_cost(np.array([[1.0]]) + step, lam, topo, params)
        down = penalized_cost(np.array([[1.0]]) - step, lam, topo, params)
        at = grad_penalized_cost(np.array([[1.0]]), lam, topo, params)[0, 0]
        assert (up - down) / (2 * step) == pytest.approx(at, rel=1e-5)

    def test_sup_norm_below_lipschitz_bound(self, rng):
        for _ in range(15):
            topo = make_random_topology(rng, 4, 3)
            params = CostParams(alpha=float(rng.choice([0, 1, 2])), rho0=0.7, psi=2.0)
            lam_max = 1.5
            lam = rng.uniform(0, lam_max, 4)
            pi = make_random_policy(rng, topo)
            grad = grad_penalized_cost(pi, lam, topo, params)
            bound = lipschitz_bound(topo, lam_max, params)
            assert np.abs(grad).max() <= bound + 1e-12


class TestLipschitzBound:
    def test_zero_demand(self, two_ap_topology):
        assert lipschitz_bound(two_ap_topology, 0.0, CostParams(alpha=0)) == 0.0

    def test_alpha_zero_value(self):
        topo = Topology(service_rate=np.array([[2.0]]))
        assert lipschitz_bound(topo, 1.0, CostParams(alpha=0, rho0=0.9, psi=1.0)) == pytest.approx(0.5)

    def test_delay_cost_value(self):
        topo = Topology(service_rate=np.array([[1.0]]))
        assert lipschitz_bound(topo, 1.0, CostParams(alpha=2, rho0=0.5, psi=1.0)) == pytest.approx(4.0)

    def test_negative_lambda_rejected(self, two_ap_topology):
        with pytest.raises(ValueError):
            lipschitz_bound(two_ap_topology, -1.0, CostParams(alpha=0))


class TestValidatePolicy:
    def test_accepts_random_feasible(self, rng):
        topo = make_random_topology(rng, 5, 4)
        validate_policy(make_random_policy(rng, topo), topo)

    def test_rejects_bad_support(self, two_ap_topology):
        pi = np.array([[0.5, 0.5], [0.5, 0.5]])
        with pytest.raises(ValueError, match="links"):
            validate_policy(pi, two_ap_topology)

    def test_rejects_bad_column_sum(self, two_ap_topology):
        pi = np.array([[0.5, 0.0], [0.4, 1.0]])
        with pytest.raises(ValueError, match="sum"):
            validate_policy(pi, two_ap_topology)

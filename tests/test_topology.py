import json

import numpy as np
import pytest

from assoclearn import (
    RadioConfig,
    Topology,
    build_topology,
    grid_positions,
    load_topology_json,
    max_degrees,
    save_topology_json,
    shannon_rate,
)
from conftest import make_random_topology


class TestShannonRate:
    def test_unit_sinr_gives_bandwidth(self):
        # signal term equal to the noise term: log2(2) = 1
        w, n0 = 1e6, 4e-21
        assert shannon_rate(1.0, w * n0, [], w, n0) == pytest.approx(w)

    def test_zero_gain_zero_rate(self):
        assert shannon_rate(0.0, 5.0, [(1.0, 1.0)], 1e6, 4e-21) == 0.0

    def test_sinr_three_gives_twice_bandwidth(self):
        w, n0 = 2e6, 1e-20
        interference = 3.0
        signal = 3.0 * (w * n0 + interference)
        rate = shannon_rate(1.0, signal, [(1.0, interference)], w, n0)
        assert rate == pytest.approx(2 * w)

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            shannon_rate(-1.0, 1.0, [], 1e6, 1e-20)
        with pytest.raises(ValueError):
            shannon_rate(1.0, 1.0, [(-0.5, 1.0)], 1e6, 1e-20)
        with pytest.raises(ValueError):
            shannon_rate(1.0, 1.0, [], 0.0, 1e-20)

    def test_monotone_in_gain_and_interference(self):
        w, n0 = 1e6, 1e-20
        gains = np.linspace(0.1, 2.0, 8)
        rates = [shannon_rate(g, 1.0, [(0.5, 1.0)], w, n0) for g in gains]
        assert all(a <= b for a, b in zip(rates, rates[1:]))
        powers = np.linspace(0.0, 3.0, 8)
        rates = [shannon_rate(1.0, 1.0, [(0.5, p)], w, n0) for p in powers]
        assert all(a >= b for a, b in zip(rates, rates[1:]))


class TestBuildTopology:
    def test_single_colocated_pair(self):
        config = RadioConfig(
            ap_positions=np.array([[0.0, 0.0]]), ap_power_dbm=np.array([40.0])
        )
        topo = build_topology(config, np.array([[0.0, 0.0]]))
        assert topo.n_aps == 1 and topo.n_locations == 1
        assert list(np.flatnonzero(topo.support[:, 0])) == [0]
        assert list(np.flatnonzero(topo.support[0])) == [0]

    def test_equidistant_aps_both_kept(self):
        config = RadioConfig(
            ap_positions=np.array([[-5.0, 0.0], [5.0, 0.0]]),
            ap_power_dbm=np.array([40.0, 40.0]),
            rate_threshold_bps=1.0,
        )
        topo = build_topology(config, np.array([[0.0, 0.0]]))
        assert np.flatnonzero(topo.support[:, 0]).size == 2
        np.testing.assert_allclose(topo.service_rate[0], topo.service_rate[1])

    def test_grid_against_brute_force(self):
        config = RadioConfig(
            ap_positions=np.array([[0.0, 0.0], [40.0, 0.0], [20.0, 40.0]]),
            ap_power_dbm=np.array([43.0, 33.0, 33.0]),
            rate_threshold_bps=5e6,
        )
        positions = grid_positions(5, 5, 10.0)
        topo = build_topology(config, positions)

        # independent recomputation of every link rate from the raw formula
        powers = config.ap_power_watts
        n0 = config.noise_density_w_per_hz
        w = config.bandwidth_hz
        expected = np.zeros((3, 25))
        for j in range(3):
            for i in range(25):
                gains = [
                    max(np.hypot(*(config.ap_positions[k] - positions[i])), 1.0) ** -3.0
                    for k in range(3)
                ]
                interference = sum(gains[k] * powers[k] for k in range(3) if k != j)
                expected[j, i] = w * np.log2(
                    1 + gains[j] * powers[j] / (w * n0 + interference)
                )
        keep = expected >= config.rate_threshold_bps
        for i in range(25):
            if not keep[:, i].any():
                keep[np.argmax(expected[:, i]), i] = True
        np.testing.assert_allclose(
            topo.service_rate, np.where(keep, config.omega * expected, 0.0), rtol=1e-12
        )

    def test_matches_per_link_loop(self):
        # from the same gains, one scalar shannon_rate call per link with the
        # interferers in AP order, then the per-location threshold relaxation:
        # the arithmetic is the same, so the rates agree bit for bit
        config = RadioConfig(
            ap_positions=np.array([[0.0, 0.0], [60.0, 0.0], [30.0, 50.0], [90.0, 90.0]]),
            ap_power_dbm=np.array([43.0, 33.0, 30.0, 33.0]),
            rate_threshold_bps=2e7,
        )
        positions = grid_positions(8, 8, 13.0)
        powers = config.ap_power_watts
        d = np.linalg.norm(config.ap_positions[:, None, :] - positions[None, :, :], axis=2)
        gains = np.maximum(d, 1.0) ** -3.0
        rates = np.zeros((4, 64))
        for j in range(4):
            for i in range(64):
                interferers = [(gains[k, i], powers[k]) for k in range(4) if k != j]
                rates[j, i] = shannon_rate(
                    gains[j, i], powers[j], interferers,
                    config.bandwidth_hz, config.noise_density_w_per_hz,
                )
        keep = rates >= config.rate_threshold_bps
        orphans = [i for i in range(64) if not keep[:, i].any()]
        assert 0 < len(orphans) < 64
        for i in orphans:
            keep[np.argmax(rates[:, i]), i] = True
        expected = np.where(keep, config.omega * rates, 0.0)
        np.testing.assert_array_equal(build_topology(config, positions).service_rate, expected)

    def test_orphan_location_keeps_strongest_link(self):
        config = RadioConfig(
            ap_positions=np.array([[0.0, 0.0], [10.0, 0.0]]),
            ap_power_dbm=np.array([40.0, 40.0]),
            rate_threshold_bps=1e30,  # would prune everything
        )
        topo = build_topology(config, np.array([[2.0, 0.0], [9.0, 0.0]]))
        assert all(np.flatnonzero(topo.support[:, i]).size == 1 for i in range(topo.n_locations))

    def test_positions_must_be_pairs(self):
        with pytest.raises(ValueError, match="pairs"):
            RadioConfig(ap_positions=np.zeros((2, 3)), ap_power_dbm=np.array([40.0, 40.0]))
        with pytest.raises(ValueError, match="pairs"):
            RadioConfig(ap_positions=np.zeros((1, 2)), ap_power_dbm=np.array([[40.0]]))

    @pytest.mark.parametrize("field, dbm", [("noise_dbm_per_hz", 1e308), ("ap_power_dbm", [40.0, 4000.0])])
    def test_levels_must_be_finite_in_watts(self, field, dbm):
        levels = {"ap_positions": np.zeros((2, 2)), "ap_power_dbm": np.array([40.0, 40.0]), field: dbm}
        with pytest.raises(ValueError, match="finite in watts"):
            RadioConfig(**levels)

    def test_empty_inputs_rejected(self):
        with pytest.raises(ValueError):
            RadioConfig(ap_positions=np.empty((0, 2)), ap_power_dbm=np.empty(0))
        config = RadioConfig(
            ap_positions=np.array([[0.0, 0.0]]), ap_power_dbm=np.array([40.0])
        )
        with pytest.raises(ValueError):
            build_topology(config, np.empty((0, 2)))


class TestTopologyInvariants:
    def test_neighborhood_symmetry_random(self, rng):
        for _ in range(20):
            topo = make_random_topology(
                rng, int(rng.integers(1, 8)), int(rng.integers(1, 6))
            )
            for i in range(topo.n_locations):
                for j in np.flatnonzero(topo.support[:, i]):
                    assert i in np.flatnonzero(topo.support[j])
            for j in range(topo.n_aps):
                for i in np.flatnonzero(topo.support[j]):
                    assert j in np.flatnonzero(topo.support[:, i])
            assert (topo.service_rate > 0).all() == topo.support.all()

    def test_orphan_rejected(self):
        with pytest.raises(ValueError):
            Topology(service_rate=np.array([[1.0, 0.0], [2.0, 0.0]]))

    def test_max_degrees_examples(self):
        topo = Topology(service_rate=np.array([[1.0], [2.0]]))
        assert max_degrees(topo) == (1, 2)
        topo = Topology(service_rate=np.ones((1, 7)))
        assert max_degrees(topo) == (7, 1)

    def test_max_degrees_exhaustive(self, rng):
        for _ in range(15):
            topo = make_random_topology(
                rng, int(rng.integers(1, 9)), int(rng.integers(1, 7))
            )
            m_loc, m_ap = max_degrees(topo)
            # links counted one by one, independently of the support mask
            rate = topo.service_rate
            per_ap = [sum(rate[j, i] > 0 for i in range(topo.n_locations)) for j in range(topo.n_aps)]
            per_loc = [sum(rate[j, i] > 0 for j in range(topo.n_aps)) for i in range(topo.n_locations)]
            assert m_loc == max(per_ap)
            assert m_ap == max(per_loc)
            assert 1 <= m_loc <= topo.n_locations
            assert 1 <= m_ap <= topo.n_aps


class TestNeighborTable:
    def test_hand_built_network(self):
        topo = Topology(
            service_rate=np.array(
                [[1.0, 0.0, 2.0, 0.0], [0.0, 3.0, 4.0, 0.0], [5.0, 6.0, 0.0, 7.0]]
            )
        )
        # serving APs in AP order, then AP 0 pads the single-AP location 3
        np.testing.assert_array_equal(topo.neighbor_table, [[0, 1, 0, 2], [2, 2, 1, 0]])

    def test_layout_properties_random(self, rng):
        for _ in range(20):
            topo = make_random_topology(rng, int(rng.integers(1, 12)), int(rng.integers(1, 7)))
            table = topo.neighbor_table
            assert table.shape == (max_degrees(topo)[1], topo.n_locations)
            for i in range(topo.n_locations):
                aps = np.flatnonzero(topo.support[:, i])
                column = table[:, i]
                np.testing.assert_array_equal(column[: aps.size], aps)
                assert not topo.support[column[aps.size :], i].any()
                assert np.unique(column).size == column.size


class TestTopologyJson:
    def test_round_trip(self, rng, tmp_path):
        topo = make_random_topology(rng, 6, 4)
        path = tmp_path / "topology.json"
        save_topology_json(topo, path)
        loaded = load_topology_json(path)
        np.testing.assert_array_equal(loaded.service_rate, topo.service_rate)
        np.testing.assert_array_equal(loaded.support, topo.support)

    def test_shape_mismatch_rejected(self, tmp_path):
        doc = {"n_locations": 3, "n_aps": 2, "service_rate": [[1.0, 1.0], [1.0, 1.0]]}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValueError):
            load_topology_json(path)

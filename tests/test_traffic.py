import numpy as np
import pytest

from assoclearn import (
    SyntheticProfile,
    TrafficTrace,
    build_partition,
    generate_synthetic,
    load_trace_csv,
    save_trace_csv,
)


class TestPartition:
    def test_documented_example(self):
        part = build_partition(18, 2, 3)
        assert part.periods == 3
        assert list(part.window(1)) == [1, 2, 3, 7, 8, 9, 13, 14, 15]
        assert list(part.window(2)) == [4, 5, 6, 10, 11, 12, 16, 17, 18]
        for zone in (0, 3):
            with pytest.raises(IndexError):
                part.window(zone)

    def test_single_window(self):
        part = build_partition(10, 1, 10)
        assert list(part.window(1)) == list(range(1, 11))

    def test_per_slot_windows(self):
        part = build_partition(5, 5, 1)
        for k in range(1, 6):
            assert list(part.window(k)) == [k]

    def test_non_divisible_rejected(self):
        with pytest.raises(ValueError):
            build_partition(19, 2, 3)

    def test_windows_partition_the_horizon(self, rng):
        for _ in range(30):
            p, k, z = (int(rng.integers(1, 6)) for _ in range(3))
            part = build_partition(p * k * z, k, z)
            windows = part.windows()
            assert all(len(w) == p * z for w in windows)
            merged = np.sort(np.concatenate(windows))
            np.testing.assert_array_equal(merged, np.arange(1, p * k * z + 1))

    def test_window_formula(self, rng):
        # membership by the congruence t = KZ(p-1) + Z(k-1) + tau
        for _ in range(10):
            p, k, z = (int(rng.integers(1, 5)) for _ in range(3))
            part = build_partition(p * k * z, k, z)
            for zone in range(1, k + 1):
                expected = sorted(
                    k * z * (pp - 1) + z * (zone - 1) + tau
                    for pp in range(1, p + 1)
                    for tau in range(1, z + 1)
                )
                assert list(part.window(zone)) == expected


class TestCalendar:
    # static (one window), periodic, and dynamic (one slot per window)
    CALENDARS = [(12, 1, 12), (12, 2, 3), (12, 12, 1)]

    @pytest.mark.parametrize("horizon, zones, width", CALENDARS)
    @pytest.mark.parametrize("tail", [(), (3,), (3, 4)])
    def test_by_slot_inverts_by_window(self, rng, horizon, zones, width, tail):
        part = build_partition(horizon, zones, width)
        x = rng.standard_normal((horizon, *tail))
        stack = part.by_window(x)
        assert stack.shape == (zones, *tail, horizon // zones)
        np.testing.assert_array_equal(part.by_slot(stack), x)

    @pytest.mark.parametrize("horizon, zones, width", CALENDARS)
    def test_by_window_follows_window_slots(self, rng, horizon, zones, width):
        part = build_partition(horizon, zones, width)
        x = rng.standard_normal((horizon, 2))
        stack = part.by_window(x)
        for k in range(1, zones + 1):
            np.testing.assert_array_equal(stack[k - 1], x[part.window(k) - 1].T)

    def test_calendar_is_a_view_indexed_by_period_zone_slot(self):
        part = build_partition(18, 2, 3)
        series = np.arange(1, 19)
        cal = part.calendar(series)
        assert cal.shape == (3, 2, 3)
        assert np.shares_memory(cal, series)
        assert cal[1, 0, 2] == 9  # period 2, zone 1, third slot
        with pytest.raises(ValueError, match="partition horizon 18 != series length 17"):
            part.calendar(series[:-1])


class TestSynthetic:
    def test_flat_noiseless_is_constant(self):
        profile = SyntheticProfile(slots_per_day=8, shape="flat", sigma=0.0)
        trace = generate_synthetic(3, 24, seed=7, profile=profile)
        np.testing.assert_allclose(
            trace.demand, np.tile(trace.demand[0], (24, 1))
        )

    def test_same_seed_identical(self):
        profile = SyntheticProfile(slots_per_day=12)
        a = generate_synthetic(4, 48, seed=11, profile=profile)
        b = generate_synthetic(4, 48, seed=11, profile=profile)
        np.testing.assert_array_equal(a.demand, b.demand)

    def test_noiseless_sinusoid_is_periodic(self):
        profile = SyntheticProfile(slots_per_day=10, sigma=0.0)
        trace = generate_synthetic(2, 40, seed=3, profile=profile)
        np.testing.assert_allclose(trace.demand[:30], trace.demand[10:])

    def test_sigma_bounds(self):
        with pytest.raises(ValueError):
            SyntheticProfile(slots_per_day=10, sigma=1.0)

    def test_nonnegative(self):
        profile = SyntheticProfile(slots_per_day=6, amplitude=1.0, sigma=0.9)
        trace = generate_synthetic(5, 60, seed=1, profile=profile)
        assert (trace.demand >= 0).all()


class TestTraceCsv:
    def test_empty_body_declared_shape(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,location_id,intensity\n")
        trace = load_trace_csv(path, n_locations=2, horizon=3)
        np.testing.assert_array_equal(trace.demand, np.zeros((3, 2)))

    def test_sparse_rows(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1,1,2.0\n2,2,4.0\n")
        trace = load_trace_csv(path, n_locations=2)
        assert trace.horizon == 2
        assert trace.demand[0, 0] == 2.0
        assert trace.demand[1, 1] == 4.0
        assert trace.demand.sum() == 6.0

    def test_round_trip(self, rng, tmp_path):
        demand = rng.uniform(0, 3, (7, 4))
        demand[rng.random(demand.shape) < 0.3] = 0.0
        trace = TrafficTrace(demand=demand)
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        loaded = load_trace_csv(path, n_locations=4, horizon=7)
        np.testing.assert_array_equal(loaded.demand, trace.demand)

    @pytest.mark.parametrize(
        "body, fragment",
        [
            ("1,1,-2.0\n", "line 1"),
            ("1,one,2.0\n", "line 1"),
            ("2,5,1.0\n", "line 1"),
            ("1,1,1.0\n0,1,1.0\n", "line 2"),
        ],
    )
    def test_parse_errors_name_line(self, tmp_path, body, fragment):
        path = tmp_path / "trace.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=fragment):
            load_trace_csv(path, n_locations=3)

    def test_duplicate_row_names_both_lines(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("t,location_id,intensity\n1,1,0.5\n2,1,1.0\n1,1,9.0\n")
        with pytest.raises(ValueError, match=r"line 4: duplicate t=1, location_id=1 of line 2"):
            load_trace_csv(path, n_locations=1)

    def test_horizon_too_small_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("5,1,1.0\n")
        with pytest.raises(ValueError):
            load_trace_csv(path, n_locations=1, horizon=3)

import numpy as np
import pytest

from assoclearn import (
    SyntheticProfile,
    TrafficTrace,
    build_partition,
    generate_synthetic,
    load_trace_csv,
    save_trace_csv,
    window_of,
)


class TestPartition:
    def test_documented_example(self):
        part = build_partition(18, 2, 3)
        assert part.periods == 3
        assert list(part.window(1)) == [1, 2, 3, 7, 8, 9, 13, 14, 15]
        assert list(part.window(2)) == [4, 5, 6, 10, 11, 12, 16, 17, 18]

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


class TestWindowOf:
    def test_examples(self):
        part = build_partition(18, 2, 3)
        assert window_of(part, 7) == (1, 4, False)
        assert window_of(part, 1) == (1, 1, True)
        assert window_of(part, 4) == (2, 1, True)

    def test_out_of_range(self):
        part = build_partition(18, 2, 3)
        with pytest.raises(IndexError):
            window_of(part, 0)
        with pytest.raises(IndexError):
            window_of(part, 19)

    def test_consistent_with_enumeration(self, rng):
        for _ in range(100):
            p, k, z = (int(rng.integers(1, 6)) for _ in range(3))
            part = build_partition(p * k * z, k, z)
            windows = part.windows()
            for t in range(1, part.horizon + 1):
                zone, rank, first = window_of(part, t)
                assert windows[zone - 1][rank - 1] == t
                assert first == (rank == 1)


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

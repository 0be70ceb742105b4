import csv
import tracemalloc

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
from assoclearn.traffic import TRACE_HEADER, _adopt, _read_columns, _read_rows


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

    @pytest.mark.parametrize(
        "shape, sigma", [("sinusoidal", 0.3), ("flat", 0.3), ("sinusoidal", 0.0), ("flat", 0.0)]
    )
    def test_matches_out_of_place_formula_bit_for_bit(self, shape, sigma):
        # 300 locations make row blocks of 218 slots, the last one partial
        n_locations, horizon, seed = 300, 480, 17
        profile = SyntheticProfile(slots_per_day=48, shape=shape, amplitude=1.0, sigma=sigma)
        rng = np.random.default_rng(seed)
        base = rng.uniform(profile.base_min, profile.base_max, n_locations)
        day_phase = (np.arange(horizon) % 48) / 48
        day = 1.0 + np.sin(2.0 * np.pi * day_phase) if shape == "sinusoidal" else np.ones(horizon)
        noise = rng.uniform(-sigma, sigma, (horizon, n_locations))
        expected = np.maximum(0.0, base[None, :] * day[:, None] * (1.0 + noise))
        trace = generate_synthetic(n_locations, horizon, seed=seed, profile=profile)
        assert trace.demand.tobytes() == expected.tobytes()

    def test_demand_is_read_only(self):
        trace = generate_synthetic(4, 24, seed=2, profile=SyntheticProfile(slots_per_day=12))
        assert not trace.demand.flags.writeable
        with pytest.raises(ValueError):
            trace.demand[0, 0] = 1.0

    def test_peak_memory_near_the_trace_size(self):
        profile = SyntheticProfile(slots_per_day=40)
        generate_synthetic(20, 40, seed=1, profile=profile)  # warm caches outside the measurement
        tracemalloc.start()
        try:
            trace = generate_synthetic(2000, 400, seed=1, profile=profile)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * trace.demand.nbytes


class TestTraceOwnership:
    def test_writable_input_is_copied(self):
        a = np.ones((3, 2))
        trace = TrafficTrace(demand=a)
        a[0, 0] = 9.0
        assert trace.demand[0, 0] == 1.0
        assert not np.shares_memory(trace.demand, a)

    def test_read_only_owning_input_is_copied(self):
        a = np.ones((3, 2))
        a.setflags(write=False)
        trace = TrafficTrace(demand=a)
        a.setflags(write=True)  # an array that owns its data may be made writable again
        a[0, 0] = 9.0
        assert trace.demand[0, 0] == 1.0
        assert not trace.demand.flags.writeable

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_adopted_arrays_are_still_checked(self, bad):
        demand = np.ones((2, 2))
        demand[1, 0] = bad
        with pytest.raises(ValueError, match="finite and non-negative"):
            _adopt(demand)
        with pytest.raises(ValueError, match="horizon x n_locations"):
            _adopt(np.ones(3))

    def test_adopted_array_is_kept_read_only(self):
        demand = np.ones((2, 3))
        trace = _adopt(demand)
        assert trace.demand is demand
        assert not demand.flags.writeable


class TestTraceValidation:
    @pytest.mark.parametrize("bad", [np.nan, -np.inf, np.inf, -1e-300])
    @pytest.mark.parametrize("where", [(0, 0), (2, 1)])
    def test_non_finite_or_negative_entry_is_rejected(self, bad, where):
        demand = np.full((3, 2), 0.5)
        demand[where] = bad
        with pytest.raises(ValueError, match="demand entries must be finite and non-negative"):
            TrafficTrace(demand=demand)

    def test_nan_beside_a_negative_or_infinite_entry_is_rejected(self):
        for other in (-1.0, np.inf):
            with pytest.raises(ValueError, match="finite and non-negative"):
                TrafficTrace(demand=[[np.nan, other]])

    def test_max_intensity_is_the_largest_entry(self):
        trace = TrafficTrace(demand=[[0.25, 3.0], [0.0, 1.5]])
        assert trace.max_intensity == 3.0
        assert type(trace.max_intensity) is float

    @pytest.mark.parametrize("shape", [(0, 4), (3, 0), (0, 0)])
    def test_empty_trace_is_accepted_with_max_intensity_zero(self, shape):
        trace = TrafficTrace(demand=np.empty(shape))
        assert trace.demand.shape == shape
        assert trace.max_intensity == 0.0

    def test_checks_make_no_full_size_temporaries(self):
        demand = np.ones((1000, 1000))  # a mask of it would take 1 MB
        tracemalloc.start()
        try:
            _adopt(demand)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    def test_negative_zero_is_accepted(self):
        trace = TrafficTrace(demand=[[-0.0, 0.0], [-0.0, -0.0]])
        assert trace.max_intensity == 0.0
        assert TrafficTrace(demand=[[-0.0]]).max_intensity == 0.0


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

    def test_far_slot_ids_are_checked_in_memory_of_the_rows(self, tmp_path):
        # slot 99,999,999,999 of 1,000 locations: the demand matrix would take
        # 728 TiB, and a count per (t, location) cell as much again
        path = tmp_path / "trace.csv"
        path.write_text("99999999999,1,1\n")
        with pytest.raises(ValueError, match="slot id 99999999999: a 99999999999 x 1000 demand matrix"):
            load_trace_csv(path, n_locations=1000)
        path.write_text("99999999999,1,1\n99999999999,2,1\n99999999999,1,2\n")
        with pytest.raises(ValueError, match="line 3: duplicate t=99999999999, location_id=1 of line 1"):
            load_trace_csv(path, n_locations=1000)

    def test_horizon_too_small_rejected(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("5,1,1.0\n")
        with pytest.raises(ValueError):
            load_trace_csv(path, n_locations=1, horizon=3)

    def test_loaded_demand_is_read_only(self, tmp_path):
        path = tmp_path / "trace.csv"
        path.write_text("1,1,2.0\n2,2,4.0\n")
        demand = load_trace_csv(path, n_locations=2).demand
        assert not demand.flags.writeable

    def test_save_matches_csv_writer_byte_for_byte(self, tmp_path):
        demand = generate_synthetic(9, 40, seed=3, profile=SyntheticProfile(slots_per_day=8)).demand.copy()
        demand[::3, ::2] = 0.0  # rows the file omits
        demand[2, 1] = 5e-324  # subnormal
        demand[4, 4] = 1e16  # repr switches to exponent notation
        trace = TrafficTrace(demand=demand)
        reference = tmp_path / "reference.csv"
        with open(reference, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(TRACE_HEADER)
            ts, locs = np.nonzero(trace.demand)
            for t, i in zip(ts, locs):
                writer.writerow([t + 1, i + 1, repr(float(trace.demand[t, i]))])
        path = tmp_path / "trace.csv"
        save_trace_csv(trace, path)
        assert path.read_bytes() == reference.read_bytes()


class TestTraceCsvFastPath:
    """np.loadtxt reads well-formed files; the checked row loop reads the rest."""

    def test_fast_path_matches_row_loop_bit_for_bit(self, tmp_path):
        profile = SyntheticProfile(slots_per_day=24, sigma=0.5)
        demand = generate_synthetic(30, 240, seed=5, profile=profile).demand.copy()
        demand[::7, ::3] = 0.0  # rows the file omits
        demand[1, 2] = 5e-324  # subnormal
        path = tmp_path / "trace.csv"
        save_trace_csv(TrafficTrace(demand=demand), path)
        fast = _read_columns(path)
        assert fast is not None
        for got, want in zip(fast, _read_rows(path, 30, None)):
            assert got.dtype == want.dtype
            np.testing.assert_array_equal(got, want)
        loaded = load_trace_csv(path, n_locations=30)
        assert loaded.demand.tobytes() == demand.tobytes()

    @pytest.mark.parametrize(
        "body, fast",
        [
            ("t,location_id,intensity\n1,2,0.25\n2,1,1.5\n", True),
            ("1,2,0.25\r\n\r\n2,1,1.5\r\n", True),  # no header, CRLF, a blank line
            ('"1","2",0.25\n2,1,"1.5"\n', False),  # quoted fields
            ("0_1,2,0.2_5\n2,1,1.5\n", False),  # digit separators
            ('"t","location_id","intensity"\n1,2,0.25\n2,1,1.5\n', False),  # quoted header
        ],
    )
    def test_both_readers_parse_as_the_row_loop(self, tmp_path, body, fast):
        path = tmp_path / "trace.csv"
        path.write_bytes(body.encode())
        assert (_read_columns(path) is not None) == fast
        expected = np.zeros((12, 3))
        expected[0, 1], expected[1, 0] = 0.25, 1.5
        assert load_trace_csv(path, n_locations=3, horizon=12).demand.tobytes() == expected.tobytes()

    @pytest.mark.parametrize(
        "body, message",
        [
            ("t,location_id,intensity\n1,1,1.0\n1,2,nan\n", "line 3: intensity nan"),
            ("1,1,1.0\n2,1,inf\n", "line 2: intensity inf"),
            ("1,1,1.0\n2,1,-0.5\n", "line 2: intensity -0.5"),
            ("1,1,1.0\n1,4,1.0\n", "line 2: location_id 4 outside 1..3"),
            ("1,1,1.0\n\n0,1,1.0\n", "line 3: slot id 0 must be >= 1"),
            ("1,1,1.0\n13,1,1.0\n", "line 2: slot id 13 exceeds horizon 12"),
            ("1,1,1.0\n2,2,1.0\n1,1,2.0\n", "line 3: duplicate t=1, location_id=1 of line 1"),
            ("1,1,1.0\nt,location_id,intensity\n", "line 2: non-numeric field"),
        ],
    )
    def test_values_loadtxt_parses_still_raise_naming_the_line(self, tmp_path, body, message):
        path = tmp_path / "trace.csv"
        path.write_text(body)
        with pytest.raises(ValueError, match=message):
            load_trace_csv(path, n_locations=3, horizon=12)

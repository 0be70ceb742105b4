"""Per-slot demand traces and the period/zone/window calendar.

Slots are numbered 1..T throughout; zone ids are 1..K. The horizon splits
into P periods of K zones, each zone holding Z consecutive slots per
period, and window k collects zone k's slots across all periods.
"""

from __future__ import annotations

import csv
import sys
import warnings
from array import array
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class TrafficTrace:
    """demand[t-1, i] is the intensity at location i in slot t; a caller's array is copied."""

    demand: np.ndarray  # (horizon, n_locations), packets/second, >= 0

    def __post_init__(self, copy: bool = True):
        demand = np.array(self.demand, dtype=float, copy=copy)
        if demand.ndim != 2:
            raise ValueError("demand must be a horizon x n_locations matrix")
        if not np.all(np.isfinite(demand)) or np.any(demand < 0):
            raise ValueError("demand entries must be finite and non-negative")
        demand.setflags(write=False)
        object.__setattr__(self, "demand", demand)

    @property
    def horizon(self) -> int:
        return self.demand.shape[0]

    @property
    def n_locations(self) -> int:
        return self.demand.shape[1]

    @property
    def max_intensity(self) -> float:
        return float(self.demand.max()) if self.demand.size else 0.0


def _adopt(demand: np.ndarray) -> TrafficTrace:
    """A trace holding `demand` itself, a float array this module built and nothing else holds."""
    trace = object.__new__(TrafficTrace)
    object.__setattr__(trace, "demand", demand)
    trace.__post_init__(copy=False)  # the checks, without the copy
    return trace


@dataclass(frozen=True)
class TimePartition:
    """Calendar with horizon = periods * zones * slots_per_zone, slots 1-based."""

    periods: int
    zones: int
    slots_per_zone: int

    def __post_init__(self):
        for name in ("periods", "zones", "slots_per_zone"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive count")

    @property
    def horizon(self) -> int:
        return self.periods * self.zones * self.slots_per_zone

    def calendar(self, series: np.ndarray) -> np.ndarray:
        """The (horizon, ...) series viewed as (periods, zones, slots_per_zone, ...)."""
        series = np.asarray(series)
        if series.shape[0] != self.horizon:
            raise ValueError(f"partition horizon {self.horizon} != series length {series.shape[0]}")
        return series.reshape(self.periods, self.zones, self.slots_per_zone, *series.shape[1:])

    def by_window(self, series: np.ndarray) -> np.ndarray:
        """(zones, ..., periods * slots_per_zone): window k's values in calendar order last."""
        stack = np.moveaxis(self.calendar(series), (0, 2), (-2, -1))
        return stack.reshape(*stack.shape[:-2], -1)

    def by_slot(self, stack: np.ndarray) -> np.ndarray:
        """Inverse of `by_window`: back to (horizon, ...) in slot order."""
        stack = np.asarray(stack)
        split = stack.reshape(*stack.shape[:-1], self.periods, self.slots_per_zone)
        return np.moveaxis(split, (-2, -1), (0, 2)).reshape(self.horizon, *stack.shape[1:-1])

    def window(self, k: int) -> np.ndarray:
        """Ordered 1-based slots of zone k across all periods."""
        if not 1 <= k <= self.zones:
            raise IndexError(f"zone {k} outside 1..{self.zones}")
        return self.windows()[k - 1]

    def windows(self) -> list[np.ndarray]:
        return list(self.by_window(np.arange(1, self.horizon + 1)))


def build_partition(horizon: int, zones: int, slots_per_zone: int) -> TimePartition:
    """Partition the horizon; rejects horizons that leave a partial period."""
    if horizon <= 0 or zones <= 0 or slots_per_zone <= 0:
        raise ValueError("horizon, zones and slots_per_zone must be positive")
    block = zones * slots_per_zone
    if horizon % block != 0:
        raise ValueError(
            f"horizon {horizon} is not divisible by zones*slots_per_zone = {block}"
        )
    return TimePartition(periods=horizon // block, zones=zones, slots_per_zone=slots_per_zone)


SHAPES = ("sinusoidal", "flat")  # time-of-day shapes of the synthetic generator


@dataclass(frozen=True)
class SyntheticProfile:
    """Shape parameters of the periodic synthetic generator.

    Intensities follow base_i * shape(time of day) * (1 + noise) with noise
    uniform in [-sigma, sigma]; sigma < 1 keeps everything positive before
    the final clamp at zero.
    """

    slots_per_day: int
    base_min: float = 0.5
    base_max: float = 1.5
    shape: str = "sinusoidal"  # one of SHAPES
    amplitude: float = 0.6
    sigma: float = 0.1

    def __post_init__(self):
        if self.slots_per_day < 1:
            raise ValueError("slots_per_day must be a positive count")
        if not 0 < self.base_min <= self.base_max:
            raise ValueError("base intensities must satisfy 0 < base_min <= base_max")
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if not 0 <= self.amplitude <= 1:
            raise ValueError("amplitude must lie in [0, 1]")
        if not 0 <= self.sigma < 1:
            raise ValueError("sigma must lie in [0, 1)")


def generate_synthetic(
    n_locations: int, horizon: int, seed: int, profile: SyntheticProfile
) -> TrafficTrace:
    """Reproducible periodic demand; identical output for identical arguments."""
    if horizon <= 0 or n_locations <= 0:
        raise ValueError("horizon and n_locations must be positive")
    rng = np.random.default_rng(seed)
    base = rng.uniform(profile.base_min, profile.base_max, n_locations)
    day_phase = (np.arange(horizon) % profile.slots_per_day) / profile.slots_per_day
    if profile.shape == "sinusoidal":
        shape = 1.0 + profile.amplitude * np.sin(2.0 * np.pi * day_phase)
    else:
        shape = np.ones(horizon)
    demand = rng.uniform(-profile.sigma, profile.sigma, (horizon, n_locations))  # one buffer: noise,
    demand += 1.0  # then 1 + noise, then (base * shape) * (1 + noise), rounded in that order
    rows = max(1, 2**16 // n_locations)  # base * shape is formed in row blocks of about 2**16 entries
    for start in range(0, horizon, rows):
        demand[start : start + rows] *= base[None, :] * shape[start : start + rows, None]
    np.maximum(0.0, demand, out=demand)
    return _adopt(demand)


TRACE_HEADER = ("t", "location_id", "intensity")


def save_trace_csv(trace: TrafficTrace, path) -> None:
    """Write `t,location_id,intensity` rows (1-based ids), zeros omitted, as csv.writer would."""
    ts, locs = np.nonzero(trace.demand)
    with open(path, "w", newline="") as fh:
        fh.write(",".join(TRACE_HEADER) + "\r\n")  # CRLF line ends, floats by repr
        for start in range(0, ts.size, 2**12):  # 2**12 rows at a time keep the Python lists small
            t, i = ts[start : start + 2**12], locs[start : start + 2**12]
            rows = zip((t + 1).tolist(), (i + 1).tolist(), trace.demand[t, i].tolist())
            fh.write("".join(f"{a},{b},{v!r}\r\n" for a, b, v in rows))


def load_trace_csv(path, n_locations: int, horizon: int | None = None) -> TrafficTrace:
    """Read a `t,location_id,intensity` file; missing pairs default to 0.

    The horizon is inferred as the largest slot id unless given explicitly.
    Malformed or repeated rows raise with the offending 1-based line numbers.
    np.loadtxt reads a well-formed file at once; a file it rejects (quoted
    fields, digit separators, a stray header) or whose values fail a check
    is read again row by row, the only path that raises.
    """
    if n_locations <= 0:
        raise ValueError("n_locations must be positive")
    columns = _read_columns(path)
    if columns is None or not _clean(*columns, n_locations, horizon):
        columns = _read_rows(path, n_locations, horizon)
    slots, locs, values = columns
    rows = slots.max() if horizon is None else horizon
    try:
        demand = np.zeros((rows, n_locations))
    except MemoryError:
        raise ValueError(f"slot id {rows}: a {rows} x {n_locations} demand matrix is too large") from None
    demand[slots - 1, locs - 1] = values
    return _adopt(demand)


def _read_columns(path) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """(slots, locations, intensities) as parsed by np.loadtxt, or None where it fails or warns."""
    fields = [("t", np.int64), ("location_id", np.int64), ("intensity", float)]
    try:
        with open(path, newline="") as fh:
            header = fh.readline().rstrip("\r\n") == ",".join(TRACE_HEADER)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # an empty body warns
            rows = np.loadtxt(path, dtype=fields, delimiter=",", comments=None, skiprows=int(header), ndmin=1)
    except (ValueError, Warning):
        return None
    return tuple(np.ascontiguousarray(rows[name]) for name, _ in fields)


def _clean(slots, locs, values, n_locations: int, horizon: int | None) -> bool:
    """Whether the columns pass every check of `_read_rows`, duplicates included."""
    if not (slots.size and (slots >= 1).all() and (horizon is None or (slots <= horizon).all())):
        return False
    if not ((locs >= 1).all() and (locs <= n_locations).all()):
        return False
    if not (np.isfinite(values).all() and (values >= 0).all()):
        return False
    return _repeated(slots, locs) is None


def _repeated(slots, locs) -> tuple[int, int] | None:
    """Rows of the first two uses of the smallest repeated (t, location) pair, or None."""
    order = np.lexsort((locs, slots))  # stable, so equal pairs keep their row order
    hits = np.flatnonzero((np.diff(slots[order]) == 0) & (np.diff(locs[order]) == 0))
    return (int(order[hits[0]]), int(order[hits[0] + 1])) if hits.size else None


def _read_rows(path, n_locations: int, horizon: int | None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The columns read row by row; the first bad row raises with its line number."""
    last_slot = sys.maxsize if horizon is None else horizon
    # typed columns: 32 bytes a row, where a list of row tuples takes about 120
    lines, slots, locs, values = array("q"), array("q"), array("q"), array("d")
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row or (lineno == 1 and tuple(row) == TRACE_HEADER):
                continue
            if len(row) != 3:
                raise ValueError(f"line {lineno}: expected 3 fields, got {len(row)}")
            try:
                t = int(row[0])
                loc = int(row[1])
                value = float(row[2])
            except ValueError as exc:
                raise ValueError(f"line {lineno}: non-numeric field ({exc})") from None
            if t < 1:
                raise ValueError(f"line {lineno}: slot id {t} must be >= 1")
            if t > last_slot:
                raise ValueError(f"line {lineno}: slot id {t} exceeds horizon {last_slot}")
            if not 1 <= loc <= n_locations:
                raise ValueError(
                    f"line {lineno}: location_id {loc} outside 1..{n_locations}"
                )
            if not np.isfinite(value) or value < 0:
                raise ValueError(f"line {lineno}: intensity {value} must be >= 0")
            lines.append(lineno)
            slots.append(t)
            locs.append(loc)
            values.append(value)

    if horizon is None and not slots:
        raise ValueError("cannot infer horizon from an empty trace file")
    columns = np.frombuffer(slots, dtype=np.int64), np.frombuffer(locs, dtype=np.int64)
    repeated = _repeated(*columns)
    if repeated is not None:
        first, again = repeated
        raise ValueError(
            f"line {lines[again]}: duplicate t={slots[again]}, location_id={locs[again]} "
            f"of line {lines[first]}"
        )
    return (*columns, np.frombuffer(values))

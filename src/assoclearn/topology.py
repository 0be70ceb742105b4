"""Radio network model: access points, locations, and per-link service rates.

A topology is the immutable backbone of every experiment. It stores one
effective capacity per (AP, location) link, in packets/second, already
multiplied by the mean packet-size reciprocal so that downstream load
arithmetic is a single division. Neighborhood sets are derived from the
positive entries of that matrix.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

import numpy as np


def shannon_rate(
    signal_gain,
    own_power,
    interferer_gains_powers,
    bandwidth: float,
    noise_density: float,
):
    """Link rate in bits/s for a signal facing noise plus co-channel interference.

    rate = W * log2(1 + G*P / (W*N0 + sum_k Gk*Pk)) with the sum over
    interfering transmitters, accumulated in their order. Gains and powers
    may be arrays that broadcast together, for one rate per element.
    Deterministic; all inputs linear units.
    """
    if bandwidth <= 0:
        raise ValueError("bandwidth must be positive")
    if noise_density < 0:
        raise ValueError("noise_density must be non-negative")
    if np.any(signal_gain < 0) or np.any(own_power < 0):
        raise ValueError("gains and powers must be non-negative")
    interference = 0.0
    for gain, power in interferer_gains_powers:
        if np.any(gain < 0) or np.any(power < 0):
            raise ValueError("gains and powers must be non-negative")
        interference += gain * power
    sinr = signal_gain * own_power / (bandwidth * noise_density + interference)
    return bandwidth * np.log2(1.0 + sinr)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


@dataclass(frozen=True)
class RadioConfig:
    """Physical parameters for generating a topology from geometry.

    ap_positions: (n_aps, 2) coordinates, same units as the location grid.
    ap_power_dbm: per-AP transmit power (e.g. macro 43 dBm, micro 33 dBm).
    noise_dbm_per_hz: noise density on the dBm scale, converted internally.
    rate_threshold_bps: links with Shannon rate below this are pruned,
        relaxed per location so nobody is left without a serving AP.
    omega: mean packet-size reciprocal; service rates are stored as
        omega * rate so they read directly in packets/second.
    """

    ap_positions: np.ndarray
    ap_power_dbm: np.ndarray
    bandwidth_hz: float = 10e6
    noise_dbm_per_hz: float = -174.0
    path_loss_exponent: float = 3.0
    rate_threshold_bps: float = 0.0
    omega: float = 1.0
    min_distance: float = 1.0

    def __post_init__(self):
        pos = np.atleast_2d(np.asarray(self.ap_positions, dtype=float))
        pwr = np.atleast_1d(np.asarray(self.ap_power_dbm, dtype=float))
        object.__setattr__(self, "ap_positions", pos)
        object.__setattr__(self, "ap_power_dbm", pwr)
        if pos.shape[0] == 0:
            raise ValueError("at least one AP is required")
        if pos.ndim != 2 or pos.shape[1] != 2 or pwr.ndim != 1:
            raise ValueError("ap_positions must hold (x, y) pairs and ap_power_dbm numbers")
        if pos.shape[0] != pwr.shape[0]:
            raise ValueError("ap_positions and ap_power_dbm disagree on AP count")
        if self.bandwidth_hz <= 0 or self.omega <= 0 or self.min_distance <= 0:
            raise ValueError("physical quantities must be strictly positive")
        if self.path_loss_exponent < 2:
            raise ValueError("path_loss_exponent must be >= 2")
        if self.rate_threshold_bps < 0:
            raise ValueError("rate_threshold_bps must be non-negative")

    @property
    def n_aps(self) -> int:
        return self.ap_positions.shape[0]

    @property
    def noise_density_w_per_hz(self) -> float:
        return dbm_to_watts(self.noise_dbm_per_hz)

    @property
    def ap_power_watts(self) -> np.ndarray:
        return dbm_to_watts(self.ap_power_dbm)


@dataclass(frozen=True)
class Topology:
    """Immutable network: service_rate[j, i] > 0 iff AP j can serve location i."""

    service_rate: np.ndarray  # (n_aps, n_locations), packets/second, 0 = no link

    def __post_init__(self):
        rate = np.asarray(self.service_rate, dtype=float)
        if rate.ndim != 2 or rate.size == 0:
            raise ValueError("service_rate must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(rate)) or np.any(rate < 0):
            raise ValueError("service rates must be finite and non-negative")
        rate = rate.copy()
        rate.setflags(write=False)
        object.__setattr__(self, "service_rate", rate)
        orphans = np.flatnonzero(~(rate > 0).any(axis=0))
        if orphans.size:
            raise ValueError(
                f"locations {orphans.tolist()} have no serving AP"
            )

    @property
    def n_aps(self) -> int:
        return self.service_rate.shape[0]

    @property
    def n_locations(self) -> int:
        return self.service_rate.shape[1]

    @cached_property
    def support(self) -> np.ndarray:
        """Boolean (n_aps, n_locations) link-existence mask."""
        mask = self.service_rate > 0
        mask.setflags(write=False)
        return mask

    @cached_property
    def inverse_rate(self) -> np.ndarray:
        """1/service_rate on links, exactly 0 elsewhere. Hot path for loads."""
        inv = np.zeros_like(self.service_rate)
        np.divide(1.0, self.service_rate, out=inv, where=self.support)
        inv.setflags(write=False)
        return inv

    @cached_property
    def neighbor_table(self) -> np.ndarray:
        """(max APs per location, n_locations) AP indices: column i lists location
        i's serving APs in AP order, padded with APs that do not serve it."""
        degree = self.support.sum(axis=0).max()
        table = np.argsort(~self.support, axis=0, kind="stable")[:degree]
        table.setflags(write=False)
        return table

    @cached_property
    def neighbors_of_location(self) -> tuple:
        """For each location, the ordered AP indices that can serve it."""
        return tuple(np.flatnonzero(self.support[:, i]) for i in range(self.n_locations))

    @cached_property
    def neighbors_of_ap(self) -> tuple:
        """For each AP, the ordered location indices it can serve."""
        return tuple(np.flatnonzero(self.support[j, :]) for j in range(self.n_aps))


def grid_positions(nx: int, ny: int, spacing: float = 1.0) -> np.ndarray:
    """Regular (nx*ny, 2) grid of location coordinates, row-major."""
    if nx <= 0 or ny <= 0 or spacing <= 0:
        raise ValueError("grid dimensions and spacing must be positive")
    xs, ys = np.meshgrid(np.arange(nx) * spacing, np.arange(ny) * spacing)
    return np.column_stack([xs.ravel(), ys.ravel()]).astype(float)


def build_topology(config: RadioConfig, location_positions: np.ndarray) -> Topology:
    """Construct a topology from geometry.

    Gains follow a clamped power law G = max(d, min_distance)**(-path_loss_exponent),
    link rates come from `shannon_rate` with every other AP as an interferer,
    and links whose rate falls below the threshold are pruned. A location that
    would lose all links keeps its single strongest one instead.
    """
    positions = np.atleast_2d(np.asarray(location_positions, dtype=float))
    if positions.shape[0] == 0:
        raise ValueError("at least one location is required")
    n_aps = config.n_aps

    d = np.linalg.norm(
        config.ap_positions[:, None, :] - positions[None, :, :], axis=2
    )
    gains = np.maximum(d, config.min_distance) ** (-config.path_loss_exponent)
    powers = config.ap_power_watts
    # AP k interferes on the links of every AP j != k; a zero gain stands in
    # for k = j, so each link sums its interferers in AP order
    others = ~np.eye(n_aps, dtype=bool)[:, :, None]
    interferers = ((np.where(others[:, k], gains[k], 0.0), powers[k]) for k in range(n_aps))
    rates = shannon_rate(
        gains, powers[:, None], interferers, config.bandwidth_hz, config.noise_density_w_per_hz
    )

    keep = rates >= config.rate_threshold_bps
    # Relax the threshold per location rather than orphan it.
    orphans = np.flatnonzero(~keep.any(axis=0))
    keep[rates[:, orphans].argmax(axis=0), orphans] = True
    service = np.where(keep & (rates > 0), config.omega * rates, 0.0)
    return Topology(service_rate=service)


def max_degrees(topology: Topology) -> tuple[int, int]:
    """(max locations served by one AP, max APs serving one location)."""
    per_ap = topology.support.sum(axis=1)
    per_loc = topology.support.sum(axis=0)
    return int(per_ap.max()), int(per_loc.max())


def topology_to_dict(topology: Topology) -> dict:
    return {
        "n_locations": topology.n_locations,
        "n_aps": topology.n_aps,
        "service_rate": [
            [float(x) for x in row] for row in topology.service_rate
        ],
    }


def topology_from_dict(doc: dict) -> Topology:
    try:
        rate = np.asarray(doc["service_rate"], dtype=float)
        counts = (doc["n_aps"], doc["n_locations"])
    except (KeyError, TypeError) as exc:
        raise ValueError(
            f"topology must be an object with n_aps, n_locations and service_rate ({exc!r})"
        ) from None
    if rate.shape != counts:
        raise ValueError("service_rate shape disagrees with declared counts")
    return Topology(service_rate=rate)


def save_topology_json(topology: Topology, path) -> None:
    Path(path).write_text(
        json.dumps(topology_to_dict(topology), sort_keys=True, indent=1) + "\n"
    )


def load_topology_json(path) -> Topology:
    return topology_from_dict(json.loads(Path(path).read_text()))

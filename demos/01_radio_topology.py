"""Build a radio topology from geometry and inspect it.

A macro AP in the middle of a 5x5 block of locations, four micro APs in
the corners. Link rates follow the Shannon formula with distance-based
path loss and co-channel interference; weak links are pruned but every
location keeps at least its strongest AP.
"""

import os
import tempfile

import numpy as np

import assoclearn as al

radio = al.RadioConfig(
    ap_positions=np.array(
        [[200.0, 200.0], [50.0, 50.0], [350.0, 50.0], [50.0, 350.0], [350.0, 350.0]]
    ),
    ap_power_dbm=np.array([43.0, 33.0, 33.0, 33.0, 33.0]),
    bandwidth_hz=10e6,
    noise_dbm_per_hz=-174.0,
    path_loss_exponent=3.0,
    rate_threshold_bps=8e5,
    omega=3e-7,  # converts bits/s into packets/s of mean-size packets
)
locations = al.grid_positions(5, 5, 100.0)
topology = al.build_topology(radio, locations)

print(f"{topology.n_aps} APs serving {topology.n_locations} locations")
m_loc, m_ap = al.max_degrees(topology)
print(f"busiest AP covers {m_loc} locations; best-covered location sees {m_ap} APs")

for i in (0, 12, 24):
    aps = np.flatnonzero(topology.support[:, i])
    rates = topology.service_rate[aps, i]
    pairs = ", ".join(f"AP{j} at {r:.2f} pkt/s" for j, r in zip(aps, rates))
    print(f"location {i:2d}: {pairs}")

# topologies serialize to a plain JSON document and reload identically
path = os.path.join(tempfile.gettempdir(), "demo_topology.json")
al.save_topology_json(topology, path)
reloaded = al.load_topology_json(path)
assert np.array_equal(reloaded.service_rate, topology.service_rate)
print(f"saved and reloaded from {path}")

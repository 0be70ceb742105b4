"""Run the windowed online learner against a diurnal demand pattern.

Policies are decided before each slot's demand is revealed. The first
slot of every window plays the uniform split; afterwards each window's
thread advances by one multiplicative step from the gradient it stored a
window-slot earlier. Watch the played cost approach the per-slot optimum
as the threads specialize to their time of day.
"""

import numpy as np

import assoclearn as al

topology = al.Topology(
    service_rate=np.array(
        [
            [3.0, 3.0, 3.0, 0.0, 0.0, 0.0],
            [0.0, 0.0, 3.0, 3.0, 3.0, 0.0],
            [1.5, 1.5, 0.0, 1.5, 1.5, 1.5],
        ]
    )
)
horizon, day = 240, 48
profile = al.SyntheticProfile(slots_per_day=day, base_min=0.3, base_max=0.6,
                              amplitude=0.8, sigma=0.05)
trace = al.generate_synthetic(topology.n_locations, horizon, seed=3, profile=profile)
partition = al.build_partition(horizon, 8, day // 8)
params = al.CostParams(alpha=2.0, rho0=0.8)

run = al.run_online(topology, trace, partition, params, al.LearnerConfig(eta=0.5))
log = run.log

print(f"{horizon} slots, {partition.zones} windows, eta=0.5")
print(f"links the final zone policies play as exactly 0: {log.support_loss_events}")
print(f"threshold violations: {al.violation_counts(log.loads, log.rho0)} (slot-AP pairs, slots)")

# day-by-day average cost: the first day pays for the uniform restarts
per_day = log.costs.reshape(-1, day).mean(axis=1)
for d, value in enumerate(per_day, start=1):
    print(f"  day {d}: mean cost {value:.4f}")

best = al.solve_dynamic(topology, trace, params)
ideal = best.total_objective / horizon
print(f"per-slot hindsight optimum averages {ideal:.4f}; "
      f"last day is within {per_day[-1] - ideal:.4f} of it")

"""Synthetic demand traces and the period/zone/window calendar.

The horizon splits into periods (think days), each period into zones
(think hours-of-day), and window k collects zone k's slots across all
periods. The online learner keeps one update thread per window; the
benchmark fits one static policy per window.
"""

import os
import tempfile

import assoclearn as al

# the classic toy calendar: 18 slots, 3 periods, 2 zones of 3 slots
partition = al.build_partition(18, 2, 3)
print(f"periods={partition.periods} zones={partition.zones} slots/zone={partition.slots_per_zone}")
for k in (1, 2):
    print(f"  window {k}: {partition.window(k).tolist()}")

# the engine reads every per-slot series through this calendar: by_window
# stacks window k's values in calendar order, by_slot restores slot order
stack = partition.by_window(range(1, 19))
print(f"  by_window rows: {stack.tolist()}")
assert partition.by_slot(stack).tolist() == list(range(1, 19))

for t in (1, 4, 7, 18):
    zone = next(k for k in (1, 2) if t in partition.window(k))
    rank = list(partition.window(zone)).index(t) + 1
    marker = " (opens its window)" if rank == 1 else ""
    print(f"  slot {t:2d} -> zone {zone}, visit {rank} of that window{marker}")

# a reproducible diurnal trace: per-location base rates, a sinusoidal
# day shape, and bounded multiplicative noise
profile = al.SyntheticProfile(
    slots_per_day=24, base_min=0.5, base_max=1.5, amplitude=0.6, sigma=0.1
)
trace = al.generate_synthetic(n_locations=4, horizon=72, seed=11, profile=profile)
print(f"\ntrace: {trace.horizon} slots x {trace.n_locations} locations, "
      f"peak intensity {trace.max_intensity:.2f}")
print("total demand by slot (first day):")
print("  " + " ".join(f"{trace.demand[t].sum():.1f}" for t in range(24)))

path = os.path.join(tempfile.gettempdir(), "demo_trace.csv")
al.save_trace_csv(trace, path)
same = al.load_trace_csv(path, n_locations=4, horizon=72)
assert (same.demand == trace.demand).all()
print("CSV round trip exact")

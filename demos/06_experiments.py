"""Config-driven experiments: the programmatic twin of the command line.

Everything the `assoclearn` CLI does is a thin wrapper over
`parse_config`, `evaluate`, `run_experiment`, and `run_sweep`.
`evaluate` takes a list of configs and returns, for each, its online run,
benchmarks and regret report (or the config error that stopped it) without
writing a file; `run_experiment` writes one such evaluation and computes
nothing. Outputs are pure functions of config plus seed, and the
manifest records a content hash for every file written.

Equivalent shell commands:
    assoclearn validate --config config.json
    assoclearn run      --config config.json --out out/
    assoclearn sweep    --config config.json --out sweep_out/ --jobs 4
    assoclearn gen-topology --config config.json --out topology.json
    assoclearn gen-trace    --config config.json --out trace.csv
"""

import json
import tempfile
from pathlib import Path

from assoclearn.cli import (
    build_experiment_topology,
    build_experiment_trace,
    evaluate,
    parse_config,
    run_experiment,
    run_sweep,
)

config_doc = {
    "seed": 2024,
    "topology": {
        "source": "generate",
        "grid": {"nx": 4, "ny": 4, "spacing": 100.0},
        "radio": {
            "ap_positions": [[150.0, 150.0], [50.0, 250.0], [250.0, 50.0]],
            "ap_power_dbm": [43.0, 33.0, 33.0],
            "rate_threshold_bps": 8e5,
            "omega": 3e-7,
        },
    },
    "traffic": {
        "source": "synthetic",
        "horizon": 480,
        "profile": {"slots_per_day": 96, "amplitude": 0.7, "sigma": 0.1},
    },
    "partition": {"zones": 8, "slots_per_zone": 12},
    "cost": {"alpha": 0.0, "rho0": 1.0, "psi": 1.0},
    "eta": "auto",
    "sweep": {"zones": [2, 8, 24], "rho0": [0.5, 1.0]},
}

workdir = Path(tempfile.mkdtemp(prefix="assoclearn_demo_"))

config = parse_config(config_doc)
topology = build_experiment_topology(config)
trace = build_experiment_trace(config, topology)
(evaluation,) = evaluate([config], topology, trace)
print("single run, in memory:")
print(f"  auto-resolved eta = {evaluation.report.eta_used:.5f}")
print(f"  regret = {evaluation.report.regret:.4f}")
print(f"  benchmarks = {sorted(evaluation.benchmarks)}")

# the same evaluation written to disk; nothing is learned or solved again
run_experiment(config, evaluation, workdir / "single", raw_config=config_doc)
manifest = json.loads((workdir / "single" / "manifest.json").read_text())
print(f"single run written to {workdir / 'single'}")
for entry in manifest["outputs"]:
    print(f"  wrote {entry['path']} (sha256 {entry['sha256'][:12]}...)")

csv_path = run_sweep(config, workdir / "sweep", jobs=2)
print(f"\nsweep table {csv_path}:")
print(csv_path.read_text())

report = json.loads((workdir / "single" / "regret.json").read_text())
print(f"regret.json carries a {len(report['prefix_regret'])}-point regret curve "
      "for external plotting")

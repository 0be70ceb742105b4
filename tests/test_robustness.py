"""Every config that `validate` accepts either runs or exits 2 naming a key.

Forty small configs (3 APs, 9 locations, 48 slots) are drawn from stdlib
`random.Random(seed)` over extreme values: alpha up to 300, rho0 next to 0
and 1, psi from 1e-12 to 1e6, eta from 1e-300 to 1e300, base demands from
1e-300 to 1e12, AP powers from -300 to 300 dBm and grid spacings from 1e-9
to 1e6, over four calendars and the optional static and dynamic
benchmarks. Each runs through `main(["run", ...])` with the solver capped.
Exit 2 must name a key of `SCHEMA`. Exit 0 must leave strict JSON, a regret
equal to the online minus the benchmark total, an upper bound at least the
regret, column-stochastic benchmark policies on the topology's support,
and a manifest whose hashes match. Any other exit, or an exception, fails.
Every fourth config also runs with every solve split over two forked
workers, which must exit, report and write exactly as the one-stack run.

Their solver cap keeps every window short of the Newton finish, so twelve
more configs on CI's split network (6 APs, 25 locations; 48 slots, at most
120 iterations) set their demands from its rates, four of each kind: AP
loads near rho0 at alpha 1 or 2, tiny (near-linear) loads, both at a gap
target of 1e-9, and alpha 100 or 140 with rho0 = 0.99. Each must reach the
Newton finish, meet the same properties, and write the same bytes with
every solve split.
"""

import hashlib
import json
import random
import re

import numpy as np
import pytest
from test_cli import strict_json_outputs

from assoclearn import benchmark, cli
from assoclearn.learner import fork_map

CALENDARS = [(1, 1), (24, 1), (1, 48), (4, 6)]
SPLIT_SEEDS = range(0, 40, 4)  # run a second time with every solve on two workers
# every name a config error may give: each section and each key, as "section.key"
KEYS = {
    name
    for path, table in cli.SCHEMA.items()
    for section in [path.split(":")[0]]
    for name in [section, *(f"{section}.{key}" if section else key for key in table)]
    if name
}


def log_uniform(rng, low, high):
    """10 to a uniform power between low and high."""
    return 10.0 ** rng.uniform(low, high)


def draw_config(seed: int) -> dict:
    rng = random.Random(seed)
    zones, slots_per_zone = rng.choice(CALENDARS)
    alpha = rng.choice([0.0, rng.uniform(0.0, 3.0), rng.uniform(0.0, 300.0)])
    rho0 = rng.choice([1e-6, rng.uniform(0.0, 1.0), 1.0 - 1e-6, 1.0])
    base_min = log_uniform(rng, -300, 12)
    return {
        "seed": seed,
        "topology": {
            "source": "generate",
            "grid": {"nx": 3, "ny": 3, "spacing": log_uniform(rng, -9, 6)},
            "radio": {
                "ap_positions": [[0.0, 0.0], [2.0, 0.0], [0.0, 2.0]],
                "ap_power_dbm": [rng.uniform(-300.0, 300.0) for _ in range(3)],
            },
        },
        "traffic": {
            "source": "synthetic",
            "horizon": 48,
            "profile": {"slots_per_day": 24, "base_min": base_min, "base_max": base_min * rng.uniform(1.0, 3.0)},
        },
        "partition": {"zones": zones, "slots_per_zone": slots_per_zone},
        "cost": {"alpha": alpha, "rho0": rho0, "psi": log_uniform(rng, -12, 6)},
        "eta": rng.choice(["auto", log_uniform(rng, -300, 300)]),
        "solver": {"max_iterations": 40},
        "benchmarks": {"static": rng.random() < 0.5, "dynamic": rng.random() < 0.5},
    }


def draw_newton_config(seed: int) -> dict:
    """A config whose windows reach the Newton finish; see the module docstring."""
    rng = random.Random(seed)
    kind = ("near", "tiny", "steep")[seed % 3]
    alpha = rng.choice([100.0, 140.0] if kind == "steep" else [1.0, 2.0])
    rho0 = 0.99 if kind == "steep" else rng.uniform(0.6, 0.95)
    load = {"near": rho0 * rng.uniform(0.7, 1.3), "tiny": 10 ** rng.uniform(-4, -2), "steep": rng.uniform(0.3, 1.0)}
    zones, slots_per_zone = rng.choice([(1, 48), (4, 6), (24, 1)])
    doc = {
        "seed": seed,
        "topology": {
            "source": "generate",
            "grid": {"nx": 5, "ny": 5, "spacing": 100.0},
            "radio": {  # CI's split network
                "ap_positions": [[200, 200], [50, 50], [350, 50], [50, 350], [350, 350], [200, 0]],
                "ap_power_dbm": [43, 33, 33, 33, 33, 33],
            },
        },
        "traffic": {"source": "synthetic", "horizon": 48, "profile": {"slots_per_day": 24}},
        "partition": {"zones": zones, "slots_per_zone": slots_per_zone},
        "cost": {"alpha": alpha, "rho0": rho0},
        "solver": {"max_iterations": 120, "tolerance": 1e-6 if kind == "steep" else 1e-9},
        "benchmarks": {"static": rng.random() < 0.5, "dynamic": rng.random() < 0.5},
    }
    topology = cli.build_experiment_topology(cli.parse_config(doc))
    # base demand 1 gives each AP about this load on the uniform split
    unit = float((topology.inverse_rate * topology.support / topology.support.sum(axis=0)).sum(axis=1).mean())
    doc["traffic"]["profile"].update(base_min=load[kind] / unit, base_max=1.5 * load[kind] / unit)
    return doc


def written(out) -> dict:
    return {p.name: p.read_bytes() for p in out.iterdir()} if out.exists() else {}


@pytest.mark.parametrize("seed", range(40))
def test_accepted_config_runs_or_names_a_key(seed, tmp_path, capsys, monkeypatch):
    run_and_check(draw_config(seed), seed in SPLIT_SEEDS, tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("seed", range(12))
def test_newton_finish_configs_run(seed, tmp_path, capsys, monkeypatch):
    trials, finish = [], benchmark._newton_finish
    monkeypatch.setattr(benchmark, "_newton_finish", lambda *args: trials.append(len(args[4])) or finish(*args))
    run_and_check(draw_newton_config(seed), True, tmp_path, capsys, monkeypatch)
    assert trials


def run_and_check(doc, split, tmp_path, capsys, monkeypatch):
    """Run doc; with split, again with every solve dealt to two workers. Then check the outputs."""
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = cli.main(["run", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    if split:  # again, each solve dealt to two workers
        forks = []
        monkeypatch.setattr(benchmark, "SPLIT_ENTRIES", 0)
        monkeypatch.setattr(benchmark, "usable_cores", lambda: 2)
        monkeypatch.setattr(benchmark, "fork_map", lambda *args: forks.append(args[2]) or fork_map(*args))
        split = tmp_path / "split"
        assert cli.main(["run", "--config", str(path), "--out", str(split)]) == code
        assert capsys.readouterr().err == err
        assert written(split) == written(out)
        if code == cli.EXIT_OK and (doc["partition"]["zones"] > 1 or doc["benchmarks"]["dynamic"]):
            assert 2 in forks
    if code == cli.EXIT_CONFIG:
        named = re.search(r"key '([^']+)'", err)
        assert named and named.group(1) in KEYS, err
        return
    assert code == cli.EXIT_OK, err

    outputs = strict_json_outputs(out)
    report = outputs["regret.json"]
    assert report["regret"] == report["total_online_cost"] - report["total_benchmark_cost"]
    assert report["regret_upper"] >= report["regret"]

    support = cli.build_experiment_topology(cli.parse_config(doc)).support
    for name, solution in outputs.items():
        if name.startswith("benchmark"):
            policies = np.array(solution["zone_policies"])
            assert (policies >= 0).all() and not policies[:, ~support].any(), name
            np.testing.assert_allclose(policies.sum(axis=1), 1.0, rtol=1e-9, err_msg=name)

    for entry in outputs["manifest.json"]["outputs"]:
        assert hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest() == entry["sha256"]

"""Experiment runner: configuration loading, single runs, and parameter sweeps.

A single JSON document describes one experiment: where the topology and
the demand trace come from, the zone calendar, cost parameters, the step
size (a number or "auto" for the bound-minimizing value), and optional
sweep lists. Outputs are deterministic functions of config plus seed:
per-slot run log as CSV, regret report and benchmark solution as JSON,
and a manifest listing every written file with its content hash.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import (
    BenchmarkSolution,
    SolverConfig,
    solve_dynamic,
    solve_periodic_static,
    solve_static,
)
from .cost import CostParams, lipschitz_bound
from .learner import LearnerConfig, run_online
from .metrics import (
    count_violations,
    regret,
    runlog_to_csv,
    theoretical_bound,
)
from .topology import (
    RadioConfig,
    Topology,
    build_topology,
    grid_positions,
    load_topology_json,
    max_degrees,
    save_topology_json,
)
from .traffic import (
    SyntheticProfile,
    TrafficTrace,
    build_partition,
    generate_synthetic,
    load_trace_csv,
    save_trace_csv,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3


class ConfigError(ValueError):
    """Invalid experiment configuration; message names the offending key."""


def _get(doc: dict, key: str, kind, where: str, default=...):
    if key not in doc:
        if default is not ...:
            return default
        raise ConfigError(f"missing key '{where}.{key}'")
    value = doc[key]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)
    if not isinstance(value, kind) or isinstance(value, bool) and kind is not bool:
        raise ConfigError(f"key '{where}.{key}' must be {getattr(kind, '__name__', kind)}")
    return value


@dataclass
class ExperimentConfig:
    """Validated experiment description; see `parse_config`."""

    seed: int
    topology_source: dict
    traffic_source: dict
    zones: int
    slots_per_zone: int
    cost: CostParams
    eta: object  # float or the string "auto"
    solver: SolverConfig
    benchmark_static: bool
    benchmark_dynamic: bool
    sweep_lists: dict


def parse_config(doc: dict) -> ExperimentConfig:
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    seed = _get(doc, "seed", int, "config", default=0)

    topo = _get(doc, "topology", dict, "config")
    source = _get(topo, "source", str, "topology")
    if source == "generate":
        _get(topo, "radio", dict, "topology")
        _get(topo, "grid", dict, "topology")
    elif source == "file":
        _get(topo, "path", str, "topology")
    else:
        raise ConfigError("key 'topology.source' must be 'generate' or 'file'")

    traffic = _get(doc, "traffic", dict, "config")
    tsource = _get(traffic, "source", str, "traffic")
    if tsource == "synthetic":
        _get(traffic, "horizon", int, "traffic")
        _get(traffic, "profile", dict, "traffic")
    elif tsource == "csv":
        _get(traffic, "path", str, "traffic")
        _get(traffic, "n_locations", int, "traffic")
    else:
        raise ConfigError("key 'traffic.source' must be 'synthetic' or 'csv'")

    part = _get(doc, "partition", dict, "config")
    zones = _get(part, "zones", int, "partition")
    slots_per_zone = _get(part, "slots_per_zone", int, "partition")
    if zones < 1 or slots_per_zone < 1:
        raise ConfigError("keys 'partition.zones' and 'partition.slots_per_zone' must be positive")

    cost_doc = _get(doc, "cost", dict, "config")
    try:
        cost = CostParams(
            alpha=_get(cost_doc, "alpha", float, "cost"),
            rho0=_get(cost_doc, "rho0", float, "cost", default=1.0),
            psi=_get(cost_doc, "psi", float, "cost", default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"key 'cost': {exc}") from None

    eta = doc.get("eta", "auto")
    if isinstance(eta, bool) or not isinstance(eta, (int, float, str)):
        raise ConfigError("key 'eta' must be a positive number or 'auto'")
    if isinstance(eta, str):
        if eta != "auto":
            raise ConfigError("key 'eta' must be a positive number or 'auto'")
    else:
        eta = float(eta)
        if eta <= 0:
            raise ConfigError("key 'eta' must be a positive number or 'auto'")

    solver_doc = _get(doc, "solver", dict, "config", default={})
    try:
        solver = SolverConfig(
            max_iterations=_get(solver_doc, "max_iterations", int, "solver", default=10_000),
            tolerance=_get(solver_doc, "tolerance", float, "solver", default=1e-6),
        )
    except ValueError as exc:
        raise ConfigError(f"key 'solver': {exc}") from None

    bench = _get(doc, "benchmarks", dict, "config", default={})
    benchmark_static = _get(bench, "static", bool, "benchmarks", default=False)
    benchmark_dynamic = _get(bench, "dynamic", bool, "benchmarks", default=False)

    sweep_doc = _get(doc, "sweep", dict, "config", default={})
    sweep_lists = {}
    for key in ("zones", "rho0", "alpha", "eta"):
        if key in sweep_doc:
            values = sweep_doc[key]
            if not isinstance(values, list) or not values:
                raise ConfigError(f"key 'sweep.{key}' must be a nonempty list")
            sweep_lists[key] = values

    return ExperimentConfig(
        seed=seed,
        topology_source=topo,
        traffic_source=traffic,
        zones=zones,
        slots_per_zone=slots_per_zone,
        cost=cost,
        eta=eta,
        solver=solver,
        benchmark_static=benchmark_static,
        benchmark_dynamic=benchmark_dynamic,
        sweep_lists=sweep_lists,
    )


def load_config(path, seed_override: int | None = None) -> tuple[ExperimentConfig, dict]:
    try:
        doc = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if seed_override is not None:
        doc = dict(doc)
        doc["seed"] = seed_override
    return parse_config(doc), doc


def _radio_from_section(section: dict) -> RadioConfig:
    try:
        return RadioConfig(
            ap_positions=np.asarray(_get(section, "ap_positions", list, "topology.radio")),
            ap_power_dbm=np.asarray(_get(section, "ap_power_dbm", list, "topology.radio")),
            bandwidth_hz=_get(section, "bandwidth_hz", float, "topology.radio", default=10e6),
            noise_dbm_per_hz=_get(section, "noise_dbm_per_hz", float, "topology.radio", default=-174.0),
            path_loss_exponent=_get(section, "path_loss_exponent", float, "topology.radio", default=3.0),
            rate_threshold_bps=_get(section, "rate_threshold_bps", float, "topology.radio", default=0.0),
            omega=_get(section, "omega", float, "topology.radio", default=1.0),
        )
    except ValueError as exc:
        raise ConfigError(f"key 'topology.radio': {exc}") from None


def build_experiment_topology(config: ExperimentConfig) -> Topology:
    section = config.topology_source
    if section["source"] == "file":
        try:
            return load_topology_json(section["path"])
        except ValueError as exc:
            raise ConfigError(f"key 'topology.path': {exc}") from None
    radio = _radio_from_section(section["radio"])
    grid = section["grid"]
    positions = grid_positions(
        _get(grid, "nx", int, "topology.grid"),
        _get(grid, "ny", int, "topology.grid"),
        _get(grid, "spacing", float, "topology.grid", default=1.0),
    )
    return build_topology(radio, positions)


def build_experiment_trace(config: ExperimentConfig, topology: Topology):
    section = config.traffic_source
    if section["source"] == "csv":
        try:
            trace = load_trace_csv(
                section["path"],
                n_locations=section["n_locations"],
                horizon=section.get("horizon"),
            )
        except ValueError as exc:
            raise ConfigError(f"key 'traffic.path': {exc}") from None
    else:
        profile_doc = section["profile"]
        try:
            profile = SyntheticProfile(
                slots_per_day=_get(profile_doc, "slots_per_day", int, "traffic.profile"),
                base_min=_get(profile_doc, "base_min", float, "traffic.profile", default=0.5),
                base_max=_get(profile_doc, "base_max", float, "traffic.profile", default=1.5),
                shape=_get(profile_doc, "shape", str, "traffic.profile", default="sinusoidal"),
                amplitude=_get(profile_doc, "amplitude", float, "traffic.profile", default=0.6),
                sigma=_get(profile_doc, "sigma", float, "traffic.profile", default=0.1),
            )
        except ValueError as exc:
            raise ConfigError(f"key 'traffic.profile': {exc}") from None
        trace = generate_synthetic(
            topology.n_locations, section["horizon"], config.seed, profile
        )
    if trace.n_locations != topology.n_locations:
        raise ConfigError(
            "key 'traffic': trace has "
            f"{trace.n_locations} locations but the topology has {topology.n_locations}"
        )
    return trace


def resolve_eta(
    config_eta, topology: Topology, trace, zones: int, params: CostParams
) -> tuple[float, str | None]:
    """Turn an 'auto' step size into the bound-minimizing value."""
    if config_eta != "auto":
        return float(config_eta), None
    lipschitz = lipschitz_bound(topology, trace.max_intensity, params)
    m_loc, m_ap = max_degrees(topology)
    bound = theoretical_bound(
        zones, trace.horizon, lipschitz, 1.0, m_loc, m_ap, topology.n_locations
    )
    if bound.eta_star is None or bound.eta_star == 0.0:
        return 1.0, bound.note or "degenerate"
    return bound.eta_star, None


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _solve(solved: dict, key: tuple, solve, *args) -> BenchmarkSolution:
    """The hindsight solution kept under key, solved on first use."""
    if key not in solved:
        try:
            solved[key] = solve(*args)
        except ValueError as exc:
            raise ConfigError(f"key 'traffic': {exc}") from None
    return solved[key]


def run_experiment(
    config: ExperimentConfig,
    out_dir,
    raw_config: dict | None = None,
    inputs: tuple[Topology, TrafficTrace] | None = None,
    solved: dict | None = None,
) -> dict:
    """Execute one configuration and write its artifacts into out_dir.

    A sweep passes the (topology, trace) it built once as inputs, and one
    `solved` dict for all its combinations: hindsight solutions are kept
    there under a key of everything they depend on (never eta), so
    combinations with equal keys share one solve. Returns the manifest
    dictionary (also written as manifest.json).
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    if inputs is None:
        topology = build_experiment_topology(config)
        inputs = topology, build_experiment_trace(config, topology)
    topology, trace = inputs
    try:
        partition = build_partition(trace.horizon, config.zones, config.slots_per_zone)
    except ValueError as exc:
        raise ConfigError(f"key 'partition': {exc}") from None

    solved = {} if solved is None else solved
    common = (config.cost, config.solver)
    benchmark = _solve(
        solved, (config.zones, config.slots_per_zone) + common,
        solve_periodic_static, topology, trace, partition, *common,
    )
    eta, eta_note = resolve_eta(config.eta, topology, trace, config.zones, config.cost)
    run = run_online(
        topology, trace, partition, config.cost, LearnerConfig(eta=eta)
    )
    report = regret(
        run.log.costs,
        benchmark,
        trace,
        partition,
        topology,
        config.cost,
        eta=eta,
        online_loads=run.log.loads,
        online_violations=count_violations(run.log),
    )

    written = []

    def _write_json(name: str, payload: dict):
        path = out / name
        path.write_text(json.dumps(payload, sort_keys=True, indent=1) + "\n")
        written.append(path)

    runlog_path = out / "runlog.csv"
    runlog_to_csv(run.log, runlog_path)
    written.append(runlog_path)
    _write_json("regret.json", report.to_dict())
    _write_json("benchmark.json", benchmark.to_dict())
    if config.benchmark_static:
        static = _solve(solved, ("static",) + common, solve_static, topology, trace, *common)
        _write_json("benchmark_static.json", static.to_dict())
    if config.benchmark_dynamic:
        dynamic = _solve(solved, ("dynamic",) + common, solve_dynamic, topology, trace, *common)
        _write_json("benchmark_dynamic.json", dynamic.to_dict())

    manifest = {
        "package_version": __version__,
        "config": raw_config if raw_config is not None else {},
        "resolved": {
            "seed": config.seed,
            "zones": config.zones,
            "slots_per_zone": config.slots_per_zone,
            "alpha": config.cost.alpha,
            "rho0": config.cost.rho0,
            "psi": config.cost.psi,
            "eta": eta,
            "eta_note": eta_note,
            "horizon": trace.horizon,
        },
        "summary": {
            "total_online_cost": report.total_online_cost,
            "total_benchmark_cost": report.total_benchmark_cost,
            "regret": report.regret,
            "bound_at_eta": report.bound_at_eta,
            "violations_online": list(report.violations_online),
            "violations_benchmark": list(report.violations_benchmark),
            "benchmark_converged": benchmark.all_converged,
        },
        "outputs": [
            {"path": p.name, "sha256": _sha256(p)} for p in sorted(written)
        ],
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=1) + "\n"
    )
    return manifest


SWEEP_COLUMNS = [
    "K",
    "rho0",
    "alpha",
    "eta",
    "total_online_cost",
    "total_benchmark_cost",
    "regret",
    "bound",
    "violations_online",
    "violations_benchmark",
    "error",
]


def _sweep_combos(config: ExperimentConfig) -> list[dict]:
    period = config.zones * config.slots_per_zone
    lists = config.sweep_lists
    zones_list = lists.get("zones", [config.zones])
    rho0_list = lists.get("rho0", [config.cost.rho0])
    alpha_list = lists.get("alpha", [config.cost.alpha])
    eta_list = lists.get("eta", [config.eta])
    combos = []
    for zones, rho0, alpha, eta in itertools.product(
        zones_list, rho0_list, alpha_list, eta_list
    ):
        if period % zones != 0:
            raise ConfigError(
                f"key 'sweep.zones': {zones} does not divide the period length {period}"
            )
        combos.append(
            {"zones": zones, "slots_per_zone": period // zones, "rho0": rho0,
             "alpha": alpha, "eta": eta}
        )
    return combos


def _combo_config(config: ExperimentConfig, combo: dict) -> ExperimentConfig:
    try:
        cost = CostParams(alpha=float(combo["alpha"]), rho0=float(combo["rho0"]), psi=config.cost.psi)
    except ValueError as exc:
        raise ConfigError(f"key 'sweep': {exc}") from None
    return replace(
        config,
        zones=int(combo["zones"]),
        slots_per_zone=int(combo["slots_per_zone"]),
        cost=cost,
        eta=combo["eta"],
        sweep_lists={},
    )


def _combo_dirname(combo: dict) -> str:
    return "K{zones}_rho{rho0}_alpha{alpha}_eta{eta}".format(**combo)


def _run_combos(args: tuple) -> list[tuple[dict, dict | None, str | None]]:
    """Run combinations in order on shared inputs and one store of solves."""
    config, inputs, combos, out_dir = args
    solved = {}
    results = []
    for combo in combos:
        try:
            sub = _combo_config(config, combo)
            out = Path(out_dir) / _combo_dirname(combo)
            results.append((combo, run_experiment(sub, out, inputs=inputs, solved=solved), None))
        except Exception as exc:  # recorded per row; the sweep keeps going
            results.append((combo, None, f"{type(exc).__name__}: {exc}"))
    return results


def _share_key(config: ExperimentConfig, combo: dict) -> str:
    """Combinations that may share a solve: every benchmark key holds the
    cost, and the periodic one the zones too. A group runs in one worker
    and keeps its solves until its last combination is done."""
    names = ["alpha", "rho0"]
    if not (config.benchmark_static or config.benchmark_dynamic):
        names.append("zones")
    return repr([combo[name] for name in names])


def run_sweep(config: ExperimentConfig, out_dir, jobs: int = 1) -> Path:
    """All sweep combinations; one consolidated CSV plus per-combo artifacts.

    The topology and trace are built once, before any combination runs, so
    an error in them ends the sweep. Combinations that could share a
    hindsight solve run as one group, so each distinct benchmark is solved
    once, also with jobs > 1.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    combos = _sweep_combos(config)
    topology = build_experiment_topology(config)
    inputs = topology, build_experiment_trace(config, topology)
    groups = {}
    for index, combo in enumerate(combos):
        groups.setdefault(_share_key(config, combo), []).append(index)
    tasks = [(config, inputs, [combos[i] for i in group], str(out)) for group in groups.values()]
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            done = list(pool.map(_run_combos, tasks))
    else:
        done = [_run_combos(task) for task in tasks]
    by_index = dict(zip(itertools.chain(*groups.values()), itertools.chain(*done)))
    results = [by_index[i] for i in range(len(combos))]

    rows = []
    for combo, manifest, error in results:
        if error is None:
            summary = manifest["summary"]
            resolved = manifest["resolved"]
            rows.append(
                [
                    combo["zones"],
                    combo["rho0"],
                    combo["alpha"],
                    resolved["eta"],
                    repr(summary["total_online_cost"]),
                    repr(summary["total_benchmark_cost"]),
                    repr(summary["regret"]),
                    repr(summary["bound_at_eta"]),
                    summary["violations_online"][0],
                    summary["violations_benchmark"][0],
                    "",
                ]
            )
        else:
            rows.append(
                [combo["zones"], combo["rho0"], combo["alpha"], combo["eta"],
                 "", "", "", "", "", "", error]
            )

    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows)
    return csv_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="assoclearn",
        description="Online user-association experiments and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, out_help):
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--seed", type=int, default=None, help="seed override")

    p_run = sub.add_parser("run", help="execute one experiment")
    add_common(p_run, "output directory")

    p_sweep = sub.add_parser("sweep", help="run every sweep combination")
    add_common(p_sweep, "output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel combinations")

    p_topo = sub.add_parser("gen-topology", help="write the generated topology JSON")
    add_common(p_topo, "output file")

    p_trace = sub.add_parser("gen-trace", help="write the synthetic trace CSV")
    add_common(p_trace, "output file")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    try:
        config, raw = load_config(args.config, getattr(args, "seed", None))
        if args.command == "run":
            run_experiment(config, args.out, raw_config=raw)
        elif args.command == "sweep":
            run_sweep(config, args.out, jobs=max(1, args.jobs))
        elif args.command == "gen-topology":
            if config.topology_source["source"] != "generate":
                raise ConfigError("key 'topology.source' must be 'generate' for gen-topology")
            save_topology_json(build_experiment_topology(config), args.out)
        elif args.command == "gen-trace":
            if config.traffic_source["source"] != "synthetic":
                raise ConfigError("key 'traffic.source' must be 'synthetic' for gen-trace")
            topology = build_experiment_topology(config)
            save_trace_csv(build_experiment_trace(config, topology), args.out)
        elif args.command == "validate":
            print("config OK")
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())

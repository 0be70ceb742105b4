"""Experiment runner: configuration parsing, evaluation, writing and the command line.

A single JSON document describes one experiment: where the topology and
the demand trace come from, the zone calendar, cost parameters, the step
size (a number or "auto" for the bound-minimizing value), and optional
sweep lists. `evaluate` computes configs' online runs, their benchmarks
(each one `solve_periodic_static` call) and regret reports in memory.
`run_experiment` writes one, each file a deterministic function of config
plus seed: a per-slot run log CSV, regret and benchmark JSON, and a
manifest hashing every file. `run_sweep` does both per combination.

Exit codes: 0 success, 2 configuration error, 3 I/O error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import itertools
import json
import math
import sys
from dataclasses import dataclass, replace
from json.encoder import encode_basestring_ascii
from pathlib import Path

import numpy as np

from . import __version__
from .benchmark import SolverConfig, solve_periodic_static
from .cost import CostParams
from .learner import LearnerConfig, OnlineRun, fork_map, run_online, run_online_stack, usable_cores
from .metrics import RegretReport, peak_bound, regret, runlog_to_csv
from .topology import (
    RadioConfig,
    Topology,
    build_topology,
    grid_positions,
    load_topology_json,
    save_topology_json,
)
from .traffic import (
    SHAPES,
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


# A kind is (what a valid value is, its test, the conversion of a valid value).
# JSON numbers parse to int or float, and to NaN or Infinity as Python's json
# module reads them; type() keeps true and false out of them.
NUMBER = ("a finite number", lambda v: type(v) in (int, float) and math.isfinite(v), float)
COUNT = ("a positive integer", lambda v: type(v) is int and v > 0, int)
SEED = ("a non-negative integer", lambda v: type(v) is int and v >= 0, int)
STEP = (
    "a positive finite number or 'auto'",
    lambda v: v == "auto" or type(v) in (int, float) and 0 < v < math.inf,
    lambda v: v if v == "auto" else float(v),
)
TEXT = ("a string", lambda v: isinstance(v, str), str)
FLAG = ("true or false", lambda v: isinstance(v, bool), bool)
LIST = ("a list", lambda v: isinstance(v, list), list)
SECTION = ("an object", lambda v: isinstance(v, dict), dict)


def _one_of(*names):
    return (" or ".join(map(repr, names)), lambda v: v in names, str)


def _list_of(kind):
    """A nonempty list of values of kind, kept as written (sweep directory names show them)."""
    text, test, _ = kind
    return (
        f"a nonempty list, each entry {text}",
        lambda v: isinstance(v, list) and len(v) > 0 and all(map(test, v)),
        list,
    )


REQUIRED, OPTIONAL = True, False

# Every key a config may hold: section -> {key: (kind, required)}. A section
# with a "source" also allows the keys of "<section>:<source>". An absent
# optional key takes the default of the library call it feeds.
SCHEMA = {
    "": {
        "seed": (SEED, OPTIONAL),
        "topology": (SECTION, REQUIRED),
        "traffic": (SECTION, REQUIRED),
        "partition": (SECTION, REQUIRED),
        "cost": (SECTION, REQUIRED),
        "eta": (STEP, OPTIONAL),
        "solver": (SECTION, OPTIONAL),
        "benchmarks": (SECTION, OPTIONAL),
        "sweep": (SECTION, OPTIONAL),
    },
    "topology": {"source": (_one_of("generate", "file"), REQUIRED)},
    "topology:generate": {"radio": (SECTION, REQUIRED), "grid": (SECTION, REQUIRED)},
    "topology:file": {"path": (TEXT, REQUIRED)},
    "topology.radio": {
        "ap_positions": (LIST, REQUIRED),
        "ap_power_dbm": (LIST, REQUIRED),
        "bandwidth_hz": (NUMBER, OPTIONAL),
        "noise_dbm_per_hz": (NUMBER, OPTIONAL),
        "path_loss_exponent": (NUMBER, OPTIONAL),
        "rate_threshold_bps": (NUMBER, OPTIONAL),
        "omega": (NUMBER, OPTIONAL),
    },
    "topology.grid": {"nx": (COUNT, REQUIRED), "ny": (COUNT, REQUIRED), "spacing": (NUMBER, OPTIONAL)},
    "traffic": {"source": (_one_of("synthetic", "csv"), REQUIRED)},
    "traffic:synthetic": {"horizon": (COUNT, REQUIRED), "profile": (SECTION, REQUIRED)},
    "traffic:csv": {
        "path": (TEXT, REQUIRED),
        "n_locations": (COUNT, REQUIRED),
        "horizon": (COUNT, OPTIONAL),
    },
    "traffic.profile": {
        "slots_per_day": (COUNT, REQUIRED),
        "base_min": (NUMBER, OPTIONAL),
        "base_max": (NUMBER, OPTIONAL),
        "shape": (_one_of(*SHAPES), OPTIONAL),
        "amplitude": (NUMBER, OPTIONAL),
        "sigma": (NUMBER, OPTIONAL),
    },
    "partition": {"zones": (COUNT, REQUIRED), "slots_per_zone": (COUNT, REQUIRED)},
    "cost": {"alpha": (NUMBER, REQUIRED), "rho0": (NUMBER, OPTIONAL), "psi": (NUMBER, OPTIONAL)},
    "solver": {"max_iterations": (COUNT, OPTIONAL), "tolerance": (NUMBER, OPTIONAL)},
    "benchmarks": {"static": (FLAG, OPTIONAL), "dynamic": (FLAG, OPTIONAL)},
    "sweep": {
        "zones": (_list_of(COUNT), OPTIONAL),
        "rho0": (_list_of(NUMBER), OPTIONAL),
        "alpha": (_list_of(NUMBER), OPTIONAL),
        "eta": (_list_of(STEP), OPTIONAL),
    },
}


def _section(doc: dict, path: str) -> dict:
    """doc checked against SCHEMA[path], values converted; absent optional keys are left out."""
    table = SCHEMA[path]
    prefix = f"{path}." if path else ""
    checked = {}

    def check(key):
        (text, test, convert), required = table[key]
        if key in doc:
            if not test(doc[key]):
                raise ConfigError(f"key '{prefix}{key}' must be {text}")
            checked[key] = convert(doc[key])
        elif required:
            raise ConfigError(f"key '{prefix}{key}' is required")

    if "source" in table:  # the chosen source brings its own keys
        check("source")
        table = {**table, **SCHEMA[f"{path}:{checked['source']}"]}
    for key in doc:
        if key not in table:
            raise ConfigError(f"key '{prefix}{key}' is unknown")
    for key in table:
        check(key)
    return checked


def _build(make, doc: dict, path: str):
    """make(**checked section); a value the library rejects is reported against the section."""
    fields = _section(doc, path)
    try:
        return make(**fields)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"key '{path}': {exc}") from None


@dataclass
class ExperimentConfig:
    """Validated experiment description; see `parse_config`."""

    seed: int
    topology_path: str | None  # topology.source "file"; "generate" sets radio and locations
    radio: RadioConfig | None
    locations: np.ndarray | None
    trace_csv: dict | None  # traffic.source "csv": the arguments of load_trace_csv
    horizon: int | None  # traffic.source "synthetic": the trace length, with profile
    profile: SyntheticProfile | None
    zones: int
    slots_per_zone: int
    cost: CostParams
    eta: object  # float or the string "auto"
    solver: SolverConfig
    benchmark_static: bool
    benchmark_dynamic: bool
    sweep_lists: dict


def parse_config(doc: dict) -> ExperimentConfig:
    """Check the whole document against SCHEMA and build the library objects it sets."""
    if not isinstance(doc, dict):
        raise ConfigError("configuration root must be a JSON object")
    root = _section(doc, "")
    topology = _section(root["topology"], "topology")
    generate = topology["source"] == "generate"
    traffic = _section(root["traffic"], "traffic")
    synthetic = traffic["source"] == "synthetic"
    partition = _section(root["partition"], "partition")
    zones, slots_per_zone = partition["zones"], partition["slots_per_zone"]
    benchmarks = _section(root.get("benchmarks", {}), "benchmarks")
    sweep = _section(root.get("sweep", {}), "sweep")
    period = zones * slots_per_zone
    for k in sweep.get("zones", []):
        if period % k:
            raise ConfigError(f"key 'sweep.zones': {k} does not divide the period length {period}")

    return ExperimentConfig(
        seed=root.get("seed", 0),
        topology_path=topology.get("path"),
        radio=_build(RadioConfig, topology["radio"], "topology.radio") if generate else None,
        locations=_build(grid_positions, topology["grid"], "topology.grid") if generate else None,
        trace_csv=None if synthetic else {k: v for k, v in traffic.items() if k != "source"},
        horizon=traffic["horizon"] if synthetic else None,
        profile=_build(SyntheticProfile, traffic["profile"], "traffic.profile") if synthetic else None,
        zones=zones,
        slots_per_zone=slots_per_zone,
        cost=_build(CostParams, root["cost"], "cost"),
        eta=root.get("eta", "auto"),
        solver=_build(SolverConfig, root.get("solver", {}), "solver"),
        benchmark_static=benchmarks.get("static", False),
        benchmark_dynamic=benchmarks.get("dynamic", False),
        sweep_lists=sweep,
    )


def load_config(path, seed_override: int | None = None) -> tuple[ExperimentConfig, dict]:
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from None
    if seed_override is not None and isinstance(doc, dict):
        doc = {**doc, "seed": seed_override}
    return parse_config(doc), doc


def build_experiment_topology(config: ExperimentConfig) -> Topology:
    try:
        if config.topology_path is not None:
            return load_topology_json(config.topology_path)
        return build_topology(config.radio, config.locations)
    except ValueError as exc:
        key = "topology.radio" if config.topology_path is None else "topology.path"
        raise ConfigError(f"key '{key}': {exc}") from None


def build_experiment_trace(config: ExperimentConfig, topology: Topology):
    if config.trace_csv is not None:
        try:
            trace = load_trace_csv(**config.trace_csv)
        except ValueError as exc:
            raise ConfigError(f"key 'traffic.path': {exc}") from None
    else:
        trace = generate_synthetic(topology.n_locations, config.horizon, config.seed, config.profile)
    if trace.n_locations != topology.n_locations:
        raise ConfigError(
            "key 'traffic': trace has "
            f"{trace.n_locations} locations but the topology has {topology.n_locations}"
        )
    return trace


def _render(value, indent: str) -> str:
    """`json.dumps(value, sort_keys=True, indent=1)` nested at indent, a non-finite float as null."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or value is True or value is False:
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float):
        return float.__repr__(value) if math.isfinite(value) else "null"
    inner = indent + " "
    if isinstance(value, (list, tuple)):
        brackets = "[]"
        floats = set(map(type, value)) == {float} and math.isfinite(sum(value))  # then none is inf or nan
        items = map(float.__repr__, value) if floats else (_render(v, inner) for v in value)
    elif isinstance(value, dict):
        brackets = "{}"
        items = (f"{encode_basestring_ascii(k)}: {_render(v, inner)}" for k, v in sorted(value.items()))
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")
    if not value:
        return brackets
    return f"{brackets[0]}\n{inner}" + f",\n{inner}".join(items) + f"\n{indent}{brackets[1]}"


def _write_json(path: Path, payload: dict) -> Path:
    """Standard JSON: a non-finite float, such as an overflowed bound, is written as null."""
    path.write_text(_render(payload, "") + "\n")
    return path


@dataclass
class Evaluation:
    """One configuration evaluated in memory: everything `run` writes, unwritten."""

    run: OnlineRun
    report: RegretReport  # report.eta_used is the step size the learner took
    eta_note: str | None  # why "auto" fell back to 1.0, None otherwise
    benchmarks: dict  # output file stem -> BenchmarkSolution; "benchmark" is the periodic one


def _step(config: ExperimentConfig, topology: Topology, trace: TrafficTrace) -> tuple[float, str | None]:
    """The learner's step size, and why "auto" fell back to 1.0 (None otherwise)."""
    if config.eta != "auto":
        return float(config.eta), None
    _, bound = peak_bound(topology, trace, config.zones, config.cost)
    if bound.eta_star is None or not 0.0 < bound.eta_star < math.inf:
        return 1.0, bound.note or "eta_star_out_of_range"
    return float(bound.eta_star), None


def evaluate(configs: list, topology: Topology, trace: TrafficTrace, workers: int | None = None) -> list:
    """Each config's `Evaluation`, or the `ConfigError` that stopped it, in input order; write nothing.

    A config's benchmarks are `solve_periodic_static` calls on calendars: its
    own, one window (static) or one window per slot (dynamic). Each distinct
    (calendar, `CostParams.function`, solver) is solved once, never per eta,
    and a failed solve fails every config that shares it. Configs that share
    a calendar and alpha learn as the members of one `run_online_stack` call;
    if it raises, from a step that overflows, each member learns alone. Each
    solve and each stack runs on at most `workers` processes (None: every
    usable core). An eta of "auto" becomes the bound-minimizing step, or 1.0
    with a note when that step is not positive and finite. A config stops at
    its calendar (key 'partition'), a solve ('traffic') or its learner ('eta'),
    checked in that order.
    """
    results, partitions = {}, {}
    for i, config in enumerate(configs):
        try:
            partitions[i] = build_partition(trace.horizon, config.zones, config.slots_per_zone)
        except ValueError as exc:
            results[i] = ConfigError(f"key 'partition': {exc}")

    solved, benchmarks = {}, {}
    for i, partition in partitions.items():
        config = configs[i]
        calendars = {"benchmark": partition}
        if config.benchmark_static:
            calendars["benchmark_static"] = build_partition(trace.horizon, 1, trace.horizon)
        if config.benchmark_dynamic:
            calendars["benchmark_dynamic"] = build_partition(trace.horizon, trace.horizon, 1)
        chosen = {}
        for name, windows in calendars.items():
            key = windows, config.cost.function, config.solver
            if key not in solved:
                try:
                    solved[key] = solve_periodic_static(topology, trace, *key, workers)
                except ValueError as exc:
                    solved[key] = ConfigError(f"key 'traffic': {exc}")
            if isinstance(solved[key], ConfigError):
                results[i] = solved[key]
                break
            chosen[name] = solved[key]
        else:
            benchmarks[i] = chosen

    stacks = {}
    for i in benchmarks:
        stacks.setdefault((partitions[i], configs[i].cost.alpha), []).append(i)
    for (partition, _), members in stacks.items():
        costs = [configs[i].cost for i in members]
        steps = [_step(configs[i], topology, trace) for i in members]
        learners = [LearnerConfig(eta=eta) for eta, _ in steps]
        try:
            runs = run_online_stack(topology, trace, partition, costs, learners, workers)
        except ValueError:  # each member learns alone, so only a failing one fails
            runs = []
            for cost, learner in zip(costs, learners):
                try:
                    runs.append(run_online(topology, trace, partition, cost, learner))
                except ValueError as exc:
                    runs.append(ConfigError(f"key 'eta': {exc}"))
        for i, cost, run, (eta, eta_note) in zip(members, costs, runs, steps):
            if isinstance(run, ConfigError):
                results[i] = run
                continue
            periodic = benchmarks[i]["benchmark"]
            report = regret(
                run.log.costs, periodic, trace, partition, topology, cost, eta=eta, online_loads=run.log.loads
            )
            results[i] = Evaluation(run=run, report=report, eta_note=eta_note, benchmarks=benchmarks[i])
    return [results[i] for i in range(len(configs))]


def run_experiment(config: ExperimentConfig, evaluation: Evaluation, out_dir, raw_config: dict | None = None):
    """Write what `evaluate` returned for config into out_dir; manifest.json hashes every other file."""
    report = evaluation.report
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    runlog_to_csv(evaluation.run.log, out / "runlog.csv")
    written = [out / "runlog.csv", _write_json(out / "regret.json", report.to_dict())]
    for name, solution in evaluation.benchmarks.items():
        written.append(_write_json(out / f"{name}.json", solution.to_dict()))

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
            "eta": report.eta_used,
            "eta_note": evaluation.eta_note,
            "horizon": evaluation.run.log.horizon,
        },
        "summary": {
            "total_online_cost": report.total_online_cost,
            "total_benchmark_cost": report.total_benchmark_cost,
            "regret": report.regret,
            "bound_at_eta": report.bound_at_eta,
            "violations_online": list(report.violations_online),
            "violations_benchmark": list(report.violations_benchmark),
            "benchmark_converged": evaluation.benchmarks["benchmark"].all_converged,
        },
        "outputs": [
            {"path": p.name, "sha256": hashlib.sha256(p.read_bytes()).hexdigest()}
            for p in sorted(written)
        ],
    }
    _write_json(out / "manifest.json", manifest)


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


def _run_group(
    config: ExperimentConfig, inputs: tuple, out_dir: Path, workers: int, combos: list
) -> list[list]:
    """sweep.csv rows of combinations evaluated in one call on shared inputs, with at most
    `workers` learner processes, and written in order."""
    period = config.zones * config.slots_per_zone
    subs = []
    for zones, rho0, alpha, eta in combos:
        try:
            cost = replace(config.cost, alpha=float(alpha), rho0=float(rho0))
        except ValueError as exc:  # an invalid (alpha, rho0) fails its own row only
            subs.append(exc)
            continue
        subs.append(replace(config, zones=zones, slots_per_zone=period // zones, cost=cost, eta=eta))
    evaluations = iter(evaluate([sub for sub in subs if isinstance(sub, ExperimentConfig)], *inputs, workers))
    rows = []
    for (zones, rho0, alpha, eta), sub in zip(combos, subs):
        evaluation = sub if isinstance(sub, Exception) else next(evaluations)
        try:
            if isinstance(evaluation, Exception):
                raise evaluation
            run_experiment(sub, evaluation, out_dir / f"K{zones}_rho{rho0}_alpha{alpha}_eta{eta}")
        except Exception as exc:  # recorded per row; the sweep keeps going
            rows.append([zones, rho0, alpha, eta, "", "", "", "", "", "", f"{type(exc).__name__}: {exc}"])
            continue
        report = evaluation.report
        numbers = report.total_online_cost, report.total_benchmark_cost, report.regret, report.bound_at_eta
        violations = report.violations_online[0], report.violations_benchmark[0]
        rows.append([zones, rho0, alpha, report.eta_used, *map(repr, numbers), *violations, ""])
    return rows


def run_sweep(config: ExperimentConfig, out_dir, jobs: int = 1) -> Path:
    """All sweep combinations; one consolidated CSV plus per-combo artifacts.

    The topology and trace are built once, before any combination runs, so
    an error in them ends the sweep. Combinations run in groups, which
    `fork_map` deals round-robin to min(jobs, groups) processes, this one
    included (at least one); forked workers inherit the topology and trace.
    Each group is one `evaluate` call, whose combinations that share zones
    and alpha learn as one stack. Every benchmark depends on the cost
    function, and the periodic one on the zones too. Without a static or
    dynamic benchmark a group is a (zones, alpha) pair, so each group is one
    stack; otherwise (alpha, rho0), or (alpha, None) where the function
    ignores rho0, so each distinct benchmark is solved once, also with jobs > 1.
    """
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    # the sweep lists replace these one-value lists, which keep their order
    lists = dict(zones=[config.zones], rho0=[config.cost.rho0], alpha=[config.cost.alpha], eta=[config.eta])
    combos = list(itertools.product(*{**lists, **config.sweep_lists}.values()))
    topology = build_experiment_topology(config)
    trace = build_experiment_trace(config, topology)
    by_zones = not (config.benchmark_static or config.benchmark_dynamic)
    groups = {}
    for index, (zones, rho0, alpha, _) in enumerate(combos):
        shared = zones if by_zones else None if alpha == 0 and config.cost.psi == 1 else rho0
        groups.setdefault((alpha, shared), []).append(index)
    tasks = [[combos[i] for i in group] for group in groups.values()]
    workers = min(max(1, jobs), len(tasks))
    # each worker's learner gets its share of the cores, so its forked workers do not outnumber them
    budget = max(1, usable_cores() // workers)
    done = fork_map(lambda combos: _run_group(config, (topology, trace), out, budget, combos), tasks, workers)
    rows = dict(zip(itertools.chain(*groups.values()), itertools.chain(*done)))

    csv_path = out / "sweep.csv"
    with open(csv_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(SWEEP_COLUMNS)
        writer.writerows(rows[i] for i in range(len(combos)))
    return csv_path


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="assoclearn",
        description="Online user-association experiments and benchmarks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_command(name, summary, out_help):
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment config JSON")
        p.add_argument("--out", required=True, help=out_help)
        p.add_argument("--seed", type=int, default=None, help="seed override")
        return p

    add_command("run", "execute one experiment", "output directory")
    p_sweep = add_command("sweep", "run every sweep combination", "output directory")
    p_sweep.add_argument("--jobs", type=int, default=1, help="parallel combinations")
    add_command("gen-topology", "write the generated topology JSON", "output file")
    add_command("gen-trace", "write the synthetic trace CSV", "output file")

    p_val = sub.add_parser("validate", help="check a config file")
    p_val.add_argument("--config", required=True)

    args = parser.parse_args(argv)

    try:
        config, raw = load_config(args.config, getattr(args, "seed", None))
        if args.command == "run":
            topology = build_experiment_topology(config)
            (evaluation,) = evaluate([config], topology, build_experiment_trace(config, topology))
            if isinstance(evaluation, ConfigError):
                raise evaluation
            run_experiment(config, evaluation, args.out, raw_config=raw)
        elif args.command == "sweep":
            run_sweep(config, args.out, jobs=args.jobs)
        elif args.command == "gen-topology":
            if config.radio is None:
                raise ConfigError("key 'topology.source' must be 'generate' for gen-topology")
            save_topology_json(build_experiment_topology(config), args.out)
        elif args.command == "gen-trace":
            if config.profile is None:
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

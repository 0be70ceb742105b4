"""The benchmark's three workloads.

Each workload makes its inputs from a seed (`setup`), runs one operation
that a user of assoclearn waits on (`run`), counts the operations that
operation attempted and failed (`operations`), and checks the outputs
against `reference` or against properties the method must have (`check`).
The program's functions are always looked up through their module at call
time, so the span recorder can wrap them.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path

import numpy as np

import reference as ref
from assoclearn import cli, cost, learner, metrics, topology, traffic

HORIZON = 5760
DAY = 240  # slots per day; zones * slots_per_zone is one day in every workload
RADIO_DEFAULTS = {
    "bandwidth_hz": 1e7,
    "noise_dbm_per_hz": -174.0,
    "path_loss_exponent": 3.0,
    "rate_threshold_bps": 8e5,
    "omega": 3e-7,
}
README_PROFILE = {
    "slots_per_day": DAY,
    "base_min": 0.5,
    "base_max": 1.5,
    "shape": "sinusoidal",
    "amplitude": 0.6,
    "sigma": 0.1,
}

RTOL = 1e-8  # program against reference: same maths, different summation order


def _radio(ap_positions, ap_power_dbm) -> dict:
    return {"ap_positions": ap_positions, "ap_power_dbm": ap_power_dbm, **RADIO_DEFAULTS}


def _write_json(path: Path, doc: dict) -> Path:
    path.write_text(json.dumps(doc, indent=1) + "\n")
    return path


def _windows(zones: int, slots_per_zone: int, horizon: int) -> list[np.ndarray]:
    """0-based slots of each zone's window."""
    zone_of = (np.arange(horizon) // slots_per_zone) % zones
    return [np.flatnonzero(zone_of == k) for k in range(zones)]


def _close(a, b, rtol=RTOL, atol=0.0) -> bool:
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and bool(np.allclose(a, b, rtol=rtol, atol=atol))


def _runlog_column(path: Path, column: str) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array([float(row[column]) for row in csv.DictReader(fh)])


def _window_ops(benchmark_json: Path) -> tuple[int, int]:
    """(windows solved, windows the solver left unconverged)."""
    diagnostics = json.loads(benchmark_json.read_text())["diagnostics"]
    return len(diagnostics), sum(not d["converged"] for d in diagnostics)


def _certify(benchmark_json: Path, demand, service, cost_ref, zones, slots_per_zone, problems, where):
    """Reference objective and Frank-Wolfe gap of every window policy in a benchmark.json;
    also checks that each policy is column-stochastic on the link support."""
    doc = json.loads(benchmark_json.read_text())
    certificates = []
    for k, slots in enumerate(_windows(zones, slots_per_zone, demand.shape[0])):
        pi = np.asarray(doc["zone_policies"][k], dtype=float)
        if not ref.column_stochastic_on(pi, service > 0):
            problems.append(f"{where}: zone {k + 1} policy is not column-stochastic on the support")
        objective, gap = ref.window_certificate(pi, demand[slots], service, cost_ref)
        if not _close(objective, doc["zone_objectives"][k]):
            problems.append(f"{where}: zone {k + 1} objective {doc['zone_objectives'][k]} != reference {objective}")
        if gap < -1e-9 * max(1.0, abs(objective)):
            problems.append(f"{where}: zone {k + 1} Frank-Wolfe gap {gap} is negative")
        certificates.append((gap, objective))
    return certificates


class Workload:
    """Inputs live in `work`; each run of the operation writes into its own directory."""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work
        self.certificates = []  # (gap, objective) per window checked, for the gap metrics

    def probe(self):
        """(Topology, CostParams, one slot's demand) at this workload's array shapes."""
        raise NotImplementedError


class HetnetAlpha2(Workload):
    """`assoclearn run` on the six-AP heterogeneous network at alpha = 2."""

    TRACE_SEED = 2024  # fixed: the windows the solver caps on this trace are a known fault
    RADIO = _radio(
        [[200.0, 200.0], [50.0, 50.0], [350.0, 50.0], [50.0, 350.0], [350.0, 350.0], [200.0, 0.0]],
        [43.0, 33.0, 33.0, 33.0, 33.0, 33.0],
    )
    ZONES, SLOTS_PER_ZONE = 24, 10
    COST = {"alpha": 2.0, "rho0": 0.8, "psi": 1.0}

    def setup(self):
        self.doc = {
            "seed": self.TRACE_SEED,
            "topology": {"source": "generate", "grid": {"nx": 5, "ny": 5, "spacing": 100.0}, "radio": self.RADIO},
            "traffic": {"source": "synthetic", "horizon": HORIZON, "profile": README_PROFILE},
            "partition": {"zones": self.ZONES, "slots_per_zone": self.SLOTS_PER_ZONE},
            "cost": self.COST,
            "eta": "auto",
        }
        self.config = _write_json(self.work / "config.json", self.doc)

    def run(self, out: Path):
        return cli.main(["run", "--config", str(self.config), "--out", str(out)])

    def operations(self, out: Path, result) -> tuple[int, int]:
        windows, capped = _window_ops(out / "benchmark.json") if result == 0 else (0, 0)
        return 1 + windows, int(result != 0) + capped

    def check(self, out: Path, result) -> list[str]:
        problems = []
        topology_json = self.work / "topology.json"
        if cli.main(["gen-topology", "--config", str(self.config), "--out", str(topology_json)]) != 0:
            return ["gen-topology failed"]
        service = ref.service_rates(locations=ref.grid(5, 5, 100.0), **self.RADIO)
        if not _close(json.loads(topology_json.read_text())["service_rate"], service):
            problems.append("service rates differ from the reference Shannon computation")
        demand = ref.synthetic_demand(service.shape[1], HORIZON, self.TRACE_SEED, **README_PROFILE)
        cost_ref = ref.Cost(**self.COST)

        self.certificates = _certify(
            out / "benchmark.json", demand, service, cost_ref, self.ZONES, self.SLOTS_PER_ZONE, problems, "benchmark"
        )
        report = json.loads((out / "regret.json").read_text())
        gap_sum = sum(gap for gap, _ in self.certificates)
        if gap_sum > 0.01 * report["regret"]:
            problems.append(f"certified gaps sum to {gap_sum}, over 1% of the regret {report['regret']}")
        if not report["regret"] <= report["bound_at_eta"]:
            problems.append(f"regret {report['regret']} exceeds bound_at_eta {report['bound_at_eta']}")
        if not _close(report["prefix_regret"][-1] * HORIZON, report["regret"]):
            problems.append("last prefix-regret point times T differs from the regret")

        costs, _, _ = ref.eg_replay(
            service, demand, self.ZONES, self.SLOTS_PER_ZONE, cost_ref, report["eta_used"]
        )
        if not _close(_runlog_column(out / "runlog.csv", "V"), costs):
            problems.append("runlog V column differs from the reference EG replay")
        if not _close(report["total_online_cost"], costs.sum()):
            problems.append("total online cost differs from the reference EG replay")

        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            if hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest() != entry["sha256"]:
                problems.append(f"manifest hash of {entry['path']} does not match the file")
        return problems

    def probe(self):
        config = cli.parse_config(self.doc)
        topo = cli.build_experiment_topology(config)
        demand = ref.synthetic_demand(topo.n_locations, DAY, self.TRACE_SEED, **README_PROFILE)
        return topo, config.cost, demand.mean(axis=0)


class WideOnline(Workload):
    """The online learner alone, replayed on a 20-AP, 1,600-location network."""

    # 5 x 4 lattice of APs over 1 km^2; the four central ones are macro cells
    AP_POSITIONS = [[x, y] for y in (125.0, 375.0, 625.0, 875.0) for x in (100.0, 300.0, 500.0, 700.0, 900.0)]
    AP_POWER = [43.0 if x in (300.0, 700.0) and y in (375.0, 625.0) else 33.0 for x, y in AP_POSITIONS]
    GRID = (40, 40, 25.0)
    # base demand chosen so that the median AP load is about 0.2
    PROFILE = {**README_PROFILE, "base_min": 0.005, "base_max": 0.015}
    ZONES, SLOTS_PER_ZONE = 24, 10
    COST = {"alpha": 1.0, "rho0": 0.9, "psi": 1.0}

    def setup(self):
        n = self.GRID[0] * self.GRID[1]
        self.trace = None  # let a repeated set-up free the previous trace first
        self.trace = traffic.generate_synthetic(n, HORIZON, self.seed, traffic.SyntheticProfile(**self.PROFILE))
        self.radio = topology.RadioConfig(
            ap_positions=np.array(self.AP_POSITIONS), ap_power_dbm=np.array(self.AP_POWER), **RADIO_DEFAULTS
        )
        self.positions = topology.grid_positions(*self.GRID)

    def run(self, out: Path):
        topo = topology.build_topology(self.radio, self.positions)
        params = cost.CostParams(**self.COST)
        lipschitz = cost.lipschitz_bound(topo, self.trace.max_intensity, params)
        m_loc, m_ap = topology.max_degrees(topo)
        eta = metrics.theoretical_bound(
            self.ZONES, HORIZON, lipschitz, 1.0, m_loc, m_ap, topo.n_locations
        ).eta_star
        partition = traffic.build_partition(HORIZON, self.ZONES, self.SLOTS_PER_ZONE)
        run = learner.run_online(topo, self.trace, partition, params, learner.LearnerConfig(eta=eta))
        metrics.runlog_to_csv(run.log, out / "runlog.csv")
        return topo, run, eta

    def operations(self, out: Path, result) -> tuple[int, int]:
        return 1, 0

    def check(self, out: Path, result) -> list[str]:
        problems = []
        topo, run, eta = result
        service = ref.service_rates(self.AP_POSITIONS, self.AP_POWER, ref.grid(*self.GRID), **RADIO_DEFAULTS)
        if not _close(topo.service_rate, service):
            problems.append("service rates differ from the reference Shannon computation")
        period = self.ZONES * self.SLOTS_PER_ZONE
        demand = ref.synthetic_demand(service.shape[1], period, self.seed, **self.PROFILE)
        costs, loads, _ = ref.eg_replay(
            service, demand, self.ZONES, self.SLOTS_PER_ZONE, ref.Cost(**self.COST), eta
        )
        if not _close(_runlog_column(out / "runlog.csv", "V")[:period], costs):
            problems.append("first-period runlog V column differs from the reference EG replay")
        if not _close(run.log.loads[:period], loads, atol=1e-12):
            problems.append("first-period AP loads differ from the reference EG replay")
        if not _close(_runlog_column(out / "runlog.csv", "total_load")[:period], loads.sum(axis=1), atol=1e-12):
            problems.append("first-period runlog total_load differs from the reference EG replay")
        for k, pi in enumerate(run.zone_policies):
            if not ref.column_stochastic_on(pi, service > 0):
                problems.append(f"final policy of zone {k + 1} is not column-stochastic on the support")
        return problems

    def probe(self):
        topo = topology.build_topology(self.radio, self.positions)
        return topo, cost.CostParams(**self.COST), self.trace.demand[:DAY].mean(axis=0)


class ReadmeSweep(Workload):
    """`assoclearn sweep --jobs 1` over the README config, fed from a trace CSV."""

    TRACE_SEED = 2024  # the README's seed; fixed because solver work varies 2.4x with the trace
    RADIO = _radio([[200.0, 200.0], [50.0, 50.0]], [43.0, 33.0])
    SWEEP = {"zones": [24, 12, 2], "rho0": [0.5, 1.0], "alpha": [0.0], "eta": [0.1, 1.0]}
    COMBINATIONS = 12
    REPLAYED = {"zones": 24, "rho0": 0.5, "eta": 1.0}  # the combination replayed independently

    def _doc(self, traffic_source: dict) -> dict:
        return {
            "seed": self.TRACE_SEED,
            "topology": {"source": "generate", "grid": {"nx": 5, "ny": 5, "spacing": 100.0}, "radio": self.RADIO},
            "traffic": traffic_source,
            "partition": {"zones": 24, "slots_per_zone": 10},
            "cost": {"alpha": 0.0, "rho0": 1.0, "psi": 1.0},
            "eta": "auto",
            "solver": {"max_iterations": 10000, "tolerance": 1e-6},
            "sweep": self.SWEEP,
        }

    def setup(self):
        synthetic = _write_json(
            self.work / "gen_config.json",
            self._doc({"source": "synthetic", "horizon": HORIZON, "profile": README_PROFILE}),
        )
        self.trace_csv = self.work / "trace.csv"
        if cli.main(["gen-trace", "--config", str(synthetic), "--out", str(self.trace_csv)]) != 0:
            raise RuntimeError("assoclearn gen-trace failed")
        csv_source = {"source": "csv", "path": str(self.trace_csv), "n_locations": 25, "horizon": HORIZON}
        self.config = _write_json(self.work / "sweep_config.json", self._doc(csv_source))

    def run(self, out: Path):
        return cli.main(["sweep", "--config", str(self.config), "--out", str(out), "--jobs", "1"])

    def _rows(self, out: Path) -> list[dict]:
        with open(out / "sweep.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def _combos(self, out: Path) -> list[tuple[dict, Path]]:
        """(resolved settings, directory) of every combination that wrote a manifest."""
        return [
            (json.loads((d / "manifest.json").read_text())["resolved"], d)
            for d in sorted(out.iterdir())
            if (d / "manifest.json").exists()
        ]

    def operations(self, out: Path, result) -> tuple[int, int]:
        if result != 0:
            return 1, 1
        rows = self._rows(out)
        attempted, failed = len(rows), sum(bool(r["error"]) for r in rows)
        for _, d in self._combos(out):
            windows, capped = _window_ops(d / "benchmark.json")
            attempted, failed = attempted + windows, failed + capped
        return attempted, failed

    def check(self, out: Path, result) -> list[str]:
        problems = []
        rows = self._rows(out)
        if len(rows) != self.COMBINATIONS:
            problems.append(f"sweep.csv has {len(rows)} rows, expected {self.COMBINATIONS}")
        problems += [f"row K={r['K']} rho0={r['rho0']} eta={r['eta']} failed: {r['error']}" for r in rows if r["error"]]
        rows = [r for r in rows if not r["error"]]
        for r in rows:
            online, bench, regret, bound = (float(r[c]) for c in ("total_online_cost", "total_benchmark_cost", "regret", "bound"))
            if not _close(regret, online - bench, rtol=1e-9):
                problems.append(f"row K={r['K']}: regret {regret} != online - benchmark cost {online - bench}")
            if not regret <= bound:
                problems.append(f"row K={r['K']}: regret {regret} exceeds its bound {bound}")
        # at alpha = 0 (psi = 1) the benchmark depends on neither eta nor rho0
        bench_by_k = {}
        for r in rows:
            bench_by_k.setdefault(int(r["K"]), []).append(float(r["total_benchmark_cost"]))
        for k, values in bench_by_k.items():
            if not _close(values, [values[0]] * len(values), rtol=1e-9):
                problems.append(f"K={k}: benchmark cost differs across eta and rho0: {values}")

        service = ref.service_rates(locations=ref.grid(5, 5, 100.0), **self.RADIO)
        demand = ref.synthetic_demand(service.shape[1], HORIZON, self.TRACE_SEED, **README_PROFILE)
        gap_sum, bench_cost = {}, {}
        self.certificates = []
        replayed = False
        for resolved, d in self._combos(out):
            zones, rho0 = resolved["zones"], resolved["rho0"]
            cost_ref = ref.Cost(resolved["alpha"], rho0, resolved["psi"])
            certs = _certify(d / "benchmark.json", demand, service, cost_ref, zones, DAY // zones, problems, d.name)
            self.certificates += certs
            key = (zones, rho0, resolved["eta"])
            gap_sum[key] = sum(gap for gap, _ in certs)
            bench_cost[key] = json.loads((d / "regret.json").read_text())["total_benchmark_cost"]
            if all(resolved[k] == v for k, v in self.REPLAYED.items()):
                replayed = True
                costs, _, _ = ref.eg_replay(
                    service, demand, zones, DAY // zones, cost_ref, resolved["eta"]
                )
                if not _close(_runlog_column(d / "runlog.csv", "V"), costs):
                    problems.append(f"{d.name}: runlog V column differs from the reference replay of the generated trace")
        if not replayed:
            problems.append(f"no combination {self.REPLAYED} to replay")
        # refinement: optimum(K=24) <= optimum(K=12) <= optimum(K=2), certified by the gaps
        for (zones, rho0, eta), cost_fine in bench_cost.items():
            coarse = {24: 12, 12: 2}.get(zones)
            if coarse is None or (coarse, rho0, eta) not in bench_cost:
                continue
            if cost_fine - gap_sum[(zones, rho0, eta)] > bench_cost[(coarse, rho0, eta)]:
                problems.append(f"refinement certificate fails between K={zones} and K={coarse} (rho0={rho0}, eta={eta})")
        return problems

    def probe(self):
        config = cli.parse_config(self._doc({"source": "synthetic", "horizon": HORIZON, "profile": README_PROFILE}))
        topo = cli.build_experiment_topology(config)
        demand = ref.synthetic_demand(topo.n_locations, DAY, self.TRACE_SEED, **README_PROFILE)
        return topo, config.cost, demand.mean(axis=0)


WORKLOADS = {"hetnet-alpha2": HetnetAlpha2, "wide-online": WideOnline, "readme-sweep": ReadmeSweep}

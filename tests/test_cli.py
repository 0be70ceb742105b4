import csv
import itertools
import json
import math
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from assoclearn import Topology, TrafficTrace, save_topology_json
from assoclearn.cli import SCHEMA, _write_json, load_config, main, parse_config, run_sweep

pytestmark = pytest.mark.filterwarnings("ignore::pytest.PytestUnraisableExceptionWarning")


def write_json(path, doc):
    path.write_text(json.dumps(doc, indent=1))
    return str(path)


def minimal_config(tmp_path, **overrides):
    doc = {
        "seed": 7,
        "topology": {
            "source": "generate",
            "grid": {"nx": 2, "ny": 2, "spacing": 40.0},
            "radio": {
                "ap_positions": [[0.0, 0.0], [40.0, 40.0]],
                "ap_power_dbm": [43.0, 33.0],
                "omega": 2e-7,
            },
        },
        "traffic": {
            "source": "synthetic",
            "horizon": 12,
            "profile": {"slots_per_day": 6, "sigma": 0.0},
        },
        "partition": {"zones": 1, "slots_per_zone": 12},
        "cost": {"alpha": 0.0, "rho0": 1.0, "psi": 1.0},
        "eta": 0.1,
    }
    doc.update(overrides)
    return write_json(tmp_path / "config.json", doc)


def readme_config():
    """The README's example config file, as a dict."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("### Config file", 1)[1]
    return section, json.loads(section.split("```json\n", 1)[1].split("```", 1)[0])


def strict_json_outputs(out_dir):
    """Every JSON file in out_dir, parsed as standard JSON (no NaN or Infinity)."""

    def reject(token):
        raise ValueError(f"non-standard JSON token {token}")

    return {
        path.name: json.loads(path.read_text(), parse_constant=reject)
        for path in sorted(Path(out_dir).glob("*.json"))
    }


def fast_slow_setup(tmp_path):
    """Config backed by a 1-location, 2-AP topology file and a CSV trace."""
    topo_path = tmp_path / "topology.json"
    save_topology_json(Topology(service_rate=np.array([[1.0], [1.0]])), topo_path)
    trace_path = tmp_path / "trace.csv"
    with open(trace_path, "w") as fh:
        fh.write("t,location_id,intensity\n")
        for t in range(1, 19):
            fh.write(f"{t},1,1.0\n")
    doc = {
        "seed": 1,
        "topology": {"source": "file", "path": str(topo_path)},
        "traffic": {"source": "csv", "path": str(trace_path), "n_locations": 1},
        "partition": {"zones": 2, "slots_per_zone": 3},
        "cost": {"alpha": 0.0, "rho0": 1.0, "psi": 1.0},
        "eta": "auto",
    }
    return write_json(tmp_path / "auto.json", doc)


def overflowing_step_config(tmp_path, **extra):
    """eta = 1e308 on unit rates under demand 5 to 6: eta times the gradient bound overflows."""
    topo_path = tmp_path / "topology.json"
    save_topology_json(Topology(service_rate=np.ones((2, 2))), topo_path)
    profile = {"slots_per_day": 6, "base_min": 5.0, "base_max": 6.0}
    doc = {
        "topology": {"source": "file", "path": str(topo_path)},
        "traffic": {"source": "synthetic", "horizon": 12, "profile": profile},
        "partition": {"zones": 2, "slots_per_zone": 3},
        "cost": {"alpha": 0.0},
        "eta": 1e308,
        **extra,
    }
    return write_json(tmp_path / "steep_step.json", doc)


class TestRun:
    def test_minimal_run_writes_three_outputs_plus_manifest(self, tmp_path):
        config = minimal_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        names = sorted(p.name for p in out.iterdir())
        assert names == ["benchmark.json", "manifest.json", "regret.json", "runlog.csv"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert {entry["path"] for entry in manifest["outputs"]} == {
            "benchmark.json",
            "regret.json",
            "runlog.csv",
        }

    def test_regret_upper_adds_window_gaps(self, tmp_path):
        config = minimal_config(tmp_path, partition={"zones": 2, "slots_per_zone": 3})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        report = json.loads((out / "regret.json").read_text())
        gaps = [d["gap"] for d in json.loads((out / "benchmark.json").read_text())["diagnostics"]]
        assert len(gaps) == 2 and sum(gaps) > 0
        excess = report["regret_upper"] - report["regret"]
        assert excess == pytest.approx(sum(gaps), rel=0, abs=np.spacing(abs(report["regret_upper"])))

    def test_manifest_hashes_match_written_files(self, tmp_path):
        import hashlib

        config = minimal_config(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        for entry in manifest["outputs"]:
            digest = hashlib.sha256((out / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"], entry["path"]

    def test_auto_eta_recorded_in_manifest(self, tmp_path):
        config = fast_slow_setup(tmp_path)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        # L = 1 on unit rates with unit demand; K=2, T=18, one location, two APs
        expected = math.sqrt(2 * 2 * 1 * 1 * math.log(2) / (18 * 1 * 2))
        assert manifest["resolved"]["eta"] == pytest.approx(expected)

    def test_repeat_runs_byte_identical(self, tmp_path):
        config = minimal_config(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out1)]) == 0
        assert main(["run", "--config", config, "--out", str(out2)]) == 0
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()

    def test_seed_override_changes_outputs(self, tmp_path):
        config = minimal_config(
            tmp_path,
            traffic={
                "source": "synthetic",
                "horizon": 12,
                "profile": {"slots_per_day": 6, "sigma": 0.3},
            },
        )
        out1, out2 = tmp_path / "a", tmp_path / "b"
        assert main(["run", "--config", config, "--out", str(out1), "--seed", "1"]) == 0
        assert main(["run", "--config", config, "--out", str(out2), "--seed", "2"]) == 0
        assert (out1 / "runlog.csv").read_bytes() != (out2 / "runlog.csv").read_bytes()

    def test_benchmark_toggles_add_files(self, tmp_path):
        config = minimal_config(
            tmp_path, benchmarks={"static": True, "dynamic": True},
            partition={"zones": 2, "slots_per_zone": 6},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        names = {p.name for p in out.iterdir()}
        assert "benchmark_static.json" in names
        assert "benchmark_dynamic.json" in names

    @pytest.mark.parametrize("kind, zones, width", [("static", 1, 12), ("dynamic", 12, 1)])
    def test_benchmark_on_the_same_calendar_shares_the_solve(self, tmp_path, monkeypatch, kind, zones, width):
        from assoclearn import benchmark, cli

        solves = []
        for module, name in [(cli, "solve_periodic_static"), (benchmark, "solve_windows")]:
            original = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *a, f=original, n=name: solves.append(n) or f(*a))
        partition = {"zones": zones, "slots_per_zone": width}
        config = minimal_config(tmp_path, benchmarks={kind: True}, partition=partition)
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 0
        assert solves == ["solve_periodic_static", "solve_windows"]
        assert (out / "benchmark.json").read_bytes() == (out / f"benchmark_{kind}.json").read_bytes()

    def test_run_experiment_only_writes_the_evaluation(self, tmp_path, monkeypatch):
        from assoclearn import benchmark, cli, learner

        benchmarks, partition = {"static": True, "dynamic": True}, {"zones": 2, "slots_per_zone": 6}
        path = minimal_config(tmp_path, benchmarks=benchmarks, partition=partition)
        ran = tmp_path / "run"
        assert main(["run", "--config", path, "--out", str(ran)]) == 0
        config, raw = cli.load_config(path)
        topology = cli.build_experiment_topology(config)
        (evaluation,) = cli.evaluate([config], topology, cli.build_experiment_trace(config, topology))

        def refuse(*args, **kwargs):
            raise AssertionError("run_experiment solved or learned")

        for module, name in [
            (cli, "solve_periodic_static"), (cli, "run_online"), (cli, "run_online_stack"), (cli, "regret"),
            (benchmark, "solve_windows"), (learner, "run_online_stack"),
        ]:
            monkeypatch.setattr(module, name, refuse)
        out = tmp_path / "written"
        cli.run_experiment(config, evaluation, out, raw_config=raw)
        assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in ran.iterdir())
        for p in out.iterdir():
            assert p.read_bytes() == (ran / p.name).read_bytes(), p.name


class TestValidateAndErrors:
    def test_validate_ok(self, tmp_path, capsys):
        config = minimal_config(tmp_path)
        assert main(["validate", "--config", config]) == 0
        assert "config OK" in capsys.readouterr().out

    def test_invalid_config_names_key(self, tmp_path, capsys):
        config = minimal_config(tmp_path, cost={"alpha": -1.0})
        assert main(["validate", "--config", config]) == 2
        assert "cost" in capsys.readouterr().err

    def test_overflowing_cost_is_config_error(self, tmp_path, capsys):
        config = minimal_config(tmp_path, cost={"alpha": 200.0, "rho0": 0.99})
        assert main(["validate", "--config", config]) == 2
        err = capsys.readouterr().err
        assert "config error: key 'cost'" in err and "200.0" in err and "0.99" in err
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2

    def test_unbounded_solver_step_is_config_error(self, tmp_path, capsys):
        # overload slope 1e300 (accepted) times a demand of 1e10 overflows the
        # solver's step bound, which only the trace can reveal
        topo_path = tmp_path / "topology.json"
        save_topology_json(Topology(service_rate=np.array([[1.0], [1.0]])), topo_path)
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("".join(f"{t},1,1e10\n" for t in range(1, 5)))
        config = write_json(tmp_path / "huge.json", {
            "topology": {"source": "file", "path": str(topo_path)},
            "traffic": {"source": "csv", "path": str(trace_path), "n_locations": 1},
            "partition": {"zones": 1, "slots_per_zone": 4},
            "cost": {"alpha": 150.0, "rho0": 0.99},
        })
        assert main(["validate", "--config", config]) == 0
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "config error: key 'traffic'" in err and "window 1" in err

    @pytest.mark.parametrize("eta", ["auto", 0.1])
    def test_steep_cost_runs(self, tmp_path, eta):
        # alpha = 100 at rho0 = 0.99 puts the Lipschitz bound near 1e202, whose square
        # overflows a float: the bound at eta = 0.1 is inf, the one at eta_star is not
        _, doc = readme_config()
        del doc["sweep"]
        doc["traffic"]["horizon"] = 480
        doc.update(cost={"alpha": 100.0, "rho0": 0.99}, eta=eta, solver={"max_iterations": 50})
        config = write_json(tmp_path / "steep.json", doc)
        assert main(["validate", "--config", config]) == 0
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
        outputs = strict_json_outputs(tmp_path / "out")
        report, manifest = outputs["regret.json"], outputs["manifest.json"]
        assert 0 < report["eta_star"] < 1e-200
        # the bound at eta = 0.1 is inf, which standard JSON writes as null
        assert (report["bound_at_eta"] is None) == (eta == 0.1)
        assert manifest["summary"]["bound_at_eta"] == report["bound_at_eta"]
        assert ("overflows" in (report["bound_note"] or "")) == (eta == 0.1)

    @pytest.mark.parametrize("eta", ["auto", 0.1])
    def test_subnormal_demand_runs(self, tmp_path, eta):
        # a peak of 1e-320 makes eta_star = sqrt(...) / L overflow to inf;
        # "auto" then falls back to 1.0 with a note
        _, doc = readme_config()
        del doc["sweep"]
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text(
            "".join(f"{t},{i},1e-320\n" for t in range(1, 481) for i in range(1, 26))
        )
        doc.update(eta=eta, traffic={"source": "csv", "path": str(trace_path), "n_locations": 25})
        config = write_json(tmp_path / "subnormal.json", doc)
        assert main(["validate", "--config", config]) == 0
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
        outputs = strict_json_outputs(tmp_path / "out")
        resolved = outputs["manifest.json"]["resolved"]
        assert resolved["eta"] == (1.0 if eta == "auto" else 0.1)
        assert (resolved["eta_note"] is not None) == (eta == "auto")
        assert outputs["regret.json"]["eta_star"] is None
        assert "overflows" in outputs["regret.json"]["bound_note"]

    def test_tiny_demand_runs_with_auto_eta(self, tmp_path):
        # a demand of 1e-170 gives a Lipschitz bound whose square underflows to 0
        topo_path = tmp_path / "topology.json"
        save_topology_json(Topology(service_rate=np.array([[1.0], [1.0]])), topo_path)
        trace_path = tmp_path / "trace.csv"
        trace_path.write_text("".join(f"{t},1,1e-170\n" for t in range(1, 5)))
        config = write_json(tmp_path / "tiny.json", {
            "topology": {"source": "file", "path": str(topo_path)},
            "traffic": {"source": "csv", "path": str(trace_path), "n_locations": 1},
            "partition": {"zones": 2, "slots_per_zone": 2},
            "cost": {"alpha": 0.0},
        })
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert 1e169 < manifest["resolved"]["eta"] < math.inf
        assert manifest["resolved"]["eta_note"] is None

    @pytest.mark.parametrize(
        "path, value",
        [
            ("topology.grid.nx", "five"),
            ("topology.radio.bandwidth_hz", "wide"),
            ("traffic.profile.shape", "square"),
            ("cost.rho_0", 0.5),
            ("sweep.eta", ["x"]),
            ("sweep.zones", ["a"]),
            ("sweep.zones", [0]),
            ("sweep.zones", [7]),  # the period is 12 slots
            # Python's json module reads NaN and Infinity as floats
            ("cost.psi", float("nan")),
            ("cost.psi", float("inf")),
            ("cost.alpha", float("nan")),
            ("solver.tolerance", float("nan")),
            ("solver.tolerance", float("inf")),
            ("topology.grid.spacing", float("nan")),
            ("topology.radio.bandwidth_hz", float("inf")),
            ("sweep.alpha", [float("nan")]),
            ("eta", float("inf")),
        ],
    )
    def test_validate_names_bad_key_once(self, tmp_path, capsys, path, value):
        doc = json.loads(Path(minimal_config(tmp_path)).read_text())
        *sections, key = path.split(".")
        section = doc
        for name in sections:
            section = section.setdefault(name, {})
        section[key] = value
        config = write_json(tmp_path / "bad.json", doc)
        assert main(["validate", "--config", config]) == 2
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 2
        for err in capsys.readouterr().err.splitlines():
            assert err.startswith(f"config error: key '{path}'") and err.count("key '") == 1, err

    def test_readme_config_parses(self):
        section, example = readme_config()
        config = parse_config(example)
        assert config.sweep_lists == {"zones": [24, 12, 2], "rho0": [0.5, 1.0], "alpha": [0.0], "eta": [0.1]}
        # every key of the schema is listed in the README
        for name, table in SCHEMA.items():
            prefix = name.split(":")[0] + "." if name else ""
            for key in table:
                assert f"`{prefix}{key}`" in section, prefix + key

    def test_unbuildable_topology_is_config_error(self, tmp_path, capsys):
        # 4000 dBm is an infinite transmit power in watts, which the radio checks reject
        doc = json.loads(Path(minimal_config(tmp_path)).read_text())
        doc["topology"]["radio"]["ap_power_dbm"] = [4000.0, 33.0]
        config = write_json(tmp_path / "loud.json", doc)
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "config error: key 'topology.radio'" in capsys.readouterr().err

    def test_unrepresentable_noise_level_is_config_error(self, tmp_path, capsys):
        doc = json.loads(Path(minimal_config(tmp_path)).read_text())
        doc["topology"]["radio"]["noise_dbm_per_hz"] = 1e308
        config = write_json(tmp_path / "noisy.json", doc)
        assert main(["validate", "--config", config]) == 2
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err.count("config error: key 'topology.radio'") == 2

    def test_overflowing_step_is_config_error(self, tmp_path, capsys):
        config = overflowing_step_config(tmp_path)
        assert main(["validate", "--config", config]) == 0  # only the trace reveals it
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "config error: key 'eta': eta 1e+308" in capsys.readouterr().err
        assert not out.exists()

    def test_trace_too_long_for_memory_is_config_error(self, tmp_path, capsys):
        # slot 99,999,999,999 of 1,000 locations: a 728 TiB demand matrix
        doc = json.loads(Path(fast_slow_setup(tmp_path)).read_text())
        Path(doc["traffic"]["path"]).write_text("99999999999,1,1\n")
        doc["traffic"]["n_locations"] = 1000
        config = write_json(tmp_path / "far.json", doc)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "config error: key 'traffic.path': slot id 99999999999" in capsys.readouterr().err

    def test_missing_section_names_key(self, tmp_path, capsys):
        config = write_json(tmp_path / "bad.json", {"seed": 1})
        assert main(["validate", "--config", config]) == 2
        assert "topology" in capsys.readouterr().err

    def test_bad_partition_divisibility_is_config_error(self, tmp_path):
        config = minimal_config(tmp_path, partition={"zones": 5, "slots_per_zone": 5})
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2

    def test_missing_config_file_is_io_error(self, tmp_path):
        missing = tmp_path / "nope.json"
        assert main(["validate", "--config", str(missing)]) == 3

    def test_malformed_json_is_config_error(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["validate", "--config", str(path)]) == 2
        path.write_bytes(b"\xff\xfe{}")  # not UTF-8
        assert main(["validate", "--config", str(path)]) == 2
        assert capsys.readouterr().err.count("config error: config is not valid JSON") == 2

    def test_failed_run_leaves_no_directory(self, tmp_path, capsys):
        # 50 slots hold no whole period of 24 zones x 10 slots
        config = minimal_config(
            tmp_path,
            traffic={"source": "synthetic", "horizon": 50, "profile": {"slots_per_day": 6}},
            partition={"zones": 24, "slots_per_zone": 10},
        )
        out = tmp_path / "out"
        assert main(["run", "--config", config, "--out", str(out)]) == 2
        assert "config error: key 'partition'" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("content", [{"n_aps": 1}, [[1.0], [1.0]]], ids=["missing-keys", "list"])
    def test_malformed_topology_file_is_config_error(self, tmp_path, capsys, content):
        doc = json.loads(Path(fast_slow_setup(tmp_path)).read_text())
        write_json(Path(doc["topology"]["path"]), content)
        config = write_json(tmp_path / "bad_topology.json", doc)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 2
        assert "config error: key 'topology.path'" in capsys.readouterr().err


class TestWriteJson:
    def test_non_finite_floats_are_written_as_null(self, tmp_path):
        payload = {
            "bound": math.inf,
            "nested": {"gap": math.nan, "values": [1.0, -math.inf, (2.5, math.nan)]},
            "rows": [{"x": math.inf}, 0.5],
        }
        path = _write_json(tmp_path / "out.json", payload)
        assert strict_json_outputs(tmp_path)["out.json"] == {
            "bound": None,
            "nested": {"gap": None, "values": [1.0, None, [2.5, None]]},
            "rows": [{"x": None}, 0.5],
        }
        assert path.read_text().endswith("}\n")

    def test_finite_payload_is_written_as_json_dumps_writes_it(self, tmp_path):
        payload = {"b": [1.0, 2, (3.5,)], "a": {"c": None, "d": "x"}}
        path = _write_json(tmp_path / "out.json", payload)
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"

    FLOATS = [0.0, -0.0, 5e-324, -5e-324, 1e16, -1e16, 1 / 3, 2.5, 1.7976931348623157e308, 1e-7]
    NON_FINITE = [math.inf, -math.inf, math.nan]
    INTS = [0, 1, -1, 42, -(2**31), 2**53 + 1, 2**70, -(2**70)]
    TEXTS = ["", "plain", 'say "hi"', "back\\slash", "tab\tline\nend\r", "\x00\x01\x1f\x7f"]
    TEXTS += ["é ß 中 \u2028 \U0001f600"]

    def draw(self, rng, depth):
        """A random JSON-able value nested at most depth containers deep."""
        kind = rng.randrange(10 if depth else 6)
        if kind == 0:
            return rng.uniform(-1e3, 1e3) if rng.random() < 0.5 else rng.choice(self.FLOATS + self.NON_FINITE)
        if kind == 1:
            return rng.choice(self.INTS)
        if kind == 2:
            return rng.choice([True, False, None])
        if kind == 3:
            return rng.choice(self.TEXTS)
        if kind == 4:  # a float list, maybe one item long, now and then with an inf or nan
            pool = self.FLOATS + self.NON_FINITE * (rng.random() < 0.3)
            return [rng.choice(pool) for _ in range(rng.choice([1, 1, 2, 5]))]
        if kind == 5:
            return rng.choice([[], (), {}])
        items = [self.draw(rng, depth - 1) for _ in range(rng.randrange(5))]
        if kind == 6:
            return items
        if kind == 7:
            return tuple(items)
        return {rng.choice(self.TEXTS) + str(i): item for i, item in enumerate(items)}

    @staticmethod
    def nulled(value):
        """value with inf and nan as None, the reading `_write_json` writes."""
        if isinstance(value, dict):
            return {k: TestWriteJson.nulled(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [TestWriteJson.nulled(v) for v in value]
        return None if isinstance(value, float) and not math.isfinite(value) else value

    def test_random_payloads_are_written_as_json_dumps_writes_them(self, tmp_path):
        rng, non_finite = random.Random(24), 0
        for i in range(200):
            more = [self.draw(rng, 3) for _ in range(rng.randrange(3))]
            payload = {"value": self.draw(rng, 4), "more": more}
            expected = json.dumps(self.nulled(payload), sort_keys=True, indent=1) + "\n"
            non_finite += expected != json.dumps(payload, sort_keys=True, indent=1) + "\n"
            assert _write_json(tmp_path / f"{i}.json", payload).read_text() == expected
        assert non_finite > 20  # both readings were drawn often

    def test_numpy_floats_are_written_as_floats_and_other_types_rejected(self, tmp_path):
        payload = {"x": np.float64(0.1), "xs": [np.float64(1 / 3), 2.0], "big": np.float64(1e16)}
        path = _write_json(tmp_path / "out.json", payload)
        assert path.read_text() == json.dumps(payload, sort_keys=True, indent=1) + "\n"
        nan = _write_json(tmp_path / "nan.json", {"xs": [np.float64("nan")]})
        assert nan.read_text() == '{\n "xs": [\n  null\n ]\n}\n'
        for bad in (Path("trace.csv"), np.int64(3), np.bool_(True)):
            with pytest.raises(TypeError):
                _write_json(tmp_path / "bad.json", {"value": bad})
        assert not (tmp_path / "bad.json").exists()


class TestGenerators:
    def test_gen_topology_round_trip(self, tmp_path):
        config = minimal_config(tmp_path)
        out = tmp_path / "topology.json"
        assert main(["gen-topology", "--config", config, "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["n_aps"] == 2 and doc["n_locations"] == 4

    def test_gen_trace_deterministic(self, tmp_path):
        config = minimal_config(tmp_path)
        out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        assert main(["gen-trace", "--config", config, "--out", str(out1)]) == 0
        assert main(["gen-trace", "--config", config, "--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_gen_topology_requires_generate_source(self, tmp_path):
        config = fast_slow_setup(tmp_path)
        assert main(["gen-topology", "--config", config, "--out", str(tmp_path / "x.json")]) == 2


class TestSweep:
    def sweep_config(self, tmp_path, **extra):
        topo_path = tmp_path / "topology.json"
        save_topology_json(
            Topology(service_rate=np.array([[1.0, 2.0], [2.0, 1.0]])), topo_path
        )
        doc = {
            "seed": 3,
            "topology": {"source": "file", "path": str(topo_path)},
            "traffic": {
                "source": "synthetic",
                "horizon": 24,
                "profile": {"slots_per_day": 12, "sigma": 0.2, "base_min": 0.4, "base_max": 0.9},
            },
            "partition": {"zones": 2, "slots_per_zone": 6},
            "cost": {"alpha": 0.0, "rho0": 1.0, "psi": 1.0},
            "eta": 0.5,
        }
        doc.update(extra)
        return write_json(tmp_path / "sweep.json", doc)

    def csv_sweep_config(self, tmp_path, **extra):
        """Generated topology, trace read from a CSV file, period of 6 slots."""
        trace_path = tmp_path / "trace.csv"
        assert main(["gen-trace", "--config", minimal_config(tmp_path), "--out", str(trace_path)]) == 0
        doc = json.loads((tmp_path / "config.json").read_text())
        doc["traffic"] = {"source": "csv", "path": str(trace_path), "n_locations": 4}
        doc["partition"] = {"zones": 2, "slots_per_zone": 3}
        doc["solver"] = {"max_iterations": 300}
        doc.update(extra)
        return write_json(tmp_path / "csv_sweep.json", doc)

    def read_rows(self, out):
        with open(out / "sweep.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    def test_zone_sweep_two_rows(self, tmp_path):
        config = self.sweep_config(tmp_path, sweep={"zones": [1, 2]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = self.read_rows(out)
        assert [row["K"] for row in rows] == ["1", "2"]
        assert all(row["error"] == "" for row in rows)

    def test_rows_match_single_runs(self, tmp_path):
        config = self.sweep_config(tmp_path, sweep={"zones": [1, 2]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = {row["K"]: row for row in self.read_rows(out)}
        for zones in (1, 2):
            single_out = tmp_path / f"single{zones}"
            single_config = self.sweep_config(
                tmp_path, partition={"zones": zones, "slots_per_zone": 12 // zones}
            )
            assert main(["run", "--config", single_config, "--out", str(single_out)]) == 0
            report = json.loads((single_out / "regret.json").read_text())
            assert float(rows[str(zones)]["regret"]) == pytest.approx(report["regret"])

    def test_rho0_sweep_violation_monotonicity(self, tmp_path):
        # with alpha=0 and psi=1 the optimizer is threshold-blind, so a
        # stricter threshold can only flag more of the same loads
        config = self.sweep_config(
            tmp_path,
            traffic={
                "source": "synthetic",
                "horizon": 24,
                "profile": {"slots_per_day": 12, "sigma": 0.2, "base_min": 0.8, "base_max": 1.6},
            },
            sweep={"rho0": [0.5, 1.0]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = {row["rho0"]: row for row in self.read_rows(out)}
        assert int(rows["0.5"]["violations_benchmark"]) >= int(rows["1.0"]["violations_benchmark"])

    @staticmethod
    def assert_same_files(out1, out2) -> list:
        """The files under out1, each the same bytes under out2, which holds no others."""
        files = sorted(p.relative_to(out1) for p in out1.rglob("*") if p.is_file())
        assert files == sorted(p.relative_to(out2) for p in out2.rglob("*") if p.is_file())
        for name in files:
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name
        return files

    def test_parallel_equals_serial(self, tmp_path):
        config = self.sweep_config(tmp_path, sweep={"zones": [1, 2], "eta": [0.2, 0.5]})
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", "--config", config, "--out", str(out1)]) == 0
        assert main(["sweep", "--config", config, "--out", str(out2), "--jobs", "2"]) == 0
        assert len(self.assert_same_files(out1, out2)) == 1 + 4 * 4  # sweep.csv, four files per combination

    @staticmethod
    def record_fork_map(monkeypatch) -> list:
        """The worker counts `run_sweep` passes to `fork_map` from now on; the groups run here."""
        from assoclearn import cli

        counts = []

        def recorded(fn, items, workers):
            counts.append(workers)
            return list(map(fn, items))

        monkeypatch.setattr(cli, "fork_map", recorded)
        return counts

    def test_pool_no_larger_than_share_groups(self, tmp_path, monkeypatch):
        counts = self.record_fork_map(monkeypatch)
        config = self.sweep_config(tmp_path, sweep={"zones": [1, 2], "eta": [0.2, 0.5]})
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "two"), "--jobs", "500"]) == 0
        assert counts == [2]  # one worker per zones value; eta shares a group
        assert len(self.read_rows(tmp_path / "two")) == 4
        config = self.sweep_config(tmp_path, sweep={"eta": [0.2, 0.5]})
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "one"), "--jobs", "500"]) == 0
        assert counts == [2, 1]  # a single group forks nothing

    @pytest.mark.parametrize("jobs, budget", [(1, 5), (2, 2), (500, 2)])
    def test_sweep_workers_share_the_cores(self, tmp_path, monkeypatch, jobs, budget):
        # 5 usable cores: one worker's learner may use all of them, two get 2 each
        from assoclearn import cli

        budgets = []
        original = cli.run_online_stack

        def recorded(*args):
            budgets.append(args[5])
            return original(*args)

        self.record_fork_map(monkeypatch)
        monkeypatch.setattr(cli, "usable_cores", lambda: 5)
        monkeypatch.setattr(cli, "run_online_stack", recorded)
        config = self.sweep_config(tmp_path, sweep={"zones": [1, 2], "eta": [0.2, 0.5]})
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "out"), "--jobs", str(jobs)]) == 0
        assert budgets == [budget, budget]  # one stack per zones value

    def test_parallel_sweep_never_pickles_its_inputs(self, tmp_path, monkeypatch):
        def unpicklable(self, protocol):
            raise TypeError("a sweep worker must inherit the trace, not unpickle it")

        monkeypatch.setattr(TrafficTrace, "__reduce_ex__", unpicklable)
        config = self.sweep_config(tmp_path, sweep={"zones": [1, 2], "eta": [0.2, 0.5]})
        out1, out2 = tmp_path / "serial", tmp_path / "parallel"
        assert main(["sweep", "--config", config, "--out", str(out1), "--jobs", "1"]) == 0
        assert main(["sweep", "--config", config, "--out", str(out2), "--jobs", "2"]) == 0
        self.assert_same_files(out1, out2)

    def test_zero_jobs_run_like_one(self, tmp_path):
        config, _ = load_config(self.sweep_config(tmp_path, sweep={"zones": [1, 2]}))
        one = run_sweep(config, tmp_path / "one", jobs=1)
        assert run_sweep(config, tmp_path / "zero", jobs=0).read_bytes() == one.read_bytes()

    def count_sweep_calls(self, tmp_path, monkeypatch, psi):
        """Calls of the input builders and the solver in a zones x rho0 x eta sweep
        with the static benchmark at the given psi."""
        from assoclearn import cli

        calls = {}

        def counted(name):
            original = getattr(cli, name)

            def wrapper(*args, **kwargs):
                calls[name] = calls.get(name, 0) + 1
                return original(*args, **kwargs)

            monkeypatch.setattr(cli, name, wrapper)

        for name in ("build_topology", "load_trace_csv", "solve_periodic_static"):
            counted(name)
        config = self.csv_sweep_config(
            tmp_path,
            cost={"alpha": 0.0, "rho0": 1.0, "psi": psi},
            sweep={"zones": [1, 2], "rho0": [0.5, 1.0], "eta": [0.2, 0.5]},
            benchmarks={"static": True},
        )
        calls.clear()  # writing the trace built the topology once
        assert main(["sweep", "--config", config, "--out", str(tmp_path / "out")]) == 0
        assert len(self.read_rows(tmp_path / "out")) == 8
        return calls

    def test_inputs_built_and_benchmarks_solved_once(self, tmp_path, monkeypatch):
        # at alpha = 0 and psi = 1 the cost function ignores rho0, so the periodic benchmarks
        # depend on the zones alone and the static one on nothing swept: 2 periodic and 1 static solve
        calls = self.count_sweep_calls(tmp_path, monkeypatch, psi=1.0)
        assert calls == {"build_topology": 1, "load_trace_csv": 1, "solve_periodic_static": 3}

    def test_benchmarks_that_depend_on_rho0_solved_once_per_rho0(self, tmp_path, monkeypatch):
        # at psi = 2 the periodic benchmarks depend on (zones, rho0), the static ones on rho0,
        # never on eta: 4 periodic and 2 static solves
        calls = self.count_sweep_calls(tmp_path, monkeypatch, psi=2.0)
        assert calls == {"build_topology": 1, "load_trace_csv": 1, "solve_periodic_static": 6}

    def test_combination_files_match_single_runs(self, tmp_path):
        config = self.csv_sweep_config(tmp_path, sweep={"zones": [1, 2], "eta": [0.2, 0.5]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        doc = json.loads((tmp_path / "csv_sweep.json").read_text())
        del doc["sweep"]
        for zones in (1, 2):
            for eta in (0.2, 0.5):
                doc.update(partition={"zones": zones, "slots_per_zone": 6 // zones}, eta=eta)
                single = tmp_path / f"single_{zones}_{eta}"
                single_config = write_json(tmp_path / "single.json", doc)
                assert main(["run", "--config", single_config, "--out", str(single)]) == 0
                combo = out / f"K{zones}_rho1.0_alpha0.0_eta{eta}"
                for name in ("benchmark.json", "runlog.csv", "regret.json"):
                    assert (combo / name).read_bytes() == (single / name).read_bytes(), (combo, name)

    def test_stacked_combinations_match_single_runs(self, tmp_path):
        # the (rho0, eta) members of each (zones, alpha) pair are learned as one
        # stack; rho0 = 1.0 is invalid at alpha = 1 and fails that row alone
        sweep = {"zones": [1, 2], "rho0": [0.5, 0.9, 1.0], "alpha": [0.0, 1.0], "eta": [0.2, 0.5]}
        config = self.csv_sweep_config(tmp_path, sweep=sweep)
        # a longer trace of lighter demand: many loads lie below the thresholds,
        # where the slope depends on alpha
        profile = {"slots_per_day": 6, "sigma": 0.5, "base_min": 0.05, "base_max": 0.3}
        traffic = {"source": "synthetic", "horizon": 60, "profile": profile}
        generate = minimal_config(tmp_path, traffic=traffic)
        assert main(["gen-trace", "--config", generate, "--out", str(tmp_path / "trace.csv")]) == 0
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = self.read_rows(out)
        assert len(rows) == 24
        for row in rows:
            invalid = row["rho0"] == "1.0" and row["alpha"] == "1.0"
            assert ("rho0 = 1 is only allowed for alpha = 0" in row["error"]) == invalid, row
            assert (row["error"] == "") != invalid
        doc = json.loads((tmp_path / "csv_sweep.json").read_text())
        del doc["sweep"]
        for zones, rho0, alpha, eta in itertools.product(*sweep.values()):
            if rho0 == 1.0 and alpha == 1.0:
                continue
            doc.update(
                partition={"zones": zones, "slots_per_zone": 6 // zones},
                cost={"alpha": alpha, "rho0": rho0, "psi": 1.0},
                eta=eta,
            )
            single = tmp_path / "single"
            shutil.rmtree(single, ignore_errors=True)
            single_config = write_json(tmp_path / "single.json", doc)
            assert main(["run", "--config", single_config, "--out", str(single)]) == 0
            combo = out / f"K{zones}_rho{rho0}_alpha{alpha}_eta{eta}"
            for name in ("benchmark.json", "runlog.csv", "regret.json"):
                assert (combo / name).read_bytes() == (single / name).read_bytes(), (combo, name)

    def test_input_errors_end_sweep(self, tmp_path, capsys):
        config = self.csv_sweep_config(tmp_path, sweep={"zones": [1, 2]})
        trace_path = tmp_path / "trace.csv"
        trace_path.rename(tmp_path / "moved.csv")
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 3
        assert "i/o error" in capsys.readouterr().err
        assert not any(out.iterdir())
        trace_path.write_text("t,location_id,intensity\n1,9,1.0\n")
        assert main(["sweep", "--config", config, "--out", str(out)]) == 2
        assert "config error: key 'traffic.path'" in capsys.readouterr().err
        assert not any(out.iterdir())

    def test_failed_combination_leaves_no_directory(self, tmp_path):
        # 30 slots hold no whole 12-slot period: each combination fails in its partition
        config = self.sweep_config(
            tmp_path,
            traffic={"source": "synthetic", "horizon": 30, "profile": {"slots_per_day": 12}},
            sweep={"zones": [1, 2]},
        )
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = self.read_rows(out)
        assert len(rows) == 2 and all("key 'partition'" in row["error"] for row in rows)
        assert [p.name for p in out.iterdir()] == ["sweep.csv"]

    def test_evaluate_writes_nothing_and_matches_run(self, tmp_path, monkeypatch):
        from assoclearn import cli

        path = self.sweep_config(tmp_path, benchmarks={"static": True, "dynamic": True})
        config, _ = cli.load_config(path)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        monkeypatch.chdir(fresh)
        before = sorted(tmp_path.rglob("*"))
        topology = cli.build_experiment_topology(config)
        (evaluation,) = cli.evaluate([config], topology, cli.build_experiment_trace(config, topology))
        assert not any(fresh.iterdir())
        assert sorted(tmp_path.rglob("*")) == before

        out = tmp_path / "out"
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        written = strict_json_outputs(out)

        def as_json(payload):
            return json.loads(json.dumps(payload, allow_nan=False))

        assert as_json(evaluation.report.to_dict()) == written["regret.json"]
        assert sorted(evaluation.benchmarks) == ["benchmark", "benchmark_dynamic", "benchmark_static"]
        for name, solution in evaluation.benchmarks.items():
            assert as_json(solution.to_dict()) == written[f"{name}.json"], name

    def test_evaluate_shares_solves_across_eta(self, tmp_path, monkeypatch):
        from dataclasses import replace

        from assoclearn import cli

        calls = []
        original = cli.solve_periodic_static

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "solve_periodic_static", counted)
        config, _ = cli.load_config(self.sweep_config(tmp_path))
        topology = cli.build_experiment_topology(config)
        trace = cli.build_experiment_trace(config, topology)
        first, second = cli.evaluate([config, replace(config, eta=0.2)], topology, trace)
        assert len(calls) == 1
        assert first.benchmarks["benchmark"] is second.benchmarks["benchmark"]
        assert (first.report.eta_used, second.report.eta_used) == (0.5, 0.2)
        assert first.report.regret != second.report.regret

    @pytest.mark.parametrize("psi, solves", [(1.0, 1), (2.0, 2)])
    def test_evaluate_solves_each_cost_function_once(self, tmp_path, monkeypatch, psi, solves):
        from dataclasses import replace

        from assoclearn import CostParams, cli

        calls = []
        original = cli.solve_periodic_static

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "solve_periodic_static", counted)
        config, _ = cli.load_config(self.sweep_config(tmp_path))
        topology = cli.build_experiment_topology(config)
        trace = cli.build_experiment_trace(config, topology)
        configs = [replace(config, cost=CostParams(alpha=0.0, rho0=rho0, psi=psi)) for rho0 in (0.5, 1.0)]
        evaluations = cli.evaluate(configs, topology, trace)
        assert len(calls) == solves
        for sub, evaluation in zip(configs, evaluations):
            assert evaluation.run.log.rho0 == sub.cost.rho0
            alone = cli.evaluate([sub], topology, trace)[0]
            np.testing.assert_array_equal(evaluation.run.log.costs, alone.run.log.costs)
            assert evaluation.report.violations_online == alone.report.violations_online

    def test_evaluate_returns_each_config_error_in_order(self, tmp_path):
        from dataclasses import replace

        from assoclearn import cli

        config, _ = cli.load_config(overflowing_step_config(tmp_path))
        topology = cli.build_experiment_topology(config)
        trace = cli.build_experiment_trace(config, topology)
        # a 5-slot period does not divide the 12-slot horizon; eta 0.5 runs
        uneven, good = replace(config, slots_per_zone=5, eta=0.5), replace(config, eta=0.5)
        results = cli.evaluate([uneven, config, good], topology, trace)
        assert [type(r) for r in results] == [cli.ConfigError, cli.ConfigError, cli.Evaluation]
        assert str(results[0]).startswith("key 'partition'")
        assert str(results[1]).startswith("key 'eta'")
        (alone,) = cli.evaluate([good], topology, trace)
        assert results[2].report.to_dict() == alone.report.to_dict()

    def test_overflowing_step_fails_its_row_only(self, tmp_path):
        # eta 1e308 is learned in one stack with eta 0.5; the stack raises, and
        # each member is then learned alone
        config = overflowing_step_config(tmp_path, sweep={"eta": [1e308, 0.5]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = self.read_rows(out)
        assert "ConfigError: key 'eta'" in rows[0]["error"] and rows[1]["error"] == ""
        doc = json.loads(Path(config).read_text())
        del doc["sweep"]
        single = write_json(tmp_path / "single.json", {**doc, "eta": 0.5})
        assert main(["run", "--config", single, "--out", str(tmp_path / "single")]) == 0
        combo = out / "K2_rho1.0_alpha0.0_eta0.5"
        for name in ("benchmark.json", "runlog.csv", "regret.json"):
            assert (combo / name).read_bytes() == (tmp_path / "single" / name).read_bytes(), name

    def test_failed_combination_recorded(self, tmp_path):
        # alpha=2 with rho0=1 is an invalid cost combination
        config = self.sweep_config(tmp_path, sweep={"alpha": [0.0, 2.0]})
        out = tmp_path / "out"
        assert main(["sweep", "--config", config, "--out", str(out)]) == 0
        rows = self.read_rows(out)
        assert rows[0]["error"] == ""
        assert rows[1]["error"] != ""


def test_start_up_loads_no_process_modules():
    script = """
import sys
import numpy as np
import assoclearn.cli
from assoclearn import (
    CostParams, LearnerConfig, Topology, TrafficTrace, build_partition, run_online, solve_periodic_static,
)
assert not {"multiprocessing", "concurrent.futures"} & set(sys.modules), "import assoclearn.cli"
topology = Topology(service_rate=np.array([[1.0, 2.0], [2.0, 1.0]]))
trace = TrafficTrace(demand=np.full((4, 2), 0.5))
run_online(topology, trace, build_partition(4, 2, 2), CostParams(alpha=1.0, rho0=0.9), LearnerConfig(eta=0.5))
assert not {"multiprocessing", "mmap"} & set(sys.modules), "one-block run_online"
solve_periodic_static(topology, trace, build_partition(4, 2, 2), CostParams(alpha=1.0, rho0=0.9), workers=2)
assert not {"multiprocessing", "mmap"} & set(sys.modules), "solve below SPLIT_ENTRIES"
"""
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    result = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60)
    assert result.returncode == 0, result.stderr

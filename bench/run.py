"""Layered benchmark of assoclearn: end-to-end timings, per-layer spans, output checks.

Run from the repository root:

    python3 bench/run.py --workload hetnet-alpha2 --seed 1 --seconds 10 --trace 0

The process pins BLAS and OpenMP to one thread before numpy is imported,
makes the workload's inputs from --seed, and repeats the workload's
operation untraced until --seconds have passed (at least once). With
--trace 1 it runs the operation once untraced and once under the span
recorder instead, and times the cost and learner kernels directly. The
outputs of every run are checked against the independent code in
reference.py. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}, with the end-to-end metrics
under --trace 0 and the per-layer metrics under --trace 1. Outputs, spans
and the environment record go to .bench_out/<workload>/.
"""

import os
import sys
import time

START = time.perf_counter()
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import gc  # noqa: E402
import glob  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src"
SETUP_REPEATS = 3


def _count_csv(counters, trace):
    counters.update(csv_rows=int((trace.demand != 0).sum()))  # the CSV omits zero rows


def _count_online(counters, run):
    counters.update(slots=run.log.horizon, support_loss_events=run.log.support_loss_events)


def _count_window(counters, solved):
    diagnostics = solved[2]
    counters.update(iterations=diagnostics.iterations, windows_capped=int(not diagnostics.converged))


# (module attribute the program calls through, span name, counter hook)
WRAPS = [
    ("assoclearn.cli.main", "cli.main", None),
    ("assoclearn.cli.run_experiment", "cli.run_experiment", None),
    ("assoclearn.cli.build_topology", "topology.build_topology", None),
    ("assoclearn.topology.build_topology", "topology.build_topology", None),
    ("assoclearn.cli.generate_synthetic", "traffic.generate_synthetic", None),
    ("assoclearn.cli.load_trace_csv", "traffic.load_trace_csv", _count_csv),
    ("assoclearn.cli.run_online", "learner.run_online", _count_online),
    ("assoclearn.learner.run_online", "learner.run_online", _count_online),
    ("assoclearn.cli.solve_periodic_static", "benchmark.solve_periodic_static", None),
    ("assoclearn.benchmark.solve_window", "benchmark.solve_window", _count_window),
    ("assoclearn.cli.regret", "metrics.regret", None),
    ("assoclearn.metrics.replay_benchmark", "metrics.replay_benchmark", None),
    ("assoclearn.cli.runlog_to_csv", "metrics.runlog_to_csv", None),
    ("assoclearn.metrics.runlog_to_csv", "metrics.runlog_to_csv", None),
]

# kernels timed directly at the workload's shapes: (metric, module, function)
KERNELS = [
    ("cost.grad_us", "assoclearn.cost", "grad_from_loads"),
    ("cost.value_us", "assoclearn.cost", "penalized_cost_from_loads"),
    ("learner.egd_step_us", "assoclearn.learner", "egd_step"),
]


def fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program() -> None:
    """Import assoclearn from this checkout's src/, never from an installed copy."""
    if not (SOURCE / "assoclearn" / "__init__.py").is_file():
        fail(f"no assoclearn package under {SOURCE}; run from a checkout of the repository")
    sys.path.insert(0, str(SOURCE))
    import assoclearn

    if Path(assoclearn.__file__).resolve().parent != SOURCE / "assoclearn":
        fail(f"imported assoclearn from {assoclearn.__file__}, not from {SOURCE}")


def blas_threads() -> int | None:
    """Threads OpenBLAS will use, asked of the library numpy loaded; None if not found."""
    for lib in glob.glob(str(Path(np.__file__).parent.parent / "numpy.libs" / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(handle, symbol):
                getter = getattr(handle, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return None


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "thread_env": {var: os.environ[var] for var in THREAD_VARS},
        "blas_threads": blas_threads(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "python": platform.python_version(),
        "cpu_model": cpu,
        "nproc": len(os.sched_getaffinity(0)),
    }


def per_call_us(fn, *args, batch_s: float = 0.05, batches: int = 5) -> float:
    """Median time of one call in microseconds, over batches of about batch_s each."""
    calls = 1
    while True:
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        if time.perf_counter() - start >= batch_s:
            break
        calls *= 2
    samples = []
    for _ in range(batches):
        start = time.perf_counter()
        for _ in range(calls):
            fn(*args)
        samples.append((time.perf_counter() - start) / calls)
    return statistics.median(samples) * 1e6


def kernel_timings(workload, missing: list) -> dict:
    """cost and learner kernels at the workload's (n_aps, n_locations) shapes."""
    topo, params, lam = workload.probe()
    pi = topo.support / topo.support.sum(axis=0)
    loads = (pi * topo.inverse_rate) @ lam
    grad = (np.ones_like(loads)[:, None] * topo.inverse_rate) * lam[None, :]
    args = {
        "grad_from_loads": (loads, lam, topo, params),
        "penalized_cost_from_loads": (loads, params),
        "egd_step": (pi, grad, 1.0),
    }
    out = {}
    for metric, module, name in KERNELS:
        fn = getattr(importlib.import_module(module), name, None)
        if fn is None:
            missing.append(f"{module}.{name}")
            out[metric] = 0.0
        else:
            out[metric] = per_call_us(fn, *args[name])
    return out


def layer_metrics(recorder, traced_s: float, untraced_s: float) -> dict:
    span = recorder.totals()
    counters = recorder.counters
    csv_s = span["traffic.load_trace_csv"]["total_s"]
    online_s = span["learner.run_online"]["total_s"]
    solve_s = span["benchmark.solve_periodic_static"]["total_s"]
    traces = (span["traffic.generate_synthetic"], span["traffic.load_trace_csv"])
    return {
        "topology.build_s": span["topology.build_topology"]["total_s"],
        "topology.builds": span["topology.build_topology"]["calls"],
        "traffic.trace_s": sum(t["self_s"] for t in traces),
        "traffic.trace_loads": sum(t["calls"] for t in traces),
        "traffic.csv_rows_per_s": counters["csv_rows"] / csv_s if csv_s else 0.0,
        "learner.online_s": online_s,
        "learner.us_per_slot": online_s / counters["slots"] * 1e6 if counters["slots"] else 0.0,
        "learner.support_loss_events": counters["support_loss_events"],
        "benchmark.solve_s": solve_s,
        "benchmark.solves": span["benchmark.solve_periodic_static"]["calls"],
        "benchmark.iterations": counters["iterations"],
        "benchmark.us_per_iteration": solve_s / counters["iterations"] * 1e6 if counters["iterations"] else 0.0,
        "benchmark.windows_capped": counters["windows_capped"],
        "metrics.regret_s": span["metrics.regret"]["total_s"],
        "metrics.runlog_csv_s": span["metrics.runlog_to_csv"]["total_s"],
        "cli.experiment_self_s": span["cli.run_experiment"]["self_s"],
        "bench.trace_overhead_s": traced_s - untraced_s,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    benchmark_json = ROOT / "BENCHMARK.json"
    if not benchmark_json.is_file():
        fail(f"{benchmark_json} is missing")
    spec = json.loads(benchmark_json.read_text())
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail(f"unknown workload {args.workload!r}; choose from {names}")

    import_program()
    imported = time.perf_counter()
    from spans import Recorder
    from workloads import WORKLOADS

    out = ROOT / ".bench_out" / args.workload
    shutil.rmtree(out, ignore_errors=True)
    work = out / "inputs"
    work.mkdir(parents=True)
    env = environment()
    (out / "environment.json").write_text(json.dumps(env, indent=1) + "\n")
    print("environment: " + json.dumps(env))

    workload = WORKLOADS[args.workload](args.seed, work)
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    setup_s = (imported - START) + statistics.median(setups)

    attempted = failed = 0
    rounds = []  # (label, seconds, output directory, result; None when the operation raised)

    def run_once(label: str) -> float:
        nonlocal attempted, failed
        run_dir = out / label
        run_dir.mkdir()
        gc.collect()
        start = time.perf_counter()
        try:
            result = workload.run(run_dir)
        except Exception as exc:  # a failed experiment is counted, not fatal
            print(f"{label}: operation raised {type(exc).__name__}: {exc}")
            rounds.append((label, time.perf_counter() - start, run_dir, None))
            attempted, failed = attempted + 1, failed + 1
            return rounds[-1][1]
        rounds.append((label, time.perf_counter() - start, run_dir, result))
        ops = workload.operations(run_dir, result)
        attempted, failed = attempted + ops[0], failed + ops[1]
        return rounds[-1][1]

    measure_start = time.perf_counter()
    run_once("round1")
    # read after one round, so that the figure does not depend on how many rounds fit
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while not args.trace and time.perf_counter() - measure_start < args.seconds:
        run_once(f"round{len(rounds) + 1}")
    run_times = [seconds for _, seconds, _, _ in rounds]
    if args.trace:
        with Recorder() as recorder:
            for target, name, hook in WRAPS:
                recorder.wrap(target, name, hook)
            traced_s = run_once("traced")
        recorder.dump(out / "spans.json")

    problems = []
    for label, _, run_dir, result in rounds:
        if result is None:
            continue
        try:
            problems.extend(f"{label}: {p}" for p in workload.check(run_dir, result))
        except Exception as exc:  # outputs missing or malformed: report, keep going
            problems.append(f"{label}: check raised {type(exc).__name__}: {exc}")

    if args.trace:
        values = layer_metrics(recorder, traced_s, run_times[0])
        missing = list(recorder.missing)
        values.update(kernel_timings(workload, missing))
        values["benchmark.gap_sum"] = float(sum(gap for gap, _ in workload.certificates))
        values["benchmark.gap_rel_max"] = max(
            (gap / abs(obj) for gap, obj in workload.certificates if obj), default=0.0
        )
        if missing:
            print("missing (reported as 0): " + ", ".join(missing))
        wanted = spec["per_layer"]
    else:
        values = {"setup_s": setup_s, "run_s": statistics.median(run_times), "peak_rss_mb": peak_rss_mb}
        wanted = spec["end_to_end"]
        print("run_s per round: " + ", ".join(f"{t:.4f}" for t in run_times))

    for p in problems[:20]:
        print(f"CHECK FAILED {p}")
    if len(problems) > 20:
        print(f"CHECK FAILED ... and {len(problems) - 20} more")
    print(f"operations: attempted {attempted}, failed {failed}")
    metrics = {}
    for m in wanted:
        metrics[m["name"]] = {"value": float(values[m["name"]]), "unit": m["unit"]}
        print(f"{m['name']:<30} {values[m['name']]:>16.6f} {m['unit']}")
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

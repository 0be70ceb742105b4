"""Every function that bench/run.py wraps or times still exists.

The bench's span recorder lists a target it cannot find as missing and
reports its per-layer metric as 0, so a refactor that moves a call would
otherwise blank a metric silently. The targets are read from bench/run.py's
source with ast, without importing it, and resolved against the package.
"""

import ast
import importlib
from pathlib import Path

BENCH_RUN = Path(__file__).resolve().parents[1] / "bench" / "run.py"
# targets whose functions were deleted; ROADMAP.md records them as bench upkeep
DEAD = {"assoclearn.benchmark.solve_window", "assoclearn.learner.egd_step"}


def bench_entries(name):
    """The tuples of the module-level list `name` in bench/run.py, as lists of their constants."""
    for node in ast.parse(BENCH_RUN.read_text()).body:
        if isinstance(node, ast.Assign) and ast.unparse(node.targets[0]) == name:
            return [
                [field.value for field in entry.elts if isinstance(field, ast.Constant)]
                for entry in node.value.elts
            ]
    raise AssertionError(f"bench/run.py defines no {name}")


def resolves(target):
    module, attr = target.rsplit(".", 1)
    return hasattr(importlib.import_module(module), attr)


def test_wrapped_functions_exist():
    targets = [entry[0] for entry in bench_entries("WRAPS")]
    assert "assoclearn.cli.solve_periodic_static" in targets
    assert [target for target in targets if target not in DEAD and not resolves(target)] == []


def test_timed_kernels_exist():
    targets = [f"{module}.{function}" for _, module, function in bench_entries("KERNELS")]
    assert "assoclearn.cost.grad_from_loads" in targets
    assert [target for target in targets if target not in DEAD and not resolves(target)] == []

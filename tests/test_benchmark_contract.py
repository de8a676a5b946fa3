"""The benchmark's contract with the package (``perfbench/``), on seed 1.

Each workload that defines replays regenerates the start of its CLI
outputs through the per-draw API, in the documented draw order; a change
that breaks a replay fails here rather than in a benchmark run.  The
tracer looks up some names on their modules at install time
(``tracing.LAZY_IMPORTS``); each must exist there.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name):
    """``perfbench/<name>.py`` as module ``perfbench_<name>``, without
    putting ``perfbench/`` on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracing = _load("tracing")

REPLAYED = [name for name, workload in workloads.WORKLOADS.items()
            if workload.replays is not workloads.Workload.replays]


def test_some_workloads_replay():
    assert REPLAYED, "no workload defines replays"


@pytest.mark.parametrize("name", REPLAYED)
def test_replays_match_the_cli(name, tmp_path):
    workload = workloads.WORKLOADS[name](seed=1)
    results = workload.replays(str(tmp_path))
    assert [label for label, _ in results] == [f"replay {case.name}" for case in workload.cases]
    assert [(label, failure) for label, failure in results if failure is not None] == []


@pytest.mark.parametrize("layer", list(tracing.LAZY_IMPORTS))
def test_lazy_imports_resolve(layer):
    module = importlib.import_module(f"antsel.{layer}")
    for name in tracing.LAZY_IMPORTS[layer]:
        assert callable(getattr(module, name, None)), f"antsel.{layer}.{name}"

"""The benchmark still runs against the library: its hooks and its checks.

``perfbench/tracing.py`` wraps library functions by module and name; a rename
in the library would crash a traced benchmark run, so it fails here first.
The tracing module is only loaded, never changed.  Each workload's
correctness gate (every output against ``perfbench/digests.json``) runs here
too, so a changed output fails the tests rather than a later benchmark run.
Two traced runs pin the division counts, so a division that bypasses the
public ``normal_form`` (and so the tracing) fails here as well.
"""

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

import valgb
import valgb.cli  # noqa: F401  the hooks wrap cli.main too

ROOT = Path(__file__).resolve().parent.parent
TRACING = ROOT / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _snapshot() -> dict:
    """Every attribute of every valgb module and of the classes they define."""
    modules = [m for name, m in sys.modules.items()
               if name == "valgb" or name.startswith("valgb.")]
    state = {m.__name__: dict(vars(m)) for m in modules}
    for m in modules:
        for value in vars(m).values():
            if isinstance(value, type) and value.__module__.startswith("valgb"):
                state[f"{value.__module__}.{value.__qualname__}"] = dict(vars(value))
    return state


@pytest.mark.parametrize("hook", ["Spans", "ScalarCounts"])
def test_tracing_hooks_install_and_restore(hook):
    tracing = _load_tracing()
    before = _snapshot()
    instrument = getattr(tracing, hook)()
    instrument.install(valgb)
    try:
        assert _snapshot() != before
    finally:
        instrument.uninstall()
    assert _snapshot() == before


@pytest.mark.parametrize("workload", ["padic-blowup", "small-padic", "cli-mixed"])
def test_benchmark_outputs_match_digests(workload):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True


@pytest.mark.parametrize("workload, counts", [
    ("cli-mixed", {"division.normal_form_calls": 80, "division.steps": 74,
                   "division.steps_max": 6, "division.breaker_trips": 0}),
    ("padic-blowup", {"division.normal_form_calls": 58, "division.steps": 593,
                      "division.steps_max": 40, "division.breaker_trips": 1}),
])
def test_traced_division_counts(workload, counts):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is True
    assert {k: result["metrics"][k]["value"] for k in counts} == counts

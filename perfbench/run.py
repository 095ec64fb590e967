"""Pinned benchmark: time to a verified reduced basis, per entry point and layer.

    python3 perfbench/run.py --workload small-padic --seed 0 --seconds 20 --trace 0

Runs from the root of a checkout and imports ``valgb`` from its ``src``.  A
run sets up (imports ``valgb``, generates the workload's problem files from
the seed and parses them) several times and reports the median, then repeats
whole passes over the workload's operations until ``--seconds`` have passed.
Every output is checked against ``digests.json`` and the workload's
cross-checks; a failed check makes the exit status 1.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` alternates
untraced passes with passes that record spans around the public ``valgb``
functions, then runs two passes that count scalar operations, checks that
every count repeated exactly, and reports the per-layer metrics and the
tracing overhead.  Spans of the last traced pass go to
``.perfbench-out/`` in the checkout.  The last line of standard output is
always the JSON result.
"""

from __future__ import annotations

from time import perf_counter

PROCESS_START = perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import tracing  # noqa: E402
import workloads  # noqa: E402

SETUPS = 25
KINDS = ("direct", "modpm", "blowup", "cli")


class BenchError(Exception):
    """The benchmark cannot run here."""


def load_valgb():
    """Import a fresh ``valgb`` from the checkout's ``src``."""
    src = ROOT / "src"
    if not (src / "valgb" / "__init__.py").is_file():
        raise BenchError(f"no valgb package under {src}")
    if sys.path[0] != str(src):
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "valgb" or n.startswith("valgb.")]:
        del sys.modules[name]
    V = importlib.import_module("valgb")
    importlib.import_module("valgb.cli")
    if Path(V.__file__).resolve().parent != (src / "valgb").resolve():
        raise BenchError(f"valgb imported from {V.__file__}, not from {src}")
    return V


def setup(name: str, seed: int, workdir: Path):
    """Import valgb, generate the inputs and parse them."""
    V = load_valgb()
    work = workloads.build(name, seed, V, workdir)
    for fname, text in work.files.items():
        (workdir / fname).write_text(text, encoding="utf-8")
    work.parse(V)
    return V, work


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


class Pass:
    """Results of one pass over a workload's operations."""

    def __init__(self):
        self.op_s = []  # seconds per operation
        self.laps = {k: [] for k in KINDS}
        self.failures = []  # (op name, reason)
        self.digests = {}

    @property
    def busy_s(self) -> float:
        return sum(self.op_s)


def run_pass(V, work, pins: dict | None, spans=None) -> Pass:
    problems = work.parse(V)  # fresh objects, so no pass reuses cached leading terms
    gc.collect()  # start every pass from the same heap
    result = Pass()
    for op in work.ops:
        lap: dict = {}
        t0 = perf_counter()
        try:
            if spans is None:
                raw = op.run(problems, lap)
            else:
                with spans.span("op"):
                    raw = op.run(problems, lap)
            error = None
        except workloads.CheckFailed as exc:
            error = str(exc)
        except Exception as exc:  # any other exception is a failed operation
            error = f"{type(exc).__name__}: {exc}"
        result.op_s.append(perf_counter() - t0)
        for kind, seconds in lap.items():
            result.laps[kind].append(seconds)
        if error is None:
            try:
                result.digests[op.name] = digest(op.verify(raw))
            except workloads.CheckFailed as exc:
                error = str(exc)
        if error is None and pins is not None and pins.get(op.name) != result.digests[op.name]:
            error = "output digest differs from digests.json"
        if error is not None:
            result.failures.append((op.name, error))
    return result


def percentiles(kind: str, values: list) -> dict:
    """Median, plus p90 when there are at least 100 samples."""
    out = {f"{kind}_n": len(values), f"{kind}_p50_ms": 1e3 * statistics.median(values)}
    if len(values) >= 100:
        out[f"{kind}_p90_ms"] = 1e3 * statistics.quantiles(values, n=10)[-1]
    return out


def summarize(passes: list[Pass], nops: int) -> tuple[dict, dict]:
    """End-to-end metrics and the per-entry-point report of untraced passes."""
    samples = [s for p in passes for s in p.op_s]
    ops_per_s = nops / statistics.median(p.busy_s for p in passes)
    metrics = {"ops_per_s": ops_per_s, "op_p50_ms": 1e3 * statistics.median(samples)}
    report = {"passes": len(passes), "ops_per_pass": nops}
    for kind in KINDS:
        laps = [s for p in passes for s in p.laps[kind]]
        if laps:
            report.update(percentiles(kind, laps))
    return metrics, report


def measure(V, work, pins, seconds) -> tuple[list[Pass], float]:
    t0 = perf_counter()
    passes = [run_pass(V, work, pins)]
    while perf_counter() - t0 < seconds:
        passes.append(run_pass(V, work, pins))
    return passes, perf_counter() - t0


def traced(V, work, pins, seconds, out_path: Path) -> tuple[dict, dict, list[Pass]]:
    """Alternate untraced and span passes, then two scalar-count passes."""
    plain, spanned, layers, last = [], [], [], None
    t0 = perf_counter()
    while not spanned or perf_counter() - t0 < seconds:
        plain.append(run_pass(V, work, pins))
        spans = tracing.Spans()
        spans.install(V)
        try:
            spanned.append(run_pass(V, work, pins, spans))
        finally:
            spans.uninstall()
        layers.append(tracing.layer_metrics(spans))
        last = spans
    counted, counted_passes = [], []
    for _ in range(2):
        counts = tracing.ScalarCounts()
        counts.install(V)
        try:
            counted_passes.append(run_pass(V, work, pins))
        finally:
            counts.uninstall()
        counted.append(counts.metrics())

    mismatched = sorted(
        k for k, v in layers[0].items()
        if not k.endswith("_s") and any(layer[k] != v for layer in layers[1:]))
    if counted[0] != counted[1]:
        mismatched += sorted(k for k in counted[0] if counted[0][k] != counted[1][k])
    metrics = {}
    for key in layers[0]:
        values = [layer[key] for layer in layers]
        metrics[key] = statistics.median(values) if key.endswith("_s") else values[0]
    metrics.update(counted[0])

    untraced_rate = len(work.ops) / statistics.median(p.busy_s for p in plain)
    traced_rate = len(work.ops) / statistics.median(p.busy_s for p in spanned)
    report = {
        "span_passes": len(layers),
        "untraced_ops_per_s": untraced_rate,
        "traced_ops_per_s": traced_rate,
        "overhead": untraced_rate / traced_rate - 1,
        "counts_repeat": not mismatched,
        "counts_mismatched": mismatched,
    }
    out_path.parent.mkdir(exist_ok=True)
    out_path.write_text(json.dumps({"layers": metrics, "report": report,
                                    "spans": last.to_json()}), encoding="utf-8")
    return metrics, report, plain + spanned + counted_passes


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"] for m in declared["per_layer" if args.trace else "end_to_end"]}
    pins = json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))[args.workload]
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        workdir = Path(tmp)
        setups = []
        start = PROCESS_START
        for _ in range(SETUPS):
            V, work = setup(args.workload, args.seed, workdir)
            setups.append(perf_counter() - start)
            gc.collect()
            start = perf_counter()

        if args.trace:
            out = ROOT / ".perfbench-out" / f"{args.workload}-seed{args.seed}.json"
            layers, report, passes = traced(V, work, pins, args.seconds, out)
            metrics = layers
            report["full"] = layers
            report["spans_file"] = str(out.relative_to(ROOT))
        else:
            passes, wall = measure(V, work, pins, args.seconds)
            e2e, report = summarize(passes, len(work.ops))
            e2e["setup_s"] = statistics.median(setups)
            e2e["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics = e2e
            report["wall_s"] = wall
            report["setup_cold_s"] = setups[0]

    attempted = sum(len(p.op_s) for p in passes)
    failures = [f for p in passes for f in p.failures]
    report["fail_frac"] = len(failures) / attempted
    for name, reason in sorted(set(failures)):
        print(f"FAILED {args.workload}/{name}: {reason}", file=sys.stderr)
    correct = not failures and report.get("counts_repeat", True)
    print("report: " + json.dumps(report, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(2)

"""Write ``digests.json``: the canonical output digest of every operation.

    python3 perfbench/pin.py

Runs one pass of every workload for seeds 0 to 5 and requires each
operation to give the same seed-0-frame output under every seed, which also
checks the relabelling and renaming that the seeds apply.  The cross-checks
(both paths equal, Hilbert functions, the expected blow-up, CLI exit codes)
must pass.  Reduced bases are unique, so a change to the library should
never need new pins; rerun this only when a workload changes.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    pins: dict = {}
    problems = []
    for name in run.workloads.WORKLOADS:
        pins[name] = {}
        for seed in range(6):
            with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=run.ROOT) as tmp:
                V, work = run.setup(name, seed, Path(tmp))
                result = run.run_pass(V, work, None)
            problems += [f"{name} seed {seed} {op}: {why}" for op, why in result.failures]
            for op, value in result.digests.items():
                if pins[name].setdefault(op, value) != value:
                    problems.append(f"{name} seed {seed} {op}: output differs from seed 0")
    if problems:
        print("\n".join(problems), file=sys.stderr)
        return 1
    path = run.BENCH / "digests.json"
    path.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {sum(map(len, pins.values()))} digests to {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())

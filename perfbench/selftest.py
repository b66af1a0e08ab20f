"""Self-tests of the benchmark itself.

Run from the repository root:

    python3 perfbench/selftest.py

For every workload, at a tiny size, it checks that an untraced run prints
exactly the end-to-end metrics of ``BENCHMARK.json`` and a traced run
exactly its per-layer metrics, with matching units and no failed
operation; then that a planted corruption (one completion dropped from an
engine's ledger) is reported as a failed operation.  Exits non-zero on the
first mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SCALE = "0.05"


def run(workload: str, trace: int, *extra: str) -> dict:
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "3",
        "--seconds", "0.2", "--trace", str(trace), "--scale", SCALE, *extra,
    ]
    done = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, timeout=300)
    if done.returncode != 0:
        raise AssertionError(f"{' '.join(command)} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    for workload in (w["name"] for w in spec["workloads"]):
        for trace, names in wanted.items():
            result = run(workload, trace)
            printed = {name: m["unit"] for name, m in result["metrics"].items()}
            expect(printed == names, f"{workload} trace={trace}: printed {printed}")
            expect(
                result["correct"] and result["failed"] == 0 and result["attempted"] >= 1,
                f"{workload} trace={trace}: {result}",
            )
        for trace in (0, 1):
            planted = run(workload, trace, "--plant", "drop-completion")
            expect(
                planted["failed"] >= 1 and not planted["correct"],
                f"{workload} trace={trace}: dropped completion not reported: {planted}",
            )
        print(f"selftest: {workload} ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Regenerate ``references.json``, the committed reference digests.

Run from the repository root:

    python3 perfbench/references.py

Only do so when a change is meant to alter simulated outputs.
``fleet_elastic`` is not pinned (see README.md).
"""

from __future__ import annotations

import json
import sys

import run

PINNED = ("paper_qps", "decode_closed", "sessions_paged")
SEEDS = range(20)


def main() -> int:
    run._import_program()
    table = {}
    for name in PINNED:
        digests = {}
        for seed in SEEDS:
            result = run.run_pass(name, seed, 1.0)
            if result.errors:
                sys.exit(f"{name} seed {seed}: {result.errors}")
            digests[str(seed)] = result.digest
        table[name] = digests
        print(f"references: {name} pinned for seeds {SEEDS.start}-{SEEDS.stop - 1}")
    run.REFERENCES.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

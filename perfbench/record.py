#!/usr/bin/env python3
"""Write perfbench/expected.json: the expected result of every pool system.

Run from the repository root after a change to the pools, not to the
library: the file pins the library's answers so that a later change that
alters one is counted as a failed op.

    python3 perfbench/record.py

It records seeds 0 to SEEDS - 1. Each report is summarised as
"d_reg gbd sd lfd verdicts" (d_reg "inf" when infinite; one letter per
certificate: pass, fail, skipped). Nothing is written if any report fails
its checks.
"""

from __future__ import annotations

import json
import sys

import pools
import run

SEEDS = 64


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    sl = run.import_soldeg()
    table: dict = {}
    for workload in pools.WORKLOADS:
        for seed in range(SEEDS):
            lines = []
            for recipe in pools.recipes(workload, seed):
                doc = json.loads(pools.report_op(sl, pools.build(sl, recipe)))
                why = pools.check_report(doc, recipe, None)
                if why is not None:
                    print(f"error: {workload} seed {seed} {recipe.name}: {why}", file=sys.stderr)
                    return 1
                lines.append(pools.report_summary(doc))
            table.setdefault(workload, {})[str(seed)] = lines
            print(f"{workload} seed {seed}: {' | '.join(lines)}", flush=True)
    with open(pools.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump({"workloads": table}, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

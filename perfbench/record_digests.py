#!/usr/bin/env python3
"""Record the artifact digest of every workload for a list of seeds.

    python3 perfbench/record_digests.py 0-10 1009

runs one pass per workload and seed and writes ``digests.json``, which
``run.py`` checks every pass against.  ``lot_farm`` is recorded under
``lot``: its pass must reproduce the serial digest or recording fails.
Entries already in the file are kept and checked, not replaced; delete
the file to re-record after a change meant to alter a workload's output.
"""

from __future__ import annotations

import json
import sys

import run


def parse_seeds(items):
    seeds = []
    for item in items:
        low, _, high = item.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def main(argv) -> int:
    if not argv:
        print(__doc__, file=sys.stderr)
        return 2
    sys.path[:0] = [str(run.SRC)]
    from workloads import WORKLOADS

    table = json.loads(run.DIGESTS.read_text()) if run.DIGESTS.exists() else {}
    for seed in parse_seeds(argv):
        for name, cls in WORKLOADS.items():
            workload = cls(seed)
            digest = run.run_pass(workload).digest
            key = workload.digest_of or name
            recorded = table.setdefault(key, {}).setdefault(str(seed), digest)
            if recorded != digest:
                print(f"{name} seed {seed}: {digest} != {key} digest {recorded}",
                      file=sys.stderr)
                return 1
            print(f"{name} seed {seed}: {digest}")
    run.DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

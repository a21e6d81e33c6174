"""Record the benchmark's reference outputs from the program in `src/`.

    python3 perfbench/record.py [workload ...]

Writes perfbench/reference.json: for every campaign call in each pool its
exit code, `count check=...` lines, item count and the input properties seen
by the tracer; for every coset-pair round one digest per pair.  Run it only
when the recorded behaviour is meant to change; the benchmark treats any
difference from these records as a failed item.
"""

from __future__ import annotations

import json
import os
import sys

import layers
import run
import workloads


def record_campaign(workload: str, index: int, mods) -> dict:
    argv = workloads.campaign_argv(workload, index)
    col = layers.Collector()
    tracer = layers.install(col)
    try:
        rc, text, _ = workloads.run_cli(
            mods.cli, argv, os.path.join(run.TMP, "report.txt"))
    finally:
        tracer.uninstall()
    lines, counts = workloads.parse_counts(text)
    return {"argv": argv, "rc": rc, "counts": lines,
            "items": workloads.report_items(workload, counts),
            "props": col.props()}


def record_round(index: int, mods) -> dict:
    pairs = workloads.make_round(index, mods)
    return {"digests": [workloads.digest(workloads.pair_ops(st, a, b, mods))
                        for st, a, b in pairs]}


def main() -> int:
    mods = run.import_program()
    chosen = sys.argv[1:] or list(run.WORKLOADS)
    try:
        ref = workloads.load_reference()
    except OSError:
        ref = {}
    os.makedirs(run.TMP, exist_ok=True)
    for wl in chosen:
        n = workloads.pool_size(wl)
        if wl == "coset_pairs_large_d":
            ref[wl] = [record_round(i, mods) for i in range(n)]
        else:
            ref[wl] = [record_campaign(wl, i, mods) for i in range(n)]
        print(f"recorded {wl}: {n} units", file=sys.stderr)
    os.rmdir(run.TMP)
    with open(workloads.REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

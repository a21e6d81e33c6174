"""sumset-forge benchmark.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from `src/`.
With --trace 0 it prints the end-to-end metrics, with --trace 1 the per-layer
metrics of a traced pass.  The last stdout line is the result JSON; the line
before it holds the run's facts (machine, input properties, sample counts).
Exits 2 without a result when the program or the reference data is missing.
See perfbench/NOTES.md for the workloads and what each metric should move.
"""

from __future__ import annotations

import argparse
import importlib
import inspect
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import types

import layers
import workloads
from spans import percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
TMP = os.path.join(ROOT, ".perfbench_tmp")
WORKLOADS = ("campaign_small_s", "campaign_large_s", "exhaustive_offsets",
             "coset_pairs_large_d")
MODULES = ("cli", "harness", "layered", "hall_bounds", "rectify",
           "sumset_engine", "group_core", "classical_checks")
MIN_SAMPLES = 40       # units (one latency sample each) every run completes
MAX_RUN_S = 75         # a pass stops here whatever else; two fit in 180 s
TAIL_PERCENTILE = 75.0  # highest ladder percentile with >= 10 of 40 beyond
SETUP_IMPORTS = 11     # cold imports per set-up measurement
SETUP_BUILDS = 3       # input constructions per set-up measurement
# Median calibrate() time on the reference machine (Intel Xeon, 2 vCPU,
# CPython 3.11).  Each unit's time is scaled by CAL_REFERENCE_S over the
# calibration times measured around it (see `scales`).  On shared cores the
# host's speed drifts by 20-60% over seconds to minutes, in CPU time as well
# as wall time; the scaling cancels most of that.  Raw values are in the
# info line.
CAL_REFERENCE_S = 0.0035
# units of fixed work for the traced pass, per 20 s of --seconds
TRACE_UNITS = {"campaign_small_s": 20, "campaign_large_s": 20,
               "exhaustive_offsets": len(workloads.EXHAUSTIVE_CONFIGS),
               "coset_pairs_large_d": 4 * len(workloads.COSET_STRATA)}
# Run in a fresh interpreter after the source of `calibrate`: calibrate
# (twice, to warm up), time the package import, calibrate again.  The child
# calibrates itself because it may run on the other core, whose contention
# differs.
IMPORT_PROBE = ("import sys, time\n"
                "sys.path.insert(0, sys.argv[1])\n"
                "calibrate()\n"
                "c0 = calibrate()\n"
                "t = time.perf_counter()\n"
                "import sumset_forge.cli\n"
                "t = time.perf_counter() - t\n"
                "print(t, c0, calibrate())\n")


def import_program():
    sys.path.insert(0, SRC)
    return types.SimpleNamespace(**{
        m: importlib.import_module(f"sumset_forge.{m}") for m in MODULES})


def cold_import_seconds() -> tuple[float, float]:
    """Import time of the package in a fresh interpreter: (raw, scaled)."""
    probe = inspect.getsource(calibrate) + IMPORT_PROBE
    out = subprocess.run([sys.executable, "-c", probe, SRC],
                         capture_output=True, text=True, timeout=120,
                         check=True)
    t, c0, c1 = (float(v) for v in out.stdout.split())
    return t, t * 2 * CAL_REFERENCE_S / (c0 + c1)


def scales(cals: list[float]) -> list[float]:
    """Scale factor for each of the len(cals) - 1 steps timed between
    calibrations: CAL_REFERENCE_S over the median calibration in a window of
    six around the step, which follows drift without the job's own jitter."""
    return [CAL_REFERENCE_S / statistics.median(cals[max(0, i - 2):i + 4])
            for i in range(len(cals) - 1)]


def setup(workload, seed, ref, mods, import_reps, build_reps):
    """Build the run's units.  Set-up time is the median cold import plus the
    median input construction, each scaled like a unit's time; also returns
    the unscaled figure."""
    imports = [cold_import_seconds() for _ in range(import_reps)]
    builds, cals, units = [], [calibrate()], None
    for _ in range(build_reps):
        t0 = time.perf_counter()
        units = workloads.build_units(workload, seed, ref, mods, TMP)
        builds.append(time.perf_counter() - t0)
        cals.append(calibrate())
    med = statistics.median
    scaled = med(v for _, v in imports) + med(
        t * f for t, f in zip(builds, scales(cals)))
    return units, scaled, med(t for t, _ in imports) + med(builds)


def calibrate() -> float:
    """Seconds for a fixed job of the big-int bitmap primitives the program
    is built from: shift-ORs of 64 KiB ints, and low-bit iteration over a
    36 KiB int."""
    t0 = time.perf_counter()
    x = (1 << 524288) - 12345
    acc = 0
    for k in range(1, 33):
        acc |= (x << k) | (x >> k)
    bits = (1 << 300000) | sum(1 << (k * 997) for k in range(100))
    while bits:
        bits ^= bits & -bits
    return time.perf_counter() - t0


def measure(units, mods, seconds=None, count=None, cycle=1) -> dict:
    """Run units in order (cycling through the pool): a fixed count of them,
    or whole cycles until `seconds` have passed and MIN_SAMPLES units ran;
    MAX_RUN_S cuts either short.  The calibration job runs between units and
    each unit's times are scaled by `scales`.  Each cycle's item rate is kept
    as a block rate."""
    runs, cals = [], [calibrate()]
    t_start = time.perf_counter()
    while True:
        runs.append(units[len(runs) % len(units)].run(mods))
        cals.append(calibrate())
        done = len(runs)
        elapsed = time.perf_counter() - t_start
        if elapsed >= MAX_RUN_S:
            break
        if count is not None:
            if done >= count:
                break
        elif done % cycle == 0 and done >= MIN_SAMPLES and elapsed >= seconds:
            break
    wall = time.perf_counter() - t_start
    factors = scales(cals)
    scaled = [dt * f for (_, dt, _, _), f in zip(runs, factors)]
    samples = [v * f for (_, _, lat, _), f in zip(runs, factors) for v in lat]
    blocks = []
    for i in range(0, len(runs) - cycle + 1, cycle):
        block_busy = sum(scaled[i:i + cycle])
        if block_busy > 0:
            blocks.append(sum(r[0] for r in runs[i:i + cycle]) / block_busy)
    return {"items": sum(r[0] for r in runs),
            "failed": sum(r[3] for r in runs),
            "busy_s": sum(scaled), "raw_busy_s": sum(r[1] for r in runs),
            "units": len(runs), "samples": samples, "blocks": blocks,
            "wall_s": wall}


def machine() -> dict:
    facts = {"python": platform.python_version(),
             "implementation": platform.python_implementation(),
             "nproc": len(os.sched_getaffinity(0)),
             "cpu_count": os.cpu_count(), "cpu_model": None, "caches": {}}
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    facts["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    base = "/sys/devices/system/cpu/cpu0/cache"

    def read(idx: str, key: str) -> str:
        with open(os.path.join(base, idx, key), encoding="utf-8") as fh:
            return fh.read().strip()

    try:
        for idx in sorted(os.listdir(base)):
            if idx.startswith("index"):
                name = f"L{read(idx, 'level')}-{read(idx, 'type')}"
                facts["caches"][name] = read(idx, "size")
    except OSError:
        pass
    return facts


def rate(run: dict) -> float:
    """Median over the run's cycles of items per scaled second inside the
    program; the median drops cycles hit by a slowdown the scaling missed."""
    return statistics.median(run["blocks"]) if run["blocks"] else 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "sumset_forge", "__init__.py")):
        print(f"error: program source not found under {SRC}", file=sys.stderr)
        return 2
    try:
        ref = workloads.load_reference()
    except (OSError, ValueError) as exc:
        print(f"error: reference data unreadable: {exc}", file=sys.stderr)
        return 2

    mods = import_program()
    os.makedirs(TMP, exist_ok=True)
    try:
        return bench(args, ref, mods)
    finally:
        shutil.rmtree(TMP, ignore_errors=True)


def bench(args, ref, mods) -> int:
    wl = args.workload
    info: dict = {"workload": wl, "seed": args.seed, "seconds": args.seconds,
                  "trace": args.trace, "machine": machine()}
    reps = (1, 1) if args.trace else (SETUP_IMPORTS, SETUP_BUILDS)
    units, setup_s, raw_setup_s = setup(wl, args.seed, ref, mods, *reps)
    cycle = workloads.cycle_length(wl)
    problems: list[str] = []

    if args.trace:
        k = max(1, round(TRACE_UNITS[wl] * args.seconds / 20 / cycle)) * cycle
        plain = measure(units, mods, count=k, cycle=cycle)
        col = layers.Collector()
        tracer = layers.install(col)
        try:
            traced = measure(units, mods, count=k, cycle=cycle)
        finally:
            tracer.uninstall()
        overhead = rate(plain) / rate(traced) if rate(traced) else 0.0
        values = layers.metrics(tracer, col, overhead)
        problems = layers.self_check(wl, tracer)
        units_run = k
        attempted = plain["items"] + traced["items"]
        failed = plain["failed"] + traced["failed"]
        info.update({"traced_items": traced["items"], "traced_units": k,
                     "import_sites": tracer.sites,
                     "missing_spans": tracer.missing,
                     "self_check": problems or "pass"})
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in layers.metric_units()}
    else:
        run = measure(units, mods, seconds=args.seconds, cycle=cycle)
        units_run = run["units"]
        attempted, failed = run["items"], run["failed"]
        samples = run["samples"]
        rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "items_per_s": {"value": rate(run), "unit": "1/s"},
            "item_p50_ms": {"value": percentile(samples, 50.0) * 1000
                            if samples else 0.0, "unit": "ms"},
            "item_tail_ms": {"value": percentile(samples, TAIL_PERCENTILE)
                             * 1000 if samples else 0.0, "unit": "ms"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
        }
        info.update({"latency_samples": len(samples),
                     "tail_percentile": TAIL_PERCENTILE,
                     "units": units_run, "busy_s": run["busy_s"],
                     "raw_busy_s": run["raw_busy_s"], "wall_s": run["wall_s"],
                     "raw_setup_s": raw_setup_s,
                     "cycles": len(run["blocks"]),
                     "raw_items_per_s": run["items"] / run["raw_busy_s"]
                     if run["raw_busy_s"] > 0 else 0.0})
    info["failed_fraction"] = failed / attempted if attempted else 1.0
    info["inputs"] = workloads.summarize_props(wl, units, units_run)
    print(json.dumps({"info": info}, sort_keys=True, default=str))
    result = {"correct": failed == 0 and attempted > 0 and not problems,
              "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

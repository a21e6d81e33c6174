"""The four benchmark workloads.

Each workload is a fixed pool of work units whose outputs were recorded once
from the program (reference.json, written by record.py).  The benchmark seed
picks the order in which a run walks the pool, so a seed always gives the
same inputs and every unit it can reach has a recorded answer.  Campaign units
go through the `campaign` verb's entry point (`cli.main`, report written to a
file); coset-pair units call the library directly.  Functions are looked up
on their modules at call time, so the span tracer sees every call.

A unit's run returns (items, busy seconds inside the program, latency samples
in seconds, failed items).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import sys
import time
from collections import Counter

HERE = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(HERE, "reference.json")

SMALL_ARGS = ("--count", "500")
LARGE_ARGS = ("--count", "25", "--s", "24,40", "--d", "48,60,72,96,120",
              "--max-a-slack", "8")
# recorded campaign calls per random workload; a campaign_large_s run makes
# at least 40 calls and so covers its whole pool: the calls differ in cost
# (s ranges over 24..40), and a run's mix of them should not depend on seed
CAMPAIGN_POOL = {"campaign_small_s": 120, "campaign_large_s": 40}
# Ten configurations, so that 4 cycles give the 40 latency samples a run
# needs.  Per-item cost is set by s (about 0.15, 0.23, 0.33 and 0.42 ms for
# s = 6..9), so the median (rank 20 of 40) falls inside the twelve s=7 calls
# and the p75 (rank 30) inside the twelve s=8 calls.
EXHAUSTIVE_CONFIGS = tuple((s, max_a) for max_a in (12, 13, 14)
                           for s in (6, 7, 8)) + ((9, 12),)
COSET_POOL = 8                 # recorded rounds of coset pairs
NAIVE_MAX_D = 4096             # sumset_naive cross-check only at or below this

# One coset-pairs round of 20 pairs, in rank order of seed-code latency.
# Strata repeat so that the median (rank 10 of 20) falls inside the seven
# 65536/0.05 random pairs and the p75 (rank 15) inside the three 55440/504
# coset pairs, each group well apart from its neighbours, so neither
# percentile sits on a gap between two strata.  Fills are fixed per stratum,
# so a pair's cost depends on its stratum and not on the draw.
#   ("random", d, density)  or  ("coset", d, |H|, fill of A, fill of B)
BALANCED = (0.78, 0.72)
UNBALANCED = (0.78, 0.53)   # |B| < 3|A|/4 < 2|B|: prop2 applies, prop1 not
COSET_STRATA = (
    ("coset", 4096, 512) + UNBALANCED,
    ("coset", 2520, 360) + BALANCED,
    *[("random", 55440, 0.05)] * 4,
    *[("random", 65536, 0.05)] * 7,
    ("coset", 65536, 1024) + BALANCED,
    *[("coset", 55440, 504) + UNBALANCED] * 3,
    ("random", 65536, 0.5),
    ("coset", 524288, 512) + BALANCED,
    ("coset", 720720, 180) + BALANCED,
)


def load_reference() -> dict:
    with open(REFERENCE, "r", encoding="utf-8") as fh:
        return json.load(fh)


def seed_order(n: int, seed: int, tag: str) -> list[int]:
    order = list(range(n))
    random.Random(f"{tag}:{seed}").shuffle(order)
    return order


# ---------------------------------------------------------------------------
# campaigns through the CLI


def campaign_argv(workload: str, index: int) -> list[str]:
    if workload == "exhaustive_offsets":
        s, max_a = EXHAUSTIVE_CONFIGS[index]
        return ["campaign", "--mode", "exhaustive", "--s", str(s),
                "--max-a", str(max_a)]
    extra = SMALL_ARGS if workload == "campaign_small_s" else LARGE_ARGS
    return ["campaign", "--mode", "random", "--seed", str(index + 1), *extra]


def pool_size(workload: str) -> int:
    if workload == "exhaustive_offsets":
        return len(EXHAUSTIVE_CONFIGS)
    if workload == "coset_pairs_large_d":
        return COSET_POOL
    return CAMPAIGN_POOL[workload]


def report_items(workload: str, counts: dict[str, dict[str, int]]) -> int:
    """Items a report covers: offset sets for exhaustive, else instances."""
    key = "lemma2" if workload == "exhaustive_offsets" else "instances"
    return sum(counts.get(key, {}).values())


def parse_counts(text: str) -> tuple[list[str], dict[str, dict[str, int]]]:
    lines = [l for l in text.splitlines() if l.startswith("count ")]
    counts: dict[str, dict[str, int]] = {}
    for line in lines:
        fields = line.split()[1:]
        check = fields[0].split("=", 1)[1]
        counts[check] = {k: int(v) for k, v in
                         (f.split("=", 1) for f in fields[1:])}
    return lines, counts


def run_cli(cli, argv: list[str], out_path: str) -> tuple[int, str, float]:
    """One campaign call; returns (exit code, report text, seconds)."""
    sink = io.StringIO()
    with contextlib.redirect_stderr(sink), contextlib.redirect_stdout(sink):
        t0 = time.perf_counter()
        rc = cli.main(argv + ["--out", out_path])
        dt = time.perf_counter() - t0
    with open(out_path, "r", encoding="utf-8") as fh:
        text = fh.read()
    os.remove(out_path)
    return rc, text, dt


class CampaignUnit:
    def __init__(self, workload: str, index: int, ref: dict, out_path: str):
        self.argv = campaign_argv(workload, index)
        self.ref = ref
        self.out_path = out_path

    def run(self, mods) -> tuple[int, float, list[float], int]:
        items = self.ref["items"]
        try:
            rc, text, dt = run_cli(mods.cli, self.argv, self.out_path)
        except Exception as exc:           # a crash fails the whole call
            print(f"error: {' '.join(self.argv)}: {exc!r}", file=sys.stderr)
            return items, 0.0, [], items
        lines, _ = parse_counts(text)
        ok = rc == self.ref["rc"] and lines == self.ref["counts"]
        if not ok:
            print(f"mismatch: {' '.join(self.argv)} rc={rc}",
                  file=sys.stderr)
        return items, dt, [dt / items], 0 if ok else items


# ---------------------------------------------------------------------------
# coset pairs through the library


def _bits(d: int, members) -> int:
    buf = bytearray((d + 7) // 8)
    for m in members:
        buf[m >> 3] |= 1 << (m & 7)
    return int.from_bytes(buf, "little")


def make_pair(stratum, rng: random.Random, mods):
    """Two residue sets for one stratum; the larger one comes first."""
    g = mods.group_core.CyclicGroup(stratum[1])
    d = stratum[1]
    if stratum[0] == "random":
        density = stratum[2]
        if density == 0.5:
            bits = [rng.getrandbits(d) or 1 for _ in range(2)]
        else:
            n = round(density * d)
            bits = [_bits(d, rng.sample(range(d), n)) for _ in range(2)]
    else:
        h, fill_a, fill_b = stratum[2], stratum[3], stratum[4]
        step = d // h
        bits = []
        for fill in (fill_a, fill_b):
            x = rng.randrange(d)
            k = round(fill * h)
            bits.append(_bits(d, ((x + step * j) % d
                                  for j in rng.sample(range(h), k))))
    a, b = (mods.group_core.ResidueSet(g, v) for v in bits)
    return (a, b) if len(a) >= len(b) else (b, a)


def make_round(index: int, mods) -> list:
    rng = random.Random(f"coset_pairs_large_d:{index}")
    return [(stratum, *make_pair(stratum, rng, mods))
            for stratum in COSET_STRATA]


def pair_ops(stratum, a, b, mods) -> list:
    se, cc = mods.sumset_engine, mods.classical_checks
    s = se.sumset(a, b)
    if stratum[0] == "random":
        return [s]
    return [s, se.stabilizer(s), cc.kneser_decomposition(a, b),
            cc.prop1_single_coset(a, b), cc.prop2_single_coset(a, b)]


def _canon(x):
    if hasattr(x, "bits") and hasattr(x, "group"):            # ResidueSet
        n = (x.group.modulus + 7) // 8
        return hashlib.sha256(x.bits.to_bytes(n, "little")).hexdigest()
    if hasattr(x, "order") and hasattr(x, "group"):           # Subgroup
        return ("H", x.order)
    if hasattr(x, "applicable"):                              # CheckOutcome
        return (x.name, x.applicable, x.holds, _canon(x.witness))
    if isinstance(x, tuple):
        return tuple(_canon(v) for v in x)
    return x


def digest(results) -> str:
    text = repr([_canon(r) for r in results])
    return hashlib.sha256(text.encode()).hexdigest()[:24]


def pair_props(stratum, a, b) -> dict:
    d = stratum[1]
    return {"kind": stratum[0], "d": d,
            "h": stratum[2] if stratum[0] == "coset" else None,
            "density_a": len(a) / d, "density_b": len(b) / d,
            "bitmap_bytes": (d + 7) // 8}


class CosetPair:
    def __init__(self, stratum, a, b, want: str):
        self.stratum, self.a, self.b, self.want = stratum, a, b, want

    def run(self, mods) -> tuple[int, float, list[float], int]:
        try:
            t0 = time.perf_counter()
            results = pair_ops(self.stratum, self.a, self.b, mods)
            dt = time.perf_counter() - t0
            ok = digest(results) == self.want
            if ok and self.stratum[1] <= NAIVE_MAX_D:
                naive = mods.sumset_engine.sumset_naive(self.a, self.b)
                ok = naive.bits == results[0].bits
        except Exception as exc:
            print(f"error: pair {self.stratum}: {exc!r}", file=sys.stderr)
            return 1, 0.0, [], 1
        if not ok:
            print(f"mismatch: pair {self.stratum}", file=sys.stderr)
        return 1, dt, [dt], 0 if ok else 1

    def props(self) -> dict:
        return pair_props(self.stratum, self.a, self.b)


# ---------------------------------------------------------------------------


def build_units(workload: str, seed: int, ref: dict, mods, tmp_dir: str):
    """The work units of one run, in the seed's order (the run cycles)."""
    order = seed_order(pool_size(workload), seed, workload)
    entries = ref[workload]
    if workload == "coset_pairs_large_d":
        units = []
        for i in order:
            pairs = [CosetPair(*p, want) for p, want
                     in zip(make_round(i, mods), entries[i]["digests"])]
            random.Random(f"pairs:{seed}:{i}").shuffle(pairs)
            units += pairs
        return units
    out_path = os.path.join(tmp_dir, "report.txt")
    return [CampaignUnit(workload, i, entries[i], out_path) for i in order]


def cycle_length(workload: str) -> int:
    """Units a run completes as a block, so every run covers whole cycles."""
    if workload == "exhaustive_offsets":
        return len(EXHAUSTIVE_CONFIGS)
    if workload == "coset_pairs_large_d":
        return len(COSET_STRATA)
    return 1


def summarize_props(workload: str, units, used: int) -> dict:
    """Input properties of the units a run executed."""
    done = [units[k % len(units)] for k in range(used)]
    if workload == "coset_pairs_large_d":
        kinds = Counter()
        for unit in done:
            p = unit.props()
            kinds[f"{p['kind']}:d={p['d']}:h={p['h']}"] += 1
        return {"pairs_by_stratum": dict(sorted(kinds.items())),
                "largest_bitmap_bytes": max(
                    (st[1] + 7) // 8 for st in COSET_STRATA),
                "round_pairs": [
                    {k: (round(v, 4) if isinstance(v, float) else v)
                     for k, v in unit.props().items()}
                    for unit in done[:len(COSET_STRATA)]]}
    s_hist, d_hist = Counter(), Counter()
    distinct, hall_left, hall_density, hall_calls, items = 0.0, 0.0, 0.0, 0, 0
    for unit in done:
        p = unit.ref["props"]
        s_hist.update({int(k): v for k, v in p["s"].items()})
        d_hist.update({int(k): v for k, v in p["d"].items()})
        distinct += p["distinct_offset_sets"]
        items += unit.ref["items"]
        hall_calls += p["hall_calls"]
        hall_left += p["hall_left_sum"]
        hall_density += p["hall_density_sum"]
    return {
        "distinct_offset_set_ratio_per_call": distinct / items if items else 0,
        "s_hist": dict(sorted(s_hist.items())),
        "d_hist": dict(sorted(d_hist.items())),
        "hall_family_size_mean": hall_left / hall_calls if hall_calls else 0,
        "hall_family_density_mean":
            hall_density / hall_calls if hall_calls else 0,
    }

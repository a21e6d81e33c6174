"""Campaign machinery: instance generation, verification drivers, report
records, and the sumset kernel benchmark.

Reports are line-oriented text, byte-stable for a fixed (version, params,
seed); wall-clock timings are kept out of the stable body and surfaced on the
console instead.  Workers partition the instance stream by index, so the merge
is independent of completion order.
"""

from __future__ import annotations

import json
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from math import ceil, gcd
from typing import Iterable, Optional

from . import layered as ls
from .group_core import CyclicGroup, ResidueSet
from .hall_bounds import (BoundViolation, abc_parameters, lemma2_certificate,
                          prop5_bound, r_parameter)
from .layered import (ConclusionFailed, LayeredSet, LayeredSetError,
                      NotApplicable)
from .sumset_engine import IntegerSet, sumset, sumset_naive

REPORT_VERSION = "sumset-forge-report v1"
THREADS_ENV = "SUMSET_FORGE_THREADS"


# ---------------------------------------------------------------------------
# instance I/O


def instance_to_json(L: LayeredSet) -> str:
    doc = {"d": L.d,
           "layers": [{"a": a, "set": list(b)} for a, b in L.layers]}
    return json.dumps(doc, separators=(",", ":"), sort_keys=True)


def _strict_int(value, what: str) -> int:
    """The value itself when it is a JSON integer; floats, strings and
    booleans (a subclass of int) are refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise LayeredSetError(f"{what} must be an integer, got {value!r}")
    return value


def instance_from_doc(doc) -> LayeredSet:
    if not isinstance(doc, dict) or "d" not in doc or "layers" not in doc:
        raise LayeredSetError('document must carry "d" and "layers"')
    try:
        d = _strict_int(doc["d"], "d")
        layers = [(_strict_int(layer["a"], "a"),
                   [_strict_int(m, "set member") for m in layer["set"]])
                  for layer in doc["layers"]]
    except (KeyError, TypeError) as exc:
        raise LayeredSetError(f"malformed instance document: {exc}") from exc
    try:
        return LayeredSet.of(d, layers)
    except ValueError as exc:
        raise LayeredSetError(str(exc)) from exc


def load_instance(path: str) -> LayeredSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise LayeredSetError(f"parse error: {exc}") from exc
    return instance_from_doc(doc)


# ---------------------------------------------------------------------------
# structured generator


@dataclass(frozen=True)
class GenParams:
    d_values: tuple[int, ...] = (12, 16, 18, 24, 30, 36)
    s_min: int = 6
    s_max: int = 9
    max_a_slack: int = 3        # extra room above the interval offset set
    density: float = 0.75       # minimum per-layer fill ratio of its coset
    epsilon: float = 0.0        # chance to push one element out of its coset


def generate_instance(p: GenParams, rng: random.Random) -> LayeredSet:
    """One structured instance: pick d, a subgroup order h | d, an offset set
    with gcd 1, a slope x, fill each layer inside its prescribed coset, then
    translate so 0 lands in the first layer."""
    while True:
        d = rng.choice(p.d_values)
        divs = CyclicGroup(d).divisors()
        h = rng.choice(divs)
        s = rng.randint(p.s_min, p.s_max)
        top = s - 1 + rng.choice([0] * 4 + list(range(1, p.max_a_slack + 1)))
        offsets = sorted(rng.sample(range(1, top), s - 2)) if s > 2 else []
        offsets = [0] + offsets + [top]
        g = 0
        for a in offsets:
            g = gcd(g, a)
        if g != 1:
            continue
        step = d // h
        x = rng.randrange(d)
        lo = max(1, ceil(p.density * h))
        layers = []
        for a in offsets:
            coset = [(a * x + k * step) % d for k in range(h)]
            layers.append(set(rng.sample(coset, rng.randint(lo, h))))
        if p.epsilon and rng.random() < p.epsilon:
            i = rng.randrange(s)
            layers[i].add(rng.randrange(d))
        b0 = rng.choice(sorted(layers[0]))
        layers = [{(m - b0) % d for m in b} for b in layers]
        return LayeredSet.of(d, list(zip(offsets, layers)))


def canonical_instances() -> list[tuple[str, LayeredSet]]:
    """Deterministic battery prepended to every random campaign; includes the
    extremal full-coset instance whose (max a_i)|H| comparison is an exact
    equality (15 = 15)."""
    coset = [0, 4, 8]
    full_coset = LayeredSet.of(
        12, [(a, [(a + m) % 12 for m in coset]) for a in range(6)])
    all_full = LayeredSet.of(
        12, [(a, list(range(12))) for a in range(6)])
    trivial_h = LayeredSet.of(
        7, [(a, [(3 * a) % 7]) for a in range(6)])
    return [("full-coset-d12", full_coset),
            ("all-full-group-d12", all_full),
            ("trivial-subgroup-d7", trivial_h)]


# ---------------------------------------------------------------------------
# verification driver


@dataclass(frozen=True)
class Finding:
    check: str
    status: str
    detail: str
    instance: str               # compact JSON document

    def line(self) -> str:
        return (f"finding check={self.check} status={self.status} "
                f"detail={self.detail} instance={self.instance}")


@dataclass
class Tally:
    counts: dict[str, dict[str, int]] = field(default_factory=dict)
    findings: list[Finding] = field(default_factory=list)

    def bump(self, check: str, key: str, n: int = 1) -> None:
        self.counts.setdefault(check, {})[key] = \
            self.counts.setdefault(check, {}).get(key, 0) + n

    def merge(self, other: "Tally") -> None:
        for check, m in other.counts.items():
            for key, n in m.items():
                self.bump(check, key, n)
        self.findings.extend(other.findings)

    @property
    def violations(self) -> int:
        return sum(1 for f in self.findings if f.status == "violated")


def verify_instance(L: LayeredSet, tally: Tally) -> dict:
    """Run every layered check on one instance, feeding the tally; returns a
    record of what each check produced (for the CLI `verify` verb)."""
    doc = instance_to_json(L)
    ratio = ls.doubling_ratio(L)
    record: dict = {"size": L.size(), "sumset_size": L.flat.total_size(),
                    "ratio": ratio}
    applicable = ls.is_applicable(L)
    tally.bump("instances", "applicable" if applicable else "not_applicable")
    record["applicable"] = applicable

    try:
        bound = ls.prop6_lower_bound(L)
        record["prop6"] = bound
        tally.bump("prop6", "holds")
    except BoundViolation as exc:
        record["prop6"] = str(exc)
        tally.bump("prop6", "violated")
        tally.findings.append(Finding("prop6", "violated", str(exc), doc))

    ok = ls.corollary1_check(L)
    record["corollary1"] = ok
    tally.bump("corollary1", "holds" if ok else "violated")
    if not ok:
        tally.findings.append(Finding("corollary1", "violated", "", doc))

    p7 = ls.check_prop7(L)
    record["prop7"] = p7
    if p7.applicable:
        tally.bump("prop7", "holds" if p7.holds else "violated")
        if p7.violated:
            tally.findings.append(
                Finding("prop7", "violated", f"max_a={L.max_offset()}", doc))
    else:
        tally.bump("prop7", "not_applicable")

    out = ls.find_structure(L)
    record["structure"] = out
    if isinstance(out, NotApplicable):
        tally.bump("structure", "not_applicable")
    elif isinstance(out, ConclusionFailed):
        tally.bump("structure", "violated")
        tally.findings.append(
            Finding("structure", "violated",
                    f"{out.conclusion}:{out.detail}", doc))
    else:
        tally.bump("structure", "holds")
        if not ls.verify_witness(L, out):
            tally.bump("structure", "violated")
            tally.findings.append(
                Finding("structure", "violated", "witness re-verification", doc))
        tally.bump("ineq7", out.ineq7)
        if out.ineq7 == ls.INEQ7_EQUALITY:
            lhs = L.max_offset() * out.subgroup.order
            saturated = ls.is_coset_saturated(L, out.subgroup)
            tally.bump("ineq7-equality",
                       "saturated" if saturated else "unsaturated")
            tally.findings.append(
                Finding("ineq7", "equality", f"{lhs}={lhs}", doc))
        l5 = ls.check_lemma5(L, out.subgroup)
        record["lemma5"] = l5
        record["uvw"] = ls.uvw_partition(L, out.subgroup)
        if l5.applicable:
            tally.bump("lemma5", "holds" if l5.holds else "violated")
            if l5.violated:
                tally.findings.append(
                    Finding("lemma5", "violated", f"uvw={l5.witness}", doc))
        else:
            tally.bump("lemma5", "not_applicable")
    return record


# ---------------------------------------------------------------------------
# campaigns


@dataclass
class CampaignReport:
    mode: str
    seed: Optional[int]
    params: dict
    tally: Tally
    timings: dict[str, float] = field(default_factory=dict)

    def to_text(self) -> str:
        lines = [REPORT_VERSION, f"mode {self.mode}",
                 f"seed {self.seed if self.seed is not None else '-'}"]
        for key in sorted(self.params):
            lines.append(f"param {key} {self.params[key]}")
        for f in self.findings_sorted():
            lines.append(f.line())
        for check in sorted(self.tally.counts):
            parts = " ".join(f"{k}={v}" for k, v
                             in sorted(self.tally.counts[check].items()))
            lines.append(f"count check={check} {parts}")
        lines.append("end")
        return "\n".join(lines) + "\n"

    def findings_sorted(self) -> list[Finding]:
        return sorted(self.tally.findings,
                      key=lambda f: (f.check, f.status, f.instance, f.detail))


def _rng_for(seed: int, index: int) -> random.Random:
    return random.Random(f"{seed}:{index}")


def _run_random_chunk(args) -> Tally:
    p, seed, start, stop = args
    tally = Tally()
    for i in range(start, stop):
        L = generate_instance(p, _rng_for(seed, i))
        verify_instance(L, tally)
    return tally


def worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def campaign_random(p: GenParams, count: int, seed: int,
                    include_canonical: bool = True) -> CampaignReport:
    t0 = time.perf_counter()
    tally = Tally()
    if include_canonical:
        for _, L in canonical_instances():
            verify_instance(L, tally)
    threads = worker_count()
    if threads <= 1 or count < 2 * threads:
        tally.merge(_run_random_chunk((p, seed, 0, count)))
    else:
        bounds = [count * k // threads for k in range(threads + 1)]
        jobs = [(p, seed, a, b) for a, b in zip(bounds, bounds[1:])]
        with ProcessPoolExecutor(max_workers=threads) as pool:
            for part in pool.map(_run_random_chunk, jobs):
                tally.merge(part)
    params = {"count": count, "d": ",".join(map(str, p.d_values)),
              "s": f"{p.s_min}..{p.s_max}", "density": p.density,
              "epsilon": p.epsilon, "max_a_slack": p.max_a_slack,
              "canonical": int(include_canonical)}
    report = CampaignReport("random", seed, params, tally)
    report.timings["total"] = time.perf_counter() - t0
    return report


class CapExceeded(ValueError):
    pass


def enumerate_offset_sets(s: int, max_a: int) -> Iterable[IntegerSet]:
    """All A' with |A'| = s, 0 in A', gcd of nonzero elements 1, max <= max_a."""
    from itertools import combinations
    for rest in combinations(range(1, max_a + 1), s - 1):
        g = 0
        for m in rest:
            g = gcd(g, m)
        if g == 1:
            yield IntegerSet.of(rest[-1] + 1, (0,) + rest)


def count_offset_sets(s: int, max_a: int) -> int:
    from math import comb
    return comb(max_a, s - 1)


def campaign_exhaustive(s_values: tuple[int, ...], max_a: int,
                        cap: int = 2_000_000) -> CampaignReport:
    """Full enumeration of the projection space: the SDR certificate, the
    refined bound, and the missing-element profile, for every offset set."""
    t0 = time.perf_counter()
    estimate = sum(count_offset_sets(s, max_a) for s in s_values)
    if estimate > cap:
        raise CapExceeded(
            f"estimated cardinality {estimate} exceeds cap {cap}")
    tally = Tally()
    for s in s_values:
        for aset in enumerate_offset_sets(s, max_a):
            doc = json.dumps(list(aset), separators=(",", ":"))
            try:
                lemma2_certificate(aset)
                tally.bump("lemma2", "holds")
            except BoundViolation as exc:
                tally.bump("lemma2", "violated")
                tally.findings.append(
                    Finding("lemma2", "violated", str(exc), doc))
            r = r_parameter(aset)
            if aset.max() == s + r - 3:
                try:
                    prop5_bound(aset)
                    tally.bump("prop5", "holds")
                except BoundViolation as exc:
                    tally.bump("prop5", "violated")
                    tally.findings.append(
                        Finding("prop5", "violated", str(exc), doc))
                profile = abc_parameters(aset)
                if profile.a + profile.b + profile.c == r - 2:
                    tally.bump("abc-sum", "holds")
                else:
                    tally.bump("abc-sum", "violated")
                    tally.findings.append(
                        Finding("abc-sum", "violated", str(profile), doc))
            else:
                tally.bump("prop5", "not_applicable")
    params = {"s": ",".join(map(str, s_values)), "max_a": max_a}
    report = CampaignReport("exhaustive", None, params, tally)
    report.timings["total"] = time.perf_counter() - t0
    return report


# ---------------------------------------------------------------------------
# kernel benchmark


def _random_residue_pair(d: int, density: float, rng: random.Random):
    g = CyclicGroup(d)
    n = max(1, int(d * density))
    return (ResidueSet.of(g, rng.sample(range(d), n)),
            ResidueSet.of(g, rng.sample(range(d), n)))


KERNELS = {"bitset": sumset, "naive": sumset_naive}


def bench(kernels: tuple[str, ...], d_values: tuple[int, ...],
          density: float, repeats: int, seed: int = 0) -> list[dict]:
    """Median-of-repeats timings; a correctness cross-check runs first."""
    for name in kernels:
        if name not in KERNELS:
            raise ValueError(f"unknown kernel {name!r}")
    rng = random.Random(seed)
    for _ in range(20):
        a, b = _random_residue_pair(64, 0.3, rng)
        if sumset(a, b).bits != sumset_naive(a, b).bits:
            raise AssertionError("kernel cross-check failed")
    rows = []
    for d in d_values:
        a, b = _random_residue_pair(d, density, rng)
        for name in kernels:
            fn = KERNELS[name]
            times = []
            for _ in range(repeats):
                t0 = time.perf_counter()
                fn(a, b)
                times.append(time.perf_counter() - t0)
            times.sort()
            rows.append({"kernel": name, "d": d, "density": density,
                         "size": len(a), "median_s": times[len(times) // 2]})
    return rows

"""Campaign machinery: instance I/O and generation, the check tables and
their driver, and the random and exhaustive campaigns with their reports.

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
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from functools import partial
from math import ceil, gcd
from typing import Callable, Iterable, Optional

from . import layered as ls
from .classical_checks import CheckOutcome
from .group_core import Bitmap, CyclicGroup, ResidueSet, fold
from .hall_bounds import (BoundViolation, abc_parameters, is_unsaturated,
                          lemma2_certificate, prop5_bound)
from .layered import (ConclusionFailed, LayeredSet, LayeredSetError,
                      NotApplicable)
from .sumset_engine import IntegerSet

REPORT_VERSION = "sumset-forge-report v1"
THREADS_ENV = "SUMSET_FORGE_THREADS"

# input d and offsets above this are refused: their bitmaps exhaust memory
MAX_WIDTH = 1 << 24


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
    if max([d] + [a for a, _ in layers]) > MAX_WIDTH:
        raise LayeredSetError(f"d or an offset exceeds the cap {MAX_WIDTH}")
    try:
        return LayeredSet.of(d, layers)
    except ValueError as exc:
        raise LayeredSetError(str(exc)) from exc


def load_instance(path: str) -> LayeredSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:       # bad JSON, bad UTF-8, huge integers
            raise LayeredSetError(f"parse error: {exc}") from exc
        except RecursionError:
            raise LayeredSetError("parse error: nesting too deep") from None
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
        # slack 0 is drawn four times as often as each positive slack
        top = s - 1 + max(0, rng.choice(range(-3, p.max_a_slack + 1)))
        offsets = sorted(rng.sample(range(1, top), s - 2)) if s > 2 else []
        offsets = [0] + offsets + [top]
        if gcd(*offsets) != 1:
            continue
        step = d // h
        x = rng.randrange(d)
        lo = max(1, ceil(p.density * h))
        layers = []
        for a in offsets:
            # sample draws by index, so indices j give the members a sample
            # of the coset list [(a*x + j*step) % d for j < h] would give
            ax = a * x
            layers.append(Bitmap.bits_of(
                ((ax + j * step) % d
                 for j in rng.sample(range(h), rng.randint(lo, h))), d))
        if p.epsilon and rng.random() < p.epsilon:
            i = rng.randrange(s)
            layers[i] |= 1 << rng.randrange(d)
        group = CyclicGroup(d)
        # members() ascends, as sorted() of the member set did
        b0 = rng.choice(ResidueSet(group, layers[0]).members())
        return LayeredSet(group, tuple(
            (a, ResidueSet(group, fold(bits << d - b0, d)))
            for a, bits in zip(offsets, layers)))


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

    def run_checks(self, checks: tuple, subject,
                   to_json: Callable[[], str]) -> list[str]:
        """Run a check table on one subject and return its entries' lines,
        in table order.  An entry reports through `emit(check, key,
        detail=None)`, which counts `key` under `check` and, given a detail,
        records the finding of the same (check, key) with the subject's JSON
        from `to_json()`; most subjects have no finding and no JSON."""

        def emit(check: str, key: str, detail: Optional[str] = None) -> None:
            self.bump(check, key)
            if detail is not None:
                self.findings.append(Finding(check, key, detail, to_json()))

        return [line for check in checks for line in check(subject, emit)]


def _certified(emit, check: str, bound, *args):
    """A check that holds unless `bound` raises: its value, or the message of
    the violation."""
    try:
        value = bound(*args)
    except BoundViolation as exc:
        emit(check, "violated", str(exc))
        return str(exc)
    emit(check, "holds")
    return value


def _outcome(emit, out: CheckOutcome, detail: str) -> str:
    """Count and line of a check that may not apply (prop7, lemma5); the
    detail goes into the finding of a violation."""
    if not out.applicable:
        emit(out.name, "not_applicable")
        return f"check {out.name} applicable=false"
    emit(out.name, "holds" if out.holds else "violated",
         detail if out.violated else None)
    return f"check {out.name} applicable=true holds={str(out.holds).lower()}"


# The instance check table's entries look `layered` functions up at call
# time, so a wrapper bound to the module name sees every call.

def _check_flatten(L: LayeredSet, emit) -> list[str]:
    emit("instances", "applicable" if L.applicable else "not_applicable")
    return [f"check flatten size={L.flat.total} base={L.size} "
            f"ratio={L.ratio}",
            f"check applicable {str(L.applicable).lower()}"]


def _check_prop6(L: LayeredSet, emit) -> list[str]:
    bound = _certified(emit, "prop6", ls.prop6_lower_bound, L)
    return [f"check prop6 bound={bound}"]


def _check_corollary1(L: LayeredSet, emit) -> list[str]:
    ok = ls.corollary1_check(L)
    emit("corollary1", "holds" if ok else "violated", None if ok else "")
    return [f"check corollary1 holds={str(ok).lower()}"]


def _check_prop7(L: LayeredSet, emit) -> list[str]:
    return [_outcome(emit, ls.check_prop7(L), f"max_a={L.max_offset()}")]


def _check_structure(L: LayeredSet, emit) -> list[str]:
    """The coset structure, then what needs its witness: ineq7, the uvw
    partition and lemma5."""
    out = ls.find_structure(L)
    if isinstance(out, NotApplicable):
        emit("structure", "not_applicable")
        return [f"check structure not_applicable reason=[{out.reason}]"]
    if isinstance(out, ConclusionFailed):
        emit("structure", "violated", f"{out.conclusion}:{out.detail}")
        return [f"check structure FAILED conclusion={out.conclusion} "
                f"detail=[{out.detail}]"]
    h = out.subgroup
    if ls.verify_witness(L, out):
        emit("structure", "holds")
    else:
        emit("structure", "violated", "witness re-verification")
    lhs = L.max_offset() * h.order
    equality = out.ineq7 == ls.INEQ7_EQUALITY
    emit("ineq7", out.ineq7, f"{lhs}={lhs}" if equality else None)
    if equality:
        saturated = ls.is_coset_saturated(L, h)
        emit("ineq7-equality", "saturated" if saturated else "unsaturated")
    # a witness implies the doubling hypothesis, so lemma5 applies and its
    # witness carries the partition
    l5 = ls.check_lemma5(L, h)
    u, v, w, _ = l5.witness
    return [f"check structure witness order={h.order} x={out.x} y={out.y} "
            f"j={out.j} ineq7={out.ineq7}",
            f"check uvw u={u} v={v} w={w}",
            _outcome(emit, l5, f"uvw={l5.witness}")]


INSTANCE_CHECKS = (_check_flatten, _check_prop6, _check_corollary1,
                   _check_prop7, _check_structure)


def verify_instance(L: LayeredSet, tally: Tally) -> list[str]:
    """Run the instance check table on one instance, feeding the tally;
    returns the `check` lines the CLI `verify` verb prints."""
    return tally.run_checks(INSTANCE_CHECKS, L, partial(instance_to_json, L))


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
    """Worker processes for a random campaign: SUMSET_FORGE_THREADS (unset or
    empty means 1), at most the core count; reports do not depend on it."""
    raw = os.environ.get(THREADS_ENV) or "1"
    if not raw.isdecimal() or int(raw) < 1:
        raise ValueError(f"{THREADS_ENV} needs an integer >= 1, got {raw!r}")
    return min(int(raw), os.cpu_count() or 1)


def campaign_random(p: GenParams, count: int, seed: int,
                    include_canonical: bool = True) -> CampaignReport:
    """The canonical battery then `count` generated instances.  The offset
    profile memo is emptied on entry and on return: it serves this campaign
    only, so every call starts cold, as a fresh process would."""
    t0 = time.perf_counter()
    threads = worker_count()
    ls.offset_profile.cache_clear()
    try:
        tally = Tally()
        if include_canonical:
            for _, L in canonical_instances():
                verify_instance(L, tally)
        if threads <= 1 or count < 2 * threads:
            tally.merge(_run_random_chunk((p, seed, 0, count)))
        else:
            bounds = [count * k // threads for k in range(threads + 1)]
            jobs = [(p, seed, a, b) for a, b in zip(bounds, bounds[1:])]
            # a forked worker would inherit the memo; it starts empty
            with ProcessPoolExecutor(
                    max_workers=threads,
                    initializer=ls.offset_profile.cache_clear) as pool:
                for part in pool.map(_run_random_chunk, jobs):
                    tally.merge(part)
    finally:
        ls.offset_profile.cache_clear()
    params = {"count": count, "d": ",".join(map(str, p.d_values)),
              "s": f"{p.s_min}..{p.s_max}", "density": p.density,
              "epsilon": p.epsilon, "max_a_slack": p.max_a_slack,
              "canonical": int(include_canonical)}
    report = CampaignReport("random", seed, params, tally)
    report.timings["total"] = time.perf_counter() - t0
    return report


class CapExceeded(ValueError):
    pass


def require_exhaustive_domain(s_values: tuple[int, ...], max_a: int,
                              cap: int) -> None:
    """Refuse an exhaustive campaign that names a size twice, which would
    verify and count every offset set of that size twice, or whose estimated
    cardinality, the sum of C(max_a, s-1) over the sizes, exceeds `cap`.
    With n = max_a and k = min(s-1, n-s+1), C(n, s-1) = C(n, k) is built as
    C(n-k+i, i) for i = 1..k; these never decrease, so the sum stops once it
    passes `cap` and a huge domain is refused without computing its size."""
    repeated = sorted(s for s, n in Counter(s_values).items() if n > 1)
    if repeated:
        raise ValueError(f"s values {','.join(map(str, s_values))} repeat "
                         f"{','.join(map(str, repeated))}")
    estimate = 0
    for s in s_values:
        k = min(s - 1, max_a - s + 1)
        term, i = int(k >= 0), 0        # C(n, s-1) = 0 when s-1 > n
        while i < k and estimate + term <= cap:
            i += 1
            term = term * (max_a - k + i) // i
        estimate += term
    if estimate > cap:      # the partial estimate may be too long to print
        raise CapExceeded(f"estimated cardinality exceeds cap {cap}")


def enumerate_offset_sets(s: int, max_a: int) -> Iterable[IntegerSet]:
    """All A' with |A'| = s, 0 in A', gcd of nonzero elements 1, max <= max_a."""
    from itertools import combinations
    for rest in combinations(range(1, max_a + 1), s - 1):
        if gcd(*rest) == 1:
            yield IntegerSet.of(rest[-1] + 1, (0,) + rest)


def _check_lemma2(aset: IntegerSet, emit) -> list[str]:
    _certified(emit, "lemma2", lemma2_certificate, aset)
    return []


def _check_prop5(aset: IntegerSet, emit) -> list[str]:
    """The refined bound and the (a, b, c) profile, on offset sets with
    max = s + R - 3."""
    if not is_unsaturated(aset):
        emit("prop5", "not_applicable")
        return []
    profile = _certified(emit, "prop5", prop5_bound, aset)
    if isinstance(profile, str):        # violated: no certified profile
        profile = abc_parameters(aset)
    ok = profile.a + profile.b + profile.c == profile.r - 2
    emit("abc-sum", "holds" if ok else "violated",
         None if ok else str(profile))
    return []


# the offset-set check table; its entries describe no lines
OFFSET_CHECKS = (_check_lemma2, _check_prop5)


def campaign_exhaustive(s_values: tuple[int, ...], max_a: int, *,
                        cap: int = 2_000_000) -> CampaignReport:
    """Full enumeration of the projection space: the SDR certificate, the
    refined bound, and the missing-element profile, for every offset set."""
    t0 = time.perf_counter()
    require_exhaustive_domain(s_values, max_a, cap)
    tally = Tally()
    for s in s_values:
        for aset in enumerate_offset_sets(s, max_a):
            tally.run_checks(OFFSET_CHECKS, aset, partial(
                json.dumps, list(aset), separators=(",", ":")))
    params = {"s": ",".join(map(str, s_values)), "max_a": max_a}
    report = CampaignReport("exhaustive", None, params, tally)
    report.timings["total"] = time.perf_counter() - t0
    return report

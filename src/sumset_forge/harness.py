"""Campaign machinery: instance I/O and generation, the check tables and
their driver, and the random and exhaustive campaigns with their reports.

Reports are line-oriented text, byte-stable for a fixed (version, params,
seed); wall-clock timings are kept out of the stable body and surfaced on the
console instead.  Worker k of n checks keys k, k+n, ... of a campaign's key
stream (`run_campaign`), so the merge is independent of completion order.
"""

from __future__ import annotations

import json
import os
import random
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import combinations, islice
from math import gcd
from typing import Callable, Iterable, Iterator, Optional

from . import layered as ls
from .classical_checks import CheckOutcome
from .group_core import Bitmap, CyclicGroup, ResidueSet, fold, lattice
from .hall_bounds import (BoundViolation, abc_parameters, is_unsaturated,
                          lemma2_certificate, prop5_bound)
from .layered import (ConclusionFailed, LayeredSet, LayeredSetError,
                      NotApplicable)
from .sumset_engine import IntegerSet, members_of

REPORT_VERSION = "sumset-forge-report v1"
THREADS_ENV = "SUMSET_FORGE_THREADS"

# input d and offsets above this are refused: their bitmaps exhaust memory
MAX_WIDTH = 1 << 24


# ---------------------------------------------------------------------------
# instance I/O


def instance_to_json(L: LayeredSet) -> str:
    """The instance document, formatted directly: for integer members these
    are the bytes of `json.dumps` with sorted keys and no spaces."""
    layers = ",".join(f'{{"a":{a},"set":[{",".join(map(str, b))}]}}'
                      for a, b in L.layers)
    return f'{{"d":{L.d},"layers":[{layers}]}}'


def _strict_int(value, what: str) -> int:
    """The value itself when it is a JSON integer; floats, strings and
    booleans (a subclass of int) are refused rather than coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise LayeredSetError(f"{what} must be an integer, got {value!r}")
    return value


def _known_keys(obj, keys: tuple[str, ...], where: str) -> None:
    """Refuse a key of the object `obj` outside the format's `keys`: a
    misspelt one would be silently ignored, and the instance checked would
    not be the one the user wrote.  A non-object is left to the reader."""
    if isinstance(obj, dict):
        for key in obj:
            if key not in keys:
                raise LayeredSetError(f"unknown key {key!r} in {where}; the "
                                      f"format has {', '.join(keys)}")


def instance_from_doc(doc) -> LayeredSet:
    if not isinstance(doc, dict) or "d" not in doc or "layers" not in doc:
        raise LayeredSetError('document must carry "d" and "layers"')
    _known_keys(doc, ("d", "layers"), "the document")
    try:
        d = _strict_int(doc["d"], "d")
        layers = []
        for layer in doc["layers"]:
            _known_keys(layer, ("a", "set"), "a layer")
            layers.append((_strict_int(layer["a"], "a"),
                           [_strict_int(m, "set member")
                            for m in layer["set"]]))
    except (KeyError, TypeError) as exc:
        raise LayeredSetError(f"malformed instance document: {exc}") from exc
    if max([d] + [a for a, _ in layers]) > MAX_WIDTH:
        raise LayeredSetError(f"d or an offset exceeds the cap {MAX_WIDTH}")
    for a, members in layers:
        seen = set()
        for m in members:
            if m in seen:
                raise LayeredSetError(
                    f"layer at offset {a} lists member {m} twice")
            seen.add(m)
    try:
        return LayeredSet.of(d, layers)
    except ValueError as exc:
        raise LayeredSetError(str(exc)) from exc


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict, refusing a key written twice, of which
    `json.load` alone would keep the last value without a word."""
    seen = set()
    for key, _ in pairs:
        if key in seen:
            raise LayeredSetError(f"key {key!r} written twice")
        seen.add(key)
    return dict(pairs)


def load_instance(path: str) -> LayeredSet:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh, object_pairs_hook=_unique_keys)
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

    def __post_init__(self):
        # `generate_instance` draws below the size of each range, and never
        # returns from an empty one, where `random`'s draws raised; a nan
        # density has no floor; a layered set has s >= 2 layers and a
        # modulus d >= 1
        if (not self.d_values or min(self.d_values) < 1
                or not 2 <= self.s_min <= self.s_max
                or self.max_a_slack < -3 or not self.density <= 1):
            raise ValueError(f"{self} leaves a draw range empty or reaches "
                             "past the layered sets")
        # the density as the fraction its decimal spells (the CLI takes
        # only the spelling `str` gives back), kept outside the fields
        f = Fraction(str(self.density))
        object.__setattr__(self, "_density", (f.numerator, f.denominator))

    def min_fill(self, h: int) -> int:
        """The fewest members a layer draws in a coset of h: ceil(density *
        h), at least 1, exactly.  The float product misrounds for some
        densities: 0.28 * 25 is 7.000000000000001, whose ceiling is 8."""
        num, den = self._density
        return max(1, -(-num * h // den))


def sample_coset(rng: random.Random, d: int, step: int, k: int) -> int:
    """Bitmap of {j*step : j in rng.sample(range(d // step), k)}, from the
    same `getrandbits` calls.  Where `random.sample` keeps a pool list (its
    `setsize` test, 21 + 4 ** ceil(log(3k, 4)) in floating point for k > 5,
    here the least power of 4 at or above 3k in integers: 3k is never a
    power of 4, and the two agree for every k below 2^22 and at each side
    of every 4^m / 3 up to MAX_WIDTH), its loop is inlined: draw j below
    n = h, h-1, ..., h-k+1 by rejection on n.bit_length() bits, then move
    pool[n-1] into slot j.  Afterwards pool[:h-k] holds the undrawn
    indices, so the sample is the lattice of the step less those h-k
    members: no `randbelow` call and no result list per draw.  Elsewhere
    `random.sample` itself draws."""
    h = d // step
    if not 0 <= k <= h:
        raise ValueError(f"sample of {k} from a coset of {h}")
    if h > 21 and (k <= 5
                   or h > 21 + 4 ** ((3 * k - 1).bit_length() + 1 >> 1)):
        return Bitmap.bits_of(map(step.__mul__, rng.sample(range(h), k)), d)
    getrandbits = rng.getrandbits
    pool = list(range(h))
    for n in range(h, h - k, -1):
        width = n.bit_length()
        j = getrandbits(width)
        while j >= n:
            j = getrandbits(width)
        pool[j] = pool[n - 1]
    del pool[h - k:]
    return lattice(d, step) ^ Bitmap.bits_of(map(step.__mul__, pool), d)


def generate_instance(p: GenParams, rng: random.Random) -> LayeredSet:
    """One structured instance: pick d, a subgroup order h | d, an offset set
    with gcd 1, a slope x, fill each layer inside its prescribed coset, then
    translate so 0 lands in the first layer.  Each layer is drawn as a
    sample of the multiples of the step and rotated once, by a_i*x - b0,
    its coset's shift and the translation together; the epsilon member r
    lands at r - a_i*x in that unrotated frame.  a_1 = 0, so B_1 is drawn
    unrotated and b0 is read from it as before.  `sample_coset` fixes the
    layer draws where `random.sample` keeps a pool (tested equal on Python
    3.10 to 3.13); its set branch (h > 21 and k <= 5, or h past its
    setsize) and the other `sample` and `random` draws come from the
    running Python's `random`.  Every `choice`, `randint` and `randrange`
    is `below`, their common `_randbelow` inlined into one frame: the same
    `getrandbits` calls, so the same draws."""
    getrandbits = rng.getrandbits

    def below(n: int) -> int:
        width = n.bit_length()
        r = getrandbits(width)
        while r >= n:
            r = getrandbits(width)
        return r

    while True:
        d = p.d_values[below(len(p.d_values))]
        group = CyclicGroup(d)
        divs = group.divisors()
        h = divs[below(len(divs))]
        s = p.s_min + below(p.s_max - p.s_min + 1)
        # slack 0 is drawn four times as often as each positive slack
        top = s - 1 + max(0, below(p.max_a_slack + 4) - 3)
        offsets = [0] + sorted(rng.sample(range(1, top), s - 2)) + [top]
        if gcd(*offsets) != 1:
            continue
        step = d // h
        x = below(d)
        lo = p.min_fill(h)
        # the members a sample of the coset list [(a*x + j*step) % d for j
        # < h] would give, as sampled multiples of step, rotated below
        layers = [sample_coset(rng, d, step, lo + below(h - lo + 1))
                  for _ in offsets]
        if p.epsilon and rng.random() < p.epsilon:
            i = below(s)
            layers[i] |= 1 << (below(d) - offsets[i] * x) % d
        # the k-th member of B_1, ascending, as `choice` of its sorted list
        first = layers[0]
        b0 = next(islice(members_of(first), below(first.bit_count()), None))
        return LayeredSet(group, tuple(
            (a, ResidueSet(group, fold(bits << (a * x - b0) % d, d)))
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
        counts = self.counts.setdefault(check, {})
        counts[key] = counts.get(key, 0) + n

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
    seconds: float              # wall clock of the whole run

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


def worker_count() -> int:
    """Worker processes for a campaign of either mode: SUMSET_FORGE_THREADS
    (unset or empty means 1), at most the core count; reports ignore it.
    "02", "٢" and "２" are refused, not read as 2: one spelling per count,
    and so is a count with more digits than `int` reads."""
    raw = os.environ.get(THREADS_ENV) or "1"
    try:
        n = int(raw) if raw.isdecimal() else 0
    except ValueError:          # only the digit limit refuses a decimal
        raise ValueError(
            f"{THREADS_ENV} has {len(raw)} digits, more than this "
            f"interpreter's int_max_str_digits, "
            f"{sys.get_int_max_str_digits()}") from None
    if n < 1 or raw != str(n):
        raise ValueError(f"{THREADS_ENV} needs an integer >= 1, got {raw!r}")
    return min(n, os.cpu_count() or 1)


def _check_stride(keys: Callable, check: Callable, k: int, n: int) -> Tally:
    """Worker k of n: `check(key, tally)` on keys k, k+n, ... of `keys()`."""
    tally = Tally()
    for key in islice(keys(), k, None, n):
        check(key, tally)
    return tally


def run_campaign(mode: str, seed: Optional[int], params: dict, keys: Callable,
                 check: Callable, lead: Iterable = ()) -> CampaignReport:
    """Verify the `lead` (name, instance) pairs, then `check(key, tally)` on
    each key of `keys()` in `worker_count()` processes, which all walk every
    key.  Each campaign starts and ends with an empty offset profile memo.
    The process pool is imported only when workers run."""
    t0 = time.perf_counter()
    threads = worker_count()
    ls.offset_profile.cache_clear()
    try:
        tally = Tally()
        for _, L in lead:
            verify_instance(L, tally)
        if threads <= 1:
            tally.merge(_check_stride(keys, check, 0, 1))
        else:
            # imported here: a serial run never loads the pool's modules
            from concurrent.futures import ProcessPoolExecutor
            # a forked worker would inherit the memo; it starts empty
            with ProcessPoolExecutor(
                    max_workers=threads,
                    initializer=ls.offset_profile.cache_clear) as pool:
                for part in pool.map(partial(_check_stride, keys, check,
                                             n=threads), range(threads)):
                    tally.merge(part)
    finally:
        ls.offset_profile.cache_clear()
    return CampaignReport(mode, seed, params, tally, time.perf_counter() - t0)


def _check_drawn(p: GenParams, seed: int, index: int, tally: Tally) -> None:
    verify_instance(generate_instance(p, _rng_for(seed, index)), tally)


def campaign_random(p: GenParams, count: int, seed: int,
                    include_canonical: bool = True) -> CampaignReport:
    """The canonical battery then `count` generated instances."""
    params = {"count": count, "d": ",".join(map(str, p.d_values)),
              "s": f"{p.s_min}..{p.s_max}", "density": p.density,
              "epsilon": p.epsilon, "max_a_slack": p.max_a_slack,
              "canonical": int(include_canonical)}
    return run_campaign("random", seed, params, partial(range, count),
                        partial(_check_drawn, p, seed),
                        canonical_instances() if include_canonical else ())


class CapExceeded(ValueError):
    pass


# the most offset sets an exhaustive campaign enumerates unless told more
EXHAUSTIVE_CAP = 2_000_000


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


def _offset_keys(s_values: tuple[int, ...], max_a: int) -> Iterator[tuple]:
    """The nonzero members of each offset set below, size by size."""
    return (rest for s in s_values
            for rest in combinations(range(1, max_a + 1), s - 1)
            if gcd(*rest) == 1)


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


def _check_offsets(rest: tuple[int, ...], tally: Tally) -> None:
    aset = IntegerSet.of(rest[-1] + 1, (0,) + rest)
    tally.run_checks(OFFSET_CHECKS, aset, partial(
        json.dumps, (0,) + rest, separators=(",", ":")))


def campaign_exhaustive(s_values: tuple[int, ...], max_a: int, *,
                        cap: int = EXHAUSTIVE_CAP) -> CampaignReport:
    """Full enumeration of the projection space: the SDR certificate, the
    refined bound, and the missing-element profile, for every offset set."""
    require_exhaustive_domain(s_values, max_a, cap)
    params = {"s": ",".join(map(str, s_values)), "max_a": max_a}
    return run_campaign("exhaustive", None, params,
                        partial(_offset_keys, s_values, max_a), _check_offsets)

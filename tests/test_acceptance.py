"""Acceptance gate: ten exhaustive / campaign-scale criteria, one printed
verdict line each.  Every criterion states the exact claim it checks; a FAIL
line carries the offending count or witness."""

import hashlib
import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from conftest import iset
from sumset_forge.group_core import CyclicGroup, ResidueSet
from sumset_forge.classical_checks import (check_lev_bound,
                                           kneser_decomposition,
                                           lemma1_all_differences)
from sumset_forge.harness import (GenParams, _rng_for, campaign_exhaustive,
                                  campaign_random, canonical_instances,
                                  generate_instance, instance_from_doc,
                                  instance_to_json)
from sumset_forge.layered import (LayeredSet, StructureWitness, check_lemma5,
                                  find_structure, tau, verify_witness)
from sumset_forge.rectify import (AffineAssignment, bezout, find_seed_pair,
                                  solve_affine)
from sumset_forge.sumset_engine import (IntegerSet, stabilizer, sumset,
                                        sumset_int, sumset_naive)


def verdict(num, name, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"\nacceptance criterion {num} [{name}]: {tag}{suffix}")
    assert ok, f"criterion {num} [{name}] failed{suffix}"


def _rotate(bits, m, d, mask):
    return ((bits << m) | (bits >> (d - m))) & mask if m else bits


def _subset_sumsets(rows, d):
    """Sumset bitmaps for every subset of Z/dZ against a fixed operand,
    built incrementally: one OR per subset."""
    out = [0] * (1 << d)
    for bbits in range(1, 1 << d):
        low = bbits & -bbits
        out[bbits] = out[bbits ^ low] | rows[low.bit_length() - 1]
    return out


def test_criterion_1_cauchy_davenport_exhaustive():
    """|A+B| >= min(p, |A|+|B|-1) for every nonempty pair mod p prime."""
    violations = 0
    pairs = 0
    for p in (2, 3, 5, 7, 11):
        mask = (1 << p) - 1
        for abits in range(1, 1 << p):
            rows = [_rotate(abits, m, p, mask) for m in range(p)]
            na = abits.bit_count()
            sums = _subset_sumsets(rows, p)
            for bbits in range(1, 1 << p):
                pairs += 1
                if sums[bbits].bit_count() < min(p, na + bbits.bit_count() - 1):
                    violations += 1
        # the incremental rows agree with the library kernel (spot check)
        g = CyclicGroup(p)
        a = ResidueSet(g, 0b1011 & mask)
        b = ResidueSet(g, 0b101 & mask)
        assert sumset(a, b).bits == sumset_naive(a, b).bits
    verdict(1, "cauchy-davenport exhaustive p<=11", violations == 0,
            f"{pairs} pairs, {violations} violations")


def test_criterion_2_kneser_exhaustive():
    """|A+B| = |A+H| + |B+H| - |H| with H = stabilizer(A+B) whenever
    |A+B| < |A| + |B|, for every pair of nonempty subsets of Z/dZ, d <= 10.
    The shipped `kneser_decomposition` runs on every pair with 0 in A and 0
    in B for d <= 9, which covers every pair up to translation: it must apply
    exactly where the inline oracle does and hold wherever it applies."""
    violations = 0
    applicable = 0
    shipped = 0
    shipped_applicable = 0
    disagreements = 0
    for d in range(1, 11):
        g = CyclicGroup(d)
        mask = (1 << d) - 1
        stab_cache = {}
        sat_cache = {}

        def saturate(bits, step, order):
            key = (bits, step)
            got = sat_cache.get(key)
            if got is None:
                got = 0
                for k in range(order):
                    got |= _rotate(bits, (k * step) % d, d, mask)
                got = got.bit_count()
                sat_cache[key] = got
            return got

        for abits in range(1, 1 << d):
            rows = [_rotate(abits, m, d, mask) for m in range(d)]
            na = abits.bit_count()
            sums = _subset_sumsets(rows, d)
            for bbits in range(1, 1 << d):
                sbits = sums[bbits]
                nsum = sbits.bit_count()
                applies = nsum < na + bbits.bit_count()
                if d <= 9 and abits & bbits & 1:
                    shipped += 1
                    out = kneser_decomposition(ResidueSet(g, abits),
                                               ResidueSet(g, bbits))
                    shipped_applicable += out.applicable
                    if out.applicable != applies or out.violated:
                        disagreements += 1
                if not applies:
                    continue
                applicable += 1
                h = stab_cache.get(sbits)
                if h is None:
                    h = stab_cache[sbits] = stabilizer(ResidueSet(g, sbits))
                lhs = saturate(abits, h.step, h.order) \
                    + saturate(bbits, h.step, h.order) - h.order
                if nsum != lhs:
                    violations += 1
    ok = (violations == 0 and disagreements == 0
          and shipped == (4 ** 9 - 1) // 3)
    verdict(2, "kneser exhaustive d<=10", ok,
            f"{applicable} applicable pairs, {violations} violations; "
            f"shipped check on {shipped} pairs with 0 in A and B, "
            f"{shipped_applicable} applicable, {disagreements} disagreements")


def test_criterion_3_all_differences_exhaustive():
    """Every A in [0, N-1] with |A| >= 2N/3 + 1, N <= 12, realizes every
    difference below |A|."""
    checked = 0
    failures = 0
    for n in range(1, 13):
        need = -(-(2 * n + 3) // 3)
        for size in range(need, n + 1):
            for members in combinations(range(n), size):
                checked += 1
                out = lemma1_all_differences(IntegerSet.of(n, members))
                if not (out.applicable and out.holds):
                    failures += 1
    verdict(3, "dense sets realize all small differences", failures == 0,
            f"{checked} sets, {failures} failures")


def test_criterion_4_subset_sumset_bound_exhaustive():
    """|U+V| >= min(u_s + t, s + 2t - 3), plus the sharper branch when
    u_s = s + t - 2 and V != U, for all V <= U <= [0, 10], 0 in U, gcd 1."""
    applicable = 0
    failures = 0
    for rest in _gcd_one_subsets(10):
        u = iset((0,) + rest)
        pool = (0,) + rest
        for t in range(1, len(pool) + 1):
            for vm in combinations(pool, t):
                out = check_lev_bound(u, IntegerSet.of(u.bound, vm))
                if out.applicable:
                    applicable += 1
                    if not out.holds:
                        failures += 1
    verdict(4, "subset sumset lower bound exhaustive", failures == 0,
            f"{applicable} pairs, {failures} failures")


def _gcd_one_subsets(max_a):
    for size in range(1, max_a + 1):
        for rest in combinations(range(1, max_a + 1), size):
            g = 0
            for m in rest:
                g = gcd(g, m)
            if g == 1:
                yield rest


def test_criterion_5_sdr_certificate_and_refined_bound():
    """For every offset set with s in {6, 7}, max <= 12: an SDR certificate of
    size 2s + R - 3 exists; on the non-saturated branch the refined bound
    2s + R - 3 + c holds and the missing-element profile sums to R - 2."""
    report = campaign_exhaustive((6, 7), 12)
    counts = report.tally.counts
    total = counts["lemma2"].get("holds", 0)
    expected = sum(1 for s in (6, 7)
                   for rest in combinations(range(1, 13), s - 1)
                   if _gcd_of(rest) == 1)
    ok = (report.tally.violations == 0 and total == expected
          and counts["prop5"].get("violated", 0) == 0
          and counts["abc-sum"].get("violated", 0) == 0)
    verdict(5, "SDR certificate + refined bound exhaustive", ok,
            f"{total} offset sets, {report.tally.violations} violations")


def _gcd_of(values):
    g = 0
    for m in values:
        g = gcd(g, m)
    return g


def test_criterion_6_seed_pair_exhaustive():
    """Every dense subset of [0, s-1] (|A| >= 2s/3 + 1, 4 <= s <= 15) has an
    adjacent pair whose closure recovers the whole set."""
    checked = 0
    failures = 0
    for s in range(4, 16):
        need = -(-(2 * s + 3) // 3)
        for size in range(need, s + 1):
            for members in combinations(range(s), size):
                checked += 1
                if find_seed_pair(IntegerSet.of(s, members)) is None:
                    failures += 1
    verdict(6, "adjacent seed pair exhaustive s<=15", failures == 0,
            f"{checked} sets, {failures} failures")


def test_criterion_7_affine_solver_suite():
    """Every small-doubling offset set (s in {6,7,8}, max <= 9, gcd 1,
    |A+A| < 5s/2): the solver recovers every affine assignment over q <= 6,
    exhaustively and on 10^3 random consistent assignments per set."""
    sets = 0
    failures = 0
    for s in (6, 7, 8):
        for rest in combinations(range(1, 10), s - 1):
            if _gcd_of(rest) != 1:
                continue
            aset = iset((0,) + rest)
            if 2 * len(sumset_int(aset, aset)) >= 5 * s:
                continue
            sets += 1
            members = aset.members()
            coeffs = bezout(aset)
            cases = [(q, x, y) for q in range(1, 7)
                     for x in range(q) for y in range(q)]
            rng = random.Random(f"acceptance7:{members}")
            for _ in range(1000):
                q = rng.randint(1, 6)
                cases.append((q, rng.randrange(q), rng.randrange(q)))
            for q, x, y in cases:
                assign = AffineAssignment(
                    aset, tuple((m * x + y) % q for m in members), q)
                got = solve_affine(assign, coeffs)
                if got is None or any(
                        (m * got[0] + got[1]) % q != v
                        for m, v in zip(members, assign.values)):
                    failures += 1
    verdict(7, "affine solver exhaustive + randomized", failures == 0,
            f"{sets} offset sets, {failures} failures")


# 13000 generated instances keep the applicable count above 10^4
CAMPAIGN_COUNT = 13_000
CAMPAIGN_SEED = 1
# SHA-256 of its report body; `campaign --mode random --count 13000 --seed 1`
# writes the same bytes, serially or with SUMSET_FORGE_THREADS
CAMPAIGN_DIGEST = ("b1b34021565cb16d8d8c9540f73c1d20"
                   "dfeacb1b5aca2875652fa701a3a5adb8")


@pytest.fixture(scope="module")
def theorem5_campaign():
    return campaign_random(GenParams(), CAMPAIGN_COUNT, seed=CAMPAIGN_SEED)


def test_campaign_report_byte_stable(theorem5_campaign):
    text = theorem5_campaign.to_text()
    assert hashlib.sha256(text.encode()).hexdigest() == CAMPAIGN_DIGEST


def test_criterion_8_structure_campaign(theorem5_campaign):
    """On >= 10^4 applicable generated instances: a structural witness is
    found every time, the offset bound, 2/3 witness, and subgroup size bound
    all hold, the (max a_i)|H| comparison never exceeds the sumset growth, and
    every equality case is a coset-saturated extremal instance."""
    counts = theorem5_campaign.tally.counts
    applicable = counts["instances"].get("applicable", 0)
    problems = []
    if applicable < 10_000:
        problems.append(f"only {applicable} applicable")
    if counts["structure"].get("violated", 0):
        problems.append(f"structure violated x{counts['structure']['violated']}")
    if counts["structure"].get("holds", 0) != applicable:
        problems.append("witness count != applicable count")
    if counts["prop7"].get("violated", 0):
        problems.append("offset bound violated")
    if counts.get("ineq7", {}).get("violated", 0):
        problems.append("growth comparison exceeded")
    if counts.get("ineq7-equality", {}).get("unsaturated", 0):
        problems.append("equality on a non-saturated instance")
    full_coset_doc = instance_to_json(dict(canonical_instances())["full-coset-d12"])
    itemized = any(f.check == "ineq7" and f.status == "equality"
                   and f.detail == "15=15" and f.instance == full_coset_doc
                   for f in theorem5_campaign.tally.findings)
    if not itemized:
        problems.append("extremal d=12 equality case not itemized")
    verdict(8, "structure theorem campaign", not problems,
            f"{applicable} applicable; " + ("; ".join(problems) or "clean"))


def _naive_layered_sumset_size(layers, d):
    """|B~+B~| by adding every pair of points of B~ (no bitmaps)."""
    points = [(a, m) for a, b in layers for m in b]
    return len({(a1 + a2, (m1 + m2) % d)
                for a1, m1 in points for a2, m2 in points})


def _naive_applicable(layers, d):
    s = len(layers)
    size = sum(len(b) for _, b in layers)
    t = tau(s)
    return t is not None and Fraction(
        _naive_layered_sumset_size(layers, d), size) < t


def _r_of(offsets):
    return min(max(offsets) - len(offsets) + 3, len(offsets))


def _in_lemma5_family(offsets):
    """s < 2R - 3: since u + w <= s, no size partition can give
    u >= w + 2R - 3 there."""
    return len(offsets) < 2 * _r_of(offsets) - 3


def _lemma5_counterexample_problem(finding):
    """Re-verify one lemma5 finding from its JSON alone; None when it is a
    genuine counterexample inside the s < 2R - 3 family."""
    doc = json.loads(finding.instance)
    d = doc["d"]
    layers = [(layer["a"], layer["set"]) for layer in doc["layers"]]
    offsets = [a for a, _ in layers]
    if not _naive_applicable(layers, d):
        return "doubling hypothesis fails"
    L = instance_from_doc(doc)
    out = find_structure(L)
    if not isinstance(out, StructureWitness) or not verify_witness(L, out):
        return "no verified structural witness"
    order = out.subgroup.order
    u = sum(1 for _, b in layers if 3 * len(b) >= 2 * order)
    w = sum(1 for _, b in layers if 3 * len(b) < order)
    v = len(layers) - u - w
    r = _r_of(offsets)
    if finding.detail != f"uvw={(u, v, w, r)}":
        return f"detail {finding.detail} != uvw={(u, v, w, r)}"
    if u >= w + 2 * r - 3:
        return f"inequality holds: u={u} w={w} R={r}"
    if not _in_lemma5_family(offsets):
        return f"outside s < 2R - 3: s={len(offsets)} R={r}"
    return None


def _campaign_family_applicable():
    """Applicable instances of the criterion 8/9 campaign with s < 2R - 3,
    regenerated as the campaign draws them: the canonical battery, then one
    generator call per index."""
    instances = [L for _, L in canonical_instances()]
    instances += [generate_instance(GenParams(), _rng_for(CAMPAIGN_SEED, i))
                  for i in range(CAMPAIGN_COUNT)]
    return sum(1 for L in instances if _in_lemma5_family(L.offsets())
               and _naive_applicable(L.layers, L.d))


def test_criterion_9_size_partition_campaign(theorem5_campaign):
    """u >= w + 2R - 3 is checked on every applicable instance of the same
    campaign.  As stated it cannot hold when s < 2R - 3: u + w <= s, so it
    would force s >= 2R - 3.  The criterion asserts that the violations are
    exactly the applicable instances of that family: each lemma5 finding
    re-verifies from its JSON (naive sumset, witness H, u/v/w, R) and lies in
    the family, and their number equals the family's applicable count.  So
    the inequality holds on every applicable instance of this campaign with
    s >= 2R - 3.  The README's d=30 counterexample is pinned directly."""
    counts = theorem5_campaign.tally.counts
    applicable = counts["instances"].get("applicable", 0)
    violated = counts.get("lemma5", {}).get("violated", 0)
    holds = counts.get("lemma5", {}).get("holds", 0)
    findings = [f for f in theorem5_campaign.tally.findings
                if f.check == "lemma5" and f.status == "violated"]
    problems = []
    if holds + violated != applicable:
        problems.append(f"{holds}+{violated} checked != {applicable} applicable")
    if len(findings) != violated:
        problems.append(f"{len(findings)} findings for {violated} violations")
    for f in findings:
        problem = _lemma5_counterexample_problem(f)
        if problem:
            problems.append(f"{problem}: {f.instance}")
            break
    family = _campaign_family_applicable()
    if violated != family:
        problems.append(f"{violated} violations != {family} in family")

    layers = [(a, [(a + m) % 30 for m in (0, 10, 20)])
              for a in (0, 3, 4, 5, 6, 8)]
    if Fraction(_naive_layered_sumset_size(layers, 30), 18) != Fraction(7, 3):
        problems.append("d=30 counterexample: doubling is not 7/3")
    d30 = LayeredSet.of(30, layers)
    out = find_structure(d30)
    l5 = check_lemma5(d30, out.subgroup) \
        if isinstance(out, StructureWitness) else None
    if not (l5 is not None and l5.applicable and l5.violated
            and l5.witness == (6, 0, 0, 5)):
        problems.append(f"d=30 counterexample not reproduced: {l5}")

    verdict(9, "size partition inequality campaign", not problems,
            f"{holds} hold, {violated} violations, {family} applicable "
            f"with s < 2R - 3; " + ("; ".join(problems) or "clean"))


def _kernel_pair(rng, d, density):
    """Two random residue sets of max(1, int(d * density)) members each."""
    g = CyclicGroup(d)
    n = max(1, int(d * density))
    return (ResidueSet.of(g, rng.sample(range(d), n)),
            ResidueSet.of(g, rng.sample(range(d), n)))


def test_criterion_10_kernel_oracle_and_speed():
    """Bit-parallel sumset is exactly the naive sumset on 10^4 random pairs,
    and at least 5x faster at d = 65536."""
    rng = random.Random(0xACCE10)
    mismatches = 0
    for _ in range(10_000):
        d = rng.randint(1, 64)
        g = CyclicGroup(d)
        a = ResidueSet.of(g, rng.sample(range(d), rng.randint(1, d)))
        b = ResidueSet.of(g, rng.sample(range(d), rng.randint(1, d)))
        if sumset(a, b).bits != sumset_naive(a, b).bits:
            mismatches += 1
    # the timed pair is drawn from Random(0) after 20 cross-check pairs at
    # d = 64, density 0.3, so its operands are fixed
    rng = random.Random(0)
    for _ in range(20):
        a, b = _kernel_pair(rng, 64, 0.3)
        mismatches += sumset(a, b).bits != sumset_naive(a, b).bits
    a, b = _kernel_pair(rng, 65536, 0.01)
    timing = {}
    for name, kernel in (("bitset", sumset), ("naive", sumset_naive)):
        t0 = time.perf_counter()
        kernel(a, b)
        timing[name] = time.perf_counter() - t0
    speedup = timing["naive"] / timing["bitset"]
    ok = mismatches == 0 and speedup >= 5
    verdict(10, "kernel oracle equality + speed", ok,
            f"{mismatches} mismatches, speedup {speedup:.0f}x")

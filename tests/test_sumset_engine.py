import random
from collections import Counter
from math import gcd, log

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_int_sumset, naive_mod_sumset, random_residue_set
from sumset_forge import sumset_engine as engine
from sumset_forge.group_core import (SCAN_WIDTH, Bitmap, CyclicGroup,
                                     ModulusMismatch, ResidueSet, Subgroup,
                                     coset_of, coset_step, fold, lattice,
                                     subgroups)
from sumset_forge.sumset_engine import (IntegerSet, _shift_or, members_of,
                                        stabilizer, sumset, sumset_int,
                                        sumset_int_naive, sumset_naive)


class CountingSet(Bitmap):
    """A bitmap that counts the members its iterator has handed out."""

    def __init__(self, bits):
        self.bits, self.taken = bits, 0

    def __iter__(self):
        for m in super().__iter__():
            self.taken += 1
            yield m


@pytest.fixture
def reads(monkeypatch):
    """Members the checked shift loop reads, one per shift, counted through
    the engine's `members_of`."""
    taken = Counter()
    members_of = engine.members_of

    def counted(bits):
        for m in members_of(bits):
            taken["shifts"] += 1
            yield m

    monkeypatch.setattr(engine, "members_of", counted)
    return taken


def chain_starts(members):
    """(delta, P) from the definition: delta the gap between the two lowest
    members of B (0 for fewer than two), P the members p with p + delta in
    B and p - delta not, ascending."""
    bs = set(members)
    low = sorted(bs)[:2]
    delta = low[1] - low[0] if len(low) == 2 else 0
    return delta, sorted(p for p in bs if p + delta in bs
                         and p - delta not in bs)


def paired_order(abits, bbits):
    """(operand, shift) in the checked loop's order: A | A << delta shifted
    by each p in P, then A by each member of B outside P and P + delta,
    each ascending."""
    bs = set(members_of(bbits))
    delta, starts = chain_starts(bs)
    plain = sorted(bs - set(starts) - {p + delta for p in starts})
    return ([(abits | abits << delta, p) for p in starts]
            + [(abits, q) for q in plain])


def pair_starts(lo, top, n, w):
    """n starts from lo, evenly spaced and at least 3 apart, such that
    [t, t + w) over the starts t covers [lo, top)."""
    step = max(3, -(-(top - w - lo) // (n - 1)))
    assert step <= w and lo + step * (n - 1) + w >= top
    return [lo + step * i for i in range(n)]


def saturation_cases(d, m, n0, n1):
    """(name, A, B, members of B shifted) with A = [0, m) and |B| = m.  B is
    pairs {t, t + 1} at starts t at least 3 apart, then a run of the members
    left: delta = 1, every start is in P (with the run's), and the loop
    shifts A' = A | A << 1 = [0, m] by the starts.  n0 is the first batch,
    11 bitlen(d) d // (16 (m + 1)) + 1, and n1 the second one's estimate
    after the starts 0, 3, ..., 3 (n0 - 1), whose sum [0, 3 n0 + m - 2)
    leaves d - 3 n0 - m + 2 residues missing.  In "first" the first batch
    holds n0 starts that cover Z/dZ at once; in "later" it holds those
    n0 starts, and the second batch n1 starts that cover the rest."""
    w = m + 1
    first = pair_starts(0, d, n0, w)
    assert 3 * (n0 - 1) + w < d
    later = list(range(0, 3 * n0, 3)) + pair_starts(3 * n0, d, n1, w)
    cases = []
    for name, starts, taken in (("first", first, n0),
                                ("later", later, n0 + n1)):
        run = range(starts[-1] + 3, starts[-1] + 3 + m - 2 * len(starts))
        assert 0 < len(run) and run[-1] < d
        cases.append((name, range(m),
                      [*starts, *(t + 1 for t in starts), *run], taken))
    return cases


def test_sumset_examples():
    g5 = CyclicGroup(5)
    assert set(sumset(ResidueSet.of(g5, [0, 1]), ResidueSet.of(g5, [0, 2]))) \
        == {0, 1, 2, 3}
    g7 = CyclicGroup(7)
    assert set(sumset(ResidueSet.of(g7, [0, 1, 3]), ResidueSet.of(g7, [0, 5]))) \
        == {0, 1, 3, 5, 6}
    g6 = CyclicGroup(6)
    full6 = coset_of(Subgroup(g6, 6), 0)
    assert sumset(full6, ResidueSet.of(g6, [3])).bits == full6.bits


def test_sumset_modulus_mismatch():
    with pytest.raises(ModulusMismatch):
        sumset(ResidueSet.of(CyclicGroup(5), [0]),
               ResidueSet.of(CyclicGroup(6), [0]))


def test_sumset_matches_naive_oracle_randomized(rng):
    for _ in range(400):
        d = rng.randint(1, 64)
        a = random_residue_set(rng, d)
        b = random_residue_set(rng, d)
        fast = sumset(a, b)
        assert fast.bits == sumset_naive(a, b).bits
        assert set(fast) == naive_mod_sumset(set(a), set(b), d)
        assert fast.bits == sumset(b, a).bits
        assert len(fast) >= max(len(a), len(b))
        assert len(fast) <= min(d, len(a) * len(b))


def pinned_cases():
    """(d, name, A, B, members of B shifted).  In "never", A = B = the
    evens: delta = 2 and P = {0}, so A | A << 2 is shifted by 0 and A by
    the d/2 - 2 evens from 4 on.  In "folds", A = B = the evens and d - 1,
    with the same P and d - 1 shifted by last: the sum in Z has d bits from
    about d/4 shifts on, so the later checks fold, and it is full after the
    last even: at d = 68 the folding checks after 18, 24, 30 and 33 of 34
    shifts leave 15, 9, 3 and 0 residues missing; at d = 84 the one after
    40 of 42 leaves 1, so the last batch runs bare."""
    for d, m, n0, n1 in ((64, 32, 10, 5), (1088, 272, 31, 28),
                         (4096, 512, 72, 66)):
        yield from ((d, *case) for case in saturation_cases(d, m, n0, n1))
        yield d, "never", range(0, d, 2), range(0, d, 2), d // 2 - 1
    for d, taken in ((68, 33), (84, 42)):
        odd = [*range(0, d, 2), d - 1]
        yield d, "folds", odd, odd, taken


def test_sumset_stops_once_saturated(reads):
    """The shifts stop at the first check where the sum folds to all of
    Z/dZ: at the first, at a later one, or (A = B = the even residues, whose
    sum in Z has d - 1 bits and folds to half of Z/dZ) never.  Neither
    operand is iterated: the loop reads B's members through `members_of`.
    The batches are pinned: (d, m) -> (n0, n1) as in `saturation_cases`,
    with |A'| = m + 1: at d = 64, n0 = 11 * 7 * 64 // 528 + 1 = 10, and
    the second is 11 * 3 * 64 // 528 + 1 = 5 for the 4 residues missing;
    at d = 1088, 131648 // 4368 + 1 = 31 and, for 725 missing,
    119680 // 4368 + 1 = 28; at d = 4096, 585728 // 8208 + 1 = 72 and,
    for 3370 missing, 540672 // 8208 + 1 = 66.  The result always equals
    the double-loop oracle."""
    for d, name, am, bm, taken in pinned_cases():
        g = CyclicGroup(d)
        a, b = (CountingSet(Bitmap.bits_of(x, d)) for x in (am, bm))
        assert len(a) == len(b)
        reads.clear()
        out = fold(_shift_or(a, b, d), d)
        naive = sumset_naive(ResidueSet.of(g, am), ResidueSet.of(g, bm))
        assert out == naive.bits, (d, name)
        assert (a.taken, b.taken, reads["shifts"]) == (0, 0, taken), (d, name)
        assert (out == (1 << d) - 1) == (name != "never")
    assert 64 < SCAN_WIDTH < 1088


def first_batch(d, na):
    """`_shift_or`'s first batch of plain shifts, about ln(d) d/|A| of
    them: no batch's coverage estimate is larger, the wide operand's
    included, as |A | A << delta| >= |A|."""
    return 11 * d.bit_length() * d // (16 * na) + 1


def test_sumset_stops_soon_after_saturating(rng, reads):
    """On random pairs, a sum whose first k* shifts in the paired order
    (`paired_order`) fold to all of Z/dZ, found shift by shift, stops at
    most max(first batch, k*/8) shifts after k*."""
    for d in (8192, 65536):
        full = (1 << d) - 1
        for density in (0.05, 0.1):
            n = round(density * d)
            for _ in range(2):
                a, b = (CountingSet(Bitmap.bits_of(rng.sample(range(d), n), d))
                        for _ in range(2))
                out = 0
                for k, (x, m) in enumerate(paired_order(a.bits, b.bits), 1):
                    out |= x << m
                    if fold(out, d) == full:
                        break
                assert fold(out, d) == full, (d, density)
                reads.clear()
                assert fold(_shift_or(a, b, d), d) == full
                shifts = reads["shifts"]
                assert k <= shifts <= k + max(first_batch(d, n), k // 8), (
                    d, density, k, shifts)


def floor_checks(nb):
    """Checks between batches of max(1, done // 8), the smallest any batch
    is, over nb members: at most ln(nb) / ln(9/8)."""
    done = checks = 0
    while True:
        done += max(1, done // 8)
        if done >= nb:
            return checks
        checks += 1


def test_sumset_checks_grow_logarithmically(monkeypatch, reads):
    """Every batch but the last is cut by `islice` and followed by a check;
    a check folds only once the sum in Z has d bits.  A = B = the evens
    never fill Z/dZ; A = B = the evens and d - 1 fill it only after the
    last even, with folds from about d/4 shifts on.  In both delta = 2 and
    P = {0}, so each takes at least the d/2 - 1 shifts up to the last even
    (A | A << 2 by 0, then A by the evens from 4 on), and is checked
    O(log |B|) times (`floor_checks`)."""
    calls = Counter()

    def counted(name, f):
        def wrapper(*args):
            calls[name] += 1
            return f(*args)
        monkeypatch.setattr(engine, name, wrapper)

    counted("islice", engine.islice)
    counted("fold", engine.fold)
    assert floor_checks(8193) <= log(8193) / log(9 / 8)
    d = 16384
    for name, members, full in (
            ("evens", range(0, d, 2), False),
            ("evens and d - 1", [*range(0, d, 2), d - 1], True)):
        a, b = (CountingSet(Bitmap.bits_of(members, d)) for _ in range(2))
        calls.clear()
        reads.clear()
        out = _shift_or(a, b, d)
        folds, checks = calls["fold"], calls["islice"]
        assert (fold(out, d) == (1 << d) - 1) == full, name
        assert 0 < checks <= floor_checks(len(b)), (name, checks)
        assert folds <= checks and (folds > 0) == full, (name, folds)
        assert reads["shifts"] >= d // 2 - 1, name


def test_paired_shifts_match_naive(rng):
    """The checked loop against the double loop, at d on both sides of
    SCAN_WIDTH, on sums that wrap past d: B an arithmetic progression (P
    holds only its start), B's two lowest members d - 2 apart, B of one
    member or of two, |A| < |B| (the operands swap), random pairs, and
    sums inside the even residues, which never fill Z/dZ; only the
    progression and the random pair fill it, so stop early.  For each
    operand, P and P + delta are disjoint subsets of it, and (delta, P)
    follows the definition (`chain_starts`)."""
    for d in (SCAN_WIDTH - 2, SCAN_WIDTH + 2):
        g = CyclicGroup(d)
        wide = [d - 1, *rng.sample(range(d - 1), d // 3)]
        step = rng.randint(3, 9)
        evens = range(0, d, 2)
        cases = [
            ("progression", wide, range(step, d, step)),
            ("far apart", wide, [0, d - 2, d - 1]),
            ("one member", wide, [d - 1]),
            ("two members", wide, [1, d - 1]),
            ("swapped", [d - 1, 3], wide),
            ("random", wide, rng.sample(range(d), d // 4)),
            ("never", evens, [d - 2, *rng.sample(evens, d // 8)]),
        ]
        for name, am, bm in cases:
            a, b = ResidueSet.of(g, am), ResidueSet.of(g, bm)
            assert a.bits.bit_length() + b.bits.bit_length() > d, name
            naive = sumset_naive(a, b).bits
            assert fold(_shift_or(a, b, d), d) == naive, (d, name)
            assert sumset(a, b).bits == sumset(b, a).bits == naive, (d, name)
            full = name in ("progression", "random")
            assert (naive == (1 << d) - 1) == full, (d, name)
            for x in (a, b):
                delta, starts = engine._chain_starts(x.bits)
                paired = starts << delta
                assert starts & paired == 0, (d, name)
                assert (starts | paired) & ~x.bits == 0, (d, name)
                assert (delta, list(members_of(starts))) == chain_starts(x)
        assert len(chain_starts(range(step, d, step))[1]) == 1


def test_sumset_saturation_edge_cases(rng):
    for d in (1, 2, 7, SCAN_WIDTH - 1, SCAN_WIDTH + 1, 3000):
        g = CyclicGroup(d)
        empty, full = ResidueSet(g, 0), coset_of(Subgroup(g, d), 0)
        zero = ResidueSet.of(g, [0])
        assert sumset(empty, full).bits == sumset(full, empty).bits == 0
        assert sumset(empty, empty).bits == 0
        assert sumset(full, full).bits == full.bits
        assert sumset(zero, zero).bits == zero.bits
        for density in (0.02, 0.1, 0.5):
            n = max(1, round(density * d))
            a = ResidueSet.of(g, rng.sample(range(d), n))
            b = ResidueSet.of(g, rng.sample(range(d), n))       # |A| = |B|
            assert sumset(a, b).bits == sumset_naive(a, b).bits, (d, density)
            c = ResidueSet.of(g, rng.sample(range(d), max(1, n // 3)))
            assert sumset(a, c).bits == sumset_naive(a, c).bits, (d, density)


def in_coset(rng, d, step, size, rep=None):
    """size members of the coset rep + step Z/dZ (rep at random if None)."""
    rep = rng.randrange(d) if rep is None else rep
    picks = rng.sample(range(d // step), size)
    return ResidueSet.of(CyclicGroup(d), ((rep + step * k) % d for k in picks))


def whole_coset(s):
    """Whether `sumset` returned s in closed form (`coset_of`), which alone
    memoises the confining step with the bits, and its facts against a
    fresh count."""
    fired = "confining_step" in s.__dict__
    if fired:
        n = s.bits.bit_count()
        assert (len(s), s.size, s.confining_step) == (
            n, n, coset_step(s.bits, s.min(), s.modulus))
    return fired


def test_whole_coset_sum_matches_naive(rng):
    """Operands in cosets of steps step_a and step_b | step_a, each step
    exact, so A + B lies in a coset of step g = step_b and size q = d/g.
    At |A| + |B| = q + 1 the sum is a whole coset in closed form when it
    wraps past d; at q, or with no wrap, it goes through the shifts.  All
    against the double loop, at d on both sides of 16385 (the least width
    the old quotient sum took), with representatives at d - 1."""
    fired = 0
    for d, step_a, step_b in ((4096, 64, 64), (8192, 128, 64),
                              (65536, 512, 512), (131072, 1024, 512)):
        grp = CyclicGroup(d)
        q = d // step_b
        for extra in (0, 1):
            for rep_a, rep_b in ((d - 1, d - 1), (d - 1, 3), (0, 0)):
                na = rng.randint(2, min(d // step_a, q + extra - 2))
                sizes = ((rep_a, step_a, na), (rep_b, step_b, q + extra - na))
                # picks 0 and 1 make each step exact
                a, b = (ResidueSet.of(grp, (
                    (rep + step * k) % d
                    for k in [0, 1] + rng.sample(range(2, d // step), n - 2)))
                    for rep, step, n in sizes)
                got = sumset(a, b)
                assert got.bits == sumset(b, a).bits
                assert got.bits == sumset_naive(a, b).bits, (d, extra)
                wraps = a.bits.bit_length() + b.bits.bit_length() > d
                assert whole_coset(got) == (extra == 1 and wraps), (d, extra)
                fired += whole_coset(got)
        # the first members of the subgroup: a whole subgroup that never
        # wraps, so the shifts make it
        a = ResidueSet.of(grp, range(0, step_b * (q // 2), step_b))
        b = ResidueSet.of(grp, range(0, step_b * (q - q // 2 + 1), step_b))
        got = sumset(a, b)
        assert got.bits == lattice(d, step_b) and not whole_coset(got)
        empty = ResidueSet(grp, 0)
        assert sumset(a, empty).bits == sumset(empty, a).bits == 0
    assert fired >= 8


def test_whole_coset_sum_declines_unconfined(rng):
    """The shifts, and the double loop's result, for: random operands, a
    confined pair plus one stray member that only the mask tests see (g
    falls to 1, or to a g whose coset is too large), and operands too
    small to fill their coset."""
    d = 65536
    g = CyclicGroup(d)
    random_pair = [ResidueSet.of(g, rng.sample(range(d), 300))
                   for _ in range(2)]
    a, b = in_coset(rng, d, 512, 120), in_coset(rng, d, 512, 120)
    middle = sorted(a)[60]
    strays = [ResidueSet(g, a.bits | 1 << (middle + off) % d)
              for off in (1, 256)]
    cases = [tuple(random_pair), (strays[0], b), (b, strays[1]),
             (in_coset(rng, d, 512, 5, d - 1), in_coset(rng, d, 512, 5, 7))]
    for x, y in cases:
        got = sumset(x, y)
        assert not whole_coset(got)
        assert got.bits == sumset_naive(x, y).bits
    wraps = a.bits.bit_length() + b.bits.bit_length() > d
    assert whole_coset(sumset(a, b)) == wraps


def two_stage_whole_coset(a, b):
    """Oracle: the whole-coset test as two stages, (span g, g, verdict): the
    bound at the gcd of d with the spans (max - min) first, and only if
    that passes at g, its gcd with the confining steps (else None)."""
    d, n = a.modulus, len(a) + len(b)
    span_g = gcd(d, a.bits.bit_length() - 1 - a.min(),
                 b.bits.bit_length() - 1 - b.min())
    if n * span_g <= d:
        return span_g, None, False
    g = gcd(span_g, a.confining_step, b.confining_step)
    return span_g, g, n * g > d


def test_one_gcd_whole_coset_test_matches_two_stages(rng):
    """At d = 55440 and 65536, on coset pairs filling past and short of
    their coset, pairs with one stray member and random pairs: the gcd of
    the two confining steps is the gcd with d and the spans too, so it
    gives the two-stage verdict, and the two-stage g wherever the span
    bound passes; `sumset` returns the whole coset iff the verdict holds
    and the sum wraps."""
    verdicts = Counter()
    for d, steps in ((55440, (120, 240, 77)), (65536, (512, 256, 4096))):
        grp = CyclicGroup(d)
        pairs = []
        for step_a in steps:
            for step_b in steps:
                q = d // gcd(step_a, step_b)
                for fill in (0.3, 0.55, 0.8):
                    na = min(d // step_a, max(1, round(fill * q)))
                    nb = min(d // step_b, max(1, round(fill * q)))
                    a = in_coset(rng, d, step_a, na)
                    b = in_coset(rng, d, step_b, nb)
                    stray = ResidueSet(grp, a.bits | 1 << rng.randrange(d))
                    pairs += [(a, b), (stray, b)]
        pairs += [(ResidueSet.of(grp, rng.sample(range(d), k)),
                   ResidueSet.of(grp, rng.sample(range(d), m)))
                  for k, m in ((5, 3), (300, 200), (d // 2, d // 3))]
        for a, b in pairs:
            g = gcd(a.confining_step, b.confining_step)
            verdict = (len(a) + len(b)) * g > d
            span_g, old_g, old_verdict = two_stage_whole_coset(a, b)
            assert span_g % g == 0 and old_g in (None, g), (d, g, span_g)
            assert verdict == old_verdict, (d, g, span_g)
            wraps = a.bits.bit_length() + b.bits.bit_length() > d
            assert whole_coset(sumset(a, b)) == (verdict and wraps)
            verdicts[verdict] += 1
    assert min(verdicts.values()) >= 10


def test_sumset_exact_on_every_coset_shape(rng):
    """Small d: a step per side (common g their gcd with the offset between
    the cosets), singletons (g = d, Z/1Z), whole cosets and random sets,
    each against the double loop, and the whole-coset facts recounted."""
    fired = 0
    for _ in range(600):
        d = rng.randint(1, 90)
        divisors = CyclicGroup(d).divisors()
        ops = []
        for _side in range(2):
            step = rng.choice(divisors)
            size = rng.choice([1, d // step, rng.randint(1, d // step)])
            ops.append(in_coset(rng, d, step, size))
        if rng.random() < 0.1:
            ops[1] = random_residue_set(rng, d)
        a, b = ops
        got = sumset(a, b)
        assert got.bits == sumset_naive(a, b).bits, (a, b)
        fired += whole_coset(got)
    assert fired > 150


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 96), st.data())
def test_coset_sum_properties(d, data):
    divisors = CyclicGroup(d).divisors()
    ops = []
    for _side in range(2):
        step = data.draw(st.sampled_from(divisors))
        rep = data.draw(st.integers(0, d - 1))
        picks = data.draw(st.sets(st.integers(0, d // step - 1), min_size=1))
        ops.append(ResidueSet.of(CyclicGroup(d),
                                 ((rep + step * k) % d for k in picks)))
    a, b = ops
    got = sumset(a, b)
    assert set(got) == naive_mod_sumset(set(a), set(b), d)
    whole_coset(got)


def test_sumset_int_examples():
    a = IntegerSet.of(2, [0, 1])
    assert set(sumset_int(a, a)) == {0, 1, 2}
    interval = IntegerSet.of(6, range(6))
    assert set(sumset_int(interval, interval)) == set(range(11))
    spread = IntegerSet.of(8, [0, 1, 2, 3, 4, 7])
    got = sumset_int(spread, spread)
    assert set(got) == set(range(12)) | {14}
    assert len(got) == 13
    assert got.bound == 16


def test_sumset_int_matches_naive(rng):
    for _ in range(300):
        n = rng.randint(1, 40)
        a = IntegerSet.of(n, rng.sample(range(n), rng.randint(1, n)))
        b = IntegerSet.of(n, rng.sample(range(n), rng.randint(1, n)))
        assert set(sumset_int(a, b)) == naive_int_sumset(set(a), set(b))
        assert sumset_int(a, b).bits == sumset_int_naive(a, b).bits
    # sparse operands on both sides of SCAN_WIDTH: one pass, no early stop
    for _ in range(60):
        n = rng.randint(SCAN_WIDTH // 2, 3 * SCAN_WIDTH)
        a = IntegerSet.of(n, rng.sample(range(n), rng.randint(1, 60)))
        b = IntegerSet.of(n, rng.sample(range(n), rng.randint(1, 60)))
        assert sumset_int(a, b).bits == sumset_int_naive(a, b).bits


def test_stabilizer_examples():
    g = CyclicGroup(12)
    assert stabilizer(ResidueSet.of(g, [0, 4, 8])).order == 3
    assert stabilizer(ResidueSet.of(g, [0, 1, 4, 5, 8, 9])).order == 3
    assert stabilizer(ResidueSet.of(g, [0, 1])).order == 1


def test_stabilizer_is_maximal_fixing_subgroup():
    rng = random.Random(7)
    for _ in range(200):
        d = rng.randint(1, 64)
        a = random_residue_set(rng, d)
        h = stabilizer(a)
        assert sumset(a, coset_of(h, 0)).bits == a.bits
        for other in subgroups(a.group):
            if other.order > h.order:
                assert sumset(a, coset_of(other, 0)).bits != a.bits


def test_stabilizer_matches_definition_exhaustive():
    """Every nonempty A in Z/dZ for d <= 10: the stabilizer is the largest
    subgroup H with A + H = A."""
    for d in range(1, 11):
        g = CyclicGroup(d)
        for bits in range(1, 1 << d):
            a = ResidueSet(g, bits)
            fixing = [h for h in subgroups(g)
                      if sumset(a, coset_of(h, 0)).bits == bits]
            assert stabilizer(a) == max(fixing, key=lambda h: h.order), a


def full_scan_stabilizer(a):
    """Oracle: the stabilizer by its first scan, every subgroup of Z/dZ
    descending by order, rotating A only by those whose order divides
    |A|."""
    n = len(a)
    for h in reversed(subgroups(a.group)):
        if n % h.order == 0 and a.shift(h.step).bits == a.bits:
            return h


@pytest.mark.parametrize("d", [5040, 55440])
def test_stabilizer_matches_full_scan(d):
    """Testing only the subgroups whose order divides gcd(|A|, d) finds the
    subgroup the full descending scan finds: on random sets, unions of
    cosets, whole cosets and sets of a size coprime to d, whose stabilizer
    is trivial."""
    rng = random.Random(d)
    g = CyclicGroup(d)
    hs = subgroups(g)
    sets = [ResidueSet.of(g, rng.sample(range(d), max(1, d * k // 1000)))
            for k in (1, 50, 500) for _ in range(4)]
    for _ in range(30):
        h = rng.choice(hs)
        # distinct residues mod the step: disjoint cosets, so + is |
        reps = rng.sample(range(h.step), rng.randint(1, min(h.step, 6)))
        sets.append(ResidueSet(g, sum(coset_of(h, r).bits for r in reps)))
        sets.append(coset_of(h, rng.randrange(d)))
    coprime = [n for n in range(1, 400) if gcd(n, d) == 1]
    for n in rng.sample(coprime, 10):
        a = ResidueSet.of(g, rng.sample(range(d), n))
        assert stabilizer(a).order == 1
        sets.append(a)
    for a in sets:
        assert stabilizer(a) == full_scan_stabilizer(a), len(a)
    assert len({stabilizer(a).order for a in sets}) > 10


def test_stabilizer_of_coset_is_subgroup():
    g = CyclicGroup(24)
    for order in (1, 2, 3, 4, 6, 8, 12, 24):
        h = Subgroup(g, order)
        assert stabilizer(coset_of(h, 5)).order == order
        c = coset_of(h, 5)
        assert len(sumset(c, c)) == len(c)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 48), st.data())
def test_sumset_properties(d, data):
    members_a = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
    members_b = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
    g = CyclicGroup(d)
    a, b = ResidueSet.of(g, members_a), ResidueSet.of(g, members_b)
    fast = sumset(a, b)
    assert set(fast) == naive_mod_sumset(members_a, members_b, d)
    assert len(fast) >= max(len(a), len(b))

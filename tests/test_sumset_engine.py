import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_int_sumset, naive_mod_sumset, random_residue_set
from sumset_forge.group_core import (SCAN_WIDTH, Bitmap, CyclicGroup,
                                     ModulusMismatch, ResidueSet, Subgroup,
                                     coset_of, coset_step, fold, lattice,
                                     subgroups)
from sumset_forge.sumset_engine import (IntegerSet, _shift_or, stabilizer,
                                        sumset, sumset_int, sumset_int_naive,
                                        sumset_naive)


class CountingSet(Bitmap):
    """A bitmap that counts the members its iterator has handed out."""

    def __init__(self, bits):
        self.bits, self.taken = bits, 0

    def __iter__(self):
        for m in super().__iter__():
            self.taken += 1
            yield m


def saturation_cases(d, m):
    """(name, A, B, members of B shifted) with A = [0, m), |B| = m, m | d
    and m > 3d/m.  The first batch has n0 = d/m members: in "first" they are
    0, m, ..., d-m, which tile Z/dZ at once; in "later" they are [0, n0),
    and the second batch (2*n0 more) brings tiles ending at d."""
    n0 = d // m
    fill = list(range(d - 1, d - m, -1))
    tiles = list(range(0, d, m))
    first = tiles + fill[:m - n0]
    tiles = [d - k * m for k in range(1, -(-(d - m - n0 + 1) // m) + 1)]
    later = list(range(n0)) + tiles + fill[:m - n0 - len(tiles)]
    return [("first", range(m), first, n0), ("later", range(m), later, 3 * n0)]


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


def test_sumset_stops_once_saturated():
    """The shifts stop at the first batch boundary where the sum folds to all
    of Z/dZ: at the first, at a later one, or (A = B = the even residues,
    whose sum in Z has d bits but folds to half of Z/dZ) never.  The result
    always equals the double-loop oracle."""
    for d, m in ((64, 16), (1088, 64), (4096, 256)):
        g = CyclicGroup(d)
        evens = range(0, d, 2)
        for name, am, bm, taken in saturation_cases(d, m) + [
                ("never", evens, evens, d // 2)]:
            a, b = (CountingSet(Bitmap.bits_of(x, d)) for x in (am, bm))
            assert len(a) == len(b)
            out = fold(_shift_or(a, b, d), d)
            naive = sumset_naive(ResidueSet.of(g, am), ResidueSet.of(g, bm))
            assert out == naive.bits, (d, name)
            assert (a.taken, b.taken) == (0, taken), (d, name)
            assert (out == (1 << d) - 1) == (name != "never")
    assert 64 < SCAN_WIDTH < 1088


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

import pickle
import random
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumset_forge import group_core, harness, layered
from sumset_forge.group_core import (BUILD_WIDTH, LATTICE_CACHE_SIZE,
                                     SCAN_WIDTH, Bitmap, CyclicGroup,
                                     ModulusMismatch, ResidueSet, Subgroup,
                                     build_lattice, confining_subgroup,
                                     coset_of, coset_step,
                                     containing_coset, gather, lattice,
                                     residues, subgroups)
from sumset_forge.harness import (GenParams, Tally, _rng_for,
                                  generate_instance, verify_instance)
from sumset_forge.layered import DENSE_SPAN


def low_bit_members(bits):
    """Oracle: peel off the lowest set bit until none is left."""
    out = []
    while bits:
        low = bits & -bits
        out.append(low.bit_length() - 1)
        bits ^= low
    return out


def or_bits(members, bound):
    """Oracle: one OR per member, after the range check."""
    bits = 0
    for m in members:
        if not 0 <= m < bound:
            raise ValueError(f"member {m} outside [0, {bound})")
        bits |= 1 << m
    return bits


def test_subgroup_orders_are_divisors():
    assert [h.order for h in subgroups(CyclicGroup(12))] == [1, 2, 3, 4, 6, 12]
    assert [h.order for h in subgroups(CyclicGroup(1))] == [1]
    assert [h.order for h in subgroups(CyclicGroup(7))] == [1, 7]


def test_subgroups_of_order_dividing_m():
    """subgroups(g, m) keeps the subgroups whose order divides m, ascending:
    the divisors of gcd(d, m); m = 0 keeps every subgroup."""
    g = CyclicGroup(720720)
    assert ([h.order for h in subgroups(g, 180)]
            == [1, 2, 3, 4, 5, 6, 9, 10, 12, 15, 18, 20, 30, 36, 45, 60, 90,
                180])
    assert subgroups(g, 0) == subgroups(g)
    assert [h.order for h in subgroups(g, 17)] == [1]
    for d in range(1, 61):
        g = CyclicGroup(d)
        for m in range(0, 2 * d + 1):
            assert subgroups(g, m) == [h for h in subgroups(g)
                                       if m % h.order == 0], (d, m)


def test_divisors_match_definition():
    # ascending order matters: generate_instance draws from this list
    for d in list(range(1, 2001)) + [720720, 1_000_003]:
        assert (CyclicGroup(d).divisors()
                == [k for k in range(1, d + 1) if d % k == 0])
    assert len(CyclicGroup(720720).divisors()) == 240
    assert CyclicGroup(1_000_003).divisors() == [1, 1_000_003]


def test_subgroups_closed_under_addition_small_moduli():
    for d in range(1, 65):
        for h in subgroups(CyclicGroup(d)):
            elems = set(coset_of(h, 0))
            assert len(elems) == h.order
            assert all((x + y) % d in elems for x in elems for y in elems)


def test_coset_of_examples():
    g12 = CyclicGroup(12)
    assert set(coset_of(Subgroup(g12, 3), 5)) == {5, 9, 1}
    assert set(coset_of(Subgroup(g12, 12), 0)) == set(range(12))
    assert set(coset_of(Subgroup(CyclicGroup(6), 1), 4)) == {4}


def test_coset_cardinality_and_equality_relation():
    g = CyclicGroup(12)
    for order in (1, 2, 3, 4, 6, 12):
        h = Subgroup(g, order)
        for x in range(12):
            assert len(coset_of(h, x)) == order
            for y in range(12):
                same = coset_of(h, x).bits == coset_of(h, y).bits
                assert same == ((x - y) % h.step == 0)


def test_containing_coset():
    g = CyclicGroup(12)
    h = Subgroup(g, 3)           # {0, 4, 8}
    assert containing_coset(ResidueSet.of(g, [1, 5]), h) == 1
    assert containing_coset(ResidueSet.of(g, [1, 2]), h) is None
    trivial = Subgroup(g, 1)
    assert containing_coset(ResidueSet.of(g, [0]), trivial) == 0


def test_containing_coset_differences_in_subgroup():
    g = CyclicGroup(24)
    for order in (1, 2, 3, 4, 6, 8, 12, 24):
        h = Subgroup(g, order)
        s = coset_of(h, 5)
        rep = containing_coset(s, h)
        assert rep is not None
        pair = ResidueSet.of(g, [5, (5 + h.step) % 24])
        assert confining_subgroup(s) == confining_subgroup(pair) == h
        for x in s:
            for y in s:
                assert (x - y) % h.step == 0


def residue_coset_oracle(s, h):
    """The residue-set pass `containing_coset` replaced: the one residue of
    s mod the step of H, or None when there are two or more."""
    reps = {m % h.step for m in s}
    return reps.pop() if len(reps) == 1 else None


def test_containing_coset_matches_residue_oracle(rng):
    """Every nonempty subset of Z/dZ for d <= 8 against every subgroup, then
    coset-confined and random sets at widths on both sides of SCAN_WIDTH."""
    for d in range(1, 9):
        g = CyclicGroup(d)
        for bits in range(1, 1 << d):
            s = ResidueSet(g, bits)
            for h in subgroups(g):
                assert containing_coset(s, h) == residue_coset_oracle(s, h)
    for d in (720, 2048, 5040):
        g = CyclicGroup(d)
        for h in subgroups(g):
            coset = coset_of(h, rng.randrange(d)).members()
            inside = rng.sample(coset, rng.randint(1, len(coset)))
            for s in (ResidueSet.of(g, inside),
                      ResidueSet.of(g, rng.sample(range(d), 5))):
                assert containing_coset(s, h) == residue_coset_oracle(s, h)


def test_lattice_is_the_multiples_of_step():
    """Widths that step divides and widths it does not, from one multiple
    (n <= step) up to every bit (step 1)."""
    for n in range(1, 130):
        for step in range(1, n + 3):
            want = sum(1 << k for k in range(0, n, step))
            assert lattice(n, step) == want, (n, step)
    for n, step in ((720720, 4004), (524288, 1024), (11520, 240),
                    (65535, 3), (55440, 110)):
        assert lattice(n, step) == ((1 << n) - 1) // ((1 << step) - 1)


def test_lattice_cache_is_bounded_and_matches_the_build(monkeypatch):
    """The cache keeps the last LATTICE_CACHE_SIZE keys.  Each key is at
    most d wide: generating, flattening and verifying dense instances at
    d = 8192 by the plain flatten (QUOTIENT_WIDTH above d) asks for no
    lattice wider than d, as the flatten's slot starts are built
    uncached."""
    lattice.cache_clear()
    keys = [(n, step) for n in (1, 7, 64, 120, 4096, 55440)
            for step in (1, 2, 3, 5, 8, 12, 110, 4096) if step <= n]
    keys += [(720720, 4004), (524288, 1024)]
    assert len(keys) > LATTICE_CACHE_SIZE
    for n, step in keys + keys[::-1]:
        assert lattice(n, step) == build_lattice(n, step), (n, step)
    info = lattice.cache_info()
    assert info.maxsize == LATTICE_CACHE_SIZE
    assert info.currsize == LATTICE_CACHE_SIZE and info.hits > 0

    widths = []

    def recording(n, step):
        widths.append(n)
        return build_lattice(n, step)

    for module in (group_core, harness, layered):
        monkeypatch.setattr(module, "lattice", recording)
    monkeypatch.setattr(layered, "QUOTIENT_WIDTH", 8193)
    for i in range(4):
        L = generate_instance(GenParams(d_values=(8192,)), _rng_for(7, i))
        assert L.max_offset() < DENSE_SPAN * L.s
        verify_instance(L, Tally())
    assert widths and set(widths) == {8192}


def member_gcd_step(s):
    """Oracle: the step of the smallest subgroup confining s, the gcd of d
    with every m - min s, one member at a time."""
    m0 = s.min()
    return gcd(s.modulus, *(m - m0 for m in s))


def member_gcd_coset_oracle(s, h):
    """The member-gcd answer: s lies in one coset of H iff the step of H
    divides the step of the smallest subgroup confining s; the coset is
    then the one of min s."""
    return None if member_gcd_step(s) % h.step else s.min() % h.step


def confined_and_random_sets(rng, d, hs, per_subgroup_cap=None):
    """Three random sets, then for each subgroup in hs a set inside one of
    its cosets (at most per_subgroup_cap members when given)."""
    g = CyclicGroup(d)
    sets = [ResidueSet.of(g, rng.sample(range(d), rng.randint(1, min(d, 60))))
            for _ in range(3)]
    for k in hs:
        coset = coset_of(k, rng.randrange(d)).members()
        size = rng.randint(1, min(len(coset), per_subgroup_cap or len(coset)))
        sets.append(ResidueSet.of(g, rng.sample(coset, size)))
    return sets


def test_confining_subgroup_matches_member_gcd(rng):
    """Every d <= 60, against sets inside a coset of each subgroup and at
    random; then d = 55440 and 65536, confined sets with and without one
    stray member."""
    for d in range(1, 61):
        for s in confined_and_random_sets(rng, d, subgroups(CyclicGroup(d))):
            assert confining_subgroup(s).step == member_gcd_step(s), s
    for d in (55440, 65536):
        g = CyclicGroup(d)
        for s in confined_and_random_sets(rng, d, subgroups(g), 40):
            stray = ResidueSet(g, s.bits | 1 << rng.randrange(d))
            for t in (s, stray):
                h = confining_subgroup(t)
                assert h.step == member_gcd_step(t)
                assert containing_coset(t, h) == t.min() % h.step


def test_coset_step_matches_member_gcd(rng):
    """Random and coset-confined bitmaps, with stray members at offsets
    that force several rounds, and a starting g that only lowers the gcd."""
    for _ in range(400):
        d = rng.choice([rng.randint(1, 200), 720, 4096, 55440])
        g = CyclicGroup(d)
        step = rng.choice(g.divisors())
        s = ResidueSet.of(g, coset_of(Subgroup(g, d // step),
                                      rng.randrange(d)).members()[::2])
        if rng.random() < 0.5:
            s = ResidueSet(g, s.bits | 1 << rng.randrange(d))
        m0 = s.min()
        want = member_gcd_step(s)
        assert coset_step(s.bits, m0, d) == want, (d, step)
        start = rng.randint(0, 2 * d)
        assert coset_step(s.bits, m0, d, start) == gcd(want, start)
    # offsets 2^16 - 2^k for k >= j, 2^16 and 0: the lowest stray at
    # g = 2^(k+1) is 2^16 - 2^k, so g halves once per round, 16 - j rounds
    d = 1 << 17
    for j in range(17):
        top = 1 << 16
        bits = 1 | 1 << top | sum(1 << top - (1 << k) for k in range(j, 16))
        assert coset_step(bits, 0, d) == 1 << j
    assert coset_step(1 << 5, 5, d) == d


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 300), st.data())
def test_coset_step_properties(d, data):
    members = data.draw(st.sets(st.integers(0, d - 1), min_size=1))
    bits = Bitmap.bits_of(members, d)
    m0 = min(members)
    assert coset_step(bits, m0, d) == gcd(d, *(m - m0 for m in members))


def gather_oracle(bits, g, n):
    """Bits 0, g, ..., (n - 1)g, one at a time."""
    return sum(((bits >> k * g) & 1) << k for k in range(n))


def test_gather_matches_oracle(rng):
    """g = 1, g below 8, g not a multiple of 8 (110, 4004) and multiples
    of 8, with n g inside and past the bit length, n below the period."""
    for g in (1, 2, 3, 5, 6, 7, 8, 12, 16, 24, 110, 512, 1024, 4004):
        for width in (0, 1, 9, 64, 1000, 9000):
            bits = rng.getrandbits(width) if width else 0
            top = width // g + 1
            for n in {0, 1, 2, 3, 7, 8, 9, top, top + 5, rng.randint(0, top)}:
                want = gather_oracle(bits, g, n)
                assert gather(bits, g, n) == want, (g, width, n)
    for d, step in ((720720, 4004), (55440, 110), (524288, 1024)):
        bits = rng.getrandbits(d)
        n = d // step
        assert gather(bits, step, n) == gather_oracle(bits, step, n)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2000), st.integers(1, 70), st.integers(0, 400),
       st.randoms(use_true_random=False))
def test_gather_properties(width, g, n, r):
    bits = r.getrandbits(width) if width else 0
    assert gather(bits, g, n) == gather_oracle(bits, g, n)


def residues_oracle(bits, step):
    return sum(1 << k for k in {m % step for m in low_bit_members(bits)})


def test_residues_match_oracle(rng):
    """Steps that divide the width and steps that do not, sparse and dense
    bitmaps, and steps at or above the width."""
    for width in (1, 7, 64, 100, 1000, 5040):
        for step in {1, 2, 3, 7, 8, 63, 64, 65, 97, width, width + 3}:
            for bits in (1 << width - 1, (1 << width) - 1,
                         rng.getrandbits(width) | 1 << width - 1,
                         rng.getrandbits(width) & rng.getrandbits(width)
                         & rng.getrandbits(width)):
                want = residues_oracle(bits, step)
                assert residues(bits, step) == want, (width, step)
    assert residues(0, 5) == 0


@settings(max_examples=300, deadline=None)
@given(st.sets(st.integers(0, 3000)), st.integers(1, 400))
def test_residues_properties(members, step):
    bits = sum(1 << m for m in members)
    want = sum(1 << k for k in {m % step for m in members})
    assert residues(bits, step) == want


def cold_and_warm(s):
    """A fresh copy of s, with no memo, and s with `confining_step` warm."""
    s.confining_step
    return ResidueSet(s.group, s.bits), s


def test_containing_coset_matches_member_gcd_oracle(rng):
    """Every subgroup of every Z/dZ, d <= 60, against sets inside one of its
    cosets, inside a coset of each other subgroup, and at random; then
    coset-confined and unconfined sets at d = 55440 and 65536.  Each set is
    asked memo-cold and memo-warm."""
    for d in range(1, 61):
        g = CyclicGroup(d)
        hs = subgroups(g)
        sets = [ResidueSet.of(g, rng.sample(range(d), rng.randint(1, d)))
                for _ in range(3)]
        for k in hs:
            coset = coset_of(k, rng.randrange(d)).members()
            sets.append(ResidueSet.of(
                g, rng.sample(coset, rng.randint(1, len(coset)))))
        for h in hs:
            for s in sets:
                want = member_gcd_coset_oracle(s, h)
                for t in cold_and_warm(s):
                    assert containing_coset(t, h) == want
    for d in (55440, 65536):
        g = CyclicGroup(d)
        hs = subgroups(g)
        for k in rng.sample(hs, 12):
            coset = coset_of(k, rng.randrange(d)).members()
            inside = ResidueSet.of(g, rng.sample(coset, min(len(coset), 40)))
            outside = ResidueSet(g, inside.bits | 1 << (inside.min() + 1) % d)
            for h in rng.sample(hs, 12) + [k]:
                for s in (inside, outside):
                    want = member_gcd_coset_oracle(s, h)
                    for t in cold_and_warm(s):
                        assert containing_coset(t, h) == want
            assert containing_coset(inside, k) is not None
            if k.order < d:
                assert containing_coset(outside, k) is None


def test_containing_coset_empty_rejected():
    g = CyclicGroup(6)
    with pytest.raises(ValueError, match="empty"):
        containing_coset(ResidueSet.of(g, []), Subgroup(g, 2))


def test_modulus_mismatch_detected():
    a = ResidueSet.of(CyclicGroup(6), [0])
    h = Subgroup(CyclicGroup(12), 3)
    with pytest.raises(ModulusMismatch):
        containing_coset(a, h)


def test_residue_set_basics():
    g = CyclicGroup(10)
    s = ResidueSet.of(g, [3, 7, 1])
    assert len(s) == 3
    assert list(s) == [1, 3, 7]
    assert 7 in s and 2 not in s
    assert set(s.shift(5)) == {6, 2, 8}
    with pytest.raises(ValueError):
        ResidueSet.of(g, [10])


def test_shift_matches_definition():
    rng = random.Random(5)
    for d in range(1, 17):
        for _ in range(4):
            s = ResidueSet.of(CyclicGroup(d),
                              rng.sample(range(d), rng.randint(0, d)))
            for k in range(-2 * d, 2 * d + 1):
                assert set(s.shift(k)) == {(m + k) % d for m in s}


def test_trivial_group_supported():
    g = CyclicGroup(1)
    s = ResidueSet.of(g, [0])
    assert containing_coset(s, Subgroup(g, 1)) == 0
    assert set(coset_of(Subgroup(g, 1), 0)) == {0}


def test_iter_matches_low_bit_oracle_across_scan_width():
    """Every width 0..2100, on both sides of SCAN_WIDTH: members ascend and
    equal the low-bit loop's."""
    assert 0 < SCAN_WIDTH < 2100
    rng = random.Random(13)
    for w in range(2101):
        g = CyclicGroup(max(w, 1))
        cases = [0]
        if w:
            cases += [1, 1 << (w - 1), (1 << w) - 1, rng.getrandbits(w),
                      rng.getrandbits(w) & rng.getrandbits(w)
                      & rng.getrandbits(w) | 1 << (w - 1)]
        for bits in cases:
            got = list(ResidueSet(g, bits))
            assert got == low_bit_members(bits), (w, bits)


def test_bits_of_matches_loop_oracle_across_build_width():
    rng = random.Random(17)
    for bound in (1, 2, 63, SCAN_WIDTH + 1, BUILD_WIDTH - 1, BUILD_WIDTH,
                  BUILD_WIDTH + 1, BUILD_WIDTH + 7, 65536):
        for n in (0, 1, bound // 3, bound):
            members = [rng.randrange(bound) for _ in range(n)]  # repeats too
            members += [0, bound - 1][:n]
            assert Bitmap.bits_of(members, bound) == or_bits(members, bound)
            assert (list(ResidueSet.of(CyclicGroup(bound), members))
                    == sorted(set(members)))
        for bad in (-1, bound, bound + 9):
            with pytest.raises(ValueError) as want:
                or_bits([0, bad], bound)
            with pytest.raises(ValueError) as got:
                Bitmap.bits_of([0, bad], bound)
            assert str(got.value) == str(want.value) \
                == f"member {bad} outside [0, {bound})"


def test_min_is_the_lowest_member():
    rng = random.Random(19)
    for d in (1, 5, SCAN_WIDTH + 3, 70000):
        g = CyclicGroup(d)
        for _ in range(5):
            s = ResidueSet.of(g, rng.sample(range(d), rng.randint(1, min(d, 50))))
            assert s.min() == next(iter(s)) == min(s.members())
        with pytest.raises(ValueError, match="no minimum"):
            ResidueSet(g, 0).min()


def least_bit(bits):
    """Oracle: the lowest set bit, from the whole-width negation."""
    return (bits & -bits).bit_length() - 1


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([0, 63, 64, 65, 4095, 4096, -1]), st.data())
def test_min_windows_up_to_the_least_member(least, data):
    """Least members on both sides of the 64-bit first window and of later
    doublings, and at d - 1; any bits above it."""
    d = data.draw(st.integers(max(least + 1, 1), 9000))
    least = d - 1 if least < 0 else least
    above = data.draw(st.integers(0, (1 << d - least - 1) - 1))
    bits = (above << 1 | 1) << least
    s = ResidueSet(CyclicGroup(d), bits)
    assert s.min() == least == least_bit(bits)


def memo_cases(rng):
    """Sets at widths on both sides of 64 and SCAN_WIDTH, and at 720720:
    random, inside a coset, singletons and whole cosets."""
    for d in (63, 64, 65, SCAN_WIDTH, SCAN_WIDTH + 1, 720720):
        g = CyclicGroup(d)
        yield ResidueSet.of(g, rng.sample(range(d), min(d, 40)))
        yield ResidueSet(g, 1 << rng.randrange(d))
        proper = [h for h in g.divisors() if 1 < h < d]
        for order in proper[:1] + proper[-1:]:
            coset = coset_of(Subgroup(g, order), rng.randrange(d))
            yield coset
            yield ResidueSet.of(g, rng.sample(coset.members(),
                                              min(order // 2 + 1, 200)))


def test_memoised_facts_match_oracles_and_leave_the_set_alone(rng):
    """`len` and `confining_step` against the bit count and the member gcd,
    twice (the second from the memo); `len` memoises `size` at every
    width.  A set with warm memos (or, from `coset_of`, pre-filled ones) is
    equal to a fresh copy, with the same hash and repr, and its pickle (how
    worker processes get sets) loads to an equal set with the same facts."""
    for s in memo_cases(rng):
        fresh = ResidueSet(s.group, s.bits)
        for t in (s, fresh):
            for _ in range(2):
                assert len(t) == s.bits.bit_count()
                assert t.confining_step == member_gcd_step(s)
        assert fresh.__dict__["size"] == s.bits.bit_count()
        assert s == fresh and hash(s) == hash(fresh)
        assert repr(s) == repr(fresh)
        again = pickle.loads(pickle.dumps(s))
        assert again == s and hash(again) == hash(s)
        assert (len(again), again.confining_step) == (len(s),
                                                      s.confining_step)
        assert confining_subgroup(s) == confining_subgroup(fresh)


def test_coset_of_prefills_the_computed_facts(rng):
    """`coset_of` memoises |H| and the step of H without counting; both
    equal a fresh set's recount, with x below the step, above it and at
    d - 1, and the bits equal the coset's members."""
    d = 55440
    g = CyclicGroup(d)
    for order in (1, 2, 504, d):
        h = Subgroup(g, order)
        step = h.step
        xs = {rng.randrange(step), rng.randrange(step, d) if step < d else 0,
              d - 1}
        for x in xs:
            coset = coset_of(h, x)
            memo = coset.__dict__
            assert (memo["size"], memo["confining_step"]) == (order, step)
            fresh = ResidueSet(g, coset.bits)
            assert fresh == coset
            want = (order, order, step)
            assert (len(coset), coset.size, coset.confining_step) == want
            assert (len(fresh), fresh.size, fresh.confining_step) == want
            assert coset.bits == Bitmap.bits_of(
                ((x + k * step) % d for k in range(order)), d)

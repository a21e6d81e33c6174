import random

import pytest

from sumset_forge.group_core import (BUILD_WIDTH, SCAN_WIDTH, Bitmap,
                                     CyclicGroup, ModulusMismatch, ResidueSet,
                                     Subgroup, confining_subgroup, coset_of,
                                     containing_coset, lattice, subgroups)


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
            elems = set(h.element_set())
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
                assert same == ((x - y) % 12 in h)


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
                assert (x - y) % 24 in h


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


def member_gcd_coset_oracle(s, h):
    """The member-gcd answer: s lies in one coset of H iff the step of H
    divides the step of the confining subgroup of s; the coset is then the
    one of min s."""
    return None if confining_subgroup(s).step % h.step else s.min() % h.step


def test_containing_coset_matches_member_gcd_oracle(rng):
    """Every subgroup of every Z/dZ, d <= 60, against sets inside one of its
    cosets, inside a coset of each other subgroup, and at random; then
    coset-confined and unconfined sets at d = 55440 and 65536."""
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
                assert containing_coset(s, h) == member_gcd_coset_oracle(s, h)
    for d in (55440, 65536):
        g = CyclicGroup(d)
        hs = subgroups(g)
        for k in rng.sample(hs, 12):
            coset = coset_of(k, rng.randrange(d)).members()
            inside = ResidueSet.of(g, rng.sample(coset, min(len(coset), 40)))
            outside = ResidueSet(g, inside.bits | 1 << (inside.min() + 1) % d)
            for h in rng.sample(hs, 12) + [k]:
                for s in (inside, outside):
                    assert (containing_coset(s, h)
                            == member_gcd_coset_oracle(s, h))
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

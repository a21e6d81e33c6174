import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import naive_int_sumset, naive_mod_sumset, random_residue_set
from sumset_forge.group_core import CyclicGroup, ModulusMismatch, ResidueSet, Subgroup, coset_of, subgroups
from sumset_forge.sumset_engine import (IntegerSet, stabilizer, sumset,
                                        sumset_int, sumset_int_naive,
                                        sumset_naive)


def test_sumset_examples():
    g5 = CyclicGroup(5)
    assert set(sumset(ResidueSet.of(g5, [0, 1]), ResidueSet.of(g5, [0, 2]))) \
        == {0, 1, 2, 3}
    g7 = CyclicGroup(7)
    assert set(sumset(ResidueSet.of(g7, [0, 1, 3]), ResidueSet.of(g7, [0, 5]))) \
        == {0, 1, 3, 5, 6}
    g6 = CyclicGroup(6)
    assert sumset(ResidueSet.full(g6), ResidueSet.of(g6, [3])).bits \
        == ResidueSet.full(g6).bits


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
        assert sumset(a, h.element_set()).bits == a.bits
        for other in subgroups(a.group):
            if other.order > h.order:
                assert sumset(a, other.element_set()).bits != a.bits


def test_stabilizer_matches_definition_exhaustive():
    """Every nonempty A in Z/dZ for d <= 10: the stabilizer is the largest
    subgroup H with A + H = A."""
    for d in range(1, 11):
        g = CyclicGroup(d)
        for bits in range(1, 1 << d):
            a = ResidueSet(g, bits)
            fixing = [h for h in subgroups(g)
                      if sumset(a, h.element_set()).bits == bits]
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

from fractions import Fraction
from itertools import product
from math import gcd

import pytest

from sumset_forge.group_core import CyclicGroup, ResidueSet, Subgroup
from sumset_forge.layered import (INEQ7_EQUALITY, INEQ7_STRICT,
                                  ConclusionFailed, LayeredSet,
                                  LayeredSetError, NotApplicable,
                                  StructureWitness, check_ineq7, check_lemma5,
                                  check_prop7, corollary1_check,
                                  doubling_ratio, find_structure,
                                  flatten_sumset, is_applicable,
                                  is_coset_saturated, prop6_lower_bound, tau,
                                  uvw_partition, verify_witness)
from sumset_forge.sumset_engine import sumset_naive


def full_coset_instance():
    return LayeredSet.of(12, [(a, [(a + k) % 12 for k in (0, 4, 8)])
                              for a in range(6)])


def singleton_instance():
    seconds = (0, 1, 3, 7, 2, 5)
    return LayeredSet.of(12, [(a, [seconds[a]]) for a in range(6)])


def b6_singleton_variant():
    layers = [(a, [(a + k) % 12 for k in (0, 4, 8)]) for a in range(5)]
    layers.append((5, [5]))
    return LayeredSet.of(12, layers)


def naive_layered_sumset(L):
    pts = [(a, m) for a, b in L.layers for m in b]
    d = L.d
    return {(a1 + a2, (m1 + m2) % d)
            for (a1, m1), (a2, m2) in product(pts, repeat=2)}


def random_instance(rng):
    while True:
        d = rng.choice([12, 16, 18, 24, 30, 36])
        s = rng.randint(2, 8)
        top = rng.randint(s - 1, s + 2)
        rest = sorted(rng.sample(range(1, top + 1), s - 1))
        g = 0
        for m in rest:
            g = gcd(g, m)
        if g != 1:
            continue
        group = CyclicGroup(d)
        layers = []
        for i, a in enumerate([0] + rest):
            members = rng.sample(range(d), rng.randint(1, d))
            if i == 0 and 0 not in members:
                members.append(0)
            layers.append((a, ResidueSet.of(group, members)))
        return LayeredSet(group, tuple(layers))


class TestValidation:
    def test_invariant_messages(self):
        with pytest.raises(LayeredSetError, match="first layer offset"):
            LayeredSet.of(12, [(1, [0]), (2, [0])])
        with pytest.raises(LayeredSetError, match="0 must belong"):
            LayeredSet.of(12, [(0, [1]), (1, [0])])
        with pytest.raises(LayeredSetError, match="strictly increasing"):
            LayeredSet.of(12, [(0, [0]), (3, [0]), (2, [0])])
        with pytest.raises(LayeredSetError, match="gcd"):
            LayeredSet.of(12, [(0, [0]), (2, [0]), (4, [0])])
        with pytest.raises(LayeredSetError, match="empty layer"):
            LayeredSet.of(12, [(0, [0]), (1, [])])
        with pytest.raises(LayeredSetError, match="layer count"):
            LayeredSet.of(12, [(0, [0])])


class TestFlatten:
    def test_full_coset_example(self):
        L = full_coset_instance()
        flat = flatten_sumset(L)
        assert len(flat.entries) == 11
        assert all(len(b) == 3 for _, b in flat.entries)
        assert flat.total_size() == 33 and L.size() == 18
        assert doubling_ratio(L) == Fraction(33, 18)

    def test_singleton_example(self):
        assert flatten_sumset(singleton_instance()).total_size() == 21

    def test_matches_naive_enumeration(self, rng):
        for _ in range(10_000):
            L = random_instance(rng)
            flat = flatten_sumset(L)
            expected = naive_layered_sumset(L)
            got = {(k, m) for k, b in flat.entries for m in b}
            assert got == expected

    def test_pair_table_matches_naive(self, rng):
        for _ in range(2000):
            L = random_instance(rng)
            twin = LayeredSet(L.group, L.layers)
            table = L.flat.pair_sizes
            assert L.flat is L.flat and L.flat == flatten_sumset(L)
            for i, (_, bi) in enumerate(L.layers):
                for j, (_, bj) in enumerate(L.layers):
                    assert table[i][j] == len(sumset_naive(bi, bj))
            # the cached sumset is not a field: equality and hashing ignore it
            assert L == twin and hash(L) == hash(twin)


class TestProp6:
    def test_full_coset_bound_is_tight(self):
        L = full_coset_instance()
        assert prop6_lower_bound(L) == 33

    def test_b6_variant_bound(self):
        L = b6_singleton_variant()
        flat = flatten_sumset(L)
        assert flat.total_size() == 31 and L.size() == 16
        assert prop6_lower_bound(L) <= 31

    def test_two_layer_singletons(self):
        L = LayeredSet.of(5, [(0, [0]), (1, [0])])
        assert prop6_lower_bound(L) == 3
        assert flatten_sumset(L).total_size() == 3

    def test_never_exceeds_total(self, rng):
        for _ in range(1500):
            L = random_instance(rng)
            flat = flatten_sumset(L)
            assert prop6_lower_bound(L) <= flat.total_size()


class TestCorollary1:
    def test_examples(self):
        assert corollary1_check(full_coset_instance())     # 15 >= 15
        assert corollary1_check(singleton_instance())      # 15 >= 5
        assert corollary1_check(LayeredSet.of(5, [(0, [0]), (1, [0])]))


class TestProp7:
    def test_examples(self):
        out = check_prop7(full_coset_instance())
        assert out.applicable and out.holds
        assert not check_prop7(singleton_instance()).applicable
        group = CyclicGroup(6)
        wide = LayeredSet.of(6, [(0, range(6)), (1, range(6))])
        out = check_prop7(wide)
        assert not out.applicable and out.witness == "out-of-range s"

    def test_tau_config(self):
        assert tau(4) == Fraction(9, 4)
        assert tau(5) == Fraction(12, 5)
        assert tau(6) == tau(11) == Fraction(5, 2)
        assert tau(3) is None and tau(2) is None


class TestFindStructure:
    def test_full_coset_witness(self):
        L = full_coset_instance()
        w = find_structure(L)
        assert isinstance(w, StructureWitness)
        assert w.subgroup.order == 3 and (w.x, w.y) == (1, 0)
        assert w.size_bound and w.ineq7 == INEQ7_EQUALITY
        assert verify_witness(L, w)

    def test_singleton_not_applicable(self):
        out = find_structure(singleton_instance())
        assert isinstance(out, NotApplicable)
        assert out.ratio == Fraction(21, 6)

    def test_all_full_group_layers(self):
        L = LayeredSet.of(12, [(a, range(12)) for a in range(6)])
        w = find_structure(L)
        assert isinstance(w, StructureWitness)
        assert w.subgroup.order == 12 and (w.x, w.y) == (0, 0)
        assert w.ineq7 == INEQ7_EQUALITY
        flat = flatten_sumset(L)
        assert flat.total_size() - L.size() == 60

    def test_witness_reverifies_randomized(self, rng):
        for _ in range(400):
            L = random_instance(rng)
            out = find_structure(L)
            if isinstance(out, StructureWitness):
                assert verify_witness(L, out)


class TestUvwAndLemma5:
    def test_partition_examples(self):
        L = full_coset_instance()
        h = Subgroup(L.group, 3)
        p = uvw_partition(L, h)
        assert (p.u, p.v, p.w) == (6, 0, 0)
        p = uvw_partition(b6_singleton_variant(), h)
        assert (p.u, p.v, p.w) == (5, 1, 0)
        p = uvw_partition(singleton_instance(),
                          Subgroup(CyclicGroup(12), 12))
        assert (p.u, p.v, p.w) == (0, 0, 6)

    def test_lemma5_examples(self):
        L = full_coset_instance()
        h = Subgroup(L.group, 3)
        out = check_lemma5(L, h)
        assert out.applicable and out.holds and out.witness == (6, 0, 0, 2)
        out = check_lemma5(b6_singleton_variant(), h)
        assert out.applicable and out.holds
        out = check_lemma5(singleton_instance(),
                           Subgroup(CyclicGroup(12), 12))
        assert not out.applicable


class TestIneq7:
    def test_examples(self):
        L = full_coset_instance()
        h = Subgroup(L.group, 3)
        assert check_ineq7(L, h) == INEQ7_EQUALITY
        assert check_ineq7(b6_singleton_variant(), h) == INEQ7_EQUALITY
        # B_1 enlarged to two cosets: 15 < 54 - 21 = 33
        layers = [(a, [(a + k) % 12 for k in (0, 4, 8)]) for a in range(6)]
        layers[0] = (0, [0, 4, 8, 1, 5, 9])
        big = LayeredSet.of(12, layers)
        assert check_ineq7(big, h) == INEQ7_STRICT

    def test_coset_saturation(self):
        L = full_coset_instance()
        h = Subgroup(L.group, 3)
        assert is_coset_saturated(L, h)
        assert not is_coset_saturated(b6_singleton_variant(), h)

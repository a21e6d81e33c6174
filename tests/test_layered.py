import tracemalloc
from dataclasses import replace
from fractions import Fraction
from itertools import combinations_with_replacement
from math import gcd
from operator import mul

import pytest

from sumset_forge.group_core import (CyclicGroup, ResidueSet, Subgroup,
                                     containing_coset, subgroups)
from sumset_forge.hall_bounds import (HallViolator, find_sdr, lemma2_copies,
                                      r_parameter, translated_family)
from sumset_forge.harness import (GenParams, _rng_for, canonical_instances,
                                  enumerate_offset_sets, generate_instance)
from sumset_forge.layered import (DENSE_SPAN, INEQ7_EQUALITY, INEQ7_STRICT,
                                  ConclusionFailed, LayeredSet,
                                  LayeredSetError, LayeredSumset,
                                  NotApplicable,
                                  StructureWitness, _prop6_copies,
                                  check_ineq7, check_lemma5, check_prop7,
                                  corollary1_check, coset_placement,
                                  find_structure, flatten_sumset,
                                  is_coset_saturated,
                                  offset_profile, prop6_lower_bound, tau,
                                  uvw_partition, verify_witness)
from sumset_forge.rectify import (AffineAssignment, solve_affine,
                                  solve_affine_bruteforce)
from sumset_forge.sumset_engine import IntegerSet, sumset, sumset_naive


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
    """Every point sum, one per unordered pair: addition commutes."""
    pts = [(a, m) for a, b in L.layers for m in b]
    d = L.d
    return {(a1 + a2, (m1 + m2) % d)
            for (a1, m1), (a2, m2) in combinations_with_replacement(pts, 2)}


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


def sparse_instance(rng):
    """Layers of one to three residues, any d <= 40: small confining
    subgroups, where the cross terms a_j*b_i - a_i*b_j decide."""
    d = rng.randint(1, 40)
    s = rng.randint(2, 8)
    while True:
        rest = sorted(rng.sample(range(1, s + 4), s - 1))
        if gcd(*rest) == 1:
            break
    layers = [(a, rng.sample(range(d), rng.randint(1, min(3, d))))
              for a in [0] + rest]
    layers[0][1].append(0)
    return LayeredSet.of(d, layers)


def pairwise_flatten(L, kernel=sumset_naive):
    """The pairwise oracle `flatten_sumset` replaces: one `kernel` sumset per
    offset pair i <= j, ORed into the row at a_i + a_j, and the size of each
    pair of the prop6 matching (none when it is a Hall violator)."""
    pieces = {(i, j): kernel(L.layers[i][1], L.layers[j][1])
              for i in range(L.s) for j in range(i, L.s)}
    rows = {}
    for (i, j), piece in pieces.items():
        k = L.layers[i][0] + L.layers[j][0]
        rows[k] = rows.get(k, 0) | piece.bits
    matching = L.profile.matching
    return LayeredSumset(
        sum(row.bit_count() for row in rows.values()),
        [] if isinstance(matching, HallViolator) else
        [len(pieces[min(p), max(p)]) for p in matching])


def spread_instance(rng):
    """Random layers of Z/dZ, d <= 120, on offsets drawn up to 3s, 100 or
    10**6: spans on both sides of DENSE_SPAN * s, most far beyond it."""
    d = rng.choice([1, 7, 12, 24, 60, 120])
    s = rng.randint(2, 9)
    while True:
        rest = sorted(rng.sample(range(1, rng.choice([3 * s, 100, 10**6])),
                                 s - 1))
        if gcd(*rest) == 1:
            break
    layers = [(a, rng.sample(range(d), rng.randint(1, d)))
              for a in [0] + rest]
    layers[0] = (0, {0, *layers[0][1]})
    return LayeredSet.of(d, layers)


def verify_witness_elementwise(L, w):
    """The residue loop `verify_witness` replaces: every member against the
    residue of its coset a*x + y, modulo the step of H."""
    h, d = w.subgroup, L.d
    for a, b in L.layers:
        target = (a * w.x + w.y) % d
        if any((m - target) % h.step != 0 for m in b):
            return False
    return 3 * len(L.layers[w.j][1]) >= 2 * h.order


def small_group_instance(rng):
    """Random layers of Z/dZ for d <= 8, often the whole group: covers d = 1,
    where every layer is {0}, and full-group rows."""
    d = rng.randint(1, 8)
    s = rng.randint(2, 8)
    while True:
        rest = sorted(rng.sample(range(1, s + 4), s - 1))
        if gcd(*rest) == 1:
            break
    layers = [(a, range(d) if rng.random() < 0.3
               else rng.sample(range(d), rng.randint(1, d)))
              for a in [0] + rest]
    layers[0] = (0, {0, *layers[0][1]})
    return LayeredSet.of(d, layers)


def scan_placement(L):
    """The ascending subgroup scan that `coset_placement` replaces: the first
    H confining every layer whose coset values admit an affine solution."""
    aset = IntegerSet.from_members(L.offsets())
    for h in subgroups(L.group):
        reps = tuple(containing_coset(b, h) for _, b in L.layers)
        if None in reps:
            continue
        xy = solve_affine_bruteforce(AffineAssignment(aset, reps, h.step))
        if xy is not None:
            return (h.order, *xy)
    return None


def member_gcd_placement(L):
    """Oracle: `coset_placement` with its step as one gcd over every member
    of every layer, as it was before the mask tests."""
    p = L.profile
    firsts = tuple(b.min() for _, b in L.layers)
    x0 = sum(c * b for c, b in zip(p.bezout, firsts))
    q = gcd(L.d, *(m - bi for (_, b), bi in zip(L.layers, firsts) for m in b),
            *(bi - a * x0 for a, bi in zip(L.offsets(), firsts)))
    xy = solve_affine(AffineAssignment(p.offset_set, firsts, q), p.bezout)
    return None if xy is None else (Subgroup(L.group, L.d // q), *xy)


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
        assert flatten_sumset(L).total == 33 and L.size == 18
        assert L.ratio == Fraction(33, 18)

    def test_singleton_example(self):
        assert flatten_sumset(singleton_instance()).total == 21

    def test_matches_naive_enumeration(self, rng):
        for _ in range(10_000):
            L = random_instance(rng)
            assert flatten_sumset(L).total == len(naive_layered_sumset(L))

    def test_pair_table_matches_naive(self, rng):
        for _ in range(2000):
            L = random_instance(rng)
            twin = LayeredSet(L.group, L.layers)
            assert L.flat is L.flat and L.flat == flatten_sumset(L)
            assert L.flat.pair_sizes == [
                len(sumset_naive(L.layers[i][1], L.layers[j][1]))
                for i, j in L.profile.matching]
            # the cached sumset is not a field: equality and hashing ignore it
            assert L == twin and hash(L) == hash(twin)

    def test_packed_rows_match_pairwise_oracle(self, rng):
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        instances = ([L for _, L in canonical_instances()]
                     + [generate_instance(GenParams(), _rng_for(31, i))
                        for i in range(300)]
                     + [generate_instance(large, _rng_for(32, i))
                        for i in range(100)]
                     + [small_group_instance(rng) for _ in range(1000)])
        assert {L.d for L in instances} >= set(range(1, 9))
        assert any(len(b) == L.d > 1 for L in instances for _, b in L.layers)
        for L in instances:
            assert flatten_sumset(L) == pairwise_flatten(L)

    def test_packed_rows_at_s_in_the_hundreds(self):
        """The widest slots and packs: s = 100..200, d up to 120.  The
        oracle adds each pair with `sumset`, itself checked against
        `sumset_naive`, which takes 14-46 s per dense instance here."""
        hundreds = GenParams(d_values=(48, 60, 72, 96, 120), s_min=100,
                             s_max=200)
        instances = [generate_instance(hundreds, _rng_for(33, i))
                     for i in range(4)]
        assert max(L.size for L in instances) > 10_000
        for L in instances:
            assert flatten_sumset(L) == pairwise_flatten(L, sumset)

    def test_wide_offset_spans_match_pairwise_oracle(self, rng):
        """Offsets far apart are packed by index and their rows keyed by
        a_i + a_j; dense ones are placed by offset.  Both agree with the
        oracle, on either side of the DENSE_SPAN * s boundary too."""
        d = 24
        edge = [LayeredSet.of(d, [(a, rng.sample(range(d), 9))
                                  for a in (0, 1, top)])
                for top in (DENSE_SPAN * 3 - 1, DENSE_SPAN * 3)]
        edge = [LayeredSet.of(d, [(0, {0, *L.layers[0][1]}), *L.layers[1:]])
                for L in edge]
        instances = (edge + [spread_instance(rng) for _ in range(400)]
                     + [random_instance(rng) for _ in range(200)])
        wide = [L.max_offset() >= DENSE_SPAN * L.s for L in instances]
        assert wide[:2] == [False, True]
        assert sum(wide) > 250 and not all(wide)
        assert any(L.max_offset() > 10**5 for L in instances)
        for L in instances:
            assert flatten_sumset(L) == pairwise_flatten(L)

    def test_bitmaps_scale_with_layer_count(self, monkeypatch):
        """No pack, row or fold grows with the offset span: every `sumset`
        runs on at most DENSE_SPAN * s slots of 2d bits, and flattening
        nine layers of Z/120Z spread up to 8 * 10**6 allocates little."""
        moduli = []

        def recording(a, b):
            moduli.append(a.group.modulus)
            return sumset(a, b)

        monkeypatch.setattr("sumset_forge.layered.sumset", recording)
        spread = (0, 1, 1094067, 1996193, 3103410, 4565327, 4971434,
                  5066050, 7683503)
        instances = [LayeredSet.of(120, [(0, range(0, 120, 2)), (1, [1]),
                                         (10**6, range(60))]),
                     LayeredSet.of(120, [(a, range(a % 7, 120, 3))
                                         for a in spread])]
        for L in instances:
            L.profile
            moduli.clear()
            tracemalloc.start()
            flat = flatten_sumset(L)
            peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.stop()
            assert len(moduli) == L.s
            assert max(moduli) <= DENSE_SPAN * L.s * 2 * L.d
            assert peak < 100_000
            assert flat == pairwise_flatten(L)

    def test_sizes_are_unhashable(self):
        """`pair_sizes` is a list, so `LayeredSumset` states that it has no
        hash rather than fail inside a generated one."""
        flat = flatten_sumset(full_coset_instance())
        assert LayeredSumset.__hash__ is None
        with pytest.raises(TypeError, match="unhashable"):
            hash(flat)

    def test_packed_rows_without_matching(self, rng, monkeypatch,
                                          empty_memo):
        """With no SDR the total is unchanged and no pair size is kept."""
        monkeypatch.setattr("sumset_forge.layered.find_sdr",
                            lambda family: HallViolator((0, 1), 1))
        instances = ([L for _, L in canonical_instances()]
                     + [small_group_instance(rng) for _ in range(200)])
        for L in instances:
            flat = flatten_sumset(L)
            assert isinstance(L.profile.matching, HallViolator)
            assert flat == pairwise_flatten(L) and flat.pair_sizes == []


class TestProp6:
    def test_full_coset_bound_is_tight(self):
        L = full_coset_instance()
        assert prop6_lower_bound(L) == 33

    def test_b6_variant_bound(self):
        L = b6_singleton_variant()
        assert flatten_sumset(L).total == 31 and L.size == 16
        assert prop6_lower_bound(L) <= 31

    def test_two_layer_singletons(self):
        L = LayeredSet.of(5, [(0, [0]), (1, [0])])
        assert prop6_lower_bound(L) == 3
        assert flatten_sumset(L).total == 3

    def test_never_exceeds_total(self, rng):
        for _ in range(1500):
            L = random_instance(rng)
            assert prop6_lower_bound(L) <= flatten_sumset(L).total

    def test_memoized_profile_matches_oracle(self, rng, empty_memo):
        """The bound read through the offset profile equals one built from
        scratch: the family, a fresh matching and one sumset per SDR
        representative."""
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        instances = ([L for _, L in canonical_instances()]
                     + [generate_instance(GenParams(epsilon=0.2),
                                          _rng_for(21, i)) for i in range(200)]
                     + [random_instance(rng) for _ in range(100)]
                     + [generate_instance(large, _rng_for(22, i))
                        for i in range(12)])
        assert {L.s for L in instances} >= {2, 6, 9, 24, 40}
        for L in instances:
            offsets = L.offsets()
            aset = IntegerSet.from_members(offsets)
            copies = _prop6_copies(aset, r_parameter(aset))
            cert = find_sdr(translated_family(aset, copies))
            charge = [i for i, n in enumerate(copies) for _ in range(n)]
            index_of = {a: i for i, a in enumerate(offsets)}
            expected = sum(
                len(sumset(L.layers[i][1],
                           L.layers[index_of[rep - offsets[i]]][1]))
                for i, rep in zip(charge, cert.representatives))
            assert prop6_lower_bound(L) == expected
            assert L.profile.offset_set == aset
            assert L.profile.r == r_parameter(aset)
            assert sum(map(mul, L.profile.bezout, offsets)) == 1
        # repeated offset tuples were answered from the memo
        assert offset_profile.cache_info().hits > 0

    def test_family_builder_reproduces_both_families(self):
        """The one translated-copy builder, given the lemma 2 and the prop6
        copy counts, yields the families the two former builders yielded,
        set by set, and the prop6 copies charge the same layers."""
        special = 0
        for s in (6, 7):
            for aset in enumerate_offset_sets(s, 12):
                r = r_parameter(aset)
                offsets = aset.members()
                shifted = [IntegerSet(2 * aset.max() + 1, aset.bits << a)
                           for a in offsets]
                is_special = r in (2, 3) and aset.max() == s + r - 3
                special += is_special
                lemma2, prop6, charge = [], [], []
                for idx in range(s):
                    generic = s - 1 if idx == 0 else (2 if idx + 1 <= r else 1)
                    n = generic
                    if is_special:
                        n = s if idx == 0 else (
                            2 if (r == 3 and idx == 1) else 1)
                    lemma2 += [shifted[idx]] * generic
                    prop6 += [shifted[idx]] * n
                    charge += [idx] * n
                assert translated_family(aset, lemma2_copies(s, r)) == lemma2
                copies = _prop6_copies(aset, r)
                assert translated_family(aset, copies) == prop6
                assert [i for i, n in enumerate(copies)
                        for _ in range(n)] == charge
        assert special > 0


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
        assert w.ineq7 == INEQ7_EQUALITY
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
        assert flatten_sumset(L).total - L.size == 60

    def test_placement_matches_subgroup_scan(self, rng):
        params = ((GenParams(), 3000),
                  (GenParams(epsilon=0.3), 1500),
                  (GenParams(density=0.1, max_a_slack=6), 1000),
                  (GenParams(d_values=(48, 60, 72, 96, 120), s_min=24,
                             s_max=40, max_a_slack=8, epsilon=0.1), 50))
        instances = [L for _, L in canonical_instances()]
        for seed, (p, count) in enumerate(params):
            instances += [generate_instance(p, _rng_for(seed, i))
                          for i in range(count)]
        instances += [random_instance(rng) for _ in range(500)]
        instances += [sparse_instance(rng) for _ in range(4000)]
        orders = set()
        for L in instances:
            h, x, y = coset_placement(L)
            assert (h.order, x, y) == scan_placement(L), L
            orders.add(h.order == L.d)
        assert len(instances) >= 10_000 and orders == {True, False}

    def test_placement_matches_member_gcd(self, rng):
        """The mask-test chain gives the member gcd's (H, x, y), also with
        layers off their coset (epsilon) and at large s."""
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8, epsilon=0.2)
        instances = [L for _, L in canonical_instances()]
        for seed, (p, count) in enumerate(((GenParams(), 2000),
                                           (GenParams(epsilon=0.3), 1000),
                                           (large, 150))):
            instances += [generate_instance(p, _rng_for(50 + seed, i))
                          for i in range(count)]
        instances += [sparse_instance(rng) for _ in range(1000)]
        for L in instances:
            assert coset_placement(L) == member_gcd_placement(L), L

    def test_witness_reverifies_randomized(self, rng):
        for _ in range(400):
            L = random_instance(rng)
            out = find_structure(L)
            if isinstance(out, StructureWitness):
                assert verify_witness(L, out)

    def test_witness_mask_matches_elementwise_oracle(self, rng):
        """Every subgroup, at the placement's (x, y) and a random one, on
        instances with d = 1, full-group layers and one-residue layers."""
        instances = ([small_group_instance(rng) for _ in range(300)]
                     + [random_instance(rng) for _ in range(200)]
                     + [sparse_instance(rng) for _ in range(300)])
        seen = set()
        for L in instances:
            _, x0, y0 = coset_placement(L)
            for h in subgroups(L.group):
                for x, y in ((x0, y0), (rng.randrange(L.d),
                                        rng.randrange(L.d))):
                    w = StructureWitness(h, x, y, rng.randrange(L.s),
                                         INEQ7_STRICT)
                    ok = verify_witness(L, w)
                    assert ok == verify_witness_elementwise(L, w), (L, w)
                    seen.add((ok, h.step == L.d, L.d == 1))
        assert {(True, True, True), (True, False, False),
                (False, True, False), (False, False, False)} <= seen

    def test_rejects_tampered_witness(self, rng):
        """x + 1 or y + 1 moves some layer out of its coset unless H is all
        of Z/dZ (the offsets have gcd 1), and no smaller subgroup holds the
        layers at (x, y), since H is the smallest that does."""
        instances = ([L for _, L in canonical_instances()]
                     + [generate_instance(GenParams(epsilon=0.1),
                                          _rng_for(41, i))
                        for i in range(500)]
                     + [sparse_instance(rng) for _ in range(500)])
        proper = smaller = 0
        for L in instances:
            w = find_structure(L)
            if not isinstance(w, StructureWitness):
                continue
            assert verify_witness(L, w)
            whole = w.subgroup.order == L.d
            proper += not whole
            for bad in (replace(w, x=(w.x + 1) % L.d),
                        replace(w, y=(w.y + 1) % L.d)):
                assert verify_witness(L, bad) == whole
            for h in subgroups(L.group):
                if h.order < w.subgroup.order:
                    smaller += 1
                    assert not verify_witness(L, replace(w, subgroup=h))
        assert proper >= 300 and smaller >= 1000


class TestUvwAndLemma5:
    def test_partition_examples(self):
        L = full_coset_instance()
        h = Subgroup(L.group, 3)
        assert uvw_partition(L, h) == (6, 0, 0)
        assert uvw_partition(b6_singleton_variant(), h) == (5, 1, 0)
        assert uvw_partition(singleton_instance(),
                             Subgroup(CyclicGroup(12), 12)) == (0, 0, 6)

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

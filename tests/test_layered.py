import json
import pickle
import re
import tracemalloc
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import all_offset_sets, any_layered_sets, iset
from sumset_forge.group_core import (CyclicGroup, ResidueSet, Subgroup,
                                     containing_coset, coset_of, coset_step,
                                     memo, subgroups)
from sumset_forge.hall_bounds import (HallViolator, find_sdr, lemma2_copies,
                                      r_parameter, translated_family)
from sumset_forge.harness import (GenParams, Tally, _rng_for,
                                  canonical_instances, generate_instance,
                                  instance_from_doc, instance_to_json,
                                  verify_instance)
from sumset_forge.layered import (DENSE_SPAN, INEQ7_EQUALITY, INEQ7_STRICT,
                                  QUOTIENT_WIDTH, ConclusionFailed, LayeredSet,
                                  LayeredSetError, LayeredSumset,
                                  NotApplicable,
                                  StructureWitness, _prop6_copies,
                                  check_ineq7, check_lemma5, check_prop7,
                                  corollary1_check, coset_quotient,
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


def naive_layered_sumset_size(L):
    """|B~+B~| on plain sets: every point sum of each pair i <= j goes into
    the row at a_i + a_j, and the rows' sizes are summed."""
    d = L.d
    layers = [(a, list(b)) for a, b in L.layers]
    rows = {}
    for i, (a1, b1) in enumerate(layers):
        for a2, b2 in layers[i:]:
            rows.setdefault(a1 + a2, set()).update(
                {(x + y) % d for x in b1 for y in b2})
    return sum(map(len, rows.values()))


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
    offset pair i <= j, ORed into the row at a_i + a_j, and the sizes of the
    prop6 matching's pairs, each read as (i, j) with i <= j, summed (0 when
    the matching is a Hall violator)."""
    pieces = {(i, j): kernel(L.layers[i][1], L.layers[j][1])
              for i in range(L.s) for j in range(i, L.s)}
    rows = {}
    for (i, j), piece in pieces.items():
        k = L.layers[i][0] + L.layers[j][0]
        rows[k] = rows.get(k, 0) | piece.bits
    matching = L.profile.matching
    return LayeredSumset(
        sum(row.bit_count() for row in rows.values()),
        0 if isinstance(matching, HallViolator) else
        sum(len(pieces[p]) for p in matching))


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


def coset_layers_instance(rng, step, order, low, s):
    """Dense offsets (max a < DENSE_SPAN * s) with layer i inside c_i + H in
    Z/(step * order)Z, H of that step and order.  The c_i are drawn at
    random (c_1 = 0), so the cosets follow no a*x + y in general.  One layer
    after the first has `low` members and the rest low..order; the first
    holds 0 and, with room for two members, step as well, so H is the
    smallest subgroup with every layer inside one of its cosets."""
    d = step * order
    while True:
        rest = sorted(rng.sample(range(1, DENSE_SPAN * s), s - 1))
        if gcd(*rest) == 1:
            break
    sizes = [rng.randint(low, order) for _ in range(s)]
    sizes[0] = n = min(order, max(low, 2))
    sizes[rng.randrange(1, s)] = low
    layers = [(0, [k * step for k in [0, 1][:n]
                   + rng.sample(range(2, order), max(0, n - 2))])]
    for a, n in zip(rest, sizes[1:]):
        c = rng.randrange(step)
        layers.append((a, [c + k * step for k in rng.sample(range(order), n)]))
    return LayeredSet.of(d, layers)


def confining_order(L):
    """|H| for the smallest H with every layer inside one coset of H, from
    a gcd over every member."""
    return L.d // gcd(L.d, *(m - b.min() for _, b in L.layers for m in b))


def recorded_moduli(monkeypatch):
    """The modulus of each `sumset` the flatten makes from here on."""
    moduli = []

    def recording(a, b):
        moduli.append(a.group.modulus)
        return sumset(a, b)

    monkeypatch.setattr("sumset_forge.layered.sumset", recording)
    return moduli


def recorded_steps(monkeypatch):
    """The arguments of each `coset_step` call in `layered` from here on."""
    calls = []
    monkeypatch.setattr("sumset_forge.layered.coset_step",
                        lambda *args: calls.append(args) or coset_step(*args))
    return calls


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


def traced_peak(call, L):
    """call(L) and the peak bytes that tracemalloc saw it allocate."""
    tracemalloc.start()
    try:
        return call(L), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def scan_placement(L):
    """The ascending subgroup scan that `LayeredSet.placement` replaces: the
    first H confining every layer whose coset values admit an affine
    solution."""
    aset = iset(L.offsets())
    for h in subgroups(L.group):
        reps = tuple(containing_coset(b, h) for _, b in L.layers)
        if None in reps:
            continue
        xy = solve_affine_bruteforce(AffineAssignment(aset, reps, h.step))
        if xy is not None:
            return (h.order, *xy)
    return None


def member_gcd_placement(L):
    """Oracle: `LayeredSet.placement` with its step as one gcd over every
    member of every layer, as it was before the mask tests."""
    p = L.profile
    firsts = tuple(b.min() for _, b in L.layers)
    x0 = sum(c * b for c, b in zip(p.bezout, firsts))
    q = gcd(L.d, *(m - bi for (_, b), bi in zip(L.layers, firsts) for m in b),
            *(bi - a * x0 for a, bi in zip(L.offsets(), firsts)))
    aset = iset(L.offsets())
    xy = solve_affine(AffineAssignment(aset, firsts, q), p.bezout)
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
            assert flatten_sumset(L).total == naive_layered_sumset_size(L)

    def test_pair_table_matches_naive(self, rng):
        for _ in range(2000):
            L = random_instance(rng)
            twin = LayeredSet(L.group, L.layers)
            assert L.flat is L.flat and L.flat == flatten_sumset(L)
            assert all(i <= j for i, j in L.profile.matching)
            assert L.flat.bound == sum(
                len(sumset_naive(L.layers[i][1], L.layers[j][1]))
                for i, j in L.profile.matching)
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
        nine layers of Z/120Z spread up to 8 * 10**6 allocates little.  So
        does placing them in their cosets, which reads the offset tuple and
        builds no bitmap as wide as the span."""
        moduli = recorded_moduli(monkeypatch)
        spread = (0, 1, 1094067, 1996193, 3103410, 4565327, 4971434,
                  5066050, 7683503)
        instances = [LayeredSet.of(120, [(0, range(0, 120, 2)), (1, [1]),
                                         (10**6, range(60))]),
                     LayeredSet.of(120, [(a, range(a % 7, 120, 3))
                                         for a in spread])]
        for L in instances:
            L.profile
            moduli.clear()
            flat, peak = traced_peak(flatten_sumset, L)
            assert len(moduli) == L.s
            assert max(moduli) <= DENSE_SPAN * L.s * 2 * L.d
            assert peak < 100_000
            assert flat == pairwise_flatten(L)
            found, peak = traced_peak(LayeredSet.placement.func, L)
            assert peak < 100_000
            assert found == member_gcd_placement(L)

    def test_pigeonhole_full_flatten_makes_one_sum(self, monkeypatch):
        """A dense flatten whose layers all fill more than half of their
        cosets of H, the smallest subgroup confining each of them, adds the
        image pack to itself once, in Z/WZ with W <= (2 max a + 1) * 2g, g
        the step of H.  One singleton among full cosets (b6) is not full,
        and takes the s packed sums."""
        moduli = recorded_moduli(monkeypatch)
        instances = ([full_coset_instance(), singleton_instance()]
                     + [generate_instance(GenParams(), _rng_for(37, i))
                        for i in range(50)])
        for L in instances:
            L.profile
            moduli.clear()
            g = L.d // confining_order(L)
            assert 2 * min(L.sizes) * g > L.d
            assert flatten_sumset(L) == pairwise_flatten(L)
            assert len(moduli) == 1
            assert moduli[0] <= (2 * L.max_offset() + 1) * 2 * g
        L = b6_singleton_variant()
        L.profile
        moduli.clear()
        assert flatten_sumset(L) == pairwise_flatten(L)
        assert len(moduli) == L.s

    def test_pigeonhole_rows_match_pairwise_oracle(self, rng, monkeypatch):
        """Layers in cosets of one H, on both sides of 2 min|B_i| = |H|:
        the image branch runs exactly when 2 min|B_i| > |H| and agrees with
        the oracle either way, at |H| = 1, at |H| = d and in between.  The
        cosets are drawn apart from any a*x + y, so rows are unions of
        several cosets of H, and |H| * |A' + A'| is not the total."""
        moduli = recorded_moduli(monkeypatch)
        sides, unions = Counter(), 0
        for step in (1, 2, 3, 5):
            for order in range(1, 14):
                for low in {max(1, order // 2), (order + 1) // 2,
                            order // 2 + 1}:
                    for _ in range(4):
                        L = coset_layers_instance(rng, step, order, low,
                                                  rng.randint(2, 8))
                        assert confining_order(L) == order
                        assert min(L.sizes) == low
                        L.profile
                        moduli.clear()
                        flat = flatten_sumset(L)
                        assert flat == pairwise_flatten(L)
                        full = 2 * low > order
                        assert len(moduli) == (1 if full else L.s)
                        sides[full, 2 * low - order] += 1
                        offsets = L.offsets()
                        sums = {a + b for a in offsets for b in offsets}
                        unions += full and flat.total != order * len(sums)
        assert set(sides) == {(False, 0), (False, -1), (True, 1), (True, 2)}
        assert unions > 50

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 12), st.integers(2, 8),
           st.integers(0, 1), st.randoms(use_true_random=False))
    def test_pigeonhole_rows_properties(self, step, order, s, up, r):
        """2 min|B_i| at |H| - 1, |H| (below the pigeonhole) and at
        |H| + 1, |H| + 2 (above), by the parity of |H|."""
        low = max(1, order // 2 + up)
        L = coset_layers_instance(r, step, order, low, s)
        assert flatten_sumset(L) == pairwise_flatten(L)

    def test_pigeonhole_rows_on_generated_instances(self, monkeypatch):
        """Campaign instances: default and large-s ones are all
        pigeonhole-full, large-s ones at density 0 mostly are not."""
        moduli = recorded_moduli(monkeypatch)
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        instances = ([generate_instance(GenParams(), _rng_for(38, i))
                      for i in range(200)]
                     + [generate_instance(large, _rng_for(39, i))
                        for i in range(30)]
                     + [generate_instance(replace(large, density=0.0),
                                          _rng_for(40, i))
                        for i in range(60)])
        sides = Counter()
        for L in instances:
            L.profile
            moduli.clear()
            assert flatten_sumset(L) == pairwise_flatten(L, sumset)
            sides[len(moduli) == 1] += 1
        assert sides[True] >= 230 and sides[False] >= 30

    def test_pigeonhole_rows_across_quotient_width(self, rng, monkeypatch):
        """d on both sides of QUOTIENT_WIDTH: generated instances, whose
        layers fill their cosets of a proper H, so the image branch runs
        on the instance itself, with no quotient, and coset-drawn ones,
        whose cosets follow no a*x + y, so the plain flatten runs."""
        moduli = recorded_moduli(monkeypatch)
        near = GenParams(d_values=(QUOTIENT_WIDTH - 8, QUOTIENT_WIDTH + 16))
        instances = ([generate_instance(near, _rng_for(41, i))
                      for i in range(12)]
                     + [coset_layers_instance(rng, 8, order, order // 2 + 1,
                                              rng.randint(2, 9))
                        for order in (63, 66) for _ in range(2)])
        kinds = Counter()
        for L in instances:
            L.profile
            moduli.clear()
            assert L.flat == pairwise_flatten(L, sumset)
            h = L.placement[0].order
            kinds[L.d >= QUOTIENT_WIDTH, h < L.d, len(moduli) == 1] += 1
        assert kinds[True, True, True] and kinds[False, True, True]
        assert kinds[True, False, True] or kinds[False, False, True]

    def test_coset_quotient_flatten_matches_plain(self, monkeypatch):
        """With QUOTIENT_WIDTH at 0, every instance whose coset subgroup H
        is proper and whose layers are not pigeonhole-full flattens in
        Z/|H|Z, and the total and prop6 bound of that flatten and of
        `flatten_sumset` of the quotient equal the plain flatten's, taken
        at the real QUOTIENT_WIDTH: default, large-s and off-coset
        instances (epsilon, where H is often all of Z/dZ), and trivial H
        (layers a*x + y alone), which flattens in Z/1Z."""
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        off = GenParams(density=0.0, epsilon=0.3)
        instances = ([L for _, L in canonical_instances()]
                     + [generate_instance(GenParams(), _rng_for(34, i))
                        for i in range(300)]
                     + [generate_instance(large, _rng_for(35, i))
                        for i in range(40)]
                     + [generate_instance(off, _rng_for(36, i))
                        for i in range(300)])
        plains = [flatten_sumset(L) for L in instances]
        monkeypatch.setattr("sumset_forge.layered.QUOTIENT_WIDTH", 0)
        kinds = Counter()
        for L, plain in zip(instances, plains):
            found = L.placement
            assert found is L.placement
            assert found == LayeredSet.placement.func(L)
            h = found[0]
            assert L.flat == plain
            if h.order < L.d:
                q = coset_quotient(L)
                assert q.d == h.order and q.offsets() == L.offsets()
                assert [len(b) for _, b in q.layers] == [
                    len(b) for _, b in L.layers]
                assert flatten_sumset(q) == plain
            kinds["full" if h.order == L.d else
                  "trivial" if h.order == 1 else "proper"] += 1
            kinds["quotient"] += (h.order < L.d and 2 * min(L.sizes)
                                  * L.confinement[0] <= L.d)
        assert min(kinds["full"], kinds["trivial"], kinds["proper"],
                   kinds["quotient"]) >= 20, kinds

    def test_packed_rows_without_matching(self, rng, monkeypatch,
                                          empty_memo):
        """With no SDR the total is unchanged and the bound is 0, from the
        packed pass and from the pigeonhole image alike (no dense offset
        set with s <= 8 lacks a prop6 SDR, so the violator is forced)."""
        monkeypatch.setattr("sumset_forge.layered.find_sdr",
                            lambda family: HallViolator((0, 1), 1))
        instances = ([L for _, L in canonical_instances()]
                     + [small_group_instance(rng) for _ in range(200)]
                     + [coset_layers_instance(rng, 4, order, order // 2 + 1,
                                              6) for order in (1, 3, 4, 9)])
        for L in instances:
            flat = flatten_sumset(L)
            assert isinstance(L.profile.matching, HallViolator)
            assert flat == pairwise_flatten(L) and flat.bound == 0


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

    def test_image_reads_no_matching(self, empty_memo):
        """On instances that take the pigeonhole image, a whole `verify`
        builds no (i, j) pair: the profile's `matching` memo stays empty,
        and prop6 is |H| times the SDR's size, H the confining subgroup.
        The packed flatten does build the pairs."""
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        drawn = [generate_instance(p, _rng_for(70 + seed, i))
                 for seed, (p, count) in enumerate(((GenParams(), 300),
                                                    (large, 30)))
                 for i in range(count)]

        def pigeonhole(L):
            return (L.max_offset() < DENSE_SPAN * L.s
                    and 2 * min(L.sizes) * L.confinement[0] > L.d)

        image = [L for L in drawn if pigeonhole(L)]
        assert len(image) >= 300, len(image)
        for L in image:
            verify_instance(L, Tally())
            assert "matching" not in L.profile.__dict__, L
            order = L.d // L.confinement[0]
            assert prop6_lower_bound(L) == order * len(L.profile.sdr)
            assert len(L.profile.sdr) == sum(L.profile.copies)
        packed = LayeredSet.of(60, [(a, [0, 1]) for a in range(6)])
        assert not pigeonhole(packed)
        verify_instance(packed, Tally())
        assert "matching" in packed.profile.__dict__
        assert len(packed.profile.matching) == len(packed.profile.sdr)

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
            aset = iset(offsets)
            copies = _prop6_copies(aset, r_parameter(aset))
            cert = find_sdr(translated_family(aset, copies))
            charge = [i for i, n in enumerate(copies) for _ in range(n)]
            index_of = {a: i for i, a in enumerate(offsets)}
            expected = sum(
                len(sumset(L.layers[i][1],
                           L.layers[index_of[rep - offsets[i]]][1]))
                for i, rep in zip(charge, cert.representatives))
            assert prop6_lower_bound(L) == expected
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
            for aset in all_offset_sets(s, 12):
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

    def test_tight_family(self):
        """Whole-group layers on A = [0, s-2] with t = ceil(3s/2) - 1 added
        have doubling (s + t)/s < 5/2, so they are applicable, and prop7
        holds with margin 3s - 2t of 1 or 2: the bound is tight at every s.
        With t + 1 in place of t the doubling reaches 5/2 and nothing
        applies."""
        for s in range(6, 10):
            t = -(-3 * s // 2) - 1
            for top, applicable in ((t, True), (t + 1, False)):
                for d in (1, 4, 12):
                    L = LayeredSet.of(d, [(a, range(d)) for a in
                                          [*range(s - 1), top]])
                    assert L.ratio == Fraction(s + top, s)
                    out = check_prop7(L)
                    assert out.applicable == applicable, (s, top, d)
                    if applicable:
                        assert out.holds and out.witness == (t, s)
                        assert 3 * s - 2 * t == 2 - s % 2
                        w = find_structure(L)
                        assert isinstance(w, StructureWitness)
                        assert w.subgroup.order == d

    # the first instances of seed 1 at --max-a-slack 8 that reach every
    # cell below; the last new cell is reached at index 2237
    BOUNDARY_COUNT = 2238

    def test_generator_reaches_the_boundary(self):
        """Seed 1 at `max_a_slack=8`, the CI row `max-a-slack8`, draws an
        applicable instance in every (s, max a) cell for s = 6..9 and max a
        from s - 1 up to prop7's bound ceil(3s/2) - 1 (20 cells), within
        its first BOUNDARY_COUNT instances, and none past the bound."""
        p = GenParams(max_a_slack=8)
        cells = {(s, top) for s in range(6, 10)
                 for top in range(s - 1, -(-3 * s // 2))}
        assert len(cells) == 20
        seen = set()
        for i in range(self.BOUNDARY_COUNT):
            L = generate_instance(p, _rng_for(1, i))
            if L.applicable:
                assert 2 * L.max_offset() < 3 * L.s, i
                seen.add((L.s, L.max_offset()))
        assert seen == cells

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
        L = singleton_instance()
        assert isinstance(find_structure(L), NotApplicable)
        assert L.ratio == Fraction(21, 6)

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
            h, x, y = LayeredSet.placement.func(L)
            assert (h.order, x, y) == scan_placement(L), L
            orders.add(h.order == L.d)
        assert len(instances) >= 10_000 and orders == {True, False}

    def test_placement_matches_member_gcd(self, rng):
        """The mask-test chain gives the member gcd's (H, x, y), also with
        layers off their coset (epsilon), at large s and with layers as
        small as one member (density 0), where some ineq7 equalities are
        not whole cosets.  Two closed forms hold there too: y = 0 and
        x = sum c_i min B_i mod the step of H (0 is in B_1, c the offsets'
        Bezout coefficients); and on an ineq7 equality, whole-coset
        saturation is a verified witness whose layers all have |H|
        members."""
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8, epsilon=0.2)
        instances = [L for _, L in canonical_instances()]
        for seed, (p, count) in enumerate(((GenParams(), 2000),
                                           (GenParams(epsilon=0.3), 1000),
                                           (large, 150),
                                           (GenParams(density=0.0,
                                                      epsilon=0.3), 500))):
            instances += [generate_instance(p, _rng_for(50 + seed, i))
                          for i in range(count)]
        instances += [sparse_instance(rng) for _ in range(1000)]
        saturated = Counter()
        for L in instances:
            found = LayeredSet.placement.func(L)
            assert found == member_gcd_placement(L), L
            h, x, y = found
            firsts = (b.min() for _, b in L.layers)
            assert y == 0
            assert x == sum(map(mul, L.profile.bezout, firsts)) % h.step
            w = find_structure(L)
            if isinstance(w, StructureWitness) and w.ineq7 == INEQ7_EQUALITY:
                sat = is_coset_saturated(L, h)
                saturated[sat] += 1
                assert sat == (verify_witness(L, w) and all(
                    n == h.order for n in L.sizes)), L
        assert saturated[True] > 0 and saturated[False] > 0, saturated

    @settings(max_examples=200, deadline=None)
    @given(L=any_layered_sets())
    def test_placement_total_on_any_layered_set(self, L):
        """The placement never fails: on any valid layered set it is (H,
        x, 0), every member of every B_i lies in a_i*x + H, and H is the
        member gcd's.  So the structure finder's only failures are the
        theorem's conclusions."""
        h, x, y = L.placement
        assert y == 0 and (h, x, y) == member_gcd_placement(L)
        for a, b in L.layers:
            assert all((m - a * x) % h.step == 0 for m in b), (L, a)
        out = find_structure(L)
        if isinstance(out, ConclusionFailed):
            assert out.conclusion in ("max-offset-bound",
                                      "two-thirds-witness",
                                      "subgroup-size-bound", "ineq7"), out
        elif isinstance(out, StructureWitness):
            assert verify_witness_elementwise(L, out)

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
            _, x0, y0 = L.placement
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


class TestConfinement:
    @staticmethod
    def instances(rng):
        """Default, large-s, density 0, off-coset and one-member-layer
        instances, below and above QUOTIENT_WIDTH."""
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        near = (QUOTIENT_WIDTH - 8, QUOTIENT_WIDTH + 16)
        params = ((GenParams(), 400), (large, 30),
                  (GenParams(density=0.0), 300),
                  (GenParams(epsilon=0.3), 300),
                  (GenParams(d_values=near), 20),
                  (GenParams(d_values=near, density=0.0), 20),
                  (GenParams(d_values=near, epsilon=0.3), 20),
                  (GenParams(d_values=(8192, 16384), epsilon=0.3), 10))
        out = [L for _, L in canonical_instances()]
        out += [singleton_instance(), b6_singleton_variant()]
        for seed, (p, count) in enumerate(params):
            out += [generate_instance(p, _rng_for(60 + seed, i))
                    for i in range(count)]
        return out + [sparse_instance(rng) for _ in range(300)]

    def test_matches_member_gcd(self, rng, monkeypatch):
        """g is the step of the smallest confining H, from the gcd over
        every member, and firsts the least members, from one `coset_step`
        call per instance, whether g ends at 1 or above it."""
        calls = recorded_steps(monkeypatch)
        ends = Counter()
        for L in self.instances(rng):
            calls.clear()
            g, firsts = L.confinement
            assert L.d // g == confining_order(L), L
            assert firsts == tuple(b.min() for _, b in L.layers)
            assert len(calls) == 1, L
            ends[g == 1] += 1
        assert ends[True] >= 100 and ends[False] >= 100, ends

    @settings(max_examples=300, deadline=None)
    @given(L=any_layered_sets())
    def test_matches_member_pass_drawn(self, L):
        """On random, coset, one-member and whole-group layers, with a stray
        member or not, at d = 1 and on both sides of QUOTIENT_WIDTH: g is
        gcd(d, m - min B_i) over a pass of every member of every layer."""
        firsts = tuple(min(b) for _, b in L.layers)
        g = L.d
        for (_, b), m0 in zip(L.layers, firsts):
            for m in b:
                g = gcd(g, m - m0)
        assert L.confinement == (g, firsts)

    def test_one_mask_per_instance(self, rng, monkeypatch):
        """The flatten, the placement and the structure finder make one
        `coset_step` call between them, the confinement's, on both sides
        of QUOTIENT_WIDTH, through the pigeonhole image, the packed pass
        and the quotient's packed pass."""
        calls = recorded_steps(monkeypatch)
        kinds = Counter()
        for L in self.instances(rng):
            calls.clear()
            L.flat
            L.placement
            find_structure(L)
            assert len(calls) == 1, L
            g, _ = L.confinement
            kinds[L.d >= QUOTIENT_WIDTH, L.placement[0].order < L.d,
                  2 * min(L.sizes) * g > L.d] += 1
        assert min(kinds[True, True, True], kinds[True, True, False],
                   kinds[True, False, False], kinds[False, True, True],
                   kinds[False, False, False]) > 0, kinds


LAYERED_MEMOS = ("placement", "confinement", "flat", "sizes", "size", "ratio",
                 "applicable", "profile")
RESIDUE_MEMOS = ("size", "confining_step")


def memo_instances():
    """The battery and generated instances whose checks read every memo:
    default, off-coset, and d = 8192, 16384."""
    instances = [L for _, L in canonical_instances()]
    for seed, (p, count) in enumerate((
            (GenParams(epsilon=0.2), 60),
            (GenParams(density=0.0, epsilon=0.3), 60),
            (GenParams(d_values=(8192, 16384)), 4))):
        instances += [generate_instance(p, _rng_for(90 + seed, i))
                      for i in range(count)]
    return instances


class TestMemos:
    def test_computed_at_most_once_per_instance(self, monkeypatch,
                                                empty_memo):
        """Each LayeredSet memo (8) and ResidueSet memo (2), wrapped to
        count its calls, runs at most once per object, however many checks
        read it and however often they run, and every one of them runs.
        `coset_of`'s cosets carry their size and confining step from the
        start: reading them calls neither memo."""
        calls = Counter()
        alive = []                  # no id is reused while counting
        for cls, names in ((LayeredSet, LAYERED_MEMOS),
                           (ResidueSet, RESIDUE_MEMOS)):
            assert sorted(names) == sorted(
                k for k, v in vars(cls).items() if isinstance(v, memo))
            for name in names:
                def counting(obj, real=vars(cls)[name].func,
                             key=(cls.__name__, name)):
                    calls[key, id(obj)] += 1
                    alive.append(obj)
                    return real(obj)

                wrapped = memo(counting)
                wrapped.__set_name__(cls, name)
                monkeypatch.setattr(cls, name, wrapped)
        instances = memo_instances()
        for L in instances:
            for _ in range(2):
                verify_instance(L, Tally())
        assert max(calls.values()) == 1
        assert {key for key, _ in calls} == {
            (cls.__name__, name) for cls, names in (
                (LayeredSet, LAYERED_MEMOS), (ResidueSet, RESIDUE_MEMOS))
            for name in names}
        assert {("LayeredSet", name, id(L)) for L in instances
                for name in ("sizes", "size", "flat", "applicable")} <= {
            (*key, i) for key, i in calls}
        g = CyclicGroup(8192)
        for order in (1, 64, 8192):
            coset = coset_of(Subgroup(g, order), 4099)
            assert (len(coset), coset.size, coset.confining_step,
                    containing_coset(coset, Subgroup(g, order))) == (
                order, order, 8192 // order, 4099 % (8192 // order))
            assert not {key for key, i in calls if i == id(coset)}

    def test_kept_out_of_equality_and_carried_by_pickle(self, empty_memo):
        """Warm memos leave ==, hash and repr as a fresh copy has them; a
        pickle carries every memo of the instance and of its layers, with
        the same values."""
        carried = set()
        for L in memo_instances():
            verify_instance(L, Tally())
            fresh = instance_from_doc(json.loads(instance_to_json(L)))
            assert not set(LAYERED_MEMOS) & set(vars(fresh))
            assert fresh == L and hash(fresh) == hash(L)
            assert repr(fresh) == repr(L)
            again = pickle.loads(pickle.dumps(L))
            assert again == L and hash(again) == hash(L)
            warm = [name for name in LAYERED_MEMOS if name in vars(L)]
            assert {"flat", "size", "sizes", "applicable"} <= set(warm)
            assert {name: vars(again)[name] for name in warm} == {
                name: vars(L)[name] for name in warm}
            for (_, b), (_, c) in zip(L.layers, again.layers):
                assert vars(c) == vars(b)
                carried.update(set(vars(b)) - {"group", "bits"})
        assert carried == set(RESIDUE_MEMOS)


def _unplaced(lines):
    """`check` lines without the witness's ` x=.. y=..`."""
    return [re.sub(r" x=\d+ y=\d+", "", line) for line in lines]


@st.composite
def placed_instances(draw):
    """A layered set with each B_i inside a_i*x + H for a drawn subgroup H,
    sometimes with one member moved off its coset, translated so that 0 is
    in B_1: s = 4..9 offsets with max a at most s + 3, and d up to 40 or
    on either side of QUOTIENT_WIDTH."""
    d = draw(st.integers(1, 40) | st.sampled_from(
        [QUOTIENT_WIDTH - 8, QUOTIENT_WIDTH, QUOTIENT_WIDTH + 16]))
    order = draw(st.sampled_from(CyclicGroup(d).divisors()))
    step = d // order
    x = draw(st.integers(0, d - 1))
    s = draw(st.integers(4, 9))
    top = s - 1 + draw(st.integers(0, 4))
    rest = draw(st.lists(st.integers(1, top - 1), min_size=s - 2,
                         max_size=s - 2, unique=True)) + [top]
    offsets = [0] + sorted(rest)
    assume(gcd(*offsets) == 1)
    rnd = draw(st.randoms(use_true_random=False))
    # most layers over three quarters of their coset, so that many
    # instances are applicable
    least = draw(st.sampled_from((1, -(-3 * order // 4))))
    layers = [{(a * x + j * step) % d for j in rnd.sample(
                   range(order), draw(st.integers(least, order)))}
              for a in offsets]
    if draw(st.booleans()):
        layers[draw(st.integers(0, len(layers) - 1))].add(
            draw(st.integers(0, d - 1)))
    b0 = rnd.choice(sorted(layers[0]))
    return LayeredSet.of(d, [(a, {(m - b0) % d for m in b})
                             for a, b in zip(offsets, layers)])


class TestPrimitiveReduction:
    @settings(max_examples=150, deadline=None)
    @given(L=placed_instances())
    def test_quotient_keeps_every_verdict_drawn(self, L):
        """The reduction on Hypothesis-drawn layered sets: Q =
        coset_quotient(L) is primitive in Z/|H|Z and gives the same `check`
        lines as L up to (x, y)."""
        h = L.placement[0]
        q = coset_quotient(L)
        assert q.d == h.order and q.placement[0].order == q.d
        assert _unplaced(verify_instance(L, Tally())) == _unplaced(
            verify_instance(q, Tally()))

    def test_quotient_keeps_every_verdict(self):
        """Q = coset_quotient(L) lives in Z/|H|Z and is primitive, its own
        placement's H is all of Z/|H|Z, and it gives the same `check` lines
        as L up to (x, y): the canonical battery, each to the Q expected,
        and generated instances on both sides of QUOTIENT_WIDTH."""
        battery = dict(canonical_instances())
        expected = {
            "full-coset-d12": LayeredSet.of(3, [(a, range(3))
                                                for a in range(6)]),
            "all-full-group-d12": battery["all-full-group-d12"],
            "trivial-subgroup-d7": LayeredSet.of(1, [(a, [0])
                                                     for a in range(6)])}
        for name, L in battery.items():
            assert coset_quotient(L) == expected[name]
        near = (QUOTIENT_WIDTH - 8, QUOTIENT_WIDTH + 16)
        params = ((GenParams(), 1000),
                  (GenParams(density=0.0, epsilon=0.3), 700),
                  (GenParams(density=0.3), 700),
                  (GenParams(d_values=near), 120),
                  (GenParams(d_values=(8192, 16384), epsilon=0.3), 20))
        instances = list(battery.values())
        for seed, (p, count) in enumerate(params):
            instances += [generate_instance(p, _rng_for(70 + seed, i))
                          for i in range(count)]
        kinds = Counter()
        for L in instances:
            h = L.placement[0]
            q = coset_quotient(L)
            assert q.d == h.order and q.placement[0].order == q.d, L
            assert _unplaced(verify_instance(L, Tally())) == _unplaced(
                verify_instance(q, Tally())), L
            kinds[L.d >= QUOTIENT_WIDTH, h.order == L.d,
                  h.order == 1] += 1
        assert len(instances) >= 2500
        assert min(kinds[False, False, False], kinds[False, True, False],
                   kinds[False, False, True], kinds[True, False, False],
                   kinds[True, True, False]) > 0, kinds


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

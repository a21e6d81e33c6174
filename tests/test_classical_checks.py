from itertools import product

from conftest import iset, random_residue_set
from sumset_forge.classical_checks import (CheckOutcome, _coset_witness,
                                           check_lev_bound,
                                           kneser_decomposition,
                                           lemma1_all_differences,
                                           prop1_single_coset,
                                           prop2_single_coset)
from sumset_forge.group_core import (CyclicGroup, ResidueSet, Subgroup,
                                     coset_of, coset_step, containing_coset,
                                     lattice, subgroups)
from sumset_forge.sumset_engine import IntegerSet, stabilizer, sumset


def rs(d, members):
    return ResidueSet.of(CyclicGroup(d), members)


class TestKneser:
    def test_examples(self):
        out = kneser_decomposition(rs(6, [0, 2, 4]), rs(6, [0, 2, 4]))
        assert out.applicable and out.holds and out.witness.order == 3
        out = kneser_decomposition(rs(6, [0, 1, 2]), rs(6, [0, 1]))
        assert out.applicable and out.holds and out.witness.order == 1
        full5 = coset_of(Subgroup(CyclicGroup(5), 5), 0)
        out = kneser_decomposition(full5, full5)
        assert out.applicable and out.holds and out.witness.order == 5

    def test_random_pairs_moderate_moduli(self, rng):
        for _ in range(2000):
            d = rng.randint(12, 24)
            a, b = random_residue_set(rng, d), random_residue_set(rng, d)
            out = kneser_decomposition(a, b)
            assert not out.violated

    def test_every_pair_small_moduli(self):
        """Every pair of nonempty sets for d <= 7.  Kneser's theorem holds,
        so a wrong |X+H| shows up as a violation."""
        applicable = 0
        for d in range(1, 8):
            g = CyclicGroup(d)
            sets = [ResidueSet(g, bits) for bits in range(1, 1 << d)]
            for a, b in product(sets, repeat=2):
                out = kneser_decomposition(a, b)
                s = sumset(a, b)
                assert out.applicable == (len(s) < len(a) + len(b))
                if out.applicable:
                    applicable += 1
                    assert out.holds
                    assert out.witness == stabilizer(s)
        assert applicable > 0


    def test_large_moduli_match_member_count(self, rng):
        """d = 55440 and 720720: pairs inside one coset, A across two
        cosets, intervals, and random pairs at density 0.05, against the
        outcome with the cosets counted one member at a time."""
        def member_count_oracle(a, b):
            s = sumset(a, b)
            if len(s) >= len(a) + len(b):
                return CheckOutcome("kneser", applicable=False)
            h = stabilizer(s)
            cosets = (len({x % h.step for x in a})
                      + len({x % h.step for x in b}))
            return CheckOutcome("kneser", True,
                                len(s) == h.order * (cosets - 1), witness=h)

        def part(h, x, fill):
            coset = coset_of(h, x).members()
            return rng.sample(coset, round(fill * len(coset)))

        applicable = 0
        for d, order in ((55440, 504), (55440, 110), (720720, 180)):
            g = CyclicGroup(d)
            h = Subgroup(g, order)
            x, y = rng.randrange(d), rng.randrange(d)
            pairs = [
                (part(h, x, 0.78), part(h, y, 0.72)),
                (part(h, x, 0.78) + part(h, x + 1, 0.78), part(h, y, 0.72)),
                (part(h, x, 0.3), part(h, y, 0.2)),
            ]
            # intervals: H is trivial, so every member is its own coset
            pairs.append(([(x + k) % d for k in range(500)],
                          [(y + k) % d for k in range(300)]))
            pairs.append((rng.sample(range(d), d // 20),
                          rng.sample(range(d), d // 20)))
            for ma, mb in pairs:
                a, b = ResidueSet.of(g, ma), ResidueSet.of(g, mb)
                out = kneser_decomposition(a, b)
                assert out == member_count_oracle(a, b), (d, order)
                assert out.holds is not False
                applicable += out.applicable
        assert applicable == 9


class TestProp1Prop2:
    def test_prop1_examples(self):
        out = prop1_single_coset(rs(12, [0, 4, 8]), rs(12, [1, 5, 9]))
        assert out.applicable and out.holds
        h, rep = out.witness
        assert h.order == 3 and rep == 1
        out = prop1_single_coset(rs(12, [0, 4, 8]), rs(12, [0, 4, 8]))
        assert out.applicable and out.holds and out.witness[1] == 0
        out = prop1_single_coset(rs(12, [0, 1, 2, 3]), rs(12, [0, 1, 2]))
        assert not out.applicable
        assert len(sumset(rs(12, [0, 1, 2, 3]), rs(12, [0, 1, 2]))) == 6

    def test_prop2_examples(self):
        out = prop2_single_coset(rs(12, [0, 2, 4, 6, 8, 10]), rs(12, [0, 2, 4, 6]))
        assert out.applicable and out.holds
        h, rep = out.witness
        assert h.order == 6 and rep == 0
        full6 = coset_of(Subgroup(CyclicGroup(6), 6), 0)
        assert not prop2_single_coset(full6, rs(6, [0, 3])).applicable
        assert not prop2_single_coset(rs(12, [0, 3, 6, 9]), rs(12, [0, 3])).applicable

    def test_witnesses_reverify(self, rng):
        for _ in range(3000):
            d = rng.randint(2, 24)
            a, b = random_residue_set(rng, d), random_residue_set(rng, d)
            if len(a) < len(b):
                a, b = b, a
            for out, cap_ref in ((prop1_single_coset(a, b), len(a)),):
                if out.applicable and out.holds:
                    h, rep = out.witness
                    assert 2 * h.order < 3 * cap_ref
                    s = sumset(a, b)
                    assert all((m - rep) % h.step == 0 for m in s)
            out = prop2_single_coset(a, b)
            if out.applicable and out.holds:
                h, rep = out.witness
                assert h.order < 2 * len(b)
                s = sumset(a, b)
                assert all((m - rep) % h.step == 0 for m in s)

    def test_coset_witness_matches_subgroup_scan(self):
        """Every pair of nonempty sets for d <= 7, under the prop1 bound
        (|H| < 3|A|/2) and the prop2 bound (|H| < 2|B|), against the
        ascending scan over subgroups."""
        def scan(a, b, num, den, ref):
            s = sumset(a, b)
            for h in subgroups(a.group):
                if den * h.order < num * ref:
                    rep = containing_coset(s, h)
                    if rep is not None:
                        return (h, rep)
            return None

        for d in range(1, 8):
            g = CyclicGroup(d)
            sets = [ResidueSet(g, bits) for bits in range(1, 1 << d)]
            for a, b in product(sets, repeat=2):
                for bound in ((3, 2, len(a)), (2, 1, len(b))):
                    assert (_coset_witness(sumset(a, b), *bound)
                            == scan(a, b, *bound))


class TestLemma1:
    def test_examples(self):
        out = lemma1_all_differences(IntegerSet.of(6, [0, 1, 2, 3, 4]))
        assert out.applicable and out.holds
        out = lemma1_all_differences(IntegerSet.of(9, [0, 1, 2, 3, 6, 7, 8]))
        assert out.applicable and out.holds
        assert not lemma1_all_differences(IntegerSet.of(9, [0, 1, 2, 3])).applicable


class TestLevBound:
    def test_examples(self):
        u = iset([0, 1, 2])
        assert check_lev_bound(u, u).holds
        out = check_lev_bound(iset([0, 1, 3]), IntegerSet.of(4, [0, 3]))
        assert out.applicable and out.holds
        out = check_lev_bound(iset([0, 2, 3]), IntegerSet.of(4, [0, 3]))
        assert out.applicable and out.holds

    def test_precondition_violations_not_applicable(self):
        assert not check_lev_bound(iset([1, 2]), iset([1])).applicable
        assert not check_lev_bound(iset([0, 2, 4]), iset([0, 2])).applicable
        assert not check_lev_bound(iset([0, 1]), IntegerSet.of(4, [0, 3])).applicable


def test_memo_warm_and_fresh_operands_give_the_same_outcomes(rng):
    """d = 55440, 524288 and 720720, on coset pairs whose sum is a whole
    coset (balanced and unbalanced fills), a pair with one stray member and a
    sparse random pair: every check gives the same outcome on operands
    whose size and confining step are already memoised as on fresh copies
    with an empty lattice cache, and a sum's memoised facts are the ones
    counted from its bits."""
    def outcomes(a, b):
        s = sumset(a, b)
        facts = (len(s), s.confining_step)
        assert facts == (s.bits.bit_count(), coset_step(s.bits, s.min(),
                                                        s.modulus))
        return [s, facts, stabilizer(s), kneser_decomposition(a, b),
                prop1_single_coset(a, b), prop2_single_coset(a, b)]

    def part(h, x, fill):
        coset = coset_of(h, x).members()
        return rng.sample(coset, round(fill * len(coset)))

    applicable = set()
    for d, order in ((55440, 504), (524288, 512), (720720, 180)):
        g = CyclicGroup(d)
        h = Subgroup(g, order)
        x, y = rng.randrange(d), rng.randrange(d)
        pairs = [(part(h, x, 0.78), part(h, y, 0.72)),
                 (part(h, x, 0.78), part(h, y, 0.53)),
                 (part(h, x, 0.78) + [rng.randrange(d)], part(h, y, 0.72)),
                 (rng.sample(range(d), 300), rng.sample(range(d), 200))]
        for ma, mb in pairs:
            a, b = ResidueSet.of(g, ma), ResidueSet.of(g, mb)
            a, b = (a, b) if len(a) >= len(b) else (b, a)
            outcomes(a, b)
            # every pair wraps past d, and a wrapping sum's whole-coset
            # test is the gcd of the operands' confining steps, so the
            # random and stray pairs read them too
            assert "confining_step" in a.__dict__
            warm = outcomes(a, b)
            lattice.cache_clear()
            fresh = outcomes(ResidueSet(g, a.bits), ResidueSet(g, b.bits))
            assert warm == fresh, (d, order)
            applicable.update(o.name for o in warm[3:] if o.applicable)
    assert applicable == {"kneser", "prop1_single_coset",
                          "prop2_single_coset"}

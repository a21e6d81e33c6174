import pytest

from conftest import all_offset_sets, iset
from sumset_forge.hall_bounds import (BoundViolation, HallViolator,
                                      IntervalProfile, SdrCertificate,
                                      abc_parameters, find_sdr,
                                      is_unsaturated, lemma2_certificate,
                                      lemma2_copies, prop5_bound, r_parameter,
                                      translated_family)
from sumset_forge.layered import _prop6_copies
from sumset_forge.sumset_engine import IntegerSet, sumset_int


class TestFindSdr:
    def test_basic_sdr(self):
        fam = [iset([1, 2]), iset([1]), iset([2, 3])]
        out = find_sdr(fam)
        assert isinstance(out, SdrCertificate)
        assert out.representatives == (2, 1, 3)

    def test_violator(self):
        out = find_sdr([iset([1]), iset([1])])
        assert isinstance(out, HallViolator)
        assert out.indices == (0, 1) and out.union_size == 1

    def test_violator_certifies_hall_failure(self, rng):
        for _ in range(500):
            n = rng.randint(1, 12)
            fam = [IntegerSet.of(20, rng.sample(range(20), rng.randint(1, 4)))
                   for _ in range(n)]
            out = find_sdr(fam)
            if isinstance(out, HallViolator):
                union = set()
                for i in out.indices:
                    union |= set(fam[i])
                assert len(union) < len(out.indices)
            else:
                # matches a brute-force maximum matching of full size
                assert len(set(out.representatives)) == n

    def test_certificate_rejects_bad_representatives(self):
        fam = (iset([1, 2]), iset([2, 3]))
        assert SdrCertificate(fam, (1, 2)).representatives == (1, 2)
        for reps in ((3, 2), (-1, 2), (1, 0)):
            with pytest.raises(ValueError, match="not in family set"):
                SdrCertificate(fam, reps)
        with pytest.raises(ValueError, match="representative 2 repeated"):
            SdrCertificate(fam, (2, 2))

    def test_matches_bruteforce_matching_size(self, rng):
        from itertools import permutations
        for _ in range(200):
            n = rng.randint(1, 5)
            fam = [IntegerSet.of(8, rng.sample(range(8), rng.randint(1, 3)))
                   for _ in range(n)]
            out = find_sdr(fam)
            sdr_exists = any(
                len({p for p in pick}) == n
                for pick in _cartesian(fam))
            assert isinstance(out, SdrCertificate) == sdr_exists


def _augment_from(family, roots, owner, assigned):
    """Recursive augmenting-path searches from each root in turn, over the
    matching in `owner` and `assigned`: members ascending, a set of seen
    elements, one Python frame per step.  The violator on the first failure,
    else None."""

    def augment(i, seen):
        for e in family[i]:
            if e in seen:
                continue
            seen.add(e)
            if e not in owner or augment(owner[e], seen):
                owner[e] = i
                assigned[i] = e
                return True
        return False

    for i in roots:
        seen = set()
        if not augment(i, seen):
            indices = tuple(sorted({i} | {owner[e] for e in seen}))
            return HallViolator(indices, len(seen))
    return None


def find_sdr_recursive(family):
    """The plain recursive matcher: one search per family index from an
    empty matching."""
    owner, assigned = {}, {}
    violator = _augment_from(family, range(len(family)), owner, assigned)
    return violator or SdrCertificate(
        tuple(family), tuple(assigned[i] for i in range(len(family))))


def find_sdr_seeded_recursive(family):
    """The recursive matcher `find_sdr` replaces, with its greedy seed: each
    index in turn takes its lowest member not yet taken, and the searches
    run only from the indices the seed left unmatched."""
    owner, assigned = {}, {}
    for i, g in enumerate(family):
        e = next((e for e in g if e not in owner), None)
        if e is not None:
            owner[e] = i
            assigned[i] = e
    roots = [i for i in range(len(family)) if i not in assigned]
    violator = _augment_from(family, roots, owner, assigned)
    return violator or SdrCertificate(
        tuple(family), tuple(assigned[i] for i in range(len(family))))


def assert_matches_oracles(family):
    """`find_sdr` equals the seeded oracle exactly, and agrees with the plain
    matcher on whether an SDR exists; a violator must break Hall's
    condition."""
    out = find_sdr(family)
    assert out == find_sdr_seeded_recursive(family)
    plain = find_sdr_recursive(family)
    assert type(out) is type(plain)
    if isinstance(out, HallViolator):
        union = set()
        for i in out.indices:
            union |= set(family[i])
        assert len(union) == out.union_size < len(out.indices)
    return out


class TestFindSdrMatchesRecursiveOracle:
    def test_translated_families_exhaustive(self):
        """Lemma 2, prop6 and over-full copy counts on every offset set with
        s in {6, 7} and max <= 12; the over-full family has s*s members and
        at most 2*max + 1 ground elements, so it has a violator."""
        violators = 0
        for s in (6, 7):
            for aset in all_offset_sets(s, 12):
                r = r_parameter(aset)
                for copies in (lemma2_copies(s, r), _prop6_copies(aset, r),
                               [s] * s):
                    family = translated_family(aset, copies)
                    out = assert_matches_oracles(family)
                    violators += isinstance(out, HallViolator)
        assert violators > 0

    def test_random_small_families(self, rng):
        kinds = set()
        for _ in range(500):
            n = rng.randint(0, 10)
            fam = [IntegerSet.of(16, rng.sample(range(16), rng.randint(1, 5)))
                   for _ in range(n)]
            kinds.add(type(assert_matches_oracles(fam)))
        assert kinds == {SdrCertificate, HallViolator}

    def test_deep_search_needs_no_recursion(self):
        """A chain G_i = {i, i+1} for i < n-1, then G_{n-1} = {0}: the seed
        gives index i element i, leaves n-1 unmatched, and its one search
        walks all n indices, far past the default recursion limit."""
        n = 1000
        fam = [iset([i, i + 1]) for i in range(n - 1)] + [iset([0])]
        out = find_sdr(fam)
        assert isinstance(out, SdrCertificate)
        assert out.representatives == tuple(range(1, n)) + (0,)

    def test_lemma2_at_s_1000(self):
        aset = iset(range(1000))
        cert = lemma2_certificate(aset)
        assert len(cert) == 2 * 1000 + r_parameter(aset) - 3


def _cartesian(fam):
    from itertools import product
    return product(*[list(s) for s in fam])


class TestRParameter:
    def test_examples(self):
        assert r_parameter(iset([0, 1, 2, 3, 4, 5])) == 2
        assert r_parameter(iset([0, 1, 2, 3, 4, 7])) == 4
        assert r_parameter(iset([0, 1, 2, 3, 4, 9])) == 6    # min saturates at s
        assert r_parameter(iset([0, 1, 2, 3, 4, 12])) == 6

    def test_requires_zero(self):
        with pytest.raises(ValueError):
            r_parameter(iset([1, 2]))

    def test_range(self):
        for aset in all_offset_sets(6, 12):
            assert 2 <= r_parameter(aset) <= 6


class TestLemma2:
    def test_examples(self):
        cert = lemma2_certificate(iset([0, 1, 2, 3, 4, 5]))
        assert len(cert) == 11
        assert len(sumset_int(iset(range(6)), iset(range(6)))) == 11
        cert = lemma2_certificate(iset([0, 1, 2, 3, 4, 7]))
        assert len(cert) == 13
        cert = lemma2_certificate(iset([0, 1]))
        assert len(cert) == 3

    def test_representatives_land_in_projection_sumset(self):
        aset = iset([0, 2, 3, 7])
        cert = lemma2_certificate(aset)
        total = sumset_int(aset, aset)
        assert all(r in total for r in cert.representatives)


def abc_parameters_by_interval_scan(aset):
    """Oracle: (a, b, c) by their definitions, each candidate window
    rescanned member by member, the largest candidate first."""
    s, r, top = len(aset), r_parameter(aset), aset.max()

    def missing(lo, hi):
        return sum(1 for m in range(lo, hi + 1) if m not in aset)

    a = next((n for n in range((top + 1) // 2, 0, -1)
              if missing(0, 2 * n - 1) >= n), 0)
    b = next((n for n in range((top + 1) // 2, 0, -1)
              if top - 2 * n + 1 >= 2 * a
              and missing(top - 2 * n + 1, top) >= n), 0)
    c = missing(2 * a, top - 2 * b)
    return IntervalProfile(s=s, max_a=top, r=r, a=a, b=b, c=c)


class TestAbcParameters:
    def test_matches_interval_scan_on_every_unsaturated_set(self):
        """Every offset set with max a_i <= 2s - 3, the whole unsaturated
        branch, for s = 4..10."""
        count = 0
        for s in range(4, 11):
            for aset in all_offset_sets(s, 2 * s - 3):
                assert is_unsaturated(aset)
                want = abc_parameters_by_interval_scan(aset)
                assert abc_parameters(aset) == want, aset
                assert want.a + want.b + want.c == want.r - 2
                count += 1
        assert count == 33094

    def test_examples(self):
        p = abc_parameters(iset([0, 1, 2, 3, 4, 7]))
        assert (p.a, p.b, p.c) == (0, 2, 0)
        p = abc_parameters(iset([0, 2, 3, 4, 5, 7]))
        assert (p.a, p.b, p.c) == (1, 1, 0)
        p = abc_parameters(iset([0, 1, 2, 3, 4, 5]))
        assert (p.a, p.b, p.c) == (0, 0, 0) and p.r == 2

    def test_saturated_branch_rejected(self):
        with pytest.raises(ValueError, match="saturated"):
            abc_parameters(iset([0, 1, 2, 3, 4, 12]))


class TestProp5:
    def test_examples(self):
        assert prop5_bound(iset([0, 1, 2, 3, 4, 7])).bound == 13
        assert prop5_bound(iset([0, 2, 3, 4, 5, 7])).bound == 13
        assert prop5_bound(iset([0, 1, 2, 3, 4, 5])).bound == 11


class TestExhaustiveProjectionSpace:
    """Every offset set with s in {6, 7}, 0 in A', gcd 1, max <= 12."""

    def test_certificate_refined_bound_and_profile(self):
        for s in (6, 7):
            for aset in all_offset_sets(s, 12):
                cert = lemma2_certificate(aset)
                r = r_parameter(aset)
                assert len(cert) == 2 * s + r - 3
                if aset.max() == s + r - 3:
                    p = prop5_bound(aset)
                    assert p == abc_parameters(aset)
                    assert p.bound <= len(sumset_int(aset, aset))
                    assert p.a + p.b + p.c == r - 2

    def test_missing_count_criterion(self):
        # fewer than (n+1)/2 elements of [0, n] missing forces n into A'+A'
        for s in (6, 7):
            for aset in all_offset_sets(s, 12):
                r = r_parameter(aset)
                total = sumset_int(aset, aset)
                for n in range(s + r - 2):
                    missing = sum(1 for m in range(n + 1) if m not in aset)
                    if 2 * missing < n + 1:
                        assert n in total

    def test_sk_cardinality_bound(self):
        # pairs at difference k number at least s - R - k + 1
        for s in (6, 7):
            for aset in all_offset_sets(s, 12):
                r = r_parameter(aset)
                members = aset.members()
                for k in range(1, r - 1):
                    sk = sum(1 for x in members for y in members if y - x == k)
                    assert sk >= s - r - k + 1

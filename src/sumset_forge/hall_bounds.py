"""Hall-marriage machinery and projection-side lower bounds.

The R parameter, the SDR certificate behind the 2s+R-3 bound on |A'+A'|, and
the (a, b, c)-refined bound 2s+R-3+c.  The matching is bipartite matching in a
deterministic order (family index ascending, ground element ascending) so
certificates are reproducible.  One greedy pass first gives each index the
lowest member not yet taken; augmenting-path searches then run only from the
indices it left unmatched.  Each search is iterative, on an explicit path
stack, and takes its next candidate as the lowest member not yet seen,
straight from the bitmaps.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Sequence, Union

from .sumset_engine import IntegerSet, members_of, sumset_int


class BoundViolation(AssertionError):
    """A certified lower bound failed; this is a reportable counterexample."""


@dataclass(frozen=True)
class SdrCertificate:
    """One distinct representative per family member; representative i belongs
    to family set i."""

    family: tuple[IntegerSet, ...]
    representatives: tuple[int, ...]

    def __post_init__(self):
        seen = 0
        for i, (s, r) in enumerate(zip(self.family, self.representatives)):
            if r < 0 or not s.bits >> r & 1:
                raise ValueError(f"representative {r} not in family set {i}")
            if seen >> r & 1:
                raise ValueError(f"representative {r} repeated")
            seen |= 1 << r

    def __len__(self) -> int:
        return len(self.representatives)


@dataclass(frozen=True)
class HallViolator:
    """An index subset I with |union of G_i over I| < |I|."""

    indices: tuple[int, ...]
    union_size: int


@dataclass(frozen=True)
class IntervalProfile:
    s: int
    max_a: int
    r: int
    a: int
    b: int
    c: int

    @property
    def bound(self) -> int:
        """The refined lower bound 2s+R-3+c on |A'+A'|."""
        return 2 * self.s + self.r - 3 + self.c


def find_sdr(family: Sequence[IntegerSet]
             ) -> Union[SdrCertificate, HallViolator]:
    """A system of distinct representatives for the family, or a Hall violator.

    First a greedy seed, on the bare bitmaps: each index in turn takes the
    lowest member of family[i] not yet taken, if any.  Most families are
    matched there.  Otherwise the owner of each taken element is read back
    from the seed, and one augmenting-path search runs per index the seed
    left unmatched, in index order.  A search from index i
    tries the members of family[i] ascending, skipping elements this search
    has already seen, and follows the owner of each matched one.  Every
    member below the cursor is already seen, so the next candidate is the
    lowest set bit of family[i] & unseen.  The path is an explicit stack, so
    the depth is not bounded by the recursion limit.

    The seed is only the matching the searches start from, and the violator
    argument holds for any matching.  When a search from i fails, every
    element it saw is matched, to an index it reached and exhausted.  So the
    seen elements hold every member of i and of their owners, and i with
    those owners is one index more than there are seen elements.
    """
    bits = [g.bits for g in family]
    assigned = []                        # family index -> ground element
    taken = 0
    for b in bits:
        free = b & ~taken
        low = free & -free
        taken |= low
        assigned.append(low.bit_length() - 1)   # -1 when nothing is free
    if -1 not in assigned:
        return SdrCertificate(tuple(family), tuple(assigned))
    width = max(b.bit_length() for b in bits)
    everything = (1 << width) - 1
    owner = [-1] * width                 # ground element -> family index
    for i, e in enumerate(assigned):
        if e >= 0:
            owner[e] = i
    for root in range(len(family)):
        if assigned[root] >= 0:
            continue
        unseen = everything
        path = [root]                    # family indices on the search path
        picks: list[int] = []            # picks[k] leads from path[k] onward
        while path:
            free = bits[path[-1]] & unseen
            if not free:
                path.pop()
                if picks:
                    picks.pop()
                continue
            low = free & -free
            unseen ^= low
            e = low.bit_length() - 1
            picks.append(e)
            if owner[e] < 0:
                for i, p in zip(path, picks):
                    owner[p] = i
                    assigned[i] = p
                break
            path.append(owner[e])
        else:
            seen = everything ^ unseen
            union_size = seen.bit_count()
            indices = {root}
            while seen:
                low = seen & -seen
                indices.add(owner[low.bit_length() - 1])
                seen ^= low
            return HallViolator(tuple(sorted(indices)), union_size)
    return SdrCertificate(tuple(family), tuple(assigned))


def _require_normalized(aset: IntegerSet) -> None:
    if 0 not in aset:
        raise ValueError("0 must be a member")
    g = gcd(*aset)
    if len(aset) >= 2 and g != 1:
        raise ValueError(f"gcd of nonzero elements is {g}, expected 1")


def r_parameter(aset: IntegerSet) -> int:
    """R = min(max a_i - s + 3, s); always 2 <= R <= s for s >= 2."""
    if 0 not in aset:
        raise ValueError("0 must be a member")
    s = len(aset)
    if s < 2:
        raise ValueError("need at least two elements")
    return min(aset.max() - s + 3, s)


def is_unsaturated(aset: IntegerSet) -> bool:
    """max a_i = s + R - 3: the branch on which the (a, b, c) profile and the
    R = 2, 3 prop6 counts are defined.  The test needs no R, since it is
    exactly max a_i <= 2s - 3: if max a_i - s + 3 <= s then R = max a_i - s + 3
    and s + R - 3 = max a_i; otherwise R = s and s + R - 3 = 2s - 3 < max a_i."""
    return aset.max() <= 2 * len(aset) - 3


def lemma2_copies(s: int, r: int) -> list[int]:
    """Copies of each a_i + A' in the family whose SDR certifies
    |A'+A'| >= 2s+R-3: s-1 of a_1+A', two of a_i+A' for 2 <= i <= R, one
    for i > R."""
    return [s - 1] + [2] * (r - 1) + [1] * (s - r)


def translated_family(aset: IntegerSet, copies: Sequence[int]
                      ) -> list[IntegerSet]:
    """copies[i] copies of a_i + A' for each member a_i, in member order."""
    bits = aset.bits
    bound = 2 * bits.bit_length() - 1
    family: list[IntegerSet] = []
    for a, n in zip(aset, copies):
        family += [IntegerSet(bound, bits << a)] * n
    return family


def lemma2_certificate(aset: IntegerSet) -> SdrCertificate:
    """SDR certificate of size 2s+R-3 inside A'+A'; its existence is the
    content of the bound and must never fail under the preconditions."""
    _require_normalized(aset)
    s = len(aset)
    r = r_parameter(aset)
    out = find_sdr(translated_family(aset, lemma2_copies(s, r)))
    if isinstance(out, HallViolator):
        raise BoundViolation(
            f"SDR absent for A'={aset.members()}: violator {out.indices}")
    assert len(out) == 2 * s + r - 3
    return out


def abc_parameters(aset: IntegerSet) -> IntervalProfile:
    """The (a, b, c) missing-element profile refining the 2s+R-3 bound.

    a: largest integer with >= a elements of [0, 2a-1] missing from A' (0 if
    none); b: same for [s+R-2b-2, s+R-3]; c: number missing from the middle
    interval [2a, s+R-2b-3].  Requires max a_i = s+R-3.

    All three are read off the gaps g_1 < ... < g_{R-2}, the members of
    [0, top] missing from A', top = s+R-3.  [0, 2n-1] misses at least n
    members iff g_n < 2n, so a is the largest n with g_n < 2n <= top + 1.
    Counting from the top, with g'_n the n-th largest gap, the window
    [top-2n+1, top] misses at least n members iff top - g'_n < 2n; it must
    start at or above 2a, so b is the largest n with top - g'_n < 2n <=
    top + 1 - 2a.  The three intervals partition [0, top], which is what
    makes a+b+c = R-2 come out exact.
    """
    _require_normalized(aset)
    s = len(aset)
    r = r_parameter(aset)
    top = aset.max()
    if not is_unsaturated(aset):
        raise ValueError(f"max a_i = {top} != s+R-3 = {s + r - 3}; "
                         "(a,b,c) is undefined on the saturated branch")
    gaps = list(members_of(aset.bits ^ (2 << top) - 1))
    a = max((n for n, g in enumerate(gaps, 1) if g < 2 * n <= top + 1),
            default=0)
    b = max((n for n, g in enumerate(reversed(gaps), 1)
             if top - g < 2 * n <= top + 1 - 2 * a), default=0)
    c = sum(1 for g in gaps if 2 * a <= g <= top - 2 * b)
    return IntervalProfile(s=s, max_a=top, r=r, a=a, b=b, c=c)


def prop5_bound(aset: IntegerSet) -> IntervalProfile:
    """The (a, b, c) profile whose refined bound 2s+R-3+c holds for |A'+A'|;
    raises BoundViolation if |A'+A'| falls below it (must never happen under
    the preconditions)."""
    profile = abc_parameters(aset)
    actual = len(sumset_int(aset, aset))
    if actual < profile.bound:
        raise BoundViolation(
            f"|A'+A'| = {actual} < {profile.bound} for A'={aset.members()}")
    return profile

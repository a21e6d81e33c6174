"""Set addition kernels, stabilizers, and integer-set analogues.

A sumset is one shift-OR over membership bitmaps: A shifted by each member of
the smaller operand, ORed together, which is A + B in Z.  In Z/dZ that result
is folded mod d once, and the shifts stop as soon as the ones done so far fold
to all of Z/dZ (a saturated sum), which random sets of density 0.05 in
Z/65536Z reach after about a tenth of their shifts.  The members are read
with `Bitmap.__iter__`, linear in the width.

Operands inside cosets of one subgroup, of step g = gcd(d, A - min A,
B - min B) > 1, are added in the quotient: A + B = min A + min B + g(A' + B')
with A' = (A - min A)/g and B' = (B - min B)/g in Z/(d/g)Z, so the shifts
are d/g bits wide.  The result is the same bitmap.  g is found by mask
tests against the lattice of its multiples (`coset_step`) and A' and B' are
read out by byte-strided slices (`gather`), neither a member pass.  A cost
rule on |A|, |B|, d and d/g decides when this is worth it, and a g > 1 is
ruled out from the spans and a few members at each end first.  The naive
double loops are kept as oracles for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd
from typing import Iterable, Optional

from .group_core import (Bitmap, CyclicGroup, ResidueSet, Subgroup, fold,
                         gather, lattice, subgroups)

# The cost rule for adding operands inside cosets of a subgroup of step g in
# Z/qZ, q = d/g (`_quotient_pays`).  The plain path shifts d bits per member
# of the smaller operand; the quotient shifts q bits, and adds work that is
# priced in d-bit shifts (QUOTIENT_PASSES) and in bits shifted per member
# (MEMBER_BITS): finding g and reading out the operands (`coset_step`,
# `gather`) and building the result are O(d) passes over big ints, byte
# strings or a bytearray, and each member of the result (at most q of them)
# costs a few Python operations.
# Measured on 648 coset-confined sums, 2 vCPU Xeon, CPython 3.11.7: the 16
# pairs of two `coset_pairs_large_d` rounds, and 632 flatten sums of three
# campaigns at d = 1024..16384.  In the quotient the pairs at d >= 55440 ran
# 1.8-11x faster and those at d = 2520 and 4096 2x slower; all but one
# flatten sum ran slower (median 6x), as a result that is not a whole coset
# costs a Python step per member.  The rule compares MEMBER_BITS with
# (min(|A|, |B|)(d - q) - QUOTIENT_PASSES d) / (|A| + |B| + q), which is
# 9553 and up on the faster pairs and 6892 and down on every other sum.
# Scoring min(|A|, |B|) d against |A| + |B| alone cannot separate them:
# flatten sums that ran 2x slower score above the pairs at d = 55440.
# That measurement read the operands member by member, an O(d) binary
# string plus a Python step per member of A and B, which `gather` does not
# pay, so the rule now overprices the quotient.  The constants are kept as
# measured, so that the same sums take the quotient; re-pricing them is open.
QUOTIENT_PASSES = 64
MEMBER_BITS = 8192
# bits read at each end of an operand to reject g > 1 before the mask tests
PROBE_BITS = 64


@dataclass(frozen=True)
class IntegerSet(Bitmap):
    """A finite subset of [0, bound-1] of integers, stored as a bitmap."""

    bound: int
    bits: int

    def __post_init__(self):
        if self.bound < 1:
            raise ValueError(f"ambient bound must be >= 1, got {self.bound}")
        if self.bits < 0 or self.bits >> self.bound:
            raise ValueError("bitmap has bits outside [0, bound)")

    @classmethod
    def of(cls, bound: int, members: Iterable[int]) -> "IntegerSet":
        return cls(bound, cls.bits_of(members, bound))

    @classmethod
    def from_members(cls, members: Iterable[int]) -> "IntegerSet":
        """Tightest ambient bound: max(members) + 1."""
        ms = list(members)
        if not ms:
            raise ValueError("need at least one member to infer a bound")
        return cls.of(max(ms) + 1, ms)

    def max(self) -> int:
        if not self.bits:
            raise ValueError("empty set has no maximum")
        return self.bits.bit_length() - 1

    def issubset(self, other: "IntegerSet") -> bool:
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        return f"IntegerSet(bound={self.bound}, {{{', '.join(map(str, self))}}})"


def _shift_or(a: Bitmap, b: Bitmap, d: int = 0) -> int:
    """Bitmap of A + B in Z: A shifted by each member of the smaller operand,
    ORed together.

    Given d > 0, the caller folds the result mod d, and the shifts stop once
    the ones done so far fold to all of Z/dZ: the rest cannot add anything.
    The members are taken in batches with that check between them.  Folding
    to all of Z/dZ takes at least d bits, and k shifts of A set at most k|A|,
    so the first batch has ceil(d/|A|) members; each later batch is twice the
    one before, so the checks number at most log2 of the shifts.  When
    max A + max B < d - 1 the sum neither wraps nor reaches d - 1, so it is
    never full and takes one unchecked pass, as it does for d = 0."""
    abits, bbits = a.bits, b.bits
    na, nb = abits.bit_count(), bbits.bit_count()
    if na < nb:
        a, b, abits, bbits, na, nb = b, a, bbits, abits, nb, na
    members, out = iter(b), 0
    n = left = nb
    if d and abits.bit_length() + bbits.bit_length() > d:
        n = -(-d // na)
    while True:
        # islice costs a call per member, so the last batch runs bare
        for k in members if n >= left else islice(members, n):
            out |= abits << k
        left -= n
        if left <= 0 or out.bit_count() >= d and fold(out, d).bit_count() == d:
            return out
        n *= 2


def _probe(bits: int, m0: int, g: int) -> int:
    """gcd of g with m - m0 for the members m of `bits` (least member m0)
    in the PROBE_BITS bits above m0 and the PROBE_BITS bits below its top.
    Each window is cut out at the cost of its own width, not the bitmap's."""
    top = bits.bit_length() - 1
    high = max(m0, top - PROBE_BITS)
    for base, window in ((m0, (bits & (1 << m0 + PROBE_BITS) - 1) >> m0),
                         (high, bits >> high)):
        base -= m0
        while window and g > 1:
            low = window & -window
            g = gcd(g, base + low.bit_length() - 1)
            window ^= low
    return g


def _quotient_pays(na: int, nb: int, d: int, q: int) -> bool:
    """Whether |A| = na and |B| = nb add faster in Z/qZ than in Z/dZ: the
    d - q bits saved per shift against the priced work of the quotient.
    It never holds at q = d (g = 1), where nothing is saved."""
    return (min(na, nb) * (d - q) - QUOTIENT_PASSES * d
            > MEMBER_BITS * (na + nb + q))


def _quotient_sumset(a: ResidueSet, b: ResidueSet) -> Optional[ResidueSet]:
    """A + B through Z/(d/g)Z when g = gcd(d, A - a0, B - b0) > 1, with
    a0 = min A and b0 = min B; None when g = 1 or the cost rule says no.

    A lies in a0 + gZ/dZ and B in b0 + gZ/dZ, so with A' = (A - a0)/g and
    B' = (B - b0)/g, both in Z/(d/g)Z, A + B = a0 + b0 + g(A' + B') mod d:
    a + b - a0 - b0 = g(a' + b'), and g(a' + b') mod d = g((a' + b') mod
    d/g).  The sum is exact, its shifts are d/g bits wide, not d, and it
    stops once A' + B' is all of Z/(d/g)Z, which maps back to the coset of
    a0 + b0: the multiples of g shifted by (a0 + b0) mod g.

    The cost rule only tightens as q = d/g grows, so q = 1 decides first,
    for free, whether any g could pay; as |A| + |B| >= 2 min(|A|, |B|), it
    can only pay when d > 2 MEMBER_BITS + 1, which the width alone tells,
    before the members are counted.  Rejection costs no member pass: g
    starts as the gcd of d with both spans (max - min), then the members
    near each end of each operand are probed, and the rule is asked again
    at that g.  Only a g > 1 that survives is made exact, from each
    operand's confining step (`ResidueSet.confining_step`, found by mask
    tests once per operand), and the rule is asked once more, as that may
    have made g smaller.  A' and B' are bits 0, g, 2g, ... of each operand
    shifted down by its minimum (`gather`).  A quotient sum that is not a
    whole coset maps back member by member.  The sum's size, and for a
    whole coset its confining step g, are known here and go into its
    memo."""
    d = a.modulus
    if d <= 2 * MEMBER_BITS + 1:
        return None
    na, nb = len(a), len(b)
    if not _quotient_pays(na, nb, d, 1):
        return None
    a0, b0 = a.min(), b.min()
    g = gcd(d, a.bits.bit_length() - 1 - a0, b.bits.bit_length() - 1 - b0)
    g = _probe(b.bits, b0, _probe(a.bits, a0, g))
    if not _quotient_pays(na, nb, d, d // g):
        return None
    g = gcd(g, a.confining_step, b.confining_step)
    if not _quotient_pays(na, nb, d, d // g):
        return None
    q = CyclicGroup(d // g)
    qa, qb = (ResidueSet(q, gather(s.bits >> m0, g, q.modulus))
              for s, m0 in ((a, a0), (b, b0)))
    total = ResidueSet(q, fold(_shift_or(qa, qb, q.modulus), q.modulus))
    r = a0 + b0
    n = len(total)
    if n == q.modulus:
        return ResidueSet.known(a.group, lattice(d, g) << r % g, n, g)
    return ResidueSet.known(
        a.group, Bitmap.bits_of([(r + g * k) % d for k in total], d), n)


def sumset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """A + B in Z/dZ: the sumset in Z, folded mod d once (every shifted copy
    lies below 2^(2d-1)); it stops shifting once the sum is all of Z/dZ.
    Operands inside cosets of one subgroup of step g > 1 are added in
    Z/(d/g)Z instead and mapped back, the same bitmap, when the cost rule
    (`_quotient_pays`) says the d-bit shifts cost more than the quotient's
    extra work (`_quotient_sumset`)."""
    a._require_same_group(b)
    quotient = _quotient_sumset(a, b)
    if quotient is not None:
        return quotient
    d = a.modulus
    return ResidueSet(a.group, fold(_shift_or(a, b, d), d))


def sumset_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Double-loop oracle; bit-identical to sumset by construction of tests."""
    a._require_same_group(b)
    d = a.modulus
    return ResidueSet.of(a.group, {(x + y) % d for x in a for y in b})


def sumset_int(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """A + B in Z, ambient bound = sum of bounds."""
    return IntegerSet(a.bound + b.bound, _shift_or(a, b))


def sumset_int_naive(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    return IntegerSet.of(a.bound + b.bound, {x + y for x in a for y in b})


def stabilizer(a: ResidueSet) -> Subgroup:
    """The largest subgroup H with H + A = A.

    Tries each divisor subgroup descending by order; H fixes A iff the bitmap
    is invariant under rotation by its generator d/|H|.  A fixed A is a union
    of cosets of H, so only orders dividing |A| need the rotation.
    """
    if not a:
        raise ValueError("stabilizer of the empty set is undefined")
    n = len(a)
    for h in reversed(subgroups(a.group)):
        if n % h.order == 0 and a.shift(h.step).bits == a.bits:
            return h
    raise AssertionError("unreachable: the trivial subgroup always fixes A")


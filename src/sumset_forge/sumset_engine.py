"""Set addition kernels, stabilizers, and integer-set analogues.

A sumset is one shift-OR over membership bitmaps: A shifted by each member of
the smaller operand, ORed together, which is A + B in Z.  In Z/dZ that result
is folded mod d once, and the shifts stop as soon as the ones done so far fold
to all of Z/dZ (a saturated sum), which random sets of density 0.05 in
Z/65536Z reach after about a tenth of their shifts.  The members are read
with `Bitmap.__iter__`, linear in the width.

One sum needs no shifts: operands inside cosets of one subgroup, of step
g = gcd(d, A - min A, B - min B), whose sizes add up past the coset size
d/g.  Their sum is the whole coset of min A + min B, by pigeonhole, and
comes back from `coset_of`, with its size and confining step in its memo.
g is the gcd of the operands' confining steps, each found once by mask
tests (`ResidueSet.confining_step`), with no member pass, and only for a
sum that wraps past d.  The naive double loops are kept as oracles for
tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import islice
from math import gcd
from typing import Iterable

from .group_core import (Bitmap, ResidueSet, Subgroup, coset_of, fold,
                         subgroups)


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


def sumset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """A + B in Z/dZ: the sumset in Z, folded mod d once (every shifted copy
    lies below 2^(2d-1)); it stops shifting once the sum is all of Z/dZ.

    A sum that wraps (max A + max B >= d - 1, the test `_shift_or` makes)
    is first tested for a whole coset.  With a0 = min A, b0 = min B and
    g = gcd(d, A - a0, B - b0), the gcd of the operands' memoised
    confining steps, A lies in a0 + H and B in b0 + H, H the subgroup of
    step g and order q = d/g.  When |A| + |B| > q, every c in a0 + b0 + H
    is a sum: c - B and A both lie in a0 + H, and their sizes add up past
    q, so they meet.  So A + B is the coset a0 + b0 + H (`coset_of`).  A
    sum that does not wrap is never asked: a flatten sum never wraps, so
    the test costs the campaigns one comparison per sum."""
    a._require_same_group(b)
    d = a.modulus
    atop, btop = a.bits.bit_length(), b.bits.bit_length()
    if atop + btop > d:
        g = gcd(a.confining_step, b.confining_step)
        if (len(a) + len(b)) * g > d:
            return coset_of(Subgroup(a.group, d // g), (a.min() + b.min()) % g)
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


"""Set addition kernels, stabilizers, and integer-set analogues.

A sumset is one shift-OR over membership bitmaps: A shifted by each member of
the smaller operand, ORed together, which is A + B in Z.  In Z/dZ that result
is folded mod d once, and the shifts stop soon after the ones done so far
fold to all of Z/dZ (a saturated sum).  They are taken in batches sized by
an integer estimate of the shifts the missing residues need, about
ln(m) d/|A| for m missing, and at least an eighth of the shifts done, with
a check after each batch.  Such a sum first shifts A | A << delta, delta
the gap between B's two lowest members, by each start p of B's
delta-chains, which adds A + p and A + p + delta in one shift: random sets
of density 0.05 in Z/65536Z (3277 members) saturate after 96-150 shifts
and stop after 120-153, where one shift per member of B saturates after
189-294 and stops after 234-295.  The members are read with
`Bitmap.__iter__`, linear in the width.

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
from typing import Iterable, Iterator

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

    def max(self) -> int:
        if not self.bits:
            raise ValueError("empty set has no maximum")
        return self.bits.bit_length() - 1

    def issubset(self, other: "IntegerSet") -> bool:
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        return f"IntegerSet(bound={self.bound}, {{{', '.join(map(str, self))}}})"


def members_of(bits: int) -> Iterator[int]:
    """The members of a bare bitmap, ascending, read as `Bitmap.__iter__`
    reads a set's."""
    view = Bitmap()
    view.bits = bits
    return iter(view)


def _chain_starts(bits: int) -> tuple[int, int]:
    """(delta, P) for a bitmap B: delta the gap between its two lowest
    members (0 when it has fewer than two), and P the members p with
    p + delta in B and p - delta not in B, the starts of B's delta-chains.
    P and P + delta are disjoint subsets of B: p + delta in P would put
    p = (p + delta) - delta outside B."""
    low = bits & -bits
    rest = bits ^ low
    if not rest:
        return 0, 0
    delta = (rest & -rest).bit_length() - low.bit_length()
    pairs = bits & bits >> delta
    return delta, pairs & ~(pairs << delta)


def _shift_or(a: Bitmap, b: Bitmap, d: int = 0) -> int:
    """Bitmap of A + B in Z: A shifted by each member of the smaller operand,
    ORed together.

    Given d > 0, the caller folds the result mod d, and the shifts stop once
    the ones done so far fold to all of Z/dZ: the rest cannot add anything.
    Such a sum pairs shifts first.  With delta the gap between B's two
    lowest members and P the starts of B's delta-chains (`_chain_starts`),
    A + (P | P + delta) = (A | A + delta) + P: the wide operand
    A' = A | A << delta is shifted by each p in P, each shift doing the
    work of two, and then A by the members of B outside P | P + delta, so
    a sum takes at most |B| - |P| shifts.  Every shift stays below
    2^(2d-1), as the fold needs: p + delta is in B, so
    max A' + p = max A + p + delta <= 2d - 2.
    The members are taken in batches with a check between them, each batch
    sized by the coverage it should bring.  After k shifts of an operand X
    a residue is still missing with probability about (1 - |X|/d)^k, so m
    missing residues take about ln(m) d/|X| more shifts.  A batch is that
    estimate, in integers, with ln m taken as 11/16 (about ln 2) times the
    bit length of m: m = d before the first batch, after a check the
    residues still missing.  While the sum in Z has fewer than d bits, d
    minus its bit count is a lower bound on m that needs no fold; otherwise
    a check is one fold and two bit counts, about three shift-ORs.  Each
    batch is also at least an eighth of the shifts done so far, so batches
    grow at least 9/8-fold once that floor passes the estimate, and a sum
    that never fills Z/dZ (A = B = the even residues) is checked at most
    ln|B| / ln(9/8), about 8.5 ln|B|, times, and once more where A' gives
    way to A, as the last batch of A' may be short.  No estimate exceeds
    the first one with X = A, as |A'| >= |A|, so a sum first full after k
    shifts stops at most max(that batch, k/8) shifts later.  When
    max A + max B < d - 1 the sum neither wraps nor reaches d - 1, so it
    is never full and takes one unchecked pass over B, as it does for
    d = 0."""
    abits, bbits = a.bits, b.bits
    na, nb = abits.bit_count(), bbits.bit_count()
    if na < nb:
        a, b, abits, bbits, na, nb = b, a, bbits, abits, nb, na
    out = 0
    if not d or abits.bit_length() + bbits.bit_length() <= d:
        for k in b:
            out |= abits << k
        return out
    delta, starts = _chain_starts(bbits)
    missing, done, todo = d, 0, nb - starts.bit_count()
    for x, reads in ((abits | abits << delta, starts),
                     (abits, bbits & ~(starts | starts << delta))):
        nx, left, members = x.bit_count(), reads.bit_count(), members_of(reads)
        while left:
            n = min(left, max(11 * missing.bit_length() * d // (16 * nx) + 1,
                              done // 8))
            left -= n
            done += n
            # islice costs a call per member, so the last batch runs bare
            for k in islice(members, n) if done < todo else members:
                out |= x << k
            if done == todo:
                return out
            missing = d - out.bit_count()
            if missing <= 0:
                missing = d - fold(out, d).bit_count()
                if not missing:
                    return out
    raise AssertionError("unreachable: the last batch returns")


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
    d, bs = a.modulus, b.members()
    return ResidueSet.of(a.group, {(x + y) % d for x in a for y in bs})


def sumset_int(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """A + B in Z, ambient bound = sum of bounds."""
    return IntegerSet(a.bound + b.bound, _shift_or(a, b))


def sumset_int_naive(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    bs = b.members()
    return IntegerSet.of(a.bound + b.bound, {x + y for x in a for y in bs})


def stabilizer(a: ResidueSet) -> Subgroup:
    """The largest subgroup H with H + A = A.

    A fixed A is a union of cosets of H, so |H| divides |A| as well as d:
    the candidates are the subgroups whose order divides gcd(|A|, d),
    tried descending by order.  H fixes A iff the bitmap is invariant
    under rotation by its generator d/|H|.
    """
    if not a:
        raise ValueError("stabilizer of the empty set is undefined")
    for h in reversed(subgroups(a.group, len(a))):
        if a.shift(h.step).bits == a.bits:
            return h
    raise AssertionError("unreachable: the trivial subgroup always fixes A")


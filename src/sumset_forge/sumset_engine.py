"""Set addition kernels, stabilizers, and integer-set analogues.

Two sumset strategies live behind one contract: the bit-parallel shift-OR over
membership bitmaps (the fast path everything else calls), and the naive double
loop kept as the always-on oracle for tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .group_core import Bitmap, ResidueSet, Subgroup, subgroups


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

    def min(self) -> int:
        if not self.bits:
            raise ValueError("empty set has no minimum")
        return (self.bits & -self.bits).bit_length() - 1

    def max(self) -> int:
        if not self.bits:
            raise ValueError("empty set has no maximum")
        return self.bits.bit_length() - 1

    def issubset(self, other: "IntegerSet") -> bool:
        return self.bits & ~other.bits == 0

    def __repr__(self) -> str:
        return f"IntegerSet(bound={self.bound}, {{{', '.join(map(str, self))}}})"


def sumset(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """A + B in Z/dZ via shift-OR over the smaller operand."""
    if a.group != b.group:
        from .group_core import ModulusMismatch
        raise ModulusMismatch(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    d = a.modulus
    if len(a) < len(b):
        a, b = b, a
    mask = (1 << d) - 1
    abits = a.bits
    out = 0
    for k in b:
        out |= ((abits << k) | (abits >> (d - k))) & mask if k else abits
    return ResidueSet(a.group, out)


def sumset_naive(a: ResidueSet, b: ResidueSet) -> ResidueSet:
    """Double-loop oracle; bit-identical to sumset by construction of tests."""
    if a.group != b.group:
        from .group_core import ModulusMismatch
        raise ModulusMismatch(f"modulus mismatch: {a.modulus} vs {b.modulus}")
    d = a.modulus
    return ResidueSet.of(a.group, {(x + y) % d for x in a for y in b})


def sumset_int(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    """A + B in Z, ambient bound = sum of bounds."""
    out = 0
    abits = a.bits
    for k in b:
        out |= abits << k
    return IntegerSet(a.bound + b.bound, out)


def sumset_int_naive(a: IntegerSet, b: IntegerSet) -> IntegerSet:
    return IntegerSet.of(a.bound + b.bound, {x + y for x in a for y in b})


def stabilizer(a: ResidueSet) -> Subgroup:
    """The largest subgroup H with H + A = A.

    Tries each divisor subgroup descending by order; H fixes A iff the bitmap
    is invariant under rotation by its generator d/|H|.
    """
    if not a:
        raise ValueError("stabilizer of the empty set is undefined")
    for h in reversed(subgroups(a.group)):
        if a.shift(h.step).bits == a.bits:
            return h
    raise AssertionError("unreachable: the trivial subgroup always fixes A")


def is_arithmetic_progression(a: IntegerSet) -> Optional[tuple[int, int]]:
    """(start, difference) when consecutive gaps are all equal, else None.

    Singletons are APs with difference 0; pairs always qualify.
    """
    ms = a.members()
    if not ms:
        raise ValueError("empty set")
    if len(ms) == 1:
        return (ms[0], 0)
    diff = ms[1] - ms[0]
    for prev, cur in zip(ms, ms[1:]):
        if cur - prev != diff:
            return None
    return (ms[0], diff)

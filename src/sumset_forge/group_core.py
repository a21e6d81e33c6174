"""Value types and elementary algebra for Z/dZ: residues, subsets, subgroups, cosets.

Subsets carry their modulus; mixing moduli is a contract violation raised at
operation entry.  Everything here is immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional


class ModulusMismatch(ValueError):
    """Two residue sets with different moduli were combined."""


@dataclass(frozen=True, order=True)
class CyclicGroup:
    """The cyclic group Z/dZ.  d = 1 (trivial group) is allowed."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")

    def divisors(self) -> list[int]:
        d = self.modulus
        return [k for k in range(1, d + 1) if d % k == 0]


class Bitmap:
    """Membership queries shared by the bitmap-backed sets: m is a member iff
    bit m of `self.bits` is set.  Subclasses reject bits at or above their
    bound on construction, so only the lower end needs a range check."""

    @staticmethod
    def bits_of(members: Iterable[int], bound: int) -> int:
        bits = 0
        for m in members:
            if not 0 <= m < bound:
                raise ValueError(f"member {m} outside [0, {bound})")
            bits |= 1 << m
        return bits

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, m: int) -> bool:
        return m >= 0 and bool(self.bits >> m & 1)

    def __iter__(self) -> Iterator[int]:
        bits = self.bits
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def __bool__(self) -> bool:
        return self.bits != 0


@dataclass(frozen=True)
class ResidueSet(Bitmap):
    """A subset of Z/dZ, stored as a membership bitmap (python int)."""

    group: CyclicGroup
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.group.modulus:
            raise ValueError("bitmap has bits outside [0, d)")

    @classmethod
    def of(cls, group: CyclicGroup, members: Iterable[int]) -> "ResidueSet":
        return cls(group, cls.bits_of(members, group.modulus))

    @classmethod
    def full(cls, group: CyclicGroup) -> "ResidueSet":
        return cls(group, (1 << group.modulus) - 1)

    @property
    def modulus(self) -> int:
        return self.group.modulus

    def shift(self, k: int) -> "ResidueSet":
        """Translate by k (mod d): {m + k : m in self}."""
        d = self.modulus
        k %= d
        mask = (1 << d) - 1
        return ResidueSet(self.group, ((self.bits << k) | (self.bits >> (d - k))) & mask if k else self.bits)

    def union(self, other: "ResidueSet") -> "ResidueSet":
        self._require_same_group(other)
        return ResidueSet(self.group, self.bits | other.bits)

    def issubset(self, other: "ResidueSet") -> bool:
        self._require_same_group(other)
        return self.bits & ~other.bits == 0

    def _require_same_group(self, other: "ResidueSet") -> None:
        if self.group != other.group:
            raise ModulusMismatch(
                f"modulus mismatch: {self.modulus} vs {other.modulus}")

    def __repr__(self) -> str:
        return f"ResidueSet(d={self.modulus}, {{{', '.join(map(str, self))}}})"


@dataclass(frozen=True)
class Subgroup:
    """The unique subgroup of Z/dZ of the given order (one per divisor of d).

    Its elements are the multiples of step = d / order.
    """

    group: CyclicGroup
    order: int

    def __post_init__(self):
        d = self.group.modulus
        if self.order < 1 or d % self.order != 0:
            raise ValueError(f"order {self.order} does not divide modulus {d}")

    @property
    def step(self) -> int:
        return self.group.modulus // self.order

    def __contains__(self, r: int) -> bool:
        return r % self.group.modulus % self.step == 0

    def element_set(self) -> ResidueSet:
        return ResidueSet.of(self.group, range(0, self.group.modulus, self.step))


@dataclass(frozen=True)
class Coset:
    """A coset x + H.  Equal iff representatives differ by a subgroup element."""

    subgroup: Subgroup
    representative: int = field(compare=False)
    _canonical: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_canonical",
                           self.representative % self.subgroup.group.modulus % self.subgroup.step)

    def element_set(self) -> ResidueSet:
        return coset_of(self.subgroup, self.representative)


def subgroups(g: CyclicGroup) -> list[Subgroup]:
    """All subgroups of Z/dZ, ascending by order (one per divisor of d)."""
    return [Subgroup(g, h) for h in g.divisors()]


def coset_of(h: Subgroup, x: int) -> ResidueSet:
    """The coset x + H as a residue set; cardinality |H|."""
    d = h.group.modulus
    if not 0 <= x < d:
        raise ValueError(f"representative {x} outside [0, {d})")
    return ResidueSet.of(h.group, ((x + k) % d for k in range(0, d, h.step)))


def containing_coset(s: ResidueSet, h: Subgroup) -> Optional[int]:
    """Least representative x with s contained in x + H, or None if s meets
    two or more cosets of H."""
    if not s:
        raise ValueError("empty set has no coset")
    if h.group != s.group:
        raise ModulusMismatch(
            f"modulus mismatch: {s.modulus} vs {h.group.modulus}")
    reps = {m % h.step for m in s}
    if len(reps) > 1:
        return None
    return reps.pop()

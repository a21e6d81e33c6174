"""Value types and elementary algebra for Z/dZ: residues, subsets, subgroups, cosets.

Subsets carry their modulus; mixing moduli is a contract violation raised at
operation entry.  Everything here is immutable and safe to share.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional


class ModulusMismatch(ValueError):
    """Two residue sets with different moduli were combined."""


class memo:
    """An attribute computed on first read, `func(obj)`, and stored in the
    instance __dict__ under its own name, where later reads find it before
    this non-data descriptor: `functools.cached_property` as of CPython
    3.12.  Up to 3.11 that one takes a class-wide lock on every miss."""

    def __init__(self, func):
        self.func = func
        self.__doc__ = func.__doc__

    def __set_name__(self, owner, name):
        self.name = name

    def __get__(self, obj, cls=None):
        if obj is None:
            return self
        value = obj.__dict__[self.name] = self.func(obj)
        return value


@dataclass(frozen=True)
class CyclicGroup:
    """The cyclic group Z/dZ.  d = 1 (trivial group) is allowed."""

    modulus: int

    def __post_init__(self):
        if self.modulus < 1:
            raise ValueError(f"modulus must be >= 1, got {self.modulus}")

    def divisors(self) -> list[int]:
        """Ascending: `subgroups` and the instance generator rely on it."""
        d = self.modulus
        low = [k for k in range(1, isqrt(d) + 1) if d % k == 0]
        return low + [d // k for k in reversed(low) if k * k != d]


def fold(bits: int, d: int) -> int:
    """Reduce a bitmap below 2^(2d) mod d: bit p goes to bit p mod d."""
    return (bits | bits >> d) & ((1 << d) - 1)


# lattices kept by `lattice`; one coset pair needs one to three (n, step)
# keys.  The benchmark's widest, n = 720720, is 88 KiB.  Every key has
# n = d, at most the input cap 2^24, so the cache holds at most 32 x 2 MiB:
# `flatten_sumset`'s slot starts, up to 4 max a + 2 times wider than d, are
# built uncached (`build_lattice`), as its packed sums never wrap and so are
# never whole cosets.
LATTICE_CACHE_SIZE = 32


def build_lattice(n: int, step: int) -> int:
    """Bitmap of the multiples of step below n.  Each round ORs the bitmap
    onto itself shifted by the width it covers, doubling the multiples set,
    so it takes log2(n/step) shifts.  Dividing 2^n - 1 by 2^step - 1 gives
    the same bitmap when step divides n, by a long division: 4.95 ms
    against 0.12 ms at n = 720720, step = 4004, and 1.09 against 0.05 ms
    at n = 524288, step = 1024 (2 vCPU Xeon, CPython 3.11.7)."""
    m, w = 1, step
    while w < n:
        m |= m << w
        w <<= 1
    return m & ((1 << n) - 1)


# `build_lattice(n, step)`, keeping the last LATTICE_CACHE_SIZE results, so
# `coset_of`, `coset_step`, `sample_coset` and `verify_witness` build each
# (d, step) once between them.
lattice = lru_cache(maxsize=LATTICE_CACHE_SIZE)(build_lattice)


def coset_step(bits: int, m0: int, d: int, g: int = 0) -> int:
    """gcd(d, g, m - m0 over the members m of `bits`), m0 its least member,
    with no member pass.  g starts as the gcd with the span (max - m0);
    each round tests the members above m0 against the lattice of multiples
    of g with one mask, and a stray member, one not on it, replaces g by
    its gcd with the stray's offset.  g at least halves each round, so
    there are at most log2(d) rounds.  The mask is the lattice of g below
    d, which the other users of the subgroup of step g share."""
    span = bits.bit_length() - 1 - m0
    g = gcd(d, g, span)
    t = bits >> m0
    while g > 1:
        stray = t & lattice(d, g) ^ t
        if not stray:
            break
        g = gcd(g, (stray & -stray).bit_length() - 1)
    return g


# `gather`'s tables: entry v of the table for bit offset o is b"1" when bit
# o of the byte v is set, else b"0".
_DIGITS = tuple(bytes(b"01"[v >> o & 1] for v in range(256)) for o in range(8))


def gather(bits: int, g: int, n: int) -> int:
    """Bits 0, g, ..., (n - 1)g of `bits`, packed into bits 0..n-1, from one
    byte string rather than a member pass.  Bit kg is bit (kg mod 8) of byte
    kg // 8, and kg mod 8 repeats with period P = 8 / gcd(g, 8), so each k
    in one class mod P reads its byte at a fixed stride, lcm(g, 8) / 8, and
    at one bit offset: one slice and one `bytes.translate` to binary digits
    per class.  The classes are interleaved, highest k first, into the
    digits of one `int(., 2)`."""
    if n <= 0:
        return 0
    last = (n - 1) * g
    raw = bits.to_bytes(max(last // 8 + 1, (bits.bit_length() + 7) // 8),
                        "little")
    period = 8 // gcd(g, 8)
    stride = period * g // 8
    digits = bytearray(n)
    for j in range(min(period, n)):
        count = (n - 1 - j) // period + 1
        start = j * g // 8
        digits[n - 1 - j::-period] = raw[
            start:start + stride * count:stride].translate(_DIGITS[j * g % 8])
    return int(digits, 2)


def residues(bits: int, step: int) -> int:
    """Bitmap of {m mod step} over the members m of `bits`.  Each round ORs
    the bits above a cut onto those below it; the cut is a multiple of step
    at or above half the width, so residues are kept and the width falls to
    at most half plus step: the rounds cost O(width) together."""
    width = bits.bit_length()
    while width > step:
        cut = step * -(-width // (2 * step))
        bits = bits & (1 << cut) - 1 | bits >> cut
        width = cut
    return bits


# Bitmaps wider than this are read as one binary string.  The low-bit loop
# costs three full-width big-int operations per member; the string scan costs
# one pass plus a `str.rfind` per member.  One full iteration at density
# 0.05-0.3, 2 vCPU Xeon, CPython 3.11.7: the low-bit loop is 1.7-2x faster at
# 120 bits (the campaigns' widths) and about even at 1024; the scan is
# 1.1-1.3x faster at 1536 bits, 1.8-1.9x at 4096 and 18-19x at 65536.
SCAN_WIDTH = 1024

# Bitmaps of a wider bound are built in a bytearray.  ORing `1 << m` into an
# int costs O(m) per member; setting a byte costs O(1), plus one conversion.
# Building from members at density 0.05-0.3, same machine: the OR loop is
# 1.5-2x faster at 120 bits (the campaigns' widths), 1.3-1.4x at 1024 and
# 1.1-1.2x at 2048, about even at 4096-6144; the bytearray is 1.2x faster at
# 8192, 1.7-1.8x at 16384 and 3.3-3.7x at 65536.
BUILD_WIDTH = 6144


class Bitmap:
    """Membership queries shared by the bitmap-backed sets: m is a member iff
    bit m of `self.bits` is set.  Subclasses reject bits at or above their
    bound on construction, so only the lower end needs a range check."""

    @staticmethod
    def bits_of(members: Iterable[int], bound: int) -> int:
        """Bitmap of members in [0, bound).  Above BUILD_WIDTH the members
        are set in a bytearray and converted once, so each costs O(1) rather
        than an OR into a bound-wide integer."""
        if bound <= BUILD_WIDTH:
            bits = 0
            for m in members:
                if not 0 <= m < bound:
                    raise ValueError(f"member {m} outside [0, {bound})")
                bits |= 1 << m
            return bits
        buf = bytearray((bound + 7) // 8)
        for m in members:
            if not 0 <= m < bound:
                raise ValueError(f"member {m} outside [0, {bound})")
            buf[m >> 3] |= 1 << (m & 7)
        return int.from_bytes(buf, "little")

    def __len__(self) -> int:
        return self.bits.bit_count()

    def __contains__(self, m: int) -> bool:
        return m >= 0 and bool(self.bits >> m & 1)

    def __iter__(self) -> Iterator[int]:
        """Members in ascending order.  Up to SCAN_WIDTH bits the lowest set
        bit is peeled off each time.  A wider bitmap becomes one binary string
        whose last digit is bit 0, and `str.rfind` walks it from the end to
        each "1" in turn."""
        bits = self.bits
        if bits.bit_length() <= SCAN_WIDTH:
            while bits:
                low = bits & -bits
                yield low.bit_length() - 1
                bits ^= low
            return
        digits = bin(bits)
        top = len(digits) - 1
        rfind = digits.rfind
        p = rfind("1")
        while p >= 0:
            yield top - p
            p = rfind("1", 0, p)

    def members(self) -> tuple[int, ...]:
        return tuple(self)

    def min(self) -> int:
        """The least member m, the lowest set bit of a low window that starts
        64 bits wide and doubles until it holds a member: the windows cost
        O(m) together, not the bitmap's width."""
        bits = self.bits
        if not bits:
            raise ValueError("empty set has no minimum")
        low, width = bits & 0xFFFFFFFFFFFFFFFF, 64
        while not low:
            width <<= 1
            low = bits & (1 << width) - 1
        return (low & -low).bit_length() - 1

    def __bool__(self) -> bool:
        return self.bits != 0


@dataclass(frozen=True)
class ResidueSet(Bitmap):
    """A subset of Z/dZ, stored as a membership bitmap (python int).  Its
    `size` and `confining_step` are `memo`s: computed on first use and kept
    in the instance __dict__, outside the compared fields, so equality,
    hashing and repr see only the group and the bits.  A pickle
    carries the memo too; it holds for the same bits.  `coset_of` builds a
    whole coset with both facts already in the memo."""

    group: CyclicGroup
    bits: int

    def __post_init__(self):
        if self.bits < 0 or self.bits >> self.group.modulus:
            raise ValueError("bitmap has bits outside [0, d)")

    def __len__(self) -> int:
        return self.size

    @memo
    def size(self) -> int:
        """|S|, counted once."""
        return self.bits.bit_count()

    @memo
    def confining_step(self) -> int:
        """gcd(d, m - min S over the members m): the step of the smallest
        subgroup with S inside one of its cosets (`coset_step`), decided
        once.  S must be nonempty."""
        return coset_step(self.bits, self.min(), self.group.modulus)

    @classmethod
    def of(cls, group: CyclicGroup, members: Iterable[int]) -> "ResidueSet":
        return cls(group, cls.bits_of(members, group.modulus))

    @property
    def modulus(self) -> int:
        return self.group.modulus

    def shift(self, k: int) -> "ResidueSet":
        """Translate by k (mod d): {m + k : m in self}."""
        d = self.modulus
        return ResidueSet(self.group, fold(self.bits << (k % d), d))

    def _require_same_group(self, other: "ResidueSet | Subgroup") -> None:
        if self.group != other.group:
            raise ModulusMismatch(
                f"modulus mismatch: {self.modulus} vs {other.group.modulus}")

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


def subgroups(g: CyclicGroup, m: int = 0) -> list[Subgroup]:
    """The subgroups of Z/dZ whose order divides m, ascending by order: one
    per divisor of gcd(d, m).  m = 0 gives all of them, as gcd(d, 0) = d."""
    return [Subgroup(g, h) for h in CyclicGroup(gcd(g.modulus, m)).divisors()]


def coset_of(h: Subgroup, x: int) -> ResidueSet:
    """The coset x + H as a residue set, the only builder of one: the
    multiples of the step shifted by x mod step, below 2^d, with its size
    |H| and confining step (the step of H) put straight into its memo."""
    d = h.group.modulus
    if not 0 <= x < d:
        raise ValueError(f"representative {x} outside [0, {d})")
    step = h.step
    s = ResidueSet(h.group, lattice(d, step) << x % step)
    s.__dict__.update(size=h.order, confining_step=step)
    return s


def confining_subgroup(s: ResidueSet) -> Subgroup:
    """The smallest subgroup H with the nonempty set s inside one coset of
    H.  s lies in a coset of H iff H contains s - s, so H has step
    gcd(d, s - m0), and every subgroup confining s contains it.  The gcd
    comes from mask tests (`coset_step`), not a member pass, once per set
    (`ResidueSet.confining_step`)."""
    return Subgroup(s.group, s.modulus // s.confining_step)


def containing_coset(s: ResidueSet, h: Subgroup) -> Optional[int]:
    """Least representative x with s contained in x + H, or None if s meets
    two or more cosets of H.  With m0 = min s, s lies in m0 + H iff H
    contains the smallest subgroup confining s, that is iff the step of H
    divides gcd(d, s - m0), the set's memoised `confining_step`: no mask
    test of its own."""
    s._require_same_group(h)
    return None if s.confining_step % h.step else s.min() % h.step

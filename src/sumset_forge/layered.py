"""The layered set union of {a_i} x B_i inside Z x Z/dZ and every conclusion
checked against it: the Hall-certified lower bounds, the max-offset bound, the
structure finder (subgroup + affine coset placement), the size partition, and
the (max a_i)|H| comparison.

First coordinates add as integers (no wraparound), second coordinates mod d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd
from typing import Optional, Union

from .classical_checks import CheckOutcome
from .group_core import (CyclicGroup, ResidueSet, Subgroup, build_lattice,
                         containing_coset, coset_step, fold, gather, lattice)
from .hall_bounds import (BoundViolation, HallViolator, find_sdr,
                          is_unsaturated, lemma2_copies, r_parameter,
                          translated_family)
from .rectify import AffineAssignment, bezout, solve_affine
from .sumset_engine import IntegerSet, sumset

INEQ7_STRICT = "strict"
INEQ7_EQUALITY = "equality"
INEQ7_VIOLATED = "violated"

# doubling thresholds by layer count; outside this domain nothing applies
TAU = {4: Fraction(9, 4), 5: Fraction(12, 5)}
TAU_DEFAULT = Fraction(5, 2)        # every s >= 6

# offset profiles kept by `offset_profile`; campaigns clear them on entry and
# exit, so nothing memoized outlives one campaign
PROFILE_MEMO_SIZE = 1024

# `flatten_sumset` places layers at their offsets while max a < DENSE_SPAN * s
# and by index otherwise, so none of its bitmaps scales with a wide span
DENSE_SPAN = 2

# `LayeredSet.flat` adds the layers in Z/|H|Z, H their smallest coset
# subgroup, from this d on.  Below it, placing the layers and reading them
# out costs more than the d - |H| bits it saves per shift.  Checking the
# 300 instances of `campaign --count 300 --seed 1 --d w` on fresh copies,
# the quotient took 1.15-1.18x the plain time at w = 288 and 360, 0.96-1.08x
# at 480, 0.96x at 540, 0.90x at 600 and 0.63-0.86x from 720 to 4096
# (medians of 7-9 alternating runs, 2 vCPU Xeon, CPython 3.11.7;
# BENCH_21.json, extra.quotient_width)
QUOTIENT_WIDTH = 512


def tau(s: int) -> Optional[Fraction]:
    return None if s < 4 else TAU.get(s, TAU_DEFAULT)


class LayeredSetError(ValueError):
    """A layered-set invariant is violated; the message names it."""


@dataclass(frozen=True)
class LayeredSet:
    """B-tilde = union of {a_i} x B_i with a_1 = 0, 0 in B_1, offsets strictly
    increasing and gcd of nonzero offsets equal to 1."""

    group: CyclicGroup
    layers: tuple[tuple[int, ResidueSet], ...]

    def __post_init__(self):
        if len(self.layers) < 2:
            raise LayeredSetError("layer count must be at least 2")
        offsets = [a for a, _ in self.layers]
        if offsets[0] != 0:
            raise LayeredSetError(f"first layer offset must be 0, got {offsets[0]}")
        for prev, cur in zip(offsets, offsets[1:]):
            if cur <= prev:
                raise LayeredSetError("layer offsets must be strictly increasing")
        g = gcd(*offsets)
        if g != 1:
            raise LayeredSetError(f"gcd of nonzero offsets is {g}, expected 1")
        for a, b in self.layers:
            if b.group != self.group:
                raise LayeredSetError(f"layer at offset {a} has wrong modulus")
            if not b:
                raise LayeredSetError(f"empty layer at offset {a}")
        if 0 not in self.layers[0][1]:
            raise LayeredSetError("0 must belong to the first layer")

    @classmethod
    def of(cls, d: int, layers) -> "LayeredSet":
        group = CyclicGroup(d)
        return cls(group, tuple((a, b if isinstance(b, ResidueSet)
                                 else ResidueSet.of(group, b))
                                for a, b in layers))

    @property
    def d(self) -> int:
        return self.group.modulus

    @property
    def s(self) -> int:
        return len(self.layers)

    def offsets(self) -> tuple[int, ...]:
        return tuple(a for a, _ in self.layers)

    def max_offset(self) -> int:
        return self.layers[-1][0]

    @cached_property
    def placement(self) -> Optional[tuple[Subgroup, int, int]]:
        """`coset_placement`, found once and shared by `find_structure` and
        the flatten."""
        return coset_placement(self)

    @cached_property
    def flat(self) -> "LayeredSumset":
        """B~ + B~, computed on first use and shared by every check.  The
        cache lives in the instance __dict__, outside the compared fields.
        From d = QUOTIENT_WIDTH on, when the layers' coset subgroup H is
        proper, it is the flatten of `coset_quotient`, the same sizes with
        shifts |H| bits wide instead of d."""
        found = self.placement if self.d >= QUOTIENT_WIDTH else None
        if found is not None and found[0].order < self.d:
            return flatten_sumset(coset_quotient(self, *found))
        return flatten_sumset(self)

    @cached_property
    def sizes(self) -> list[int]:
        """|B_i| for each layer, counted once.  A list, not a tuple, for
        the RSS reason in `LayeredSumset`'s docstring; readers must not
        change it."""
        return [len(b) for _, b in self.layers]

    @cached_property
    def size(self) -> int:
        """|B~|, summed once."""
        return sum(self.sizes)

    @cached_property
    def ratio(self) -> Fraction:
        """The doubling |B~ + B~| / |B~|, built once."""
        return Fraction(self.flat.total, self.size)

    @cached_property
    def applicable(self) -> bool:
        """The small-doubling hypothesis ratio < tau(s), decided once."""
        t = tau(self.s)
        return t is not None and self.ratio < t

    @cached_property
    def profile(self) -> "OffsetProfile":
        """The artefacts that depend on the offsets alone, shared with every
        other instance on the same offsets."""
        return offset_profile(self.offsets())


@dataclass(frozen=True)
class LayeredSumset:
    """|B~ + B~| and |B_i + B_j| for each pair (i, j) of the prop6 matching,
    in its order; no pairs when the matching is a Hall violator.  The sizes
    are a list because CPython keeps up to 2000 freed tuples of each length
    below 20: with a tuple of 10-19 sizes per instance, 40 default campaigns
    of 500 instances peaked 1.7 MB higher in RSS (CPython 3.11.7).  So the
    class is deliberately unhashable, and readers of the shared `L.flat`
    must not change the list."""

    total: int
    pair_sizes: list[int]

    __hash__ = None     # a frozen dataclass would otherwise hash the list


@dataclass(frozen=True)
class OffsetProfile:
    """The offset set A', its R, the prop6 matching (a pair (i, j) per SDR
    representative a_i + a_j, or the Hall violator when there is none) and
    the Bezout coefficients of the offsets, sum c_i a_i = 1."""

    offset_set: IntegerSet
    r: int
    matching: Union[tuple[tuple[int, int], ...], HallViolator]
    bezout: tuple[int, ...]


@dataclass(frozen=True)
class StructureWitness:
    subgroup: Subgroup
    x: int
    y: int
    j: int                    # layer index maximizing |B_j|
    ineq7: str                # strict | equality | violated


@dataclass(frozen=True)
class NotApplicable:
    reason: str
    ratio: Optional[Fraction] = None


@dataclass(frozen=True)
class ConclusionFailed:
    """A conclusion of the structure theorem broke on an applicable instance;
    this is a reportable counterexample."""

    conclusion: str
    detail: str


def flatten_sumset(L: LayeredSet) -> LayeredSumset:
    """Sizes of the exact sumset of the layered set: the row at first
    coordinate k is the union of B_i + B_j over offset pairs with
    a_i + a_j = k, and |B~+B~| sums the rows.  Beside it, |B_i + B_j| for
    each pair (i, j) of the prop6 matching, and for no other pair.

    One packed pass makes every B_i + B_j.  Layer j takes the 2d-bit slot
    p_j, and p is strictly increasing: p_j = a_j when the offsets are
    dense (max a < DENSE_SPAN * s), p_j = j otherwise.  The pack for i
    holds every B_j, j >= i, at bit (p_j - p_i)*2d, and sums[i] is one
    `sumset` of B_i with that pack in Z/WZ, W = (p_{s-1} - p_i + 1)*2d.
    No carry: B_i + B_j in Z lies in [0, 2d-2], so shifting the pack by a
    member of B_i keeps each B_j inside its own slot, and the top slot ends
    below W, where the fold mod W changes nothing.  Unique slots: p is
    injective, so slot p_j - p_i of sums[i] holds B_i + B_j alone.

    Dense offsets: ORing sums[i] into Y at bit 2*a_i*2d moves B_i + B_j to
    slot a_i + a_j, so slot k of Y is the row at first coordinate k, still
    in Z.  One masked fold, (Y | Y >> d) & M with M on the low d bits of
    each slot, reduces every slot mod d at once: bits d..2d-2 of a slot
    land on bits 0..d-2 of the same slot, and what the next slot shifts
    into bits d..2d-1 is masked off.  M is the lattice S of slot starts
    times 2^d - 1, taken as (S << d) - S in linear time: at d = 8192 and
    max a = 14 that takes 0.1 ms, a multiplication 0.7 ms and building M
    by a division by 2^2d - 1 about 15 ms.  S is the one lattice wider
    than d, so it is built each time (`build_lattice`) and kept out of
    `lattice`'s cache.  Y has 2 max a + 1 slots, so a wide offset span
    would make it and the packs scale with max a instead of s; there each
    slot is ORed into its row by a_i + a_j instead, and every bitmap stays
    within s slots.  A matched pair's size is its one
    slot, folded."""
    d, s, offsets = L.d, L.s, L.offsets()
    width = 2 * d
    dense = offsets[-1] < DENSE_SPAN * s
    place = offsets if dense else range(s)
    sums = [0] * s
    pack = 0
    above = place[-1]
    for i in reversed(range(s)):
        bi = L.layers[i][1]
        pack = pack << (above - place[i]) * width | bi.bits
        above = place[i]
        group = CyclicGroup((place[-1] - place[i] + 1) * width)
        sums[i] = sumset(ResidueSet(group, bi.bits),
                         ResidueSet(group, pack)).bits
    slot = (1 << width) - 1
    if dense:
        y = 0
        for a, row in zip(offsets, sums):
            y |= row << 2 * a * width
        starts = build_lattice((2 * offsets[-1] + 1) * width, width)
        total = ((y | y >> d) & ((starts << d) - starts)).bit_count()
    else:
        rows: dict[int, int] = {}
        for i, out in enumerate(sums):
            for j in range(i, s):
                k = offsets[i] + offsets[j]
                rows[k] = rows.get(k, 0) | out & slot
                out >>= width
        total = sum(fold(row, d).bit_count() for row in rows.values())
    matching = L.profile.matching
    return LayeredSumset(
        total,
        [] if isinstance(matching, HallViolator) else [
            fold(sums[i] >> (place[j] - place[i]) * width & slot,
                 d).bit_count() for i, j in map(sorted, matching)])


def _prop6_copies(aset: IntegerSet, r: int) -> list[int]:
    """Copies of each a_i + A' in the prop6 family; a copy of a_i + A'
    charges its representative to layer index i.  The stronger R=2 / R=3
    counts apply when the offset set actually realizes R = max - s + 3; the
    lemma 2 counts otherwise."""
    s = len(aset)
    if r in (2, 3) and is_unsaturated(aset):
        return [s, 2 if r == 3 else 1] + [1] * (s - 2)
    return lemma2_copies(s, r)


@lru_cache(maxsize=PROFILE_MEMO_SIZE)
def offset_profile(offsets: tuple[int, ...]) -> OffsetProfile:
    """R, the prop6 matching and the Bezout coefficients of an offset tuple,
    computed once per tuple while it stays in the memo."""
    aset = IntegerSet.from_members(offsets)
    r = r_parameter(aset)
    copies = _prop6_copies(aset, r)
    out = find_sdr(translated_family(aset, copies))
    if not isinstance(out, HallViolator):
        charge = [i for i, n in enumerate(copies) for _ in range(n)]
        index_of = {a: i for i, a in enumerate(offsets)}
        out = tuple((i, index_of[rep - offsets[i]])
                    for i, rep in zip(charge, out.representatives))
    return OffsetProfile(aset, r, out, bezout(aset))


def prop6_lower_bound(L: LayeredSet) -> int:
    """Hall-certified lower bound on the full layered sumset: each SDR
    representative a_i + a_j contributes |B_i + B_j| at a distinct first
    coordinate.  Always <= |B~+B~|."""
    matching = L.profile.matching
    if isinstance(matching, HallViolator):
        raise BoundViolation(
            f"SDR absent for offsets {L.offsets()}: violator "
            f"{matching.indices}")
    bound = sum(L.flat.pair_sizes)
    total = L.flat.total
    if bound > total:
        raise BoundViolation(
            f"certified bound {bound} exceeds |B~+B~| = {total}")
    return bound


def corollary1_check(L: LayeredSet) -> bool:
    """|B~+B~| - |B~| >= (s-2)|B_1| + |B_2| + ... + |B_R| with the layer
    sizes taken in descending order; R comes from the offsets as given."""
    sizes = sorted(L.sizes, reverse=True)
    rhs = (L.s - 2) * sizes[0] + sum(sizes[1:L.profile.r])
    return L.flat.total - L.size >= rhs


def check_prop7(L: LayeredSet) -> CheckOutcome:
    """max a_i < 1.5 s under the small-doubling hypothesis."""
    name = "prop7"
    if not L.applicable:
        return CheckOutcome(name, applicable=False, witness=(
            "out-of-range s" if tau(L.s) is None else None))
    return CheckOutcome(name, True, 2 * L.max_offset() < 3 * L.s,
                        witness=(L.max_offset(), L.s))


def coset_placement(L: LayeredSet) -> Optional[tuple[Subgroup, int, int]]:
    """The smallest H with every B_i inside a_i*x + y + H, and that (x, y).
    With b_i = min B_i, an (x, y) exists iff H holds each m - b_i (m in B_i)
    and each a_j*b_i - a_i*b_j (y is in H as a_1 = 0 and 0 is in B_1).  With
    the offsets' Bezout coefficients c and x0 = sum c_i b_i, the s terms
    b_i - a_i*x0 say the same, modulo the step of H: b_i = a_i*x0 for all i
    gives a_j*b_i - a_i*b_j = a_j*a_i*x0 - a_i*a_j*x0 = 0, and conversely
    a_j*x0 = sum c_i*a_j*b_i = sum c_i*a_i*b_j = b_j.  So the step of H is
    one gcd of d, each m - b_i and each b_i - a_i*x0.  B_i then lies in
    b_i + H, and AffineAssignment reduces b_i mod the step.  The b_i terms
    come first; each layer's m - b_i then lower q by mask tests
    (`coset_step`), with no member pass, until q = 1."""
    p = L.profile
    d = L.d
    firsts = tuple(b.min() for _, b in L.layers)
    x0 = sum(c * b for c, b in zip(p.bezout, firsts))
    q = gcd(d, *(bi - a * x0 for a, bi in zip(L.offsets(), firsts)))
    for (_, b), bi in zip(L.layers, firsts):
        if q == 1:
            break
        q = coset_step(b.bits, bi, d, q)
    h = Subgroup(L.group, d // q)
    xy = solve_affine(AffineAssignment(p.offset_set, firsts, q), p.bezout)
    return None if xy is None else (h, *xy)


def coset_quotient(L: LayeredSet, h: Subgroup, x: int, y: int) -> LayeredSet:
    """The layered set (Z/|H|Z, B_i'') with B_i'' = {(m - c_i)/step : m in
    B_i}, c_i = a_i*x + y, given B_i inside c_i + H (`coset_placement`).
    Each B_i is rotated by -c_i into H and its multiples of the step are
    packed down (`gather`).  B_i + B_j = (a_i + a_j)x + 2y + step(B_i'' +
    B_j''), and u -> c + step*u is injective on Z/|H|Z, so every pair of
    row k moves by the same (a_i + a_j)x + 2y = kx + 2y: the rows and the
    pair sums keep their sizes, and `flatten_sumset` of the quotient
    equals `flatten_sumset(L)`.  0 stays in the first layer: c_1 = y,
    which the placement takes as min B_1 = 0 reduced mod the step."""
    q = CyclicGroup(h.order)
    return LayeredSet(q, tuple(
        (a, ResidueSet(q, gather(b.shift(-(a * x + y)).bits, h.step, h.order)))
        for a, b in L.layers))


def find_structure(L: LayeredSet
                   ) -> Union[StructureWitness, NotApplicable, ConclusionFailed]:
    """The structural witness, the smallest subgroup H such that every B_i
    sits inside a_i*x + y + H for some (x, y), checked against every stated
    conclusion.  Every other such H contains it: it is the only candidate."""
    if not L.applicable:
        t = tau(L.s)
        return NotApplicable(f"no doubling threshold for s={L.s}" if t is None
                             else f"doubling {L.ratio} >= {t}", L.ratio)

    found = L.placement
    if found is None:
        return ConclusionFailed("coset-structure",
                                "affine solve found no (x, y) for H")
    h, x, y = found

    if not 2 * L.max_offset() < 3 * L.s:
        return ConclusionFailed(
            "max-offset-bound", f"max a_i = {L.max_offset()} >= 1.5*{L.s}")

    sizes = L.sizes
    j = max(range(L.s), key=lambda i: (sizes[i], -i))
    if 3 * sizes[j] < 2 * h.order:
        return ConclusionFailed(
            "two-thirds-witness",
            f"max |B_j| = {sizes[j]} < (2/3)|H| with |H| = {h.order}")
    if not 2 * h.order < 3 * max(sizes):
        return ConclusionFailed(
            "subgroup-size-bound",
            f"|H| = {h.order} >= (3/2) max|B_i| = (3/2)*{max(sizes)}")
    status = check_ineq7(L, h)
    if status == INEQ7_VIOLATED:
        return ConclusionFailed(
            "ineq7", f"(max a_i)|H| = {L.max_offset() * h.order} > "
                     f"{L.flat.total - L.size}")
    return StructureWitness(h, x, y, j, ineq7=status)


def verify_witness(L: LayeredSet, w: StructureWitness) -> bool:
    """Re-verify the coset containments and the 2/3 witness.  The coset
    a*x + y + H is the multiples of the step of H shifted by the residue
    of a*x + y mod the step (the step divides d), so each layer is one `&`
    against that mask."""
    h = w.subgroup
    step = h.step
    multiples = lattice(L.d, step)
    for a, b in L.layers:
        if b.bits & ~(multiples << (a * w.x + w.y) % step):
            return False
    return 3 * L.sizes[w.j] >= 2 * h.order


def uvw_partition(L: LayeredSet, h: Subgroup) -> tuple[int, int, int]:
    """Counts (u, v, w) of layers split by size against |H|: U at >= 2/3,
    W below 1/3, V between."""
    u = w = 0
    for n in L.sizes:
        n3 = 3 * n
        if n3 >= 2 * h.order:
            u += 1
        elif n3 < h.order:
            w += 1
    return u, L.s - u - w, w


def check_lemma5(L: LayeredSet, h: Subgroup) -> CheckOutcome:
    """u >= w + 2R - 3 under the small-doubling hypothesis, checked exactly as
    stated.  As stated it cannot hold when s < 2R - 3: every layer lies in
    exactly one of U, V, W, so u + w <= s, and the inequality would force
    s >= 2R - 3.  Applicable instances with s < 2R - 3 exist (README, d=30),
    and on them this check reports a violation."""
    name = "lemma5"
    if not L.applicable:
        return CheckOutcome(name, applicable=False)
    u, v, w = uvw_partition(L, h)
    r = L.profile.r
    return CheckOutcome(name, True, u >= w + 2 * r - 3, witness=(u, v, w, r))


def check_ineq7(L: LayeredSet, h: Subgroup) -> str:
    """(max a_i)|H| against |B~+B~| - |B~|, exactly."""
    lhs = L.max_offset() * h.order
    rhs = L.flat.total - L.size
    if lhs < rhs:
        return INEQ7_STRICT
    if lhs == rhs:
        return INEQ7_EQUALITY
    return INEQ7_VIOLATED


def is_coset_saturated(L: LayeredSet, h: Subgroup) -> bool:
    """Every layer is a full coset of H (the known extremal shape for
    equality in the (max a_i)|H| comparison)."""
    return all(n == h.order and containing_coset(b, h) is not None
               for n, (_, b) in zip(L.sizes, L.layers))

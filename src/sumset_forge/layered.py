"""The layered set union of {a_i} x B_i inside Z x Z/dZ and every conclusion
checked against it: the Hall-certified lower bounds, the max-offset bound, the
structure finder (subgroup + affine coset placement), the size partition, and
the (max a_i)|H| comparison.

First coordinates add as integers (no wraparound), second coordinates mod d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import islice
from math import gcd
from typing import Optional, Union

from .classical_checks import CheckOutcome
from .group_core import (CyclicGroup, ResidueSet, Subgroup, build_lattice,
                         containing_coset, coset_step, fold, gather, lattice,
                         memo)
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
# and by index otherwise, so none of its bitmaps scales with a wide span; its
# pigeonhole image, placed by offset too, is tried below the same bound.
# Timing the flatten alone on `--density 0` draws with DENSE_SPAN at 0 and at
# infinity (which also turns the image off and on), the offset layout took
# 0.69-0.88x the by-index time at max a/s below 16 and 1.05x at 16-32 for
# s = 6..9, 1.9-4.5x from 64 on; for s = 24..40, 0.73-0.89x below 4, 1.11x
# at 4-8 and 2.8-8.3x from 16 on.  The crossover sits near max a = 100-250
# in both ranges, not at 2s (2 vCPU Xeon, CPython 3.11.7).  It stays at 2:
# every benchmark instance lies below it, so no workload could show a move
DENSE_SPAN = 2

# `flatten_sumset` adds the layers in Z/|H|Z, H their smallest coset
# subgroup, from this d on.  Below it, placing the layers and reading them
# out costs more than the d - |H| bits it saves per shift.  Only instances
# that miss the pigeonhole image reach it (density 0, epsilon, wide spans).
# Timing the flatten alone on the 300 of `campaign --count 300 --seed 1
# --density 0 --d w`, 245-272 of which reach it, the quotient took
# 1.21-1.23x the plain time at w = 288, 1.10-1.15x at 360, 0.94-1.05x at
# 480, 0.76-0.92x at 600, 0.86-0.88x at 720 and 0.78-0.80x at 4096 (2 vCPU
# Xeon, CPython 3.11.7; BENCH_34.json, quotient_width)
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
        # `offsets()`, built once; kept in the __dict__ like the memos
        offsets = self.__dict__["_offsets"] = tuple(a for a, _ in self.layers)
        if offsets[0] != 0:
            raise LayeredSetError(f"first layer offset must be 0, got {offsets[0]}")
        for prev, cur in zip(offsets, offsets[1:]):
            if cur <= prev:
                raise LayeredSetError("layer offsets must be strictly increasing")
        g = gcd(*offsets)
        if g != 1:
            raise LayeredSetError(f"gcd of nonzero offsets is {g}, expected 1")
        group = self.group
        for a, b in self.layers:
            if b.group is not group and b.group != group:
                raise LayeredSetError(f"layer at offset {a} has wrong modulus")
            if not b.bits:
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
        return self._offsets

    def max_offset(self) -> int:
        return self.layers[-1][0]

    @memo
    def placement(self) -> tuple[Subgroup, int, int]:
        """The smallest H with every B_i inside a_i*x + y + H, and that (x,
        y), found once and shared by `find_structure` and the flatten.  With
        b_i = min B_i, an (x, y) exists iff H holds each m - b_i (m in B_i)
        and each a_j*b_i - a_i*b_j (y is in H as a_1 = 0 and 0 is in B_1).
        With the offsets' Bezout coefficients c and x0 = sum c_i b_i, the s
        terms b_i - a_i*x0 say the same, modulo the step of H: b_i = a_i*x0
        for all i gives a_j*b_i - a_i*b_j = a_j*a_i*x0 - a_i*a_j*x0 = 0, and
        conversely a_j*x0 = sum c_i*a_j*b_i = sum c_i*a_i*b_j = b_j.  The m
        - b_i terms are the confining chain's: with g = gcd(d, every m -
        b_i) read from `confinement`, the step of H is q = gcd(g, every b_i
        - a_i*x0), and gcd is associative, so no member is read again.  B_i
        then lies in b_i + H.  The solve cannot fail: q divides each b_i -
        a_i*x0 by construction, and b_1 = min B_1 = 0, so (x0 mod q, 0)
        solves b_i = a_i*x + y mod q, and `solve_affine` returns it."""
        p = self.profile
        g, firsts = self.confinement
        x0 = sum(c * b for c, b in zip(p.bezout, firsts))
        q = gcd(g, *(bi - a * x0 for a, bi in zip(self._offsets, firsts)))
        x, y = solve_affine(AffineAssignment(self._offsets, firsts, q),
                            p.bezout)
        return Subgroup(self.group, self.d // q), x, y

    @memo
    def confinement(self) -> tuple[int, tuple[int, ...]]:
        """(g, firsts): min B_i for each layer, and g = gcd(d, m - min B_i
        over every member m of every layer), the step of the smallest H
        with each B_i inside one of its cosets, (min B_i mod g) + H.  One
        chain of mask tests (`coset_step`, no member pass), stopped at g =
        1, read by the flatten's image and by `placement`."""
        firsts = tuple(b.min() for _, b in self.layers)
        g = self.d
        for (_, b), m0 in zip(self.layers, firsts):
            if g > 1:
                g = coset_step(b.bits, m0, self.d, g)
        return g, firsts

    @memo
    def flat(self) -> "LayeredSumset":
        """B~ + B~ (`flatten_sumset`), computed on first use and shared by
        every check.  The cache lives in the instance __dict__, outside the
        compared fields."""
        return flatten_sumset(self)

    @memo
    def sizes(self) -> list[int]:
        """|B_i| for each layer, counted once; readers must not change it.
        Not a tuple: CPython keeps 2000 freed tuples per length below 20,
        and with a tuple of 10-19 sizes per instance, 40 default campaigns
        of 500 instances peaked 1.7 MB higher in RSS (CPython 3.11.7)."""
        return [len(b) for _, b in self.layers]

    @memo
    def size(self) -> int:
        """|B~|, summed once."""
        return sum(self.sizes)

    @memo
    def ratio(self) -> Fraction:
        """The doubling |B~ + B~| / |B~|, built once."""
        return Fraction(self.flat.total, self.size)

    @memo
    def applicable(self) -> bool:
        """The small-doubling hypothesis ratio < tau(s), decided once."""
        t = tau(self.s)
        return t is not None and self.ratio < t

    @memo
    def profile(self) -> "OffsetProfile":
        """The artefacts that depend on the offsets alone, shared with every
        other instance on the same offsets."""
        return offset_profile(self.offsets())


@dataclass(frozen=True)
class LayeredSumset:
    """|B~ + B~|, and the prop6 bound: the sum of |B_i + B_j| over the pairs
    (i, j) of the prop6 matching, 0 when the matching is a Hall violator."""

    total: int
    bound: int


@dataclass(frozen=True)
class OffsetProfile:
    """The R of an offset set, its prop6 matching (a pair (i, j), i <= j,
    per SDR representative a_i + a_j, or the Hall violator when there is
    none) and the Bezout coefficients of the offsets, sum c_i a_i = 1."""

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
    a_i + a_j = k, and |B~+B~| sums the rows.  Beside it, the prop6 bound,
    the sum of |B_i + B_j| over the pairs of the prop6 matching alone (0
    for a Hall violator, which `prop6_lower_bound` raises on first).

    Dense offsets whose layers fill more than half of their cosets take the
    image of B~ mod H instead, H the smallest subgroup with every B_i inside
    one of its cosets, of step g, and c_i = min B_i mod g
    (`LayeredSet.confinement`, read only if 2 min|B_i| > max|B_i|, as |H| >=
    max|B_i|).  If 2 min|B_i| > |H| = d/g, then |B_i| + |B_j| > |H| for
    every pair, and by the pigeonhole of `sumset`'s whole-coset test B_i +
    B_j is the coset c_i + c_j + H.  The row at k is then the union of the
    cosets (c_i + c_j) mod g + H over the pairs with a_i + a_j = k, |H|
    members for each distinct residue.  Those residues come from one
    `sumset` of the image pack, bit a_i*2g + c_i for each layer, with itself
    in Z/((2 max a + 1)*2g)Z: c_i + c_j < 2g, so slot a_i + a_j holds c_i +
    c_j in Z and nothing wraps, and the dense path's masked fold, taken mod
    g, leaves the residues of every row.  So |B~+B~| is |H| times its bit
    count, and each matched pair adds |H| to the prop6 bound.  The cosets
    need not follow a_i*x + y, so a row may be several cosets and the
    placement's H is not used.

    Otherwise one packed pass makes every B_i + B_j, from d = QUOTIENT_WIDTH
    on in `coset_quotient` when the placement's H is proper: the same sizes
    (and image test) from shifts |H| bits wide instead of d.  Layer j takes
    the 2d-bit slot p_j, and p is strictly increasing: p_j = a_j when the
    offsets are dense (max a < DENSE_SPAN * s), p_j = j otherwise.  The pack
    for i holds every B_j, j >= i, at bit (p_j - p_i)*2d, and sums[i] is one
    `sumset` of B_i with that pack in Z/WZ, W = (p_{s-1} - p_i + 1)*2d.  No
    carry: B_i + B_j in Z lies in [0, 2d-2], so shifting the pack by a
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
    within s slots.  A matched pair (i, j), i <= j, adds its one slot
    of sums[i], folded."""
    d, s, offsets = L.d, L.s, L.offsets()
    dense = offsets[-1] < DENSE_SPAN * s
    matching = L.profile.matching
    if dense and 2 * min(L.sizes) > max(L.sizes):
        g, firsts = L.confinement
        if 2 * min(L.sizes) * g > d:
            order = d // g
            group = CyclicGroup((2 * offsets[-1] + 1) * 2 * g)
            image = ResidueSet(group, sum(1 << 2 * a * g + m0 % g
                                          for a, m0 in zip(offsets, firsts)))
            rows = _folded_count(sumset(image, image).bits, offsets[-1], g)
            return LayeredSumset(order * rows, 0 if isinstance(
                matching, HallViolator) else order * len(matching))
    if d >= QUOTIENT_WIDTH and L.placement[0].order < d:
        L = coset_quotient(L)
        d = L.d
    width = 2 * d
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
        total = _folded_count(y, offsets[-1], d)
    else:
        rows: dict[int, int] = {}
        for i, out in enumerate(sums):
            for j in range(i, s):
                k = offsets[i] + offsets[j]
                rows[k] = rows.get(k, 0) | out & slot
                out >>= width
        total = sum(fold(row, d).bit_count() for row in rows.values())
    bound = 0 if isinstance(matching, HallViolator) else sum(
        fold(sums[i] >> (place[j] - place[i]) * width & slot, d).bit_count()
        for i, j in matching)
    return LayeredSumset(total, bound)


def _folded_count(y: int, top: int, m: int) -> int:
    """The members of 2 top + 1 slots of 2m bits in y, each slot taken
    mod m: the masked fold of `flatten_sumset`'s dense rows."""
    starts = build_lattice((2 * top + 1) * 2 * m, 2 * m)
    return ((y | y >> m) & ((starts << m) - starts)).bit_count()


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
    """R, the prop6 matching and the Bezout coefficients of an ascending
    offset tuple, computed once per tuple while it stays in the memo.  The
    family holds copies[i] copies of a_i + A' in offset order, and the
    representative rep of a copy of a_i + A' is the pair (i, j) with
    a_j = rep - a_i."""
    aset = IntegerSet(offsets[-1] + 1, sum(1 << a for a in offsets))
    r = r_parameter(aset)
    copies = _prop6_copies(aset, r)
    out = find_sdr(translated_family(aset, copies))
    if not isinstance(out, HallViolator):
        index_of = {a: i for i, a in enumerate(offsets)}
        reps = iter(out.representatives)
        pairs = []
        for i, (a, n) in enumerate(zip(offsets, copies)):
            for rep in islice(reps, n):
                j = index_of[rep - a]
                pairs.append((i, j) if i <= j else (j, i))
        out = tuple(pairs)
    return OffsetProfile(r, out, bezout(offsets))


def prop6_lower_bound(L: LayeredSet) -> int:
    """Hall-certified lower bound on the full layered sumset: each SDR
    representative a_i + a_j contributes |B_i + B_j| at a distinct first
    coordinate.  Always <= |B~+B~|."""
    matching = L.profile.matching
    if isinstance(matching, HallViolator):
        raise BoundViolation(
            f"SDR absent for offsets {L.offsets()}: violator "
            f"{matching.indices}")
    bound, total = L.flat.bound, L.flat.total
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


def coset_quotient(L: LayeredSet) -> LayeredSet:
    """The layered set (Z/|H|Z, B_i'') with B_i'' = {(m - c_i)/step : m in
    B_i}, c_i = a_i*x + y, where B_i lies inside c_i + H (`L.placement`).
    Each B_i is rotated by -c_i into H and its multiples of the step are
    packed down (`gather`).  B_i + B_j = (a_i + a_j)x + 2y + step(B_i'' +
    B_j''), and u -> c + step*u is injective on Z/|H|Z, so every pair of
    row k moves by the same (a_i + a_j)x + 2y = kx + 2y: the rows and the
    pair sums keep their sizes, and `flatten_sumset` of the quotient
    equals `flatten_sumset(L)`.  0 stays in the first layer: c_1 = y,
    which the placement takes as min B_1 = 0 reduced mod the step."""
    h, x, y = L.placement
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

    h, x, y = L.placement

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
    """Every layer is a full coset of H: one shape of equality in the (max
    a_i)|H| comparison, not the only one (156 of 1615 equalities in `campaign
    --mode random --count 20000 --seed 1 --density 0 --epsilon 0.3`)."""
    return all(n == h.order and containing_coset(b, h) is not None
               for n, (_, b) in zip(L.sizes, L.layers))

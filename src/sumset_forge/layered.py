"""The layered set union of {a_i} x B_i inside Z x Z/dZ and every conclusion
checked against it: the Hall-certified lower bounds, the max-offset bound, the
structure finder (subgroup + affine coset placement), the size partition, and
the (max a_i)|H| comparison.

First coordinates add as integers (no wraparound), second coordinates mod d.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import Optional, Union

from .classical_checks import CheckOutcome
from .group_core import (CyclicGroup, ResidueSet, Subgroup, containing_coset,
                         subgroups)
from .hall_bounds import BoundViolation, HallViolator, find_sdr, r_parameter
from .rectify import AffineAssignment, solve_affine
from .sumset_engine import IntegerSet, sumset

INEQ7_STRICT = "strict"
INEQ7_EQUALITY = "equality"
INEQ7_VIOLATED = "violated"

# doubling thresholds by layer count; outside this domain nothing applies
TAU = {4: Fraction(9, 4), 5: Fraction(12, 5)}


def tau(s: int) -> Optional[Fraction]:
    if s < 4:
        return None
    return TAU.get(s, Fraction(5, 2))


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
        g = 0
        for a in offsets:
            g = gcd(g, a)
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

    def offset_set(self) -> IntegerSet:
        return IntegerSet.from_members(self.offsets())

    def size(self) -> int:
        return sum(len(b) for _, b in self.layers)

    def max_offset(self) -> int:
        return self.layers[-1][0]

    @cached_property
    def flat(self) -> "LayeredSumset":
        """B~ + B~, computed on first use and shared by every check.  The
        cache lives in the instance __dict__, outside the compared fields."""
        return flatten_sumset(self)


@dataclass(frozen=True)
class LayeredSumset:
    entries: tuple[tuple[int, ResidueSet], ...]
    pair_sizes: tuple[tuple[int, ...], ...]   # [i][j] = |B_i + B_j|

    def total_size(self) -> int:
        return sum(len(b) for _, b in self.entries)


@dataclass(frozen=True)
class StructureWitness:
    subgroup: Subgroup
    x: int
    y: int
    j: int                    # layer index maximizing |B_j|
    size_bound: bool          # |H| < (3/2) * max_i |B_i|
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


@dataclass(frozen=True)
class SizePartition:
    u_indices: tuple[int, ...]
    v_indices: tuple[int, ...]
    w_indices: tuple[int, ...]

    @property
    def u(self) -> int:
        return len(self.u_indices)

    @property
    def v(self) -> int:
        return len(self.v_indices)

    @property
    def w(self) -> int:
        return len(self.w_indices)


def flatten_sumset(L: LayeredSet) -> LayeredSumset:
    """Exact sumset of the layered set: entry at first coordinate k is the
    union of B_i + B_j over offset pairs with a_i + a_j = k.  The size of
    every pairwise B_i + B_j is kept as well, in a symmetric table."""
    by_k: dict[int, ResidueSet] = {}
    n = L.s
    pair_sizes = [[0] * n for _ in range(n)]
    for i in range(n):
        ai, bi = L.layers[i]
        for j in range(i, n):
            aj, bj = L.layers[j]
            k = ai + aj
            piece = sumset(bi, bj)
            pair_sizes[i][j] = pair_sizes[j][i] = len(piece)
            by_k[k] = piece if k not in by_k else by_k[k].union(piece)
    return LayeredSumset(tuple(sorted(by_k.items())),
                         tuple(map(tuple, pair_sizes)))


def doubling_ratio(L: LayeredSet) -> Fraction:
    return Fraction(L.flat.total_size(), L.size())


def is_applicable(L: LayeredSet) -> bool:
    t = tau(L.s)
    return t is not None and doubling_ratio(L) < t


def _prop6_family(L: LayeredSet) -> tuple[list[IntegerSet], list[int]]:
    """Translated-copy family over the offsets plus, per copy, which layer
    index it charges.  Uses the stronger R=2 / R=3 families when the offset
    set actually realizes R = max - s + 3; the generic family otherwise."""
    aset = L.offset_set()
    s = L.s
    r = r_parameter(aset)
    offsets = L.offsets()
    bound = 2 * aset.max() + 1
    family: list[IntegerSet] = []
    charge: list[int] = []
    special = (r in (2, 3)) and (aset.max() == s + r - 3)
    for idx in range(s):
        if special:
            copies = s if idx == 0 else (2 if (r == 3 and idx == 1) else 1)
        else:
            copies = s - 1 if idx == 0 else (2 if idx + 1 <= r else 1)
        shifted = IntegerSet(bound, aset.bits << offsets[idx])
        for _ in range(copies):
            family.append(shifted)
            charge.append(idx)
    return family, charge


def prop6_lower_bound(L: LayeredSet) -> int:
    """Hall-certified lower bound on the full layered sumset: each SDR
    representative a_i + a_j contributes |B_i + B_j| at a distinct first
    coordinate.  Always <= |B~+B~|."""
    family, charge = _prop6_family(L)
    out = find_sdr(family)
    if isinstance(out, HallViolator):
        raise BoundViolation(
            f"SDR absent for offsets {L.offsets()}: violator {out.indices}")
    offsets = L.offsets()
    index_of = {a: i for i, a in enumerate(offsets)}
    bound = 0
    for i, rep in zip(charge, out.representatives):
        j = index_of[rep - offsets[i]]
        bound += L.flat.pair_sizes[i][j]
    total = L.flat.total_size()
    if bound > total:
        raise BoundViolation(
            f"certified bound {bound} exceeds |B~+B~| = {total}")
    return bound


def corollary1_check(L: LayeredSet) -> bool:
    """|B~+B~| - |B~| >= (s-2)|B_1| + |B_2| + ... + |B_R| with the layer
    sizes taken in descending order; R comes from the offsets as given."""
    sizes = sorted((len(b) for _, b in L.layers), reverse=True)
    r = r_parameter(L.offset_set())
    rhs = (L.s - 2) * sizes[0] + sum(sizes[1:r])
    return L.flat.total_size() - L.size() >= rhs


def check_prop7(L: LayeredSet) -> CheckOutcome:
    """max a_i < 1.5 s under the small-doubling hypothesis."""
    name = "prop7"
    t = tau(L.s)
    if t is None:
        return CheckOutcome(name, applicable=False, witness="out-of-range s")
    if not is_applicable(L):
        return CheckOutcome(name, applicable=False)
    return CheckOutcome(name, True, 2 * L.max_offset() < 3 * L.s,
                        witness=(L.max_offset(), L.s))


def _confinement(L: LayeredSet, h: Subgroup) -> Optional[list[int]]:
    """Coset representatives (mod d/|H|) when every layer is confined to a
    single coset of H; None otherwise."""
    reps = []
    for _, b in L.layers:
        rep = containing_coset(b, h)
        if rep is None:
            return None
        reps.append(rep)
    return reps


def find_structure(L: LayeredSet
                   ) -> Union[StructureWitness, NotApplicable, ConclusionFailed]:
    """Search for the structural witness: the smallest subgroup H such that
    every B_i sits inside a_i*x + y + H for some (x, y), then check every
    stated conclusion against it."""
    t = tau(L.s)
    ratio = doubling_ratio(L)
    if t is None:
        return NotApplicable(f"no doubling threshold for s={L.s}", ratio)
    if ratio >= t:
        return NotApplicable(f"doubling {ratio} >= {t}", ratio)

    found = None
    for h in subgroups(L.group):
        reps = _confinement(L, h)
        if reps is None:
            continue
        q = h.step                     # order of the quotient group
        assign = AffineAssignment(L.offset_set(), tuple(reps), q)
        xy = solve_affine(assign)
        if xy is None:
            continue
        found = (h, xy[0], xy[1])
        break
    if found is None:
        # the full group confines everything with (x, y) = (0, 0)
        return ConclusionFailed("coset-structure",
                                "no confining subgroup found")
    h, x, y = found

    if not 2 * L.max_offset() < 3 * L.s:
        return ConclusionFailed(
            "max-offset-bound", f"max a_i = {L.max_offset()} >= 1.5*{L.s}")

    sizes = [len(b) for _, b in L.layers]
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
                     f"{L.flat.total_size() - L.size()}")
    return StructureWitness(h, x, y, j, size_bound=True, ineq7=status)


def verify_witness(L: LayeredSet, w: StructureWitness) -> bool:
    """Re-verify the coset containments and the 2/3 witness elementwise."""
    h = w.subgroup
    d = L.d
    for a, b in L.layers:
        target = (a * w.x + w.y) % d
        if any((m - target) % h.step != 0 for m in b):
            return False
    return 3 * len(L.layers[w.j][1]) >= 2 * h.order


def uvw_partition(L: LayeredSet, h: Subgroup) -> SizePartition:
    """Layers split by size against |H|: U at >= 2/3, W below 1/3, V between."""
    u, v, w = [], [], []
    for i, (_, b) in enumerate(L.layers):
        n3 = 3 * len(b)
        if n3 >= 2 * h.order:
            u.append(i)
        elif n3 < h.order:
            w.append(i)
        else:
            v.append(i)
    return SizePartition(tuple(u), tuple(v), tuple(w))


def check_lemma5(L: LayeredSet, h: Subgroup) -> CheckOutcome:
    """u >= w + 2R - 3 under the small-doubling hypothesis, checked exactly as
    stated.  As stated it cannot hold when s < 2R - 3: every layer lies in
    exactly one of U, V, W, so u + w <= s, and the inequality would force
    s >= 2R - 3.  Applicable instances with s < 2R - 3 exist (README, d=30),
    and on them this check reports a violation."""
    name = "lemma5"
    if not is_applicable(L):
        return CheckOutcome(name, applicable=False)
    part = uvw_partition(L, h)
    r = r_parameter(L.offset_set())
    return CheckOutcome(name, True, part.u >= part.w + 2 * r - 3,
                        witness=(part.u, part.v, part.w, r))


def check_ineq7(L: LayeredSet, h: Subgroup) -> str:
    """(max a_i)|H| against |B~+B~| - |B~|, exactly."""
    lhs = L.max_offset() * h.order
    rhs = L.flat.total_size() - L.size()
    if lhs < rhs:
        return INEQ7_STRICT
    if lhs == rhs:
        return INEQ7_EQUALITY
    return INEQ7_VIOLATED


def is_coset_saturated(L: LayeredSet, h: Subgroup) -> bool:
    """Every layer is a full coset of H (the known extremal shape for
    equality in the (max a_i)|H| comparison)."""
    return all(len(b) == h.order and containing_coset(b, h) is not None
               for _, b in L.layers)

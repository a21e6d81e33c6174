"""Closure-based rectification: the b+c-a closure operator, adjacent seed
pairs, equal-difference pair classes, and the affine solver x_i = a_i*x + y.

The quotient group is represented by its order q alone (a quotient of a cyclic
group is cyclic); assignment values are residues mod q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .sumset_engine import IntegerSet, sumset_int


@dataclass(frozen=True)
class ClosureState:
    current: IntegerSet
    ambient: IntegerSet
    steps: int


@dataclass(frozen=True)
class AffineAssignment:
    """One residue mod q per member of the a-set."""

    aset: IntegerSet
    values: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("quotient order must be >= 1")
        if len(self.values) != len(self.aset):
            raise ValueError("one value per a-set member required")
        object.__setattr__(self, "values",
                           tuple(v % self.q for v in self.values))


@dataclass(frozen=True)
class PairClassPartition:
    k: int
    classes: tuple[tuple[tuple[int, int], ...], ...]


def closure_step(g: IntegerSet, ambient: IntegerSet) -> IntegerSet:
    """g union {b+c-a : a,b,c in g} intersected with the ambient set."""
    if not g.issubset(ambient):
        raise ValueError("seed must be contained in the ambient set")
    pair = sumset_int(g, g).bits
    out = g.bits
    for a in g:
        out |= pair >> a
    return IntegerSet(ambient.bound, out & ambient.bits)


def good_closure(g: IntegerSet, ambient: IntegerSet) -> ClosureState:
    """Least fixpoint of closure_step; each productive step adds at least one
    element, so at most |ambient| iterations run."""
    if g.bits & ~ambient.bits:
        raise ValueError("seed must be contained in the ambient set")
    current = IntegerSet(ambient.bound, g.bits)
    steps = 0
    for _ in range(len(ambient)):
        nxt = closure_step(current, ambient)
        if nxt.bits == current.bits:
            break
        current = nxt
        steps += 1
    return ClosureState(current, ambient, steps)


def find_seed_pair(a: IntegerSet) -> Optional[tuple[int, int]]:
    """An adjacent pair (a_i, a_i+1) whose closure inside `a` recovers all of
    `a`.  Requires a within [0, s-1] for s = a.bound > 3 and |a| >= 2s/3 + 1;
    existence is then guaranteed, so None is a reportable violation."""
    s = a.bound
    if s <= 3:
        raise ValueError(f"need ambient bound > 3, got {s}")
    if 3 * len(a) < 2 * s + 3:
        raise ValueError(f"need |A| >= 2s/3+1: |A|={len(a)}, s={s}")
    for m in a:
        if m + 1 in a:
            seed = IntegerSet.of(a.bound, (m, m + 1))
            if good_closure(seed, a).current.bits == a.bits:
                return (m, m + 1)
    return None


def parallelogram_holds(assign: AffineAssignment
                        ) -> Optional[tuple[int, int, int, int]]:
    """None when every equal-difference index quadruple has equal value
    differences mod q; otherwise a violating quadruple (i, j, u, v) with
    a_j - a_i = a_v - a_u but x_j - x_i != x_v - x_u."""
    members = assign.aset.members()
    q = assign.q
    first: dict[int, tuple[int, int, int]] = {}
    for i in range(len(members)):
        for j in range(len(members)):
            if i == j:
                continue
            k = members[j] - members[i]
            dv = (assign.values[j] - assign.values[i]) % q
            if k not in first:
                first[k] = (i, j, dv)
            elif first[k][2] != dv:
                u, v, _ = first[k]
                return (u, v, i, j)
    return None


def sk_classes(assign: AffineAssignment, k: int) -> PairClassPartition:
    """The pairs (a_i, a_j) with a_j - a_i = k, partitioned by value
    difference mod q (order of first occurrence)."""
    if k < 1:
        raise ValueError("difference must be >= 1")
    members = assign.aset.members()
    buckets: dict[int, list[tuple[int, int]]] = {}
    for i, ai in enumerate(members):
        for j, aj in enumerate(members):
            if aj - ai == k:
                dv = (assign.values[j] - assign.values[i]) % assign.q
                buckets.setdefault(dv, []).append((ai, aj))
    return PairClassPartition(k, tuple(tuple(b) for b in buckets.values()))


def _verify(assign: AffineAssignment, x: int, y: int) -> bool:
    q = assign.q
    return all((a * x + y) % q == v
               for a, v in zip(assign.aset, assign.values))


def solve_affine_bruteforce(assign: AffineAssignment) -> Optional[tuple[int, int]]:
    """Lexicographically least (x, y) in [0,q)^2 with x_i = a_i*x + y, if any."""
    for x in range(assign.q):
        for y in range(assign.q):
            if _verify(assign, x, y):
                return (x, y)
    return None


def _bezout(members) -> tuple[int, list[int]]:
    """(g, c) with g = gcd(members) and sum c_i * m_i = g, by extended Euclid
    folded over the members."""
    g, coeffs = 0, []
    for m in members:
        a, b, u0, u1, v0, v1 = g, m, 1, 0, 0, 1
        # invariant: u0*g + v0*m == a and u1*g + v1*m == b
        while b:
            t = a // b
            a, b = b, a - t * b
            u0, u1 = u1, u0 - t * u1
            v0, v1 = v1, v0 - t * v1
        g, coeffs = a, [c * u0 for c in coeffs] + [v0]
    return g, coeffs


def solve_affine(assign: AffineAssignment) -> Optional[tuple[int, int]]:
    """(x, y) with x_i = a_i*x + y in Z/qZ for all i, or None.

    a_1 = 0 forces y = x_1.  With Bezout coefficients sum c_i a_i = 1, any
    solution has x = sum c_i (a_i x) = sum c_i (x_i - y), so that candidate is
    the only one: it is verified and returned, and the result equals the
    brute-force search's.
    """
    if 0 not in assign.aset:
        raise ValueError("a-set must contain 0")
    g, coeffs = _bezout(assign.aset)
    if g > 1:
        raise ValueError(f"gcd of nonzero a_i is {g}, expected 1")
    q = assign.q
    y = assign.values[0]
    x = sum(c * (v - y) for c, v in zip(coeffs, assign.values)) % q
    return (x, y) if _verify(assign, x, y) else None

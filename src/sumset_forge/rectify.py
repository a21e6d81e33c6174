"""Closure-based rectification: the b+c-a closure operator, adjacent seed
pairs, and the affine solver x_i = a_i*x + y.

The quotient group is represented by its order q alone (a quotient of a cyclic
group is cyclic); assignment values are residues mod q.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

from .sumset_engine import IntegerSet, sumset_int


@dataclass(frozen=True)
class AffineAssignment:
    """One residue mod q per member of the a-set, read in ascending order
    from a tuple (the offsets, in `coset_placement`) or an `IntegerSet`."""

    aset: Union[tuple[int, ...], IntegerSet]
    values: tuple[int, ...]
    q: int

    def __post_init__(self):
        if self.q < 1:
            raise ValueError("quotient order must be >= 1")
        if len(self.values) != len(self.aset):
            raise ValueError("one value per a-set member required")
        object.__setattr__(self, "values",
                           tuple(v % self.q for v in self.values))


def closure_step(g: IntegerSet, ambient: IntegerSet) -> IntegerSet:
    """g union {b+c-a : a,b,c in g} intersected with the ambient set."""
    if not g.issubset(ambient):
        raise ValueError("seed must be contained in the ambient set")
    pair = sumset_int(g, g).bits
    out = g.bits
    for a in g:
        out |= pair >> a
    return IntegerSet(ambient.bound, out & ambient.bits)


def good_closure(g: IntegerSet, ambient: IntegerSet) -> IntegerSet:
    """Least fixpoint of closure_step; each productive step adds at least one
    element, so at most |ambient| iterations run."""
    if g.bits & ~ambient.bits:
        raise ValueError("seed must be contained in the ambient set")
    current = IntegerSet(ambient.bound, g.bits)
    for _ in range(len(ambient)):
        nxt = closure_step(current, ambient)
        if nxt.bits == current.bits:
            break
        current = nxt
    return current


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
            if good_closure(seed, a).bits == a.bits:
                return (m, m + 1)
    return None


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


def bezout(aset: Union[tuple[int, ...], IntegerSet]) -> tuple[int, ...]:
    """Coefficients c with sum c_i a_i = 1, in ascending member order, over
    an a-set (a tuple or an `IntegerSet`) holding 0 whose nonzero members
    have gcd 1 (the singleton {0} gets (0,)), by extended Euclid folded
    over the members.  Each step scales the coefficients so far by u0;
    once the gcd is 1, u0 is 1, so they are rescaled only while it is not,
    and a step costs O(1) from there on rather than O(s)."""
    if 0 not in aset:
        raise ValueError("a-set must contain 0")
    g, coeffs = 0, []
    for m in aset:
        a, b, u0, u1, v0, v1 = g, m, 1, 0, 0, 1
        # invariant: u0*g + v0*m == a and u1*g + v1*m == b
        while b:
            t = a // b
            a, b = b, a - t * b
            u0, u1 = u1, u0 - t * u1
            v0, v1 = v1, v0 - t * v1
        if u0 != 1:
            coeffs = [c * u0 for c in coeffs]
        g = a
        coeffs.append(v0)
    if g > 1:
        raise ValueError(f"gcd of nonzero a_i is {g}, expected 1")
    return tuple(coeffs)


def solve_affine(assign: AffineAssignment, coeffs: tuple[int, ...]
                 ) -> Optional[tuple[int, int]]:
    """(x, y) with x_i = a_i*x + y in Z/qZ for all i, or None, given the
    a-set's `bezout` coefficients (sum c_i a_i = 1; 0 for {0}).  a_1 = 0
    forces y = x_1, and any solution has x = sum c_i (a_i x) = sum c_i
    (x_i - y): that one candidate is verified and returned, so the result
    equals the brute-force search's.  A tuple a-set is read in s steps; an
    `IntegerSet` walks a bitmap as wide as its largest member."""
    aset = assign.aset
    if 0 not in aset or (sum(c * a for c, a in zip(coeffs, aset))
                         != int(len(aset) > 1)):
        raise ValueError("Bezout coefficients do not fit the a-set")
    q = assign.q
    y = assign.values[0]
    x = sum(c * (v - y) for c, v in zip(coeffs, assign.values)) % q
    return (x, y) if _verify(assign, x, y) else None

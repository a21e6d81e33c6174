"""Executable oracles for the background theorems and coset-confinement results.

Every check reports `applicable` (did the hypothesis hold) separately from
`holds` (did the conclusion hold); a violation only counts when the hypothesis
genuinely held.  Threshold comparisons (3/2, 3/4, 2N/3+1, ...) are done by
integer cross-multiplication, never floating point.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Any, Optional

from .group_core import (ResidueSet, Subgroup, confining_subgroup,
                         containing_coset, residues)
from .sumset_engine import IntegerSet, stabilizer, sumset, sumset_int


@dataclass(frozen=True)
class CheckOutcome:
    name: str
    applicable: bool
    holds: Optional[bool] = None
    witness: Any = None

    @property
    def violated(self) -> bool:
        return self.applicable and self.holds is False


def kneser_decomposition(a: ResidueSet, b: ResidueSet) -> CheckOutcome:
    """|A+B| = |A+H| + |B+H| - |H| with H = stabilizer(A+B), when |A+B| < |A|+|B|.
    X+H is the union of the cosets of H that X meets, so
    |X+H| = |H| * |{x mod step : x in X}|, counted from the bitmap of those
    residues (`residues`) with no member pass."""
    name = "kneser"
    if not a or not b:
        raise ValueError("empty input set")
    s = sumset(a, b)
    if len(s) >= len(a) + len(b):
        return CheckOutcome(name, applicable=False)
    h = stabilizer(s)
    step = h.step
    cosets = (residues(a.bits, step).bit_count()
              + residues(b.bits, step).bit_count())
    return CheckOutcome(name, True, len(s) == h.order * (cosets - 1),
                        witness=h)


def _coset_witness(s: ResidueSet, order_bound_num: int, order_bound_den: int,
                   bound_ref_size: int) -> Optional[tuple[Subgroup, int]]:
    """Least subgroup H with den*|H| < num*ref and the sumset S = A+B inside
    one coset of H.  Every H confining S contains the smallest one, so if
    that one breaks the order bound, every other candidate does too."""
    h = confining_subgroup(s)
    if order_bound_den * h.order >= order_bound_num * bound_ref_size:
        return None
    return (h, containing_coset(s, h))


def prop1_single_coset(a: ResidueSet, b: ResidueSet) -> CheckOutcome:
    """With |A| >= |B|, |A+B| < (3/2)|A| and |B| > (3/4)|A|: A+B lies in a
    single coset of some H with |H| < (3/2)|A|."""
    name = "prop1_single_coset"
    if not a or not b:
        raise ValueError("empty input set")
    if len(a) < len(b):
        raise ValueError("requires |A| >= |B|")
    na, nb = len(a), len(b)
    s = sumset(a, b)
    if not (2 * len(s) < 3 * na and 4 * nb > 3 * na):
        return CheckOutcome(name, applicable=False)
    w = _coset_witness(s, 3, 2, na)
    return CheckOutcome(name, True, w is not None, witness=w)


def prop2_single_coset(a: ResidueSet, b: ResidueSet) -> CheckOutcome:
    """|A+B| < 2|B| and |B| < (3/4)|A|: A+B lies in a single coset of some H
    with |H| < 2|B|."""
    name = "prop2_single_coset"
    if not a or not b:
        raise ValueError("empty input set")
    na, nb = len(a), len(b)
    s = sumset(a, b)
    if not (len(s) < 2 * nb and 4 * nb < 3 * na):
        return CheckOutcome(name, applicable=False)
    w = _coset_witness(s, 2, 1, nb)
    return CheckOutcome(name, True, w is not None, witness=w)


def lemma1_all_differences(a: IntegerSet) -> CheckOutcome:
    """A in [0,N-1] with |A| >= 2N/3 + 1 realizes every difference 1 <= delta < |A|."""
    name = "lemma1_all_differences"
    n = a.bound
    size = len(a)
    if 3 * size < 2 * n + 3:
        return CheckOutcome(name, applicable=False)
    for delta in range(1, size):
        if not (a.bits >> delta) & a.bits:
            return CheckOutcome(name, True, False, witness=delta)
    return CheckOutcome(name, True, True)


def check_lev_bound(u: IntegerSet, v: IntegerSet) -> CheckOutcome:
    """|U+V| >= min(u_s + t, s + 2t - 3) for V a subset of U with min U = 0 and
    gcd of nonzero elements 1; when U != V and u_s = s + t - 2, additionally
    |U+V| >= u_s + t."""
    name = "lev_bound"
    # a nonempty V inside U makes U nonempty too
    if not (v and v.issubset(u) and u.min() == 0 and gcd(*u) == 1):
        return CheckOutcome(name, applicable=False)
    s, t, us = len(u), len(v), u.max()
    size = len(sumset_int(u, v))
    ok = size >= min(us + t, s + 2 * t - 3)
    if u.bits != v.bits and us == s + t - 2:
        ok = ok and size >= us + t
    return CheckOutcome(name, True, ok, witness=(size, us, s, t))

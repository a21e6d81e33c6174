import random
from itertools import combinations
from math import gcd

import pytest
from hypothesis import strategies as st

from sumset_forge.group_core import CyclicGroup, ResidueSet
from sumset_forge.layered import QUOTIENT_WIDTH, LayeredSet, offset_profile
from sumset_forge.sumset_engine import IntegerSet


def naive_mod_sumset(a, b, d):
    return {(x + y) % d for x in a for y in b}


def naive_int_sumset(a, b):
    return {x + y for x in a for y in b}


def iset(members) -> IntegerSet:
    """The integer set of `members` in its tightest bound, max + 1."""
    ms = list(members)
    return IntegerSet.of(max(ms) + 1, ms)


def all_offset_sets(s: int, max_a: int):
    """Oracle for the exhaustive campaign's domain: every offset set A' with
    |A'| = s, 0 in A', max <= max_a and gcd of the nonzero members 1, its
    nonzero members in lexicographic order, as `combinations` yields them."""
    for rest in combinations(range(1, max_a + 1), s - 1):
        g = 0
        for m in rest:
            g = gcd(g, m)
        if g == 1:
            yield IntegerSet.of(rest[-1] + 1, (0,) + rest)


def random_residue_set(rng: random.Random, d: int, nonempty=True) -> ResidueSet:
    g = CyclicGroup(d)
    lo = 1 if nonempty else 0
    n = rng.randint(lo, d)
    return ResidueSet.of(g, rng.sample(range(d), n))


@st.composite
def any_layered_sets(draw):
    """Valid layered sets of shapes the generator never draws: each layer
    random members, one member, the whole group or a part of a_i*x + H for
    a drawn H and x, and sometimes one stray member more, translated so
    that 0 is in B_1; d = 1, d up to 40, or d on either side of
    QUOTIENT_WIDTH.  Half of them have only whole groups and layers over
    three quarters of their coset, and offsets often within s + 2, so
    that the doubling hypothesis often holds."""
    d = draw(st.integers(2, 40) | st.sampled_from(
        [1, QUOTIENT_WIDTH - 8, QUOTIENT_WIDTH, QUOTIENT_WIDTH + 16]))
    order = draw(st.sampled_from(CyclicGroup(d).divisors()))
    x = draw(st.integers(0, d - 1))
    s = draw(st.integers(2, 9))
    top = s - 1 + draw(st.integers(0, 2) | st.integers(0, 2 * s))
    rest = sorted(draw(st.sets(st.integers(1, top), min_size=s - 1,
                               max_size=s - 1)))
    if gcd(*rest) != 1:         # then 1 is not in rest
        rest[0] = 1
    offsets = [0] + rest
    rnd = draw(st.randoms(use_true_random=False))
    dense = draw(st.booleans())
    kinds = ("full", "coset") if dense else ("random", "one", "full",
                                             "coset")
    least = -(-3 * order // 4) if dense else 1
    member = st.integers(0, d - 1)
    layers = []
    for a in offsets:
        kind = draw(st.sampled_from(kinds))
        if kind == "random":
            layers.append(draw(st.sets(member, min_size=1, max_size=12)))
        elif kind == "one":
            layers.append({draw(member)})
        elif kind == "full":
            layers.append(set(range(d)))
        else:
            layers.append({(a * x + j * (d // order)) % d for j in rnd.sample(
                range(order), draw(st.integers(least, order)))})
    if draw(st.integers(0, 3)) == 0:
        layers[draw(st.integers(0, s - 1))].add(draw(member))
    b0 = rnd.choice(sorted(layers[0]))
    return LayeredSet.of(d, [(a, {(m - b0) % d for m in b})
                             for a, b in zip(offsets, layers)])


@pytest.fixture
def rng():
    return random.Random(0xC0FFEE)


@pytest.fixture
def empty_memo():
    """An empty offset-profile memo, emptied again afterwards, so profiles
    computed under a monkeypatch never reach another test."""
    offset_profile.cache_clear()
    yield
    offset_profile.cache_clear()

import random
from itertools import combinations
from math import gcd

import pytest

from sumset_forge.group_core import CyclicGroup, ResidueSet
from sumset_forge.layered import offset_profile
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

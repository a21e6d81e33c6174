import random

import pytest

from sumset_forge.group_core import CyclicGroup, ResidueSet
from sumset_forge.layered import offset_profile


def naive_mod_sumset(a, b, d):
    return {(x + y) % d for x in a for y in b}


def naive_int_sumset(a, b):
    return {x + y for x in a for y in b}


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

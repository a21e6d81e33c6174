"""`verify_instance` against the set-based reference of `reference_checks`,
line for line, on instances that take every path of `flatten_sumset`."""

import json
from collections import Counter
from math import gcd

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import any_layered_sets
from reference_checks import reference_lines
from sumset_forge.group_core import BUILD_WIDTH, SCAN_WIDTH, CyclicGroup
from sumset_forge.harness import (GenParams, Tally, _rng_for,
                                  canonical_instances, generate_instance,
                                  instance_to_json, verify_instance)
from sumset_forge.layered import DENSE_SPAN, QUOTIENT_WIDTH, LayeredSet

LARGE_S = dict(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
               max_a_slack=8)
LARGE_D = dict(d_values=(8192, 16384))

# (CI row, its generator parameters, instances drawn): the first instances
# of seed 1, as each row's campaign draws them
ROWS = [("default", GenParams(), 300),
        ("offcoset", GenParams(density=0, epsilon=0.3), 300),
        ("wide", GenParams(max_a_slack=1000), 300),
        ("max-a-slack8", GenParams(max_a_slack=8), 300),
        ("large-s", GenParams(**LARGE_S), 60),
        ("large-s-sparse", GenParams(density=0, **LARGE_S), 100),
        ("hundreds", GenParams(**dict(LARGE_S, s_min=100, s_max=200,
                                      max_a_slack=3)), 40),
        ("larged-sparse", GenParams(density=0, **LARGE_D), 100),
        ("larged-offcoset", GenParams(epsilon=0.3, **LARGE_D), 60),
        # not a CI row: offcoset at the slack of wide.  Layers that fill
        # over half of their coset make every sum in a row the same coset,
        # so only sparse layers on wide offsets tell apart the by-index
        # rows' pair sums
        ("wide-offcoset", GenParams(density=0, epsilon=0.3,
                                    max_a_slack=1000), 300)]

# the reference's pair sums cost `pair_work`; a drawn instance above this
# is left out (at d = 8192, a layer can fill a coset of thousands), so the
# test stays a few seconds
WORK = 200_000


def flatten_path(L: LayeredSet) -> str:
    """The branch of `flatten_sumset` that counts L's sums, by its own
    dispatch: the pigeonhole image, the quotient in Z/|H|Z, or the packed
    pass with slots by offset or by index."""
    sizes, dense = L.sizes, L.max_offset() < DENSE_SPAN * L.s
    if (dense and 2 * min(sizes) > max(sizes)
            and 2 * min(sizes) * L.confinement[0] > L.d):
        return "image"
    if L.d >= QUOTIENT_WIDTH and L.placement[0].order < L.d:
        return "quotient"
    return "offset" if dense else "index"


def pair_work(L: LayeredSet) -> int:
    """The reference's pair sums cost, sum |B_i||B_j| over i <= j."""
    n = L.sizes
    return sum(n[k] * sum(n[k:]) for k in range(len(n)))


def instances():
    """The battery, prop7's tight family on both sides of its bound, and
    the ROWS' draws within WORK."""
    yield from (L for _, L in canonical_instances())
    for s in range(6, 10):
        t = -(-3 * s // 2) - 1
        for top in (t, t + 1):
            for d in (1, 4, 12):
                yield LayeredSet.of(d, [(a, range(d))
                                        for a in [*range(s - 1), top]])
    for _, p, count in ROWS:
        for i in range(count):
            L = generate_instance(p, _rng_for(1, i))
            if pair_work(L) <= WORK:
                yield L


def checked_lines(L: LayeredSet) -> list[str]:
    """The `check` lines of `verify_instance` on L, asserted equal to the
    reference's on L's instance document."""
    lines = verify_instance(L, Tally())
    doc = json.loads(instance_to_json(L))
    assert lines == reference_lines(doc, L.profile.matching), doc
    return lines


def test_verify_matches_reference(empty_memo):
    """Every `check` line of `verify_instance` equals the reference's, from
    sets and double loops, on instances that reach each flatten path at
    least 3 times, and every structure outcome the rows draw."""
    paths, outcomes = Counter(), Counter()
    for L in instances():
        lines = checked_lines(L)
        paths[flatten_path(L)] += 1
        outcomes[lines[5].split()[2]] += 1
    assert min(paths[p] for p in ("image", "quotient", "offset",
                                  "index")) >= 3, paths
    assert min(outcomes[o] for o in ("witness", "not_applicable")) >= 3


@settings(max_examples=100, deadline=None)
@given(L=any_layered_sets())
def test_verify_matches_reference_on_any_layered_set(L):
    """The reference's lines on random, coset, stray and one-member
    layers, which the generator never draws, within WORK."""
    assume(pair_work(L) <= WORK)
    checked_lines(L)


# each side of the widths where the flatten starts taking `coset_quotient`
# (QUOTIENT_WIDTH), a bitmap's members start coming from one binary string
# (SCAN_WIDTH) and `Bitmap.bits_of` starts building in a bytearray
# (BUILD_WIDTH)
SPARSE_D = (QUOTIENT_WIDTH - 2, QUOTIENT_WIDTH, SCAN_WIDTH - 4,
            SCAN_WIDTH, SCAN_WIDTH + 2, BUILD_WIDTH - 2, BUILD_WIDTH,
            BUILD_WIDTH + 6)


@st.composite
def sparse_layered_sets(draw):
    """Layers of 1 to 3 members, each inside a_i*x + H, and sometimes one
    member more off its coset, at each d of SPARSE_D; offsets within s + 2
    or past DENSE_SPAN * s.  H of order 2 or 3, with layers of 2 or 3
    members on dense offsets, takes the pigeonhole image; a proper H with
    a one-member layer takes the quotient from QUOTIENT_WIDTH on."""
    d = draw(st.sampled_from(SPARSE_D))
    divisors = CyclicGroup(d).divisors()
    order = draw(st.sampled_from([h for h in divisors if h in (2, 3)])
                 | st.sampled_from(divisors))
    step = d // order
    x = draw(st.integers(0, d - 1))
    s = draw(st.integers(2, 9))
    top = s - 1 + draw(st.integers(0, 2) | st.integers(s + 1, 3 * s))
    rest = sorted(draw(st.sets(st.integers(1, top), min_size=s - 1,
                               max_size=s - 1)))
    if gcd(*rest) != 1:         # then 1 is not in rest
        rest[0] = 1
    offsets = [0] + rest
    least = draw(st.integers(1, 3))
    layers = []
    for a in offsets:
        k = min(order, draw(st.integers(least, 3)))
        js = draw(st.sets(st.integers(0, order - 1), min_size=k, max_size=k))
        layers.append({(a * x + j * step) % d for j in js})
    if draw(st.booleans()):
        # one more member, at 1 from another (then H is all of Z/dZ) or
        # anywhere
        i = draw(st.integers(0, s - 1))
        layers[i].add((min(layers[i]) + draw(st.just(1)
                                             | st.integers(1, d - 1))) % d)
    b0 = min(layers[0])
    return LayeredSet.of(d, [(a, {(m - b0) % d for m in b})
                             for a, b in zip(offsets, layers)])


def test_verify_matches_reference_on_sparse_sets():
    """The reference's lines on sparse layered sets across the widths
    where the bitmap helpers change method, reaching every flatten path."""
    paths = Counter()

    @settings(max_examples=200, deadline=None)
    @given(L=sparse_layered_sets())
    def check(L):
        checked_lines(L)
        paths[flatten_path(L)] += 1

    check()
    # index, the rarest path, takes about 15 of the 200 draws
    assert min(paths[p] for p in ("image", "quotient", "offset",
                                  "index")) >= 1, paths

"""`verify_instance` against the set-based reference of `reference_checks`,
line for line, on instances that take every path of `flatten_sumset`."""

import json
from collections import Counter

from reference_checks import reference_lines
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

# the reference's pair sums cost sum |B_i||B_j| over i <= j; a drawn
# instance above this is left out (at d = 8192, a layer can fill a coset of
# thousands), so the test stays a few seconds
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
            n = L.sizes
            if sum(n[k] * sum(n[k:]) for k in range(len(n))) <= WORK:
                yield L


def test_verify_matches_reference(empty_memo):
    """Every `check` line of `verify_instance` equals the reference's, from
    sets and double loops, on instances that reach each flatten path at
    least 3 times, and every structure outcome the rows draw."""
    paths, outcomes = Counter(), Counter()
    for L in instances():
        lines = verify_instance(L, Tally())
        doc = json.loads(instance_to_json(L))
        assert lines == reference_lines(doc, L.profile.matching), doc
        paths[flatten_path(L)] += 1
        outcomes[lines[5].split()[2]] += 1
    assert min(paths[p] for p in ("image", "quotient", "offset",
                                  "index")) >= 3, paths
    assert min(outcomes[o] for o in ("witness", "not_applicable")) >= 3

import dataclasses
import functools
import hashlib
import json
import os
import subprocess
import sys
import time
from collections import Counter
from itertools import combinations
from math import ceil, comb, gcd

import pytest

import sumset_forge
import sumset_forge.layered as layered
from conftest import all_offset_sets
from sumset_forge.classical_checks import CheckOutcome
from sumset_forge.cli import build_parser, main
from sumset_forge.group_core import Bitmap, CyclicGroup
from sumset_forge.hall_bounds import HallViolator
from sumset_forge.harness import (MAX_WIDTH, CapExceeded, Finding, GenParams,
                                  REPORT_VERSION, THREADS_ENV, Tally,
                                  campaign_exhaustive, campaign_random,
                                  canonical_instances, generate_instance,
                                  instance_from_doc, instance_to_json,
                                  load_instance,
                                  require_exhaustive_domain, sample_coset,
                                  verify_instance, _rng_for)
from sumset_forge.layered import LayeredSet, LayeredSetError, offset_profile


@pytest.fixture
def serial_pool(monkeypatch):
    """Campaign pools that run each worker's stride in this process, on a
    machine of four cores; yields the worker count each pool was given."""
    import os
    import sumset_forge.harness as harness
    pools = []

    class SerialPool:
        def __init__(self, max_workers, initializer):
            pools.append(max_workers)
            initializer()

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, jobs):
            return map(fn, jobs)

    monkeypatch.setattr(harness, "ProcessPoolExecutor", SerialPool)
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    yield pools


def full_coset_doc():
    return {"d": 12,
            "layers": [{"a": a, "set": [(a + k) % 12 for k in (0, 4, 8)]}
                       for a in range(6)]}


class TestInstanceIO:
    def test_round_trip(self):
        L = instance_from_doc(full_coset_doc())
        assert isinstance(L, LayeredSet)
        again = instance_from_doc(json.loads(instance_to_json(L)))
        assert again == L

    def test_to_json_writes_the_documents_json(self):
        """`instance_to_json` formats the document itself: byte for byte it
        is `json.dumps` of the dict form with sorted keys and no spaces,
        and it reads back to the same instance.  Generated instances
        (default, large-s, off-coset with single-member layers, wide
        spans, d = 8192 and 16384), the battery, and single-member layers
        at d up to 2^20."""
        def dumped(L):
            doc = {"d": L.d, "layers": [{"a": a, "set": list(b)}
                                        for a, b in L.layers]}
            return json.dumps(doc, separators=(",", ":"), sort_keys=True)

        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        instances = [L for _, L in canonical_instances()]
        for seed, (p, count) in enumerate((
                (GenParams(), 300), (large, 30),
                (GenParams(density=0, epsilon=0.3), 300),
                (GenParams(max_a_slack=1000), 100),
                (GenParams(d_values=(8192, 16384)), 4))):
            instances += [generate_instance(p, _rng_for(40 + seed, i))
                          for i in range(count)]
        top = 1 << 20
        instances += [LayeredSet.of(top, [(0, [0]), (1, [top - 1])]),
                      LayeredSet.of(top, [(0, [0, 1, top // 2]), (2, [7]),
                                          (3, [top - 2, 5])]),
                      LayeredSet.of(1, [(0, [0]), (1, [0]), (5, [0])])]
        assert min(min(L.sizes) for L in instances) == 1
        for L in instances:
            text = instance_to_json(L)
            assert text == dumped(L), L
            assert instance_from_doc(json.loads(text)) == L

    def test_validation_messages(self):
        doc = {"d": 12, "layers": [{"a": a, "set": [0]} for a in (0, 2, 4)]}
        with pytest.raises(LayeredSetError, match="gcd"):
            instance_from_doc(doc)
        doc = {"d": 12, "layers": [{"a": 0, "set": [0]}, {"a": 1, "set": []}]}
        with pytest.raises(LayeredSetError, match="empty layer"):
            instance_from_doc(doc)
        with pytest.raises(LayeredSetError, match="d"):
            instance_from_doc({"layers": []})
        with pytest.raises(LayeredSetError, match="malformed"):
            instance_from_doc({"d": 12, "layers": [{"a": 0}]})
        # only genuine JSON integers: no float truncation, no bool, no string
        for key, value in (("a", 1.7), ("set", [0, 4.9]), ("a", True),
                           ("set", [0, False]), ("a", "1")):
            doc = full_coset_doc()
            doc["layers"][1][key] = value
            with pytest.raises(LayeredSetError, match="must be an integer"):
                instance_from_doc(doc)
        for d in (12.0, True, "12"):
            with pytest.raises(LayeredSetError, match="must be an integer"):
                instance_from_doc(dict(full_coset_doc(), d=d))

    def test_load_instance(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(full_coset_doc()))
        assert load_instance(str(path)).d == 12
        path.write_text("{not json")
        with pytest.raises(LayeredSetError, match="parse error"):
            load_instance(str(path))


def generate_instance_sets(p, rng):
    """Oracle: the generator as it was, layers built as sets of members with
    the same rng draws, then `LayeredSet.of`."""
    while True:
        d = rng.choice(p.d_values)
        h = rng.choice(CyclicGroup(d).divisors())
        s = rng.randint(p.s_min, p.s_max)
        top = s - 1 + max(0, rng.choice(range(-3, p.max_a_slack + 1)))
        offsets = sorted(rng.sample(range(1, top), s - 2)) if s > 2 else []
        offsets = [0] + offsets + [top]
        if gcd(*offsets) != 1:
            continue
        step = d // h
        x = rng.randrange(d)
        lo = max(1, ceil(p.density * h))
        layers = [{(a * x + j * step) % d for j in
                   rng.sample(range(h), rng.randint(lo, h))} for a in offsets]
        if p.epsilon and rng.random() < p.epsilon:
            layers[rng.randrange(s)].add(rng.randrange(d))
        b0 = rng.choice(sorted(layers[0]))
        layers = [{(m - b0) % d for m in b} for b in layers]
        return LayeredSet.of(d, list(zip(offsets, layers)))


class TestGenerator:
    def test_bitmap_layers_match_set_oracle(self):
        """The same instances, and the rng in the same state after each, as
        the set-based generator, which draws through `random`'s own
        `choice`, `randint` and `randrange`: default, large-s, off-coset
        (density 0, epsilon 0.3), large-d, s = 100..200, wide-span (max a
        slack 1000) and epsilon 1 parameters, the last drawing a stray
        member on every instance."""
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        hundreds = dataclasses.replace(large, s_min=100, s_max=200,
                                       max_a_slack=3)
        for seed, (p, count) in enumerate((
                (GenParams(), 2000), (large, 300),
                (GenParams(density=0, epsilon=0.3), 2000),
                (GenParams(d_values=(8192, 16384), epsilon=0.5), 10),
                (hundreds, 30), (GenParams(max_a_slack=1000), 500),
                (GenParams(epsilon=1.0), 500))):
            for i in range(count):
                rng, want_rng = _rng_for(seed, i), _rng_for(seed, i)
                assert (generate_instance(p, rng)
                        == generate_instance_sets(p, want_rng)), (p, i)
                assert rng.getstate() == want_rng.getstate(), (p, i)

    def test_empty_draw_range_refused(self):
        """A parameter set with nothing to draw from is refused when it is
        built, not left to a draw that never returns."""
        for bad in (dict(d_values=()), dict(s_min=9, s_max=6),
                    dict(max_a_slack=-4), dict(density=1.5)):
            with pytest.raises(ValueError, match="draw range empty"):
                GenParams(**bad)
        GenParams(max_a_slack=-3, density=1.0, s_min=6, s_max=6)

    def test_sample_coset_matches_random_sample(self):
        """`sample_coset` gives the multiples of the step that
        `random.sample(range(h), k)` draws, and leaves the rng in the same
        state, over a grid of (h, k): k <= 5 and k > 5, h = 1, and h on
        both sides of the size where `random.sample` stops keeping a pool
        list and tracks a set instead (21 for k <= 5, 85 for k = 6..21,
        277 for k = 22..85).  The two branches draw different sequences,
        so a wrong boundary shows as a different state."""
        grid = [(1, 0), (1, 1)]
        for ks, hs in (((1, 3, 5), (20, 21, 22, 40)),
                       ((6, 21), (21, 84, 85, 86, 200)),
                       ((22, 85), (85, 276, 277, 278, 400))):
            grid += [(h, k) for k in ks for h in (k,) + hs if k <= h]
        for h, k in grid:
            for step in (1, 3):
                for seed in range(20):
                    rng, want_rng = _rng_for(seed, h), _rng_for(seed, h)
                    want = Bitmap.bits_of(
                        (j * step for j in want_rng.sample(range(h), k)),
                        h * step)
                    assert sample_coset(rng, h * step, step, k) == want, \
                        (h, k, step, seed)
                    assert rng.getstate() == want_rng.getstate()
        for k in (-1, 4):
            with pytest.raises(ValueError, match="sample of"):
                sample_coset(_rng_for(0, 0), 9, 3, k)

    def test_deterministic_per_index(self):
        p = GenParams()
        a = generate_instance(p, _rng_for(9, 4))
        b = generate_instance(p, _rng_for(9, 4))
        assert a == b
        c = generate_instance(p, _rng_for(9, 5))
        assert a != c

    def test_instances_validate(self):
        p = GenParams(epsilon=0.1)
        for i in range(200):
            L = generate_instance(p, _rng_for(3, i))
            assert isinstance(L, LayeredSet)     # invariants hold on build
            assert GenParams().s_min <= L.s <= GenParams().s_max

    def test_widest_slack_draws_offsets_across_it(self):
        """The largest accepted --max-a-slack costs no more per draw than
        the default, and its draws reach far up the slack range."""
        p = GenParams(max_a_slack=MAX_WIDTH)
        tops = []
        for i in range(40):
            L = generate_instance(p, _rng_for(5, i))
            assert L.max_offset() <= L.s - 1 + MAX_WIDTH
            tops.append(L.max_offset())
        assert max(tops) > MAX_WIDTH // 2


class TestCampaign:
    def test_report_byte_stable(self):
        p = GenParams()
        one = campaign_random(p, 25, seed=7).to_text()
        two = campaign_random(p, 25, seed=7).to_text()
        assert one == two
        assert one.startswith(REPORT_VERSION + "\n")
        other = campaign_random(p, 25, seed=8).to_text()
        assert other != one

    def test_canonical_equality_present(self):
        report = campaign_random(GenParams(), 0, seed=1)
        text = report.to_text()
        assert "status=equality" in text and "detail=15=15" in text

    def test_findings_round_trip(self):
        report = campaign_random(GenParams(epsilon=0.2), 60, seed=11)
        for finding in report.tally.findings:
            L = instance_from_doc(json.loads(finding.instance))
            tally = Tally()
            verify_instance(L, tally)
            assert any(f.check == finding.check and f.status == finding.status
                       for f in tally.findings)

    def test_findings_match_counts(self, monkeypatch):
        """A finding is recorded by the call that counts its (check, status),
        and every violation or equality carries a detail, so findings and
        those counts agree, in both check tables and on every entry."""
        import sumset_forge.harness as harness
        tallies = [campaign_random(GenParams(epsilon=0.2), 200, seed=11).tally]
        verify_instance(instance_from_doc(GOLDEN_VERIFY[0][0]), tallies[0])

        def violated(*args):
            raise harness.BoundViolation("forced")

        monkeypatch.setattr(harness, "lemma2_certificate", violated)
        monkeypatch.setattr(harness, "prop5_bound", violated)
        tallies.append(campaign_exhaustive((6,), 9).tally)
        monkeypatch.setattr(layered, "prop6_lower_bound", violated)
        monkeypatch.setattr(layered, "corollary1_check", lambda L: False)
        monkeypatch.setattr(layered, "check_prop7",
                            lambda L: CheckOutcome("prop7", True, False))
        monkeypatch.setattr(layered, "verify_witness", lambda L, w: False)
        tallies.append(Tally())
        verify_instance(instance_from_doc(GOLDEN_VERIFY[0][0]), tallies[-1])
        assert len(tallies[-1].findings) == 6
        for tally in tallies:
            found = Counter((f.check, f.status) for f in tally.findings)
            flagged = {(check, key): n for check, m in tally.counts.items()
                       for key, n in m.items()
                       if key in ("violated", "equality")}
            assert found == flagged and len(found) >= 2

    def test_parallel_merge_matches_serial(self, monkeypatch):
        p = GenParams()
        monkeypatch.setenv(THREADS_ENV, "1")
        serial = campaign_random(p, 40, seed=2).to_text()
        exhaustive = campaign_exhaustive((6, 7), 12).to_text()
        monkeypatch.setenv(THREADS_ENV, "4")
        parallel = campaign_random(p, 40, seed=2).to_text()
        assert serial == parallel
        assert campaign_exhaustive((6, 7), 12).to_text() == exhaustive

    def test_fewer_keys_than_workers(self, monkeypatch, serial_pool):
        """Workers left without a key add empty tallies: one instance or
        one offset set over three workers gives the serial report."""
        monkeypatch.setenv(THREADS_ENV, "")
        serial = [campaign_random(GenParams(), 1, seed=5).to_text(),
                  campaign_exhaustive((6,), 5).to_text()]
        assert "count check=lemma2 holds=1\n" in serial[1]
        monkeypatch.setenv(THREADS_ENV, "3")
        assert [campaign_random(GenParams(), 1, seed=5).to_text(),
                campaign_exhaustive((6,), 5).to_text()] == serial
        assert serial_pool == [3, 3]

    @pytest.mark.parametrize("workers", [1, 2, 3, 4])
    def test_every_key_checked_once(self, workers, monkeypatch, serial_pool):
        """Worker k of n checks keys k, k+n, ...: over the workers, each
        instance index and each offset set is checked exactly once."""
        import sumset_forge.harness as harness
        indices, offset_sets = [], []
        real_rng, real_lemma2 = harness._rng_for, harness.lemma2_certificate

        def rng_for(seed, index):
            indices.append(index)
            return real_rng(seed, index)

        def lemma2(aset):
            offset_sets.append(tuple(aset))
            return real_lemma2(aset)

        monkeypatch.setattr(harness, "_rng_for", rng_for)
        monkeypatch.setattr(harness, "lemma2_certificate", lemma2)
        monkeypatch.setenv(THREADS_ENV, str(workers))
        campaign_random(GenParams(), 23, seed=1)
        campaign_exhaustive((6, 7), 9)
        assert indices == [i for k in range(workers)
                           for i in range(k, 23, workers)]
        domain = [tuple(aset) for s in (6, 7)
                  for aset in all_offset_sets(s, 9)]
        assert Counter(offset_sets) == Counter(domain)
        assert offset_sets == [domain[i] for k in range(workers)
                               for i in range(k, len(domain), workers)]
        assert serial_pool == ([workers] * 2 if workers > 1 else [])

    def test_one_flatten_per_instance(self, monkeypatch):
        calls = []
        real = layered.flatten_sumset

        def counting(L):
            calls.append(L)
            return real(L)

        monkeypatch.setattr(layered, "flatten_sumset", counting)
        instances = [L for _, L in canonical_instances()] + [
            generate_instance(GenParams(epsilon=0.2), _rng_for(5, i))
            for i in range(40)]
        for L in instances:
            verify_instance(L, Tally())
        assert calls == instances

    def test_offset_work_once_per_campaign(self, monkeypatch, empty_memo):
        """One matching per distinct offset tuple over a whole campaign."""
        import sumset_forge.harness as harness
        monkeypatch.setenv(THREADS_ENV, "1")
        seen, sdr_calls = [], []
        real_verify = harness.verify_instance
        real_sdr = layered.find_sdr

        def verify(L, tally):
            seen.append(L.offsets())
            return real_verify(L, tally)

        def sdr(family):
            sdr_calls.append(family)
            return real_sdr(family)

        monkeypatch.setattr(harness, "verify_instance", verify)
        monkeypatch.setattr(layered, "find_sdr", sdr)
        campaign_random(GenParams(epsilon=0.2), 300, seed=4)
        assert len(seen) == 303
        assert len(sdr_calls) == len(set(seen)) < len(seen)

    def test_bezout_once_per_offset_set(self, monkeypatch, empty_memo):
        """Bezout coefficients are computed once per distinct offset tuple
        over a cold-memo campaign, and `solve_affine` reads them from the
        offset profile without running Euclid itself."""
        import sumset_forge.harness as harness
        import sumset_forge.rectify as rectify
        monkeypatch.setenv(THREADS_ENV, "1")
        seen, euclid, solved = [], Counter(), []
        real_verify = harness.verify_instance
        real_bezout = rectify.bezout
        real_solve = rectify.solve_affine

        def verify(L, tally):
            seen.append(L.offsets())
            return real_verify(L, tally)

        def bezout(aset):
            euclid[tuple(aset)] += 1
            return real_bezout(aset)

        def solve(assign, coeffs):
            before = sum(euclid.values())
            out = real_solve(assign, coeffs)
            assert sum(euclid.values()) == before
            solved.append(tuple(assign.aset))
            return out

        monkeypatch.setattr(harness, "verify_instance", verify)
        monkeypatch.setattr(rectify, "bezout", bezout)
        monkeypatch.setattr(layered, "bezout", bezout)
        monkeypatch.setattr(layered, "solve_affine", solve)
        campaign_random(GenParams(epsilon=0.2), 300, seed=4)
        assert len(seen) == 303
        assert set(euclid.values()) == {1} and set(euclid) == set(seen)
        assert set(solved) <= set(euclid) and len(solved) > len(set(solved))

    def test_ratio_built_once_per_instance(self, monkeypatch):
        """One doubling Fraction per instance, however many checks read it;
        the cached ratio is not a field, so equality ignores it."""
        builds = []
        real = layered.Fraction

        def counting(*args):
            builds.append(args)
            return real(*args)

        monkeypatch.setattr(layered, "Fraction", counting)
        instances = [L for _, L in canonical_instances()] + [
            generate_instance(GenParams(epsilon=0.2), _rng_for(6, i))
            for i in range(40)]
        for L in instances:
            verify_instance(L, Tally())
        assert builds == [(L.flat.total, L.size) for L in instances]
        assert "ratio" not in {f.name for f in dataclasses.fields(LayeredSet)}
        fresh = instance_from_doc(json.loads(instance_to_json(instances[0])))
        assert "ratio" in vars(instances[0]) and fresh == instances[0]

    def test_size_and_doubling_decided_once_per_instance(self, monkeypatch):
        """|B~| and the doubling hypothesis are computed once per instance,
        however many checks read them, and the threshold is consulted once
        on an applicable instance; neither cached value is a field."""
        calls = Counter()
        for name in ("size", "applicable"):
            real = vars(LayeredSet)[name].func

            def counting(L, real=real, name=name):
                calls[name, id(L)] += 1
                return real(L)

            prop = functools.cached_property(counting)
            prop.__set_name__(LayeredSet, name)
            monkeypatch.setattr(LayeredSet, name, prop)
        taus = Counter()
        real_tau = layered.tau

        def tau(s):
            taus[s] += 1
            return real_tau(s)

        monkeypatch.setattr(layered, "tau", tau)
        instances = [L for _, L in canonical_instances()] + [
            generate_instance(GenParams(epsilon=0.2), _rng_for(6, i))
            for i in range(40)]
        applicable = 0
        for L in instances:
            taus.clear()
            verify_instance(L, Tally())
            if L.applicable:
                applicable += 1
                assert sum(taus.values()) == 1
        assert calls == Counter({(name, id(L)): 1 for L in instances
                                 for name in ("size", "applicable")})
        assert 10 < applicable < len(instances)
        fields = {f.name for f in dataclasses.fields(LayeredSet)}
        assert not fields & {"size", "applicable"}

    def test_one_uvw_partition_per_witness(self, monkeypatch):
        """The `check uvw` line and lemma5 share one size partition."""
        calls = []
        real = layered.uvw_partition

        def counting(L, h):
            calls.append(L)
            return real(L, h)

        monkeypatch.setattr(layered, "uvw_partition", counting)
        witnessed = []
        for L in [L for _, L in canonical_instances()] + [
                generate_instance(GenParams(epsilon=0.2), _rng_for(7, i))
                for i in range(40)]:
            lines = verify_instance(L, Tally())
            if any(line.startswith("check structure witness ")
                   for line in lines):
                witnessed.append(L)
        assert calls == witnessed and len(witnessed) > 10

    def test_structure_counted_once_per_instance(self, monkeypatch):
        """A witness that fails re-verification counts as violated only, and
        every instance lands in exactly one structure outcome."""
        L = instance_from_doc(GOLDEN_VERIFY[0][0])
        tally = Tally()
        verify_instance(L, tally)
        assert tally.counts["structure"] == {"holds": 1}
        monkeypatch.setattr(layered, "verify_witness", lambda L, w: False)
        tally = Tally()
        verify_instance(L, tally)
        assert tally.counts["structure"] == {"violated": 1}
        counts = campaign_random(GenParams(epsilon=0.2), 60,
                                 seed=3).tally.counts["structure"]
        assert sum(counts.values()) == 63
        assert set(counts) == {"violated", "not_applicable"}

    def test_one_abc_profile_per_applicable_offset_set(self, monkeypatch):
        """prop5 certifies the (a, b, c) profile that abc-sum then reads."""
        import sumset_forge.hall_bounds as hall_bounds
        import sumset_forge.harness as harness
        calls = []
        real = hall_bounds.abc_parameters

        def counting(aset):
            calls.append(aset)
            return real(aset)

        monkeypatch.setattr(hall_bounds, "abc_parameters", counting)
        monkeypatch.setattr(harness, "abc_parameters", counting)
        counts = campaign_exhaustive((6, 7), 12).tally.counts
        assert counts["prop5"]["holds"] == counts["abc-sum"]["holds"] == 588
        assert len(calls) == 588

    def test_r_parameter_once_per_certificate_and_profile(self,
                                                           monkeypatch):
        """R is computed by lemma2 on every offset set and by the (a, b, c)
        profile on applicable ones; the prop5 applicability test needs none."""
        import sumset_forge.hall_bounds as hall_bounds
        import sumset_forge.harness as harness
        calls = []
        real = hall_bounds.r_parameter

        def counting(aset):
            calls.append(aset)
            return real(aset)

        # every module that could bind the name sees the counter
        for module in (hall_bounds, harness, layered):
            monkeypatch.setattr(module, "r_parameter", counting, raising=False)
        counts = campaign_exhaustive((6, 7), 12).tally.counts
        assert counts["lemma2"]["holds"] == 1709
        assert len(calls) == 1709 + 588

    def test_worker_count_clamped_to_cores(self, monkeypatch, serial_pool):
        """A large SUMSET_FORGE_THREADS asks for no more workers than
        cores, and the report does not depend on the worker count, in
        either campaign mode."""
        import os
        import sumset_forge.harness as harness
        pools = serial_pool
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv(THREADS_ENV, "")
        serial = campaign_random(GenParams(), 30, seed=2).to_text()
        exhaustive = campaign_exhaustive((6, 7), 10).to_text()
        assert pools == []
        for raw, workers in (("999999", 3), ("2", 2), ("3", 3)):
            monkeypatch.setenv(THREADS_ENV, raw)
            assert campaign_random(GenParams(), 30, seed=2).to_text() == serial
            assert pools.pop() == workers
            assert campaign_exhaustive((6, 7), 10).to_text() == exhaustive
            assert pools.pop() == workers
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setenv(THREADS_ENV, "8")
        assert harness.worker_count() == 1

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5", "1e3", " 2", "+2",
                                     "\u0662", "\uff12", "02"])
    def test_worker_count_rejects(self, raw, monkeypatch):
        monkeypatch.setenv(THREADS_ENV, raw)
        with pytest.raises(ValueError, match=THREADS_ENV):
            campaign_random(GenParams(), 5, seed=1)

    def test_memo_empty_after_campaign(self, empty_memo):
        verify_instance(canonical_instances()[0][1], Tally())
        assert offset_profile.cache_info().currsize == 1
        campaign_random(GenParams(), 30, seed=3)
        assert offset_profile.cache_info().currsize == 0

    def test_prop6_violator_contract(self, monkeypatch, empty_memo):
        """A missing SDR fails prop6 alone; every other check still runs,
        reading R and the offsets from the same profile."""
        monkeypatch.setattr(layered, "find_sdr",
                            lambda family: HallViolator((0, 1), 1))
        tally = Tally()
        lines = verify_instance(canonical_instances()[0][1], tally)
        assert tally.counts["prop6"] == {"violated": 1}
        assert [(f.check, f.status) for f in tally.findings
                if f.status == "violated"] == [("prop6", "violated")]
        assert "violator (0, 1)" in tally.findings[0].detail
        assert tally.counts["corollary1"] == {"holds": 1}
        assert tally.counts["prop7"] == {"holds": 1}
        assert tally.counts["structure"] == {"holds": 1}
        assert any(line.startswith("check structure witness order=3 ")
                   for line in lines)

    def test_exhaustive_small(self):
        report = campaign_exhaustive((6,), 8)
        assert report.tally.violations == 0
        counts = report.tally.counts
        assert counts["lemma2"]["holds"] > 0

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            campaign_exhaustive((6, 7), 40, cap=100)

    def test_cap_refuses_what_the_binomial_sum_exceeds(self):
        """The early-stopping estimate refuses exactly the domains whose sum
        of C(max_a, s-1) passes the cap, at the cap and one either side."""
        for max_a in range(0, 16):
            for n in range(4):
                for s_values in combinations(range(2, 19), n):
                    total = sum(comb(max_a, s - 1) for s in s_values)
                    for cap in {0, total - 1, total, total + 1}:
                        try:
                            require_exhaustive_domain(s_values, max_a, cap)
                            refused = False
                        except CapExceeded as exc:
                            refused = True
                            assert "exceeds cap" in str(exc)
                        assert refused == (total > cap)

    def test_repeated_size_refused(self):
        # a repeated size would verify and count each offset set twice
        with pytest.raises(ValueError, match="repeat 6"):
            campaign_exhaustive((6, 6), 8)


class TestCli:
    def test_verify_clean_instance(self, tmp_path, capsys):
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(full_coset_doc()))
        assert main(["verify", str(path)]) == 0
        out = capsys.readouterr().out
        assert "witness order=3 x=1 y=0" in out
        assert "ineq7=equality" in out

    def test_verify_invalid_instance(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(
            {"d": 12, "layers": [{"a": 1, "set": [0]}, {"a": 2, "set": [0]}]}))
        assert main(["verify", str(path)]) == 2
        assert "invalid instance" in capsys.readouterr().err

    @pytest.mark.parametrize("layers, where", [
        ([[0, 0, 4], [1, 5, 9]], "offset 0 lists member 0 twice"),
        ([[0, 4, 8], [1, 9, 5, 9]], "offset 1 lists member 9 twice")],
        ids=["first-layer", "later-layer"])
    def test_verify_repeated_member_exit(self, layers, where, tmp_path,
                                         capsys):
        """A layer that lists a member twice is refused, not read as the
        set of its members."""
        path = tmp_path / "repeat.json"
        path.write_text(json.dumps({"d": 12, "layers": [
            {"a": a, "set": members} for a, members in enumerate(layers)]}))
        assert main(["verify", str(path)]) == 2
        assert where in capsys.readouterr().err

    D30_DOC = ('{"d": 30, "layers": [' + ", ".join(
        f'{{"a": {a}, "set": [0, 10, 20]}}' for a in (0, 3, 4, 5, 6, 8))
        + "]}")

    @pytest.mark.parametrize("text, key", [
        ('{"d": 2, "d": 5, "layers": [{"a": 0, "set": [0]}, '
         '{"a": 1, "set": [3]}]}', "'d' written twice"),
        (D30_DOC[:-1] + ', "layers": [{"a": 0, "set": [0]}, '
         '{"a": 1, "set": [1]}, {"a": 2, "set": [2]}]}',
         "'layers' written twice"),
        ('{"d": 5, "layers": [{"a": 0, "set": [0]}, '
         '{"a": 1, "set": [3], "set": [2]}]}', "'set' written twice"),
        ('{"d": 5, "layers": [{"a": 0, "a": 0, "set": [0]}, '
         '{"a": 1, "set": [3]}]}', "'a' written twice"),
        ('{"Layers": [], ' + D30_DOC[1:], "unknown key 'Layers'"),
        ('{"d": 5, "layers": [{"a": 0, "set": [0]}, '
         '{"a": 1, "set": [3], "b": [4]}]}', "unknown key 'b'")],
        ids=["d-twice", "layers-twice", "set-twice", "a-twice",
             "unknown-top", "unknown-layer"])
    def test_verify_repeated_or_unknown_key_exit(self, text, key, tmp_path,
                                                 capsys):
        """The instance format has the keys d, layers, a and set, each
        once: a key written twice is refused, not read as its last value,
        and any other key is refused, not ignored."""
        path = tmp_path / "keys.json"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        captured = capsys.readouterr()
        assert "invalid instance:" in captured.err and key in captured.err
        assert captured.out == ""

    def test_verify_d30_keys_read(self, tmp_path, capsys):
        """The same document, each key once, is verified."""
        path = tmp_path / "d30.json"
        path.write_text(self.D30_DOC)
        assert main(["verify", str(path)]) == 1
        assert "check lemma5 applicable=true holds=false" in (
            capsys.readouterr().out.splitlines())

    def test_verify_missing_file(self, capsys):
        assert main(["verify", "/nonexistent/inst.json"]) == 2

    def test_campaign_and_report_round_trip(self, tmp_path, capsys):
        out = tmp_path / "report.txt"
        code = main(["campaign", "--mode", "exhaustive", "--s", "6",
                     "--max-a", "8", "--out", str(out)])
        assert code == 0
        assert out.read_text().startswith(REPORT_VERSION)
        capsys.readouterr()
        assert main(["report", str(out)]) == 0
        assert "count check=lemma2" in capsys.readouterr().out

    def test_campaign_cap_exit(self, capsys):
        code = main(["campaign", "--mode", "exhaustive", "--s", "6,7,8",
                     "--max-a", "40", "--cap", "1000"])
        assert code == 2
        assert "refused" in capsys.readouterr().err

    @pytest.mark.parametrize("s", ["2000000", "200000"])
    def test_campaign_huge_domain_refused_fast(self, s, capsys):
        """A domain whose binomials run to millions of digits is refused
        without computing them: C(10^8, 1999999) alone ran for minutes, and
        printing C(10^8, 199999) broke the int-to-string digit limit."""
        t0 = time.perf_counter()
        code = main(["campaign", "--mode", "exhaustive", "--s", s,
                     "--max-a", "100000000"])
        elapsed = time.perf_counter() - t0
        err = capsys.readouterr().err
        assert code == 2 and err.startswith("refused:")
        assert "exceeds cap 2000000" in err and elapsed < 1.0

    def test_campaign_many_sizes_checked_in_linear_time(self, tmp_path):
        """Repeated sizes are found in one pass.  Of the sizes 2..12001 only
        2..13 have offset sets at max_a = 12, so the other 11988 must add
        less than a second to the campaign over 2..13; counting each size
        in the whole list, twice per command, added about 5 s."""
        elapsed, bodies = [], []
        for top in (13, 12001):
            out = tmp_path / f"report{top}.txt"
            t0 = time.perf_counter()
            code = main(["campaign", "--mode", "exhaustive", "--s",
                         ",".join(map(str, range(2, top + 1))),
                         "--max-a", "12", "--out", str(out)])
            elapsed.append(time.perf_counter() - t0)
            assert code == 0
            bodies.append([line for line in out.read_text().splitlines()
                           if not line.startswith("param s ")])
        assert bodies[0] == bodies[1]
        assert elapsed[1] - elapsed[0] < 1.0, elapsed

    def test_report_rejects_foreign_file(self, tmp_path, capsys):
        path = tmp_path / "foo.txt"
        path.write_text("hello\n")
        assert main(["report", str(path)]) == 2

    def test_report_rejects_truncated_file(self, tmp_path, capsys):
        """A report whose last line, `end`, is cut off exits 2 and prints
        nothing; the whole report still prints."""
        out, cut = tmp_path / "report.txt", tmp_path / "cut.txt"
        assert main(["campaign", "--mode", "exhaustive", "--s", "6",
                     "--max-a", "8", "--out", str(out)]) == 0
        lines = out.read_text().splitlines(keepends=True)
        cut.write_text("".join(lines[:-1]))
        capsys.readouterr()
        assert main(["report", str(cut)]) == 2
        captured = capsys.readouterr()
        assert "not a whole sumset-forge report" in captured.err
        assert captured.out == ""
        assert main(["report", str(out)]) == 0
        assert "count check=lemma2" in capsys.readouterr().out

    @pytest.mark.skipif(not os.path.exists("/dev/full"),
                        reason="needs /dev/full")
    @pytest.mark.parametrize("argv, to_stdout", [
        (["campaign", "--mode", "exhaustive", "--s", "6", "--max-a", "8",
          "--out", "/dev/full"], False),
        (["campaign", "--mode", "exhaustive", "--s", "6", "--max-a", "8"],
         True),
        (["verify", "coset.json"], True)],
        ids=["campaign-out", "campaign-stdout", "verify-stdout"])
    def test_unwritable_output_exit(self, argv, to_stdout, tmp_path):
        """An output that cannot be written, the --out file or stdout,
        exits 2 with `error:`, not with a traceback, whose exit 1 reads as
        "violations found", nor with the 120 of a failed flush at exit."""
        (tmp_path / "coset.json").write_text(json.dumps(full_coset_doc()))
        src = os.path.dirname(os.path.dirname(sumset_forge.__file__))
        env = {**os.environ, "PYTHONPATH": src, THREADS_ENV: "1"}
        with open("/dev/full", "w") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "sumset_forge.cli", *argv],
                cwd=tmp_path, env=env, stdin=subprocess.DEVNULL,
                stdout=full if to_stdout else subprocess.DEVNULL,
                stderr=subprocess.PIPE, text=True, timeout=60)
        assert proc.returncode == 2, proc.stderr
        assert "error: [Errno 28]" in proc.stderr
        assert "Traceback" not in proc.stderr

    @pytest.fixture
    def ran(self, monkeypatch):
        """The campaigns `main` starts, in either mode; none if it refuses
        its flags."""
        import sumset_forge.harness as harness
        ran = []
        monkeypatch.setattr(harness, "run_campaign",
                            lambda *args, **kwargs: ran.append(args))
        return ran

    # each numeric flag's domain as the parser's refusal names it
    DOMAINS = {"--d": f"an integer in [1, {MAX_WIDTH}]",
               "--s": f"an integer in [2, {MAX_WIDTH}]",
               "--max-a": "an integer in [1, inf]",
               "--count": "an integer in [0, inf]",
               "--max-a-slack": f"an integer in [0, {MAX_WIDTH}]",
               "--density": "a number in [0, 1]",
               "--epsilon": "a number in [0, 1]"}

    @pytest.mark.parametrize("args", [
        ["--mode", "random", "--d", "0"],
        ["--mode", "random", "--d", "12,-3"],
        ["--mode", "random", "--s", "1"],
        ["--mode", "random", "--s", "1,6"],
        ["--mode", "exhaustive", "--s", "1"],
        ["--mode", "random", "--count", "-1"],
        ["--mode", "random", "--density", "1.5"],
        ["--mode", "random", "--density", "nan"],
        ["--mode", "random", "--density", "-0.1"],
        ["--mode", "random", "--epsilon", "2"],
        ["--mode", "random", "--epsilon", "-1"],
        ["--mode", "random", "--epsilon", "inf"],
        ["--mode", "random", "--max-a-slack", "-5"],
        ["--mode", "exhaustive", "--s", "6", "--max-a", "-3"],
        ["--mode", "exhaustive", "--s", "6", "--max-a", "0"],
    ])
    def test_campaign_bad_arguments_exit(self, args, ran, capsys):
        """An out-of-range value exits 2 from the parser, naming its flag
        and the flag's domain, before any campaign starts."""
        with pytest.raises(SystemExit) as exc:
            main(["campaign"] + args)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        flag = args[-2]
        assert f"argument {flag}: needs {self.DOMAINS[flag]}, got " \
               in captured.err
        assert captured.out == "" and ran == []

    @pytest.mark.parametrize("flag", ["--d", "--s", "--max-a-slack"])
    def test_campaign_width_cap_exit(self, flag, ran, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--mode", "random", "--count", "1",
                  flag, str(10 ** 12)])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: needs {self.DOMAINS[flag]}, got " \
               f"'{10 ** 12}'" in captured.err
        assert captured.out == "" and ran == []

    @pytest.mark.parametrize("flag, raw", [("--d", "12,,16"), ("--s", "6,,9"),
                                           ("--d", "12,16,"), ("--s", "")])
    def test_campaign_empty_token_exit(self, flag, raw, ran, capsys):
        """An empty token is refused, not skipped: `--d 12,,16` must not
        run as `--d 12,16`."""
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--mode", "random", "--count", "1",
                  f"{flag}={raw}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: empty value" in captured.err
        assert captured.out == "" and ran == []

    @pytest.mark.parametrize("flag, raw, bad", [("--d", "12,x", "x"),
                                                ("--d", "1.5", "1.5"),
                                                ("--s", "6,7,8e0", "8e0")])
    def test_campaign_non_integer_token_exit(self, flag, raw, bad, ran,
                                             capsys):
        """A token `int` refuses exits 2 with a message naming it, not the
        parser's helper."""
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--mode", "random", "--count", "1",
                  f"{flag}={raw}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: not an integer: {bad!r}" in captured.err
        assert "_int_tuple" not in captured.err
        assert captured.out == "" and ran == []

    INT_FLAGS = ("--d", "--s", "--max-a", "--count", "--seed",
                 "--max-a-slack", "--cap")
    FLOAT_FLAGS = ("--density", "--epsilon")

    @pytest.mark.parametrize("flag, raw, noun", [
        *((flag, raw, "an integer") for flag in INT_FLAGS
          for raw in ("1_2", " 12", "12 ", "\u0661\u0662", "012", "+12")),
        ("--seed", "007", "an integer"), ("--count", "01", "an integer"),
        *((flag, raw, "a number") for flag in FLOAT_FLAGS
          for raw in ("0.7_5", " 0.75", "0.75 ", "\u0660.\u0667\u0665",
                      ".75", "7.5e-1", "0.750", "0.00001", "-0.0", "-0"))])
    def test_campaign_coercible_numeral_exit(self, flag, raw, noun, ran,
                                             capsys):
        """A numeral that Python's int or float would coerce (an underscore,
        surrounding whitespace, Arabic-Indic digits, a leading zero or sign,
        another spelling of the float, a negative zero) is refused with
        exit 2 on every numeric flag, and the message names the spelling
        the report prints: 0.0 for a negative zero."""
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--mode", "random", "--count", "1",
                  f"{flag}={raw}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        value = int(raw) if noun == "an integer" else abs(float(raw))
        assert f"argument {flag}: not {noun}: {raw!r} (write {value})" \
               in captured.err
        assert captured.out == "" and ran == []

    @pytest.mark.parametrize("flag", ["--seed", "--count", "--cap"])
    def test_campaign_digit_limit_exit(self, flag, ran, capsys):
        """An integer with more digits than the interpreter's `int` reads
        exits 2 with a message naming that limit, not "not an integer";
        one at the limit is read."""
        limit = sys.get_int_max_str_digits()
        with pytest.raises(SystemExit) as exc:
            main(["campaign", "--mode", "random", "--count", "1",
                  f"{flag}={'9' * (limit + 1)}"])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert f"argument {flag}: an integer of {limit + 1} digits, more " \
               f"than this interpreter's int_max_str_digits, {limit}" \
               in captured.err
        assert captured.out == "" and ran == []
        args = build_parser().parse_args(
            ["campaign", "--mode", "random", f"{flag}={'9' * limit}"])
        assert getattr(args, flag[2:]) == int("9" * limit)

    @pytest.mark.parametrize("flag, raw, line", [
        ("--d", "12", "param d 12"), ("--s", "12", "param s 12..12"),
        ("--max-a", "12", None), ("--count", "12", "param count 12"),
        ("--seed", "12", "seed 12"), ("--seed", "-3", "seed -3"),
        ("--max-a-slack", "12", "param max_a_slack 12"), ("--cap", "12", None),
        ("--density", "0.75", "param density 0.75"),
        ("--epsilon", "0.75", "param epsilon 0.75"),
        ("--density", "0", "param density 0.0"),
        ("--density", "1e-05", "param density 1e-05"),
        ("--epsilon", "1", "param epsilon 1.0")])
    def test_campaign_canonical_numeral_runs(self, flag, raw, line, capsys):
        """The plain spellings still run, and the report reads the value; a
        whole float may be written as an integer."""
        mode = (["exhaustive", "--s", "2"] if flag in ("--max-a", "--cap")
                else ["random", "--count", "1", "--no-canonical"])
        code = main(["campaign", "--mode", *mode, f"{flag}={raw}"])
        assert code in (0, 1)
        out = capsys.readouterr().out.splitlines()
        assert out[0] == REPORT_VERSION
        assert line is None or line in out

    @pytest.mark.parametrize("d, top", [(10 ** 12, 2), (12, 10 ** 12)],
                             ids=["d", "offset"])
    def test_verify_width_cap_exit(self, d, top, tmp_path, monkeypatch,
                                   capsys):
        import sumset_forge.harness as harness
        # a layered set past the cap would allocate its bitmaps
        monkeypatch.setattr(harness, "LayeredSet", None)
        path = tmp_path / "wide.json"
        path.write_text(json.dumps(
            {"d": d, "layers": [{"a": a, "set": [0]} for a in (0, 1, top)]}))
        assert main(["verify", str(path)]) == 2
        assert "exceeds the cap" in capsys.readouterr().err

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5",
                                     "\u0662", "\uff12", "02"])
    def test_campaign_bad_threads_exit(self, raw, monkeypatch, capsys):
        monkeypatch.setenv(THREADS_ENV, raw)
        assert main(["campaign", "--mode", "random", "--count", "5"]) == 2
        captured = capsys.readouterr()
        assert THREADS_ENV in captured.err and captured.out == ""

    def test_campaign_threads_past_digit_limit_exit(self, ran, monkeypatch,
                                                    capsys):
        """A worker count with more digits than `int` reads is refused
        with the variable's name before any worker starts."""
        limit = sys.get_int_max_str_digits()
        monkeypatch.setenv(THREADS_ENV, "9" * (limit + 1))
        assert main(["campaign", "--mode", "random", "--count", "5"]) == 2
        captured = capsys.readouterr()
        assert f"error: {THREADS_ENV} has {limit + 1} digits" in captured.err
        assert captured.out == "" and ran == []

    def test_bench_verb_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing/r.txt", "."])
    def test_campaign_bad_out_refused_before_work(self, where, tmp_path,
                                                  ran, capsys):
        out = tmp_path / where
        assert main(["campaign", "--mode", "random", "--count", "5",
                     "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""
        assert ran == []

    def test_campaign_refusal_creates_no_out(self, tmp_path, capsys):
        out = tmp_path / "new.txt"
        assert main(["campaign", "--mode", "exhaustive", "--s", "6,7",
                     "--max-a", "40", "--out", str(out)]) == 2
        assert "exceeds cap" in capsys.readouterr().err
        assert not out.exists()

    def test_campaign_repeated_size_exit(self, tmp_path, capsys):
        out = tmp_path / "new.txt"
        assert main(["campaign", "--mode", "exhaustive", "--s", "6,7,6",
                     "--max-a", "8", "--out", str(out)]) == 2
        assert "error: s values 6,7,6 repeat 6" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("raw", ["6,7,9", "9,6", "6,6,6", "6,6",
                                     "6,7,8,9"])
    def test_campaign_random_s_form_exit(self, raw, tmp_path, ran, capsys):
        """Random mode draws s from one range, written s or lo,hi with lo <
        hi; a list that is neither exits 2 before the --out file is made,
        not run as the range from its least to its greatest member."""
        out = tmp_path / "new.txt"
        assert main(["campaign", "--mode", "random", "--count", "3", "--s",
                     raw, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert f"--s as one layer count or lo,hi with lo < hi, not {raw}" in err
        assert ran == [] and not out.exists()

    @pytest.mark.parametrize("raw, line", [("7", "param s 7..7"),
                                           ("6,9", "param s 6..9")])
    def test_campaign_random_s_forms_run(self, raw, line, capsys):
        """One layer count, and the pair that is also the default."""
        assert main(["campaign", "--mode", "random", "--count", "0",
                     "--no-canonical", "--s", raw]) == 0
        assert line in capsys.readouterr().out.splitlines()

    def test_campaign_out_kept_until_report(self, tmp_path):
        out = tmp_path / "report.txt"
        out.write_text("old\n")
        assert main(["campaign", "--mode", "exhaustive", "--s", "6",
                     "--max-a", "40", "--cap", "10", "--out", str(out)]) == 2
        assert out.read_text() == "old\n"

    @pytest.mark.parametrize("verb", ["verify", "report"])
    def test_non_utf8_file_exit(self, verb, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b'{"d": 12, "name": "caf\xe9"}')
        assert main([verb, str(path)]) == 2
        assert "utf-8" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[" * 100_000, "nesting too deep"),
        ('{"d": ' + "1" * 5000 + "}", "parse error")],
        ids=["deep-nesting", "huge-integer"])
    def test_verify_unparsable_exit(self, text, message, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["verify", str(path)]) == 2
        assert message in capsys.readouterr().err


# SHA-256 of whole report bodies.  Unlike a comparison of the count lines,
# the digest also pins every finding's check, detail and instance JSON.
GOLDEN_REPORTS = [
    (["--mode", "random", "--count", "2000", "--seed", "1"], 1,
     "f79e18e94fd84d01d77ca34eba4d43ee76cb3797593f788a3783017d6d1dd09f"),
    (["--mode", "exhaustive", "--s", "6,7", "--max-a", "12"], 0,
     "fe317c7381f7dd5f14a0009b52d7adbd1ddab505cb5cccc5665f93d03dc27dab"),
    (["--mode", "random", "--count", "60", "--seed", "2", "--s", "24,40",
      "--d", "48,60,72,96,120", "--max-a-slack", "8", "--epsilon", "0.1"], 0,
     "27a83868e55674d4ccd62f226df8d23cc35577bd5ce5b66b300821543f10b9a5"),
]


@pytest.mark.parametrize("args, code, digest", GOLDEN_REPORTS)
def test_golden_report_digest(args, code, digest, tmp_path, capsys):
    out = tmp_path / "report.txt"
    assert main(["campaign"] + args + ["--out", str(out)]) == code
    assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


def test_canonical_instances_are_valid():
    for name, L in canonical_instances():
        assert isinstance(L, LayeredSet)
        assert name


# Full stdout and exit code of `verify`, recorded before the check table
# replaced the per-check formatting in the CLI.
def _cosets_doc(d, offsets, coset):
    return {"d": d, "layers": [{"a": a, "set": [(a + m) % d for m in coset]}
                               for a in offsets]}


_D30 = ('{"d":30,"layers":[{"a":0,"set":[0,10,20]},{"a":3,"set":[3,13,23]},'
        '{"a":4,"set":[4,14,24]},{"a":5,"set":[5,15,25]},'
        '{"a":6,"set":[6,16,26]},{"a":8,"set":[8,18,28]}]}')
_D2 = ('{"d":2,"layers":[{"a":0,"set":[0]},{"a":1,"set":[0]},'
       '{"a":2,"set":[0,1]},{"a":3,"set":[0,1]},{"a":4,"set":[0,1]},'
       '{"a":7,"set":[0,1]}]}')
_D12 = ('{"d":12,"layers":[{"a":0,"set":[0,4,8]},{"a":1,"set":[1,5,9]},'
        '{"a":2,"set":[2,6,10]},{"a":3,"set":[3,7,11]},'
        '{"a":4,"set":[0,4,8]},{"a":5,"set":[1,5,9]}]}')
GOLDEN_VERIFY = [
    # README's minimal lemma 5 counterexample
    (_cosets_doc(30, (0, 3, 4, 5, 6, 8), (0, 10, 20)), 1, [
        "check flatten size=42 base=18 ratio=7/3",
        "check applicable true",
        "check prop6 bound=42",
        "check corollary1 holds=true",
        "check prop7 applicable=true holds=true",
        "check structure witness order=3 x=1 y=0 j=0 ineq7=equality",
        "check uvw u=6 v=0 w=0",
        "check lemma5 applicable=true holds=false",
        f"finding check=ineq7 status=equality detail=24=24 instance={_D30}",
        f"finding check=lemma5 status=violated detail=uvw=(6, 0, 0, 5) "
        f"instance={_D30}"]),
    (full_coset_doc(), 0, [
        "check flatten size=33 base=18 ratio=11/6",
        "check applicable true",
        "check prop6 bound=33",
        "check corollary1 holds=true",
        "check prop7 applicable=true holds=true",
        "check structure witness order=3 x=1 y=0 j=0 ineq7=equality",
        "check uvw u=6 v=0 w=0",
        "check lemma5 applicable=true holds=true",
        f"finding check=ineq7 status=equality detail=15=15 instance={_D12}"]),
    # singletons at the triangular numbers: too much doubling to apply
    ({"d": 12, "layers": [{"a": a, "set": [a * (a + 1) // 2 % 12]}
                          for a in range(6)]}, 0, [
        "check flatten size=21 base=6 ratio=7/2",
        "check applicable false",
        "check prop6 bound=11",
        "check corollary1 holds=true",
        "check prop7 applicable=false",
        "check structure not_applicable reason=[doubling 7/2 >= 5/2]"]),
    # lemma 5 fails outside the s < 2R - 3 family: s = 6, R = 4 and
    # u + w = 4 < s, yet u = 4 < w + 2R - 3 = 5
    ({"d": 2, "layers": [{"a": a, "set": [0] if a < 2 else [0, 1]}
                         for a in (0, 1, 2, 3, 4, 7)]}, 1, [
        "check flatten size=24 base=10 ratio=12/5",
        "check applicable true",
        "check prop6 bound=24",
        "check corollary1 holds=true",
        "check prop7 applicable=true holds=true",
        "check structure witness order=2 x=0 y=0 j=2 ineq7=equality",
        "check uvw u=4 v=2 w=0",
        "check lemma5 applicable=true holds=false",
        f"finding check=ineq7 status=equality detail=14=14 instance={_D2}",
        f"finding check=lemma5 status=violated detail=uvw=(4, 2, 0, 4) "
        f"instance={_D2}"]),
    # the prop6 bound sums the pair sizes of whichever SDR find_sdr returns:
    # the greedy-seeded search's SDR certifies 197 here, while the SDR of an
    # unseeded search (one augmenting path per index) certifies 205
    ({"d": 13, "layers": [
        {"a": a, "set": members} for a, members in zip(
            (0, 1, 3, 6, 8, 11, 12),
            ([0, 5, 6, 11, 12], [0, 1, 5, 6, 7, 8, 10, 11, 12],
             [0, 1, 2, 3, 4, 5, 7, 8, 10, 12],
             [0, 1, 2, 4, 5, 6, 7, 10, 11, 12], [4, 5, 8], [4, 10],
             [1, 2, 4, 7, 11, 12]))]}, 0, [
        "check flatten size=250 base=45 ratio=50/9",
        "check applicable false",
        "check prop6 bound=197",
        "check corollary1 holds=true",
        "check prop7 applicable=false",
        "check structure not_applicable reason=[doubling 50/9 >= 5/2]"]),
]


@pytest.mark.parametrize("doc, code, lines", GOLDEN_VERIFY)
def test_golden_verify_output(doc, code, lines, tmp_path, capsys):
    path = tmp_path / "inst.json"
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == code
    assert capsys.readouterr().out == "\n".join(
        [f"instance {path}"] + lines) + "\n"

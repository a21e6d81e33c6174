import dataclasses
import functools
import hashlib
import json
import time
from collections import Counter
from itertools import combinations
from math import ceil, comb, gcd

import pytest

import sumset_forge.layered as layered
from sumset_forge.classical_checks import CheckOutcome
from sumset_forge.cli import main
from sumset_forge.group_core import CyclicGroup
from sumset_forge.hall_bounds import HallViolator
from sumset_forge.harness import (MAX_WIDTH, CapExceeded, Finding, GenParams,
                                  REPORT_VERSION, THREADS_ENV, Tally,
                                  campaign_exhaustive, campaign_random,
                                  canonical_instances, generate_instance,
                                  instance_from_doc, instance_to_json,
                                  load_instance, require_exhaustive_domain,
                                  verify_instance, _rng_for)
from sumset_forge.layered import LayeredSet, LayeredSetError, offset_profile


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
        """The same instances, and the same draws after them, as the
        set-based generator: default, large-s, off-coset (density 0,
        epsilon 0.3) and large-d parameters."""
        large = GenParams(d_values=(48, 60, 72, 96, 120), s_min=24, s_max=40,
                          max_a_slack=8)
        for seed, (p, count) in enumerate((
                (GenParams(), 2000), (large, 300),
                (GenParams(density=0, epsilon=0.3), 2000),
                (GenParams(d_values=(8192, 16384), epsilon=0.5), 10))):
            for i in range(count):
                rng, want_rng = _rng_for(seed, i), _rng_for(seed, i)
                assert (generate_instance(p, rng)
                        == generate_instance_sets(p, want_rng)), (p, i)
                assert rng.random() == want_rng.random()

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
        monkeypatch.setenv(THREADS_ENV, "4")
        parallel = campaign_random(p, 40, seed=2).to_text()
        assert serial == parallel

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

    def test_worker_count_clamped_to_cores(self, monkeypatch):
        """A large SUMSET_FORGE_THREADS asks for no more workers than
        cores, and the report does not depend on the worker count."""
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
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        monkeypatch.setenv(THREADS_ENV, "")
        serial = campaign_random(GenParams(), 30, seed=2).to_text()
        assert pools == []
        for raw, workers in (("999999", 3), ("2", 2), ("3", 3)):
            monkeypatch.setenv(THREADS_ENV, raw)
            assert campaign_random(GenParams(), 30, seed=2).to_text() == serial
            assert pools.pop() == workers
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        monkeypatch.setenv(THREADS_ENV, "8")
        assert harness.worker_count() == 1

    @pytest.mark.parametrize("raw",
                             ["abc", "0", "-3", "2.5", "1e3", " 2", "+2"])
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
    def test_campaign_bad_arguments_exit(self, args, capsys):
        assert main(["campaign"] + args) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    @pytest.mark.parametrize("flag", ["--d", "--s", "--max-a-slack"])
    def test_campaign_width_cap_exit(self, flag, monkeypatch, capsys):
        import sumset_forge.cli as cli
        ran = []
        monkeypatch.setattr(cli, "campaign_random",
                            lambda *args, **kwargs: ran.append(args))
        assert main(["campaign", "--mode", "random", "--count", "1",
                     flag, str(10 ** 12)]) == 2
        captured = capsys.readouterr()
        assert f"{flag} needs integers in" in captured.err
        assert captured.out == "" and ran == []

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

    @pytest.mark.parametrize("raw", ["abc", "0", "-3", "2.5"])
    def test_campaign_bad_threads_exit(self, raw, monkeypatch, capsys):
        monkeypatch.setenv(THREADS_ENV, raw)
        assert main(["campaign", "--mode", "random", "--count", "5"]) == 2
        captured = capsys.readouterr()
        assert THREADS_ENV in captured.err and captured.out == ""

    def test_bench_verb_removed(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["bench"])
        assert exc.value.code == 2
        assert "invalid choice: 'bench'" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["missing/r.txt", "."])
    def test_campaign_bad_out_refused_before_work(self, where, tmp_path,
                                                  monkeypatch, capsys):
        import sumset_forge.cli as cli
        ran = []
        monkeypatch.setattr(cli, "campaign_random",
                            lambda *args, **kwargs: ran.append(args))
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

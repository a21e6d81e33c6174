import hashlib
import json

import pytest

import sumset_forge.layered as layered
from sumset_forge.cli import main
from sumset_forge.hall_bounds import HallViolator
from sumset_forge.harness import (CapExceeded, Finding, GenParams,
                                  REPORT_VERSION, THREADS_ENV, Tally, bench,
                                  campaign_exhaustive, campaign_random,
                                  canonical_instances, generate_instance,
                                  instance_from_doc, instance_to_json,
                                  load_instance, verify_instance, _rng_for)
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


class TestGenerator:
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
        """One matching per distinct offset tuple and one |B~+B~| sum per
        instance, over a whole campaign."""
        import sumset_forge.harness as harness
        monkeypatch.setenv(THREADS_ENV, "1")
        seen, sdr_calls, size_calls = [], [], []
        real_verify = harness.verify_instance
        real_sdr = layered.find_sdr
        real_size = layered.LayeredSumset.total_size

        def verify(L, tally):
            seen.append(L.offsets())
            return real_verify(L, tally)

        def sdr(family):
            sdr_calls.append(family)
            return real_sdr(family)

        def size(flat):
            size_calls.append(flat)
            return real_size(flat)

        monkeypatch.setattr(harness, "verify_instance", verify)
        monkeypatch.setattr(layered, "find_sdr", sdr)
        monkeypatch.setattr(layered.LayeredSumset, "total_size", size)
        campaign_random(GenParams(epsilon=0.2), 300, seed=4)
        assert len(seen) == 303
        assert len(sdr_calls) == len(set(seen)) < len(seen)
        assert len(size_calls) == len(seen)

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
        record = verify_instance(canonical_instances()[0][1], tally)
        assert tally.counts["prop6"] == {"violated": 1}
        assert [(f.check, f.status) for f in tally.findings
                if f.status == "violated"] == [("prop6", "violated")]
        assert "violator (0, 1)" in tally.findings[0].detail
        assert tally.counts["corollary1"] == {"holds": 1}
        assert tally.counts["prop7"] == {"holds": 1}
        assert tally.counts["structure"] == {"holds": 1}
        assert record["structure"].subgroup.order == 3

    def test_exhaustive_small(self):
        report = campaign_exhaustive((6,), 8)
        assert report.tally.violations == 0
        counts = report.tally.counts
        assert counts["lemma2"]["holds"] > 0

    def test_cap_refusal(self):
        with pytest.raises(CapExceeded):
            campaign_exhaustive((6, 7), 40, cap=100)


class TestBench:
    def test_cross_check_and_rows(self):
        rows = bench(("bitset", "naive"), (64,), 0.3, repeats=2)
        assert {r["kernel"] for r in rows} == {"bitset", "naive"}

    def test_unknown_kernel(self):
        with pytest.raises(ValueError, match="unknown kernel"):
            bench(("fft",), (64,), 0.3, repeats=1)


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

    def test_bench_unknown_kernel_exit(self, capsys):
        assert main(["bench", "--kernel", "fft", "--d", "64"]) == 2


# SHA-256 of whole report bodies.  Unlike a comparison of the count lines,
# the digest also pins every finding's check, detail and instance JSON.
GOLDEN_REPORTS = [
    (["--mode", "random", "--count", "2000", "--seed", "1"], 1,
     "f79e18e94fd84d01d77ca34eba4d43ee76cb3797593f788a3783017d6d1dd09f"),
    (["--mode", "exhaustive", "--s", "6,7", "--max-a", "12"], 0,
     "fe317c7381f7dd5f14a0009b52d7adbd1ddab505cb5cccc5665f93d03dc27dab"),
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

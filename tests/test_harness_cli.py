import json

import pytest

from sumset_forge.cli import main
from sumset_forge.harness import (CapExceeded, Finding, GenParams,
                                  REPORT_VERSION, THREADS_ENV, Tally, bench,
                                  campaign_exhaustive, campaign_random,
                                  canonical_instances, generate_instance,
                                  instance_from_doc, instance_to_json,
                                  load_instance, verify_instance, _rng_for)
from sumset_forge.layered import LayeredSet, LayeredSetError


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
        import sumset_forge.layered as layered
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
    ])
    def test_campaign_bad_arguments_exit(self, args, capsys):
        assert main(["campaign"] + args) == 2
        captured = capsys.readouterr()
        assert "error:" in captured.err and captured.out == ""

    def test_bench_unknown_kernel_exit(self, capsys):
        assert main(["bench", "--kernel", "fft", "--d", "64"]) == 2


def test_canonical_instances_are_valid():
    for name, L in canonical_instances():
        assert isinstance(L, LayeredSet)
        assert name

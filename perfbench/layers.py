"""Which program functions are traced, what each span counts, the per-layer
metrics computed from the spans, and the bypass self-check."""

from __future__ import annotations

from collections import Counter

from spans import Tracer, percentile, tail_percentile

PACKAGE = "sumset_forge"

# module -> traced functions; a name is `func` or `Class.method`
TIMED = {
    "layered": ("flatten_sumset", "prop6_lower_bound", "corollary1_check",
                "check_prop7", "find_structure", "verify_witness",
                "check_lemma5", "doubling_ratio"),
    "hall_bounds": ("find_sdr", "lemma2_certificate", "prop5_bound",
                    "abc_parameters", "r_parameter"),
    "rectify": ("solve_affine", "solve_affine_bruteforce"),
    "sumset_engine": ("sumset", "sumset_int", "stabilizer"),
    "group_core": ("subgroups", "CyclicGroup.divisors", "containing_coset"),
    "classical_checks": ("kneser_decomposition", "prop1_single_coset",
                         "prop2_single_coset"),
    "harness": ("generate_instance", "verify_instance", "instance_to_json",
                "CampaignReport.to_text"),
    "cli": ("main",),
}
COUNTED = {"layered": ("LayeredSumset.total_size",),
           "rectify": ("solve_affine_seeded",)}
LATENCY = ("hall_bounds.find_sdr", "harness.verify_instance")
HIT_RATIO = ("rectify.solve_affine", "group_core.containing_coset")
APPLICABLE = tuple(f"classical_checks.{f}" for f in TIMED["classical_checks"])

# spans that must be exactly zero on a workload (predicted bypass), and spans
# that must fire (the workload is there to move them)
ZERO = {
    "campaign_small_s": ("classical_checks.",),
    "campaign_large_s": ("classical_checks.",),
    "exhaustive_offsets": ("layered.", "rectify.", "classical_checks."),
    "coset_pairs_large_d": ("layered.", "rectify.", "hall_bounds.",
                            "harness.", "cli."),
}
_CAMPAIGN_FIRES = ("layered.flatten_sumset", "layered.prop6_lower_bound",
                   "layered.find_structure", "hall_bounds.find_sdr",
                   "rectify.solve_affine", "sumset_engine.sumset",
                   "group_core.containing_coset", "harness.generate_instance",
                   "harness.verify_instance", "cli.main")
FIRES = {
    "campaign_small_s": _CAMPAIGN_FIRES,
    "campaign_large_s": _CAMPAIGN_FIRES,
    "exhaustive_offsets": ("hall_bounds.find_sdr",
                           "hall_bounds.lemma2_certificate",
                           "hall_bounds.prop5_bound",
                           "hall_bounds.abc_parameters",
                           "hall_bounds.r_parameter",
                           "sumset_engine.sumset_int", "cli.main"),
    "coset_pairs_large_d": ("sumset_engine.sumset", "sumset_engine.stabilizer",
                            "group_core.subgroups",
                            "group_core.CyclicGroup.divisors",
                            "group_core.containing_coset",
                            "classical_checks.kneser_decomposition",
                            "classical_checks.prop1_single_coset",
                            "classical_checks.prop2_single_coset"),
}


def metric_units() -> list[tuple[str, str]]:
    """Every per-layer metric name with its unit, in output order."""
    out = []
    for module, names in TIMED.items():
        for fn in names:
            span = f"{module}.{fn}"
            out += [(f"{span}.calls", "count"), (f"{span}.self_s", "s")]
            if span in LATENCY:
                out += [(f"{span}.p50_ms", "ms"), (f"{span}.tail_ms", "ms")]
            if span in HIT_RATIO:
                out.append((f"{span}.hit_ratio", "ratio"))
            if span in APPLICABLE:
                out.append((f"{span}.applicable_ratio", "ratio"))
        for fn in COUNTED.get(module, ()):
            out.append((f"{module}.{fn}.calls", "count"))
    out += [("hall_bounds.find_sdr.left_vertices", "count"),
            ("sumset_engine.sumset.computed_bytes", "bytes"),
            ("harness.CampaignReport.to_text.report_bytes", "bytes"),
            ("layered.offset_sets.distinct_ratio", "ratio"),
            ("trace.overhead_ratio", "ratio")]
    return out


class Collector:
    """Input properties observed at span boundaries."""

    def __init__(self):
        self.offsets: set = set()
        self.instances = 0
        self.s: Counter = Counter()
        self.d: Counter = Counter()
        self.hall_calls = 0
        self.hall_left_sum = 0
        self.hall_density_sum = 0.0

    def props(self) -> dict:
        return {"distinct_offset_sets": len(self.offsets),
                "s": dict(sorted(self.s.items())),
                "d": dict(sorted(self.d.items())),
                "hall_calls": self.hall_calls,
                "hall_left_sum": self.hall_left_sum,
                "hall_density_sum": round(self.hall_density_sum, 6)}


def _hooks(col: Collector) -> dict:
    def verify_instance(span, args, result):
        layered_set = args[0]
        col.instances += 1
        col.offsets.add(layered_set.offsets())
        col.s[layered_set.s] += 1
        col.d[layered_set.d] += 1

    def lemma2_certificate(span, args, result):
        aset = args[0]
        col.offsets.add(aset.bits)
        col.s[len(aset)] += 1

    def find_sdr(span, args, result):
        family = args[0]
        n = len(family)
        span.bump("left_vertices", n)
        if n:
            col.hall_calls += 1
            col.hall_left_sum += n
            col.hall_density_sum += (sum(len(g) for g in family)
                                     / (n * family[0].bound))

    def sumset(span, args, result):
        a, b = args[0], args[1]
        span.bump("computed_bytes",
                  min(len(a), len(b)) * ((a.modulus + 7) // 8))

    def hit(span, args, result):
        span.bump("hits", result is not None)

    def applicable(span, args, result):
        span.bump("applicable", bool(result.applicable))

    def to_text(span, args, result):
        span.bump("report_bytes", len(result.encode()))

    hooks = {"harness.verify_instance": verify_instance,
             "hall_bounds.lemma2_certificate": lemma2_certificate,
             "hall_bounds.find_sdr": find_sdr,
             "sumset_engine.sumset": sumset,
             "harness.CampaignReport.to_text": to_text}
    hooks.update({name: hit for name in HIT_RATIO})
    hooks.update({name: applicable for name in APPLICABLE})
    return hooks


def install(col: Collector) -> Tracer:
    hooks = _hooks(col)
    targets = []
    for module, names in list(TIMED.items()) + list(COUNTED.items()):
        for fn in names:
            span = f"{module}.{fn}"
            targets.append((module, fn, span in LATENCY, hooks.get(span)))
    tracer = Tracer()
    tracer.install(PACKAGE, targets)
    return tracer


def _ms_stats(durations) -> tuple[float, float]:
    if not durations:
        return 0.0, 0.0
    tail = tail_percentile(len(durations)) or 50.0
    return (percentile(durations, 50.0) * 1000,
            percentile(durations, tail) * 1000)


def metrics(tracer: Tracer, col: Collector, overhead_ratio: float) -> dict:
    values: dict[str, float] = {}
    for name, _unit in metric_units():
        span_name, _, stat = name.rpartition(".")
        span = tracer.spans.get(span_name)
        if stat == "calls":
            values[name] = span.calls if span else 0
        elif stat == "self_s":
            values[name] = span.self_s if span else 0.0
        elif stat in ("p50_ms", "tail_ms"):
            p50, tail = _ms_stats(span.durations if span else [])
            values[name] = p50 if stat == "p50_ms" else tail
        elif stat in ("hit_ratio", "applicable_ratio"):
            key = "hits" if stat == "hit_ratio" else "applicable"
            values[name] = (span.counters.get(key, 0) / span.calls
                            if span and span.calls else 0.0)
        else:
            values[name] = span.counters.get(stat, 0) if span else 0
    values["layered.offset_sets.distinct_ratio"] = (
        len(col.offsets) / col.instances if col.instances else 0.0)
    values["trace.overhead_ratio"] = overhead_ratio
    return values


def self_check(workload: str, tracer: Tracer) -> list[str]:
    """Problems with the span counts against the predicted bypasses."""
    problems = []
    for name, span in tracer.spans.items():
        if span.calls and any(name.startswith(p) for p in ZERO[workload]):
            problems.append(f"{name} fired {span.calls}x, predicted zero")
    for name in FIRES[workload]:
        if not tracer.calls(name):
            problems.append(f"{name} never fired, predicted to")
    return problems

"""Command-line front end: verify an instance file, run verification
campaigns, benchmark the sumset kernels, pretty-print a report.

Exit codes: 0 ran clean (equality findings included), 1 violations found,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import sys

from . import layered as ls
from .harness import (CapExceeded, GenParams, bench,
                      campaign_exhaustive, campaign_random, load_instance,
                      verify_instance, Tally, REPORT_VERSION)
from .layered import LayeredSetError


def _int_tuple(raw: str) -> tuple[int, ...]:
    return tuple(int(tok) for tok in raw.split(",") if tok)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumset-forge",
        description="Sumset structure toolkit over Z x Z/dZ")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one instance file")
    p_verify.add_argument("file")

    p_camp = sub.add_parser("campaign", help="run a verification campaign")
    p_camp.add_argument("--mode", choices=("exhaustive", "random"),
                        required=True)
    p_camp.add_argument("--d", type=_int_tuple,
                        default=(12, 16, 18, 24, 30, 36),
                        help="comma-separated moduli (random mode)")
    p_camp.add_argument("--s", type=_int_tuple, default=(6, 7, 8, 9),
                        help="comma-separated layer counts / sizes")
    p_camp.add_argument("--max-a", type=int, default=12,
                        help="offset ceiling (exhaustive mode)")
    p_camp.add_argument("--count", type=int, default=10_000,
                        help="instances to generate (random mode)")
    p_camp.add_argument("--seed", type=int, default=1)
    p_camp.add_argument("--density", type=float, default=0.75)
    p_camp.add_argument("--epsilon", type=float, default=0.0)
    p_camp.add_argument("--max-a-slack", type=int, default=3)
    p_camp.add_argument("--no-canonical", action="store_true",
                        help="skip the canonical instance battery")
    p_camp.add_argument("--cap", type=int, default=2_000_000)
    p_camp.add_argument("--out", help="write the report here (default stdout)")

    p_bench = sub.add_parser("bench", help="benchmark sumset kernels")
    p_bench.add_argument("--kernel", type=lambda s: tuple(s.split(",")),
                         default=("bitset", "naive"))
    p_bench.add_argument("--d", type=_int_tuple, default=(64, 4096, 65536))
    p_bench.add_argument("--density", type=float, default=0.05)
    p_bench.add_argument("--repeats", type=int, default=3)

    p_report = sub.add_parser("report", help="pretty-print a report file")
    p_report.add_argument("file")
    return parser


def cmd_verify(args) -> int:
    try:
        instance = load_instance(args.file)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LayeredSetError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2
    tally = Tally()
    record = verify_instance(instance, tally)
    print(f"instance {args.file}")
    print(f"check flatten size={record['sumset_size']} base={record['size']} "
          f"ratio={record['ratio']}")
    print(f"check applicable {str(record['applicable']).lower()}")
    print(f"check prop6 bound={record['prop6']}")
    print(f"check corollary1 holds={str(record['corollary1']).lower()}")
    p7 = record["prop7"]
    print(f"check prop7 applicable={str(p7.applicable).lower()}"
          + (f" holds={str(p7.holds).lower()}" if p7.applicable else ""))
    out = record["structure"]
    if isinstance(out, ls.NotApplicable):
        print(f"check structure not_applicable reason=[{out.reason}]")
    elif isinstance(out, ls.ConclusionFailed):
        print(f"check structure FAILED conclusion={out.conclusion} "
              f"detail=[{out.detail}]")
    else:
        print(f"check structure witness order={out.subgroup.order} "
              f"x={out.x} y={out.y} j={out.j} ineq7={out.ineq7}")
        part = record["uvw"]
        print(f"check uvw u={part.u} v={part.v} w={part.w}")
        l5 = record["lemma5"]
        print(f"check lemma5 applicable={str(l5.applicable).lower()}"
              + (f" holds={str(l5.holds).lower()}" if l5.applicable else ""))
    for finding in tally.findings:
        print(finding.line())
    return 1 if tally.violations else 0


def cmd_campaign(args) -> int:
    # a bad value must exit 2 here: failing later in the campaign exits 1,
    # which reads as "violations found"
    for flag, values, minimum in (("--d", args.d, 1), ("--s", args.s, 2),
                                  ("--count", (args.count,), 0)):
        if not values or min(values) < minimum:
            print(f"error: {flag} needs integers >= {minimum}, got "
                  f"{','.join(map(str, values))!r}", file=sys.stderr)
            return 2
    if args.mode == "random":
        params = GenParams(d_values=args.d, s_min=min(args.s),
                           s_max=max(args.s), density=args.density,
                           epsilon=args.epsilon,
                           max_a_slack=args.max_a_slack)
        report = campaign_random(params, args.count, args.seed,
                                 include_canonical=not args.no_canonical)
    else:
        try:
            report = campaign_exhaustive(tuple(args.s), args.max_a,
                                         cap=args.cap)
        except CapExceeded as exc:
            print(f"refused: {exc}", file=sys.stderr)
            return 2
    text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    for phase, secs in report.timings.items():
        print(f"timing {phase} {secs:.3f}s", file=sys.stderr)
    return 1 if report.tally.violations else 0


def cmd_bench(args) -> int:
    try:
        rows = bench(args.kernel, args.d, args.density, args.repeats)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    for row in rows:
        print(f"bench kernel={row['kernel']} d={row['d']} "
              f"density={row['density']} size={row['size']} "
              f"median_s={row['median_s']:.6f}")
    return 0


def cmd_report(args) -> int:
    try:
        with open(args.file, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if not lines or lines[0] != REPORT_VERSION:
        print("error: not a sumset-forge report", file=sys.stderr)
        return 2
    findings = [l for l in lines if l.startswith("finding ")]
    counts = [l for l in lines if l.startswith("count ")]
    meta = [l for l in lines if l.split(" ", 1)[0] in ("mode", "seed", "param")]
    for line in meta:
        print(line)
    print(f"findings: {len(findings)}")
    for line in findings:
        print("  " + line)
    for line in counts:
        print(line)
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {"verify": cmd_verify, "campaign": cmd_campaign,
               "bench": cmd_bench, "report": cmd_report}[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())

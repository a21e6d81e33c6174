"""Command-line front end: verify an instance file, run verification
campaigns, pretty-print a report.  Kernel timings live in `perfbench/`.

Exit codes: 0 ran clean (equality findings included), 1 violations found,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import os
import sys
from functools import partial
from math import inf

from .harness import (EXHAUSTIVE_CAP, MAX_WIDTH, CapExceeded, GenParams,
                      LayeredSetError, campaign_exhaustive, campaign_random,
                      load_instance, require_exhaustive_domain,
                      verify_instance, worker_count, Tally, REPORT_VERSION)


def _strict(kind, lo=-inf, hi=inf):
    """An argparse type: a `kind` (int or float) in [lo, hi], spelled as the
    report prints it, `str(value)`, or a whole float as an integer ("0").
    `kind` alone reads "012", "+12", " 12", "1_2" and "١٢" as 12, ".75" as
    0.75 and "-0.0" as a zero that prints "-0.0", so that `--density 0`
    and `--density -0.0` would give two reports; such a token exits 2
    here, never coerced or failing later in the campaign, whose exit 1
    reads as "violations found".  An integer with more digits than the
    interpreter's `int` reads is refused as such."""
    noun = "an integer" if kind is int else "a number"

    def parse(token: str):
        try:
            # -0.0 + 0 is 0.0: a negative zero is one more spelling of 0.0
            value = kind(token) + 0
        except ValueError:
            digits = token.removeprefix("-")
            if kind is int and digits.isdecimal():  # only the digit limit
                raise argparse.ArgumentTypeError(
                    f"an integer of {len(digits)} digits, more than this "
                    f"interpreter's int_max_str_digits, "
                    f"{sys.get_int_max_str_digits()}") from None
            raise argparse.ArgumentTypeError(f"not {noun}: {token!r}") from None
        if not lo <= value <= hi:           # also false for nan
            raise argparse.ArgumentTypeError(
                f"needs {noun} in [{lo}, {hi}], got {token!r}")
        if token != str(value) and not (kind is float and value.is_integer()
                                        and token == str(int(value))):
            raise argparse.ArgumentTypeError(
                f"not {noun}: {token!r} (write {value})")
        return value
    return parse


def _int_tuple(lo, hi):
    """An argparse type: comma-separated integers, each in [lo, hi]."""
    item = _strict(int, lo, hi)

    def parse(raw: str) -> tuple[int, ...]:
        tokens = raw.split(",")     # "12,,16" is refused, not run as "12,16"
        if "" in tokens:
            raise argparse.ArgumentTypeError(f"empty value in {raw!r}")
        try:
            return tuple(map(item, tokens))
        except argparse.ArgumentTypeError as exc:
            raise argparse.ArgumentTypeError(f"{exc} in {raw!r}") from None
    return parse


def _plan_random(args):
    """The random campaign of `args`; --s is one layer count or lo,hi."""
    s = args.s
    if not (len(s) == 1 or len(s) == 2 and s[0] < s[1]):
        raise ValueError(
            "random mode reads --s as one layer count or lo,hi with "
            f"lo < hi, not {','.join(map(str, s))}")
    params = GenParams(d_values=args.d, s_min=s[0], s_max=s[-1],
                       max_a_slack=args.max_a_slack, density=args.density,
                       epsilon=args.epsilon)
    return partial(campaign_random, params, args.count, args.seed,
                   include_canonical=not args.no_canonical)


def _plan_exhaustive(args):
    """The exhaustive campaign of `args`, its domain refused here."""
    require_exhaustive_domain(args.s, args.max_a, args.cap)
    return partial(campaign_exhaustive, args.s, args.max_a, cap=args.cap)


# one record per campaign mode, (plan, defaults).  `plan(args)` raises
# ValueError on the mode's flags before `--out` is opened, else returns the
# campaign to run.  `defaults` names every flag the mode reads: the parser
# leaves a flag out unless written, so `cmd_campaign` refuses one that only
# another mode reads and fills in the rest.  Both modes read --s, random
# mode as the range lo,hi of its layer counts and exhaustive mode as a list
# of sizes, so each has its own default for it
MODES = {
    "random": (_plan_random, {
        "s": (GenParams.s_min, GenParams.s_max), "d": GenParams.d_values,
        "count": 10_000, "seed": 1, "density": GenParams.density,
        "epsilon": GenParams.epsilon, "max_a_slack": GenParams.max_a_slack,
        "no_canonical": False}),
    "exhaustive": (_plan_exhaustive, {
        "s": tuple(range(GenParams.s_min, GenParams.s_max + 1)),
        "max_a": 12, "cap": EXHAUSTIVE_CAP}),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sumset-forge",
        description="Sumset structure toolkit over Z x Z/dZ")
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="verify one instance file")
    p_verify.add_argument("file")

    p_camp = sub.add_parser("campaign", help="run a verification campaign",
                            argument_default=argparse.SUPPRESS)
    p_camp.add_argument("--mode", choices=sorted(MODES), required=True)
    p_camp.add_argument("--d", type=_int_tuple(1, MAX_WIDTH),
                        help="comma-separated moduli (random mode)")
    p_camp.add_argument("--s", type=_int_tuple(2, MAX_WIDTH),
                        help="layer counts: s or lo,hi (random mode), "
                             "comma-separated sizes (exhaustive mode)")
    p_camp.add_argument("--max-a", type=_strict(int, 1),
                        help="offset ceiling (exhaustive mode)")
    p_camp.add_argument("--count", type=_strict(int, 0),
                        help="instances to generate (random mode)")
    p_camp.add_argument("--seed", type=_strict(int))
    p_camp.add_argument("--density", type=_strict(float, 0, 1))
    p_camp.add_argument("--epsilon", type=_strict(float, 0, 1))
    p_camp.add_argument("--max-a-slack", type=_strict(int, 0, MAX_WIDTH))
    p_camp.add_argument("--no-canonical", action="store_true",
                        help="skip the canonical instance battery")
    p_camp.add_argument("--cap", type=_strict(int))
    p_camp.add_argument("--out", default=None,
                        help="write the report here (default stdout)")

    p_report = sub.add_parser("report", help="pretty-print a report file")
    p_report.add_argument("file")
    return parser


def cmd_verify(args) -> int:
    try:
        instance = load_instance(args.file)
    except LayeredSetError as exc:
        print(f"invalid instance: {exc}", file=sys.stderr)
        return 2
    tally = Tally()
    print(f"instance {args.file}")
    for line in verify_instance(instance, tally):
        print(line)
    for finding in tally.findings:
        print(finding.line())
    return 1 if tally.violations else 0


def cmd_campaign(args) -> int:
    given = vars(args)
    plan, own = MODES[args.mode]
    # each flag some mode reads, once, in table order
    every = dict.fromkeys(f for _, flags in MODES.values() for f in flags)
    foreign = [name for name in every if name in given and name not in own]
    if foreign:
        flags = ", ".join("--" + name.replace("_", "-") for name in foreign)
        print(f"error: {args.mode} mode does not read {flags}",
              file=sys.stderr)
        return 2
    for name, default in own.items():
        given.setdefault(name, default)
    try:
        worker_count()
        campaign = plan(args)   # before the probe, which creates --out
        if args.out is not None:
            # a path that cannot be opened for writing, "" included, is
            # refused here, before the campaign; one that opens but refuses
            # writes (/dev/full) fails only at the write below, also with
            # exit 2.  Appending leaves an existing file as it is
            open(args.out, "a", encoding="utf-8").close()
    except CapExceeded as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = campaign()
    text = report.to_text()
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    print(f"timing total {report.seconds:.3f}s", file=sys.stderr)
    return 1 if report.tally.violations else 0


def cmd_report(args) -> int:
    with open(args.file, "r", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # every report ends with "end": one cut short is refused
    if not lines or lines[0] != REPORT_VERSION or lines[-1] != "end":
        print("error: not a whole sumset-forge report", file=sys.stderr)
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
    """Run one verb.  A file it cannot read, decode or write, stdout too,
    exits 2, as a refused input does, never in a traceback, whose exit 1
    would read as "violations found"."""
    args = build_parser().parse_args(argv)
    handler = {"verify": cmd_verify, "campaign": cmd_campaign,
               "report": cmd_report}[args.command]
    try:
        code = handler(args)
        sys.stdout.flush()      # a failed write to stdout shows here
        return code
    except (OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        try:
            sys.stdout.flush()
        except OSError:     # else the flush at exit fails and exits 120
            null = os.open(os.devnull, os.O_WRONLY)
            os.dup2(null, sys.stdout.fileno())
            os.close(null)
        return 2


if __name__ == "__main__":
    sys.exit(main())

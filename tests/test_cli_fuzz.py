"""Fuzzing of the command line: whatever the input, `verify` and `campaign`
end in exit 0 (clean), 1 (violations) or 2 (refused), never in a traceback,
which would exit 1 and read as "violations found"."""

import json
from math import inf

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from sumset_forge.cli import main
from sumset_forge.harness import (MAX_WIDTH, THREADS_ENV, LayeredSetError,
                                  instance_from_doc, instance_to_json)

JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=5),
    lambda children: (st.lists(children, max_size=6)
                      | st.dictionaries(st.text(max_size=5), children,
                                        max_size=4)),
    max_leaves=30)


@st.composite
def instance_docs(draw):
    """A layered set with 0 first and in B_1 and offsets increasing, which
    may still break an invariant (the gcd), some with a field replaced by an
    arbitrary JSON value: most reach the checks, the rest the validation."""
    d = draw(st.integers(1, 24))
    step = draw(st.sampled_from([k for k in range(1, d + 1) if d % k == 0]))
    x = draw(st.integers(0, d - 1))
    rest = draw(st.lists(st.integers(1, 10), min_size=2, max_size=7,
                         unique=True))
    # B_i inside a_i*x + H for the subgroup H of the drawn step, so that
    # small doublings, and with them the structure checks, are reached;
    # members are distinct, as a repeated one is refused
    coset = range(d // step)
    layers = [{"a": a, "set": [(a * x + j * step) % d for j in draw(
                  st.just(coset) | st.lists(st.sampled_from(coset),
                                            min_size=1, max_size=6,
                                            unique=True))]}
              for a in [0] + sorted(rest)]
    if 0 not in layers[0]["set"]:
        layers[0]["set"].append(0)
    doc = {"d": d, "layers": layers}
    if draw(st.integers(0, 3)) == 0:
        field = draw(st.sampled_from(["d", "layers", "a", "set"]))
        target = (doc if field in ("d", "layers")
                  else layers[draw(st.integers(0, len(layers) - 1))])
        target[field] = draw(JSON_VALUES)
    return doc


@st.composite
def wide_instance_docs(draw):
    """Instance documents at any d up to 2^20, with one to three members
    per layer."""
    d = draw(st.integers(1, 1 << 20))
    rest = draw(st.lists(st.integers(1, 40), min_size=1, max_size=4,
                         unique=True))
    layers = [{"a": a, "set": draw(st.lists(st.integers(0, d - 1),
                                            min_size=1, max_size=3,
                                            unique=True))}
              for a in [0] + sorted(rest)]
    if 0 not in layers[0]["set"]:
        layers[0]["set"].append(0)
    return {"d": d, "layers": layers}


@settings(max_examples=200, deadline=None)
@given(doc=instance_docs() | wide_instance_docs())
def test_instance_json_is_the_documents_json(doc):
    """`instance_to_json` of a valid document's instance is, byte for byte,
    `json.dumps` of that document with sorted keys, no spaces and each
    layer's members ascending, and it reads back to the same instance."""
    try:
        L = instance_from_doc(doc)
    except LayeredSetError:
        return
    for layer in doc["layers"]:
        layer["set"] = sorted(layer["set"])
    text = instance_to_json(L)
    assert text == json.dumps(doc, separators=(",", ":"), sort_keys=True)
    assert instance_from_doc(json.loads(text)) == L


def _exit_code(argv) -> int:
    try:
        return main(argv)
    except SystemExit as exc:           # argparse refusing a flag
        return exc.code


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(doc=JSON_VALUES | instance_docs())
def test_verify_any_json_document(doc, tmp_path, capsys):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["verify", str(path)]) in (0, 1, 2)
    capsys.readouterr()


def _int_list(values) -> str:
    return ",".join(map(str, values))


def _mode_flags(ints, fractions, min_size):
    """Each mode's campaign value flags, drawn from `ints(lo, hi)`,
    `fractions` and lists of at least `min_size` values; exhaustive domains
    stay small through --max-a and --cap.  Random mode's --s is one layer
    count or an ascending pair lo,hi, the forms it reads."""
    s = st.lists(ints(2, 10), min_size=min_size, max_size=3).map(_int_list)
    span = st.lists(ints(2, 10), min_size=min_size, max_size=2,
                    unique=True).map(sorted).map(_int_list)
    return {
        "random": {
            "--s": span,
            "--d": st.lists(ints(1, 40), min_size=min_size,
                            max_size=3).map(_int_list),
            "--count": ints(0, 8).map(str),
            "--seed": st.integers().map(str),
            "--density": fractions.map(str),
            "--epsilon": fractions.map(str),
            "--max-a-slack": ints(0, 8).map(str),
        },
        "exhaustive": {
            "--s": s,
            "--max-a": ints(1, 12).map(str),
            "--cap": ints(0, 500).map(str),
        },
    }


# in range, so the campaigns run; and one past each end, or not finite
VALID_FLAGS = _mode_flags(st.integers, st.floats(0, 1), 1)
BOUNDED_FLAGS = _mode_flags(
    lambda lo, hi: st.integers(lo - 1, hi + 1),
    st.floats(-0.5, 1.5) | st.sampled_from(["nan", "inf", "-inf"]), 0)


@st.composite
def campaign_argv(draw, table, mode=None):
    """A campaign in `mode` (else either) with every value flag that mode
    reads, and in random mode --no-canonical half of the time."""
    mode = mode or draw(st.sampled_from(sorted(table)))
    flags = draw(st.fixed_dictionaries(table[mode]))
    # --flag=value keeps a value such as "-1" from reading as a flag
    argv = ["campaign", f"--mode={mode}"] + [
        f"{flag}={value}" for flag, value in flags.items()]
    if mode == "random" and draw(st.booleans()):
        argv.append("--no-canonical")
    return argv


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=campaign_argv(VALID_FLAGS) | campaign_argv(BOUNDED_FLAGS))
def test_campaign_bounded_flags(argv, monkeypatch, capsys):
    monkeypatch.setenv(THREADS_ENV, "1")
    assert _exit_code(argv) in (0, 1, 2)
    capsys.readouterr()


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_campaign_foreign_flag_exits_2(data, tmp_path, capsys):
    """A flag that the chosen mode does not read, written among that mode's
    own, exits 2 with the flag and the mode on stderr, before the --out
    file is created: the campaign never runs as if it were not there."""
    mode, other = data.draw(st.permutations(["random", "exhaustive"]))
    argv = data.draw(campaign_argv(VALID_FLAGS, mode))
    foreign = [arg for arg in data.draw(campaign_argv(VALID_FLAGS, other))[2:]
               if not arg.startswith("--s=")]
    extra = data.draw(st.lists(st.sampled_from(foreign), min_size=1,
                               unique=True))
    out = tmp_path / "report.txt"
    code = _exit_code(argv + extra + [f"--out={out}"])
    err = capsys.readouterr().err
    assert code == 2 and f"{mode} mode" in err
    assert all(arg.split("=")[0] in err for arg in extra)
    assert not out.exists()


ARABIC_INDIC, FULLWIDTH = (
    str.maketrans("0123456789", "".join(chr(zero + k) for k in range(10)))
    for zero in (0x660, 0xFF10))


@st.composite
def spellings(draw, values):
    """(value, token): a value drawn from `values` and one of the many
    spellings that Python's int() or float() reads as it, or nearly so.  A
    zero is drawn as 0 or 0.0 and, half of the time, spelled as a negative
    zero, which float() reads as -0.0."""
    value = draw(values) + 0            # -0.0 + 0 is 0.0, the same value
    text = str(value)
    sign, body = ("-", text[1:]) if text[0] == "-" else ("", text)
    tokens = [text, f"{sign}0{body}", f"{sign}00{body}", f"+{text}",
              f"{text}e0", f" {text}", f"{text} ", f"\t{text}",
              f"{sign}{body[:1]}_{body[1:]}", text.translate(ARABIC_INDIC),
              text.translate(FULLWIDTH), f"{text}0", f"{text}.0"]
    if isinstance(value, float):
        tokens += [f"{value:.{draw(st.integers(0, 20))}f}", f"{value:e}",
                   f"{value:.17g}", text.removeprefix("0")]
        if value.is_integer():
            tokens.append(str(int(value)))
    if value == 0:
        return value, draw(st.sampled_from(tokens)
                           | st.sampled_from([f"-{text}", "-0", "-0e0"]))
    return value, draw(st.sampled_from(tokens))


# flag: (report line prefix, drawn values, domain); --count stays small so
# that every campaign the parser lets through is quick
SPELLED_FLAGS = {
    "--d": ("param d ", st.integers(-3, 2 * MAX_WIDTH), (1, MAX_WIDTH)),
    "--count": ("param count ", st.integers(-2, 3), (0, inf)),
    "--seed": ("seed ", st.integers(), (-inf, inf)),
    "--max-a-slack": ("param max_a_slack ", st.integers(-3, 2 * MAX_WIDTH),
                      (0, MAX_WIDTH)),
    "--density": ("param density ",
                  st.floats() | st.floats(0, 1) | st.just(-0.0), (0, 1)),
    "--epsilon": ("param epsilon ",
                  st.floats() | st.floats(0, 1) | st.just(-0.0), (0, 1)),
}


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_campaign_flag_one_spelling(data, monkeypatch, capsys):
    """A numeric flag runs only as the report prints it: the report's line
    reads the token unchanged (a whole float written as an integer gains
    ".0"), or the campaign exits 2.  The value's own spelling, in its
    domain, runs.  A negative zero, which float() reads as a zero that
    prints "-0.0", exits 2: 0.0 is spelled one way."""
    flag = data.draw(st.sampled_from(sorted(SPELLED_FLAGS)))
    prefix, values, (lo, hi) = SPELLED_FLAGS[flag]
    value, token = data.draw(spellings(values))
    monkeypatch.setenv(THREADS_ENV, "1")
    code = _exit_code(["campaign", "--mode", "random", "--no-canonical",
                       "--count=0", f"{flag}={token}"])
    out = capsys.readouterr().out.splitlines()
    if code == 2:
        assert token != str(value) or not lo <= value <= hi
        return
    line, = (l for l in out if l.startswith(prefix))
    printed = line[len(prefix):]
    assert printed == token or (isinstance(value, float)
                                and printed == token + ".0")
    # the value that ran has this one spelling: -0.0 would print as 0.0
    assert printed == str(type(value)(printed) + 0)

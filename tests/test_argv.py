"""The command line parser against argparse.

``cli._parse`` reads every command's operands and options from
``cli.COMMANDS``; :func:`helpers.build_parser`, the argparse parser it
replaced, is its oracle.  For each argv both must accept with the same
attributes, or both stop with the same exit code: 0 for help, 2 for a usage
error.
"""

import contextlib
import functools
import io
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import cli

from helpers import build_parser
from test_io_cli import GOLDEN, SAMPLE_ARGS, cpath, run_cli

FLAGS = ["--help", "--format", "--field", "--max-cycles", "--max-pairs",
         "--set", "--force-degree-only", "--max-deg"]
#: Every long flag in full and by every prefix, unique or ambiguous, and -h.
SPELLINGS = sorted({flag[:n] for flag in FLAGS for n in range(3, len(flag) + 1)}) + \
    ["-h", "-hh", "-hx"]
VALUES = ["-1", "0", "x", "--", "-h", "2", "F3", "Q", "text", "dot", "json-lines"]
OPERANDS = [cpath("sq2"), cpath("ch2-ideal-F3"), "x.graph", "-"]
NAMES = [*cli.COMMANDS, "no-such-command"]


@functools.cache
def _oracle_parser():
    return build_parser()


#: What argparse is given for a "--" it would read as a value: inline, as in
#: --flag=--, or after the first "--".  Its _get_values drops a "--" from every
#: argument's strings, so it reads that value as [] (None for dim's optional
#: ideal, and an unchecked [] for --format, read as text); _parse reads the
#: string "--", as it reads any other value there.
STAND_IN = "<dashes>"


def _with_stand_ins(argv: list[str]) -> list[str]:
    out = []
    for word in argv:
        if "--" in out:
            word = STAND_IN if word == "--" else word
        elif word.startswith("-") and word.endswith("=--"):
            word = word[:-2] + STAND_IN
        out.append(word)
    return out


def oracle(argv: list[str]):
    """argparse's reading: the attributes, absent options at cli's defaults, or the exit code."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            namespace = _oracle_parser().parse_args(_with_stand_ins(argv))
        except SystemExit as exc:
            return exc.code
    defaults = {dest: default for _, dest, default, _ in cli.GLOBAL_OPTIONS}
    return {key: "--" if value == STAND_IN else value
            for key, value in {**defaults, **vars(namespace)}.items()}


def parsed(argv: list[str]):
    try:
        return vars(cli._parse(argv))
    except cli._Exit as exc:
        return exc.code


def check(argv: list[str]):
    assert parsed(list(argv)) == oracle(list(argv)), argv


option = st.one_of(
    st.sampled_from(SPELLINGS),
    st.builds("{}={}".format, st.sampled_from(SPELLINGS), st.sampled_from(VALUES)))
token = st.one_of(option, st.sampled_from(VALUES), st.sampled_from(OPERANDS), st.just("--"))
command_lines = st.one_of(
    st.builds(lambda before, name, after: [*before, name, *after],
              st.lists(token, max_size=4), st.sampled_from(NAMES), st.lists(token, max_size=8)),
    st.lists(st.one_of(token, st.sampled_from(NAMES)), max_size=8))


@st.composite
def option_words(draw, flags: list[str]) -> list[str]:
    """One of ``flags`` by a prefix, with a value apart or inline unless it takes none."""
    flag = draw(st.sampled_from(flags))
    spelled = draw(st.sampled_from([s for s in SPELLINGS if flag.startswith(s)]))
    if flag in ("--help", "--force-degree-only"):
        return [spelled]
    value = draw(st.sampled_from(VALUES))
    return draw(st.sampled_from([[spelled, value], [f"{spelled}={value}"]]))


@st.composite
def near_valid_command_lines(draw) -> list[str]:
    """A command with about its operand count, options before and among them,
    and now and then a "--" ahead of the last operands."""
    name = draw(st.sampled_from(list(cli.COMMANDS)))
    command = cli.COMMANDS[name]
    count = max(0, len(command.operands) + draw(st.sampled_from([0, 0, 0, -1, 1])))
    words = draw(st.lists(st.sampled_from(OPERANDS + ["--", "-1"]),
                          min_size=count, max_size=count))
    flags = FLAGS[:5] + [flag for flag, *_ in command.options]
    for piece in draw(st.lists(option_words(flags), max_size=3)):
        at = draw(st.integers(0, len(words)))
        words[at:at] = piece
    if draw(st.booleans()):
        at = draw(st.integers(len(words) - count, len(words)))
        words.insert(at, "--")
    before = draw(st.lists(option_words(FLAGS[1:5]), max_size=2))
    return [*(w for piece in before for w in piece), name, *words]


@settings(max_examples=3000)
@given(st.one_of(command_lines, near_valid_command_lines()))
def test_drawn_command_lines_read_as_argparse_reads_them(argv):
    check(argv)


#: The argv shapes bench/workloads.py runs (_ideal_op and _lattice_op).
WORKLOAD_SHAPES = [
    [kind, cpath("loop"), cpath("complex-ideal-F5")]
    for kind in ("decide", "sever", "certificate", "radical", "dim", "quotient")
] + [
    ["sever", "--force-degree-only", cpath("sq5"), cpath("ch2-ideal-F2")],
    ["strata", "--field", "F5", "--max-deg", "3", cpath("loop")],
    ["analyze", cpath("sq2")],
]

EDGES = [
    [], ["-h"], ["--help"], ["--he"], ["-hh"], ["-h=h"], ["-h="], ["-hx"], ["--help=x"],
    ["--", "analyze", "g"], ["analyze", "--", "g"], ["analyze", "g", "--"],
    ["decide", "--", "g", "--"], ["dim", "g", "--", "--"], ["dim", "--", "g", "--"],
    ["analyze", "g", "--format", "text", "--"],
    ["dim", "g", "--format", "text", "i"], ["dim", "--format", "text", "g", "i"],
    ["decide", "g", "--format", "text", "i"], ["dim", "g", "i", "--format=dot"],
    ["--format", "dot", "analyze", "--format", "text", "g"], ["--form=dot", "analyze", "g"],
    ["analyze", "g", "--max-cycles", "-1"], ["analyze", "g", "--max-cycles", "--"],
    ["analyze", "g", "--max-cycles", "-h"], ["analyze", "g", "--max-cycles=--"],
    ["analyze", "g", "--max-cycles=-h"], ["analyze", "g", "--max-cycles", "1", "--max-c", "2"],
    ["-h", "analyze", "--f"], ["-h", "sever", "--fo"], ["sever", "--fo", "g", "j"],
    ["strata", "--max-d", "2", "g"], ["strata", "g"], ["strata", "--max-deg"],
    ["--max-d", "2", "strata", "g"], ["sever", "--force-degree-only=x", "g", "j"],
    ["analyze", "-x", "g"], ["-x", "analyze", "g", "-h"], ["analyze", "g", "extra", "-h"],
    ["analyze", "--max-cycles", "-a b", "g"], ["analyze", "--f x"], ["analyze", ""],
    ["sever", "-h", "--fo"], ["sever", "g", "j", "--help", "--f"],
    ["closure", "--set=", "g"], ["closure", "g", "--set", "a,b", "--set", "c"],
    ["--=x", "analyze", "g"], ["analyze", "---x", "g"], ["analyze", "-1.5"], ["analyze", "-1."],
    ["check-morphism", "m", "a", "b"], ["check-morphism", "m", "a"], ["end", "g", "p", "q"],
]


@pytest.mark.parametrize("argv", [
    *(list(args) for args, _ in GOLDEN),
    *([name, *args] for name, args in SAMPLE_ARGS.items()),
    *([*fmt, name, *args] for name, args in SAMPLE_ARGS.items()
      for fmt in (["--format", "json-lines"], ["--format", "dot"], ["--max-pairs", "5"])),
    *WORKLOAD_SHAPES, *EDGES,
], ids=repr)
def test_known_command_lines_read_as_argparse_reads_them(argv):
    check(argv)


def test_global_option_after_the_name_wins():
    args = cli._parse(["--format", "dot", "--field", "F5", "quotient", "--format", "text",
                       "g", "j"])
    assert (args.output_format, args.field, args.graph, args.ideal) == ("text", "F5", "g", "j")


def test_help_lists_the_table(capsys):
    assert cli.main(["--help"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("usage: leavitt") and all(name in out for name in cli.COMMANDS)
    assert cli.main(["strata", "-h"]) == 0
    out = capsys.readouterr().out
    assert "--max-deg MAX-DEG" in out.splitlines()[0] and "--max-pairs" in out
    assert "param" not in out


def test_max_p_is_a_unique_prefix_of_max_pairs():
    args = parsed(["--max-p", "5", "strata", "--max-deg", "2", "g"])
    assert args["maxPairs"] == "5" and "maxParamPoints" not in args
    check(["--max-p", "5", "strata", "--max-deg", "2", "g"])
    check(["strata", "--max-p=5", "--max-deg", "2", "g"])


def test_the_param_points_bound_is_no_option(capsys):
    loop = cpath("loop")
    assert run_cli("strata", "--field", "F3", "--max-deg", "1", "--max-param-points", "5",
                   loop) == (2, "")
    assert "unrecognized arguments: --max-param-points" in capsys.readouterr().err
    assert run_cli("strata", "--field", "F3", "--max-deg", "1", loop,
                   env_extra={"LPA_LIMITS": "maxParamPoints=5"}) == (2, "")
    assert "unknown LPA_LIMITS key 'maxParamPoints'" in capsys.readouterr().err


def test_usage_error_goes_to_stderr(capsys):
    assert cli.main(["decide", cpath("loop")]) == 2
    captured = capsys.readouterr()
    lines = captured.err.splitlines()
    assert captured.out == "" and lines[0].startswith("usage: leavitt [options] decide")
    assert lines[1].startswith("leavitt: error: ")


def test_main_returns_the_code_and_never_exits(capsys):
    for argv in (["-h"], ["no-such-command"], ["--format", "bad", "analyze", "g"]):
        assert cli.main(argv) in (0, 2)
    assert run_cli("analyze", "--max-cycles") == (2, "")


def test_a_literal_dashes_value_is_a_string():
    # argparse read each of these as [], which the handlers then failed on
    # with a TypeError or AttributeError
    assert run_cli("decide", "--", cpath("loop"), "--") == (2, "")
    assert run_cli("analyze", "--max-cycles=--", cpath("loop")) == (2, "")
    assert run_cli("closure", "--set=--", cpath("loop")) == (3, "")


def test_main_without_argv_reads_sys_argv(monkeypatch, capsys):
    # the console script leavitt = "leavitt.cli:program" calls main()
    monkeypatch.setattr(sys, "argv", ["leavitt", "dim", cpath("ek-severed")])
    assert cli.main() == 0
    assert capsys.readouterr().out == "48 = 3 × M_4\n"
    monkeypatch.setattr(sys, "argv", ["leavitt", "strata", cpath("loop")])
    assert cli.main() == 2

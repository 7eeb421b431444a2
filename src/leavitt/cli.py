"""Command-line front end.

One subcommand per operation; deterministic text output, with ``--format
json-lines`` mirroring every report line as a JSON record and ``--format
dot`` available where the result is a digraph.  :data:`COMMANDS` is the one
list of subcommands: the command line reader (:func:`_parse`, which keeps
argparse's conventions without loading argparse, gettext or locale), the
loading of operand files, the ``--format dot`` check and the dispatch all
read it.  Exit codes: 0 verdicts and help, 2 usage and parse errors,
3 validation errors, 4 resource limits, 5 internal consistency failures.

Only ``digraph``, ``errors`` and ``records`` load with this module; each
handler imports the modules it runs, so a command compiles no code it does
not use.  ``analyze``, ``closure``, ``dot`` and ``check-morphism`` add ``io``
alone; ``decide``, ``sever``, ``certificate``, ``radical``, ``quotient`` and
``dim`` add ``io``, ``fields``, ``ideals`` and ``quotients``; ``strata`` adds
``io``, ``scalars`` and ``ideals``; ``monoid``, ``orth``, ``fgip``,
``simples`` and ``end`` add ``ktheory`` with them (``end`` also
``quotients``).  ``--field`` loads ``scalars``, the field without its
polynomials, which ``fields`` imports.  Coefficients over ℚ load
``rationals`` and with it ``fractions``; work over 𝔽p does not.  ``json``
loads only under ``--format json-lines``.  ``bitindex`` loads with the first
closure, enumeration of closed sets or check of an ideal.
"""

from __future__ import annotations

import os
import re
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Callable

from . import digraph as dg
from .errors import (
    InternalConsistencyError,
    LeavittError,
    ParseError,
    ResourceLimitError,
)
from .records import record

if TYPE_CHECKING:
    from . import quotients as qt
    from .scalars import Field

DEFAULT_LIMITS = {"maxCycles": 10_000, "maxPairs": 10_000}
LIMIT_FLAGS = {"maxCycles": "--max-cycles", "maxPairs": "--max-pairs"}


class Reporter:
    """Collects report records; renders text or json-lines."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out
        if fmt == "json-lines":
            from json import dumps
            self._dumps = dumps

    def emit(self, text: str, **fields):
        if self.fmt == "json-lines":
            record = dict(fields)
            record.setdefault("text", text)
            self.out.write(self._dumps(record, sort_keys=True) + "\n")
        else:
            self.out.write(text + "\n")

    def emit_block(self, text: str, **fields):
        """A multi-line payload: a serialized digraph, ideal or certificate, or DOT."""
        if self.fmt == "json-lines":
            self.out.write(self._dumps(dict(fields, content=text), sort_keys=True) + "\n")
        else:
            self.out.write(text)

    def quotient(self, result: qt.QuotientResult):
        """A constructed digraph: DOT under ``--format dot``, else its serialized block."""
        if self.fmt == "dot":
            self.out.write(dg.to_dot(result.digraph))
        else:
            from . import io as tio
            self.emit_block(tio.serialize_quotient(result), record="digraph",
                            name=result.digraph.name)


def _positive_int(text: str, what: str) -> int:
    """The one check for a count given as text: a limit flag, LPA_LIMITS, --max-deg."""
    try:  # int() raises ValueError past 4,300 digits: a bad count all the same
        if text.isascii() and text.isdigit() and int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise ParseError(f"{what} must be a positive integer")


def _env_limits() -> dict:
    raw = os.environ.get("LPA_LIMITS", "")
    out = {}
    for piece in filter(None, (p.strip() for p in raw.split(","))):
        if "=" not in piece:
            raise ParseError(f"bad LPA_LIMITS entry {piece!r}")
        key, value = piece.split("=", 1)
        if key not in DEFAULT_LIMITS:
            raise ParseError(f"unknown LPA_LIMITS key {key!r}")
        out[key] = _positive_int(value, f"LPA_LIMITS {key}")
    return out


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(str(exc), None, path) from None


def _load(operand: str, path: str | None, override: Field | None):
    """Read and parse one operand file by the kind its name in COMMANDS gives;
    None for an optional operand left out."""
    if path is None:
        return None
    from . import io as tio
    text = _read(path)
    if operand.endswith("graph"):
        return tio.parse_digraph(text, path)
    if operand == "ideal":
        return tio.parse_ideal(text, path, field_override=override)
    if operand == "presentation":
        return tio.parse_presentation(text, path)
    return tio.parse_morphism_file(text, path)


def _config_from(args) -> tuple[dict, Field | None, str]:
    """(limits, field override, output format), all checked before any output."""
    limits = dict(DEFAULT_LIMITS)
    limits.update(_env_limits())
    for key, flag in LIMIT_FLAGS.items():
        if getattr(args, key) is not None:
            limits[key] = _positive_int(getattr(args, key), flag)
    override = None
    if args.field:
        from .scalars import Field
        try:
            override = Field.from_header(args.field)
        except ValueError as exc:
            raise ParseError(str(exc)) from None
    return limits, override, args.output_format


def _set_label(vs) -> str:
    return "{" + ",".join(sorted(vs)) + "}"


def _failures(decision: qt.DecideResult, field: Field) -> str:
    return "; ".join(f"cycle {r.label}: {r.verdict.describe(field)}"
                     for r in decision.failing())


# -- handlers: each takes the reporter, the parsed arguments (with the checked
# ``limits`` and ``override`` that run adds) and the loaded operands in
# COMMANDS order, imports the modules it runs beyond digraph, and writes only
# through the reporter

def _analyze(rep: Reporter, args, g):
    info = dg.classify_vertices(g)
    for v in g.vertices:
        i = info[v]
        flags = [name for name, on in [
            ("sink", i.sink), ("source", i.source), ("branch", i.branch_vertex),
            ("infinite-emitter", i.infinite_emitter), ("regular", i.regular),
            ("line-point", i.line_point), ("leak", i.leak)] if on]
        rep.emit(f"vertex {v}: " + " ".join(flags), record="vertex", id=v,
                 sink=i.sink, source=i.source, branch=i.branch_vertex,
                 infiniteEmitter=i.infinite_emitter, regular=i.regular,
                 linePoint=i.line_point, leak=i.leak)
    for ci in dg.enumerate_cycles(g, limit=args.limits["maxCycles"]):
        flags = [("has-exit" if ci.has_exit else "no-exit"),
                 ("exclusive" if ci.exclusive else "overlapping")]
        rep.emit(f"cycle {ci.cycle.label()}: " + " ".join(flags),
                 record="cycle", arrows=list(ci.cycle.arrows),
                 hasExit=ci.has_exit, exclusive=ci.exclusive,
                 multiplicityOne=ci.multiplicity_one)
    ids = g.bits.ids
    for m in dg.enumerate_hereditary_saturated(g, limit=args.limits["maxPairs"], masks=True):
        members = ids(m)  # sorted, as _set_label would sort them
        rep.emit("hs-set {" + ",".join(members) + "}", record="hs-set", vertices=members)


def _closure(rep: Reporter, args, g):
    xs = [v for v in args.vertex_set.split(",") if v]
    closed = dg.hereditary_saturated_closure(g, xs)
    rep.emit(f"closure {_set_label(closed)}", record="closure", vertices=sorted(closed))


def _quotient(rep: Reporter, args, g, j):
    from . import quotients as qt
    rep.quotient(qt.graded_quotient(g, j.pair))


def _decide(rep: Reporter, args, g, j):
    from . import quotients as qt
    decision = qt.decide_lpa_quotient(g, j)
    if not decision.is_lpa:
        detail = _failures(decision, j.field)
        rep.emit(f"notLPA: {detail}", record="verdict", isLPA=False, detail=detail)
        return
    rep.emit("isLPA", record="verdict", isLPA=True)
    for r in decision.reports:
        rep.emit(f"cycle {r.label}: {r.verdict.describe(j.field)}",
                 record="cycle-report", cycle=r.label,
                 roots=[j.field.format_scalar(x) for x in r.verdict.roots])
    rep.quotient(decision.severed)


def _sever(rep: Reporter, args, g, j):
    from . import quotients as qt
    if args.force_degree_only:  # severing reads only deg θ: no dlf verdicts
        rep.quotient(qt.sever(g, j))
        return
    decision = qt.decide_lpa_quotient(g, j)
    if not decision.is_lpa:
        raise qt.NotDlfError(f"{_failures(decision, j.field)} "
                             "(use --force-degree-only for the degree-only construction)")
    rep.quotient(decision.severed)


def _certificate(rep: Reporter, args, g, j):
    from . import io as tio
    from . import quotients as qt
    cert = qt.iso_certificate(g, j)
    if rep.fmt == "json-lines":
        for entry in cert.entries:
            rep.emit("", record="generator", kind=entry.kind,
                     generator=entry.generator,
                     image=[[j.field.format_scalar(c), t] for c, t in entry.image])
    else:
        rep.emit_block(tio.serialize_certificate(cert, j.field))


def _radical(rep: Reporter, args, g, j):
    from . import io as tio
    from . import quotients as qt
    result = qt.radical_quotient(g, j)
    for label, drop in result.degree_drops:
        rep.emit(f"cycle {label}: degree drop {drop}", record="degree-drop",
                 cycle=label, drop=drop)
    for violation in result.hypothesis_violations:
        rep.emit(f"hypothesis violation: {violation}",
                 record="hypothesis-violation", detail=violation)
    rep.emit_block(tio.serialize_ideal(result.j_prime), record="ideal",
                   name=result.j_prime.name)
    rep.quotient(result.severed)


def _dim(rep: Reporter, args, g, j):
    from . import quotients as qt
    blocks = qt.dimension_blocks(g, j, limit=args.limits["maxCycles"])
    rep.emit(f"{blocks.total_dimension} = {blocks.describe()}",
             record="dimension", total=blocks.total_dimension,
             blocks=[[size, copies] for size, copies in blocks.blocks])


def _monoid(rep: Reporter, args, g):
    from . import ktheory as kt
    pres = kt.monoid_presentation(g)
    rep.emit("generators: " + " ".join(pres.generators), record="generators",
             vertices=list(pres.generators))
    for v, targets in pres.relations:
        rhs = " + ".join(w if k == 1 else f"{k}*{w}" for w, k in targets)
        rep.emit(f"relation {v} = {rhs}", record="relation", vertex=v,
                 targets=[[w, k] for w, k in targets])


def _strata(rep: Reporter, args, g):
    from . import ideals as il
    if args.override is None or not args.override.is_prime_field:
        raise ParseError("strata requires --field F<p>")
    records = il.enumerate_strata(g, args.override, _positive_int(args.max_deg, "--max-deg"),
                                  limit=args.limits["maxPairs"])
    lines = rep.fmt == "json-lines"
    for r in records:
        pair, beta, degrees = r.key.pair, r.key.beta, r.key.degrees
        text = (f"stratum pair={pair.label()} beta=[{' '.join(c.label() for c in beta)}] "
                f"degrees=[{' '.join(map(str, degrees))}]: "
                f"parameters {r.parameter_count}, dlf {r.dlf_count}")
        if lines:  # the json-lines fields cost a sort and a list per record
            rep.emit(text, record="stratum", h=sorted(pair.h), s=sorted(pair.s),
                     beta=[list(c.arrows) for c in beta], degrees=list(degrees),
                     parameters=r.parameter_count, dlf=r.dlf_count)
        else:
            rep.emit(text)


def _orth(rep: Reporter, args, g, j, p):
    from . import ktheory as kt
    verdict = kt.is_orthogonal(g, p, j)
    rep.emit(f"orthogonal: {'true' if verdict else 'false'}",
             record="orthogonal", value=verdict)


def _fgip(rep: Reporter, args, g):
    from . import ktheory as kt
    for f in kt.classify_fgips(g, limit=args.limits["maxCycles"]):
        rep.emit(f"fgip {f.cycle.label()}: support " + " ".join(sorted(f.support)),
                 record="fgip", arrows=list(f.cycle.arrows), support=sorted(f.support))


def _simples(rep: Reporter, args, g):
    from . import ktheory as kt
    for cls in kt.classify_simple_projectives(g):
        rep.emit(f"simple {cls.representative}: members " + " ".join(cls.members),
                 record="simple", representative=cls.representative,
                 members=list(cls.members))


def _end(rep: Reporter, args, g, p):
    from . import ktheory as kt
    verdict = kt.end_finite_dim(g, p)
    if verdict.finite:
        rep.emit(f"finite: {verdict.decomposition.describe()}",
                 record="end", finite=True,
                 blocks=[[s, c] for s, c in verdict.decomposition.blocks])
    else:
        rep.emit(f"infinite: witness {verdict.witness}", record="end",
                 finite=False, witness=verdict.witness)


def _check_morphism(rep: Reporter, args, morphism, src, dst):
    name, src_name, dst_name, vmap, emap = morphism
    if src.name != src_name or dst.name != dst_name:
        raise dg.MalformedMorphismError(
            f"morphism {name} names graphs {src_name} -> {dst_name}, "
            f"got {src.name} -> {dst.name}")
    report = dg.check_admissible_morphism(dg.DigraphMorphism(name, src, dst, vmap, emap))
    if report.valid:
        rep.emit("valid admissible morphism", record="morphism", valid=True)
    else:
        rep.emit("invalid morphism", record="morphism", valid=False)
        for v in report.violations:
            rep.emit(f"violation: {v}", record="violation", detail=v)


def _dot(rep: Reporter, args, g):
    rep.emit_block(dg.to_dot(g), record="dot", name=g.name)


@record
class Command:
    """One subcommand: what runs it, what it reads, and how it may render."""

    handler: Callable[..., None]
    operands: tuple[str, ...]  # positional operand files, loaded in this order
    dot: bool = False  # whether --format dot applies
    options: tuple[tuple[str, str, object, str], ...] = ()  # (flag, attribute, default, help)


#: The default of an option that must be given; a default of False marks an
#: option that takes no value and sets True.
REQUIRED = object()

FORMATS = ("text", "dot", "json-lines")

#: The options every command takes, before or after its name; the one after
#: it wins.  Same shape as Command.options.
GLOBAL_OPTIONS = (
    ("--format", "output_format", "text", "output format: " + ", ".join(FORMATS)),
    ("--field", "field", None, "override the ideal file's field (Q or F<p>)"),
    *((flag, key, None, f"limit {key} (default {DEFAULT_LIMITS[key]})")
      for key, flag in LIMIT_FLAGS.items()),
)

#: Every subcommand; a trailing "?" marks an optional operand.
COMMANDS = {
    "analyze": Command(_analyze, ("graph",)),
    "closure": Command(_closure, ("graph",), options=(
        ("--set", "vertex_set", "", "comma-separated vertex ids"),)),
    "quotient": Command(_quotient, ("graph", "ideal"), dot=True),
    "decide": Command(_decide, ("graph", "ideal")),
    "sever": Command(_sever, ("graph", "ideal"), dot=True, options=(
        ("--force-degree-only", "force_degree_only", False,
         "emit the severed digraph even for non-dlf ideals"),)),
    "certificate": Command(_certificate, ("graph", "ideal")),
    "radical": Command(_radical, ("graph", "ideal")),
    "dim": Command(_dim, ("graph", "ideal?")),
    "monoid": Command(_monoid, ("graph",)),
    "strata": Command(_strata, ("graph",), options=(
        ("--max-deg", "max_deg", REQUIRED, "largest degree of theta counted"),)),
    "orth": Command(_orth, ("graph", "ideal", "presentation")),
    "fgip": Command(_fgip, ("graph",)),
    "simples": Command(_simples, ("graph",)),
    "end": Command(_end, ("graph", "presentation")),
    "check-morphism": Command(_check_morphism, ("morphism", "source_graph", "target_graph")),
    "dot": Command(_dot, ("graph",), dot=True),
}


# -- the command line, read as argparse read it ----------------------------------
#
# Options may come before or after the command name; an option is also taken
# by a unique prefix of its name (an ambiguous one is an error even where a
# value is expected) and with its value inline as --flag=value.  A value is a
# token that is not option-like, so "-1" is one and "--" or "-h" is not.  As
# in argparse, each run of operands between options fills the pending
# operands in order, and the run that fills the operand before an optional
# one also settles it, filled or absent.

class _Exit(Exception):
    """The command line ends the run: help on stdout (0), a usage error on stderr (2)."""

    def __init__(self, code: int, text: str):
        super().__init__(text)
        self.code, self.text = code, text


#: argparse's negative number, a value rather than an option; compiled only
#: when an option-like token is neither a flag nor a prefix of one.
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"


def _usage(name: str | None) -> str:
    if name is None:
        return "usage: leavitt [options] COMMAND [options] OPERAND ...\n"
    command = COMMANDS[name]
    words = [f"{flag} {flag[2:].upper()}" for flag, _, default, _ in command.options
             if default is REQUIRED]
    words += [f"[{o[:-1]}]" if o.endswith("?") else o for o in command.operands]
    return f"usage: leavitt [options] {name} [options] {' '.join(words)}\n"


def _help(name: str | None) -> str:
    options = GLOBAL_OPTIONS + (COMMANDS[name].options if name else ())
    rows = [("-h, --help", "show this help and exit")] + [
        (flag if default is False else f"{flag} {flag[2:].upper()}", text)
        for flag, _, default, text in options]
    width = max(len(a) for a, _ in rows)
    text = _usage(name) + "\noptions:\n" + "".join(f"  {a:{width}}  {b}\n" for a, b in rows)
    return text if name else text + "\ncommands: " + ", ".join(COMMANDS) + "\n"


def _parse(argv: list[str]) -> SimpleNamespace:
    """The attributes ``run`` and the handlers read, or _Exit."""
    ns = {dest: default for _, dest, default, _ in GLOBAL_OPTIONS}
    extras: list[str] = []  # unknown options and surplus operands, refused at the end
    name = None

    def fail(message: str):
        raise _Exit(2, f"{_usage(name)}leavitt: error: {message}\n")

    def read(token: str, flags: dict):
        """None for a value or operand, else (flag, inline value); flag "" if unknown."""
        if token in flags:
            return token, None
        if token[:1] != "-" or token == "-":
            return None
        head, eq, tail = token.partition("=")
        if eq and head in flags:
            return head, tail
        if token[1] == "-":
            matches, inline = [f for f in flags if f.startswith(head)], tail if eq else None
        else:  # -h, with the rest of the token inline
            matches, inline = [token[:2]] if token[:2] in flags else [], token[2:]
        if len(matches) > 1:
            fail(f"ambiguous option: {token} could match {', '.join(matches)}")
        if matches:
            return matches[0], inline
        return None if re.match(_NEGATIVE, token) or " " in token else ("", None)

    def scan(tokens: list[str], flags: dict):
        """Refuse an ambiguous option anywhere before "--" first, as argparse does."""
        for token in tokens[:tokens.index("--")] if "--" in tokens else tokens:
            read(token, flags)

    def take(tokens: list[str], i: int, flags: dict) -> int:
        """Apply the option at tokens[i]; the index after it and its value."""
        flag, inline = read(tokens[i], flags)
        if flag in ("-h", "--help"):
            # -hh… is -h given again, as joined short flags are
            if inline is None or flag == "-h" and inline and not inline.strip("h"):
                raise _Exit(0, _help(name))
            fail(f"argument -h/--help: ignored explicit argument {inline!r}")
        if not flag:
            extras.append(tokens[i])
            return i + 1
        dest, default = flags[flag]
        if default is False:
            if inline is not None:
                fail(f"argument {flag}: ignored explicit argument {inline!r}")
            ns[dest] = True
            return i + 1
        if inline is None:
            if i + 1 == len(tokens) or tokens[i + 1] == "--" or read(tokens[i + 1], flags):
                fail(f"argument {flag}: expected one argument")
            i += 1
            inline = tokens[i]
        if dest == "output_format" and inline not in FORMATS:
            fail(f"argument --format: invalid choice: {inline!r}")
        ns[dest] = inline
        return i + 1

    def fill(values: list[str], separated: bool = False):
        """Give a run of operands to the pending operands, in order."""
        filled = 0
        while pending and (values or pending[0].endswith("?") and (filled or separated)):
            operand = pending.pop(0)
            if values:
                ns[operand.rstrip("?")] = values.pop(0)
            filled += 1
        extras.extend(values + (["--"] if separated and not filled else []))

    flags = {"-h": None, "--help": None,
             **{flag: (dest, default) for flag, dest, default, _ in GLOBAL_OPTIONS}}
    scan(argv, flags)
    i = 0
    while i < len(argv) and argv[i] != "--" and read(argv[i], flags):
        i = take(argv, i, flags)
    if i == len(argv):
        fail("the following arguments are required: COMMAND")
    if argv[i] not in COMMANDS:
        fail(f"argument COMMAND: invalid choice: {argv[i]!r}")
    name, rest = argv[i], argv[i + 1:]
    command = COMMANDS[name]
    flags.update((flag, (dest, default)) for flag, dest, default, _ in command.options)
    ns.update((dest, default) for _, dest, default, _ in command.options if default is not REQUIRED)
    ns.update((operand.rstrip("?"), None) for operand in command.operands)
    pending = list(command.operands)
    scan(rest, flags)
    words, i = [], 0
    while i < len(rest):
        if rest[i] == "--":
            fill(words + rest[i + 1:], separated=True)
            break
        if read(rest[i], flags):
            fill(words)
            words, i = [], take(rest, i, flags)
        else:
            words.append(rest[i])
            i += 1
    else:
        fill(words)
    missing = [o for o in pending if not o.endswith("?")] + [
        flag for flag, dest, default, _ in command.options
        if default is REQUIRED and dest not in ns]
    if missing:
        fail("the following arguments are required: " + ", ".join(missing))
    if extras:
        fail("unrecognized arguments: " + " ".join(extras))
    return SimpleNamespace(command=name, **ns)


def run(args) -> int:
    args.limits, args.override, fmt = _config_from(args)
    command = COMMANDS[args.command]
    if fmt == "dot" and not command.dot:
        raise ParseError(f"--format dot is not meaningful for {args.command}")
    names = [operand.rstrip("?") for operand in command.operands]
    operands = [_load(name, getattr(args, name), args.override) for name in names]
    command.handler(Reporter(fmt, sys.stdout), args, *operands)
    return 0


def main(argv=None) -> int:
    """Run one command line (``sys.argv[1:]`` when argv is None); the exit code."""
    try:
        args = _parse(sys.argv[1:] if argv is None else list(argv))
    except _Exit as exc:
        print(exc.text, end="", file=sys.stderr if exc.code else sys.stdout)
        return exc.code
    try:
        return run(args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ResourceLimitError as exc:
        print(f"resource limit: {exc}", file=sys.stderr)
        return 4
    except InternalConsistencyError as exc:
        print(f"internal consistency failure: {exc}", file=sys.stderr)
        return 5
    except (LeavittError, ValueError) as exc:
        print(f"validation error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

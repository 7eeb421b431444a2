"""Command-line front end.

One subcommand per operation; deterministic text output, with ``--format
json-lines`` mirroring every report line as a JSON record and ``--format
dot`` available where the result is a digraph.  :data:`COMMANDS` is the one
list of subcommands: the parser, the loading of operand files, the ``--format
dot`` check and the dispatch all read it.  Exit codes: 0 verdicts, 2 parse
errors, 3 validation errors, 4 resource limits, 5 internal consistency
failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable

from . import digraph as dg
from . import ideals as il
from . import io as tio
from . import ktheory as kt
from . import quotients as qt
from .errors import (
    InternalConsistencyError,
    LeavittError,
    ParseError,
    ResourceLimitError,
)
from .fields import Field
from .records import record

DEFAULT_LIMITS = {
    "maxCycles": 10_000,
    "maxPairs": 10_000,
    "maxParamPoints": 1_000_000,
}
LIMIT_FLAGS = {"maxCycles": "--max-cycles", "maxPairs": "--max-pairs",
               "maxParamPoints": "--max-param-points"}


class Reporter:
    """Collects report records; renders text or json-lines."""

    def __init__(self, fmt: str, out):
        self.fmt = fmt
        self.out = out

    def emit(self, text: str, **fields):
        if self.fmt == "json-lines":
            record = dict(fields)
            record.setdefault("text", text)
            self.out.write(json.dumps(record, sort_keys=True) + "\n")
        else:
            self.out.write(text + "\n")

    def emit_block(self, text: str, **fields):
        """A multi-line payload: a serialized digraph, ideal or certificate, or DOT."""
        if self.fmt == "json-lines":
            self.out.write(json.dumps(dict(fields, content=text), sort_keys=True) + "\n")
        else:
            self.out.write(text)

    def quotient(self, result: qt.QuotientResult):
        """A constructed digraph: DOT under ``--format dot``, else its serialized block."""
        if self.fmt == "dot":
            self.out.write(dg.to_dot(result.digraph))
        else:
            self.emit_block(tio.serialize_quotient(result), record="digraph",
                            name=result.digraph.name)


def _positive_int(text: str, what: str) -> int:
    """The one check for a count given as text: a limit flag, LPA_LIMITS, --max-deg."""
    if not (text.isascii() and text.isdigit()) or int(text) < 1:
        raise ParseError(f"{what} must be a positive integer")
    return int(text)


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
        if getattr(args, key, None) is not None:
            limits[key] = _positive_int(getattr(args, key), flag)
    field_arg = getattr(args, "field", None)
    try:
        override = Field.from_header(field_arg) if field_arg else None
    except ValueError as exc:
        raise ParseError(str(exc)) from None
    return limits, override, getattr(args, "output_format", "text")


def _set_label(vs) -> str:
    return "{" + ",".join(sorted(vs)) + "}"


def _failures(decision: qt.DecideResult, field: Field) -> str:
    return "; ".join(f"cycle {r.label}: {r.verdict.describe(field)}"
                     for r in decision.failing())


# -- handlers: each takes the reporter, the parsed arguments (with the checked
# ``limits`` and ``override`` that run adds) and the loaded operands in
# COMMANDS order, and writes only through the reporter

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
    for hs in dg.enumerate_hereditary_saturated(g, limit=args.limits["maxPairs"]):
        rep.emit(f"hs-set {_set_label(hs)}", record="hs-set", vertices=sorted(hs))


def _closure(rep: Reporter, args, g):
    xs = [v for v in args.vertex_set.split(",") if v]
    closed = dg.hereditary_saturated_closure(g, xs)
    rep.emit(f"closure {_set_label(closed)}", record="closure", vertices=sorted(closed))


def _quotient(rep: Reporter, args, g, j):
    rep.quotient(qt.graded_quotient(g, j.pair))


def _decide(rep: Reporter, args, g, j):
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
    valid = il.validated_ideal(g, j)
    decision = qt.decide_validated(valid)
    if not decision.is_lpa and not args.force_degree_only:
        raise qt.NotDlfError(f"{_failures(decision, j.field)} "
                             "(use --force-degree-only for the degree-only construction)")
    rep.quotient(decision.severed if decision.is_lpa else qt.sever_validated(valid))


def _certificate(rep: Reporter, args, g, j):
    cert = qt.iso_certificate(g, j)
    if rep.fmt == "json-lines":
        for entry in cert.entries:
            rep.emit("", record="generator", kind=entry.kind,
                     generator=entry.generator,
                     image=[[j.field.format_scalar(c), t] for c, t in entry.image])
    else:
        rep.emit_block(tio.serialize_certificate(cert, j.field))


def _radical(rep: Reporter, args, g, j):
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
    blocks = qt.dimension_blocks(g, j, limit=args.limits["maxCycles"])
    rep.emit(f"{blocks.total_dimension} = {blocks.describe()}",
             record="dimension", total=blocks.total_dimension,
             blocks=[[size, copies] for size, copies in blocks.blocks])


def _monoid(rep: Reporter, args, g):
    pres = kt.monoid_presentation(g)
    rep.emit("generators: " + " ".join(pres.generators), record="generators",
             vertices=list(pres.generators))
    for v, targets in pres.relations:
        rhs = " + ".join(w if k == 1 else f"{k}*{w}" for w, k in targets)
        rep.emit(f"relation {v} = {rhs}", record="relation", vertex=v,
                 targets=[[w, k] for w, k in targets])


def _strata(rep: Reporter, args, g):
    if args.override is None or not args.override.is_prime_field:
        raise ParseError("strata requires --field F<p>")
    records = il.enumerate_strata(g, args.override, _positive_int(args.max_deg, "--max-deg"),
                                  limit=args.limits["maxPairs"],
                                  max_param_points=args.limits["maxParamPoints"])
    for r in records:
        beta = "[" + " ".join(c.label() for c in r.key.beta) + "]"
        degrees = "[" + " ".join(map(str, r.key.degrees)) + "]"
        rep.emit(
            f"stratum pair={r.key.pair.label()} beta={beta} degrees={degrees}: "
            f"parameters {r.parameter_count}, dlf {r.dlf_count}",
            record="stratum", h=sorted(r.key.pair.h), s=sorted(r.key.pair.s),
            beta=[list(c.arrows) for c in r.key.beta],
            degrees=list(r.key.degrees),
            parameters=r.parameter_count, dlf=r.dlf_count)


def _orth(rep: Reporter, args, g, j, p):
    verdict = kt.is_orthogonal(g, p, j)
    rep.emit(f"orthogonal: {'true' if verdict else 'false'}",
             record="orthogonal", value=verdict)


def _fgip(rep: Reporter, args, g):
    for f in kt.classify_fgips(g, limit=args.limits["maxCycles"]):
        rep.emit(f"fgip {f.cycle.label()}: support " + " ".join(sorted(f.support)),
                 record="fgip", arrows=list(f.cycle.arrows), support=sorted(f.support))


def _simples(rep: Reporter, args, g):
    for cls in kt.classify_simple_projectives(g):
        rep.emit(f"simple {cls.representative}: members " + " ".join(cls.members),
                 record="simple", representative=cls.representative,
                 members=list(cls.members))


def _end(rep: Reporter, args, g, p):
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
    options: tuple[tuple[str, dict], ...] = ()  # (flag, add_argument keywords)


#: Every subcommand; a trailing "?" marks an optional operand.
COMMANDS = {
    "analyze": Command(_analyze, ("graph",)),
    "closure": Command(_closure, ("graph",), options=(
        ("--set", dict(dest="vertex_set", default="", help="comma-separated vertex ids")),)),
    "quotient": Command(_quotient, ("graph", "ideal"), dot=True),
    "decide": Command(_decide, ("graph", "ideal")),
    "sever": Command(_sever, ("graph", "ideal"), dot=True, options=(
        ("--force-degree-only", dict(
            action="store_true", help="emit the severed digraph even for non-dlf ideals")),)),
    "certificate": Command(_certificate, ("graph", "ideal")),
    "radical": Command(_radical, ("graph", "ideal")),
    "dim": Command(_dim, ("graph", "ideal?")),
    "monoid": Command(_monoid, ("graph",)),
    "strata": Command(_strata, ("graph",), options=(("--max-deg", dict(required=True)),)),
    "orth": Command(_orth, ("graph", "ideal", "presentation")),
    "fgip": Command(_fgip, ("graph",)),
    "simples": Command(_simples, ("graph",)),
    "end": Command(_end, ("graph", "presentation")),
    "check-morphism": Command(_check_morphism, ("morphism", "source_graph", "target_graph")),
    "dot": Command(_dot, ("graph",), dot=True),
}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "dot", "json-lines"],
                        default=argparse.SUPPRESS, dest="output_format")
    common.add_argument("--field", default=argparse.SUPPRESS,
                        help="override the ideal file's field (Q or F<p>)")
    for key, flag in LIMIT_FLAGS.items():
        common.add_argument(flag, default=argparse.SUPPRESS, dest=key)
    parser = argparse.ArgumentParser(
        prog="leavitt", parents=[common],
        description="Exact computations with Leavitt path algebras of finite digraphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for operand in command.operands:
            p.add_argument(operand.rstrip("?"), nargs="?" if operand.endswith("?") else None)
        for flag, kw in command.options:
            p.add_argument(flag, **kw)
    return parser


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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
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

"""Command-line front end.

One subcommand per operation; deterministic text output, with ``--format
json-lines`` mirroring every report line as a JSON record and ``--format
dot`` available where the result is a digraph.  Exit codes: 0 verdicts,
2 parse errors, 3 validation errors, 4 resource limits, 5 internal
consistency failures.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

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
        """A multi-line payload (serialized digraph/ideal)."""
        if self.fmt == "json-lines":
            self.out.write(json.dumps(dict(fields, content=text), sort_keys=True) + "\n")
        else:
            self.out.write(text)


def _positive_int(text: str, what: str) -> int:
    """The one check for a limit value, whether from a flag or from LPA_LIMITS."""
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


def _load_graph(path: str) -> dg.Digraph:
    return tio.parse_digraph(_read(path), path)


def _load_ideal(path: str, override: Field | None) -> il.IdealPresentation:
    return tio.parse_ideal(_read(path), path, field_override=override)


def _load_presentation(path: str) -> kt.ProjectivePresentation:
    return tio.parse_presentation(_read(path), path)


def _graph_output(rep: Reporter, result: qt.QuotientResult, fmt: str):
    if fmt == "dot":
        rep.out.write(dg.to_dot(result.digraph))
    else:
        rep.emit_block(tio.serialize_quotient(result), record="digraph",
                       name=result.digraph.name)


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

    def cmd(name, *args_):
        p = sub.add_parser(name, parents=[common])
        for a, kw in args_:
            p.add_argument(a, **kw)
        return p

    cmd("analyze", ("graph", {}))
    closure = cmd("closure", ("graph", {}))
    closure.add_argument("--set", dest="vertex_set", default="",
                         help="comma-separated vertex ids")
    cmd("quotient", ("graph", {}), ("ideal", {}))
    cmd("decide", ("graph", {}), ("ideal", {}))
    sever = cmd("sever", ("graph", {}), ("ideal", {}))
    sever.add_argument("--force-degree-only", action="store_true",
                       help="emit the severed digraph even for non-dlf ideals")
    cmd("certificate", ("graph", {}), ("ideal", {}))
    cmd("radical", ("graph", {}), ("ideal", {}))
    dim = cmd("dim", ("graph", {}))
    dim.add_argument("ideal", nargs="?")
    cmd("monoid", ("graph", {}))
    strata = cmd("strata", ("graph", {}))
    strata.add_argument("--max-deg", type=int, required=True)
    cmd("orth", ("graph", {}), ("ideal", {}), ("presentation", {}))
    cmd("fgip", ("graph", {}))
    cmd("simples", ("graph", {}))
    cmd("end", ("graph", {}), ("presentation", {}))
    cmd("check-morphism", ("morphism", {}), ("source_graph", {}), ("target_graph", {}))
    cmd("dot", ("graph", {}))
    return parser


def _set_label(vs) -> str:
    return "{" + ",".join(sorted(vs)) + "}"


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


def run(args) -> int:
    limits, override, fmt = _config_from(args)
    rep = Reporter(fmt, sys.stdout)
    command = args.command

    if fmt == "dot" and command not in ("dot", "quotient", "sever"):
        raise ParseError(f"--format dot is not meaningful for {command}")

    if command == "analyze":
        g = _load_graph(args.graph)
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
        for ci in dg.enumerate_cycles(g, limit=limits["maxCycles"]):
            flags = [("has-exit" if ci.has_exit else "no-exit"),
                     ("exclusive" if ci.exclusive else "overlapping")]
            rep.emit(f"cycle {ci.cycle.label()}: " + " ".join(flags),
                     record="cycle", arrows=list(ci.cycle.arrows),
                     hasExit=ci.has_exit, exclusive=ci.exclusive,
                     multiplicityOne=ci.multiplicity_one)
        for hs in dg.enumerate_hereditary_saturated(g, limit=limits["maxPairs"]):
            rep.emit(f"hs-set {_set_label(hs)}", record="hs-set", vertices=sorted(hs))
        return 0

    if command == "closure":
        g = _load_graph(args.graph)
        xs = [v for v in args.vertex_set.split(",") if v]
        closed = dg.hereditary_saturated_closure(g, xs)
        rep.emit(f"closure {_set_label(closed)}", record="closure",
                 vertices=sorted(closed))
        return 0

    if command == "quotient":
        g = _load_graph(args.graph)
        j = _load_ideal(args.ideal, override)
        result = qt.graded_quotient(g, j.pair)
        _graph_output(rep, result, fmt)
        return 0

    if command == "decide":
        g = _load_graph(args.graph)
        j = _load_ideal(args.ideal, override)
        decision = qt.decide_lpa_quotient(g, j)
        if decision.is_lpa:
            rep.emit("isLPA", record="verdict", isLPA=True)
            for r in decision.reports:
                rep.emit(f"cycle {r.label}: {r.verdict.describe(j.field)}",
                         record="cycle-report", cycle=r.label,
                         roots=[j.field.format_scalar(x) for x in r.verdict.roots])
            rep.emit_block(tio.serialize_quotient(decision.severed),
                           record="digraph", name=decision.severed.digraph.name)
        else:
            detail = "; ".join(f"cycle {r.label}: {r.verdict.describe(j.field)}"
                               for r in decision.failing())
            rep.emit(f"notLPA: {detail}", record="verdict", isLPA=False, detail=detail)
        return 0

    if command == "sever":
        g = _load_graph(args.graph)
        j = _load_ideal(args.ideal, override)
        valid = il.validated_ideal(g, j)
        decision = qt.decide_validated(valid)
        if not decision.is_lpa and not args.force_degree_only:
            detail = "; ".join(f"cycle {r.label}: {r.verdict.describe(j.field)}"
                               for r in decision.failing())
            raise qt.NotDlfError(
                f"{detail} (use --force-degree-only for the degree-only construction)")
        result = decision.severed if decision.is_lpa else qt.sever_validated(valid)
        _graph_output(rep, result, fmt)
        return 0

    if command == "certificate":
        g = _load_graph(args.graph)
        j = _load_ideal(args.ideal, override)
        cert = qt.iso_certificate(g, j)
        if fmt == "json-lines":
            for entry in cert.entries:
                rep.emit("", record="generator", kind=entry.kind,
                         generator=entry.generator,
                         image=[[j.field.format_scalar(c), t] for c, t in entry.image])
        else:
            rep.out.write(tio.serialize_certificate(cert, j.field))
        return 0

    if command == "radical":
        g = _load_graph(args.graph)
        j = _load_ideal(args.ideal, override)
        result = qt.radical_quotient(g, j)
        for label, drop in result.degree_drops:
            rep.emit(f"cycle {label}: degree drop {drop}", record="degree-drop",
                     cycle=label, drop=drop)
        for violation in result.hypothesis_violations:
            rep.emit(f"hypothesis violation: {violation}",
                     record="hypothesis-violation", detail=violation)
        rep.emit_block(tio.serialize_ideal(result.j_prime), record="ideal",
                       name=result.j_prime.name)
        rep.emit_block(tio.serialize_quotient(result.severed), record="digraph",
                       name=result.severed.digraph.name)
        return 0

    if command == "dim":
        g = _load_graph(args.graph)
        j = _load_ideal(args.ideal, override) if args.ideal else None
        blocks = qt.dimension_blocks(g, j, limit=limits["maxCycles"])
        rep.emit(f"{blocks.total_dimension} = {blocks.describe()}",
                 record="dimension", total=blocks.total_dimension,
                 blocks=[[size, copies] for size, copies in blocks.blocks])
        return 0

    if command == "monoid":
        g = _load_graph(args.graph)
        pres = kt.monoid_presentation(g)
        rep.emit("generators: " + " ".join(pres.generators), record="generators",
                 vertices=list(pres.generators))
        for v, targets in pres.relations:
            rhs = " + ".join(w if k == 1 else f"{k}*{w}" for w, k in targets)
            rep.emit(f"relation {v} = {rhs}", record="relation", vertex=v,
                     targets=[[w, k] for w, k in targets])
        return 0

    if command == "strata":
        g = _load_graph(args.graph)
        if override is None or not override.is_prime_field:
            raise ParseError("strata requires --field F<p>")
        records = il.enumerate_strata(g, override, args.max_deg,
                                      limit=limits["maxPairs"],
                                      max_param_points=limits["maxParamPoints"])
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
        return 0

    if command == "orth":
        g = _load_graph(args.graph)
        j = _load_ideal(args.ideal, override)
        p = _load_presentation(args.presentation)
        verdict = kt.is_orthogonal(g, p, j)
        rep.emit(f"orthogonal: {'true' if verdict else 'false'}",
                 record="orthogonal", value=verdict)
        return 0

    if command == "fgip":
        g = _load_graph(args.graph)
        for f in kt.classify_fgips(g, limit=limits["maxCycles"]):
            rep.emit(f"fgip {f.cycle.label()}: support " + " ".join(sorted(f.support)),
                     record="fgip", arrows=list(f.cycle.arrows),
                     support=sorted(f.support))
        return 0

    if command == "simples":
        g = _load_graph(args.graph)
        for cls in kt.classify_simple_projectives(g):
            rep.emit(f"simple {cls.representative}: members " + " ".join(cls.members),
                     record="simple", representative=cls.representative,
                     members=list(cls.members))
        return 0

    if command == "end":
        g = _load_graph(args.graph)
        p = _load_presentation(args.presentation)
        verdict = kt.end_finite_dim(g, p)
        if verdict.finite:
            rep.emit(f"finite: {verdict.decomposition.describe()}",
                     record="end", finite=True,
                     blocks=[[s, c] for s, c in verdict.decomposition.blocks])
        else:
            rep.emit(f"infinite: witness {verdict.witness}", record="end",
                     finite=False, witness=verdict.witness)
        return 0

    if command == "check-morphism":
        name, src_name, dst_name, vmap, emap = tio.parse_morphism_file(
            _read(args.morphism), args.morphism)
        src = _load_graph(args.source_graph)
        dst = _load_graph(args.target_graph)
        if src.name != src_name or dst.name != dst_name:
            raise dg.MalformedMorphismError(
                f"morphism {name} names graphs {src_name} -> {dst_name}, "
                f"got {src.name} -> {dst.name}")
        morphism = dg.DigraphMorphism(name, src, dst, vmap, emap)
        report = dg.check_admissible_morphism(morphism)
        if report.valid:
            rep.emit("valid admissible morphism", record="morphism", valid=True)
        else:
            rep.emit("invalid morphism", record="morphism", valid=False)
            for v in report.violations:
                rep.emit(f"violation: {v}", record="violation", detail=v)
        return 0

    if command == "dot":
        g = _load_graph(args.graph)
        sys.stdout.write(dg.to_dot(g))
        return 0

    raise InternalConsistencyError(f"unhandled command {command}")  # pragma: no cover


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

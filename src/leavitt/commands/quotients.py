"""``quotient``, ``decide``, ``sever``, ``certificate``, ``radical`` and
``dim``: the commands on a digraph and one ideal presentation.  Only ``dim``
loads ``dimension``, and without an ideal no ``quotients``."""

from __future__ import annotations

from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .. import quotients as qt
    from ..cli import Reporter
    from ..scalars import Field


def _failures(decision: qt.DecideResult, field: Field) -> str:
    return "; ".join(f"cycle {r.label}: {r.verdict.describe(field)}"
                     for r in decision.failing())


def quotient(rep: Reporter, args, g, j):
    from .. import quotients as qt
    rep.quotient(qt.graded_quotient(g, j.pair))


def decide(rep: Reporter, args, g, j):
    from .. import quotients as qt
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


def sever(rep: Reporter, args, g, j):
    from .. import quotients as qt
    if args.force_degree_only:  # severing reads only deg θ: no dlf verdicts
        rep.quotient(qt.sever(g, j))
        return
    decision = qt.decide_lpa_quotient(g, j)
    if not decision.is_lpa:
        raise qt.NotDlfError(f"{_failures(decision, j.field)} "
                             "(use --force-degree-only for the degree-only construction)")
    rep.quotient(decision.severed)


def certificate(rep: Reporter, args, g, j):
    from .. import quotients as qt
    cert = qt.iso_certificate(g, j)
    if rep.fmt == "json-lines":
        for entry in cert.entries:
            rep.emit("", record="generator", kind=entry.kind,
                     generator=entry.generator,
                     image=[[j.field.format_scalar(c), t] for c, t in entry.image])
    else:
        rep.emit_block(qt.serialize_certificate(cert, j.field))


def radical(rep: Reporter, args, g, j):
    from .. import quotients as qt
    from ..presentations import serialize_ideal
    result = qt.radical_quotient(g, j)
    for label, drop in result.degree_drops:
        rep.emit(f"cycle {label}: degree drop {drop}", record="degree-drop",
                 cycle=label, drop=drop)
    for violation in result.hypothesis_violations:
        rep.emit(f"hypothesis violation: {violation}",
                 record="hypothesis-violation", detail=violation)
    rep.emit_block(serialize_ideal(result.j_prime), record="ideal",
                   name=result.j_prime.name)
    rep.quotient(result.severed)


def dim(rep: Reporter, args, g, j):
    from ..dimension import dimension_blocks

    blocks = dimension_blocks(g, j)
    rep.emit(f"{blocks.total_dimension} = {blocks.describe()}",
             record="dimension", total=blocks.total_dimension,
             blocks=[[size, copies] for size, copies in blocks.blocks])

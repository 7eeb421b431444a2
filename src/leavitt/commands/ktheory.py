"""``monoid``, ``orth``, ``fgip``, ``simples`` and ``end``: the graph monoid
and the projective modules, from :mod:`leavitt.projectives`."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import projectives as pj

if TYPE_CHECKING:
    from ..cli import Reporter


def monoid(rep: Reporter, args, g):
    pres = pj.monoid_presentation(g)
    rep.emit("generators: " + " ".join(pres.generators), record="generators",
             vertices=list(pres.generators))
    for v, targets in pres.relations:
        rhs = " + ".join(w if k == 1 else f"{k}*{w}" for w, k in targets)
        rep.emit(f"relation {v} = {rhs}", record="relation", vertex=v,
                 targets=[[w, k] for w, k in targets])


def orth(rep: Reporter, args, g, j, p):
    verdict = pj.is_orthogonal(g, p, j)
    rep.emit(f"orthogonal: {'true' if verdict else 'false'}",
             record="orthogonal", value=verdict)


def fgip(rep: Reporter, args, g):
    for f in pj.classify_fgips(g, limit=args.limits["maxCycles"]):
        rep.emit(f"fgip {f.cycle.label()}: support " + " ".join(sorted(f.support)),
                 record="fgip", arrows=list(f.cycle.arrows), support=sorted(f.support))


def simples(rep: Reporter, args, g):
    for cls in pj.classify_simple_projectives(g):
        rep.emit(f"simple {cls.representative}: members " + " ".join(cls.members),
                 record="simple", representative=cls.representative,
                 members=list(cls.members))


def end(rep: Reporter, args, g, p):
    verdict = pj.end_finite_dim(g, p)
    if verdict.finite:
        rep.emit(f"finite: {verdict.decomposition.describe()}",
                 record="end", finite=True,
                 blocks=[[s, c] for s, c in verdict.decomposition.blocks])
    else:
        rep.emit(f"infinite: witness {verdict.witness}", record="end",
                 finite=False, witness=verdict.witness)

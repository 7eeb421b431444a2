"""``analyze``, ``closure`` and ``dot``: the structure of one digraph.  Only
``analyze`` loads the cycle enumeration."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import digraph as dg

if TYPE_CHECKING:
    from ..cli import Reporter


def _set_label(vs) -> str:
    return "{" + ",".join(sorted(vs)) + "}"


def analyze(rep: Reporter, args, g):
    from ..cycles import enumerate_cycles

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
    for ci in enumerate_cycles(g, limit=args.limits["maxCycles"]):
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


def closure(rep: Reporter, args, g):
    xs = [v for v in args.vertex_set.split(",") if v]
    closed = dg.hereditary_saturated_closure(g, xs)
    rep.emit(f"closure {_set_label(closed)}", record="closure", vertices=sorted(closed))


def dot(rep: Reporter, args, g):
    rep.emit_block(dg.to_dot(g), record="dot", name=g.name)

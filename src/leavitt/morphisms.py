"""Digraph morphisms: their text format and the admissibility check.

A morphism file names its source and target digraphs and maps every vertex
and arrow of the source to one of the target (``v a -> b``, ``e a -> b``).
:func:`check_admissible_morphism` tests a :class:`DigraphMorphism` for
finite fibers, target bijections on arrow fibers, and sinks landing on sinks
or infinite emitters.  Only ``check-morphism`` loads this module.
"""

from __future__ import annotations

from typing import Mapping

from .digraph import Digraph, classify_vertices
from .errors import MalformedMorphismError, ParseError
from .records import record


@record
class DigraphMorphism:
    name: str
    source: Digraph
    target: Digraph
    vertex_map: Mapping[str, str]
    arrow_map: Mapping[str, str]


@record
class MorphismReport:
    valid: bool
    violations: tuple[str, ...]


def check_admissible_morphism(m: DigraphMorphism) -> MorphismReport:
    """Admissibility of a digraph morphism: finite fibers, target bijections on
    arrow fibers, and sinks landing on sinks or infinite emitters."""
    src, dst = m.source, m.target
    for g, kind in ((src, "source"), (dst, "target")):
        for a in g.arrows:
            if a.multiplicity != 1:
                raise MalformedMorphismError(
                    f"{kind} digraph {g.name} has a class of multiplicity != 1 ({a.id})")
    if set(m.vertex_map) != set(src.vertices):
        raise MalformedMorphismError(f"morphism {m.name}: vertex map is not total")
    if set(m.arrow_map) != {a.id for a in src.arrows}:
        raise MalformedMorphismError(f"morphism {m.name}: arrow map is not total")
    for v, w in m.vertex_map.items():
        if not dst.has_vertex(w):
            raise MalformedMorphismError(f"morphism {m.name}: image vertex {w!r} unknown")
    for e, f_ in m.arrow_map.items():
        if not dst.has_arrow(f_):
            raise MalformedMorphismError(f"morphism {m.name}: image arrow {f_!r} unknown")
        a, b = src.arrow(e), dst.arrow(f_)
        if m.vertex_map[a.source] != b.source or m.vertex_map[a.target] != b.target:
            raise MalformedMorphismError(
                f"morphism {m.name}: arrow {e} does not commute with source/target")

    violations = []
    dst_info = classify_vertices(dst)
    vertex_fiber: dict[str, list[str]] = {w: [] for w in dst.vertices}  # each sorted
    for v in sorted(m.vertex_map):
        vertex_fiber[m.vertex_map[v]].append(v)
    targets_of: dict[str, list[str]] = {b.id: [] for b in dst.arrows}  # over each arrow fiber
    for e, f_ in m.arrow_map.items():
        targets_of[f_].append(src.arrow(e).target)
    for b in dst.arrows:  # a fiber's targets are distinct once they equal a vertex fiber
        if sorted(targets_of[b.id]) != vertex_fiber[b.target]:
            violations.append(
                f"arrow {b.id}: target map on its fiber is not a bijection")
    for v in src.vertices:
        if src._out[v]:
            continue
        w = m.vertex_map[v]
        if not (dst_info[w].sink or dst_info[w].infinite_emitter):
            violations.append(f"sink {v}: image {w} is neither a sink nor an infinite emitter")
    return MorphismReport(valid=not violations, violations=tuple(violations))


# -- the morphism format ------------------------------------------------------

def parse_morphism_file(text: str, path: str | None = None):
    """Raw morphism data: (name, source name, target name, vertex map, arrow map)."""
    name = None
    graphs: tuple[str, str] | None = None
    vmap: dict[str, str] = {}
    emap: dict[str, str] = {}
    for no, raw in enumerate(text.splitlines(), 1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "morphism":
            if len(parts) != 2:
                raise ParseError("expected: morphism <name>", no, path)
            name = parts[1]
        elif kw == "graphs":
            if len(parts) != 3:
                raise ParseError("expected: graphs <src> <dst>", no, path)
            graphs = (parts[1], parts[2])
        elif kw in ("v", "e"):
            if len(parts) != 4 or parts[2] != "->":
                raise ParseError(f"expected: {kw} <a> -> <b>", no, path)
            table = vmap if kw == "v" else emap
            if parts[1] in table:
                raise ParseError(f"duplicate mapping for {parts[1]!r}", no, path)
            table[parts[1]] = parts[3]
        else:
            raise ParseError(f"unrecognized keyword {kw!r}", no, path)
    if name is None:
        raise ParseError("missing morphism header", None, path)
    if graphs is None:
        raise ParseError("missing graphs line", None, path)
    return name, graphs[0], graphs[1], vmap, emap

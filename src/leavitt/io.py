"""The line-oriented text format of digraphs, and the reader every format shares.

All the package's formats are UTF-8 with '#' comments (whole lines only in
a presentation) and blank lines ignored.  Parsers raise
:class:`~leavitt.errors.ParseError` with a line number; serializers emit a
canonical form so parse/serialize round-trips are exact.  Every other format
lives with its type, so only the commands that read or write one compile
it: the ideal format in :mod:`leavitt.presentations`, the serialized
quotients and certificates in :mod:`leavitt.quotients`, the morphism format
in :mod:`leavitt.morphisms` and the projective presentation format in
:mod:`leavitt.projectives`.  Only ``digraph``, ``errors`` and ``records`` load
with this module.
"""

from __future__ import annotations

from .digraph import Digraph, OMEGA, is_omega
from .errors import ParseError


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


# -- digraphs ---------------------------------------------------------------------

def parse_digraph(text: str, path: str | None = None) -> Digraph:
    name = None
    vertices: list[str] = []
    arrows: list[tuple] = []
    seen_v: set[str] = set()
    seen_a: set[str] = set()
    for no, line in _lines(text):
        parts = line.split()
        kw = parts[0]
        if kw == "digraph":
            if name is not None:
                raise ParseError("duplicate digraph header", no, path)
            if len(parts) != 2:
                raise ParseError("expected: digraph <name>", no, path)
            name = parts[1]
        elif kw == "vertex":
            if len(parts) != 2:
                raise ParseError("expected: vertex <id>", no, path)
            if parts[1] in seen_v:
                raise ParseError(f"duplicate vertex id {parts[1]!r}", no, path)
            seen_v.add(parts[1])
            vertices.append(parts[1])
        elif kw == "arrow":
            if len(parts) not in (4, 5):
                raise ParseError("expected: arrow <id> <src> <dst> [<k>|omega]", no, path)
            aid, src, dst = parts[1:4]
            if aid in seen_a:
                raise ParseError(f"duplicate arrow id {aid!r}", no, path)
            seen_a.add(aid)
            mult: int | float = 1
            if len(parts) == 5:
                if parts[4] == "omega":
                    mult = OMEGA
                elif parts[4].isascii() and parts[4].isdigit() and int(parts[4]) >= 1:
                    mult = int(parts[4])
                else:
                    raise ParseError(f"bad multiplicity {parts[4]!r}", no, path)
            if src not in seen_v:
                raise ParseError(f"arrow {aid!r}: undeclared source {src!r}", no, path)
            if dst not in seen_v:
                raise ParseError(f"arrow {aid!r}: undeclared target {dst!r}", no, path)
            arrows.append((aid, src, dst, mult))
        else:
            raise ParseError(f"unrecognized keyword {kw!r}", no, path)
    if name is None:
        raise ParseError("missing digraph header", None, path)
    return Digraph(name, vertices, arrows)


def serialize_digraph(g: Digraph, provenance: dict | None = None) -> str:
    lines = [f"digraph {g.name}"]
    for v in g.vertices:
        lines.append(f"vertex {v}")
    for a in g.arrows:
        if is_omega(a.multiplicity):
            lines.append(f"arrow {a.id} {a.source} {a.target} omega")
        elif a.multiplicity != 1:
            lines.append(f"arrow {a.id} {a.source} {a.target} {a.multiplicity}")
        else:
            lines.append(f"arrow {a.id} {a.source} {a.target}")
    if provenance:
        for v in g.vertices:
            lines.append(f"# provenance: {v} <- {provenance[v]}")
        for a in g.arrows:
            lines.append(f"# provenance: {a.id} <- {provenance[a.id]}")
    return "\n".join(lines) + "\n"

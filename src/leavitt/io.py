"""The line-oriented text format of digraphs.

All the package's formats are UTF-8 with '#' comments (whole lines only in
a presentation) and blank lines ignored.  Parsers raise
:class:`~leavitt.errors.ParseError` with a line number; serializers emit a
canonical form so parse/serialize round-trips are exact.  Every other format
lives with its type, so only the commands that read or write one compile it:
ideals in :mod:`leavitt.presentations`, quotients and certificates in
:mod:`leavitt.quotients`, morphisms in :mod:`leavitt.morphisms` and
projective presentations in :mod:`leavitt.projectives`.  Each check of a
digraph file runs once, on its line, so :func:`parse_digraph` builds the
digraph with :meth:`Digraph.trusted <leavitt.digraph.Digraph.trusted>`, and
neither ``Digraph(...)`` nor ``ArrowClass`` checks parsed text again.
"""

from __future__ import annotations

from .digraph import ArrowClass, Digraph, OMEGA, is_omega
from .errors import ParseError


# -- digraphs ---------------------------------------------------------------------

def parse_digraph(text: str, path: str | None = None) -> Digraph:
    """The digraph of ``text``, checked in one pass over its lines, then indexed."""
    name = None
    vertices: dict[str, None] = {}  # the declared vertices, in order
    by_id: dict[str, ArrowClass] = {}
    new, put = object.__new__, object.__setattr__
    for no, raw in enumerate(text.splitlines(), 1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
        kw = parts[0]
        if kw == "arrow":
            if len(parts) not in (4, 5):
                raise ParseError("expected: arrow <id> <src> <dst> [<k>|omega]", no, path)
            aid, src, dst = parts[1:4]
            if aid in by_id:
                raise ParseError(f"duplicate arrow id {aid!r}", no, path)
            mult: int | float = 1
            if len(parts) == 5:
                k = parts[4]
                try:  # int() refuses more than 4,300 digits
                    mult = OMEGA if k == "omega" else int(k) if k.isascii() and k.isdigit() else 0
                except ValueError as exc:
                    raise ParseError(f"bad multiplicity {k!r}: {exc}", no, path) from None
                if mult < 1:
                    raise ParseError(f"bad multiplicity {k!r}", no, path)
            if src not in vertices:
                raise ParseError(f"arrow {aid!r}: undeclared source {src!r}", no, path)
            if dst not in vertices:
                raise ParseError(f"arrow {aid!r}: undeclared target {dst!r}", no, path)
            by_id[aid] = a = new(ArrowClass)  # ArrowClass(aid, src, dst, mult), unchecked
            put(a, "id", aid)
            put(a, "source", src)
            put(a, "target", dst)
            put(a, "multiplicity", mult)
        elif kw == "vertex":
            if len(parts) != 2:
                raise ParseError("expected: vertex <id>", no, path)
            if parts[1] in vertices:
                raise ParseError(f"duplicate vertex id {parts[1]!r}", no, path)
            vertices[parts[1]] = None
        elif kw == "digraph":
            if name is not None:
                raise ParseError("duplicate digraph header", no, path)
            if len(parts) != 2:
                raise ParseError("expected: digraph <name>", no, path)
            name = parts[1]
        else:
            raise ParseError(f"unrecognized keyword {kw!r}", no, path)
    if name is None:
        raise ParseError("missing digraph header", None, path)
    return Digraph.trusted(name, tuple(vertices), tuple(by_id.values()))


def serialize_digraph(g: Digraph, provenance: dict | None = None) -> str:
    lines = [f"digraph {g.name}", *(f"vertex {v}" for v in g.vertices)]
    for a in g.arrows:
        k = a.multiplicity
        tail = " omega" if is_omega(k) else "" if k == 1 else f" {k}"
        lines.append(f"arrow {a.id} {a.source} {a.target}{tail}")
    if provenance:  # keyed by (kind, id), as a vertex and an arrow may share an id
        keys = [*(("vertex", v) for v in g.vertices), *(("arrow", a.id) for a in g.arrows)]
        lines += [f"# provenance: {x} <- {provenance[kind, x]}" for kind, x in keys]
    return "\n".join(lines) + "\n"

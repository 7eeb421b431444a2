"""Line-oriented text formats: digraph, ideal, morphism, projective presentation.

All formats are UTF-8 with '#' comments and blank lines ignored.  Parsers
raise :class:`~leavitt.errors.ParseError` with a line number; serializers
emit a canonical form so parse/serialize round-trips are exact.  Only
``digraph`` and ``errors`` load with this module: the ideal and presentation
parsers import the modules of the types they build.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .digraph import Digraph, GeometricCycle, OMEGA, is_omega
from .errors import ParseError
from .records import replace

if TYPE_CHECKING:
    from .fields import Field
    from .ideals import IdealPresentation
    from .ktheory import ProjectivePresentation
    from .quotients import IsoCertificate, QuotientResult


def _lines(text: str):
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield no, line


def _whole_lines(text: str):
    """Like :func:`_lines` but only full-line comments; '#' may occur in tokens."""
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
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


def serialize_quotient(q: QuotientResult) -> str:
    return serialize_digraph(q.digraph, provenance=dict(q.provenance))


# -- ideals ------------------------------------------------------------------------

def parse_ideal(text: str, path: str | None = None,
                field_override: Field | None = None) -> IdealPresentation:
    from .fields import Field, Polynomial
    from .ideals import AdmissiblePair, IdealPresentation

    name = None
    field: Field | None = None
    h: list[str] = []
    s: list[str] = []
    by_label: dict[str, GeometricCycle] = {}
    raw_polys: list[tuple[int, str, list[str]]] = []
    for no, line in _lines(text):
        parts = line.split()
        kw = parts[0]
        if kw == "ideal":
            if len(parts) != 2:
                raise ParseError("expected: ideal <name>", no, path)
            name = parts[1]
        elif kw == "field":
            if len(parts) != 2:
                raise ParseError("expected: field Q|F<p>", no, path)
            try:
                field = Field.from_header(parts[1])
            except ValueError as exc:
                raise ParseError(str(exc), no, path) from None
        elif kw == "H":
            h.extend(parts[1:])
        elif kw == "S":
            s.extend(parts[1:])
        elif kw == "cycle":
            if len(parts) < 3 or not parts[1].endswith(":"):
                raise ParseError("expected: cycle <cid>: <arrow ids>", no, path)
            cid = parts[1][:-1]
            if cid in by_label:
                raise ParseError(f"duplicate cycle label {cid!r}", no, path)
            by_label[cid] = GeometricCycle.of(parts[2:])
        elif kw == "poly":
            if len(parts) < 3 or not parts[1].endswith(":"):
                raise ParseError("expected: poly <cid>: <c0> <c1> ...", no, path)
            raw_polys.append((no, parts[1][:-1], parts[2:]))
        else:
            raise ParseError(f"unrecognized keyword {kw!r}", no, path)
    if name is None:
        raise ParseError("missing ideal header", None, path)
    if field is None:
        raise ParseError("missing field header", None, path)
    labels = {cyc: cid for cid, cyc in by_label.items()}
    theta = {}
    for no, cid, tokens in raw_polys:
        if cid not in by_label:
            raise ParseError(f"poly for unknown cycle {cid!r}", no, path)
        try:
            coeffs = [field.parse_scalar(t) for t in tokens]
        except ValueError as exc:
            raise ParseError(str(exc), no, path) from None
        theta[by_label[cid]] = Polynomial.of(field, coeffs)
    j = IdealPresentation(field=field, pair=AdmissiblePair.of(h, s),
                          beta=tuple(by_label.values()),
                          theta=theta, labels=labels, name=name)
    if field_override is not None and field_override != field:
        j = cast_ideal(j, field_override)
    return j


def cast_ideal(j: IdealPresentation, field: Field) -> IdealPresentation:
    """Reinterpret the presentation over another field (CLI --field override)."""
    from .fields import Polynomial

    return replace(j, field=field,
                   theta={c: Polynomial.of(field, f.coeffs) for c, f in j.theta.items()})


def serialize_ideal(j: IdealPresentation) -> str:
    lines = [f"ideal {j.name}", f"field {j.field.header()}"]
    if j.pair.h:
        lines.append("H " + " ".join(sorted(j.pair.h)))
    if j.pair.s:
        lines.append("S " + " ".join(sorted(j.pair.s)))
    for c in j.beta:
        lines.append(f"cycle {j.label_of(c)}: " + " ".join(c.arrows))
    for c in j.beta:
        if c in j.theta:
            poly = j.theta[c]
            coeffs = " ".join(j.field.format_scalar(x) for x in poly.coeffs)
            lines.append(f"poly {j.label_of(c)}: {coeffs}")
    return "\n".join(lines) + "\n"


# -- morphisms ------------------------------------------------------------------------

def parse_morphism_file(text: str, path: str | None = None):
    """Raw morphism data: (name, source name, target name, vertex map, arrow map)."""
    name = None
    graphs: tuple[str, str] | None = None
    vmap: dict[str, str] = {}
    emap: dict[str, str] = {}
    for no, line in _lines(text):
        parts = line.split()
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


# -- projective presentations ----------------------------------------------------------

def parse_presentation(text: str, path: str | None = None) -> ProjectivePresentation:
    from .ktheory import CornerGen, ProjectivePresentation, VertexGen

    items = []
    for no, line in _whole_lines(text):
        if line.startswith("P:"):
            for v in line[2:].split():
                items.append(VertexGen(v))
        elif line.startswith("corner "):
            rest = line[len("corner "):].strip()
            if "{" not in rest or not rest.endswith("}"):
                raise ParseError("expected: corner <v> {e#i, ...}", no, path)
            vertex, braced = rest.split("{", 1)
            vertex = vertex.strip()
            if not vertex:
                raise ParseError("corner line is missing the vertex", no, path)
            z = set()
            body = braced[:-1].strip()
            for token in ([] if not body else body.split(",")):
                token = token.strip()
                if "#" not in token:
                    raise ParseError(f"bad instance token {token!r}", no, path)
                aid, idx = token.rsplit("#", 1)
                if not (idx.isascii() and idx.isdigit()):
                    raise ParseError(f"bad instance index in {token!r}", no, path)
                z.add((aid, int(idx)))
            items.append(CornerGen(vertex, frozenset(z)))
        else:
            raise ParseError("expected a 'P:' or 'corner' line", no, path)
    return ProjectivePresentation.of(items)


# -- certificates ------------------------------------------------------------------------

def serialize_certificate(cert: IsoCertificate, field: Field) -> str:
    lines = []
    for entry in cert.entries:
        image = " + ".join(f"{field.format_scalar(c)}*{t}" for c, t in entry.image)
        lines.append(f"{entry.generator} -> {image}")
    return "\n".join(lines) + "\n"

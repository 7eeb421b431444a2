"""Line-oriented text formats of digraphs and ideals, and the serialized results.

All the package's formats are UTF-8 with '#' comments (whole lines only in
a presentation) and blank lines ignored.  Parsers raise
:class:`~leavitt.errors.ParseError` with a line number; serializers emit a
canonical form so parse/serialize round-trips are exact.  The morphism
format lives with its type in :mod:`leavitt.morphisms` and the projective
presentation format in :mod:`leavitt.ktheory`, so only the commands that
read one compile its parser.  Only ``digraph``, ``errors`` and ``records``
load with this module: the ideal parser imports the modules of the types it
builds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from .digraph import Digraph, GeometricCycle, OMEGA, is_omega
from .errors import ParseError
from .records import replace

if TYPE_CHECKING:
    from .fields import Field
    from .ideals import IdealPresentation
    from .quotients import IsoCertificate, QuotientResult


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


# -- certificates ------------------------------------------------------------------------

def serialize_certificate(cert: IsoCertificate, field: Field) -> str:
    lines = []
    for entry in cert.entries:
        image = " + ".join(f"{field.format_scalar(c)}*{t}" for c, t in entry.image)
        lines.append(f"{entry.generator} -> {image}")
    return "\n".join(lines) + "\n"

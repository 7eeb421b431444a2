"""Ideal presentations (H, S, β, θ), their validation and their text format.

(H, S) is an admissible pair of :mod:`leavitt.ideals`, β a set of cycles
with no exit in the graded quotient, and θ(C) has constant term 1 for C ∈ β;
β = ∅ is a graded ideal.  Validation collects violations; only dangling ids
raise.  It reads (H, S) off :func:`~leavitt.ideals.admissibility`, which walks
only the arrows at H, and the arrows of β's vertices, so it builds no bit
index.  Entry points validate once, through :func:`validated_ideal`, and
workers reuse its :class:`ValidatedIdeal`.  The parser (which imports
``fields``) checks each line once, and reads each θ token once into its
canonical scalar, so θ is built with no second coercion pass.
"""

from __future__ import annotations

from collections.abc import Mapping
from types import MappingProxyType
from typing import TYPE_CHECKING

from .digraph import Digraph, GeometricCycle, _quotient_out_degree, cycle_vertices
from .errors import InvalidIdealError, ParseError
from .ideals import AdmissiblePair, admissibility
from .records import record, replace

if TYPE_CHECKING:
    from .fields import Field, Polynomial


@record
class IdealPresentation:
    """The quadruple (H, S, β, θ), frozen: ``theta`` and ``labels`` (``C1…`` by
    default) are read-only views of fresh dicts, so a checked ideal stays checked."""

    field: Field
    pair: AdmissiblePair
    beta: tuple[GeometricCycle, ...] = ()
    theta: Mapping[GeometricCycle, Polynomial] = ()
    labels: Mapping[GeometricCycle, str] = ()
    name: str = "ideal"

    def __post_init__(self):
        beta = tuple(self.beta)
        labels = dict(self.labels)
        for i, c in enumerate(beta, 1):
            labels.setdefault(c, f"C{i}")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "theta", MappingProxyType(dict(self.theta)))
        object.__setattr__(self, "labels", MappingProxyType(labels))

    def label_of(self, cycle: GeometricCycle) -> str:
        return self.labels.get(cycle, cycle.label())


@record
class IdealValidation:
    valid: bool
    violations: tuple[str, ...]
    primed: frozenset[str] = frozenset()  # B_H∖S, once H is hereditary and saturated


def validate_ideal(g: Digraph, j: IdealPresentation) -> IdealValidation:
    """Check the quadruple against its digraph; collects violations."""
    g.check_vertices(j.pair.h | j.pair.s)
    for c in j.beta:
        for aid in c.arrows:
            g.arrow(aid)

    violations: list[str] = []
    hereditary, saturated, bb = admissibility(g, j.pair.h)
    if not hereditary:
        violations.append("H is not hereditary")
    if not saturated:
        violations.append("H is not saturated")
    h_ok = not violations
    primed: frozenset[str] = frozenset()
    if h_ok:
        for v in sorted(j.pair.s - bb):
            violations.append(f"S contains {v}, which is not a breaking vertex of H")
        primed = bb - j.pair.s

    seen = set()
    for c in j.beta:
        if c in seen:
            violations.append(f"cycle {j.label_of(c)} listed twice")
        seen.add(c)
        try:
            vs = cycle_vertices(g, c)
        except ValueError as exc:
            violations.append(str(exc))
            continue
        if any(v in j.pair.h for v in vs):
            violations.append(f"cycle {j.label_of(c)} does not survive in the quotient "
                              f"(a vertex lies in H)")
            continue
        if not h_ok:
            continue
        bad = [g.arrow(a).multiplicity != 1 for a in c.arrows]
        if any(bad):
            violations.append(f"cycle {j.label_of(c)} has a class of multiplicity != 1")
            continue
        # cycle_vertices checked the ids: read each adjacency list as it is
        if any(_quotient_out_degree(g._out[v], j.pair.h, primed) != 1 for v in vs):
            violations.append(f"cycle {j.label_of(c)} has an exit in the quotient")

    for c in j.beta:
        f = j.theta.get(c)
        if f is None:
            violations.append(f"cycle {j.label_of(c)} has no polynomial")
            continue
        if f.field != j.field:
            violations.append(f"polynomial for {j.label_of(c)} is over {f.field.header()}, "
                              f"ideal is over {j.field.header()}")
            continue
        if f.is_zero or f.degree < 1:
            violations.append(f"polynomial for {j.label_of(c)} must have positive degree")
        elif f.constant_term != j.field.one:
            violations.append(f"polynomial for {j.label_of(c)} must have constant term 1")
    for c in j.theta:
        if c not in seen:
            violations.append(f"polynomial given for {j.label_of(c)}, "
                              f"which is not a cycle of the ideal")
    return IdealValidation(valid=not violations, violations=tuple(violations),
                           primed=primed)


@record
class ValidatedIdeal:
    """(Γ, J) once :func:`validated_ideal` passed; ``primed`` is B_H∖S."""

    graph: Digraph
    ideal: IdealPresentation
    primed: frozenset[str]


def validated_ideal(g: Digraph, j: IdealPresentation) -> ValidatedIdeal:
    """Validate j on g once, then admit (H, S) on g; raises InvalidIdealError."""
    report = validate_ideal(g, j)
    if not report.valid:
        raise InvalidIdealError(report.violations)
    g._admitted[j.pair] = report.primed
    return ValidatedIdeal(g, j, report.primed)


def graded_part(j: IdealPresentation) -> IdealPresentation:
    """(H, S, ∅, ∅): the largest graded ideal inside j."""
    return IdealPresentation(field=j.field, pair=j.pair, name=j.name)


# -- the ideal file format ---------------------------------------------------------

def parse_ideal(text: str, path: str | None = None,
                field_override: Field | None = None) -> IdealPresentation:
    from .fields import Field, Polynomial

    name = None
    field: Field | None = None
    pair: dict[str, list[str]] = {"H": [], "S": []}
    by_label: dict[str, GeometricCycle] = {}
    raw_polys: list[tuple[int, str, list[str]]] = []
    for no, raw in enumerate(text.splitlines(), 1):
        parts = raw.partition("#")[0].split()
        if not parts:
            continue
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
        elif kw in pair:
            pair[kw].extend(parts[1:])
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
        try:  # each token read once into its canonical scalar, so no coercion follows
            coeffs = list(map(field.parse_scalar, tokens))
        except ValueError as exc:
            raise ParseError(str(exc), no, path) from None
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        theta[by_label[cid]] = Polynomial(field, tuple(coeffs))
    j = IdealPresentation(field, AdmissiblePair.of(pair["H"], pair["S"]),
                          tuple(by_label.values()), theta, labels, name)
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
    lines += [f"{k} {' '.join(sorted(v))}" for k, v in (("H", j.pair.h), ("S", j.pair.s)) if v]
    lines += [f"cycle {j.label_of(c)}: " + " ".join(c.arrows) for c in j.beta]
    for c in (c for c in j.beta if c in j.theta):
        coeffs = " ".join(map(j.field.format_scalar, j.theta[c].coeffs))
        lines.append(f"poly {j.label_of(c)}: {coeffs}")
    return "\n".join(lines) + "\n"

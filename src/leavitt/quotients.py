"""The three digraph constructions and the quotient decision procedure.

* graded quotient Γ/(H, S): delete H, add a primed sink v' for each breaking
  vertex kept out of S, duplicate arrows into those vertices toward the sinks;
* cycle-to-loop rewrite: replace the first arrow of a no-exit cycle by a loop
  at its source, leaving everything else alone;
* severing Γ//J: graded quotient, then cycles to loops, then each loop
  replaced by deg θ(C) fresh sinks with every incoming arrow split into that
  many copies.  It is built straight from the graded quotient: the arrow the
  rewrite would turn into a loop is dropped, so the loop never gets an id.

Severing depends only on the degrees of θ.  The quotient is (isomorphic to)
a path algebra quotient of the same kind exactly when every θ(C) factors
into distinct linear factors; the decision procedure reports a witness per
cycle and, on success, an explicit generator-image certificate.

Dimensions are path counts in :mod:`leavitt.dimension`; a quotient and a
certificate are serialized here, next to their types.

Fresh-id scheme: primed ids append a prime character, split ids append
``.j`` (j from 1), so provenance stays readable and DOT output is stable.

Contract: each public (digraph, ideal) entry point validates once, through
:func:`~leavitt.presentations.validated_ideal`, and builds the graded
quotient, the dlf verdicts and the severed digraph at most once per call.
The one worker, :func:`sever_validated`, takes only the validated ideal: it
builds Γ/(H, S) by :func:`graded_quotient`, which finds the pair admitted on
g, mints every split id, and records on the severed result what each
generator of Γ/(H, S) becomes in Γ//J.  The certificate attaches roots and
scalars to those images and names no id.  What is built here passes the checks
of ``Digraph(...)`` by construction, so it is built by ``Digraph.trusted``.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable, Mapping

from .digraph import ArrowClass, Digraph, GeometricCycle, cycle_vertices
from .errors import (
    CycleHasExitError,
    CyclesNotDisjointError,
    InternalConsistencyError,
    NotDlfError,
)
from .fields import DlfVerdict, Polynomial, is_dlf, squarefree_verdict
from .ideals import AdmissiblePair, ensure_admissible
from .presentations import IdealPresentation, ValidatedIdeal, validated_ideal
from .records import record, replace

if TYPE_CHECKING:
    from .fields import Field, Scalar


@record
class QuotientResult:
    """A constructed digraph plus, for every ``(kind, id)`` of it, kind "vertex"
    or "arrow", where it came from (a vertex and an arrow may share an id).

    Only severing fills ``images``: for each generator of Γ/(H, S), in its
    order, ``(kind, id, image ids)`` with kind "vertex", "arrow" or "cycle"
    (a β cycle's first arrow, whose image is its cycle's sinks)."""

    digraph: Digraph
    provenance: Mapping[tuple[str, str], str]
    images: tuple[tuple[str, str, tuple[str, ...]], ...] = ()


def _fresh(name: str, taken: set[str]) -> str:
    """``name``, unless ``taken``, the ids of its kind (vertex or arrow), holds it."""
    if name in taken:
        raise InternalConsistencyError(f"fresh id {name!r} collides with an existing id")
    taken.add(name)
    return name


def graded_quotient(g: Digraph, pair: AdmissiblePair) -> QuotientResult:
    """Γ/(H, S): survivors keep their ids; each v ∈ B_H∖S gets a sink v'."""
    h, primed = pair.h, ensure_admissible(g, pair)
    vertices = [v for v in g.vertices if v not in h]
    arrows = [a for a in g.arrows if a.target not in h]  # H is hereditary: none leaves H
    provenance = {("vertex", v): f"vertex {v}" for v in vertices}
    provenance.update((("arrow", a.id), f"arrow {a.id}") for a in arrows)
    taken_vertices, taken_arrows = set(g.vertices), set(g._by_id)
    for v in [v for v in g.vertices if v in primed]:
        vp = _fresh(v + "'", taken_vertices)
        vertices.append(vp)
        provenance["vertex", vp] = f"breaking-sink {v}"
    for a in [a for a in g.arrows if a.target in primed]:
        ap = _fresh(a.id + "'", taken_arrows)
        arrows.append(ArrowClass(ap, a.source, a.target + "'", a.multiplicity))
        provenance["arrow", ap] = f"breaking-arrow {a.id}"
    return QuotientResult(Digraph.trusted(g.name, tuple(vertices), tuple(arrows)), provenance)


def _check_no_exit(g: Digraph, cycle: GeometricCycle):
    for aid in cycle.arrows:
        if g.arrow(aid).multiplicity != 1:
            raise CycleHasExitError(
                f"cycle {cycle.label()} has a class of multiplicity != 1 in {g.name}")
    for v in cycle_vertices(g, cycle):
        if g.out_degree(v) != 1:
            raise CycleHasExitError(f"cycle {cycle.label()} has an exit at {v} in {g.name}")


def cycle_to_loop(g: Digraph, cycles: Iterable[GeometricCycle]) -> QuotientResult:
    """Rewrite each no-exit cycle so its first arrow becomes a loop at the base."""
    cycles = [GeometricCycle.of(c.arrows) for c in cycles]
    seen_vertices: set[str] = set()
    for c in cycles:
        vs = set(cycle_vertices(g, c))
        if vs & seen_vertices:
            raise CyclesNotDisjointError("cycles to rewrite share a vertex")
        seen_vertices |= vs
        _check_no_exit(g, c)
    taken = set(g._by_id)
    replacement: dict[str, ArrowClass] = {}
    provenance = {("vertex", v): f"vertex {v}" for v in g.vertices}
    for c in cycles:
        if len(c) == 1:
            continue  # already a loop
        first = g.arrow(c.arrows[0])
        loop_id = _fresh(first.id + "'", taken)
        replacement[first.id] = ArrowClass(loop_id, first.source, first.source, 1)
        provenance["arrow", loop_id] = f"loop-rewrite {first.id}"
    arrows = []
    for a in g.arrows:
        if a.id in replacement:
            arrows.append(replacement[a.id])
        else:
            arrows.append(a)
            provenance["arrow", a.id] = f"arrow {a.id}"
    return QuotientResult(Digraph.trusted(g.name, g.vertices, tuple(arrows)), provenance)


def sever(g: Digraph, j: IdealPresentation) -> QuotientResult:
    """Γ//J: graded quotient, cycles to loops, loops into deg θ(C) sinks.

    Defined for any valid presentation; only the degrees of θ matter here.
    """
    return sever_validated(validated_ideal(g, j))


def sever_validated(valid: ValidatedIdeal) -> QuotientResult:
    """:func:`sever` for a validated presentation, from the graded quotient it
    builds, with what each generator of that quotient becomes (``images``)."""
    g, j = valid.graph, valid.ideal
    q1 = graded_quotient(g, j.pair)  # g admitted the pair when it was validated
    work = q1.digraph
    # each cycle's first arrow is the one the rewrite turns into a loop, and
    # severing deletes that loop; it takes no id and leaves its own free
    first_arrows = {c.arrows[0] for c in j.beta}

    # ids are minted per cycle, sinks first and then copies of the arrows into
    # the base, which fixes the id a collision reports
    taken_vertices = set(work.vertices)
    taken_arrows = {a.id for a in work.arrows if a.id not in first_arrows}
    sinks_of: dict[str, tuple[str, ...]] = {}  # base -> its sinks
    copies_of: dict[str, list[ArrowClass]] = {}  # arrow into a base -> its copies
    minted: dict[tuple[str, str], str] = {}  # the provenance of the new ids
    for cycle in j.beta:
        base = work.arrow(cycle.arrows[0]).source
        sinks_of[base] = sinks = tuple(_fresh(f"{base}.{jdx}", taken_vertices)
                                       for jdx in range(1, j.theta[cycle].degree + 1))
        minted.update((("vertex", s), f"cycle-sink {base} root {jdx}")
                      for jdx, s in enumerate(sinks, 1))
        for a in work.in_arrows(base):
            if a.id == cycle.arrows[0]:
                continue
            if a.source == base:
                raise InternalConsistencyError(
                    f"unexpected second loop {a.id} at severed vertex {base}")
            copies_of[a.id] = []
            for jdx, s in enumerate(sinks, 1):
                copy_id = _fresh(f"{a.id}.{jdx}", taken_arrows)
                copies_of[a.id].append(ArrowClass(copy_id, a.source, s, a.multiplicity))
                minted["arrow", copy_id] = f"split-arrow {a.id} copy {jdx}"

    # Γ//J and the images, in one pass over the generators of Γ/(H, S)
    vertices: list[str] = []
    arrows: list[ArrowClass] = []
    images = []
    for v in work.vertices:
        ids = sinks_of.get(v, (v,))
        vertices += ids
        images.append(("vertex", v, ids))
    for a in work.arrows:
        if a.id in first_arrows:
            images.append(("cycle", a.id, sinks_of[a.source]))
            continue
        copies = copies_of.get(a.id, [a])
        arrows += copies
        images.append(("arrow", a.id, tuple(c.id for c in copies)))
    digraph = Digraph.trusted(g.name, tuple(vertices), tuple(arrows))
    # a generator that is its own image keeps its provenance; the minted ids join it
    provenance = {(kind, x): q1.provenance[kind, x] for kind, x, ids in images
                  if kind != "cycle" and ids == (x,)} | minted
    missing = {("vertex", v) for v in vertices} | {("arrow", a.id) for a in arrows}
    missing ^= provenance.keys()
    if missing:
        raise InternalConsistencyError(
            f"provenance does not cover {sorted(x for _, x in missing)}")
    return QuotientResult(digraph, provenance, tuple(images))


@record
class CycleDlfReport:
    label: str
    cycle: GeometricCycle
    verdict: DlfVerdict


@record
class DecideResult:
    """Dlf verdict per β cycle; if all hold, Γ//J with the images of the
    generators of Γ/(H, S), from which the certificate is read."""

    is_lpa: bool
    reports: tuple[CycleDlfReport, ...]
    severed: QuotientResult | None

    def failing(self) -> tuple[CycleDlfReport, ...]:
        return tuple(r for r in self.reports if not r.verdict.is_dlf)


def decide_lpa_quotient(g: Digraph, j: IdealPresentation) -> DecideResult:
    """Is the quotient by j again of path-algebra type?  Yes iff j is dlf."""
    valid = validated_ideal(g, j)
    reports = tuple(CycleDlfReport(j.label_of(c), c, is_dlf(j.theta[c])) for c in j.beta)
    if not all(r.verdict.is_dlf for r in reports):
        return DecideResult(False, reports, None)
    return DecideResult(True, reports, sever_validated(valid))


@record
class CertEntry:
    kind: str  # "vertex" | "arrow" | "cycle"
    generator: str
    image: tuple[tuple[Scalar, str], ...]


@record
class IsoCertificate:
    """Generator images of the isomorphism from the graded quotient onto Γ//J.

    Every vertex and arrow of Γ/(H, S) appears exactly once; the slot of each
    severed cycle's first arrow carries the cycle symbol, whose image lists
    the roots.
    """

    entries: tuple[CertEntry, ...]

    def image_of(self, generator: str, kind: str | None = None) -> tuple[tuple[Scalar, str], ...]:
        """The image of the first entry for ``generator``, of that ``kind`` if given."""
        for e in self.entries:
            if e.generator == generator and kind in (None, e.kind):
                return e.image
        raise KeyError(generator)


def iso_certificate(g: Digraph, j: IdealPresentation) -> IsoCertificate:
    """Severing's images, with the field's one on each vertex and arrow and
    the sorted roots of θ(C) on the sinks of each cycle C."""
    decision = decide_lpa_quotient(g, j)  # severing raises on an id collision
    if not decision.is_lpa:
        bad = ", ".join(f"{r.label}: {r.verdict.describe(j.field)}" for r in decision.failing())
        raise NotDlfError(f"no certificate: {bad}")
    report_of = {r.cycle.arrows[0]: r for r in decision.reports}
    one = j.field.one
    entries: list[CertEntry] = []
    for kind, generator, ids in decision.severed.images:
        if kind == "cycle":
            r = report_of[generator]
            entries.append(CertEntry(kind, r.label, tuple(zip(sorted(r.verdict.roots), ids))))
        else:
            entries.append(CertEntry(kind, generator, tuple((one, x) for x in ids)))
    return IsoCertificate(tuple(entries))


@record
class RadicalResult:
    j_prime: IdealPresentation
    severed: QuotientResult
    degree_drops: tuple[tuple[str, int], ...]
    hypothesis_ok: bool
    hypothesis_violations: tuple[str, ...]


def radical_quotient(g: Digraph, j: IdealPresentation) -> RadicalResult:
    """Replace each θ(C) by its squarefree part; the drop measures nilpotency.

    The radical-equals-kernel reading needs every squarefree part to split
    into distinct linear factors over the field; when it does not, the
    construction still goes through and the violation is flagged.
    """
    valid = validated_ideal(g, j)
    new_theta: dict[GeometricCycle, Polynomial] = {}
    drops: list[tuple[str, int]] = []
    violations: list[str] = []
    for c in j.beta:
        f = j.theta[c]
        sf, verdict = squarefree_verdict(f)
        new_theta[c] = sf
        drops.append((j.label_of(c), f.degree - sf.degree))
        if not verdict.is_dlf:
            violations.append(
                f"{j.label_of(c)}: squarefree part is not split "
                f"({verdict.describe(j.field)})")
    j_prime = replace(j, theta=new_theta, name=j.name + ".rad")
    # j′ differs from j only in θ, each replaced by a squarefree part of
    # positive degree with constant term 1, so it is valid whenever j is
    severed = sever_validated(replace(valid, ideal=j_prime))
    return RadicalResult(j_prime, severed, tuple(drops),
                         hypothesis_ok=not violations,
                         hypothesis_violations=tuple(violations))


# -- serialized results ------------------------------------------------------------

def serialize_quotient(q: QuotientResult) -> str:
    from .io import serialize_digraph

    return serialize_digraph(q.digraph, provenance=dict(q.provenance))


def serialize_certificate(cert: IsoCertificate, field: Field) -> str:
    lines = []
    for entry in cert.entries:
        image = " + ".join(f"{field.format_scalar(c)}*{t}" for c, t in entry.image)
        lines.append(f"{entry.generator} -> {image}")
    return "\n".join(lines) + "\n"

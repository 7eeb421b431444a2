"""Projective presentations and the Galois correspondence with graded ideals.

A presentation is a finite multiset of Vertex(v) and Corner(v, Z) items;
Corner(v, Z) is the projective of v − Σ_{e∈Z} ee* (Tomforde's v^H at an
infinite emitter, Z its instances escaping H).  The Galois maps carry a
closed submonoid of the graph monoid by its (H, S) data and import
``ideals`` when they run; the rest is in :mod:`leavitt.projectives`.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Union

from .digraph import Digraph, is_omega
from .errors import MalformedGeneratorsError
from .records import record

if TYPE_CHECKING:
    from .ideals import AdmissiblePair


@record
class VertexGen:
    vertex: str
    copies: int = 1  # of vL; a (CK2) rewrite gathers an arrow class's instances in one item

    def label(self) -> str:
        return self.vertex if self.copies == 1 else f"{self.copies} × {self.vertex}"


@record
class CornerGen:
    """Corner(v, Z) = v − Σ_{e∈Z} ee*; at a regular v validation rewrites it by (CK2)."""

    vertex: str
    z: frozenset[tuple[str, int]]  # (arrow class id, instance index)

    def label(self) -> str:
        inner = ", ".join(f"{a}#{i}" for a, i in sorted(self.z))
        return f"corner {self.vertex} {{{inner}}}"


Generator = Union[VertexGen, CornerGen]


@record
class ProjectivePresentation:
    """Finite multiset of module generators (repetition = multiplicity)."""

    items: tuple[Generator, ...]

    @classmethod
    def of(cls, items: Iterable[Generator]) -> "ProjectivePresentation":
        return cls(tuple(items))


def validate_presentation(g: Digraph, p: ProjectivePresentation) -> ProjectivePresentation:
    """Check p on g and return its (CK2) normal form: each corner at a regular
    vertex v becomes, for each of v's arrow classes a in order, Vertex(r(a))
    with one copy per instance of a outside Z, where the corner stood.  p itself
    when it has no such corner."""
    regular = False
    for item in p.items:
        g.check_vertices([item.vertex])
        if isinstance(item, VertexGen):
            if not (isinstance(item.copies, int) and item.copies >= 1):
                raise MalformedGeneratorsError(f"{item.copies} copies of {item.vertex}")
            continue
        if not item.z:
            raise MalformedGeneratorsError(f"corner at {item.vertex} has empty Z")
        for aid, idx in item.z:
            a = g.arrow(aid)
            if a.source != item.vertex:
                raise MalformedGeneratorsError(
                    f"corner at {item.vertex}: arrow {aid} does not leave it")
            if idx < 0 or (not is_omega(a.multiplicity) and idx >= a.multiplicity):
                raise MalformedGeneratorsError(
                    f"corner at {item.vertex}: instance {aid}#{idx} out of range")
        degree = g.out_degree(item.vertex)
        if not is_omega(degree) and degree <= len(item.z):
            raise MalformedGeneratorsError(
                f"corner at {item.vertex}: Z must omit at least one arrow instance")
        regular |= not is_omega(degree)
    if not regular:
        return p
    normal: list[Generator] = []
    for item in p.items:
        if isinstance(item, CornerGen) and not is_omega(g.out_degree(item.vertex)):
            in_z = Counter(aid for aid, _ in item.z)
            normal += [VertexGen(a.target, a.multiplicity - in_z[a.id])
                       for a in g._out[item.vertex] if a.multiplicity > in_z[a.id]]
        else:
            normal.append(item)
    return ProjectivePresentation(tuple(normal))


# -- Galois correspondence ------------------------------------------------------------

def instances_escaping(g: Digraph, v: str, hs: Iterable[str]) -> frozenset[tuple[str, int]]:
    """(arrow id, instance index) pairs leaving v whose target is outside hs.

    Only defined when that set is finite, i.e. no ω class escapes.
    """
    hs = set(hs)
    out = set()
    for a in g._out[v]:
        if a.target in hs:
            continue
        if is_omega(a.multiplicity):
            raise ValueError(f"ω class {a.id} escapes {sorted(hs)}; instance set is infinite")
        out.update((a.id, i) for i in range(a.multiplicity))
    return frozenset(out)


@record
class ClosedSubmonoid:
    """A closed submonoid of the graph monoid, carried by its (H, S) data."""

    h: frozenset[str]
    s: frozenset[str]

    def generating_items(self, g: Digraph) -> ProjectivePresentation:
        """The canonical generators: Vertex(v) for v ∈ H, Corner(u, Z_u) for u ∈ S."""
        items: list[Generator] = [VertexGen(v) for v in sorted(self.h)]
        for u in sorted(self.s):
            items.append(CornerGen(u, instances_escaping(g, u, self.h)))
        return ProjectivePresentation.of(items)


def galois_phi(g: Digraph, pair: AdmissiblePair) -> ClosedSubmonoid:
    """The closed submonoid orthogonal to the graded ideal of the pair."""
    from .ideals import ensure_admissible

    ensure_admissible(g, pair)
    return ClosedSubmonoid(pair.h, pair.s)


def galois_psi(g: Digraph, x: ProjectivePresentation | Iterable[Generator]) -> AdmissiblePair:
    """Recover the admissible pair generating the closed submonoid around x.

    Read off the normal form of x, whose corners sit at infinite emitters.
    Vertex items seed H.  A corner at u forces the target of every instance
    outside Z, each ω class among them, into H; once all of u's targets lie
    in H the vertex itself joins H, otherwise u joins S if it breaks H.
    Iterated to a fixpoint together with the hereditary saturated closure.
    """
    from .ideals import AdmissiblePair

    p = x if isinstance(x, ProjectivePresentation) else ProjectivePresentation.of(x)
    items = validate_presentation(g, p).items
    # p names only vertices of g now; H is a closed mask of g.bits from here on
    bits = g.bits
    h = bits.close(0, bits.mask({it.vertex for it in items if isinstance(it, VertexGen)}))
    corners = [it for it in items if isinstance(it, CornerGen)]
    grown = True
    while grown:
        grown = False
        for item in corners:
            if bits.bit[item.vertex] & h:
                continue
            z_classes = Counter(aid for aid, _ in item.z)
            arrows = g._out[item.vertex]
            forced = bits.mask({a.target for a in arrows if is_omega(a.multiplicity)
                                or a.multiplicity > z_classes.get(a.id, 0)}) & ~h
            if forced or not bits.mask({a.target for a in arrows}) & ~h:
                h = bits.close(h, forced or bits.bit[item.vertex])
                grown = True
    breaking = bits.breaking(h)  # H is closed, so B_H needs no check; it lies outside H
    s = bits.mask({item.vertex for item in corners}) & breaking
    pair = AdmissiblePair(bits.members(h), bits.members(s))
    g._admitted[pair] = bits.members(breaking & ~s)  # g admits the pair it found
    return pair

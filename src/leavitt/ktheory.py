"""Graph monoid, the Galois correspondence with graded ideals, and projectives.

The graph monoid is presented by one generator per vertex and one relation
v = Σ targets per regular vertex.  Closed submonoids are never enumerated
element by element; they are carried by their (H, S) data, which the Galois
maps translate to and from generator items.  A bounded bidirectional
rewrite search is provided as an oracle for congruence questions.

Projective presentations are finite multisets of Vertex(v) and Corner(v, Z)
items, Z a set of (arrow class, instance index) pairs leaving v.  Only
:func:`end_finite_dim` and :func:`acyclic_decomposition` need ``quotients``,
and they import it themselves, so the Galois maps load no quotient code.
"""

from __future__ import annotations

import itertools
from collections import Counter
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .digraph import (
    Digraph,
    GeometricCycle,
    OMEGA,
    classify_vertices,
    cycle_vertices,
    find_any_cycle,
    instances_escaping,
    is_omega,
    no_exit_cycles,
)
from .errors import (
    MalformedGeneratorsError,
    NotAcyclicError,
    NotRowFiniteError,
    UnknownArrowError,
)
from .ideals import AdmissiblePair, IdealPresentation, ensure_admissible, validated_ideal
from .records import record

if TYPE_CHECKING:
    from .quotients import MatrixDecomposition


# -- graph monoid ----------------------------------------------------------------

@record
class MonoidPresentation:
    generators: tuple[str, ...]
    relations: tuple[tuple[str, tuple[tuple[str, int], ...]], ...]


def _require_row_finite(g: Digraph):
    if not g.is_row_finite:
        raise NotRowFiniteError(f"{g.name} has an ω class")


def monoid_presentation(g: Digraph) -> MonoidPresentation:
    """Generators = vertices; one relation v = Σ targets per regular vertex."""
    _require_row_finite(g)
    relations = []
    for v in g.vertices:
        arrows = g.out_arrows(v)
        if not arrows:
            continue
        targets: Counter[str] = Counter()
        for a in arrows:
            targets[a.target] += a.multiplicity
        relations.append((v, tuple(sorted(targets.items()))))
    return MonoidPresentation(tuple(g.vertices), tuple(relations))


Element = Mapping[str, int]


def _norm(e: Element) -> tuple[tuple[str, int], ...]:
    return tuple(sorted((v, c) for v, c in e.items() if c))


class CongruenceVerdict(Enum):
    CONGRUENT = "congruent"
    NOT_WITHIN_DEPTH = "notWithinDepth"


def _neighbors(state, relations):
    out = []
    counts = dict(state)
    for v, targets in relations:
        if counts.get(v, 0) >= 1:
            nxt = dict(counts)
            nxt[v] -= 1
            for w, k in targets:
                nxt[w] = nxt.get(w, 0) + k
            out.append(_norm(nxt))
        if all(counts.get(w, 0) >= k for w, k in targets):
            nxt = dict(counts)
            for w, k in targets:
                nxt[w] -= k
            nxt[v] = nxt.get(v, 0) + 1
            out.append(_norm(nxt))
    return out


def monoid_congruent(g: Digraph, a: Element, b: Element,
                     depth: int = 12) -> CongruenceVerdict:
    """Bounded bidirectional search over single-relation rewrites."""
    _require_row_finite(g)
    g.check_vertices(a)
    g.check_vertices(b)
    relations = monoid_presentation(g).relations
    start, goal = _norm(a), _norm(b)
    if start == goal:
        return CongruenceVerdict.CONGRUENT
    # Each pass grows the smaller ball by one rewrite; the two balls meet
    # within ``depth`` passes exactly when the distance is at most depth.
    seen, other = {start}, {goal}
    frontier, opposite = [start], [goal]
    for _ in range(depth):
        if opposite and (not frontier or len(opposite) <= len(frontier)):
            frontier, opposite, seen, other = opposite, frontier, other, seen
        if not frontier:
            break
        nxt = []
        for state in frontier:
            for nb in _neighbors(state, relations):
                if nb in other:
                    return CongruenceVerdict.CONGRUENT
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        frontier = nxt
    return CongruenceVerdict.NOT_WITHIN_DEPTH


# -- projective presentations -------------------------------------------------------

@record
class VertexGen:
    vertex: str

    def label(self) -> str:
        return self.vertex


@record
class CornerGen:
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


def validate_presentation(g: Digraph, p: ProjectivePresentation):
    for item in p.items:
        g.check_vertices([item.vertex])
        if isinstance(item, VertexGen):
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


# -- Galois correspondence ------------------------------------------------------------

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
    ensure_admissible(g, pair)
    return ClosedSubmonoid(pair.h, pair.s)


def galois_psi(g: Digraph, x: ProjectivePresentation | Iterable[Generator]) -> AdmissiblePair:
    """Recover the admissible pair generating the closed submonoid around x.

    Vertex items seed H.  A corner at u forces the target of every instance
    outside Z into H; once all of u's targets lie in H the vertex itself
    joins H, otherwise an infinite emitter u joins S.  Iterated to a fixpoint
    together with the hereditary saturated closure.
    """
    items = tuple(x.items) if isinstance(x, ProjectivePresentation) else tuple(x)
    p = ProjectivePresentation.of(items)
    validate_presentation(g, p)
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
    # H is closed, so B_H needs no check; it lies outside H
    s = bits.mask({item.vertex for item in corners}) & bits.breaking(h)
    return AdmissiblePair(bits.members(h), bits.members(s))


def is_orthogonal(g: Digraph, p: ProjectivePresentation, j: IdealPresentation) -> bool:
    """Hom(P, L/J) = 0, read off the generator items and the pair of J."""
    validate_presentation(g, p)
    validated_ideal(g, j)
    h, s = j.pair.h, j.pair.s
    for item in p.items:
        if isinstance(item, VertexGen):
            if item.vertex not in h:
                return False
            continue
        if item.vertex in h:
            continue
        if item.vertex not in s:
            return False
        escaping = instances_escaping(g, item.vertex, h)
        if not escaping <= item.z:
            return False
    return True


# -- module classifications --------------------------------------------------------------

@record
class SimpleClass:
    representative: str           # the sink
    members: tuple[str, ...]      # line points draining into it


def classify_simple_projectives(g: Digraph) -> tuple[SimpleClass, ...]:
    """One isomorphism class of simple projectives per sink; members are the
    line points whose path terminates there."""
    info = classify_vertices(g)
    terminal: dict[str, list[str]] = {v: [] for v in g.vertices if info[v].sink}
    for v in g.vertices:
        if not info[v].line_point:
            continue
        cur = v
        while g.out_arrows(cur):
            cur = g.out_arrows(cur)[0].target
        terminal[cur].append(v)
    order = {v: i for i, v in enumerate(g.vertices)}
    return tuple(SimpleClass(sink, tuple(sorted(members, key=order.__getitem__)))
                 for sink, members in terminal.items())


@record
class FgipClass:
    cycle: GeometricCycle
    support: frozenset[str]


def classify_fgips(g: Digraph, limit: int = 10_000) -> tuple[FgipClass, ...]:
    """Non-simple finitely generated indecomposable projectives: one per
    no-exit cycle, supported on the cycle's predecessors."""
    return tuple(FgipClass(c, g.predecessors(cycle_vertices(g, c)))
                 for c in no_exit_cycles(g, limit=limit))


class CornerKind(Enum):
    FIELD = "Field"
    LAURENT_RING = "LaurentRing"
    OTHER = "Other"


def corner_classify(g: Digraph, v: str) -> CornerKind:
    """vLv up to isomorphism: 𝔽 at sinks, 𝔽[x,x⁻¹] on no-exit cycles, rest opaque."""
    g.check_vertices([v])
    if not g.out_arrows(v):
        return CornerKind.FIELD
    if any(v in cycle_vertices(g, c) for c in no_exit_cycles(g)):
        return CornerKind.LAURENT_RING
    return CornerKind.OTHER


# -- endomorphism algebras ------------------------------------------------------------------

@record
class EndVerdict:
    finite: bool
    decomposition: MatrixDecomposition | None = None
    witness: str | None = None


def _sink_multiset(g: Digraph, v: str, memo: dict) -> Counter:
    """Multiset of sinks that vL decomposes into over an acyclic row-finite region."""
    if v in memo:
        return memo[v]
    arrows = g.out_arrows(v)
    if not arrows:
        out = Counter({v: 1})
    else:
        out = Counter()
        for a in arrows:
            sub = _sink_multiset(g, a.target, memo)
            for w, k in sub.items():
                out[w] += a.multiplicity * k
    memo[v] = out
    return out


def end_finite_dim(g: Digraph, p: ProjectivePresentation) -> EndVerdict:
    """Finite-dimensionality of End(P) with either the block decomposition or a witness."""
    from .quotients import MatrixDecomposition

    validate_presentation(g, p)
    for item in p.items:
        if isinstance(item, CornerGen):
            return EndVerdict(False, witness=f"corner item at {item.vertex}")
    memo: dict = {}
    totals: Counter[str] = Counter()
    for item in p.items:
        reach = g.successors({item.vertex})
        omega = next((a for w in sorted(reach) for a in g.out_arrows(w)
                      if is_omega(a.multiplicity)), None)
        if omega is not None:
            return EndVerdict(False, witness=f"ω class {omega.id} reachable from {item.vertex}")
        sub = g.full_subgraph(reach)
        cyc = find_any_cycle(sub)
        if cyc is not None:
            return EndVerdict(
                False, witness=f"cycle {cyc.label()} reachable from {item.vertex}")
        totals += _sink_multiset(g, item.vertex, memo)
    return EndVerdict(True, decomposition=MatrixDecomposition.of(totals.values()))


def acyclic_decomposition(g: Digraph) -> MatrixDecomposition:
    """One M_{n(v)} block per sink of a finite acyclic row-finite digraph."""
    from .quotients import dimension_blocks

    _require_row_finite(g)
    cyc = find_any_cycle(g)
    if cyc is not None:
        raise NotAcyclicError(f"{g.name} contains the cycle {cyc.label()}")
    return dimension_blocks(g)

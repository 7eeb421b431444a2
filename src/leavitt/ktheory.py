"""Graph monoid, the Galois correspondence with graded ideals, and projectives.

The graph monoid is presented by one generator per vertex and one relation
v = Σ targets per regular vertex.  Closed submonoids are never enumerated
element by element; they are carried by their (H, S) data, which the Galois
maps translate to and from generator items.  A bounded bidirectional
rewrite search is provided as an oracle for congruence questions.

Projective presentations are finite multisets of Vertex(v) and Corner(v, Z)
items, Z a set of (arrow class, instance index) pairs leaving v.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Mapping, Union

from .digraph import (
    Digraph,
    GeometricCycle,
    OMEGA,
    breaking_vertices,
    classify_vertices,
    enumerate_cycles,
    find_any_cycle,
    hereditary_saturated_closure,
    instances_escaping,
    is_omega,
)
from .errors import (
    MalformedGeneratorsError,
    NotAcyclicError,
    NotRowFiniteError,
    UnknownArrowError,
)
from .ideals import AdmissiblePair, IdealPresentation, ensure_admissible, validated_ideal
from .quotients import MatrixDecomposition, dimension_blocks


# -- graph monoid ----------------------------------------------------------------

@dataclass(frozen=True)
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
    seen_a: set = {start}
    seen_b: set = {goal}
    frontier_a, frontier_b = [start], [goal]
    spent = 0
    while spent < depth and (frontier_a or frontier_b):
        # expand the smaller frontier
        if frontier_b and (not frontier_a or len(frontier_b) <= len(frontier_a)):
            frontier, seen, other = frontier_b, seen_b, seen_a
            which = "b"
        else:
            frontier, seen, other = frontier_a, seen_a, seen_b
            which = "a"
        nxt = []
        for state in frontier:
            for nb in _neighbors(state, relations):
                if nb in other:
                    return CongruenceVerdict.CONGRUENT
                if nb not in seen:
                    seen.add(nb)
                    nxt.append(nb)
        if which == "b":
            frontier_b = nxt
        else:
            frontier_a = nxt
        spent += 1
    return CongruenceVerdict.NOT_WITHIN_DEPTH


# -- projective presentations -------------------------------------------------------

@dataclass(frozen=True)
class VertexGen:
    vertex: str

    def label(self) -> str:
        return self.vertex


@dataclass(frozen=True)
class CornerGen:
    vertex: str
    z: frozenset[tuple[str, int]]  # (arrow class id, instance index)

    def label(self) -> str:
        inner = ", ".join(f"{a}#{i}" for a, i in sorted(self.z))
        return f"corner {self.vertex} {{{inner}}}"


Generator = Union[VertexGen, CornerGen]


@dataclass(frozen=True)
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
        per_class: Counter[str] = Counter()
        for aid, idx in item.z:
            a = g.arrow(aid)
            if a.source != item.vertex:
                raise MalformedGeneratorsError(
                    f"corner at {item.vertex}: arrow {aid} does not leave it")
            if idx < 0 or (not is_omega(a.multiplicity) and idx >= a.multiplicity):
                raise MalformedGeneratorsError(
                    f"corner at {item.vertex}: instance {aid}#{idx} out of range")
            per_class[aid] += 1
        degree = g.out_degree(item.vertex)
        if not is_omega(degree) and degree <= len(item.z):
            raise MalformedGeneratorsError(
                f"corner at {item.vertex}: Z must omit at least one arrow instance")


# -- Galois correspondence ------------------------------------------------------------

@dataclass(frozen=True)
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
    h = set(hereditary_saturated_closure(g, {it.vertex for it in items
                                             if isinstance(it, VertexGen)}))
    corners = [it for it in items if isinstance(it, CornerGen)]
    while True:
        grown = False
        for item in corners:
            if item.vertex in h:
                continue
            z_classes = Counter(aid for aid, _ in item.z)
            forced = set()
            for a in g.out_arrows(item.vertex):
                covered = z_classes.get(a.id, 0)
                uncovered = is_omega(a.multiplicity) or a.multiplicity > covered
                if uncovered and a.target not in h:
                    forced.add(a.target)
            if forced:
                h |= forced
                h = set(hereditary_saturated_closure(g, h))
                grown = True
            elif all(a.target in h for a in g.out_arrows(item.vertex)):
                h.add(item.vertex)
                h = set(hereditary_saturated_closure(g, h))
                grown = True
        if not grown:
            break
    s = set()
    for item in corners:
        if item.vertex in h:
            continue
        if item.vertex in breaking_vertices(g, frozenset(h)):
            s.add(item.vertex)
    return AdmissiblePair(frozenset(h), frozenset(s))


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

@dataclass(frozen=True)
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


@dataclass(frozen=True)
class FgipClass:
    cycle: GeometricCycle
    support: frozenset[str]


def classify_fgips(g: Digraph, limit: int = 10_000) -> tuple[FgipClass, ...]:
    """Non-simple finitely generated indecomposable projectives: one per
    no-exit cycle, supported on the cycle's predecessors."""
    out = []
    for info in enumerate_cycles(g, limit=limit):
        if info.has_exit:
            continue
        vs = {g.arrow(aid).source for aid in info.cycle.arrows}
        out.append(FgipClass(info.cycle, g.predecessors(vs)))
    return tuple(out)


class CornerKind(Enum):
    FIELD = "Field"
    LAURENT_RING = "LaurentRing"
    OTHER = "Other"


def corner_classify(g: Digraph, v: str) -> CornerKind:
    """vLv up to isomorphism: 𝔽 at sinks, 𝔽[x,x⁻¹] on no-exit cycles, rest opaque."""
    g.check_vertices([v])
    if not g.out_arrows(v):
        return CornerKind.FIELD
    cur = v
    seen = set()
    while True:
        arrows = g.out_arrows(cur)
        if g.out_degree(cur) != 1:
            return CornerKind.OTHER
        nxt = arrows[0].target
        if nxt == v:
            return CornerKind.LAURENT_RING
        if nxt in seen:
            return CornerKind.OTHER
        seen.add(nxt)
        cur = nxt


# -- endomorphism algebras ------------------------------------------------------------------

@dataclass(frozen=True)
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
    validate_presentation(g, p)
    for item in p.items:
        if isinstance(item, CornerGen):
            return EndVerdict(False, witness=f"corner item at {item.vertex}")
    memo: dict = {}
    totals: Counter[str] = Counter()
    for item in p.items:
        reach = g.successors({item.vertex})
        for w in sorted(reach):
            for a in g.out_arrows(w):
                if is_omega(a.multiplicity):
                    return EndVerdict(
                        False, witness=f"ω class {a.id} reachable from {item.vertex}")
        sub = g.full_subgraph(reach)
        cyc = find_any_cycle(sub)
        if cyc is not None:
            return EndVerdict(
                False, witness=f"cycle {cyc.label()} reachable from {item.vertex}")
        totals += _sink_multiset(g, item.vertex, memo)
    return EndVerdict(True, decomposition=MatrixDecomposition.of(totals.values()))


def acyclic_decomposition(g: Digraph) -> MatrixDecomposition:
    """One M_{n(v)} block per sink of a finite acyclic row-finite digraph."""
    _require_row_finite(g)
    cyc = find_any_cycle(g)
    if cyc is not None:
        raise NotAcyclicError(f"{g.name} contains the cycle {cyc.label()}")
    return dimension_blocks(g)

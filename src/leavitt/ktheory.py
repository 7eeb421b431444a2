"""Graph monoid, the Galois correspondence with graded ideals, and projectives.

The graph monoid is presented by one generator per vertex and one relation
v = Σ targets per regular vertex.  Closed submonoids are never enumerated
element by element; they are carried by their (H, S) data, which the Galois
maps translate to and from generator items.  A bounded bidirectional
rewrite search is provided as an oracle for congruence questions.

Projective presentations are finite multisets of Vertex(v) and Corner(v, Z)
items, Z a set of (arrow class, instance index) pairs leaving v.  Corner(v, Z)
is the projective of v − Σ_{e∈Z} ee* (Tomforde's v^H at an infinite emitter, Z
its instances escaping H).  :func:`validate_presentation` rewrites a corner at
a regular vertex by (CK2) into Vertex(r(a)) items, one per arrow class a, with
one copy per instance of a outside Z; every consumer works on what it returns.
The text format of presentations (``P:`` and ``corner`` lines) is parsed
here, next to the types it builds, and :func:`instances_escaping` gives Z of
the canonical corner at u ∈ S: the instances of u whose targets lie outside
H.  The simple projectives read the linear walk
:func:`~leavitt.digraph.out_one_walk` and End(P) the iterative path counts of
``dimension``.  The functions that need the ideals (``ideals``), the pair
order (``lattice``), the search for a cycle (``cycles``) or the path counts
import them when they run, so ``monoid``, ``fgip`` and ``simples`` load
none of them and the Galois maps only ``ideals``.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import TYPE_CHECKING, Iterable, Mapping, Union

from .digraph import (
    Digraph,
    GeometricCycle,
    OMEGA,
    cycle_vertices,
    is_omega,
    no_exit_cycles,
    out_one_walk,
)
from .errors import MalformedGeneratorsError, NotAcyclicError, NotRowFiniteError, ParseError
from .records import record

if TYPE_CHECKING:
    from .dimension import MatrixDecomposition
    from .ideals import AdmissiblePair, IdealPresentation


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


# -- the presentation format ---------------------------------------------------------

def _whole_lines(text: str):
    """The numbered non-blank lines, skipping only full-line comments: '#'
    joins an arrow id to an instance index inside a line."""
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield no, line


def parse_presentation(text: str, path: str | None = None) -> ProjectivePresentation:
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
    # H is closed, so B_H needs no check; it lies outside H
    s = bits.mask({item.vertex for item in corners}) & bits.breaking(h)
    return AdmissiblePair(bits.members(h), bits.members(s))


def is_orthogonal(g: Digraph, p: ProjectivePresentation, j: IdealPresentation) -> bool:
    """Hom(P, L/J) = 0: P ⊥ J ⇔ trace(P) ⊆ J ⇔ ψ(P) ≼ (H, S), as trace(P) is graded."""
    from .ideals import validated_ideal
    from .lattice import pair_order

    p = validate_presentation(g, p)
    validated_ideal(g, j)
    return pair_order(g, galois_psi(g, p), j.pair)


# -- module classifications --------------------------------------------------------------

@record
class SimpleClass:
    representative: str           # the sink
    members: tuple[str, ...]      # line points draining into it


def classify_simple_projectives(g: Digraph) -> tuple[SimpleClass, ...]:
    """One isomorphism class of simple projectives per sink; members are the
    line points whose run along the only arrows stops there (:func:`out_one_walk`)."""
    stop, _ = out_one_walk(g)
    terminal: dict[str, list[str]] = {v: [] for v, out in g._out.items() if not out}
    for v in g.vertices:
        if stop[v] in terminal:
            terminal[stop[v]].append(v)
    return tuple(SimpleClass(sink, tuple(members)) for sink, members in terminal.items())


@record
class FgipClass:
    cycle: GeometricCycle
    support: frozenset[str]


def classify_fgips(g: Digraph, limit: int = 10_000) -> tuple[FgipClass, ...]:
    """Non-simple finitely generated indecomposable projectives: one per
    no-exit cycle, supported on the cycle's predecessors."""
    return tuple(FgipClass(c, g.predecessors(cycle_vertices(g, c)))
                 for c in no_exit_cycles(g, limit=limit))


# -- endomorphism algebras ------------------------------------------------------------------

@record
class EndVerdict:
    finite: bool
    decomposition: MatrixDecomposition | None = None
    witness: str | None = None


def end_finite_dim(g: Digraph, p: ProjectivePresentation) -> EndVerdict:
    """Finite-dimensionality of End(P) with either the block decomposition or a witness.

    The items' reach is peeled from its sinks once; what stays reaches an ω class
    or a cycle, and only the first item that stays is walked for its witness."""
    from .dimension import MatrixDecomposition, _paths_ending_at

    items = validate_presentation(g, p).items
    corner = next((item for item in items if isinstance(item, CornerGen)), None)
    if corner is not None:
        return EndVerdict(False, witness=f"corner item at {corner.vertex}")
    reach = g.successors(item.vertex for item in items)
    # w's arrow classes not peeled yet; ω if one is an ω class, so w never peels
    waiting = {w: sum(OMEGA if is_omega(a.multiplicity) else 1 for a in g._out[w]) for w in reach}
    peeled = [w for w, k in waiting.items() if not k]
    for w in peeled:
        for u in (a.source for a in g._in[w] if a.source in waiting):
            waiting[u] -= 1
            if not waiting[u]:
                peeled.append(u)
    stuck = next((item.vertex for item in items if waiting[item.vertex]), None)
    if stuck is not None:
        from .cycles import find_any_cycle

        own = g.successors({stuck})
        what = next((f"ω class {a.id}" for w in sorted(own) for a in g._out[w]
                     if is_omega(a.multiplicity)), None)
        what = what or f"cycle {find_any_cycle(g.full_subgraph(own)).label()}"
        return EndVerdict(False, witness=f"{what} reachable from {stuck}")
    # each sink w reached gives M_n, n the paths from the items to w inside their reach
    sinks = [w for w in reach if not g._out[w]]
    outside = frozenset(a.id for w in reach for a in g._in[w] if a.source not in reach)
    starts: Counter[str] = Counter()
    for item in items:
        starts[item.vertex] += item.copies
    counts = _paths_ending_at(g, sinks, starts, outside)
    return EndVerdict(True, decomposition=MatrixDecomposition.of(counts[w] for w in sinks))


def acyclic_decomposition(g: Digraph) -> MatrixDecomposition:
    """One M_{n(v)} block per sink of a finite acyclic row-finite digraph."""
    from .cycles import find_any_cycle
    from .dimension import dimension_blocks

    _require_row_finite(g)
    cyc = find_any_cycle(g)
    if cyc is not None:
        raise NotAcyclicError(f"{g.name} contains the cycle {cyc.label()}")
    return dimension_blocks(g)

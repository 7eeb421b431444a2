"""The graph monoid and the projective modules.

The monoid has one generator per vertex and one relation v = Σ targets per
regular vertex, with a bounded rewrite search as a congruence oracle.  Here
too are the presentation format, orthogonality to an ideal, the simple and
the finitely generated indecomposable projectives, and End(P).  What needs
the generators (``ktheory``), the ideals or the path counts of ``dimension``
imports them when it runs, and End(P) the search for one cycle (``cycles``)
only to name the cycle that makes it infinite, so ``monoid``, ``fgip`` and
``simples`` load none of them.
"""

from __future__ import annotations

from collections import Counter
from enum import Enum
from typing import TYPE_CHECKING, Mapping

from .digraph import (
    Digraph, GeometricCycle, OMEGA, cycle_vertices, drains, is_omega, no_exit_cycles)
from .errors import NotRowFiniteError, ParseError
from .records import record

if TYPE_CHECKING:
    from .dimension import MatrixDecomposition
    from .ktheory import ProjectivePresentation
    from .presentations import IdealPresentation


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


# -- the presentation format ---------------------------------------------------------

def _whole_lines(text: str):
    """The numbered non-blank lines, skipping only full-line comments: '#'
    joins an arrow id to an instance index inside a line."""
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if line and not line.startswith("#"):
            yield no, line


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
            vertex, body = (part.strip() for part in rest[:-1].split("{", 1))
            if not vertex:
                raise ParseError("corner line is missing the vertex", no, path)
            z = set()
            for token in ([] if not body else body.split(",")):
                token = token.strip()
                if "#" not in token:
                    raise ParseError(f"bad instance token {token!r}", no, path)
                aid, idx = token.rsplit("#", 1)
                if not (idx.isascii() and idx.isdigit()):
                    raise ParseError(f"bad instance index in {token!r}", no, path)
                try:  # int() refuses more than 4,300 digits
                    z.add((aid, int(idx)))
                except ValueError as exc:
                    raise ParseError(f"bad instance index in {token!r}: {exc}", no, path) from None
            items.append(CornerGen(vertex, frozenset(z)))
        else:
            raise ParseError("expected a 'P:' or 'corner' line", no, path)
    return ProjectivePresentation.of(items)


def is_orthogonal(g: Digraph, p: ProjectivePresentation, j: IdealPresentation) -> bool:
    """Hom(P, L/J) = 0: P ⊥ J ⇔ trace(P) ⊆ J ⇔ ψ(P) ≼ (H, S), as trace(P) is graded."""
    from .ideals import pair_order
    from .ktheory import galois_psi
    from .presentations import validated_ideal

    psi = galois_psi(g, p)  # validates P, so its errors come before J's
    validated_ideal(g, j)
    return pair_order(g, psi, j.pair)


# -- module classifications --------------------------------------------------------------

@record
class SimpleClass:
    representative: str           # the sink
    members: tuple[str, ...]      # line points draining into it


def classify_simple_projectives(g: Digraph) -> tuple[SimpleClass, ...]:
    """One isomorphism class of simple projectives per sink; members are the
    line points that drain to it (:func:`~leavitt.digraph.drains`)."""
    terminal: dict[str, list[str]] = {v: [] for v, out in g._out.items() if not out}
    drain = drains(g)
    for v in g.vertices:
        if drain[v] is not None:
            terminal[drain[v]].append(v)
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
    from .ktheory import CornerGen, validate_presentation

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


"""Finite digraph model and the structural analyses everything else consumes.

A digraph is a finite vertex set plus *arrow classes*: an arrow class has a
source, a target and a multiplicity, which is a positive integer or ω
(:data:`OMEGA`).  A class of multiplicity k stands for k parallel arrows
wherever counts matter; an ω class makes its source an infinite emitter.

Cycles are *geometric*: an arrow-id sequence up to rotation, stored in the
canonical rotation whose first arrow id is lexicographically smallest.
Their enumeration, and the search for any one cycle, live in
:mod:`leavitt.cycles`.  The cycles without exit, the line points, the bit
index's ancestors and Johnson's search all read the strongly connected
components, built once per digraph (:attr:`Digraph.components`).

Vertex sets inside the structural analyses are int masks over a
:class:`~leavitt.bitindex.BitIndex` (:attr:`Digraph.bits`), built on first use
by what asks many set questions of one digraph: the enumerations, the closure
and the Galois map ψ.  The closure, the closed sets and B_H are then word
operations on masks of successors, predecessors and ω targets; the public
functions take and return ``frozenset``s of ids, or the masks where they say
so.  Validating one ideal, and :func:`breaking_vertices` of one H, read only
the arrows at H (:func:`~leavitt.ideals.admissibility`), so ``quotient``,
``decide``, ``dim`` and the like never load ``bitindex``.

Digraph morphisms and their admissibility check live in
:mod:`leavitt.morphisms`, and the arrow instances a corner generator leaves
out in :mod:`leavitt.ktheory`, so commands that never use them do not
compile them.  All values are immutable after construction but one: the memo
of admitted pairs, append-only and idempotent.  Every analysis is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import (
    NotHereditaryError,
    ResourceLimitError,
    UnknownArrowError,
    UnknownVertexError,
)
from .records import record

if TYPE_CHECKING:
    from .bitindex import BitIndex

#: Multiplicity marker for an infinite arrow class.
OMEGA = math.inf


def is_omega(multiplicity) -> bool:
    return multiplicity == OMEGA


@record
class ArrowClass:
    id: str
    source: str
    target: str
    multiplicity: int | float = 1

    def __post_init__(self):
        ok = is_omega(self.multiplicity) or (
            isinstance(self.multiplicity, int) and self.multiplicity >= 1)
        if not ok:
            raise ValueError(f"arrow {self.id}: bad multiplicity {self.multiplicity!r}")


class Digraph:
    """Immutable finite digraph with ordered vertices and arrow classes; it
    remembers B_H∖S of each (H, S) it admitted (:func:`~leavitt.ideals.ensure_admissible`)."""

    def __init__(self, name: str, vertices: Iterable[str],
                 arrows: Iterable[ArrowClass | tuple]):
        vertices = tuple(vertices)
        arrows = tuple(a if isinstance(a, ArrowClass) else ArrowClass(*a) for a in arrows)
        declared, ids = set(vertices), set()
        if len(declared) != len(vertices):
            raise ValueError(f"digraph {name}: duplicate vertex id")
        for a in arrows:
            if a.id in ids:
                raise ValueError(f"digraph {name}: duplicate arrow id {a.id}")
            if a.source not in declared:
                raise ValueError(f"digraph {name}: arrow {a.id} has undeclared source {a.source}")
            if a.target not in declared:
                raise ValueError(f"digraph {name}: arrow {a.id} has undeclared target {a.target}")
            ids.add(a.id)
        self._index(name, vertices, arrows)

    @classmethod
    def trusted(cls, name: str, vertices: tuple[str, ...], arrows: tuple[ArrowClass, ...]):
        """``Digraph(name, vertices, arrows)`` unchecked, for what is known to pass its checks."""
        return cls.__new__(cls)._index(name, vertices, arrows)

    def _index(self, name, vertices, arrows) -> Digraph:
        self.name, self.vertices, self.arrows, self._admitted = name, vertices, arrows, {}
        self._by_id = {a.id: a for a in arrows}
        self._out, self._in = out, in_ = {v: [] for v in vertices}, {v: [] for v in vertices}
        for a in arrows:
            out[a.source].append(a)
            in_[a.target].append(a)
        return self

    @functools.cached_property
    def bits(self) -> BitIndex:
        """The vertex bit index, built on first use and kept (g is immutable)."""
        from .bitindex import BitIndex
        return BitIndex(self)

    @functools.cached_property
    def components(self) -> list[tuple[tuple[str, ...], GeometricCycle | None]]:
        """The strongly connected components, sinks first (Tarjan 1972), so every
        arrow ends in its own component or an earlier one; each with its cycle
        when its internal arrow classes form one, being as many as its vertices."""
        succ = {v: [a.target for a in out] for v, out in self._out.items()}
        out = []
        for vs in _strong_components(self.vertices, succ):
            inside, cycle = set(vs), None
            if sum(w in inside for v in vs for w in succ[v]) == len(vs):
                # Tarjan pops a component in reverse discovery order: back along one cycle
                cycle = GeometricCycle.of([next(a.id for a in self._out[v] if a.target in inside)
                                           for v in reversed(vs)])
            out.append((tuple(vs), cycle))
        return out

    def __eq__(self, other):
        return (isinstance(other, Digraph) and self.name == other.name
                and self.vertices == other.vertices and self.arrows == other.arrows)

    def __hash__(self):
        return hash((self.name, self.vertices, self.arrows))

    def __repr__(self):
        return f"Digraph({self.name!r}, |V|={len(self.vertices)}, |E|={len(self.arrows)})"

    # -- lookups ------------------------------------------------------------

    def has_vertex(self, v: str) -> bool:
        return v in self._out

    def check_vertices(self, xs: Iterable[str]):
        """Raise on an id that is not a vertex, naming the smallest one."""
        unknown = [v for v in xs if v not in self._out]
        if unknown:
            raise UnknownVertexError(f"unknown vertex {min(unknown)!r} in digraph {self.name}")

    def arrow(self, aid: str) -> ArrowClass:
        try:
            return self._by_id[aid]
        except KeyError:
            raise UnknownArrowError(f"unknown arrow {aid!r} in digraph {self.name}") from None

    def has_arrow(self, aid: str) -> bool:
        return aid in self._by_id

    def out_arrows(self, v: str) -> tuple[ArrowClass, ...]:
        self.check_vertices([v])
        return tuple(self._out[v])

    def in_arrows(self, v: str) -> tuple[ArrowClass, ...]:
        self.check_vertices([v])
        return tuple(self._in[v])

    def out_degree(self, v: str) -> int | float:
        """Arrow-instance count leaving v; ω classes absorb to infinity."""
        return sum(a.multiplicity for a in self.out_arrows(v))

    @property
    def is_row_finite(self) -> bool:
        return not any(is_omega(a.multiplicity) for a in self.arrows)

    def sinks(self) -> tuple[str, ...]:
        return tuple(v for v in self.vertices if not self._out[v])

    # -- reachability ---------------------------------------------------------

    def _reach(self, xs: Iterable[str], step) -> frozenset[str]:
        xs = list(xs)
        self.check_vertices(xs)
        seen, stack = set(xs), list(xs)
        while stack:
            for w in step(stack.pop()):
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return frozenset(seen)

    def successors(self, xs: Iterable[str]) -> frozenset[str]:
        """Vertices reachable from xs, including xs itself (⤳ is reflexive)."""
        return self._reach(xs, lambda v: (a.target for a in self._out[v]))

    def predecessors(self, xs: Iterable[str]) -> frozenset[str]:
        return self._reach(xs, lambda v: (a.source for a in self._in[v]))

    def full_subgraph(self, ws: Iterable[str], name: str | None = None) -> "Digraph":
        """Restriction to ws, keeping every class with both endpoints inside."""
        ws = set(ws)
        self.check_vertices(ws)
        return Digraph.trusted(
            name if name is not None else self.name,
            tuple(v for v in self.vertices if v in ws),
            tuple(a for a in self.arrows if a.source in ws and a.target in ws))


# -- vertex classification ----------------------------------------------------

@record
class VertexInfo:
    sink: bool
    source: bool
    branch_vertex: bool
    infinite_emitter: bool
    regular: bool
    line_point: bool
    leak: bool = False  # provably False on every finite digraph


def drains(g: Digraph) -> dict[str, str | None]:
    """Per vertex, the sink its run along only arrows ends at, or None: one pass
    over the components from the sinks, where a target not passed yet is on a cycle."""
    drain: dict[str, str | None] = {}
    for v in (v for vs, _ in g.components for v in vs):
        out = g._out[v]
        only = len(out) == 1 and out[0].multiplicity == 1
        drain[v] = drain.get(out[0].target) if only else (None if out else v)
    return drain


def classify_vertices(g: Digraph) -> dict[str, VertexInfo]:
    """Each vertex's kind; a line point drains to a sink (:func:`drains`)."""
    drain = drains(g)
    out = {}
    for v, arrows in g._out.items():
        deg = sum(a.multiplicity for a in arrows)
        out[v] = VertexInfo(
            sink=deg == 0,
            source=not g._in[v],
            branch_vertex=deg >= 2,
            infinite_emitter=is_omega(deg),
            regular=0 < deg < OMEGA,
            line_point=drain[v] is not None,
        )
    return out


# -- geometric cycles ---------------------------------------------------------

@record
class GeometricCycle:
    """Arrow ids of a simple cycle, canonically rotated."""

    arrows: tuple[str, ...]

    @classmethod
    def of(cls, arrows: Sequence[str]) -> "GeometricCycle":
        """The cycle of ``arrows``, rotated to start at its smallest arrow id."""
        if not arrows:
            raise ValueError("a cycle needs at least one arrow")
        k = min(range(len(arrows)), key=arrows.__getitem__)
        return cls(tuple(arrows[k:]) + tuple(arrows[:k]))

    def __len__(self):
        return len(self.arrows)

    def label(self) -> str:
        return "(" + " ".join(self.arrows) + ")"


def cycle_vertices(g: Digraph, cycle: GeometricCycle) -> tuple[str, ...]:
    """Sources of the cycle's arrows, in cycle order; validates the shape."""
    arrows = [g.arrow(aid) for aid in cycle.arrows]
    for a, b in zip(arrows, arrows[1:] + arrows[:1]):
        if a.target != b.source:
            raise ValueError(f"{cycle.label()} is not a cycle in {g.name}: "
                             f"{a.id} ends at {a.target}, {b.id} starts at {b.source}")
    sources = tuple(a.source for a in arrows)
    if len(set(sources)) != len(sources):
        raise ValueError(f"{cycle.label()} revisits a vertex; cycles must be simple")
    return sources


def _strong_components(vs: Sequence[str], succ: Mapping[str, list[str]]) -> Iterator[list[str]]:
    """Tarjan's strongly connected components of the digraph induced on vs."""
    inside, index, low, stack, on_stack, work = set(vs), {}, {}, [], set(), []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        on_stack.add(v)
        work.append((v, (w for w in succ[v] if w in inside)))

    for root in vs:
        if root not in index:
            visit(root)
        while work:
            v, todo = work[-1]
            for w in todo:
                if w not in index:
                    visit(w)
                    break
                if w in on_stack:
                    low[v] = min(low[v], index[w])
            else:
                work.pop()
                if work:
                    low[work[-1][0]] = min(low[work[-1][0]], low[v])
                if low[v] == index[v]:
                    comp = [stack.pop()]
                    while comp[-1] != v:
                        comp.append(stack.pop())
                    on_stack.difference_update(comp)
                    yield comp


def _quotient_out_degree(arrows: Iterable[ArrowClass], h, primed) -> int | float:
    """The out-degree in Γ/(H, S) of the vertex ``arrows`` leave: a class into H
    leaves no copy, ω or not, and one into ``primed`` = B_H∖S leaves two."""
    return sum(a.multiplicity * (1 + (a.target in primed)) for a in arrows if a.target not in h)


def no_exit_cycles(g: Digraph, h=frozenset(), primed=frozenset(),
                   limit: int | None = None) -> list[GeometricCycle]:
    """Cycles of Γ/(H, S) (by default, of g) with no exit there, for an
    admissible (H, S) with ``primed`` = B_H∖S, sorted as in
    :func:`~leavitt.cycles.enumerate_cycles`.  Other classes leaving one end
    in H, so it is a single-cycle component with out-degree 1 in Γ/(H, S)."""
    cycles = [cycle for vs, cycle in g.components if cycle is not None
              and all(_quotient_out_degree(g._out[v], h, primed) == 1 for v in vs)]
    if limit is not None and len(cycles) > limit:
        raise ResourceLimitError(f"digraph {g.name} has more than {limit} cycles")
    return sorted(cycles, key=lambda c: (len(c.arrows), c.arrows))


# -- hereditary and saturated sets ---------------------------------------------

def hereditary_saturated_closure(g: Digraph, xs: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary and saturated vertex set containing xs, in O(V + E)
    mask operations."""
    bits = g.bits
    return bits.members(bits.close(0, bits.mask(set(xs))))


# The reference predicates, read off every arrow; ideals.admissibility reads those at H.
def is_hereditary(g: Digraph, hs: frozenset[str] | set[str]) -> bool:
    return all(a.target in hs for a in g.arrows if a.source in hs)


def is_saturated(g: Digraph, hs: frozenset[str] | set[str]) -> bool:
    return not any(0 < g.out_degree(v) < OMEGA and all(a.target in hs for a in g._out[v])
                   for v in g.vertices if v not in hs)


def enumerate_hereditary_saturated(g: Digraph, limit: int = 10_000, *,
                                   masks: bool = False) -> list[frozenset[str]] | list[int]:
    """All hereditary saturated subsets, sorted by (size, members): as
    ``frozenset``s of ids, or with ``masks`` as their masks on :attr:`Digraph.bits`.

    Branch and close from (H, excluded) = (∅, ∅): at the lowest bit v in
    neither, "v out" excludes v with all its ancestors (a hereditary set
    holding one holds v) and is always feasible, "v in" closes H ∪ {v}
    unless that reaches an excluded vertex.  Each leaf is a distinct closed
    set, so the work is at most |V| closures per set found.  Within one size,
    descending masks list their ids in ascending order, so the sets are
    bucketed by size and each bucket sorted descending.
    """
    bits = g.bits
    everything, ancestors = bits.everything, bits.ancestors
    by_size: list[list[int]] = [[] for _ in range(len(ancestors) + 1)]
    found = 0
    stack = [(0, 0)]
    while stack:
        hs, excluded = stack.pop()
        free = everything & ~(hs | excluded)
        if not free:
            by_size[hs.bit_count()].append(hs)
            found += 1
            if found > limit:
                raise ResourceLimitError(
                    f"digraph {g.name} has more than {limit} hereditary saturated sets")
            continue
        v = free & -free
        stack.append((hs, excluded | ancestors[v.bit_length() - 1]))
        grown = bits.close(hs, v, excluded)
        if grown is not None:
            stack.append((grown, excluded))
    out: list[int] = []
    for bucket in by_size:
        bucket.sort(reverse=True)
        out += bucket
    if masks:
        return out
    members = bits.members
    return [members(m) for m in out]


def breaking_vertices(g: Digraph, hs: Iterable[str]) -> frozenset[str]:
    """Infinite emitters with finitely many, but at least one, arrows into V∖H."""
    from .ideals import admissibility  # reads the arrows at H
    hs = frozenset(hs)
    g.check_vertices(hs)
    hereditary, _, breaking = admissibility(g, hs)
    if not hereditary:
        raise NotHereditaryError(f"{sorted(hs)} is not hereditary in {g.name}")
    return breaking


# -- DOT export ------------------------------------------------------------------

def to_dot(g: Digraph) -> str:
    """Deterministic DOT rendering; declaration order, ω labelled as such."""
    lines = [f'digraph "{g.name}" {{']
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for a in g.arrows:
        k = a.multiplicity
        label = a.id + (" (ω)" if is_omega(k) else "" if k == 1 else f" (x{k})")
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

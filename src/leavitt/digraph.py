"""Finite digraph model and the structural analyses everything else consumes.

A digraph is a finite vertex set plus *arrow classes*: an arrow class has a
source, a target and a multiplicity, which is a positive integer or ω
(:data:`OMEGA`).  A class of multiplicity k stands for k parallel arrows
wherever counts matter; an ω class makes its source an infinite emitter.

Cycles are *geometric*: an arrow-id sequence up to rotation, stored in the
canonical rotation whose first arrow id is lexicographically smallest.
Cycle enumeration runs over vertex-simple cycles (sources pairwise
distinct) and expands parallel classes afterwards.  The vertex cycles come
from Johnson's circuit search (1975) inside each strongly connected
component found by Tarjan's algorithm (1972), both iterative and lazy.
The cycles without exits need no enumeration: every vertex on one emits
exactly one arrow, so they are vertex-disjoint and one walk along the map
"vertex -> its only arrow" finds them all in linear time.  That walk,
:func:`out_one_walk`, also records where each vertex's run stops (a line point's
at a sink); line points, simple projectives and no-exit cycles all read it.

Vertex sets inside the structural analyses are int masks over a
:class:`~leavitt.bitindex.BitIndex`, which a digraph builds on first use and
keeps (:attr:`Digraph.bits`): one bit per vertex, and per vertex the masks of
its successors, its predecessors and the targets of its ω classes.  The
hereditary saturated closure, the enumeration of closed sets and the
breaking vertices B_H are then word operations on those masks; the public
functions take and return ``frozenset``s of ids, or the masks themselves
where they say so.  ``bitindex`` loads on the first use of the index, so a
command that never needs it does not compile it.

All values are immutable after construction and every analysis is a pure
function, so everything here is safe to share across threads.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, Iterable, Iterator, Mapping, Sequence

from .errors import (
    MalformedMorphismError,
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
    """Immutable finite digraph with ordered vertices and arrow classes."""

    def __init__(self, name: str, vertices: Iterable[str],
                 arrows: Iterable[ArrowClass | tuple]):
        self.name = name
        self.vertices: tuple[str, ...] = tuple(vertices)
        self.arrows: tuple[ArrowClass, ...] = tuple(
            a if isinstance(a, ArrowClass) else ArrowClass(*a) for a in arrows)
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError(f"digraph {name}: duplicate vertex id")
        vs = set(self.vertices)
        self._by_id: dict[str, ArrowClass] = {}
        self._out: dict[str, list[ArrowClass]] = {v: [] for v in self.vertices}
        self._in: dict[str, list[ArrowClass]] = {v: [] for v in self.vertices}
        for a in self.arrows:
            if a.id in self._by_id:
                raise ValueError(f"digraph {name}: duplicate arrow id {a.id}")
            if a.source not in vs:
                raise ValueError(f"digraph {name}: arrow {a.id} has undeclared source {a.source}")
            if a.target not in vs:
                raise ValueError(f"digraph {name}: arrow {a.id} has undeclared target {a.target}")
            self._by_id[a.id] = a
            self._out[a.source].append(a)
            self._in[a.target].append(a)

    @functools.cached_property
    def bits(self) -> BitIndex:
        """The vertex bit index, built on first use and kept (g is immutable)."""
        from .bitindex import BitIndex
        return BitIndex(self)

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
        return Digraph(
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


def out_one_walk(g: Digraph, only_arrow: Mapping[str, ArrowClass] | None = None
                 ) -> tuple[dict[str, str | None], list[list[str]]]:
    """One walk along the map "vertex -> target of its only arrow".

    ``only_arrow`` maps each vertex that emits exactly one arrow to that arrow
    (by default, in g).  Returns, per vertex of g, where its run stops: the
    first vertex off the map (itself when it is off the map), or None when the
    run ends on a cycle of the map; and those cycles, as lists of arrow ids.
    Each vertex is stepped from once, so the walk is linear and iterative.
    """
    if only_arrow is None:
        only_arrow = {v: out[0] for v, out in g._out.items()
                      if len(out) == 1 and out[0].multiplicity == 1}
    stop: dict[str, str | None] = {}
    cycles: list[list[str]] = []
    for v in g.vertices:
        run: dict[str, str] = {}  # this run's vertices and their arrows' ids, in order
        while v in only_arrow and v not in stop and v not in run:
            run[v] = only_arrow[v].id
            v = only_arrow[v].target
        if v in run:  # the run closed up on itself
            cycles.append(list(run.values())[list(run).index(v):])
            end = None
        else:
            end = stop.setdefault(v, v)
        stop.update(dict.fromkeys(run, end))
    return stop, cycles


def classify_vertices(g: Digraph) -> dict[str, VertexInfo]:
    """Each vertex's kind; v is a line point when its run along the only
    arrows stops at a sink (:func:`out_one_walk`)."""
    stop, _ = out_one_walk(g)
    out = {}
    for v, arrows in g._out.items():
        deg = sum(a.multiplicity for a in arrows)
        out[v] = VertexInfo(
            sink=deg == 0,
            source=not g._in[v],
            branch_vertex=deg >= 2,
            infinite_emitter=is_omega(deg),
            regular=0 < deg < OMEGA,
            line_point=stop[v] is not None and not g._out[stop[v]],
        )
    return out


# -- geometric cycles ---------------------------------------------------------

@record
class GeometricCycle:
    """Arrow ids of a simple cycle, canonically rotated."""

    arrows: tuple[str, ...]

    @staticmethod
    def canonical_rotation(arrows: Sequence[str]) -> tuple[str, ...]:
        k = min(range(len(arrows)), key=lambda i: arrows[i])
        return tuple(arrows[k:]) + tuple(arrows[:k])

    @classmethod
    def of(cls, arrows: Sequence[str]) -> "GeometricCycle":
        if not arrows:
            raise ValueError("a cycle needs at least one arrow")
        return cls(cls.canonical_rotation(list(arrows)))

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


def base_vertex(g: Digraph, cycle: GeometricCycle) -> str:
    return g.arrow(cycle.arrows[0]).source


@record
class CycleInfo:
    cycle: GeometricCycle
    has_exit: bool
    exclusive: bool
    multiplicity_one: bool


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


def _circuits(start: str, comp: set[str], succ: Mapping[str, list[str]]) -> Iterator[list[str]]:
    """Johnson's search for the simple cycles through start inside its component."""
    path, blocked, closed, waiting = [start], {start}, set(), {}
    work = [(start, [w for w in succ[start] if w in comp])]
    while work:
        v, todo = work[-1]
        if todo:
            w = todo.pop()
            if w == start:
                yield list(path)
                closed.update(path)
            elif w not in blocked:
                path.append(w)
                blocked.add(w)
                closed.discard(w)
                work.append((w, [x for x in succ[w] if x in comp]))
            continue
        if v in closed:  # a cycle went through v: unblock v and whatever waits on it
            release = [v]
            while release:
                u = release.pop()
                if u in blocked:
                    blocked.remove(u)
                    release.extend(waiting.pop(u, ()))
        else:
            for w in succ[v]:
                if w in comp:
                    waiting.setdefault(w, set()).add(v)
        work.pop()
        path.pop()


def _vertex_cycles(g: Digraph) -> Iterator[list[str]]:
    """Vertex sequences of simple cycles of length >= 2 (parallel classes merged)."""
    succ = {v: list(dict.fromkeys(a.target for a in g._out[v] if a.target != v))
            for v in g.vertices}
    pending = [c for c in _strong_components(g.vertices, succ) if len(c) > 1]
    while pending:
        comp = pending.pop()
        start = comp.pop()
        yield from _circuits(start, set(comp) | {start}, succ)
        pending += [c for c in _strong_components(comp, succ) if len(c) > 1]


def no_exit_cycles(g: Digraph, only_arrow: Mapping[str, ArrowClass] | None = None,
                   limit: int | None = None) -> list[GeometricCycle]:
    """Cycles along which every vertex emits only the cycle's arrow, in the
    order of :func:`enumerate_cycles`: the cycles of :func:`out_one_walk`,
    over ``only_arrow`` (by default, g's vertices of out-degree one)."""
    _, cycles = out_one_walk(g, only_arrow)
    if limit is not None and len(cycles) > limit:
        raise ResourceLimitError(f"digraph {g.name} has more than {limit} cycles")
    return sorted(map(GeometricCycle.of, cycles), key=lambda c: (len(c.arrows), c.arrows))


def enumerate_cycles(g: Digraph, limit: int = 10_000) -> list[CycleInfo]:
    """All geometric cycles with exit/exclusive flags, sorted deterministically."""
    if limit < 1:
        raise ValueError("limit must be positive")
    found: set[GeometricCycle] = set()

    def add(arrows):
        found.add(GeometricCycle.of(arrows))
        if len(found) > limit:
            raise ResourceLimitError(f"digraph {g.name} has more than {limit} cycles")

    for a in g.arrows:
        if a.source == a.target:
            add([a.id])
    classes_between: dict[tuple[str, str], list[str]] = {}
    for a in g.arrows:
        classes_between.setdefault((a.source, a.target), []).append(a.id)
    for vs in _vertex_cycles(g):
        hops = [(vs[i], vs[(i + 1) % len(vs)]) for i in range(len(vs))]
        choices = [classes_between[h] for h in hops]
        stack = [[]]
        while stack:
            prefix = stack.pop()
            if len(prefix) == len(hops):
                add(prefix)
                continue
            for aid in reversed(choices[len(prefix)]):
                stack.append(prefix + [aid])

    cycles = sorted(found, key=lambda c: (len(c.arrows), c.arrows))
    vertex_sets = {c: frozenset(cycle_vertices(g, c)) for c in cycles}
    hits: dict[str, int] = {}
    for c in cycles:
        for v in vertex_sets[c]:
            hits[v] = hits.get(v, 0) + 1
    no_exit = set(no_exit_cycles(g))
    return [CycleInfo(
        cycle=c,
        has_exit=c not in no_exit,
        exclusive=all(hits[v] == 1 for v in vertex_sets[c]),
        multiplicity_one=all(g.arrow(aid).multiplicity == 1 for aid in c.arrows),
    ) for c in cycles]


def find_any_cycle(g: Digraph) -> GeometricCycle | None:
    """Deterministic DFS for a single cycle, cheap for acyclicity checks."""
    color = {v: 0 for v in g.vertices}
    parent_arrow: dict[str, ArrowClass] = {}
    for root in g.vertices:
        if color[root]:
            continue
        stack = [(root, iter(sorted(g._out[root], key=lambda a: a.id)))]
        color[root] = 1
        while stack:
            v, it = stack[-1]
            for a in it:
                w = a.target
                if color[w] == 1:  # a back arrow, or a loop at v
                    arrows = [a.id]
                    cur = v
                    while cur != w:
                        pa = parent_arrow[cur]
                        arrows.append(pa.id)
                        cur = pa.source
                    return GeometricCycle.of(list(reversed(arrows)))
                if color[w] == 0:
                    color[w] = 1
                    parent_arrow[w] = a
                    stack.append((w, iter(sorted(g._out[w], key=lambda x: x.id))))
                    break
            else:
                color[v] = 2
                stack.pop()
    return None


# -- hereditary and saturated sets ---------------------------------------------

def hereditary_saturated_closure(g: Digraph, xs: Iterable[str]) -> frozenset[str]:
    """Smallest hereditary and saturated vertex set containing xs, in O(V + E)
    mask operations."""
    bits = g.bits
    return bits.members(bits.close(0, bits.mask(set(xs))))


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
    hs = set(hs)
    g.check_vertices(hs)
    if not is_hereditary(g, hs):
        raise NotHereditaryError(f"{sorted(hs)} is not hereditary in {g.name}")
    bits = g.bits
    return bits.members(bits.breaking(bits.mask(hs)))


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


# -- digraph morphisms ----------------------------------------------------------

@record
class DigraphMorphism:
    name: str
    source: Digraph
    target: Digraph
    vertex_map: Mapping[str, str]
    arrow_map: Mapping[str, str]


@record
class MorphismReport:
    valid: bool
    violations: tuple[str, ...]


def check_admissible_morphism(m: DigraphMorphism) -> MorphismReport:
    """Admissibility of a digraph morphism: finite fibers, target bijections on
    arrow fibers, and sinks landing on sinks or infinite emitters."""
    src, dst = m.source, m.target
    for g, kind in ((src, "source"), (dst, "target")):
        for a in g.arrows:
            if a.multiplicity != 1:
                raise MalformedMorphismError(
                    f"{kind} digraph {g.name} has a class of multiplicity != 1 ({a.id})")
    if set(m.vertex_map) != set(src.vertices):
        raise MalformedMorphismError(f"morphism {m.name}: vertex map is not total")
    if set(m.arrow_map) != {a.id for a in src.arrows}:
        raise MalformedMorphismError(f"morphism {m.name}: arrow map is not total")
    for v, w in m.vertex_map.items():
        if not dst.has_vertex(w):
            raise MalformedMorphismError(f"morphism {m.name}: image vertex {w!r} unknown")
    for e, f_ in m.arrow_map.items():
        if not dst.has_arrow(f_):
            raise MalformedMorphismError(f"morphism {m.name}: image arrow {f_!r} unknown")
        a, b = src.arrow(e), dst.arrow(f_)
        if m.vertex_map[a.source] != b.source or m.vertex_map[a.target] != b.target:
            raise MalformedMorphismError(
                f"morphism {m.name}: arrow {e} does not commute with source/target")

    violations = []
    dst_info = classify_vertices(dst)
    vertex_fiber: dict[str, list[str]] = {w: [] for w in dst.vertices}  # each sorted
    for v in sorted(m.vertex_map):
        vertex_fiber[m.vertex_map[v]].append(v)
    targets_of: dict[str, list[str]] = {b.id: [] for b in dst.arrows}  # over each arrow fiber
    for e, f_ in m.arrow_map.items():
        targets_of[f_].append(src.arrow(e).target)
    for b in dst.arrows:  # a fiber's targets are distinct once they equal a vertex fiber
        if sorted(targets_of[b.id]) != vertex_fiber[b.target]:
            violations.append(
                f"arrow {b.id}: target map on its fiber is not a bijection")
    for v in src.vertices:
        if src._out[v]:
            continue
        w = m.vertex_map[v]
        if not (dst_info[w].sink or dst_info[w].infinite_emitter):
            violations.append(f"sink {v}: image {w} is neither a sink nor an infinite emitter")
    return MorphismReport(valid=not violations, violations=tuple(violations))


# -- DOT export ------------------------------------------------------------------

def to_dot(g: Digraph) -> str:
    """Deterministic DOT rendering; declaration order, ω labelled as such."""
    lines = [f'digraph "{g.name}" {{']
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for a in g.arrows:
        if is_omega(a.multiplicity):
            label = f"{a.id} (ω)"
        elif a.multiplicity != 1:
            label = f"{a.id} (x{a.multiplicity})"
        else:
            label = a.id
        lines.append(f'  "{a.source}" -> "{a.target}" [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"

"""The enumeration of every geometric cycle of a digraph.

Cycle enumeration runs over vertex-simple cycles (sources pairwise
distinct) and expands parallel classes afterwards.  The vertex cycles come
from Johnson's circuit search (1975), iterative and lazy, inside each
nontrivial strongly connected component of
:attr:`~leavitt.digraph.Digraph.components`; a cycle is exclusive when it is
its component's single cycle.  :func:`find_any_cycle` is a single
depth-first search for one cycle.  Only ``analyze`` loads this module to
answer; ``dim`` and End(P) in ``projectives`` load it only when they fail,
to name a cycle that makes the answer infinite.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .digraph import (
    ArrowClass,
    Digraph,
    GeometricCycle,
    _strong_components,
    no_exit_cycles,
)
from .errors import ResourceLimitError
from .records import record


@record
class CycleInfo:
    cycle: GeometricCycle
    has_exit: bool
    exclusive: bool
    multiplicity_one: bool


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
    pending = [list(vs) for vs, _ in g.components if len(vs) > 1]
    while pending:
        comp = pending.pop()
        start = comp.pop()
        yield from _circuits(start, set(comp) | {start}, succ)
        pending += [c for c in _strong_components(comp, succ) if len(c) > 1]


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
    single = {cycle for _, cycle in g.components}
    no_exit = set(no_exit_cycles(g))
    return [CycleInfo(
        cycle=c,
        has_exit=c not in no_exit,
        exclusive=c in single,
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

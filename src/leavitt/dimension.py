"""Dimensions of finite-dimensional quotients, from path counts.

When the graded quotient is row-finite and has no cycle outside β, the
quotient is a direct sum of matrix algebras (:class:`MatrixDecomposition`),
one M_n(v) per sink and deg θ(C) copies of M_|P_C| per C ∈ β, where the
sizes count paths; otherwise :func:`dimension_blocks` raises.  Whether it is
finite is read off the strongly connected components
(:attr:`~leavitt.digraph.Digraph.components`), which the digraph builds once:
every component holding an arrow class must be a single β cycle.  The
counts come from one iterative depth-first pass against the arrows with one
memo per call, so :func:`dimension_blocks` counts the paths into all sinks
in linear time.  End(P) in ``projectives`` reads the same counts.
:func:`dimension_blocks` imports the search for one cycle only to name one in
a component with several, and the ideal presentations and the graded
quotient only when given an ideal.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable

from .digraph import Digraph, cycle_vertices
from .errors import UnsupportedShapeError
from .records import record

if TYPE_CHECKING:
    from .presentations import IdealPresentation


def _paths_ending_at(g: Digraph, roots: Iterable[str], starts: Counter,
                     skip_arrows: frozenset[str] = frozenset()) -> dict[str, int]:
    """Count of paths ending at each vertex the roots are reached from against
    the arrows, each path counted ``starts[its source]`` times (multiplicities
    expanded, ``skip_arrows`` left out): one iterative depth-first pass, one memo.

    Precondition: what the roots are reached from, without ``skip_arrows``, is
    acyclic and row-finite.  Both callers check that first (:func:`dimension_blocks`
    rejects ω classes and stray cycles, ``end`` peels the reach from its sinks),
    so no ω class or cycle is looked for here.
    """
    memo: dict[str, int] = {}
    for root in roots:
        # the vertices on the current path, last on top, each with its in-arrows
        # still to read, its count so far and the multiplicity it was entered by
        path = {} if root in memo else {root: [iter(g._in[root]), starts[root], 1]}
        while path:
            frame = path[next(reversed(path))]
            for a in frame[0]:
                if a.id in skip_arrows:
                    continue
                u = a.source
                if u not in memo:
                    path[u] = [iter(g._in[u]), starts[u], a.multiplicity]
                    break
                frame[1] += a.multiplicity * memo[u]
            else:
                v, (_, total, multiplicity) = path.popitem()
                memo[v] = total
                if path:
                    path[next(reversed(path))][1] += multiplicity * total
    return memo


@record
class MatrixDecomposition:
    """Sorted (block size, copies) pairs of a direct sum of matrix algebras."""

    blocks: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, sizes: Iterable[int]) -> "MatrixDecomposition":
        return cls(tuple(sorted(Counter(sizes).items())))

    @property
    def total_dimension(self) -> int:
        return sum(copies * size * size for size, copies in self.blocks)

    def describe(self) -> str:
        return " ⊕ ".join(f"{copies} × M_{size}" for size, copies in self.blocks) or "0"


def dimension_blocks(g: Digraph, j: IdealPresentation | None = None) -> MatrixDecomposition:
    """Matrix blocks of the quotient: M_n(v) per sink, deg θ(C) × M_|P_C| per C ∈ β.

    So dim = Σ_sinks n(v)² + Σ_{C∈β} deg θ(C)·|P_C|², over the graded
    quotient when an ideal is given, over g itself (which must then be
    acyclic) otherwise.  A component holding an arrow class that is not a β
    cycle is named by one of its cycles: the component's only one, or the
    first one a depth-first search meets.
    """
    if j is not None:
        from .presentations import validated_ideal
        from .quotients import graded_quotient

        validated_ideal(g, j)  # g then admits (H, S), so the quotient checks nothing again
        work = graded_quotient(g, j.pair).digraph
        beta = j.beta
    else:
        work = g
        beta = ()
    if not work.is_row_finite:
        raise UnsupportedShapeError(f"{work.name} has an ω class; dimension is infinite")
    stray, in_beta = [], set(beta)
    for vs, cycle in work.components:
        if cycle is None and (len(vs) > 1 or any(a.target == vs[0] for a in work._out[vs[0]])):
            from .cycles import find_any_cycle  # several cycles: name the first one met
            cycle = find_any_cycle(work.full_subgraph(vs))
        if cycle is not None and cycle not in in_beta:
            stray.append(cycle.label())
    if stray:
        raise UnsupportedShapeError(
            f"unsevered cycle(s) {', '.join(sorted(stray))} in {work.name}")
    # β cycles have no exit, so no path into a sink or into another cycle uses
    # a β arrow: one pass without them counts every n(v) and |P_C| at once
    sinks, on_cycles = work.sinks(), [cycle_vertices(work, c) for c in beta]
    counts = _paths_ending_at(work, [*sinks, *(w for vs in on_cycles for w in vs)],
                              Counter(work.vertices), frozenset(a for c in beta for a in c.arrows))
    sizes = [counts[v] for v in sinks]
    for c, vs in zip(beta, on_cycles):
        sizes += [sum(counts[w] for w in vs)] * j.theta[c].degree
    return MatrixDecomposition.of(sizes)


def quotient_dimension(g: Digraph, j: IdealPresentation | None = None) -> int:
    """Total dimension of the quotient; see :func:`dimension_blocks`."""
    return dimension_blocks(g, j).total_dimension

"""The vertices of a digraph as the bits of an int, and its adjacency as masks.

:attr:`leavitt.digraph.Digraph.bits` builds a :class:`BitIndex` on first use.
The hereditary saturated closure (:meth:`BitIndex.close`) and the breaking vertices
B_H (:meth:`BitIndex.breaking`) are then word operations on int masks;
:meth:`BitIndex.ids` and :meth:`BitIndex.members` read a mask's ids back.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Collection, Iterator

from .digraph import is_omega
from .errors import UnknownVertexError

if TYPE_CHECKING:
    from .digraph import Digraph


def _positions(m: int) -> Iterator[int]:
    """The positions of the set bits of m, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


class BitIndex:
    """The vertices of a digraph as the bits of an int, and its adjacency as masks.

    Bits follow sorted vertex ids from the top: the first id holds bit |V|−1,
    the last bit 0.  So among sets of one size, descending masks are ascending
    lists of sorted ids.  ``succ``, ``pred`` and ``omega_succ`` are lists by
    bit position; ``regular`` masks the vertices with 0 < out-degree < ∞ and
    ``infinite`` those with an ω class.  :meth:`ids` reads a mask byte by
    byte, the high byte first, in one table per byte position, built on first
    use, of the sorted ids of each of its 256 values.
    """

    __slots__ = ("graph", "ascending", "bit", "everything", "succ", "pred", "omega_succ",
                 "regular", "infinite", "_tables", "_ancestors")

    def __init__(self, g: Digraph):
        self.graph = g
        self.ascending: list[str] = sorted(g.vertices)
        by_bit = self.ascending[::-1]  # by_bit[i] holds bit i
        self.bit: dict[str, int] = {v: 1 << i for i, v in enumerate(by_bit)}
        self.everything = (1 << len(by_bit)) - 1
        self._tables: list[list[tuple[str, ...]] | None] = [None] * ((len(by_bit) + 7) // 8)
        bit = self.bit
        self.succ: list[int] = []
        self.pred: list[int] = []
        self.omega_succ: list[int] = []
        self.regular = self.infinite = 0
        self._ancestors: list[int] | None = None
        for v in by_bit:
            succ = omega = pred = 0
            for a in g._out[v]:
                succ |= bit[a.target]
                if is_omega(a.multiplicity):
                    omega |= bit[a.target]
            for a in g._in[v]:
                pred |= bit[a.source]
            self.succ.append(succ)
            self.omega_succ.append(omega)
            self.pred.append(pred)
            if omega:
                self.infinite |= bit[v]
            elif succ:
                self.regular |= bit[v]

    def mask(self, vs: Collection[str]) -> int:
        """The mask of the ids vs; raises UnknownVertexError naming the
        smallest one that is not a vertex."""
        bit, m = self.bit, 0
        try:
            for v in vs:
                m |= bit[v]
        except KeyError:
            unknown = min(v for v in vs if v not in bit)
            raise UnknownVertexError(
                f"unknown vertex {unknown!r} in digraph {self.graph.name}") from None
        return m

    def ids(self, m: int) -> list[str]:
        """The ids of m in sorted order: one table lookup per nonzero byte."""
        out: list[str] = []
        tables = self._tables
        for k, byte in enumerate(m.to_bytes(len(tables), "big")):
            if byte:
                out += (tables[k] or self._table(k))[byte]
        return out

    def _table(self, k: int) -> list[tuple[str, ...]]:
        """The sorted ids of each value of the k-th byte from the top."""
        n = len(self.ascending)
        low = 8 * (len(self._tables) - 1 - k)  # the bit position of the byte's low bit
        table: list[tuple[str, ...]] = [()]
        for i in range(low, min(low + 8, n)):
            # bit i holds a smaller id than the bits below it
            v = self.ascending[n - 1 - i]
            table += [(v, *rest) for rest in table]
        self._tables[k] = table
        return table

    def members(self, m: int) -> frozenset[str]:
        return frozenset(self.ids(m))

    @property
    def ancestors(self) -> list[int]:
        """By bit position, the vertices with a path to that vertex, itself
        included; built on first use by folding the digraph's strongly
        connected components (:attr:`~leavitt.digraph.Digraph.components`)
        from the sources, O(V + E) mask operations."""
        if self._ancestors is None:
            ancestors, pred = [0] * len(self.pred), self.pred
            # listed sinks first, so a component's predecessors outside it come later
            for vs, _ in reversed(self.graph.components):
                comp = reach = self.mask(vs)
                for i in _positions(comp):
                    for j in _positions(pred[i]):
                        reach |= ancestors[j]
                for i in _positions(comp):
                    ancestors[i] = reach
            self._ancestors = ancestors
        return self._ancestors

    def close(self, h: int, seeds: int, excluded: int = 0) -> int | None:
        """The least hereditary saturated set holding the closed set h and
        seeds, or None once it takes in an ``excluded`` vertex.  A Horn
        closure (Dowling & Gallier 1984): each new member brings in its
        successors, and only the regular predecessors u of new members are
        tested again, joining when succ[u] & ~H == 0."""
        succ, pred = self.succ, self.pred
        new = seeds & ~h
        while new:
            if new & excluded:
                return None
            h |= new
            reached = waiting = 0
            while new:
                low = new & -new
                i = low.bit_length() - 1
                reached |= succ[i]
                waiting |= pred[i]
                new ^= low
            new = reached & ~h
            outside = ~(h | new)
            waiting &= self.regular & outside
            while waiting:
                low = waiting & -waiting
                if not succ[low.bit_length() - 1] & outside:
                    new |= low
                waiting ^= low
        return h

    def breaking(self, h: int) -> int:
        """B_H of a hereditary h: the infinite emitters u ∉ H whose ω classes
        all end in H while some class does not (omega_succ[u] ⊆ H ⊉ succ[u])."""
        succ, omega_succ, outside, out = self.succ, self.omega_succ, ~h, 0
        for i in _positions(self.infinite & outside):
            if succ[i] & outside and not omega_succ[i] & outside:
                out |= 1 << i
        return out

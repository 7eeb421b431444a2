"""Graded ideals: admissible pairs (H, S), their order and quotient out-degrees.

Presentations (H, S, β, θ) live in :mod:`leavitt.presentations`, and the
pairs' enumeration, lattice and strata census in :mod:`leavitt.lattice`.
"""

from __future__ import annotations

from typing import Iterable

from .digraph import ArrowClass, Digraph, GeometricCycle, OMEGA, is_omega, no_exit_cycles
from .errors import NotAdmissibleError, UnknownVertexError
from .records import record


def __getattr__(name):
    # bench/ reads these names here, where they once were; forwarding them
    # keeps fields and lattice out of the commands that never use them
    if name == "is_dlf":
        from .fields import is_dlf
        return is_dlf
    if name in ("pair_lattice", "enumerate_strata"):
        from . import lattice
        return getattr(lattice, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@record
class AdmissiblePair:
    """A hereditary saturated vertex set H plus chosen breaking vertices S ⊆ B_H."""

    h: frozenset[str]
    s: frozenset[str] = frozenset()

    @classmethod
    def of(cls, h: Iterable[str], s: Iterable[str] = ()) -> "AdmissiblePair":
        return cls(frozenset(h), frozenset(s))

    def sort_key(self):
        return (sorted(self.h), sorted(self.s))

    def label(self) -> str:
        return "({%s}, {%s})" % (",".join(sorted(self.h)), ",".join(sorted(self.s)))


def ensure_admissible(g: Digraph, pair: AdmissiblePair) -> frozenset[str]:
    """B_H∖S, the vertices that get a primed sink; raises unless (H, S) is admissible.

    One pass on ``g.bits``: the ids of H and S, then H hereditary (no member
    of H has an arrow leaving H) and saturated (every regular vertex outside
    H has one), then S ⊆ B_H."""
    bits = g.bits
    try:
        h, s = bits.mask(pair.h), bits.mask(pair.s)
    except UnknownVertexError:
        g.check_vertices(pair.h | pair.s)  # names the smallest unknown id of H ∪ S
        raise
    leaving = bits.leaving(h)
    if not leaving & h and not bits.regular & ~h & ~leaving:
        bb = bits.breaking(h)
        if not s & ~bb:
            return bits.members(bb & ~s)
    raise NotAdmissibleError(f"{pair.label()} is not admissible in {g.name}")


def pair_order(g: Digraph, a: AdmissiblePair, b: AdmissiblePair) -> bool:
    """a ≼ b, mirroring inclusion of the corresponding graded ideals."""
    ensure_admissible(g, a)
    ensure_admissible(g, b)
    return a.h <= b.h and (a.h | a.s) <= (b.h | b.s)


def quotient_out_degree(g: Digraph, h: frozenset[str], primed: frozenset[str],
                        v: str) -> int | float:
    """Out-degree of a surviving vertex in Γ/(H, S) without building the quotient.

    Classes with target outside H survive; classes with target in
    ``primed`` = B_H∖S are duplicated toward the primed sink.
    """
    return _quotient_out_degree(g.out_arrows(v), h, primed)


def _quotient_out_degree(arrows: Iterable[ArrowClass], h: frozenset[str],
                         primed: frozenset[str]) -> int | float:
    """:func:`quotient_out_degree` of the vertex that ``arrows`` leave."""
    total = 0
    for a in arrows:
        copies = (a.target not in h) + (a.target in primed)
        if copies and is_omega(a.multiplicity):
            return OMEGA
        total += copies * a.multiplicity
    return total


def no_exit_quotient_cycles(g: Digraph, pair: AdmissiblePair,
                            limit: int = 10_000) -> list[GeometricCycle]:
    """Cycles of Γ/(H, S) with no exit there, as cycles of g (arrow ids survive)."""
    return _no_exit_quotient_cycles(g, pair, ensure_admissible(g, pair), limit)


def _no_exit_quotient_cycles(g: Digraph, pair: AdmissiblePair, primed: frozenset[str],
                             limit: int) -> list[GeometricCycle]:
    """:func:`no_exit_quotient_cycles` of a pair known to be admissible, with
    ``primed`` = B_H∖S.  The ids come from ``g.vertices``, so each adjacency
    list is read as it is, with no vertex check or copy."""
    out = g._out
    return no_exit_cycles(g, {
        v: next(a for a in out[v] if a.target not in pair.h)
        for v in g.vertices
        if v not in pair.h and _quotient_out_degree(out[v], pair.h, primed) == 1}, limit=limit)

"""Graded ideals: admissible pairs (H, S), their order and the cycles without exit.

The cycles without exit of Γ/(H, S) are single-cycle components of g, which
:func:`~leavitt.digraph.no_exit_cycles` reads off once the pair is checked.
Presentations (H, S, β, θ) live in :mod:`leavitt.presentations`, and the
pairs' enumeration, lattice and strata census in :mod:`leavitt.lattice`.
"""

from __future__ import annotations

from typing import Iterable

from .digraph import Digraph, GeometricCycle, no_exit_cycles
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


def no_exit_quotient_cycles(g: Digraph, pair: AdmissiblePair,
                            limit: int = 10_000) -> list[GeometricCycle]:
    """:func:`~leavitt.digraph.no_exit_cycles` of Γ/(H, S), once (H, S) is checked."""
    return no_exit_cycles(g, pair.h, ensure_admissible(g, pair), limit)

"""Graded ideals: admissible pairs (H, S), their order and the cycles without exit.

A pair is checked once per digraph, which remembers it, by one walk over the
arrows at H (:func:`admissibility`).  The cycles without exit of Γ/(H, S) are
single-cycle components of g (:func:`~leavitt.digraph.no_exit_cycles`).
Presentations (H, S, β, θ) live in :mod:`leavitt.presentations`, and the
pairs' enumeration, lattice and strata census in :mod:`leavitt.lattice`.
"""

from __future__ import annotations

from importlib import import_module
from typing import Iterable

from .digraph import Digraph, GeometricCycle, is_omega, no_exit_cycles
from .errors import NotAdmissibleError
from .records import record


def __getattr__(name):
    # bench/ reads these names here, where they once were; forwarding them
    # keeps fields and lattice out of the commands that never use them
    home = {"is_dlf": "fields", "pair_lattice": "lattice", "enumerate_strata": "lattice"}
    if name not in home:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f".{home[name]}", __package__), name)


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


def admissibility(g: Digraph, hs: frozenset[str]) -> tuple[bool, bool, frozenset[str]]:
    """(H hereditary, H saturated, B_H), reading the out- and in-lists of H and the
    out-lists of the u ∉ H feeding it: H is not saturated when such a u without ω
    class has all its arrows in H; B_H holds those whose ω classes, not all arrows, end in H."""
    out = g._out
    hereditary = all(a.target in hs for v in hs for a in out[v])
    saturated, breaking = True, []
    for u in {a.source for v in hs for a in g._in[v]} - hs:
        arrows = out[u]
        escaping = [a for a in arrows if a.target not in hs]
        if not any(is_omega(a.multiplicity) for a in arrows):
            saturated = saturated and bool(escaping)
        elif escaping and not any(is_omega(a.multiplicity) for a in escaping):
            breaking.append(u)
    return hereditary, saturated, frozenset(breaking)


def ensure_admissible(g: Digraph, pair: AdmissiblePair) -> frozenset[str]:
    """B_H∖S, the vertices that get a primed sink, as g remembers it; a pair g
    has not admitted yet is checked: the ids of H and S, then :func:`admissibility`."""
    if pair not in g._admitted:
        g.check_vertices(pair.h | pair.s)  # names the smallest unknown id of H ∪ S
        hereditary, saturated, breaking = admissibility(g, pair.h)
        if not (hereditary and saturated and pair.s <= breaking):
            raise NotAdmissibleError(f"{pair.label()} is not admissible in {g.name}")
        g._admitted[pair] = breaking - pair.s
    return g._admitted[pair]


def pair_order(g: Digraph, a: AdmissiblePair, b: AdmissiblePair) -> bool:
    """a ≼ b, mirroring inclusion of the corresponding graded ideals."""
    ensure_admissible(g, a)
    ensure_admissible(g, b)
    return a.h <= b.h and (a.h | a.s) <= (b.h | b.s)


def no_exit_quotient_cycles(g: Digraph, pair: AdmissiblePair,
                            limit: int = 10_000) -> list[GeometricCycle]:
    """:func:`~leavitt.digraph.no_exit_cycles` of Γ/(H, S), once (H, S) is checked."""
    return no_exit_cycles(g, pair.h, ensure_admissible(g, pair), limit)

"""Ideal presentations (H, S, β, θ), admissible pairs, and strata.

An ideal of the path algebra of a digraph is presented by an admissible pair
(H, S), a collection β of cycles with no exit in the graded quotient, and a
polynomial θ(C) with constant term 1 for each C ∈ β.  β empty means the
ideal is graded.  Validation returns violations instead of raising so the
CLI can report them all; only dangling vertex/arrow ids raise.

Contract: public entry points validate a (digraph, ideal) pair exactly once,
through :func:`validated_ideal`, which raises InvalidIdealError and computes
B_H∖S once; workers take the resulting :class:`ValidatedIdeal` and use what
it caches instead of validating again.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from typing import TYPE_CHECKING, Iterable, Sequence

from .digraph import (
    ArrowClass,
    Digraph,
    GeometricCycle,
    OMEGA,
    cycle_vertices,
    enumerate_hereditary_saturated,
    is_omega,
    no_exit_cycles,
)
from .errors import (
    FieldMismatchError,
    InvalidIdealError,
    MeetJoinFailureError,
    NotAdmissibleError,
    ResourceLimitError,
    UnknownVertexError,
)
from .records import field as record_field, record

if TYPE_CHECKING:
    from .fields import Field, Polynomial


def __getattr__(name):
    # bench/selftest.py reads ideals.is_dlf, which this module once imported;
    # forwarding the one name keeps fields out of the lattice and strata imports
    if name == "is_dlf":
        from .fields import is_dlf
        return is_dlf
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


@record(frozen=False)
class IdealPresentation:
    """The quadruple (H, S, β, θ); treat instances as immutable."""

    field: Field
    pair: AdmissiblePair
    beta: tuple[GeometricCycle, ...] = ()
    theta: Mapping[GeometricCycle, Polynomial] = record_field(default_factory=dict)
    labels: Mapping[GeometricCycle, str] = record_field(default_factory=dict)
    name: str = "ideal"

    def __post_init__(self):
        self.beta = tuple(self.beta)
        self.theta = dict(self.theta)
        labels = dict(self.labels)
        for i, c in enumerate(self.beta, 1):
            labels.setdefault(c, f"C{i}")
        self.labels = labels

    def label_of(self, cycle: GeometricCycle) -> str:
        return self.labels.get(cycle, cycle.label())


@record
class IdealValidation:
    valid: bool
    violations: tuple[str, ...]
    primed: frozenset[str] = frozenset()  # B_H∖S, once H is hereditary and saturated


def validate_ideal(g: Digraph, j: IdealPresentation) -> IdealValidation:
    """Check the quadruple against its digraph; collects violations."""
    g.check_vertices(j.pair.h | j.pair.s)
    for c in j.beta:
        for aid in c.arrows:
            g.arrow(aid)

    violations: list[str] = []
    bits = g.bits
    h = bits.mask(j.pair.h)
    leaving = bits.leaving(h)
    if leaving & h:
        violations.append("H is not hereditary")
    if bits.regular & ~h & ~leaving:
        violations.append("H is not saturated")
    h_ok = not violations
    primed: frozenset[str] = frozenset()
    if h_ok:
        bb = bits.members(bits.breaking(h))
        for v in sorted(j.pair.s - bb):
            violations.append(f"S contains {v}, which is not a breaking vertex of H")
        primed = bb - j.pair.s

    seen = set()
    for c in j.beta:
        if c in seen:
            violations.append(f"cycle {j.label_of(c)} listed twice")
        seen.add(c)
        try:
            vs = cycle_vertices(g, c)
        except ValueError as exc:
            violations.append(str(exc))
            continue
        if any(v in j.pair.h for v in vs):
            violations.append(f"cycle {j.label_of(c)} does not survive in the quotient "
                              f"(a vertex lies in H)")
            continue
        if not h_ok:
            continue
        bad = [g.arrow(a).multiplicity != 1 for a in c.arrows]
        if any(bad):
            violations.append(f"cycle {j.label_of(c)} has a class of multiplicity != 1")
            continue
        if any(quotient_out_degree(g, j.pair.h, primed, v) != 1 for v in vs):
            violations.append(f"cycle {j.label_of(c)} has an exit in the quotient")

    for c in j.beta:
        f = j.theta.get(c)
        if f is None:
            violations.append(f"cycle {j.label_of(c)} has no polynomial")
            continue
        if f.field != j.field:
            violations.append(f"polynomial for {j.label_of(c)} is over {f.field.header()}, "
                              f"ideal is over {j.field.header()}")
            continue
        if f.is_zero or f.degree < 1:
            violations.append(f"polynomial for {j.label_of(c)} must have positive degree")
        elif f.constant_term != j.field.one:
            violations.append(f"polynomial for {j.label_of(c)} must have constant term 1")
    for c in j.theta:
        if c not in seen:
            violations.append(f"polynomial given for {j.label_of(c)}, "
                              f"which is not a cycle of the ideal")
    return IdealValidation(valid=not violations, violations=tuple(violations),
                           primed=primed)


@record
class ValidatedIdeal:
    """(Γ, J) once :func:`validated_ideal` passed; ``primed`` is B_H∖S."""

    graph: Digraph
    ideal: IdealPresentation
    primed: frozenset[str]


def validated_ideal(g: Digraph, j: IdealPresentation) -> ValidatedIdeal:
    """Validate j on g once; raises InvalidIdealError with every violation."""
    report = validate_ideal(g, j)
    if not report.valid:
        raise InvalidIdealError(report.violations)
    return ValidatedIdeal(g, j, report.primed)


def graded_part(j: IdealPresentation) -> IdealPresentation:
    """(H, S, ∅, ∅): the largest graded ideal inside j."""
    return IdealPresentation(field=j.field, pair=j.pair, name=j.name)


def pair_order(g: Digraph, a: AdmissiblePair, b: AdmissiblePair) -> bool:
    """a ≼ b, mirroring inclusion of the corresponding graded ideals."""
    ensure_admissible(g, a)
    ensure_admissible(g, b)
    return a.h <= b.h and (a.h | a.s) <= (b.h | b.s)


def _preorder_key(m: int) -> int:
    """Taken descending, orders the nonzero masks of a :class:`BitIndex` as
    :meth:`AdmissiblePair.sort_key` orders the ascending id lists of their
    members, a list before its extensions: m + lowbit(m) − |m| is 2^|V| less
    the list's place in the preorder of all of them."""
    return m + (m & -m) - m.bit_count()


def _pairs(g: Digraph, masks: list[tuple[int, int]]) -> list[AdmissiblePair]:
    """The pairs of (H, S) masks on ``g.bits``; pairs with one H share its set."""
    members, out, last = g.bits.members, [], None
    empty = frozenset()
    for h, s in masks:
        if h != last:
            last, h_set = h, members(h)
        out.append(AdmissiblePair(h_set, members(s) if s else empty))
    return out


def enumerate_admissible_pairs(g: Digraph, limit: int = 10_000, *, masks: bool = False
                               ) -> list[AdmissiblePair] | list[tuple[int, int]]:
    """Every admissible pair (H, S), sorted by :meth:`AdmissiblePair.sort_key`;
    with ``masks``, as the (H, S) masks on ``g.bits``.

    Each hereditary saturated H with every S ⊆ B_H, both in
    :func:`_preorder_key` order, ∅ first."""
    bits = g.bits
    sets = enumerate_hereditary_saturated(g, limit, masks=True)  # ∅, always closed, comes first
    out: list[tuple[int, int]] = []
    for h in sets[:1] + sorted(sets[1:], key=_preorder_key, reverse=True):
        bb = s = bits.breaking(h)
        if len(out) + (1 << bb.bit_count()) > limit:
            raise ResourceLimitError(f"digraph {g.name} has more than {limit} admissible pairs")
        subsets = []
        while s:
            subsets.append(s)
            s = (s - 1) & bb
        out += [(h, s) for s in [0] + sorted(subsets, key=_preorder_key, reverse=True)]
    return out if masks else _pairs(g, out)


class _CellTable(Mapping):
    """The meet or the join table of a pair lattice, an n × n read-only
    ``Mapping`` keyed by element indices ``(i, k)``.

    Element ``order[r]`` has rank r, and ``sets[i]`` holds the ranks of the
    down-set of element i (meet table) or of its up-set (join table).  A cell
    is computed when it is read: the top rank of ``sets[i] & sets[k]`` for a
    meet, the lowest for a join, accepted only if that element's own set is
    exactly the intersection, else MeetJoinFailureError."""

    __slots__ = ("_elements", "_order", "_sets", "_meet")

    def __init__(self, elements: Sequence[AdmissiblePair], order: Sequence[int],
                 sets: Sequence[int], meet: bool):
        self._elements = elements
        self._order = order
        self._sets = sets
        self._meet = meet

    def __getitem__(self, key) -> int:
        n = len(self._sets)
        try:
            i, k = map(operator.index, key)
            inside = 0 <= i < n and 0 <= k < n
        except (TypeError, ValueError):
            inside = False
        if not inside:
            raise KeyError(key)
        sets = self._sets
        both = sets[i] & sets[k]
        # an empty intersection picks order[-1], whose set is not empty
        m = self._order[(both if self._meet else both & -both).bit_length() - 1]
        if sets[m] != both:
            a, b = sorted((i, k))
            raise MeetJoinFailureError(
                f"no {'meet' if self._meet else 'join'} for {self._elements[a].label()} "
                f"and {self._elements[b].label()}")
        return m

    def __iter__(self):
        return itertools.product(range(len(self._sets)), repeat=2)

    def __len__(self) -> int:
        return len(self._sets) ** 2

    def __repr__(self) -> str:
        return f"{type(self).__name__}(n={len(self._sets)})"


@record
class PairLattice:
    """All admissible pairs with their meet and join tables (element indices).

    The tables hold each pair's down-set and up-set as a bitmask of ranks, and
    compute a cell when it is read (:class:`_CellTable`)."""

    elements: tuple[AdmissiblePair, ...]
    meet_table: Mapping[tuple[int, int], int]
    join_table: Mapping[tuple[int, int], int]

    @functools.cached_property
    def _positions(self) -> dict[AdmissiblePair, int]:
        return {pair: i for i, pair in enumerate(self.elements)}

    def index(self, pair: AdmissiblePair) -> int:
        try:
            return self._positions[pair]
        except KeyError:
            raise ValueError(f"{pair.label()} is not an admissible pair of this lattice") from None

    def meet(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self.elements[self.meet_table[self.index(a), self.index(b)]]

    def join(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self.elements[self.join_table[self.index(a), self.index(b)]]


def pair_lattice(g: Digraph, limit: int = 10_000) -> PairLattice:
    """The admissible pairs with meet and join tables under :func:`pair_order`.

    Ranked by (|H|, |S|), a linear extension of the order, each pair keeps its
    down-set and up-set as a bitmask of ranks, built in O(n·|V|) mask
    operations.  The tables compute each cell on read: the meet of two pairs
    is the top rank in both down-sets, the join the lowest rank in both
    up-sets, each accepted only if its own down-set (up-set) is that
    intersection, else MeetJoinFailureError.  Nothing of size n² is stored."""
    masks = enumerate_admissible_pairs(g, limit, masks=True)
    elements = tuple(_pairs(g, masks))
    n, vertices = len(masks), range(len(g.vertices))
    sizes = [(h.bit_count(), s.bit_count()) for h, s in masks]
    order = sorted(range(n), key=sizes.__getitem__)
    # by bit position, the ranks of the pairs with that vertex in H, in S
    in_h, in_s = [0] * len(vertices), [0] * len(vertices)
    for r, i in enumerate(order):
        rank = 1 << r
        for ranks, m in zip((in_h, in_s), masks[i]):
            while m:
                low = m & -m
                ranks[low.bit_length() - 1] |= rank
                m ^= low
    in_hs = [a | b for a, b in zip(in_h, in_s)]
    # q ≽ p iff H_p ⊆ H_q and S_p ⊆ H_q ∪ S_q; so q ≼ p iff no v ∈ S_p is in
    # H_q and no v outside H_p ∪ S_p is in H_q ∪ S_q
    everything = (1 << n) - 1
    up, down = [], []
    for h, s in masks:
        above, below = everything, 0
        for v in vertices:
            if h >> v & 1:
                above &= in_h[v]
            elif s >> v & 1:
                above &= in_hs[v]
                below |= in_h[v]
            else:
                below |= in_hs[v]
        up.append(above)
        down.append(everything & ~below)
    return PairLattice(elements, _CellTable(elements, order, down, meet=True),
                       _CellTable(elements, order, up, meet=False))


# -- strata -----------------------------------------------------------------------

@record
class StratumKey:
    pair: AdmissiblePair
    beta: tuple[GeometricCycle, ...]
    degrees: tuple[int, ...]  # aligned with beta


@record
class StratumRecord:
    key: StratumKey
    parameter_count: int
    dlf_count: int


def _degree_census(field: Field, degree: int) -> tuple[int, int]:
    """(#parameter tuples, #dlf tuples) for one cycle of exact degree ``degree``.

    Parameters are polynomials 1 + a₁x + ... + a_d x^d with a_d ≠ 0, so there
    are (p − 1)·p^(d−1) of them.  Such a polynomial is dlf exactly when it is
    ∏ (1 − x/r) over d distinct nonzero roots r, so C(p − 1, d) of them are.
    """
    p = field.p
    return (p - 1) * p ** (degree - 1), math.comb(p - 1, degree)


def enumerate_strata(g: Digraph, field: Field, max_deg: int,
                     limit: int = 10_000,
                     max_param_points: int = 1_000_000) -> list[StratumRecord]:
    """Every stratum (pair, β, d) with exhaustive parameter and dlf counts.

    The empty β is included: it is the singleton stratum of the graded ideal
    itself, with one (vacuously dlf) parameter point.
    """
    if not field.is_prime_field:
        raise FieldMismatchError("stratum counting enumerates parameters over a prime field")
    if max_deg < 1:
        raise ValueError("max_deg must be positive")
    sums = itertools.accumulate(field.p ** d for d in range(1, max_deg + 1))
    if any(points > max_param_points for points in sums):
        raise ResourceLimitError(
            f"parameter sweep over {field.header()} up to degree {max_deg} exceeds "
            f"{max_param_points} points")
    census = {d: _degree_census(field, d) for d in range(1, max_deg + 1)}
    # by |β|: each degree tuple with its parameter and dlf counts, built once
    rows: dict[int, list[tuple[tuple[int, ...], int, int]]] = {}
    bits = g.bits
    records: list[StratumRecord] = []
    masks = enumerate_admissible_pairs(g, limit, masks=True)
    for pair, (h, s) in zip(_pairs(g, masks), masks):
        # the pairs are admissible by construction: no ensure_admissible here
        primed = bits.members(bits.breaking(h) & ~s)
        cycles = sorted(_no_exit_quotient_cycles(g, pair, primed, limit),
                        key=lambda c: c.arrows)
        for r in range(len(cycles) + 1):
            per_beta = max_deg ** r
            for beta in itertools.combinations(cycles, r):
                if len(records) + per_beta > limit:
                    raise ResourceLimitError(
                        f"more than {limit} strata for {g.name} over {field.header()}")
                if r not in rows:
                    rows[r] = [(degrees, math.prod(census[d][0] for d in degrees),
                                math.prod(census[d][1] for d in degrees))
                               for degrees in itertools.product(range(1, max_deg + 1), repeat=r)]
                records += [StratumRecord(StratumKey(pair, beta, degrees), parameters, dlf)
                            for degrees, parameters, dlf in rows[r]]
    return records

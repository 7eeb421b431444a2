"""Every admissible pair, their lattice, and the strata.

:func:`enumerate_admissible_pairs` lists every admissible pair (H, S) from
the closed sets of :func:`~leavitt.digraph.enumerate_hereditary_saturated`,
:func:`pair_lattice` gives them meet and join tables computed on read, and
:func:`enumerate_strata` counts the ideal presentations over a prime field
per stratum (pair, β, degrees) in closed form.  The pairs and their order
live in :mod:`leavitt.ideals`, the presentations in
:mod:`leavitt.presentations`; only ``strata`` and the lattice library call
load this module.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from collections.abc import Mapping
from typing import TYPE_CHECKING, Sequence

from .digraph import Digraph, GeometricCycle, enumerate_hereditary_saturated, no_exit_cycles
from .errors import FieldMismatchError, MeetJoinFailureError, ResourceLimitError
from .ideals import AdmissiblePair
from .records import record

if TYPE_CHECKING:
    from .fields import Field


def _preorder_key(m: int) -> int:
    """Taken descending, orders the nonzero masks of a :class:`BitIndex` as
    :meth:`AdmissiblePair.sort_key` orders the ascending id lists of their
    members, a list before its extensions: m + lowbit(m) − |m| is 2^|V| less
    the list's place in the preorder of all of them."""
    return m + (m & -m) - m.bit_count()


def _pairs(g: Digraph, masks: list[tuple[int, int]]) -> list[AdmissiblePair]:
    """The pairs of (H, S) masks on ``g.bits``, which g remembers as admitted with
    their B_H∖S; pairs with one H share its set."""
    bits, admitted, out, last = g.bits, g._admitted, [], None
    empty = frozenset()
    for h, s in masks:
        if h != last:
            last, h_set, breaking = h, bits.members(h), bits.members(bits.breaking(h))
        pair = AdmissiblePair(h_set, bits.members(s) if s else empty)
        admitted[pair] = breaking - pair.s
        out.append(pair)
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


MAX_COUNT_DIGITS = 4300  # CPython's default int→str limit: every count can be printed
_COUNT_BOUND = 10 ** MAX_COUNT_DIGITS


def enumerate_strata(g: Digraph, field: Field, max_deg: int,
                     limit: int = 10_000) -> list[StratumRecord]:
    """Every stratum (pair, β, d) with its parameter and dlf counts in closed form.

    The empty β is included: it is the singleton stratum of the graded ideal
    itself, with one (vacuously dlf) parameter point.  Two bounds raise ResourceLimitError:
    ``limit`` strata, so ``max_deg ≤ limit`` once β ≠ ∅, and MAX_COUNT_DIGITS per count.
    """
    if not field.is_prime_field:
        raise FieldMismatchError("stratum counting enumerates parameters over a prime field")
    if max_deg < 1:
        raise ValueError("max_deg must be positive")
    p, census = field.p, functools.cache(functools.partial(_degree_census, field))
    # by |β|: each degree tuple with its parameter and dlf counts, built once
    rows: dict[int, list[tuple[tuple[int, ...], int, int]]] = {0: [((), 1, 1)]}
    records: list[StratumRecord] = []
    for pair in enumerate_admissible_pairs(g, limit):  # g remembers each B_H∖S
        cycles = sorted(no_exit_cycles(g, pair.h, g._admitted[pair], limit),
                        key=lambda c: c.arrows)
        for r in range(len(cycles) + 1):
            per_beta = max_deg ** r
            for beta in itertools.combinations(cycles, r):
                if len(records) + per_beta > limit:
                    raise ResourceLimitError(
                        f"more than {limit} strata for {g.name} over {field.header()}")
                if r not in rows:
                    # 2^low ≤ census(max_deg)ʳ, the largest count: build it only when low fits
                    low = r * ((max_deg - 1) * (p.bit_length() - 1) + (p - 1).bit_length() - 1)
                    if low >= _COUNT_BOUND.bit_length() or census(max_deg)[0] ** r >= _COUNT_BOUND:
                        raise ResourceLimitError(
                            f"a count over {field.header()} up to degree {max_deg} passes "
                            f"the fixed bound of {MAX_COUNT_DIGITS} decimal digits")
                    rows[r] = [(degrees, math.prod(census(d)[0] for d in degrees),
                                math.prod(census(d)[1] for d in degrees))
                               for degrees in itertools.product(range(1, max_deg + 1), repeat=r)]
                records += [StratumRecord(StratumKey(pair, beta, degrees), parameters, dlf)
                            for degrees, parameters, dlf in rows[r]]
    return records

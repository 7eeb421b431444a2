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

import itertools
from dataclasses import dataclass, field as dc_field
from typing import Iterable, Mapping, Sequence

from .digraph import (
    Digraph,
    GeometricCycle,
    OMEGA,
    breaking_vertices,
    cycle_vertices,
    enumerate_cycles,
    enumerate_hereditary_saturated,
    is_hereditary,
    is_omega,
    is_saturated,
)
from .errors import (
    FieldMismatchError,
    InvalidIdealError,
    MeetJoinFailureError,
    NotAdmissibleError,
    ResourceLimitError,
)
from .fields import Field, Polynomial, is_dlf


@dataclass(frozen=True)
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


def is_admissible(g: Digraph, pair: AdmissiblePair) -> bool:
    g.check_vertices(pair.h | pair.s)
    if not (is_hereditary(g, pair.h) and is_saturated(g, pair.h)):
        return False
    return pair.s <= breaking_vertices(g, pair.h)


def ensure_admissible(g: Digraph, pair: AdmissiblePair):
    if not is_admissible(g, pair):
        raise NotAdmissibleError(f"{pair.label()} is not admissible in {g.name}")


def quotient_out_degree(g: Digraph, h: frozenset[str], primed: frozenset[str],
                        v: str) -> int | float:
    """Out-degree of a surviving vertex in Γ/(H, S) without building the quotient.

    Classes with target outside H survive; classes with target in
    ``primed`` = B_H∖S are duplicated toward the primed sink.
    """
    total = 0
    for a in g.out_arrows(v):
        copies = (a.target not in h) + (a.target in primed)
        if copies and is_omega(a.multiplicity):
            return OMEGA
        total += copies * a.multiplicity
    return total


def no_exit_quotient_cycles(g: Digraph, pair: AdmissiblePair,
                            limit: int = 10_000) -> list[GeometricCycle]:
    """Cycles of Γ/(H, S) with no exit there, as cycles of g (arrow ids survive)."""
    ensure_admissible(g, pair)
    primed = breaking_vertices(g, pair.h) - pair.s
    survivors = [v for v in g.vertices if v not in pair.h]
    sub = g.full_subgraph(survivors)
    out = []
    for info in enumerate_cycles(sub, limit=limit):
        cyc = info.cycle
        if not info.multiplicity_one:
            continue
        if all(quotient_out_degree(g, pair.h, primed, v) == 1
               for v in cycle_vertices(g, cyc)):
            out.append(cyc)
    return out


@dataclass
class IdealPresentation:
    """The quadruple (H, S, β, θ); treat instances as immutable."""

    field: Field
    pair: AdmissiblePair
    beta: tuple[GeometricCycle, ...] = ()
    theta: Mapping[GeometricCycle, Polynomial] = dc_field(default_factory=dict)
    labels: Mapping[GeometricCycle, str] = dc_field(default_factory=dict)
    name: str = "ideal"

    def __post_init__(self):
        self.beta = tuple(self.beta)
        self.theta = dict(self.theta)
        labels = dict(self.labels)
        for i, c in enumerate(self.beta, 1):
            labels.setdefault(c, f"C{i}")
        self.labels = labels

    @property
    def is_graded(self) -> bool:
        return not self.beta

    def label_of(self, cycle: GeometricCycle) -> str:
        return self.labels.get(cycle, cycle.label())


@dataclass(frozen=True)
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
    if not is_hereditary(g, j.pair.h):
        violations.append("H is not hereditary")
    if not is_saturated(g, j.pair.h):
        violations.append("H is not saturated")
    h_ok = not violations
    primed: frozenset[str] = frozenset()
    if h_ok:
        bb = breaking_vertices(g, j.pair.h)
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


@dataclass(frozen=True)
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


def enumerate_admissible_pairs(g: Digraph, limit: int = 10_000) -> list[AdmissiblePair]:
    out = []
    for hs in enumerate_hereditary_saturated(g, limit=limit):
        bb = sorted(breaking_vertices(g, hs))
        for k in range(len(bb) + 1):
            for combo in itertools.combinations(bb, k):
                out.append(AdmissiblePair(hs, frozenset(combo)))
                if len(out) > limit:
                    raise ResourceLimitError(
                        f"digraph {g.name} has more than {limit} admissible pairs")
    return sorted(out, key=AdmissiblePair.sort_key)


@dataclass(frozen=True)
class PairLattice:
    """All admissible pairs with meet/join tables computed by bounded search."""

    elements: tuple[AdmissiblePair, ...]
    meet_table: Mapping[tuple[int, int], int]
    join_table: Mapping[tuple[int, int], int]

    def index(self, pair: AdmissiblePair) -> int:
        return self.elements.index(pair)

    def meet(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self.elements[self.meet_table[self.index(a), self.index(b)]]

    def join(self, a: AdmissiblePair, b: AdmissiblePair) -> AdmissiblePair:
        return self.elements[self.join_table[self.index(a), self.index(b)]]


def pair_lattice(g: Digraph, limit: int = 10_000) -> PairLattice:
    elements = enumerate_admissible_pairs(g, limit=limit)
    n = len(elements)
    leq = [[a.h <= b.h and (a.h | a.s) <= (b.h | b.s) for b in elements] for a in elements]
    meet_table: dict[tuple[int, int], int] = {}
    join_table: dict[tuple[int, int], int] = {}
    for i in range(n):
        for k in range(i, n):
            lower = [m for m in range(n) if leq[m][i] and leq[m][k]]
            best = [m for m in lower if all(leq[x][m] for x in lower)]
            if len(best) != 1:
                raise MeetJoinFailureError(
                    f"no meet for {elements[i].label()} and {elements[k].label()}")
            meet_table[i, k] = meet_table[k, i] = best[0]
            upper = [m for m in range(n) if leq[i][m] and leq[k][m]]
            best = [m for m in upper if all(leq[m][x] for x in upper)]
            if len(best) != 1:
                raise MeetJoinFailureError(
                    f"no join for {elements[i].label()} and {elements[k].label()}")
            join_table[i, k] = join_table[k, i] = best[0]
    return PairLattice(tuple(elements), meet_table, join_table)


# -- strata -----------------------------------------------------------------------

@dataclass(frozen=True)
class StratumKey:
    pair: AdmissiblePair
    beta: tuple[GeometricCycle, ...]
    degrees: tuple[int, ...]  # aligned with beta


@dataclass(frozen=True)
class StratumRecord:
    key: StratumKey
    parameter_count: int
    dlf_count: int


def _degree_census(field: Field, degree: int) -> tuple[int, int]:
    """(#parameter tuples, #dlf tuples) for one cycle of exact degree ``degree``.

    Parameters are polynomials 1 + a₁x + ... + a_d x^d with a_d ≠ 0, counted
    by exhausting 𝔽p^d.
    """
    p = field.p
    total = 0
    good = 0
    for tail in itertools.product(range(p), repeat=degree):
        if tail[-1] == 0:
            continue
        total += 1
        f = Polynomial.of(field, (1,) + tail)
        if is_dlf(f).is_dlf:
            good += 1
    return total, good


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
    if sum(field.p ** d for d in range(1, max_deg + 1)) > max_param_points:
        raise ResourceLimitError(
            f"parameter sweep over {field.header()} up to degree {max_deg} exceeds "
            f"{max_param_points} points")
    census = {d: _degree_census(field, d) for d in range(1, max_deg + 1)}
    records: list[StratumRecord] = []
    for pair in enumerate_admissible_pairs(g, limit=limit):
        cycles = sorted(no_exit_quotient_cycles(g, pair, limit=limit),
                        key=lambda c: c.arrows)
        for r in range(len(cycles) + 1):
            for beta in itertools.combinations(cycles, r):
                for degrees in itertools.product(range(1, max_deg + 1), repeat=r):
                    params = 1
                    dlf_count = 1
                    for d in degrees:
                        params *= census[d][0]
                        dlf_count *= census[d][1]
                    records.append(StratumRecord(
                        StratumKey(pair, beta, degrees), params, dlf_count))
                    if len(records) > limit:
                        raise ResourceLimitError(
                            f"more than {limit} strata for {g.name} over {field.header()}")
    return records

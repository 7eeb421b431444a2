"""The three digraph constructions and the quotient decision procedure.

* graded quotient Γ/(H, S): delete H, add a primed sink v' for each breaking
  vertex kept out of S, duplicate arrows into those vertices toward the sinks;
* cycle-to-loop rewrite: replace the first arrow of a no-exit cycle by a loop
  at its source, leaving everything else alone;
* severing Γ//J: graded quotient, then cycles to loops, then each loop
  replaced by deg θ(C) fresh sinks with every incoming arrow split into that
  many copies.  It is built straight from the graded quotient: the arrow the
  rewrite would turn into a loop is dropped, so the loop never gets an id.

Severing depends only on the degrees of θ.  The quotient is (isomorphic to)
a path algebra quotient of the same kind exactly when every θ(C) factors
into distinct linear factors; the decision procedure reports a witness per
cycle and, on success, an explicit generator-image certificate.

Dimensions, and End(P) in ``ktheory``, come from path counts: one iterative
depth-first pass against the arrows with one memo per call, so
:func:`dimension_blocks` counts the paths into all sinks in linear time.

Fresh-id scheme: primed ids append a prime character, split ids append
``.j`` (j from 1), so provenance stays readable and DOT output is stable.

Contract: each public (digraph, ideal) entry point validates once, through
:func:`~leavitt.ideals.validated_ideal`, and builds the graded quotient, the
dlf verdicts and the severed digraph at most once per call.  The one worker,
:func:`sever_validated`, severs a validated ideal with its cached B_H∖S: the
radical j′ unchecked, or from the graded quotient already built.
"""

from __future__ import annotations

from collections import Counter
from typing import TYPE_CHECKING, Iterable, Mapping

from .digraph import (
    ArrowClass,
    Digraph,
    GeometricCycle,
    base_vertex,
    cycle_vertices,
    enumerate_cycles,
    is_omega,
)
from .errors import (
    CycleHasExitError,
    CyclesNotDisjointError,
    InternalConsistencyError,
    NotDlfError,
    UnsupportedShapeError,
)
from .fields import DlfVerdict, Polynomial, is_dlf, squarefree_part
from .ideals import (
    AdmissiblePair,
    IdealPresentation,
    ValidatedIdeal,
    ensure_admissible,
    validated_ideal,
)
from .records import record, replace

if TYPE_CHECKING:
    from .fields import Scalar


@record
class QuotientResult:
    """A constructed digraph plus, for every new id, where it came from."""

    digraph: Digraph
    provenance: Mapping[str, str]


def _fresh(name: str, taken: set[str]) -> str:
    if name in taken:
        raise InternalConsistencyError(f"fresh id {name!r} collides with an existing id")
    taken.add(name)
    return name


def graded_quotient(g: Digraph, pair: AdmissiblePair) -> QuotientResult:
    """Γ/(H, S): survivors keep their ids; each v ∈ B_H∖S gets a sink v'."""
    return _graded_quotient(g, pair.h, ensure_admissible(g, pair))


def _graded_quotient(g: Digraph, h: frozenset[str], primed: frozenset[str]) -> QuotientResult:
    taken = set(g.vertices) | {a.id for a in g.arrows}
    vertices: list[str] = []
    provenance: dict[str, str] = {}
    for v in g.vertices:
        if v not in h:
            vertices.append(v)
            provenance[v] = f"vertex {v}"
    for v in g.vertices:
        if v in primed:
            vp = _fresh(v + "'", taken)
            vertices.append(vp)
            provenance[vp] = f"breaking-sink {v}"
    arrows: list[ArrowClass] = []
    for a in g.arrows:
        if a.target not in h:
            arrows.append(a)
            provenance[a.id] = f"arrow {a.id}"
    for a in g.arrows:
        if a.target in primed:
            ap = _fresh(a.id + "'", taken)
            arrows.append(ArrowClass(ap, a.source, a.target + "'", a.multiplicity))
            provenance[ap] = f"breaking-arrow {a.id}"
    return QuotientResult(Digraph(g.name, vertices, arrows), provenance)


def _check_no_exit(g: Digraph, cycle: GeometricCycle):
    for aid in cycle.arrows:
        if g.arrow(aid).multiplicity != 1:
            raise CycleHasExitError(
                f"cycle {cycle.label()} has a class of multiplicity != 1 in {g.name}")
    for v in cycle_vertices(g, cycle):
        if g.out_degree(v) != 1:
            raise CycleHasExitError(f"cycle {cycle.label()} has an exit at {v} in {g.name}")


def cycle_to_loop(g: Digraph, cycles: Iterable[GeometricCycle]) -> QuotientResult:
    """Rewrite each no-exit cycle so its first arrow becomes a loop at the base."""
    cycles = [GeometricCycle.of(c.arrows) for c in cycles]
    seen_vertices: set[str] = set()
    for c in cycles:
        vs = set(cycle_vertices(g, c))
        if vs & seen_vertices:
            raise CyclesNotDisjointError("cycles to rewrite share a vertex")
        seen_vertices |= vs
        _check_no_exit(g, c)
    taken = set(g.vertices) | {a.id for a in g.arrows}
    replacement: dict[str, ArrowClass] = {}
    provenance: dict[str, str] = {v: f"vertex {v}" for v in g.vertices}
    for c in cycles:
        if len(c) == 1:
            continue  # already a loop
        first = g.arrow(c.arrows[0])
        loop_id = _fresh(first.id + "'", taken)
        replacement[first.id] = ArrowClass(loop_id, first.source, first.source, 1)
        provenance[loop_id] = f"loop-rewrite {first.id}"
    arrows = []
    for a in g.arrows:
        if a.id in replacement:
            arrows.append(replacement[a.id])
        else:
            arrows.append(a)
            provenance[a.id] = f"arrow {a.id}"
    return QuotientResult(Digraph(g.name, g.vertices, arrows), provenance)


def split_sink_ids(base: str, degree: int) -> list[str]:
    """Fresh sink ids for a cycle severed at ``base``: ``<base>.1 .. <base>.d``."""
    return [f"{base}.{j}" for j in range(1, degree + 1)]


def sever(g: Digraph, j: IdealPresentation) -> QuotientResult:
    """Γ//J: graded quotient, cycles to loops, loops into deg θ(C) sinks.

    Defined for any valid presentation; only the degrees of θ matter here.
    """
    return sever_validated(validated_ideal(g, j))


def sever_validated(valid: ValidatedIdeal, q1: QuotientResult | None = None) -> QuotientResult:
    """:func:`sever` for a validated presentation, from its graded quotient q1 if built."""
    g, j = valid.graph, valid.ideal
    q1 = q1 or _graded_quotient(g, j.pair.h, valid.primed)
    work = q1.digraph
    provenance = dict(q1.provenance)
    # each cycle's first arrow is the one the rewrite turns into a loop, and
    # severing deletes that loop; it takes no id and leaves its own free
    first_arrows = {c.arrows[0] for c in j.beta}
    for aid in first_arrows:
        provenance.pop(aid, None)

    # ids are minted per cycle, sinks first and then copies of the arrows into
    # the base, which fixes the id a collision reports; vertices and arrows are
    # then replaced in place in one pass
    taken = set(work.vertices) | {a.id for a in work.arrows if a.id not in first_arrows}
    sinks_of: dict[str, list[str]] = {}
    copies_of: dict[str, list[ArrowClass]] = {aid: [] for aid in first_arrows}  # id -> replacement
    for cycle in j.beta:
        base = base_vertex(work, cycle)
        sinks = [_fresh(s, taken) for s in split_sink_ids(base, j.theta[cycle].degree)]
        sinks_of[base] = sinks
        provenance.pop(base, None)
        for jdx, s in enumerate(sinks, 1):
            provenance[s] = f"cycle-sink {base} root {jdx}"
        for a in work.in_arrows(base):
            if a.id == cycle.arrows[0]:
                continue
            if a.source == base:
                raise InternalConsistencyError(
                    f"unexpected second loop {a.id} at severed vertex {base}")
            provenance.pop(a.id, None)
            copies_of[a.id] = []
            for jdx, s in enumerate(sinks, 1):
                copy_id = _fresh(f"{a.id}.{jdx}", taken)
                copies_of[a.id].append(ArrowClass(copy_id, a.source, s, a.multiplicity))
                provenance[copy_id] = f"split-arrow {a.id} copy {jdx}"
    vertices = [s for v in work.vertices for s in sinks_of.get(v, [v])]
    arrows = [c for a in work.arrows for c in copies_of.get(a.id, [a])]
    digraph = Digraph(g.name, vertices, arrows)
    missing = (set(digraph.vertices) | {a.id for a in digraph.arrows}) ^ set(provenance)
    if missing:
        raise InternalConsistencyError(f"provenance does not cover {sorted(missing)}")
    return QuotientResult(digraph, provenance)


@record
class CycleDlfReport:
    label: str
    cycle: GeometricCycle
    verdict: DlfVerdict


@record
class DecideResult:
    """Dlf verdict per β cycle; if all hold, Γ//J and the graded quotient it is built from."""

    is_lpa: bool
    reports: tuple[CycleDlfReport, ...]
    severed: QuotientResult | None
    quotient: QuotientResult | None = None

    def failing(self) -> tuple[CycleDlfReport, ...]:
        return tuple(r for r in self.reports if not r.verdict.is_dlf)


def decide_lpa_quotient(g: Digraph, j: IdealPresentation) -> DecideResult:
    """Is the quotient by j again of path-algebra type?  Yes iff j is dlf."""
    valid = validated_ideal(g, j)
    reports = tuple(CycleDlfReport(j.label_of(c), c, is_dlf(j.theta[c])) for c in j.beta)
    if not all(r.verdict.is_dlf for r in reports):
        return DecideResult(False, reports, None)
    q1 = _graded_quotient(g, j.pair.h, valid.primed)
    return DecideResult(True, reports, sever_validated(valid, q1), q1)


@record
class CertEntry:
    kind: str  # "vertex" | "arrow" | "cycle"
    generator: str
    image: tuple[tuple[Scalar, str], ...]


@record
class IsoCertificate:
    """Generator images of the isomorphism from the graded quotient onto Γ//J.

    Every vertex and arrow of Γ/(H, S) appears exactly once; the slot of each
    severed cycle's first arrow carries the cycle symbol, whose image lists
    the roots.
    """

    entries: tuple[CertEntry, ...]

    def image_of(self, generator: str) -> tuple[tuple[Scalar, str], ...]:
        for e in self.entries:
            if e.generator == generator:
                return e.image
        raise KeyError(generator)


def iso_certificate(g: Digraph, j: IdealPresentation) -> IsoCertificate:
    # severing mints the ids the images name, and raises on a collision
    decision = decide_lpa_quotient(g, j)
    if not decision.is_lpa:
        bad = ", ".join(f"{r.label}: {r.verdict.describe(j.field)}" for r in decision.failing())
        raise NotDlfError(f"no certificate: {bad}")
    quotient = decision.quotient.digraph
    roots_of = {r.cycle: sorted(r.verdict.roots) for r in decision.reports}
    base_of = {c: base_vertex(quotient, c) for c in j.beta}
    bases = {b: c for c, b in base_of.items()}
    first_arrows = {c.arrows[0]: c for c in j.beta}
    one = j.field.one

    entries: list[CertEntry] = []
    for v in quotient.vertices:
        if v in bases:
            c = bases[v]
            sinks = split_sink_ids(v, len(roots_of[c]))
            entries.append(CertEntry("vertex", v, tuple((one, s) for s in sinks)))
        else:
            entries.append(CertEntry("vertex", v, ((one, v),)))
    for a in quotient.arrows:
        if a.id in first_arrows:
            c = first_arrows[a.id]
            sinks = split_sink_ids(base_of[c], len(roots_of[c]))
            entries.append(CertEntry(
                "cycle", j.label_of(c),
                tuple(zip(roots_of[c], sinks))))
        elif a.target in bases:
            c = bases[a.target]
            copies = [f"{a.id}.{jdx}" for jdx in range(1, len(roots_of[c]) + 1)]
            entries.append(CertEntry("arrow", a.id, tuple((one, e) for e in copies)))
        else:
            entries.append(CertEntry("arrow", a.id, ((one, a.id),)))
    return IsoCertificate(tuple(entries))


@record
class RadicalResult:
    j_prime: IdealPresentation
    severed: QuotientResult
    degree_drops: tuple[tuple[str, int], ...]
    hypothesis_ok: bool
    hypothesis_violations: tuple[str, ...]


def radical_quotient(g: Digraph, j: IdealPresentation) -> RadicalResult:
    """Replace each θ(C) by its squarefree part; the drop measures nilpotency.

    The radical-equals-kernel reading needs every squarefree part to split
    into distinct linear factors over the field; when it does not, the
    construction still goes through and the violation is flagged.
    """
    valid = validated_ideal(g, j)
    new_theta: dict[GeometricCycle, Polynomial] = {}
    drops: list[tuple[str, int]] = []
    violations: list[str] = []
    for c in j.beta:
        f = j.theta[c]
        sf = squarefree_part(f)
        new_theta[c] = sf
        drops.append((j.label_of(c), f.degree - sf.degree))
        verdict = is_dlf(sf)
        if not verdict.is_dlf:
            violations.append(
                f"{j.label_of(c)}: squarefree part is not split "
                f"({verdict.describe(j.field)})")
    j_prime = replace(j, theta=new_theta, name=j.name + ".rad")
    # j′ differs from j only in θ, each replaced by a squarefree part of
    # positive degree with constant term 1, so it is valid whenever j is
    severed = sever_validated(replace(valid, ideal=j_prime))
    return RadicalResult(j_prime, severed, tuple(drops),
                         hypothesis_ok=not violations,
                         hypothesis_violations=tuple(violations))


# -- dimensions ----------------------------------------------------------------

def _paths_ending_at(g: Digraph, roots: Iterable[str], starts: Counter,
                     skip_arrows: frozenset[str] = frozenset()) -> dict[str, int]:
    """Count of paths ending at each vertex the roots are reached from against
    the arrows, each path counted ``starts[its source]`` times (multiplicities
    expanded, ``skip_arrows`` left out): one iterative depth-first pass, one memo."""
    memo: dict[str, int] = {}
    for root in roots:
        # the vertices on the current path, last on top, each with its in-arrows
        # still to read, its count so far and the multiplicity it was entered by
        path = {} if root in memo else {root: [iter(g.in_arrows(root)), starts[root], 1]}
        while path:
            frame = path[next(reversed(path))]
            for a in frame[0]:
                if a.id in skip_arrows:
                    continue
                if is_omega(a.multiplicity):
                    raise UnsupportedShapeError(f"ω class {a.id} makes path counts infinite")
                u = a.source
                if u in path:
                    raise UnsupportedShapeError(
                        f"a cycle feeds {u} in {g.name}; path counts are infinite")
                if u not in memo:
                    path[u] = [iter(g.in_arrows(u)), starts[u], a.multiplicity]
                    break
                frame[1] += a.multiplicity * memo[u]
            else:
                v, (_, total, multiplicity) = path.popitem()
                memo[v] = total
                if path:
                    path[next(reversed(path))][1] += multiplicity * total
    return memo


def partial_cycle_path_count(g: Digraph, cycle: GeometricCycle) -> int:
    """|P_C|: paths ending at the base vertex that do not traverse the full cycle.

    Each such path is an off-cycle prefix into some cycle vertex followed by
    the unique partial run to the base, so the count is the sum over cycle
    vertices of the off-cycle path counts into them.
    """
    vertices = cycle_vertices(g, cycle)
    counts = _paths_ending_at(g, vertices, Counter(g.vertices), frozenset(cycle.arrows))
    return sum(counts[w] for w in vertices)


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


def dimension_blocks(g: Digraph, j: IdealPresentation | None = None,
                     limit: int = 10_000) -> MatrixDecomposition:
    """Matrix blocks of the quotient: M_n(v) per sink, deg θ(C) × M_|P_C| per C ∈ β.

    So dim = Σ_sinks n(v)² + Σ_{C∈β} deg θ(C)·|P_C|², over the graded
    quotient when an ideal is given, over g itself (which must then be
    acyclic) otherwise.  ``limit`` bounds the cycle enumeration.
    """
    if j is not None:
        valid = validated_ideal(g, j)
        work = _graded_quotient(g, j.pair.h, valid.primed).digraph
        beta = j.beta
    else:
        work = g
        beta = ()
    if not work.is_row_finite:
        raise UnsupportedShapeError(f"{work.name} has an ω class; dimension is infinite")
    cycles = {info.cycle for info in enumerate_cycles(work, limit=limit)}
    stray = sorted(c.label() for c in cycles - set(beta))
    if stray:
        raise UnsupportedShapeError(f"unsevered cycle(s) {', '.join(stray)} in {work.name}")
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

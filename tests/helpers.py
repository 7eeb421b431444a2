"""Shared test oracles, independent of the library code paths they check."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import importlib
import itertools
import math
import operator
import pkgutil
import re
from collections import Counter
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Mapping

from hypothesis import strategies as st

import leavitt
from leavitt import (
    cli, cycles, dimension, fields, ideals, ktheory, lattice, morphisms, presentations,
    projectives, quotients, records)
from leavitt.digraph import (
    OMEGA, ArrowClass, Digraph, GeometricCycle, cycle_vertices, is_hereditary, is_omega,
    is_saturated)
from leavitt.errors import (
    FieldMismatchError,
    InternalConsistencyError,
    MeetJoinFailureError,
    NotAdmissibleError,
    NotDlfError,
    ParseError,
    ResourceLimitError,
    UnsupportedShapeError,
)
from leavitt.fields import DlfVerdict, Field, Polynomial, RootMultiset
from leavitt.scalars import _is_prime


# -- label isomorphism (structure match ignoring id names) ------------------------

def _mult_profile(g: Digraph, u: str, w: str):
    return sorted(a.multiplicity for a in g.arrows if a.source == u and a.target == w)


def label_isomorphic(g1: Digraph, g2: Digraph) -> bool:
    """Backtracking search for a structure-preserving vertex bijection."""
    if len(g1.vertices) != len(g2.vertices) or len(g1.arrows) != len(g2.arrows):
        return False

    def signature(g, v):
        outs = sorted(a.multiplicity for a in g.arrows if a.source == v)
        ins = sorted(a.multiplicity for a in g.arrows if a.target == v)
        return (tuple(outs), tuple(ins))

    sig1 = {v: signature(g1, v) for v in g1.vertices}
    sig2 = {v: signature(g2, v) for v in g2.vertices}
    if sorted(sig1.values()) != sorted(sig2.values()):
        return False
    order = sorted(g1.vertices)

    def extend(mapping, used):
        if len(mapping) == len(order):
            return True
        v = order[len(mapping)]
        for w in g2.vertices:
            if w in used or sig1[v] != sig2[w]:
                continue
            ok = True
            for v0, w0 in mapping.items():
                if (_mult_profile(g1, v, v0) != _mult_profile(g2, w, w0)
                        or _mult_profile(g1, v0, v) != _mult_profile(g2, w0, w)):
                    ok = False
                    break
            if ok and _mult_profile(g1, v, v) == _mult_profile(g2, w, w):
                mapping[v] = w
                used.add(w)
                if extend(mapping, used):
                    return True
                del mapping[v]
                used.discard(w)
        return False

    return extend({}, set())


# -- instance-level path machinery ----------------------------------------------

def arrow_instances(g: Digraph):
    """(arrow id, index) pairs; requires a row-finite digraph."""
    out = []
    for a in g.arrows:
        assert not is_omega(a.multiplicity)
        out.extend((a.id, i) for i in range(a.multiplicity))
    return out


def paths_from(g: Digraph, v: str, max_len: int):
    """All instance-level paths starting at v, up to max_len arrows.

    Yields lists of (arrow id, index); the empty path comes first.
    """
    stack = [(v, [])]
    while stack:
        cur, path = stack.pop()
        yield path
        if len(path) >= max_len:
            continue
        for a in g.out_arrows(cur):
            assert not is_omega(a.multiplicity)
            for i in range(a.multiplicity):
                stack.append((a.target, path + [(a.id, i)]))


def maximal_paths_from(g: Digraph, v: str):
    """Maximal instance-level paths from v; None if a path exceeds |V| arrows (cycle)."""
    out = []
    limit = len(g.vertices)

    def walk(cur, path):
        if len(path) > limit:
            raise RecursionError
        arrows = g.out_arrows(cur)
        if not arrows:
            out.append(list(path))
            return
        for a in arrows:
            for i in range(a.multiplicity):
                walk(a.target, path + [(a.id, i)])

    try:
        walk(v, [])
    except RecursionError:
        return None
    return out


def paths_into(g: Digraph, v: str):
    """Instance-level paths ending at v (trivial path included), for acyclic regions."""
    out = [()]
    for a in g.in_arrows(v):
        for i in range(a.multiplicity):
            for p in paths_into(g, a.source):
                out.append(p + ((a.id, i),))
    return out


# -- the per-vertex walks and recursive counts that the linear passes replaced ------

def walk_is_line_point(g: Digraph, v: str) -> bool:
    """v is a line point: follow v's only arrow until a sink (True), a vertex
    of another out-degree or a revisit (False).  One walk per vertex: O(V²)."""
    seen = {v}
    cur = v
    while True:
        deg = g.out_degree(cur)
        if deg == 0:
            return True
        if deg != 1:
            return False
        nxt = g._out[cur][0].target
        if nxt in seen:
            return False
        seen.add(nxt)
        cur = nxt


def walk_simple_classes(g: Digraph) -> tuple:
    """(sink, line points draining into it) per sink, each line point walked
    to its sink again."""
    terminal: dict[str, list[str]] = {v: [] for v in g.vertices if g.out_degree(v) == 0}
    for v in g.vertices:
        if not walk_is_line_point(g, v):
            continue
        cur = v
        while g.out_arrows(cur):
            cur = g.out_arrows(cur)[0].target
        terminal[cur].append(v)
    return tuple(projectives.SimpleClass(sink, tuple(members))
                 for sink, members in terminal.items())


def out_one_walk(g: Digraph, only_arrow: Mapping[str, ArrowClass] | None = None
                 ) -> tuple[dict[str, str | None], list[list[str]]]:
    """One walk along the map "vertex -> target of its only arrow".

    ``only_arrow`` maps each vertex that emits exactly one arrow to that arrow
    (by default, in g).  Returns, per vertex of g, where its run stops: the
    first vertex off the map (itself when it is off the map), or None when the
    run ends on a cycle of the map; and those cycles, as lists of arrow ids.
    Each vertex is stepped from once, so the walk is linear and iterative.
    """
    if only_arrow is None:
        only_arrow = {v: out[0] for v, out in g._out.items()
                      if len(out) == 1 and out[0].multiplicity == 1}
    stop: dict[str, str | None] = {}
    cycles: list[list[str]] = []
    for v in g.vertices:
        run: dict[str, str] = {}  # this run's vertices and their arrows' ids, in order
        while v in only_arrow and v not in stop and v not in run:
            run[v] = only_arrow[v].id
            v = only_arrow[v].target
        if v in run:  # the run closed up on itself
            cycles.append(list(run.values())[list(run).index(v):])
            end = None
        else:
            end = stop.setdefault(v, v)
        stop.update(dict.fromkeys(run, end))
    return stop, cycles


def looped_quotient_out_degree(arrows, h: frozenset[str], primed: frozenset[str]):
    """The out-degree in Γ/(H, S) of the vertex ``arrows`` leave, class by class:
    a class into H leaves no copy, so its multiplicity (ω too) never counts."""
    total = 0
    for a in arrows:
        copies = (a.target not in h) + (a.target in primed)
        if copies:
            total += copies * a.multiplicity
    return total


def out_one_walk_answers(g: Digraph, h: frozenset[str] = frozenset(),
                         primed: frozenset[str] = frozenset()) -> tuple:
    """What the walk gave, as the structural analyses read it before the
    components: per vertex of g its line point flag, the simple classes, and
    the no-exit cycles of Γ/(H, S) over the map of its out-degree-one vertices."""
    stop, _ = out_one_walk(g)
    line_points = {v: stop[v] is not None and not g._out[stop[v]] for v in g.vertices}
    terminal: dict[str, list[str]] = {v: [] for v, out in g._out.items() if not out}
    for v in g.vertices:
        if stop[v] in terminal:
            terminal[stop[v]].append(v)
    simples = tuple(projectives.SimpleClass(sink, tuple(members))
                    for sink, members in terminal.items())
    only_arrow = {v: next(a for a in g._out[v] if a.target not in h) for v in g.vertices
                  if v not in h and looped_quotient_out_degree(g._out[v], h, primed) == 1}
    _, cycles = out_one_walk(g, only_arrow)
    no_exit = sorted(map(GeometricCycle.of, cycles), key=lambda c: (len(c.arrows), c.arrows))
    return line_points, simples, no_exit


def recursive_paths_ending_at(g: Digraph, v: str, skip_arrows: frozenset[str],
                              memo: dict, active: set[str]) -> int:
    """Count of paths ending at v (trivial path included), multiplicities
    expanded, by recursion over the arrows into v; raises on an ω class or a
    cycle met on the way."""
    key = (v, skip_arrows)
    if key in memo:
        return memo[key]
    if v in active:
        raise UnsupportedShapeError(
            f"a cycle feeds {v} in {g.name}; path counts are infinite")
    active.add(v)
    total = 1
    for a in g.in_arrows(v):
        if a.id in skip_arrows:
            continue
        if is_omega(a.multiplicity):
            raise UnsupportedShapeError(f"ω class {a.id} makes path counts infinite")
        total += a.multiplicity * recursive_paths_ending_at(g, a.source, skip_arrows,
                                                            memo, active)
    active.discard(v)
    memo[key] = total
    return total


def guarded_paths_ending_at(g: Digraph, roots, starts: Counter,
                            skip_arrows: frozenset[str] = frozenset()) -> dict[str, int]:
    """``dimension._paths_ending_at`` as it was before its callers checked its
    precondition: the same pass, raising on an ω class or a cycle it meets."""
    memo: dict[str, int] = {}
    for root in roots:
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


def recursive_sink_multiset(g: Digraph, v: str, memo: dict) -> Counter:
    """Multiset of sinks that vL decomposes into over an acyclic row-finite
    region, by recursion over the arrows out of v."""
    if v in memo:
        return memo[v]
    arrows = g.out_arrows(v)
    if not arrows:
        out = Counter({v: 1})
    else:
        out = Counter()
        for a in arrows:
            for w, k in recursive_sink_multiset(g, a.target, memo).items():
                out[w] += a.multiplicity * k
    memo[v] = out
    return out


def enumerated_dimension_blocks(g: Digraph, j: presentations.IdealPresentation | None = None,
                                limit: int = 10_000) -> dimension.MatrixDecomposition:
    """``dimension.dimension_blocks`` as it was before it read the components:
    every cycle of the quotient is enumerated, and each one outside β is named."""
    from leavitt.cycles import enumerate_cycles

    if j is not None:
        from leavitt.presentations import validated_ideal

        validated_ideal(g, j)
        work = quotients.graded_quotient(g, j.pair).digraph
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
    counts = dimension._paths_ending_at(
        work, [*sinks, *(w for vs in on_cycles for w in vs)],
        Counter(work.vertices), frozenset(a for c in beta for a in c.arrows))
    sizes = [counts[v] for v in sinks]
    for c, vs in zip(beta, on_cycles):
        sizes += [sum(counts[w] for w in vs)] * j.theta[c].degree
    return dimension.MatrixDecomposition.of(sizes)


def rescan_fiber_violations(m: morphisms.DigraphMorphism) -> list[str]:
    """The bijection violations of an admissible-morphism check, rescanning
    both maps for every target arrow: O(E·(V + E))."""
    violations = []
    for b in m.target.arrows:
        fiber = sorted(e for e, f_ in m.arrow_map.items() if f_ == b.id)
        targets = [m.source.arrow(e).target for e in fiber]
        vertex_fiber = sorted(v for v, w in m.vertex_map.items() if w == b.target)
        if sorted(targets) != vertex_fiber or len(set(targets)) != len(targets):
            violations.append(f"arrow {b.id}: target map on its fiber is not a bijection")
    return violations


# -- the per-item orthogonality rule and End walks that the Galois order and the
#    one peel replaced -----------------------------------------------------------

def item_orthogonal(g: Digraph, p: ktheory.ProjectivePresentation,
                    j: presentations.IdealPresentation) -> bool:
    """Hom(P, L/J) = 0 by a rule per generator item: Vertex(v) needs v ∈ H, and
    Corner(u, Z) needs u ∈ H, or u ∈ S with Z holding every instance escaping H.
    Right where every corner sits at an infinite emitter; it misreads a corner
    at a regular vertex, whose instances outside Z may all end in H."""
    ktheory.validate_presentation(g, p)
    presentations.validated_ideal(g, j)
    h, s = j.pair.h, j.pair.s
    for item in p.items:
        if isinstance(item, ktheory.VertexGen):
            if item.vertex not in h:
                return False
            continue
        if item.vertex in h:
            continue
        if item.vertex not in s:
            return False
        if not ktheory.instances_escaping(g, item.vertex, h) <= item.z:
            return False
    return True


def per_item_end(g: Digraph, p: ktheory.ProjectivePresentation) -> projectives.EndVerdict:
    """End(P) with each item's own reach scanned for an ω class and searched
    for a cycle in turn: O(items·(V + E))."""
    items = ktheory.validate_presentation(g, p).items
    for item in items:
        if isinstance(item, ktheory.CornerGen):
            return projectives.EndVerdict(False, witness=f"corner item at {item.vertex}")
    for item in items:
        reach = g.successors({item.vertex})
        omega = next((a for w in sorted(reach) for a in g.out_arrows(w)
                      if is_omega(a.multiplicity)), None)
        if omega is not None:
            return projectives.EndVerdict(
                False, witness=f"ω class {omega.id} reachable from {item.vertex}")
        cyc = cycles.find_any_cycle(g.full_subgraph(reach))
        if cyc is not None:
            return projectives.EndVerdict(
                False, witness=f"cycle {cyc.label()} reachable from {item.vertex}")
    reach = g.successors(item.vertex for item in items)
    sinks = [w for w in reach if not g.out_arrows(w)]
    outside = frozenset(a.id for w in reach for a in g.in_arrows(w) if a.source not in reach)
    starts = sum((Counter({item.vertex: item.copies}) for item in items), Counter())
    counts = dimension._paths_ending_at(g, sinks, starts, outside)
    return projectives.EndVerdict(
        True, decomposition=dimension.MatrixDecomposition.of(counts[w] for w in sinks))


# -- exact rank over Q ----------------------------------------------------------

def exact_rank(rows) -> int:
    """Row-echelon rank over Fraction; rows is a list of equal-length vectors."""
    mat = [[Fraction(x) for x in row] for row in rows]
    cols = len(mat[0]) if mat else 0
    pivot_row = 0
    for col in range(cols):
        pivot = next((r for r in range(pivot_row, len(mat)) if mat[r][col] != 0), None)
        if pivot is None:
            continue
        mat[pivot_row], mat[pivot] = mat[pivot], mat[pivot_row]
        pv = mat[pivot_row][col]
        for r in range(pivot_row + 1, len(mat)):
            if mat[r][col] != 0:
                factor = mat[r][col] / pv
                mat[r] = [a - factor * b for a, b in zip(mat[r], mat[pivot_row])]
        pivot_row += 1
        if pivot_row == len(mat):
            break
    return pivot_row


# -- explicit matrix representation of an acyclic digraph -------------------------

class SinkBlockRepresentation:
    """Block-matrix model of the path-algebra quotient of a finite acyclic
    row-finite digraph: one block per sink, basis indexed by pairs of paths
    ending at that sink.  Provides the images of vertices and arrow
    instances, relation checks, and the rank of the represented spanning set.
    """

    def __init__(self, g: Digraph):
        self.g = g
        self.sinks = g.sinks()
        self.paths = {v: paths_into(g, v) for v in self.sinks}
        self.basis = []  # (sink, p, q)
        for v in self.sinks:
            for p in self.paths[v]:
                for q in self.paths[v]:
                    self.basis.append((v, p, q))
        self.index = {b: i for i, b in enumerate(self.basis)}
        self.n = len(self.basis)

    def _zero(self):
        return [[0] * self.n for _ in range(self.n)]

    def _path_source(self, sink, p):
        return self.g.arrow(p[0][0]).source if p else sink

    def vertex_matrix(self, u: str):
        m = self._zero()
        for (v, p, q), i in self.index.items():
            if self._path_source(v, p) == u:
                m[i][i] = 1
        return m

    def arrow_matrix(self, aid: str, idx: int):
        a = self.g.arrow(aid)
        m = self._zero()
        for (v, p, q), col in self.index.items():
            if self._path_source(v, p) != a.target:
                continue
            row = self.index[(v, ((aid, idx),) + tuple(p), q)]
            m[row][col] = 1
        return m

    @staticmethod
    def mul(a, b):
        n = len(a)
        return [[sum(a[i][k] * b[k][j] for k in range(n)) for j in range(n)]
                for i in range(n)]

    @staticmethod
    def transpose(a):
        return [list(row) for row in zip(*a)]

    @staticmethod
    def add(a, b):
        return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]

    def path_matrix(self, path):
        m = None
        for aid, idx in path:
            step = self.arrow_matrix(aid, idx)
            m = step if m is None else self.mul(m, step)
        return m

    def check_relations(self) -> list[str]:
        g = self.g
        failures = []
        vm = {u: self.vertex_matrix(u) for u in g.vertices}
        am = {(aid, i): self.arrow_matrix(aid, i) for aid, i in arrow_instances(g)}
        for u, w in itertools.product(g.vertices, repeat=2):
            expected = vm[u] if u == w else self._zero()
            if self.mul(vm[u], vm[w]) != expected:
                failures.append(f"(V) fails at {u},{w}")
        for (aid, i), e in am.items():
            a = g.arrow(aid)
            if self.mul(vm[a.source], e) != e or self.mul(e, vm[a.target]) != e:
                failures.append(f"(E) fails at {aid}#{i}")
        for (aid, i), e in am.items():
            for (bid, jx), f in am.items():
                expected = vm[g.arrow(aid).target] if (aid, i) == (bid, jx) else self._zero()
                if self.mul(self.transpose(e), f) != expected:
                    failures.append(f"(CK1) fails at {aid}#{i},{bid}#{jx}")
        for u in g.vertices:
            arrows = g.out_arrows(u)
            if not arrows:
                continue
            acc = self._zero()
            for a in arrows:
                for i in range(a.multiplicity):
                    e = am[(a.id, i)]
                    acc = self.add(acc, self.mul(e, self.transpose(e)))
            if acc != vm[u]:
                failures.append(f"(CK2) fails at {u}")
        return failures

    def spanning_rank(self) -> int:
        vectors = []
        for v in self.sinks:
            for p in self.paths[v]:
                mp = self.path_matrix(p)
                for q in self.paths[v]:
                    mq = self.path_matrix(q)
                    if mp is None and mq is None:
                        m = self.vertex_matrix(v)
                    elif mp is None:
                        m = self.transpose(mq)
                    elif mq is None:
                        m = mp
                    else:
                        m = self.mul(mp, self.transpose(mq))
                    vectors.append([x for row in m for x in row])
        return exact_rank(vectors)


# -- exhaustive root searches (𝔽p and ℚ) and the strata census over 𝔽p ----------

#: Largest prime modulus whose elements :func:`field_elements` will list.
MAX_ENUMERABLE_PRIME = 2**20


def field_elements(field: Field):
    """All elements of 𝔽p, ascending; refused over ℚ and above MAX_ENUMERABLE_PRIME."""
    if field.p is None:
        raise FieldMismatchError("cannot enumerate the rationals")
    if field.p > MAX_ENUMERABLE_PRIME:
        raise ResourceLimitError(f"refusing exhaustive search over F{field.p}")
    return iter(range(field.p))


def _deflate_while_root(rem: Polynomial, a) -> tuple[Polynomial, int]:
    field = rem.field
    m = 0
    while rem.degree >= 1 and rem.evaluate(a) == 0:
        quotient, r = divmod(rem, Polynomial.of(field, [field.neg(a), field.one]))
        assert r.is_zero
        rem = quotient
        m += 1
    return rem, m


def sweep_roots(f: Polynomial) -> RootMultiset:
    """Roots of a nonzero f over 𝔽p by trying every residue in turn and
    deflating while it stays a root: O(p·deg f), capped by field_elements()."""
    roots = []
    rem = f
    for a in field_elements(f.field):
        rem, m = _deflate_while_root(rem, a)
        if m:
            roots.append((a, m))
    return RootMultiset(tuple(roots), max(rem.degree, 0))


def _divisors(n: int) -> list[int]:
    out = set()
    d = 1
    while d * d <= n:
        if n % d == 0:
            out |= {d, n // d}
        d += 1
    return sorted(out)


def divisor_roots(f: Polynomial) -> RootMultiset:
    """Roots of a nonzero f over ℚ by the rational-root theorem: every ±u/v
    with u | a₀ and v | lc of the primitive form, after stripping xᵏ, is
    tried and deflated while it stays a root: O(√|a₀| + √|lc|) trial
    divisions and one evaluation per divisor pair."""
    field = f.field
    k = next(i for i, c in enumerate(f.coeffs) if c != 0)
    roots = [(Fraction(0), k)] if k else []
    rem = Polynomial.of(field, f.coeffs[k:])
    denom = math.lcm(*(c.denominator for c in rem.coeffs))
    ints = [int(c * denom) for c in rem.coeffs]
    content = math.gcd(*ints)
    ints = [c // content for c in ints]
    for u in _divisors(abs(ints[0])):
        for v in _divisors(abs(ints[-1])):
            for cand in (Fraction(-u, v), Fraction(u, v)):
                rem, m = _deflate_while_root(rem, cand)
                if m:
                    roots.append((cand, m))
    return RootMultiset(tuple(sorted(roots)), max(rem.degree, 0))


def fraction_squarefree_part(f: Polynomial) -> Polynomial:
    """Squarefree part normalized to g(0) = 1 by Euclid's gcd on Fraction
    polynomials, over any field: the path ℚ took before the integer one."""
    g = fields._radical(f)
    return g.scale(f.field.inv(g.constant_term))


def exhaustive_degree_census(field: Field, degree: int) -> tuple[int, int]:
    """(#parameter polynomials, #dlf ones) of 1 + a₁x + ... + a_d x^d, a_d ≠ 0,
    by sweeping 𝔽p^d and testing each with :func:`sweep_roots`."""
    total = good = 0
    for tail in itertools.product(range(field.p), repeat=degree):
        if tail[-1] == 0:
            continue
        total += 1
        rm = sweep_roots(Polynomial.of(field, (1,) + tail))
        good += not rm.unfactored_degree and all(m == 1 for _, m in rm.roots)
    return total, good


# -- random digraphs ----------------------------------------------------------------

@st.composite
def digraphs(draw, max_vertices: int = 12) -> Digraph:
    """Digraphs on up to ``max_vertices`` vertices whose arrow classes may be
    loops, parallel to one another, of multiplicity 2 or ω.  In half the draws
    one more vertex is a sink fed by ω classes from some of the others: a
    feeder that keeps a finite exit breaks every H holding the sink, so
    admissible pairs with S ≠ ∅ are common.  In a third of the draws the arrow
    classes are named v0, v1, … as the vertices are, so ids are shared."""
    sink = draw(st.booleans())
    n = draw(st.integers(0, max_vertices - sink))
    vs = [f"v{i}" for i in range(n)]
    ends = st.integers(0, n - 1) if n else st.nothing()
    classes = draw(st.lists(st.tuples(ends, ends, st.sampled_from((1, 1, 2, OMEGA))),
                            max_size=2 * n))
    prefix = draw(st.sampled_from("eev"))
    arrows = [(f"{prefix}{k}", vs[s], vs[t], m) for k, (s, t, m) in enumerate(classes)]
    if sink and n:
        feeders = sorted(draw(st.sets(st.sampled_from(vs), min_size=1, max_size=3)))
        arrows += [(f"w{i}", u, f"v{n}", OMEGA) for i, u in enumerate(feeders)]
        vs.append(f"v{n}")
    return Digraph("random", vs, arrows)


@st.composite
def planted_ideals(draw, max_vertices: int = 6):
    """(g, j): a drawn digraph, with up to two more cycles of one to three
    fresh vertices each fed by an arrow from a drawn vertex, and j on one of
    its admissible pairs.  β is a set of the no-exit cycles of Γ/(H, S), and
    each θ(C) a product of one to three distinct linear factors with constant
    term 1 over 𝔽5, 𝔽7 or ℚ: a dlf ideal."""
    g = draw(digraphs(max_vertices))
    vertices, arrows = list(g.vertices), list(g.arrows)
    for k in range(draw(st.integers(0, 2)) if g.vertices else 0):
        ring = [f"c{k}_{i}" for i in range(draw(st.integers(1, 3)))]
        vertices += ring
        arrows += [ArrowClass(f"r{k}_{i}", v, ring[(i + 1) % len(ring)])
                   for i, v in enumerate(ring)]
        arrows.append(ArrowClass(f"f{k}", draw(st.sampled_from(g.vertices)), ring[0]))
    g = Digraph(g.name, vertices, arrows)
    pair = draw(st.sampled_from(lattice.enumerate_admissible_pairs(g)))
    cycles = ideals.no_exit_quotient_cycles(g, pair)
    beta = draw(st.lists(st.sampled_from(cycles), min_size=1, unique=True)) if cycles else []
    field = draw(st.sampled_from([Field.gf(5), Field.gf(7), Field.rationals()]))
    scalars = (st.integers(1, field.p - 1) if field.p else
               st.fractions(-9, 9, max_denominator=4).filter(bool))
    theta = {}
    for c in beta:
        f = Polynomial.from_roots(field, draw(st.lists(scalars, min_size=1, max_size=3,
                                                       unique=True)))
        theta[c] = f.scale(field.inv(f.constant_term))
    return g, presentations.IdealPresentation(field, pair, tuple(beta), theta, name="planted")


# -- the certificate re-derived from the graded quotient, as it was built before
#    severing recorded what each generator becomes -----------------------------------

def rederived_certificate(g: Digraph, j: presentations.IdealPresentation
                          ) -> quotients.IsoCertificate:
    """Generator images read off a graded quotient of its own: the sinks of a
    cycle C at base v are ``v.1 .. v.d`` and the copies of an arrow a into v
    ``a.1 .. a.d``, with d the number of roots of θ(C)."""
    decision = quotients.decide_lpa_quotient(g, j)
    if not decision.is_lpa:
        bad = ", ".join(f"{r.label}: {r.verdict.describe(j.field)}" for r in decision.failing())
        raise NotDlfError(f"no certificate: {bad}")
    quotient = quotients.graded_quotient(g, j.pair).digraph
    roots_of = {r.cycle: sorted(r.verdict.roots) for r in decision.reports}
    base_of = {c: quotient.arrow(c.arrows[0]).source for c in j.beta}
    bases = {b: c for c, b in base_of.items()}
    first_arrows = {c.arrows[0]: c for c in j.beta}
    one = j.field.one

    def split(x: str, c: GeometricCycle) -> list[str]:
        return [f"{x}.{k}" for k in range(1, len(roots_of[c]) + 1)]

    entries: list[quotients.CertEntry] = []
    for v in quotient.vertices:
        image = split(v, bases[v]) if v in bases else [v]
        entries.append(quotients.CertEntry("vertex", v, tuple((one, x) for x in image)))
    for a in quotient.arrows:
        if a.id in first_arrows:
            c = first_arrows[a.id]
            entries.append(quotients.CertEntry(
                "cycle", j.label_of(c), tuple(zip(roots_of[c], split(base_of[c], c)))))
        else:
            image = split(a.id, bases[a.target]) if a.target in bases else [a.id]
            entries.append(quotients.CertEntry("arrow", a.id, tuple((one, x) for x in image)))
    return quotients.IsoCertificate(tuple(entries))


# -- hereditary saturated sets and the pair lattice by exhaustive search, and the
#    frozenset closure and eager tables that the bit index replaced ---------------

def digit_ids(bits, m: int) -> list[str]:
    """The ids of the mask m of a BitIndex in sorted order, read off its |V|
    binary digits, as ``BitIndex.ids`` did before its byte tables."""
    digits = format(m, f"0{len(bits.ascending)}b").encode().translate(
        bytes.maketrans(b"01", b"\0\1"))
    return list(itertools.compress(bits.ascending, digits))


def fixpoint_closure(g: Digraph, xs) -> frozenset[str]:
    """Smallest hereditary and saturated set containing xs, by repeating full
    passes over all arrows and vertices until nothing changes: O(V·(V+E))."""
    xs = set(xs)
    g.check_vertices(xs)
    current = set(xs)
    while True:
        changed = False
        for a in g.arrows:
            if a.source in current and a.target not in current:
                current.add(a.target)
                changed = True
        for v in g.vertices:
            if v in current:
                continue
            deg = g.out_degree(v)
            if 0 < deg < OMEGA and all(a.target in current for a in g.out_arrows(v)):
                current.add(v)
                changed = True
        if not changed:
            return frozenset(current)


def sweep_hereditary_saturated(g: Digraph, limit: int = 10_000) -> list[frozenset[str]]:
    """All hereditary saturated subsets by testing each of the 2ⁿ vertex masks,
    sorted by (size, members)."""
    n = len(g.vertices)
    out = []
    for mask in range(1 << n):
        hs = frozenset(v for i, v in enumerate(g.vertices) if mask >> i & 1)
        if is_hereditary(g, hs) and is_saturated(g, hs):
            out.append(hs)
            if len(out) > limit:
                raise ResourceLimitError(
                    f"digraph {g.name} has more than {limit} hereditary saturated sets")
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def frozenset_close(g: Digraph, base: frozenset[str], seeds,
                    excluded=frozenset()) -> frozenset[str] | None:
    """Least hereditary saturated set holding the closed set ``base`` and
    ``seeds``, or None once it takes in an ``excluded`` vertex.  A Horn worklist
    (Dowling & Gallier 1984): each new member brings in its targets, and each
    regular vertex pointing at it counts down its classes still leaving the
    set, joining at 0.  Only new members and their neighbours are touched."""
    added, joining, todo = set(), set(seeds) - base, []
    leaving: dict[str, int | float] = {}  # ω-emitters start at ω and never join
    while True:
        if not joining.isdisjoint(excluded):
            return None
        added |= joining
        todo += joining
        if not todo:
            return base | added
        v = todo.pop()
        joining = {a.target for a in g._out[v]} - added - base
        for a in g._in[v]:
            u = a.source
            if u in added or u in base:
                continue
            if u not in leaving:
                outs = g._out[u]
                leaving[u] = (OMEGA if any(is_omega(b.multiplicity) for b in outs)
                              else sum(b.target not in base for b in outs))
            leaving[u] -= 1
            if leaving[u] == 0:
                joining.add(u)


def closure_enumerate_hereditary_saturated(g: Digraph, limit: int = 10_000) -> list[frozenset[str]]:
    """All hereditary saturated subsets, sorted by (size, members).

    Branch and close over ``g.vertices`` from (H, excluded) = (∅, ∅): at the
    next v outside H, "v out" excludes v and is always feasible, "v in" closes
    H ∪ {v} unless that reaches an excluded vertex.  Each leaf is a distinct
    closed set, so the work is at most |V| closures per set found.
    """
    vs = g.vertices
    out = []
    stack = [(frozenset(), frozenset(), 0)]
    while stack:
        hs, excluded, i = stack.pop()
        while i < len(vs) and vs[i] in hs:
            i += 1
        if i == len(vs):
            out.append(hs)
            if len(out) > limit:
                raise ResourceLimitError(
                    f"digraph {g.name} has more than {limit} hereditary saturated sets")
            continue
        stack.append((hs, excluded | {vs[i]}, i + 1))
        grown = frozenset_close(g, hs, [vs[i]], excluded)
        if grown is not None:
            stack.append((grown, excluded, i + 1))
    return sorted(out, key=lambda s: (len(s), sorted(s)))


def scan_breaking_vertices(g: Digraph, hs) -> frozenset[str]:
    """B_H by reading the arrow classes of every vertex outside H."""
    out = set()
    for v in g.vertices:
        if v in hs:
            continue
        escaping = [a.multiplicity for a in g._out[v] if a.target not in hs]
        if (escaping and not any(map(is_omega, escaping))
                and any(is_omega(a.multiplicity) for a in g._out[v])):
            out.add(v)
    return frozenset(out)


def mask_admissibility(g: Digraph, hs) -> tuple[bool, bool, frozenset[str]]:
    """(H hereditary, H saturated, B_H) on the bit index, as validation read
    them before it walked only the arrows at H: the vertices with an arrow
    leaving H are the predecessors of its complement, built for every vertex."""
    bits = g.bits
    h, leaving = bits.mask(hs), 0
    for v in g.vertices:
        if not bits.bit[v] & h:
            leaving |= bits.pred[bits.bit[v].bit_length() - 1]
    return (not leaving & h, not bits.regular & ~h & ~leaving,
            bits.members(bits.breaking(h)))


def unmemoized_ensure_admissible(g: Digraph, pair: ideals.AdmissiblePair) -> frozenset[str]:
    """``ideals.ensure_admissible`` as it was before the digraph remembered the
    pairs it admitted: every call checks the ids and walks the arrows at H."""
    g.check_vertices(pair.h | pair.s)  # names the smallest unknown id of H ∪ S
    hereditary, saturated, breaking = ideals.admissibility(g, pair.h)
    if hereditary and saturated and pair.s <= breaking:
        return breaking - pair.s
    raise NotAdmissibleError(f"{pair.label()} is not admissible in {g.name}")


def bitset_lattice_tables(g: Digraph, elements):
    """(meet table, join table) of the admissible pairs ``elements`` of g, as
    dicts, from n-bit down-sets and up-sets filled into two flat n² lists.

    Ranked by (|H|, |S|), a linear extension of the order, each pair keeps its
    down-set and up-set as a bitmask of ranks.  The meet of two pairs is the
    top rank in both down-sets, the join the lowest rank in both up-sets, each
    accepted only if its own down-set (up-set) is that intersection, else
    MeetJoinFailureError."""
    n = len(elements)
    order = sorted(range(n), key=lambda i: (len(elements[i].h), len(elements[i].s)))
    # the ranks of the pairs with v in H, and with v in H ∪ S
    in_h = {v: sum(1 << r for r, i in enumerate(order) if v in elements[i].h) for v in g.vertices}
    in_hs = {v: in_h[v] | sum(1 << r for r, i in enumerate(order) if v in elements[i].s)
             for v in g.vertices}
    # q ≽ p iff H_p ⊆ H_q and S_p ⊆ H_q ∪ S_q; so q ≼ p iff no v ∈ S_p is in
    # H_q and no v outside H_p ∪ S_p is in H_q ∪ S_q
    everything = (1 << n) - 1
    up = [functools.reduce(operator.and_, [in_h[v] for v in p.h] + [in_hs[v] for v in p.s],
                           everything) for p in elements]
    down = [everything & ~functools.reduce(operator.or_, [in_h[v] for v in p.s] + [
        in_hs[v] for v in g.vertices if v not in p.h and v not in p.s], 0) for p in elements]
    meets, joins = [0] * (n * n), [0] * (n * n)
    for i in range(n):  # k >= i; an empty share picks order[-1] and fails the check
        below = [down[i] & d for d in down[i:]]
        above = [up[i] & u for u in up[i:]]
        meet_row = [order[b.bit_length() - 1] for b in below]
        join_row = [order[(a & -a).bit_length() - 1] for a in above]
        if [down[m] for m in meet_row] != below or [up[m] for m in join_row] != above:
            k = next(k for k in range(n - i)
                     if down[meet_row[k]] != below[k] or up[join_row[k]] != above[k])
            what = "meet" if down[meet_row[k]] != below[k] else "join"
            raise MeetJoinFailureError(
                f"no {what} for {elements[i].label()} and {elements[i + k].label()}")
        # row i from column i on, and column i from row i down (symmetry)
        meets[i * n + i:(i + 1) * n] = meets[i * n + i::n] = meet_row
        joins[i * n + i:(i + 1) * n] = joins[i * n + i::n] = join_row
    cells = list(itertools.product(range(n), repeat=2))  # the flat lists' order
    return dict(zip(cells, meets)), dict(zip(cells, joins))


def search_lattice_tables(elements):
    """(meet table, join table) of admissible pairs under pair_order, by
    searching all lower and upper bounds of every two of them for a greatest
    and a least one: O(n³)."""
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
    return meet_table, join_table


# -- the argparse parser that cli._parse replaced ------------------------------------

#: The command options as argparse keyword dicts, as cli.COMMANDS held them.
ARGPARSE_OPTIONS = {
    "closure": (("--set", dict(dest="vertex_set", default="", help="comma-separated vertex ids")),),
    "sever": (("--force-degree-only", dict(
        action="store_true", help="emit the severed digraph even for non-dlf ideals")),),
    "strata": (("--max-deg", dict(required=True)),),
}


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the CLI, the oracle of ``cli._parse``."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=["text", "dot", "json-lines"],
                        default=argparse.SUPPRESS, dest="output_format")
    common.add_argument("--field", default=argparse.SUPPRESS,
                        help="override the ideal file's field (Q or F<p>)")
    for key, flag in cli.LIMIT_FLAGS.items():
        common.add_argument(flag, default=argparse.SUPPRESS, dest=key)
    parser = argparse.ArgumentParser(
        prog="leavitt", parents=[common],
        description="Exact computations with Leavitt path algebras of finite digraphs.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in cli.COMMANDS.items():
        p = sub.add_parser(name, parents=[common])
        for operand in command.operands:
            p.add_argument(operand.rstrip("?"), nargs="?" if operand.endswith("?") else None)
        for flag, kw in ARGPARSE_OPTIONS.get(name, ()):
            p.add_argument(flag, **kw)
    return parser


# -- dataclass twins of the record classes ------------------------------------------

def record_classes() -> list[type]:
    """Every class of the package made by :func:`leavitt.records.record`, read
    off every module of the package, so no split of a module can drop one."""
    modules = [importlib.import_module(info.name)
               for info in pkgutil.walk_packages(leavitt.__path__, "leavitt.")]
    return [obj for module in modules for obj in vars(module).values()
            if isinstance(obj, type) and obj.__module__ == module.__name__
            and "__record__" in vars(obj)]


def dataclass_twin(cls: type) -> type:
    """A ``dataclasses.dataclass`` with the record's name, annotations, defaults
    and every method the record's class body defines, frozen."""
    spec = cls.__record__
    specs = [(name, cls.__annotations__[name], spec.defaults[name]) if name in spec.defaults
             else (name, cls.__annotations__[name]) for name in spec.names]
    installed = {"__init__", "__eq__", "__hash__", "__setattr__", "__delattr__", "__record__",
                 "__dict__", "__weakref__", "__annotations__", *spec.names}
    namespace = {k: v for k, v in vars(cls).items() if k not in installed
                 and getattr(v, "__module__", None) != records.__name__}
    twin = dataclasses.make_dataclass(cls.__name__, specs, frozen=True,
                                      namespace=namespace)
    twin.__module__, twin.__qualname__ = cls.__module__, cls.__qualname__
    return twin


# -- the one-pass readers' predecessors: parse, then check in Digraph(...); ℚ roots
# and squarefree parts as taken before degree 1 was read off and the integer
# form was kept --------------------------------------------------------------------

def init_parse_digraph(text: str, path: str | None = None) -> Digraph:
    """The digraph parser that collected the lines, then built ``Digraph(...)``,
    which checked and indexed them a second time."""
    name = None
    vertices: list[str] = []
    arrows: list[tuple] = []
    seen_v: set[str] = set()
    seen_a: set[str] = set()
    for no, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        kw = parts[0]
        if kw == "digraph":
            if name is not None:
                raise ParseError("duplicate digraph header", no, path)
            if len(parts) != 2:
                raise ParseError("expected: digraph <name>", no, path)
            name = parts[1]
        elif kw == "vertex":
            if len(parts) != 2:
                raise ParseError("expected: vertex <id>", no, path)
            if parts[1] in seen_v:
                raise ParseError(f"duplicate vertex id {parts[1]!r}", no, path)
            seen_v.add(parts[1])
            vertices.append(parts[1])
        elif kw == "arrow":
            if len(parts) not in (4, 5):
                raise ParseError("expected: arrow <id> <src> <dst> [<k>|omega]", no, path)
            aid, src, dst = parts[1:4]
            if aid in seen_a:
                raise ParseError(f"duplicate arrow id {aid!r}", no, path)
            seen_a.add(aid)
            mult: int | float = 1
            if len(parts) == 5:
                if parts[4] == "omega":
                    mult = OMEGA
                elif parts[4].isascii() and parts[4].isdigit() and int(parts[4]) >= 1:
                    mult = int(parts[4])
                else:
                    raise ParseError(f"bad multiplicity {parts[4]!r}", no, path)
            if src not in seen_v:
                raise ParseError(f"arrow {aid!r}: undeclared source {src!r}", no, path)
            if dst not in seen_v:
                raise ParseError(f"arrow {aid!r}: undeclared target {dst!r}", no, path)
            arrows.append((aid, src, dst, mult))
        else:
            raise ParseError(f"unrecognized keyword {kw!r}", no, path)
    if name is None:
        raise ParseError("missing digraph header", None, path)
    return Digraph(name, vertices, arrows)


_FRACTION_TOKEN = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def fraction_parse(token: str) -> Fraction:
    """A ℚ token read by ``Fraction(token)`` after the syntax check."""
    if not _FRACTION_TOKEN.fullmatch(token):
        raise ValueError(f"bad rational {token!r}: expected a or a/b in decimal digits")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {token!r}: {exc}") from None


LIFTING_PRIME_TRIES = 8
ZERO = Fraction(0)

def _primitive(coeffs: Iterable[int]) -> list[int]:
    """The coefficients divided by their content, with a positive leading one."""
    coeffs = list(coeffs)
    content = gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    return [c // content for c in coeffs]


def _integer_form(coeffs: Iterable[Fraction]) -> list[int]:
    """The primitive integer multiple of a list of rationals (see _primitive)."""
    coeffs = list(coeffs)
    denom = lcm(*(c.denominator for c in coeffs))
    return _primitive(c.numerator * (denom // c.denominator) for c in coeffs)


def _exact_quotient(f: list[int], d: list[int]) -> list[int]:
    """f / d over ℤ; fails loudly unless d divides f with an integer quotient."""
    rem = list(f)
    n = len(d) - 1
    quo = [0] * (len(f) - n)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + n], d[-1])
        if r:
            raise InternalConsistencyError(f"{d} does not divide {f} over Z")
        quo[i] = c
        for j in range(n):
            rem[i + j] -= c * d[j]
    if any(rem[:n]):
        raise InternalConsistencyError(f"{d} does not divide {f} over Z")
    return quo


def _squarefree(f: list[int]) -> list[int]:
    """f / gcd(f, f′) for primitive f, by the primitive remainder sequence."""
    a, b = f, _primitive([i * c for i, c in enumerate(f)][1:])
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            fields._trim(r)
        a, b = b, _primitive(r) if r else []
    return f if b else _exact_quotient(f, a)


def _vanishes(f: list[int], u: int, v: int) -> bool:
    """f(u/v) = 0, by Horner on the homogeneous form Σ fᵢ uⁱ v^(n−i)."""
    acc, w = 0, 1
    for c in reversed(f):
        acc = acc * u + c * w
        w *= v
    return acc == 0


def _lift(g: list[int], r: int, p: int, bound: int) -> tuple[int, int]:
    """(root, pᵏ): a simple root r of g mod p Newton-lifted until pᵏ > bound."""
    m = p
    while m <= bound:
        m *= m
        val = der = 0
        for c in reversed(g):
            der = (der * r + val) % m
            val = (val * r + c) % m
        r = (r - val * pow(der, -1, m)) % m
    return r, m


def _root_candidates(f: list[int]) -> list[Fraction]:
    """Candidates covering every rational root of a primitive f.

    Degree 1 is answered directly.  Otherwise take the first prime p ∤ a = lc(f)
    at which f's roots mod p are all simple (after LIFTING_PRIME_TRIES
    failures, those of the exact squarefree part g, which has finitely many
    bad primes); each lifts to a unique p-adic root r.  A rational root u/v
    has v | a, so y = a·u/v is an integer with |y| ≤ B = |a| + max|fᵢ|
    (Cauchy), read off as the symmetric residue of a·r mod pᵏ > 2B.  Roots
    mod p that come from no rational root give candidates at which f does
    not vanish.
    """
    if len(f) <= 2:
        return [Fraction(-f[0], f[1])] if len(f) == 2 else []
    a, g = f[-1], f
    primes = (n for n in itertools.count(2) if _is_prime(n) and a % n)
    for tries, p in enumerate(primes):
        if tries == LIFTING_PRIME_TRIES:
            g = _squarefree(f)
        residues, _ = fields._roots_mod_p(tuple(c % p for c in g), p)
        if all(m == 1 for _, m in residues):
            break
    bound = 2 * (abs(a) + max(map(abs, f)))
    out = []
    for r, _ in residues:
        r, m = _lift(g, r, p, bound)
        y = a * r % m
        out.append(Fraction(y - m if 2 * y > m else y, a))
    return out


def lifted_roots(coeffs: tuple[Fraction, ...]) -> tuple[list[tuple[Fraction, int]], int]:
    """(roots ascending with multiplicities, unfactored degree) of a nonzero f over ℚ.

    Strips xᵏ, passes to the primitive integer form, lifts its roots mod p
    to rational candidates, then deflates while a candidate is a root.
    """
    k = next(i for i, c in enumerate(coeffs) if c)
    found = [(ZERO, k)] if k else []
    rem = _integer_form(coeffs[k:])
    for root in _root_candidates(rem):
        u, v, m = root.numerator, root.denominator, 0
        while len(rem) > 1 and _vanishes(rem, u, v):
            rem = _exact_quotient(rem, [-u, v])
            m += 1
        if m:
            found.append((root, m))
    found.sort(key=lambda rm: rm[0])
    return found, len(rem) - 1


def lifted_squarefree(coeffs: tuple[Fraction, ...]) -> list[Fraction]:
    """f / gcd(f, f′) scaled to constant term 1, for f with f(0) ≠ 0 (so g(0) ≠ 0)."""
    g = _squarefree(_integer_form(coeffs))
    return [Fraction(c, g[0]) for c in g]


def keyword_verdict(rm: RootMultiset) -> DlfVerdict:
    """The dlf verdict as ``is_dlf`` built it from ``find_roots``, by keyword."""
    repeated = next((r for r, m in rm.roots if m > 1), None)
    if repeated is not None:
        return DlfVerdict(False, repeated_root=repeated, unfactored_degree=rm.unfactored_degree)
    if rm.unfactored_degree:
        return DlfVerdict(False, unfactored_degree=rm.unfactored_degree)
    return DlfVerdict(True, roots=tuple(r for r, _ in rm.roots))

"""Shared test oracles, independent of the library code paths they check."""

from __future__ import annotations

import argparse
import dataclasses
import functools
import itertools
import math
import operator
from collections import Counter
from fractions import Fraction

from hypothesis import strategies as st

from leavitt import cli, digraph, fields, ideals, ktheory, quotients, records, scalars
from leavitt.digraph import OMEGA, Digraph, is_hereditary, is_omega, is_saturated
from leavitt.errors import (
    FieldMismatchError,
    MeetJoinFailureError,
    ResourceLimitError,
    UnsupportedShapeError,
)
from leavitt.fields import Field, Polynomial, RootMultiset


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
    return tuple(ktheory.SimpleClass(sink, tuple(members))
                 for sink, members in terminal.items())


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


def rescan_fiber_violations(m: digraph.DigraphMorphism) -> list[str]:
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
    loops, parallel to one another, of multiplicity 2 or ω."""
    n = draw(st.integers(0, max_vertices))
    vs = [f"v{i}" for i in range(n)]
    ends = st.integers(0, n - 1) if n else st.nothing()
    classes = draw(st.lists(st.tuples(ends, ends, st.sampled_from((1, 1, 2, OMEGA))),
                            max_size=2 * n))
    return Digraph("random", vs, [(f"e{k}", vs[s], vs[t], m)
                                  for k, (s, t, m) in enumerate(classes)])


# -- hereditary saturated sets and the pair lattice by exhaustive search, and the
#    frozenset closure and eager tables that the bit index replaced ---------------

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
    """B_H of a hereditary H by reading every vertex's arrow classes."""
    out = set()
    for v in g.vertices:
        escaping = [a.multiplicity for a in g._out[v] if a.target not in hs]
        if (escaping and not any(map(is_omega, escaping))
                and any(is_omega(a.multiplicity) for a in g._out[v])):
            out.add(v)
    return frozenset(out)


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
    """Every class of the package made by :func:`leavitt.records.record`."""
    return [obj for module in (cli, digraph, fields, ideals, ktheory, quotients, scalars)
            for obj in vars(module).values()
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

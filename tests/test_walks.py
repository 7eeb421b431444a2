"""The one walk along the out-degree-one map and the iterative path counts,
against the per-vertex walks and recursive counts they replaced (oracles in
``helpers``), and on paths long enough that those ran quadratic or out of stack."""

from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    digraphs,
    recursive_paths_ending_at,
    recursive_sink_multiset,
    rescan_fiber_violations,
    walk_is_line_point,
    walk_simple_classes,
)
from leavitt.digraph import (
    Digraph,
    DigraphMorphism,
    check_admissible_morphism,
    classify_vertices,
    cycle_vertices,
    enumerate_cycles,
    is_omega,
    no_exit_cycles,
)
from leavitt.errors import UnsupportedShapeError
from leavitt.fields import Field, Polynomial
from leavitt.ideals import IdealPresentation, enumerate_admissible_pairs, no_exit_quotient_cycles
from leavitt.io import serialize_digraph
from leavitt.ktheory import (
    ProjectivePresentation,
    VertexGen,
    classify_simple_projectives,
    end_finite_dim,
)
from leavitt.quotients import (
    MatrixDecomposition,
    _paths_ending_at,
    dimension_blocks,
    graded_quotient,
    partial_cycle_path_count,
)

from test_cycles import all_cycles_no_exit, quotient_oracle
from test_io_cli import run_cli
from test_validated import counted


F5 = Field.gf(5)
THETAS = (Polynomial.of(F5, [1, 1]), Polynomial.of(F5, [1, 0, 4]), Polynomial.of(F5, [1, 1, 1, 1]))


def path_graph(n: int) -> Digraph:
    vs = [f"v{i}" for i in range(n)]
    return Digraph(f"path{n}", vs, [(f"e{i}", vs[i], vs[i + 1]) for i in range(n - 1)])


def acyclic_part(g: Digraph) -> Digraph:
    """g without its ω classes and the classes that do not go up the vertex order."""
    rank = {v: i for i, v in enumerate(g.vertices)}
    return Digraph(g.name, g.vertices, [a for a in g.arrows if rank[a.source] < rank[a.target]
                                        and not is_omega(a.multiplicity)])


def outcome(fn):
    """fn's result, or the text of the UnsupportedShapeError it raised."""
    try:
        return fn()
    except UnsupportedShapeError as exc:
        return f"error: {exc}"


def recursive_counts(g: Digraph, roots, skip=frozenset()) -> list[int]:
    memo: dict = {}
    return [recursive_paths_ending_at(g, v, skip, memo, set()) for v in roots]


# -- against the oracles ------------------------------------------------------------

@settings(max_examples=200)
@given(g=digraphs())
def test_line_points_and_simple_classes_equal_the_walks(g):
    info = classify_vertices(g)
    assert {v: i.line_point for v, i in info.items()} == {
        v: walk_is_line_point(g, v) for v in g.vertices}
    assert classify_simple_projectives(g) == walk_simple_classes(g)


@settings(max_examples=200)
@given(data=st.data())
def test_no_exit_cycles_equal_the_definition(data):
    g = data.draw(digraphs(max_vertices=8))
    assert no_exit_cycles(g) == all_cycles_no_exit(g, g.out_degree)
    pair = data.draw(st.sampled_from(enumerate_admissible_pairs(g)))
    assert no_exit_quotient_cycles(g, pair) == quotient_oracle(g, pair)


@settings(max_examples=200)
@given(data=st.data())
def test_path_counts_equal_the_recursion(data):
    # errors too: the same ω class or cycle vertex is named first
    g = data.draw(digraphs())
    roots = data.draw(st.lists(st.sampled_from(g.vertices))) if g.vertices else []
    skip = frozenset(data.draw(st.sets(st.sampled_from([a.id for a in g.arrows])))
                     if g.arrows else ())

    def iterative():
        counts = _paths_ending_at(g, roots, Counter(g.vertices), skip)
        return [counts[v] for v in roots]

    assert outcome(iterative) == outcome(lambda: recursive_counts(g, roots, skip))
    for c in no_exit_cycles(g):
        assert outcome(lambda: partial_cycle_path_count(g, c)) == outcome(
            lambda: sum(recursive_counts(g, [a.source for a in map(g.arrow, c.arrows)],
                                         frozenset(c.arrows))))


@settings(max_examples=200)
@given(g=digraphs())
def test_dimension_blocks_equal_the_recursion(g):
    dag = acyclic_part(g)
    assert dimension_blocks(dag) == MatrixDecomposition.of(recursive_counts(dag, dag.sinks()))


@settings(max_examples=200)
@given(data=st.data())
def test_dimension_blocks_of_an_ideal_equal_the_recursion(data):
    # a random digraph, or an acyclic one feeding one to three cycles without
    # exits; β is every no-exit cycle of the graded quotient, so only an ω
    # class or a cycle with an exit there leaves the dimension undefined
    g = data.draw(digraphs(max_vertices=8))
    if data.draw(st.booleans()):
        g = acyclic_part(g)
        vertices, arrows = list(g.vertices), list(g.arrows)
        for k, n in enumerate(data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))):
            cycle = [f"c{k}.{i}" for i in range(n)]
            vertices += cycle
            arrows += [(f"z{k}.{i}", v, cycle[(i + 1) % n]) for i, v in enumerate(cycle)]
            for i in range(data.draw(st.integers(0, 3)) if g.vertices else 0):
                arrows.append((f"y{k}.{i}", data.draw(st.sampled_from(g.vertices)),
                               data.draw(st.sampled_from(cycle)), data.draw(st.sampled_from((1, 2)))))
        g = Digraph(g.name, vertices, arrows)
    pair = data.draw(st.sampled_from(enumerate_admissible_pairs(g)))
    beta = tuple(no_exit_quotient_cycles(g, pair))
    theta = {c: data.draw(st.sampled_from(THETAS)) for c in beta}
    j = IdealPresentation(field=F5, pair=pair, beta=beta, theta=theta)
    work = graded_quotient(g, pair).digraph
    if not work.is_row_finite or any(i.cycle not in theta for i in enumerate_cycles(work)):
        return
    sizes = recursive_counts(work, work.sinks())
    for c in beta:
        sizes += [sum(recursive_counts(work, cycle_vertices(work, c), frozenset(c.arrows)))
                  ] * theta[c].degree
    assert dimension_blocks(g, j) == MatrixDecomposition.of(sizes)


@settings(max_examples=200)
@given(data=st.data())
def test_end_blocks_equal_the_recursion(data):
    g = data.draw(digraphs())
    if not g.vertices:
        return
    items = data.draw(st.lists(st.sampled_from(g.vertices), min_size=1, max_size=4))
    p = ProjectivePresentation.of(VertexGen(v) for v in items)
    for h in (g, acyclic_part(g)):
        verdict = end_finite_dim(h, p)
        if verdict.finite:
            memo: dict = {}
            totals = sum((recursive_sink_multiset(h, v, memo) for v in items), Counter())
            assert verdict.decomposition == MatrixDecomposition.of(totals.values())


@st.composite
def commuting_morphisms(draw) -> DigraphMorphism:
    """A morphism onto a small digraph of multiplicity-one classes: over each
    target arrow, source arrows between vertices that map to its ends, whose
    targets are often exactly the fiber of its target (a bijection)."""
    tv = [f"t{i}" for i in range(draw(st.integers(1, 4)))]
    ta = [(f"b{i}", s, t) for i, (s, t) in enumerate(draw(st.lists(
        st.tuples(st.sampled_from(tv), st.sampled_from(tv)), max_size=5)))]
    vertex_map = dict(draw(st.permutations([(f"s{i}", w) for i, w in enumerate(draw(
        st.lists(st.sampled_from(tv), min_size=1, max_size=6)))])))  # in any order
    fiber = {w: [v for v, x in vertex_map.items() if x == w] for w in tv}
    sa, arrow_map = [], {}
    for b, s, t in ta:
        if fiber[s] and fiber[t]:
            for w in draw(st.permutations(fiber[t]) | st.lists(st.sampled_from(fiber[t]))):
                sa.append((f"a{len(sa)}", draw(st.sampled_from(fiber[s])), w))
                arrow_map[sa[-1][0]] = b
    return DigraphMorphism("m", Digraph("S", list(vertex_map), sa), Digraph("T", tv, ta),
                           vertex_map, arrow_map)


@settings(max_examples=300)
@given(m=commuting_morphisms())
def test_fiber_violations_equal_the_rescan(m):
    report = check_admissible_morphism(m)
    assert [v for v in report.violations if v.startswith("arrow ")] == \
        rescan_fiber_violations(m)


# -- at scale --------------------------------------------------------------------------

def test_deep_path_dimension_and_end(tmp_path):
    graph = tmp_path / "path3000.graph"
    graph.write_text(serialize_digraph(path_graph(3000)))
    pres = tmp_path / "head.pres"
    pres.write_text("P: v0\n")
    assert run_cli("dim", str(graph)) == (0, "9000000 = 1 × M_3000\n")
    assert run_cli("end", str(graph), str(pres)) == (0, "finite: 1 × M_1\n")


def count_list_reads(g: Digraph, counts: Counter):
    """Swap g's adjacency dicts for ones that count every list they hand out,
    the way ``test_validated.counted`` counts calls."""
    class Lists(dict):
        __getitem__ = counted(counts, "lists", dict.__getitem__)

        def items(self):
            counts["lists"] += len(self)
            return dict.items(self)

    g._out, g._in = Lists(g._out), Lists(g._in)


@pytest.mark.parametrize("classify", [classify_vertices, classify_simple_projectives])
def test_a_path_reads_linearly_many_adjacency_lists(classify):
    n = 1000
    g = path_graph(n)
    counts: Counter = Counter()
    count_list_reads(g, counts)
    classify(g)
    assert 0 < counts["lists"] <= 4 * n  # a walk per vertex reads about n²/2

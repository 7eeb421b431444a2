import itertools

import pytest

from helpers import label_isomorphic, maximal_paths_from
from leavitt.cycles import enumerate_cycles, find_any_cycle
from leavitt.digraph import (
    Digraph,
    GeometricCycle,
    OMEGA,
    breaking_vertices,
    classify_vertices,
    cycle_vertices,
    enumerate_hereditary_saturated,
    hereditary_saturated_closure,
    is_hereditary,
    is_saturated,
    to_dot,
)
from leavitt.errors import (
    MalformedMorphismError,
    NotHereditaryError,
    ResourceLimitError,
    UnknownVertexError,
)
from leavitt.morphisms import DigraphMorphism, check_admissible_morphism

from conftest import corpus_graphs, load_graph


class TestConstruction:
    def test_duplicate_vertex(self):
        with pytest.raises(ValueError):
            Digraph("g", ["a", "a"], [])

    def test_duplicate_arrow(self):
        with pytest.raises(ValueError):
            Digraph("g", ["a"], [("e", "a", "a"), ("e", "a", "a")])

    def test_dangling_endpoint(self):
        with pytest.raises(ValueError):
            Digraph("g", ["a"], [("e", "a", "b")])

    def test_out_degree_absorbs_omega(self, breaking):
        assert breaking.out_degree("v") == OMEGA
        assert breaking.out_degree("w") == 0

    def test_multiplicity_counts(self):
        g = load_graph("doublearrow")
        assert g.out_degree("a") == 2


class TestClassification:
    def test_sq2(self, sq2):
        info = classify_vertices(sq2)
        assert info["u"].branch_vertex and info["u"].regular
        assert not info["u"].line_point
        assert info["w1"].sink and info["w2"].sink
        assert info["w1"].line_point and info["w2"].line_point

    def test_path(self):
        info = classify_vertices(load_graph("path2"))
        assert info["a"].line_point and not info["a"].sink
        assert info["b"].sink and info["b"].line_point

    def test_infinite_emitter(self, breaking):
        info = classify_vertices(breaking)
        assert info["v"].infinite_emitter and not info["v"].regular
        assert info["v"].branch_vertex

    def test_leak_always_false(self):
        for g in corpus_graphs().values():
            assert all(not i.leak for i in classify_vertices(g).values())

    def test_line_point_matches_path_enumeration(self):
        # oracle: exactly one maximal instance-level path, ending at a sink
        for g in corpus_graphs().values():
            if len(g.vertices) > 8 or not g.is_row_finite:
                continue
            info = classify_vertices(g)
            for v in g.vertices:
                paths = maximal_paths_from(g, v)
                expected = paths is not None and len(paths) == 1
                assert info[v].line_point == expected, (g.name, v)


class TestCycles:
    def test_sq3_flags(self, sq3):
        cycles = enumerate_cycles(sq3)
        by_label = {c.cycle.label(): c for c in cycles}
        assert set(by_label) == {"(c1)", "(c2)"}
        assert by_label["(c1)"].has_exit
        assert not by_label["(c2)"].has_exit
        assert by_label["(c2)"].exclusive

    def test_acyclic_empty(self):
        assert enumerate_cycles(load_graph("path2")) == []

    def test_multiplicity_two_loop_has_exit(self):
        g = Digraph("m", ["v"], [("e", "v", "v", 2)])
        (info,) = enumerate_cycles(g)
        assert info.has_exit and not info.multiplicity_one

    def test_parallel_classes_give_distinct_cycles(self):
        g = Digraph("par", ["a", "b"],
                    [("e", "a", "b"), ("g", "a", "b"), ("f", "b", "a")])
        labels = {c.cycle.label() for c in enumerate_cycles(g)}
        assert labels == {"(e f)", "(f g)"}
        assert all(not c.exclusive for c in enumerate_cycles(g))

    def test_rotation_canonical(self):
        for g in corpus_graphs().values():
            for info in enumerate_cycles(g):
                arrows = info.cycle.arrows
                for k in range(len(arrows)):
                    rotation = arrows[k:] + arrows[:k]
                    assert GeometricCycle.of(rotation) == info.cycle

    def test_no_exit_implies_exclusive(self):
        for g in corpus_graphs().values():
            for info in enumerate_cycles(g):
                if not info.has_exit:
                    assert info.exclusive, (g.name, info)

    def test_limit(self, sq3):
        with pytest.raises(ResourceLimitError):
            enumerate_cycles(sq3, limit=1)

    def test_cycle_vertices_validates(self, sq3):
        with pytest.raises(ValueError):
            cycle_vertices(sq3, GeometricCycle(("c1", "c2")))

    def test_find_any_cycle(self, sq3):
        assert find_any_cycle(sq3) is not None
        assert find_any_cycle(load_graph("fork")) is None


class TestClosure:
    def test_already_closed(self, sq2):
        assert hereditary_saturated_closure(sq2, {"w2"}) == {"w2"}

    def test_saturation_forces(self):
        fork = load_graph("fork")
        assert hereditary_saturated_closure(fork, {"w1", "w2"}) == {"v", "w1", "w2"}

    def test_empty(self, sq2):
        assert hereditary_saturated_closure(sq2, set()) == frozenset()

    def test_unknown_vertex(self, sq2):
        with pytest.raises(UnknownVertexError):
            hereditary_saturated_closure(sq2, {"zz"})

    def test_closure_properties_all_small_graphs(self):
        # extensive, monotone, idempotent on all subsets of <= 6-vertex graphs
        for g in corpus_graphs().values():
            if len(g.vertices) > 6:
                continue
            vs = list(g.vertices)
            subsets = [frozenset(c) for r in range(len(vs) + 1)
                       for c in itertools.combinations(vs, r)]
            closure = {x: hereditary_saturated_closure(g, x) for x in subsets}
            for x in subsets:
                assert x <= closure[x]
                assert closure[closure[x]] == closure[x]
                assert is_hereditary(g, closure[x]) and is_saturated(g, closure[x])
            for x, y in itertools.combinations(subsets, 2):
                if x <= y:
                    assert closure[x] <= closure[y]
                if y <= x:
                    assert closure[y] <= closure[x]


class TestHereditarySaturatedSets:
    def test_sq2(self, sq2):
        sets = enumerate_hereditary_saturated(sq2)
        assert [sorted(s) for s in sets] == [
            [], ["w1"], ["w2"], ["w1", "w2"], ["u", "w1", "w2"]]

    def test_single_sink(self):
        g = Digraph("s", ["v"], [])
        assert enumerate_hereditary_saturated(g) == [frozenset(), frozenset({"v"})]

    def test_sq3(self, sq3):
        assert [sorted(s) for s in enumerate_hereditary_saturated(sq3)] == [
            [], ["v2"], ["v1", "v2"]]

    def test_definition_checks(self):
        for g in corpus_graphs().values():
            if len(g.vertices) > 8:
                continue
            for hs in enumerate_hereditary_saturated(g):
                assert is_hereditary(g, hs)
                assert is_saturated(g, hs)

    def test_vertex_bound(self):
        g = Digraph("big", [f"v{i}" for i in range(17)], [])
        with pytest.raises(ResourceLimitError):
            enumerate_hereditary_saturated(g)


class TestBreakingVertices:
    def test_single_escape(self, breaking):
        assert breaking_vertices(breaking, {"h"}) == {"v"}

    def test_row_finite_empty(self):
        for name in ("sq2", "sq3", "sq5", "dq4", "ek"):
            g = load_graph(name)
            for hs in enumerate_hereditary_saturated(g):
                assert breaking_vertices(g, hs) == frozenset()

    def test_omega_escape_disqualifies(self):
        g = load_graph("breaking-omega2")
        assert breaking_vertices(g, {"h"}) == frozenset()

    def test_not_hereditary(self, sq2):
        with pytest.raises(NotHereditaryError):
            breaking_vertices(sq2, {"u"})

    def test_unknown_id_before_hereditary(self, sq2):
        # {u} is not hereditary either: the unknown id is named first
        with pytest.raises(UnknownVertexError, match="'zz'"):
            breaking_vertices(sq2, {"u", "zz"})

    def test_reads_the_arrows_at_h_without_the_bit_index(self, breaking):
        assert breaking_vertices(breaking, {"h"}) == {"v"}
        with pytest.raises(NotHereditaryError):
            breaking_vertices(breaking, {"v"})
        assert "bits" not in vars(breaking)


class TestReachability:
    def test_successors(self, sq3):
        assert sq3.successors({"v1"}) == {"v1", "v2"}
        assert sq3.predecessors({"v2"}) == {"v1", "v2"}

    def test_full_subgraph_sq5_is_sq3(self, sq5, sq3):
        sub = sq5.full_subgraph({"v1", "v2"})
        assert label_isomorphic(sub, sq3)

    def test_unknown(self, sq3):
        with pytest.raises(UnknownVertexError):
            sq3.successors({"nope"})


class TestMorphisms:
    def test_inclusion_valid(self, sq2):
        dq2 = load_graph("dq2")
        inc = DigraphMorphism("inc", dq2, sq2,
                              {"u": "u", "w1": "w1"}, {"c": "c", "a1": "a1"})
        assert check_admissible_morphism(inc).valid

    def test_identity_valid(self):
        for g in corpus_graphs().values():
            if not all(a.multiplicity == 1 for a in g.arrows):
                continue
            ident = DigraphMorphism("id", g, g, {v: v for v in g.vertices},
                                    {a.id: a.id for a in g.arrows})
            assert check_admissible_morphism(ident).valid

    def test_sink_to_regular_invalid(self, sq3):
        p = load_graph("path2")
        bad = DigraphMorphism("bad", p, sq3, {"a": "v1", "b": "v1"}, {"e": "c1"})
        report = check_admissible_morphism(bad)
        assert not report.valid
        assert any("sink b" in v for v in report.violations)

    def test_non_commuting_rejected(self, sq3):
        p = load_graph("path2")
        with pytest.raises(MalformedMorphismError):
            check_admissible_morphism(DigraphMorphism(
                "m", p, sq3, {"a": "v1", "b": "v2"}, {"e": "c1"}))

    def test_partial_map_rejected(self, sq2):
        dq2 = load_graph("dq2")
        with pytest.raises(MalformedMorphismError):
            check_admissible_morphism(DigraphMorphism(
                "m", dq2, sq2, {"u": "u"}, {"c": "c", "a1": "a1"}))


class TestDot:
    def test_deterministic(self, sq2):
        assert to_dot(sq2) == to_dot(sq2)

    def test_omega_label(self, breaking):
        assert 'label="om (ω)"' in to_dot(breaking)

    def test_declaration_order(self, sq2):
        dot = to_dot(sq2)
        assert dot.index('"u";') < dot.index('"w1";') < dot.index('"w2";')


class TestLabelIsomorphismHelper:
    def test_matches_itself(self):
        for g in corpus_graphs().values():
            assert label_isomorphic(g, g)

    def test_distinguishes(self, sq2, sq3):
        assert not label_isomorphic(sq2, sq3)
        assert not label_isomorphic(load_graph("path2"), load_graph("doublearrow"))

    def test_renamed_graph(self, sq2):
        renamed = Digraph("other", ["x", "y", "z"],
                          [("p", "x", "x"), ("q", "x", "y"), ("r", "x", "z")])
        assert label_isomorphic(sq2, renamed)

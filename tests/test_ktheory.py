import itertools

import pytest

from leavitt.cycles import enumerate_cycles
from leavitt.digraph import (
    Digraph,
    GeometricCycle,
    cycle_vertices,
    enumerate_hereditary_saturated,
    hereditary_saturated_closure,
)
from leavitt.dimension import MatrixDecomposition, dimension_blocks
from leavitt.errors import (
    InvalidIdealError,
    MalformedGeneratorsError,
    NotRowFiniteError,
    UnsupportedShapeError,
)
from leavitt.fields import Field, Polynomial
from leavitt.ideals import AdmissiblePair, pair_order
from leavitt.ktheory import (
    CornerGen,
    ProjectivePresentation,
    VertexGen,
    galois_phi,
    galois_psi,
    validate_presentation,
)
from leavitt.lattice import enumerate_admissible_pairs
from leavitt.presentations import IdealPresentation
from leavitt.projectives import (
    CongruenceVerdict,
    classify_fgips,
    classify_simple_projectives,
    end_finite_dim,
    is_orthogonal,
    monoid_congruent,
    monoid_presentation,
)

from conftest import corpus_graphs, load_graph, load_ideal
from helpers import enumerated_dimension_blocks
from test_io_cli import SAMPLE_ARGS, cpath, run_cli
from test_validated import count_calls

Q = Field.rationals()


def graded(pair):
    return IdealPresentation(field=Q, pair=pair)


class TestMonoidPresentation:
    def test_sq2_relation(self, sq2):
        pres = monoid_presentation(sq2)
        assert pres.generators == ("u", "w1", "w2")
        assert pres.relations == (("u", (("u", 1), ("w1", 1), ("w2", 1))),)

    def test_sinks_no_relations(self):
        g = Digraph("sinks", ["a", "b"], [])
        assert monoid_presentation(g).relations == ()

    def test_path_relation(self):
        pres = monoid_presentation(load_graph("path2"))
        assert pres.relations == (("a", (("b", 1),)),)

    def test_multiplicities(self):
        pres = monoid_presentation(load_graph("doublearrow"))
        assert pres.relations == (("a", (("b", 2),)),)

    def test_row_finite_required(self, breaking):
        with pytest.raises(NotRowFiniteError):
            monoid_presentation(breaking)


class TestCongruence:
    def test_path(self):
        g = load_graph("path2")
        assert monoid_congruent(g, {"a": 1}, {"b": 1}, depth=1) \
            == CongruenceVerdict.CONGRUENT

    def test_sq2_expansion(self, sq2):
        assert monoid_congruent(sq2, {"u": 1}, {"u": 1, "w1": 1, "w2": 1}) \
            == CongruenceVerdict.CONGRUENT

    def test_isolated_never_meet(self):
        g = Digraph("iso", ["v1", "v2"], [])
        assert monoid_congruent(g, {"v1": 1}, {"v2": 1}, depth=30) \
            == CongruenceVerdict.NOT_WITHIN_DEPTH

    def test_reflexive(self, sq3):
        assert monoid_congruent(sq3, {"v1": 2}, {"v1": 2}) \
            == CongruenceVerdict.CONGRUENT

    def test_closure_steps_have_congruence_witnesses(self):
        # every saturation/hereditary step of the closure is a one-relation rewrite
        for g in corpus_graphs().values():
            if not g.is_row_finite or len(g.vertices) > 6:
                continue
            relations = dict(monoid_presentation(g).relations)
            for r in range(len(g.vertices) + 1):
                for xs in itertools.combinations(g.vertices, min(r, 2)):
                    closed = hereditary_saturated_closure(g, xs)
                    for v in closed:
                        if v not in relations:
                            continue
                        targets = {w: k for w, k in relations[v]}
                        assert monoid_congruent(g, {v: 1}, targets, depth=8) \
                            == CongruenceVerdict.CONGRUENT


class TestGalois:
    def test_round_trip_all_corpus_pairs(self):
        for g in corpus_graphs().values():
            if len(g.vertices) > 8:
                continue
            for pair in enumerate_admissible_pairs(g):
                descriptor = galois_phi(g, pair)
                back = galois_psi(g, descriptor.generating_items(g))
                assert back == pair, (g.name, pair.label(), back.label())

    def test_phi_injective_count(self):
        # closed submonoids from pairs are exactly as many as hereditary
        # saturated sets on row-finite graphs
        for g in corpus_graphs().values():
            if not g.is_row_finite or len(g.vertices) > 8:
                continue
            submonoids = {galois_phi(g, pair) for pair in enumerate_admissible_pairs(g)}
            assert len(submonoids) == len(enumerate_hereditary_saturated(g))

    def test_psi_saturation(self):
        fork = load_graph("fork")
        pair = galois_psi(fork, [VertexGen("w1"), VertexGen("w2")])
        assert pair == AdmissiblePair.of({"v", "w1", "w2"})

    def test_psi_empty(self, sq2):
        assert galois_psi(sq2, []) == AdmissiblePair.of(set())

    def test_psi_corner_forces_targets(self, breaking):
        # corner at v omitting only the escaping arrow: omega targets land in H
        pair = galois_psi(breaking, [CornerGen("v", frozenset({("a", 0)}))])
        assert pair == AdmissiblePair.of({"h"}, {"v"})

    def test_psi_corner_all_targets_forces_vertex(self, breaking):
        # corner whose Z misses instances of both classes forces everything
        pair = galois_psi(breaking, [VertexGen("h"), VertexGen("w"),
                                     CornerGen("v", frozenset({("a", 0)}))])
        assert pair == AdmissiblePair.of({"h", "v", "w"})

    def test_phi_psi_phi_is_phi(self):
        for g in corpus_graphs().values():
            if len(g.vertices) > 6:
                continue
            for pair in enumerate_admissible_pairs(g):
                x = galois_phi(g, pair)
                again = galois_phi(g, galois_psi(g, x.generating_items(g)))
                assert again == x


class TestOrthogonality:
    def test_vertex_membership(self, sq2):
        j = graded(AdmissiblePair.of({"w2"}))
        assert is_orthogonal(sq2, ProjectivePresentation.of([VertexGen("w2")]), j)
        assert not is_orthogonal(sq2, ProjectivePresentation.of([VertexGen("w1")]), j)

    def test_empty_presentation(self, sq2):
        for pair in enumerate_admissible_pairs(sq2):
            assert is_orthogonal(sq2, ProjectivePresentation.of([]), graded(pair))

    def test_corner_with_escaping_instances(self, breaking):
        j = load_ideal("breaking-ideal")
        p = ProjectivePresentation.of([CornerGen("v", frozenset({("a", 0)}))])
        assert is_orthogonal(breaking, p, j)
        j_without_s = graded(AdmissiblePair.of({"h"}))
        assert not is_orthogonal(breaking, p, j_without_s)

    def test_monotone_in_ideal(self):
        # P ⊥ I and I ⊆ J imply P ⊥ J, over all graded corpus ideals
        for g in corpus_graphs().values():
            if len(g.vertices) > 6:
                continue
            pairs = enumerate_admissible_pairs(g)
            presentations = [ProjectivePresentation.of([VertexGen(v)])
                             for v in g.vertices]
            for pair in pairs:
                presentations.append(
                    galois_phi(g, pair).generating_items(g))
            for a, b in itertools.product(pairs, repeat=2):
                if not pair_order(g, a, b):
                    continue
                for p in presentations:
                    if is_orthogonal(g, p, graded(a)):
                        assert is_orthogonal(g, p, graded(b)), \
                            (g.name, a.label(), b.label())

    def test_removing_generators_preserves(self):
        for g in corpus_graphs().values():
            if len(g.vertices) > 6:
                continue
            for pair in enumerate_admissible_pairs(g):
                p = galois_phi(g, pair).generating_items(g)
                j = graded(pair)
                if is_orthogonal(g, p, j):
                    for r in range(len(p.items)):
                        sub = ProjectivePresentation.of(
                            p.items[:r] + p.items[r + 1:])
                        assert is_orthogonal(g, sub, j)

    def test_validates_inputs(self, sq2):
        with pytest.raises(MalformedGeneratorsError):
            is_orthogonal(sq2, ProjectivePresentation.of(
                [CornerGen("u", frozenset())]), graded(AdmissiblePair.of(set())))
        c1 = GeometricCycle.of(["c"])
        bad = IdealPresentation(field=Q, pair=AdmissiblePair.of(set()),
                                beta=(c1,), theta={c1: Polynomial.of(Q, [2, 1])})
        with pytest.raises(InvalidIdealError):
            is_orthogonal(sq2, ProjectivePresentation.of([]), bad)
        with pytest.raises(MalformedGeneratorsError):  # P is checked before J
            is_orthogonal(sq2, ProjectivePresentation.of([CornerGen("u", frozenset())]), bad)

    def test_orth_validates_p_once(self, monkeypatch, tmp_path, capsys):
        counts = count_calls(monkeypatch, ("validate_presentation",))
        assert run_cli("orth", *SAMPLE_ARGS["orth"]) == (0, "orthogonal: true\n")
        monkeypatch.undo()
        assert counts["validate_presentation"] == 1
        # a bad P and a bad J: P is reported
        pres, ideal = tmp_path / "p.pres", tmp_path / "j.ideal"
        pres.write_text("corner u {}\n")
        ideal.write_text("ideal j\nfield Q\ncycle C: c\npoly C: 2 1\n")
        assert run_cli("orth", cpath("sq2"), str(ideal), str(pres)) == (3, "")
        assert capsys.readouterr().err == "validation error: corner at u has empty Z\n"


class TestSimpleProjectives:
    def test_path(self):
        (cls,) = classify_simple_projectives(load_graph("path2"))
        assert cls.representative == "b" and cls.members == ("a", "b")

    def test_no_sinks(self, sq3):
        assert classify_simple_projectives(sq3) == ()

    def test_ek_severed(self):
        classes = classify_simple_projectives(load_graph("ek-severed"))
        assert [c.representative for c in classes] == ["v1.1", "v1.2", "v1.3"]
        # tail vertices branch, so only the sinks themselves are line points
        assert all(c.members == (c.representative,) for c in classes)

    def test_members_are_line_points(self):
        from leavitt.digraph import classify_vertices
        for g in corpus_graphs().values():
            info = classify_vertices(g)
            line_points = {v for v in g.vertices if info[v].line_point}
            covered = set()
            for cls in classify_simple_projectives(g):
                covered |= set(cls.members)
            if g.is_row_finite:
                assert covered == line_points, g.name


class TestFgips:
    def test_sq3(self, sq3):
        (cls,) = classify_fgips(sq3)
        assert cls.cycle.label() == "(c2)"
        assert cls.support == {"v1", "v2"}

    def test_acyclic_empty(self):
        assert classify_fgips(load_graph("path2")) == ()

    def test_ek_whole_graph_support(self, ek):
        (cls,) = classify_fgips(ek)
        assert cls.support == {"v1", "v2", "v3", "v4"}

    def test_empty_iff_no_laurent_corner(self):
        # vLv is a Laurent ring exactly when v lies on a cycle without exit:
        # each vertex of the cycle emits just the cycle's one arrow instance
        laurent_seen = 0
        for g in corpus_graphs().values():
            laurent = any(all(g.out_degree(v) == 1 for v in cycle_vertices(g, info.cycle))
                          for info in enumerate_cycles(g))
            assert bool(classify_fgips(g)) == laurent, g.name
            laurent_seen += laurent
        assert 0 < laurent_seen < len(corpus_graphs())


class TestEndFiniteDim:
    def test_ek_severed_tail(self):
        g = load_graph("ek-severed")
        verdict = end_finite_dim(g, ProjectivePresentation.of([VertexGen("v2")]))
        assert verdict.finite
        assert verdict.decomposition.blocks == ((1, 3),)

    def test_cycle_witness(self, sq2):
        verdict = end_finite_dim(sq2, ProjectivePresentation.of([VertexGen("u")]))
        assert not verdict.finite and "cycle" in verdict.witness

    def test_two_copies_of_sink(self):
        g = load_graph("path2")
        verdict = end_finite_dim(
            g, ProjectivePresentation.of([VertexGen("b"), VertexGen("b")]))
        assert verdict.finite and verdict.decomposition.blocks == ((2, 1),)

    def test_corner_infinite(self, breaking):
        verdict = end_finite_dim(
            breaking, ProjectivePresentation.of([CornerGen("v", frozenset({("a", 0)}))]))
        assert not verdict.finite and "corner" in verdict.witness

    def test_omega_witness(self, breaking):
        verdict = end_finite_dim(breaking, ProjectivePresentation.of([VertexGen("v")]))
        assert not verdict.finite and "ω" in verdict.witness

    def test_total_dimension_matches_path_counts(self):
        # oracle: sink multiplicities are instance-level path counts from v
        from collections import Counter

        from helpers import maximal_paths_from
        for g in corpus_graphs().values():
            if not g.is_row_finite:
                continue
            for v in g.vertices:
                verdict = end_finite_dim(g, ProjectivePresentation.of([VertexGen(v)]))
                if not verdict.finite:
                    continue
                paths = maximal_paths_from(g, v)
                assert paths is not None
                ends = Counter()
                for p in paths:
                    ends[g.arrow(p[-1][0]).target if p else v] += 1
                assert verdict.decomposition == MatrixDecomposition.of(ends.values())
                assert verdict.decomposition.total_dimension \
                    == sum(k * k for k in ends.values())


class TestAcyclicDecomposition:
    # one M_n(v) block per sink of an acyclic digraph
    def test_ek_severed(self):
        d = dimension_blocks(load_graph("ek-severed"))
        assert d.blocks == ((4, 3),) and d.total_dimension == 48
        assert d.describe() == "3 × M_4"

    def test_single_vertex(self):
        assert dimension_blocks(Digraph("s", ["v"], [])).blocks == ((1, 1),)

    def test_fork(self):
        d = dimension_blocks(load_graph("fork"))
        assert d.blocks == ((2, 2),) and d.total_dimension == 8

    def test_omega_rejected(self, breaking):
        with pytest.raises(UnsupportedShapeError):
            dimension_blocks(breaking)

    def test_matches_quotient_dimension(self):
        # and the enumeration-based check, on every acyclic corpus graph
        from leavitt.cycles import find_any_cycle
        for g in corpus_graphs().values():
            if not g.is_row_finite or find_any_cycle(g) is not None:
                continue
            assert dimension_blocks(g) == enumerated_dimension_blocks(g)


class TestPresentationValidation:
    def test_instance_bounds(self):
        g = load_graph("doublearrow")
        validate_presentation(g, ProjectivePresentation.of(
            [CornerGen("a", frozenset({("e", 1)}))]))
        with pytest.raises(MalformedGeneratorsError):
            validate_presentation(g, ProjectivePresentation.of(
                [CornerGen("a", frozenset({("e", 2)}))]))

    def test_z_must_leave_room(self):
        g = load_graph("doublearrow")
        with pytest.raises(MalformedGeneratorsError):
            validate_presentation(g, ProjectivePresentation.of(
                [CornerGen("a", frozenset({("e", 0), ("e", 1)}))]))

    def test_omega_indices_unbounded(self, breaking):
        validate_presentation(breaking, ProjectivePresentation.of(
            [CornerGen("v", frozenset({("om", 123)}))]))

    def test_regular_corner_normal_form(self):
        # a is regular: corner a {e#1} is a − e₁e₁* = e₀e₀*, the projective bL
        g = load_graph("doublearrow")
        p = ProjectivePresentation.of([VertexGen("a"), CornerGen("a", frozenset({("e", 1)})),
                                       VertexGen("b")])
        assert validate_presentation(g, p) == ProjectivePresentation.of(
            [VertexGen("a"), VertexGen("b"), VertexGen("b")])

    def test_a_vertex_item_has_a_copy(self, sq2):
        with pytest.raises(MalformedGeneratorsError):
            validate_presentation(sq2, ProjectivePresentation.of([VertexGen("w1", 0)]))

    def test_corners_at_infinite_emitters_stay(self, breaking):
        p = ProjectivePresentation.of([VertexGen("h"), CornerGen("v", frozenset({("a", 0)}))])
        assert validate_presentation(breaking, p) is p

    def test_wrong_source(self, sq2):
        with pytest.raises(MalformedGeneratorsError):
            validate_presentation(sq2, ProjectivePresentation.of(
                [CornerGen("w1", frozenset({("c", 0)}))]))

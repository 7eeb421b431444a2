import pytest
from hypothesis import given, settings

from helpers import SinkBlockRepresentation, label_isomorphic, planted_ideals, rederived_certificate
from leavitt.cycles import enumerate_cycles
from leavitt.digraph import Digraph, GeometricCycle
from leavitt.dimension import dimension_blocks, quotient_dimension
from leavitt.errors import (
    CycleHasExitError,
    CyclesNotDisjointError,
    InvalidIdealError,
    LeavittError,
    NotDlfError,
    UnsupportedShapeError,
)
from leavitt.fields import Field, Polynomial
from leavitt.ideals import AdmissiblePair
from leavitt.io import parse_digraph
from leavitt.lattice import enumerate_admissible_pairs
from leavitt.presentations import IdealPresentation, parse_ideal
from leavitt.quotients import (
    cycle_to_loop,
    decide_lpa_quotient,
    graded_quotient,
    iso_certificate,
    radical_quotient,
    sever,
)

from conftest import corpus_graphs, corpus_ideal_pairs, load_graph, load_ideal
from test_io_cli import run_cli

Q = Field.rationals()
F2, F3, F5 = Field.gf(2), Field.gf(3), Field.gf(5)


def ideal(field, h=(), s=(), beta=(), theta=(), name="j"):
    return IdealPresentation(field=field, pair=AdmissiblePair.of(h, s),
                             beta=tuple(beta), theta=dict(theta), name=name)


class TestGradedQuotient:
    def test_sq2_mod_w2_is_dq2(self, sq2):
        result = graded_quotient(sq2, AdmissiblePair.of({"w2"}))
        assert label_isomorphic(result.digraph, load_graph("dq2"))

    def test_identity(self):
        for g in corpus_graphs().values():
            result = graded_quotient(g, AdmissiblePair.of(set()))
            assert result.digraph == g
            assert all(origin == f"{kind} {new}"
                       for (kind, new), origin in result.provenance.items())

    def test_breaking_vertex_kept_out_of_s(self, breaking):
        result = graded_quotient(breaking, AdmissiblePair.of({"h"}))
        g = result.digraph
        assert set(g.vertices) == {"v", "w", "v'"}
        assert [(a.id, a.source, a.target) for a in g.arrows] == [("a", "v", "w")]
        assert not g.out_arrows("v'") and not g.in_arrows("v'")
        assert result.provenance["vertex", "v'"] == "breaking-sink v"

    def test_breaking_vertex_in_s(self, breaking):
        result = graded_quotient(breaking, AdmissiblePair.of({"h"}, {"v"}))
        assert set(result.digraph.vertices) == {"v", "w"}

    def test_sq5_mod_v3_is_sq3(self, sq5, sq3):
        result = graded_quotient(sq5, AdmissiblePair.of({"v3"}))
        assert label_isomorphic(result.digraph, sq3)

    def test_primed_arrows_duplicate(self):
        g = Digraph("g", ["p", "v", "h"],
                    [("into", "p", "v"), ("om", "v", "h", 2**0)])
        # make v a breaking vertex: an omega class into h plus the arrow from p
        from leavitt.digraph import OMEGA
        g = Digraph("g", ["p", "v", "h"],
                    [("into", "p", "v"), ("om", "v", "h", OMEGA), ("esc", "v", "p")])
        result = graded_quotient(g, AdmissiblePair.of({"h"}))
        arrows = {(a.id, a.source, a.target) for a in result.digraph.arrows}
        assert ("into", "p", "v") in arrows
        assert ("into'", "p", "v'") in arrows  # duplicated toward the primed sink


class TestCycleToLoop:
    def test_lemma_loop_example(self):
        lex = load_graph("loopex")
        cyc = GeometricCycle.of(["f", "g", "e"])
        assert cyc.arrows == ("e", "f", "g")  # canonical rotation cuts at e
        result = cycle_to_loop(lex, [cyc])
        arrows = {(a.id, a.source, a.target) for a in result.digraph.arrows}
        assert ("e'", "b", "b") in arrows
        assert ("f", "m", "r") in arrows and ("g", "r", "b") in arrows

    def test_loop_unchanged(self, loop):
        assert cycle_to_loop(loop, [GeometricCycle.of(["e"])]).digraph == loop

    def test_two_cycle(self):
        two = Digraph("two", ["a", "b"], [("e", "a", "b"), ("f", "b", "a")])
        result = cycle_to_loop(two, [GeometricCycle.of(["e", "f"])])
        g = result.digraph
        assert len(g.vertices) == 2 and len(g.arrows) == 2
        arrows = {(a.id, a.source, a.target) for a in g.arrows}
        assert ("e'", "a", "a") in arrows and ("f", "b", "a") in arrows

    def test_preserves_counts_and_sinks(self):
        for g in corpus_graphs().values():
            no_exit = [i.cycle for i in enumerate_cycles(g) if not i.has_exit]
            if not no_exit:
                continue
            result = cycle_to_loop(g, no_exit)
            out = result.digraph
            assert out.vertices == g.vertices
            assert len(out.arrows) == len(g.arrows)
            assert out.sinks() == g.sinks()
            rewritten = [i for i in enumerate_cycles(out) if not i.has_exit]
            loops = [i for i in rewritten if len(i.cycle) == 1]
            assert len(loops) >= len(no_exit)  # every input cycle became a loop

    def test_exit_rejected(self, sq3):
        with pytest.raises(CycleHasExitError):
            cycle_to_loop(sq3, [GeometricCycle.of(["c1"])])

    def test_overlap_rejected(self):
        two = Digraph("two", ["a", "b"],
                      [("e", "a", "b"), ("f", "b", "a")])
        cyc = GeometricCycle.of(["e", "f"])
        with pytest.raises(CyclesNotDisjointError):
            cycle_to_loop(two, [cyc, cyc])


class TestSever:
    def test_ek_shape(self, ek):
        j = load_ideal("ek-ideal-Q")
        result = sever(ek, j)
        g = result.digraph
        assert len(g.vertices) == 6
        assert sorted(g.sinks()) == ["v1.1", "v1.2", "v1.3"]
        assert label_isomorphic(g, load_graph("ek-severed"))

    def test_single_loop_two_points(self, loop):
        j = load_ideal("complex-ideal-F5")
        g = sever(loop, j).digraph
        assert g.vertices == ("v.1", "v.2") and g.arrows == ()

    def test_n4_star(self):
        dq4 = load_graph("dq4")
        j = load_ideal("n4-ideal-F5")
        g = sever(dq4, j).digraph
        assert set(g.sinks()) == {"v.1", "v.2", "v.3", "v.4"}
        assert {a.source for a in g.arrows if not a.source == a.target} == {"v1"}
        assert len(g.in_arrows("v.1")) == 1

    def test_ch2_gives_sq2(self, sq5, sq2):
        j = load_ideal("ch2-ideal-F3")
        assert label_isomorphic(sever(sq5, j).digraph, sq2)

    def test_degree_one_gives_dq2(self, sq5):
        # 1 - x on the surviving loop collapses it to a single sink
        j = load_ideal("sq21-ideal-Q")
        assert label_isomorphic(sever(sq5, j).digraph, load_graph("dq2"))

    def test_degree_only_dependence(self, loop):
        c = GeometricCycle.of(["e"])
        j1 = ideal(F5, beta=[c], theta=[(c, Polynomial.of(F5, [1, 0, 1]))])
        j2 = ideal(F5, beta=[c], theta=[(c, Polynomial.of(F5, [1, 4, 1]))])
        assert sever(loop, j1).digraph == sever(loop, j2).digraph

    def test_invalid_ideal_raises(self, sq5):
        c1 = GeometricCycle.of(["c1"])
        j = ideal(F2, h={"v3"}, beta=[c1], theta=[(c1, Polynomial.of(F2, [1, 1]))])
        with pytest.raises(InvalidIdealError):
            sever(sq5, j)

    def test_provenance_covers_output(self):
        for g, j in corpus_ideal_pairs():
            result = sever(g, j)
            ids = {("vertex", v) for v in result.digraph.vertices}
            assert ids | {("arrow", a.id) for a in result.digraph.arrows} == set(result.provenance)

    def test_graded_ideal_severs_to_graded_quotient(self, sq5):
        j = load_ideal("ch2-graded-Q")
        assert sever(sq5, j).digraph == graded_quotient(sq5, j.pair).digraph


class TestDecide:
    def test_complex_over_q_not_lpa(self, loop):
        d = decide_lpa_quotient(loop, load_ideal("complex-ideal-Q"))
        assert not d.is_lpa and d.severed is None
        (report,) = d.reports
        assert report.verdict.unfactored_degree == 2

    def test_complex_over_f5_is_lpa(self, loop):
        d = decide_lpa_quotient(loop, load_ideal("complex-ideal-F5"))
        assert d.is_lpa
        assert d.severed.digraph.vertices == ("v.1", "v.2")
        (report,) = d.reports
        assert report.verdict.roots == (2, 3)

    def test_ch2_f2_repeated_root(self, sq5):
        d = decide_lpa_quotient(sq5, load_ideal("ch2-ideal-F2"))
        assert not d.is_lpa
        (report,) = d.reports
        assert report.label == "C2" and report.verdict.repeated_root == 1

    def test_graded_always_lpa(self):
        for g in corpus_graphs().values():
            for pair in enumerate_admissible_pairs(g):
                d = decide_lpa_quotient(g, IdealPresentation(field=Q, pair=pair))
                assert d.is_lpa
                assert d.severed.digraph == graded_quotient(g, pair).digraph


class TestCertificate:
    def test_complex_f5(self, loop):
        cert = iso_certificate(loop, load_ideal("complex-ideal-F5"))
        assert cert.image_of("v") == ((1, "v.1"), (1, "v.2"))
        assert cert.image_of("C") == ((2, "v.1"), (3, "v.2"))

    def test_ch2_f3(self, sq5):
        cert = iso_certificate(sq5, load_ideal("ch2-ideal-F3"))
        assert cert.image_of("v2") == ((1, "v2.1"), (1, "v2.2"))
        assert cert.image_of("C2") == ((1, "v2.1"), (2, "v2.2"))
        assert cert.image_of("a12") == ((1, "a12.1"), (1, "a12.2"))
        assert cert.image_of("v1") == ((1, "v1"),)
        assert cert.image_of("c1") == ((1, "c1"),)

    def test_generators_cover_quotient_exactly_once(self):
        for g, j in corpus_ideal_pairs():
            d = decide_lpa_quotient(g, j)
            if not d.is_lpa:
                continue
            cert = iso_certificate(g, j)
            quotient = graded_quotient(g, j.pair).digraph
            vertex_gens = [e.generator for e in cert.entries if e.kind == "vertex"]
            assert vertex_gens == list(quotient.vertices)
            arrow_like = [e for e in cert.entries if e.kind != "vertex"]
            assert len(arrow_like) == len(quotient.arrows)

    def test_severing_records_the_images(self, loop):
        severed = sever(loop, load_ideal("complex-ideal-F5"))
        assert severed.images == (("vertex", "v", ("v.1", "v.2")), ("cycle", "e", ("v.1", "v.2")))
        assert graded_quotient(loop, AdmissiblePair.of(())).images == ()

    def test_equals_the_rederived_certificate_on_corpus(self):
        certified = 0
        for g, j in corpus_ideal_pairs():
            try:
                expected = rederived_certificate(g, j)
            except LeavittError as exc:
                with pytest.raises(type(exc)):
                    iso_certificate(g, j)
                continue
            assert iso_certificate(g, j) == expected, (g.name, j.name)
            certified += 1
        assert certified >= 7  # the dlf pairs

    @settings(max_examples=150, deadline=None)
    @given(planted=planted_ideals())
    def test_equals_the_rederived_certificate_on_planted_ideals(self, planted):
        g, j = planted
        assert iso_certificate(g, j) == rederived_certificate(g, j)

    def test_graded_certificate_is_identity(self, breaking):
        j = load_ideal("breaking-ideal")
        gp = IdealPresentation(field=Q, pair=AdmissiblePair.of({"h"}))
        cert = iso_certificate(breaking, gp)
        assert cert.image_of("v") == ((1, "v"),)
        assert cert.image_of("v'") == ((1, "v'"),)

    def test_not_dlf_raises(self, loop):
        with pytest.raises(NotDlfError):
            iso_certificate(loop, load_ideal("complex-ideal-Q"))

    def test_image_targets_exist_in_severed(self):
        for g, j in corpus_ideal_pairs():
            d = decide_lpa_quotient(g, j)
            if not d.is_lpa:
                continue
            severed = d.severed.digraph
            ids = set(severed.vertices) | {a.id for a in severed.arrows}
            cert = iso_certificate(g, j)
            for entry in cert.entries:
                for _, target in entry.image:
                    assert target in ids, (g.name, j.name, entry)


class TestRadical:
    def test_double_root_drops(self, loop):
        j = load_ideal("radical-ideal-Q")
        result = radical_quotient(loop, j)
        c = j.beta[0]
        assert result.j_prime.theta[c] == Polynomial.of(Q, [1, -1])
        assert result.degree_drops == (("C", 1),)
        assert result.hypothesis_ok
        assert quotient_dimension(loop, j) == 2
        assert quotient_dimension(loop, result.j_prime) == 1
        assert len(result.severed.digraph.vertices) == 1

    def test_dlf_fixed(self):
        for g, j in corpus_ideal_pairs():
            d = decide_lpa_quotient(g, j)
            if not d.is_lpa:
                continue
            result = radical_quotient(g, j)
            assert result.j_prime.theta == j.theta
            assert all(drop == 0 for _, drop in result.degree_drops)
            assert result.severed.digraph == d.severed.digraph

    def test_mixed_factors(self, loop):
        c = GeometricCycle.of(["e"])
        j = ideal(Q, beta=[c], theta=[(c, Polynomial.of(Q, [1, -1, -1, 1]))])
        result = radical_quotient(loop, j)
        assert result.j_prime.theta[c] == Polynomial.of(Q, [1, 0, -1])
        assert result.degree_drops[0][1] == 1

    def test_hypothesis_violation_flagged(self, loop):
        c = GeometricCycle.of(["e"])
        j = ideal(Q, beta=[c], theta=[(c, Polynomial.of(Q, [1, 0, 2, 0, 1]))])
        # (1 + x^2)^2 ... squarefree part 1 + x^2 is rootless over Q
        result = radical_quotient(loop, j)
        assert not result.hypothesis_ok
        assert result.degree_drops[0][1] == 2


class TestDimension:
    def test_examples(self, ek):
        assert quotient_dimension(load_graph("path2")) == 4
        assert quotient_dimension(load_graph("fork")) == 8
        assert quotient_dimension(load_graph("ek-severed")) == 48
        assert quotient_dimension(ek, load_ideal("ek-ideal-Q")) == 48

    def test_single_vertex(self):
        assert quotient_dimension(Digraph("s", ["v"], [])) == 1

    def test_multiplicity_paths(self):
        assert quotient_dimension(load_graph("doublearrow")) == 9  # n(b) = 3

    def test_unsevered_cycle_rejected(self, sq3):
        with pytest.raises(UnsupportedShapeError):
            quotient_dimension(sq3)

    def test_omega_rejected(self, breaking):
        with pytest.raises(UnsupportedShapeError):
            quotient_dimension(breaking)

    def test_partial_cycle_count_ek(self, ek):
        # one β cycle of deg θ = 3 and |P_C| = 4
        assert dimension_blocks(ek, load_ideal("ek-ideal-Q")).blocks == ((4, 3),)

    def test_sever_consistency_on_corpus(self):
        # severing turns each cycle block deg·|P_C|² into deg sinks with n = |P_C|
        checked = 0
        for g, j in corpus_ideal_pairs():
            work = graded_quotient(g, j.pair).digraph
            if not work.is_row_finite:
                continue
            if {i.cycle for i in enumerate_cycles(work)} != set(j.beta):
                continue
            severed = sever(g, j).digraph
            assert quotient_dimension(g, j) == quotient_dimension(severed)
            checked += 1
        assert checked >= 5

    def test_blocks_report(self, ek):
        blocks = dimension_blocks(ek, load_ideal("ek-ideal-Q"))
        assert blocks.blocks == ((4, 3),)
        assert blocks.total_dimension == 48


class TestMatrixOracle:
    def test_acyclic_representation(self):
        checked = []
        for g in corpus_graphs().values():
            if not g.is_row_finite:
                continue
            from leavitt.cycles import find_any_cycle
            if find_any_cycle(g) is not None:
                continue
            dim = quotient_dimension(g)
            if dim > 64:
                continue
            rep = SinkBlockRepresentation(g)
            assert rep.check_relations() == [], g.name
            assert rep.spanning_rank() == dim, g.name
            checked.append(g.name)
        assert "ek-severed" in checked and "path2" in checked


#: A vertex and an arrow named e: the loop e at v, fed from vertex e by x.
SHARED = "digraph shared\nvertex v\nvertex e\narrow e v v\narrow x e v\n"
SHARED_IDEAL = "ideal j\nfield F5\ncycle C: e\npoly C: 1 2\n"
SEVERED_SHARED = ("digraph shared\nvertex v.1\nvertex e\narrow x.1 e v.1\n"
                  "# provenance: v.1 <- cycle-sink v root 1\n# provenance: e <- vertex e\n"
                  "# provenance: x.1 <- split-arrow x copy 1\n")


class TestSharedIds:
    """Vertices and arrows have ids of their own: one may name both."""

    @pytest.mark.parametrize("command,expected", [
        ("quotient", "digraph shared\nvertex v\nvertex e\narrow e v v\narrow x e v\n"
                     "# provenance: v <- vertex v\n# provenance: e <- vertex e\n"
                     "# provenance: e <- arrow e\n# provenance: x <- arrow x\n"),
        ("decide", "isLPA\ncycle C: roots 2\n" + SEVERED_SHARED),
        ("sever", SEVERED_SHARED),
        ("certificate", "v -> 1*v.1\ne -> 1*e\nC -> 2*v.1\nx -> 1*x.1\n"),
        ("radical", "cycle C: degree drop 0\nideal j.rad\nfield F5\ncycle C: e\npoly C: 1 2\n"
                    + SEVERED_SHARED),
    ])
    def test_commands_on_a_shared_id(self, tmp_path, command, expected):
        graph, ideal = tmp_path / "shared.graph", tmp_path / "shared.ideal"
        graph.write_text(SHARED)
        ideal.write_text(SHARED_IDEAL)
        assert run_cli(command, str(graph), str(ideal)) == (0, expected)

    def test_provenance_and_images_are_keyed_by_kind(self):
        g, j = parse_digraph(SHARED), parse_ideal(SHARED_IDEAL)
        provenance = graded_quotient(g, j.pair).provenance
        assert provenance["vertex", "e"] == "vertex e" and provenance["arrow", "e"] == "arrow e"
        cert = iso_certificate(g, j)
        assert cert.image_of("e") == cert.image_of("e", "vertex") == ((1, "e"),)
        assert cert.image_of("C", "cycle") == ((2, "v.1"),)
        with pytest.raises(KeyError):
            cert.image_of("e", "arrow")  # the loop e is the cycle's slot

    def test_fresh_ids_of_one_kind_may_name_the_other(self, tmp_path):
        # v breaks H = {h}: its sink v' and the copy v' of the arrow v into it share an id
        graph, ideal = tmp_path / "cross.graph", tmp_path / "cross.ideal"
        graph.write_text("digraph cross\nvertex v\nvertex h\nvertex w\n"
                         "arrow om v h omega\narrow esc v w\narrow v w v\n")
        ideal.write_text("ideal j\nfield Q\nH h\n")
        assert run_cli("quotient", str(graph), str(ideal)) == (0, (
            "digraph cross\nvertex v\nvertex w\nvertex v'\n"
            "arrow esc v w\narrow v w v\narrow v' w v'\n"
            "# provenance: v <- vertex v\n# provenance: w <- vertex w\n"
            "# provenance: v' <- breaking-sink v\n# provenance: esc <- arrow esc\n"
            "# provenance: v <- arrow v\n# provenance: v' <- breaking-arrow v\n"))

    def test_a_sink_may_take_the_id_of_the_loop_severing_deletes(self, tmp_path):
        # the loop v.1 at v is the cycle's slot: its image, the sink v.1, is not the arrow itself
        graph, ideal = tmp_path / "own.graph", tmp_path / "own.ideal"
        graph.write_text("digraph own\nvertex v\nvertex u\narrow v.1 v v\narrow f u v\n")
        ideal.write_text("ideal j\nfield Q\ncycle C: v.1\npoly C: 1 -1\n")
        assert run_cli("sever", str(graph), str(ideal)) == (0, (
            "digraph own\nvertex v.1\nvertex u\narrow f.1 u v.1\n"
            "# provenance: v.1 <- cycle-sink v root 1\n# provenance: u <- vertex u\n"
            "# provenance: f.1 <- split-arrow f copy 1\n"))

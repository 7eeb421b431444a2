import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from leavitt import lattice
from leavitt.digraph import OMEGA, Digraph, GeometricCycle, enumerate_hereditary_saturated
from leavitt.errors import (
    FieldMismatchError,
    LeavittError,
    NotAdmissibleError,
    ResourceLimitError,
    UnknownArrowError,
    UnknownVertexError,
)
from leavitt.fields import Field, Polynomial
from leavitt.ideals import AdmissiblePair, ensure_admissible, no_exit_quotient_cycles, pair_order
from leavitt.ktheory import galois_phi, galois_psi
from leavitt.lattice import enumerate_admissible_pairs, enumerate_strata, pair_lattice
from leavitt.presentations import IdealPresentation, graded_part, validate_ideal

from conftest import corpus_graphs, corpus_ideal_pairs, load_graph, load_ideal
from helpers import digraphs, exhaustive_degree_census, unmemoized_ensure_admissible
from test_io_cli import SAMPLE_ARGS, run_cli
from test_validated import component_union, count_calls

Q = Field.rationals()
F2, F3, F5 = Field.gf(2), Field.gf(3), Field.gf(5)


def ideal(field, h=(), s=(), beta=(), theta=(), labels=()):
    return IdealPresentation(field=field, pair=AdmissiblePair.of(h, s),
                             beta=tuple(beta), theta=dict(theta), labels=dict(labels))


class TestValidation:
    def test_ch2_valid(self, sq5):
        j = load_ideal("ch2-ideal-F2")
        assert validate_ideal(sq5, j).valid

    def test_cycle_with_exit_rejected(self, sq5):
        c1 = GeometricCycle.of(["c1"])
        j = ideal(F2, h={"v3"}, beta=[c1], theta=[(c1, Polynomial.of(F2, [1, 1]))])
        report = validate_ideal(sq5, j)
        assert not report.valid
        assert any("has an exit" in v for v in report.violations)

    def test_zero_ideal_valid(self):
        for g in corpus_graphs().values():
            assert validate_ideal(g, ideal(Q)).valid

    def test_dangling_ids_raise(self, sq5):
        with pytest.raises(UnknownVertexError):
            validate_ideal(sq5, ideal(Q, h={"zz"}))
        bad_cycle = GeometricCycle.of(["nope"])
        with pytest.raises(UnknownArrowError):
            validate_ideal(sq5, ideal(Q, beta=[bad_cycle],
                                      theta=[(bad_cycle, Polynomial.of(Q, [1, 1]))]))

    def test_constant_term_must_be_one(self, loop):
        c = GeometricCycle.of(["e"])
        j = ideal(Q, beta=[c], theta=[(c, Polynomial.of(Q, [2, 1]))])
        report = validate_ideal(loop, j)
        assert any("constant term 1" in v for v in report.violations)

    def test_degree_positive(self, loop):
        c = GeometricCycle.of(["e"])
        j = ideal(Q, beta=[c], theta=[(c, Polynomial.of(Q, [1]))])
        assert not validate_ideal(loop, j).valid

    def test_missing_poly(self, loop):
        c = GeometricCycle.of(["e"])
        j = ideal(Q, beta=[c])
        report = validate_ideal(loop, j)
        assert any("no polynomial" in v for v in report.violations)

    def test_cycle_inside_h_rejected(self, sq5):
        c3 = GeometricCycle.of(["c3"])
        j = ideal(Q, h={"v3"}, beta=[c3], theta=[(c3, Polynomial.of(Q, [1, 1]))])
        report = validate_ideal(sq5, j)
        assert any("does not survive" in v for v in report.violations)

    def test_h_not_saturated(self):
        fork = load_graph("fork")
        report = validate_ideal(fork, ideal(Q, h={"w1", "w2"}))
        assert any("not saturated" in v for v in report.violations)

    def test_corpus_ideals_all_valid(self):
        for g, j in corpus_ideal_pairs():
            assert validate_ideal(g, j).valid, (g.name, j.name)


class TestGradedPart:
    def test_ch2(self, sq5):
        j = load_ideal("ch2-ideal-F2")
        gp = graded_part(j)
        assert gp.pair == j.pair and gp.beta == () and not gp.theta
        assert graded_part(gp).pair == gp.pair

    def test_zero_ideal_from_full_cycle(self, loop):
        c = GeometricCycle.of(["e"])
        j = ideal(Q, beta=[c], theta=[(c, Polynomial.of(Q, [1, 0, 1]))])
        gp = graded_part(j)
        assert gp.pair == AdmissiblePair.of(set()) and gp.beta == ()

    def test_order_monotone(self):
        # graded_part(J) sits below every ideal whose pair dominates J's pair
        for g in corpus_graphs().values():
            if len(g.vertices) > 6:
                continue
            pairs = enumerate_admissible_pairs(g)
            for a in pairs:
                gp = graded_part(ideal(Q, h=a.h, s=a.s))
                for b in pairs:
                    if pair_order(g, a, b):
                        assert pair_order(g, gp.pair, b)


class TestPairOrder:
    def test_least_element(self, sq2):
        bottom = AdmissiblePair.of(set())
        for pair in enumerate_admissible_pairs(sq2):
            assert pair_order(sq2, bottom, pair)

    def test_inclusion(self, sq2):
        assert pair_order(sq2, AdmissiblePair.of({"w2"}), AdmissiblePair.of({"w1", "w2"}))

    def test_incomparable(self, sq2):
        assert not pair_order(sq2, AdmissiblePair.of({"w1"}), AdmissiblePair.of({"w2"}))
        assert not pair_order(sq2, AdmissiblePair.of({"w2"}), AdmissiblePair.of({"w1"}))

    def test_not_admissible_rejected(self, sq2):
        with pytest.raises(NotAdmissibleError):
            pair_order(sq2, AdmissiblePair.of({"u"}), AdmissiblePair.of(set()))

    def test_admissibility_errors(self, sq2):
        # an unknown id is named by the smallest one of H ∪ S, wherever it is
        for h, s in [({"zz"}, {"aa"}), ({"aa", "w2"}, {"zz"}), (set(), {"aa"})]:
            with pytest.raises(UnknownVertexError, match="unknown vertex 'aa' in digraph sq2"):
                ensure_admissible(sq2, AdmissiblePair.of(h, s))
        path = Digraph("path", ["v", "w"], [("e", "v", "w")])
        for g, h, s in [(sq2, {"u"}, ()),  # not hereditary
                        (path, {"w"}, ()),  # not saturated
                        (sq2, (), {"w2"})]:  # S ⊄ B_H
            pair = AdmissiblePair.of(h, s)
            with pytest.raises(NotAdmissibleError) as raised:
                ensure_admissible(g, pair)
            assert str(raised.value) == f"{pair.label()} is not admissible in {g.name}"

    def test_breaking_pairs_ordered(self, breaking):
        a = AdmissiblePair.of({"h"})
        b = AdmissiblePair.of({"h"}, {"v"})
        assert pair_order(breaking, a, b)
        assert not pair_order(breaking, b, a)


class TestPairLattice:
    def test_sq2_five_elements(self, sq2):
        lat = pair_lattice(sq2)
        assert len(lat.elements) == 5
        w1, w2 = AdmissiblePair.of({"w1"}), AdmissiblePair.of({"w2"})
        assert lat.meet(w1, w2) == AdmissiblePair.of(set())
        assert lat.join(w1, w2) == AdmissiblePair.of({"w1", "w2"})

    def test_single_vertex_chain(self):
        lat = pair_lattice(load_graph("path2").full_subgraph({"b"}))
        assert len(lat.elements) == 2

    def test_breaking_contains_both_pairs(self, breaking):
        lat = pair_lattice(breaking)
        assert AdmissiblePair.of({"h"}) in lat.elements
        assert AdmissiblePair.of({"h"}, {"v"}) in lat.elements
        assert lat.join(AdmissiblePair.of({"h"}), AdmissiblePair.of({"h"}, {"v"})) \
            == AdmissiblePair.of({"h"}, {"v"})

    def test_row_finite_pair_count_is_hs_count(self):
        for g in corpus_graphs().values():
            if not g.is_row_finite or len(g.vertices) > 8:
                continue
            pairs = enumerate_admissible_pairs(g)
            assert len(pairs) == len(enumerate_hereditary_saturated(g))
            assert all(not p.s for p in pairs)

    def test_lattice_laws(self):
        for name in ("sq2", "sq3", "breaking", "dq4"):
            g = load_graph(name)
            lat = pair_lattice(g)
            for a in lat.elements:
                for b in lat.elements:
                    m, jn = lat.meet(a, b), lat.join(a, b)
                    assert pair_order(g, m, a) and pair_order(g, m, b)
                    assert pair_order(g, a, jn) and pair_order(g, b, jn)
            assert len(lat.elements) <= 64

    def test_limit(self, sq2):
        with pytest.raises(ResourceLimitError):
            enumerate_admissible_pairs(sq2, limit=2)


class TestNoExitQuotientCycles:
    def test_sq5_mod_v3(self, sq5):
        cycles = no_exit_quotient_cycles(sq5, AdmissiblePair.of({"v3"}))
        assert [c.label() for c in cycles] == ["(c2)"]

    def test_loop_orphan(self, loop):
        assert [c.label() for c in no_exit_quotient_cycles(loop, AdmissiblePair.of(set()))] \
            == ["(e)"]

    def test_breaking_quotient_exit_counts(self, breaking):
        # no cycles at all, but the call must respect the pair machinery
        assert no_exit_quotient_cycles(breaking, AdmissiblePair.of({"h"})) == []

    def test_omega_class_into_h_leaves_no_exit(self):
        # v ∈ S keeps only its loop in Γ/(H, S): the ω class into H counts
        # nothing, where 0 · ω once made v's out-degree NaN and the loop an exit
        g = Digraph("bl", ["v", "h"], [("c", "v", "v"), ("om", "v", "h", OMEGA)])
        pair = AdmissiblePair.of({"h"}, {"v"})
        (c,) = no_exit_quotient_cycles(g, pair)
        assert c.label() == "(c)"
        assert validate_ideal(g, ideal(F3, {"h"}, {"v"}, [c], {c: Polynomial.of(F3, [1, 1])})).valid
        assert no_exit_quotient_cycles(g, AdmissiblePair.of({"h"})) == []  # c' to v' is an exit


class TestStrata:
    def test_single_loop_f3(self, loop):
        records = {r.key.degrees: r for r in enumerate_strata(loop, F3, 2)
                   if r.key.beta}
        assert records[(1,)].parameter_count == 2
        assert records[(1,)].dlf_count == 2
        assert records[(2,)].parameter_count == 6
        assert records[(2,)].dlf_count == 1

    def test_single_loop_f2_degree2(self, loop):
        records = {r.key.degrees: r for r in enumerate_strata(loop, F2, 2)
                   if r.key.beta}
        assert records[(2,)].parameter_count == 2
        assert records[(2,)].dlf_count == 0

    def test_empty_beta_stratum_is_graded_singleton(self, loop):
        records = [r for r in enumerate_strata(loop, F3, 1) if not r.key.beta]
        assert all(r.parameter_count == 1 and r.dlf_count == 1 for r in records)

    @pytest.mark.parametrize("p", [2, 3, 5])
    def test_parameter_count_formula(self, p, loop):
        field = Field.gf(p)
        for r in enumerate_strata(loop, field, 4):
            expected = 1
            for d in r.key.degrees:
                expected *= (p - 1) * p ** (d - 1)
            assert r.parameter_count == expected

    @pytest.mark.parametrize("p", [2, 3, 5])
    @pytest.mark.parametrize("graph_name", ["loop", "sq3"])
    def test_dlf_positive_iff_degree_below_field_size(self, p, graph_name):
        g = load_graph(graph_name)
        field = Field.gf(p)
        for r in enumerate_strata(g, field, 4):
            expected = all(d <= p - 1 for d in r.key.degrees)
            assert (r.dlf_count > 0) == expected, (p, graph_name, r.key.degrees)

    @pytest.mark.parametrize("p", [2, 3, 5, 7])
    def test_census_closed_form_matches_sweep(self, p, loop):
        field = Field.gf(p)
        census = {r.key.degrees: (r.parameter_count, r.dlf_count)
                  for r in enumerate_strata(loop, field, 4) if r.key.beta}
        for d in range(1, 5):
            assert census[(d,)] == exhaustive_degree_census(field, d), (p, d)

    def test_requires_prime_field(self, loop):
        with pytest.raises(FieldMismatchError):
            enumerate_strata(loop, Q, 2)

    def test_sq3_beta_subsets(self, sq3):
        # in the pair (∅,∅) only (c2) has no exit; pair ({v2},.) kills it
        records = enumerate_strata(sq3, F2, 1)
        keys = {(r.key.pair.label(), tuple(c.label() for c in r.key.beta))
                for r in records}
        assert ("({}, {})", ("(c2)",)) in keys
        assert ("({}, {})", ("(c1)",)) not in keys

    def test_resource_limit(self, loop, monkeypatch):
        # (p − 1)·p^2999 over 𝔽(2⁶¹ − 1) has some 55,000 digits: refused unbuilt
        calls = []
        monkeypatch.setattr(lattice, "_degree_census", lambda *a: calls.append(a))
        with pytest.raises(ResourceLimitError, match="fixed bound of 4300 decimal digits"):
            enumerate_strata(loop, Field.gf(2**61 - 1), 3000)
        assert calls == []


def admitted(fn, g, pair):
    """fn(g, pair), or the type and text of the error it raised."""
    try:
        return fn(g, pair)
    except LeavittError as exc:
        return type(exc).__name__, str(exc)


class TestAdmittedPairs:
    """A digraph remembers B_H∖S of each pair it admitted; the checks that
    follow are lookups, and answer as the walk did (``helpers``' oracle)."""

    @settings(max_examples=200)
    @given(data=st.data())
    def test_remembered_pairs_answer_as_the_walk_did(self, data):
        g = data.draw(digraphs(max_vertices=8))
        ids = st.sampled_from([*g.vertices, "zz"])  # an unknown id now and then
        pairs = lattice.enumerate_admissible_pairs(Digraph(g.name, g.vertices, g.arrows))
        drawn = st.builds(AdmissiblePair.of, st.sets(ids, max_size=4), st.sets(ids, max_size=2))
        if pairs:  # an admissible pair, or one with a vertex more in S
            grown = st.builds(lambda p, v: AdmissiblePair.of(p.h, p.s | {v}),
                              st.sampled_from(pairs), ids)
            drawn = st.one_of(drawn, st.sampled_from(pairs), grown)
        pair = data.draw(drawn)
        expected = admitted(unmemoized_ensure_admissible, g, pair)
        assert admitted(ensure_admissible, g, pair) == expected
        assert g._admitted.get(pair, ("never stored",)) == (
            expected if isinstance(expected, frozenset) else ("never stored",))
        assert admitted(ensure_admissible, g, pair) == expected
        lattice.enumerate_admissible_pairs(g)
        assert admitted(ensure_admissible, g, pair) == expected
        for known, primed in g._admitted.items():  # each enumerated pair, each with B_H∖S
            assert unmemoized_ensure_admissible(g, known) == primed
        assert set(g._admitted) == set(pairs) | ({pair} if pair in g._admitted else set())

    @settings(max_examples=100)
    @given(data=st.data())
    def test_the_galois_map_psi_admits_what_it_finds(self, data):
        g = data.draw(digraphs(max_vertices=8))
        pair = data.draw(st.sampled_from(lattice.enumerate_admissible_pairs(g)))
        fresh = Digraph(g.name, g.vertices, g.arrows)
        found = galois_psi(fresh, galois_phi(g, pair).generating_items(g))
        assert found == pair and fresh._admitted == {pair: unmemoized_ensure_admissible(g, pair)}

    def test_orth_walks_the_arrows_at_h_once(self, monkeypatch):
        # ψ(P) is admitted as it is found and (H, S) as J is validated, so the order looks both up
        counts = count_calls(monkeypatch, ("admissibility",))
        assert run_cli("orth", *SAMPLE_ARGS["orth"]) == (0, "orthogonal: true\n")
        monkeypatch.undo()
        assert counts["admissibility"] == 1

    def test_the_galois_round_trip_after_the_lattice_walks_nothing(self, monkeypatch):
        g = component_union("ABBCA")
        elements = pair_lattice(g).elements
        counts = count_calls(monkeypatch, ("admissibility",))
        for pair in elements:
            assert galois_psi(g, galois_phi(g, pair).generating_items(g)) == pair
        monkeypatch.undo()
        assert len(elements) == 648 and counts["admissibility"] == 0

    def test_a_rejected_pair_is_checked_again(self, sq2, monkeypatch):
        counts = count_calls(monkeypatch, ("admissibility",))
        for _ in range(2):
            with pytest.raises(NotAdmissibleError):
                ensure_admissible(sq2, AdmissiblePair.of({"u"}))
        monkeypatch.undo()
        assert counts["admissibility"] == 2 and not sq2._admitted

import pytest

from leavitt import ideals
from leavitt.digraph import Digraph, GeometricCycle, enumerate_hereditary_saturated
from leavitt.errors import (
    FieldMismatchError,
    NotAdmissibleError,
    ResourceLimitError,
    UnknownArrowError,
    UnknownVertexError,
)
from leavitt.fields import Field, Polynomial
from leavitt.ideals import (
    AdmissiblePair,
    IdealPresentation,
    enumerate_admissible_pairs,
    enumerate_strata,
    ensure_admissible,
    graded_part,
    no_exit_quotient_cycles,
    pair_lattice,
    pair_order,
    validate_ideal,
)

from conftest import corpus_graphs, corpus_ideal_pairs, load_graph, load_ideal
from helpers import exhaustive_degree_census

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
        monkeypatch.setattr(ideals, "_degree_census", lambda *a: calls.append(a))
        with pytest.raises(ResourceLimitError, match="fixed bound of 4300 decimal digits"):
            enumerate_strata(loop, Field.gf(2**61 - 1), 3000)
        assert calls == []

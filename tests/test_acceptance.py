"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import itertools
from contextlib import contextmanager

from helpers import SinkBlockRepresentation, label_isomorphic
from leavitt.cycles import enumerate_cycles, find_any_cycle
from leavitt.digraph import (
    enumerate_hereditary_saturated,
    hereditary_saturated_closure,
    is_hereditary,
    is_saturated,
)
from leavitt.dimension import dimension_blocks, quotient_dimension
from leavitt.fields import Field, Polynomial, is_dlf
from leavitt.ideals import AdmissiblePair, pair_order
from leavitt.ktheory import ProjectivePresentation, VertexGen, galois_phi, galois_psi
from leavitt.lattice import enumerate_admissible_pairs, enumerate_strata
from leavitt.presentations import IdealPresentation
from leavitt.projectives import is_orthogonal
from leavitt.quotients import (
    cycle_to_loop,
    decide_lpa_quotient,
    graded_quotient,
    iso_certificate,
    radical_quotient,
    sever,
)

from conftest import corpus_graphs, corpus_ideal_pairs, load_graph, load_ideal

Q = Field.rationals()


@contextmanager
def criterion(number, description):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} ({description}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({description}): PASS")


def test_criterion_01_ek_reproduction(ek):
    with criterion(1, "Ek: degree-3 sever gives 3 x M_4, dimension 48"):
        j = load_ideal("ek-ideal-Q")
        assert j.theta[j.beta[0]].degree == 3
        severed = sever(ek, j).digraph
        assert len(severed.vertices) == 6
        assert len(severed.sinks()) == 3
        assert dimension_blocks(severed).blocks == ((4, 3),)
        assert quotient_dimension(ek, j) == 48
        assert quotient_dimension(severed) == 48


def test_criterion_02_complex_surrogate(loop):
    with criterion(2, "1+x^2 on a loop: notLPA over Q, splits over F5"):
        over_q = decide_lpa_quotient(loop, load_ideal("complex-ideal-Q"))
        assert not over_q.is_lpa
        j5 = load_ideal("complex-ideal-F5")
        over_f5 = decide_lpa_quotient(loop, j5)
        assert over_f5.is_lpa
        severed = over_f5.severed.digraph
        assert len(severed.vertices) == 2 and not severed.arrows
        cert = iso_certificate(loop, j5)
        assert cert.image_of("C") == ((2, "v.1"), (3, "v.2"))
        assert cert.image_of("v") == ((1, "v.1"), (1, "v.2"))


def test_criterion_03_characteristic_two(sq5, sq2):
    with criterion(3, "1-x^2 on sq5/{v3}: repeated root in F2, sq2 in F3"):
        over_f2 = decide_lpa_quotient(sq5, load_ideal("ch2-ideal-F2"))
        assert not over_f2.is_lpa
        (report,) = over_f2.reports
        assert report.verdict.repeated_root == 1
        over_f3 = decide_lpa_quotient(sq5, load_ideal("ch2-ideal-F3"))
        assert over_f3.is_lpa
        assert label_isomorphic(over_f3.severed.digraph, sq2)


def test_criterion_04_fourth_roots_of_unity():
    with criterion(4, "1-x^4 on dq4/{w} over F5: star onto 4 sinks"):
        dq4 = load_graph("dq4")
        j = load_ideal("n4-ideal-F5")
        decision = decide_lpa_quotient(dq4, j)
        assert decision.is_lpa
        (report,) = decision.reports
        assert report.verdict.roots == (1, 2, 3, 4)
        severed = decision.severed.digraph
        sinks = severed.sinks()
        assert len(sinks) == 4
        loop_vertices = [v for v in severed.vertices
                         if any(a.source == a.target == v for a in severed.arrows)]
        assert loop_vertices == ["v1"]
        for s in sinks:
            (a,) = severed.in_arrows(s)
            assert a.source == "v1"


def test_criterion_05_galois_correspondence(sq2, breaking):
    with criterion(5, "Galois round trips on sq2 and the breaking instance"):
        hs = enumerate_hereditary_saturated(sq2)
        pairs = enumerate_admissible_pairs(sq2)
        assert len(hs) == 5 and len(pairs) == 5
        for pair in pairs:
            assert galois_psi(sq2, galois_phi(sq2, pair).generating_items(sq2)) == pair
        bpairs = enumerate_admissible_pairs(breaking)
        lower = AdmissiblePair.of({"h"})
        upper = AdmissiblePair.of({"h"}, {"v"})
        assert lower in bpairs and upper in bpairs
        assert pair_order(breaking, lower, upper)
        for pair in bpairs:
            assert galois_psi(breaking,
                              galois_phi(breaking, pair).generating_items(breaking)) == pair


def test_criterion_06_stratum_counts(loop):
    with criterion(6, "stratum parameter/dlf counts by exhaustion"):
        f3 = {r.key.degrees: r for r in enumerate_strata(loop, Field.gf(3), 2)
              if r.key.beta}
        assert (f3[(1,)].parameter_count, f3[(1,)].dlf_count) == (2, 2)
        assert (f3[(2,)].parameter_count, f3[(2,)].dlf_count) == (6, 1)
        f2 = {r.key.degrees: r for r in enumerate_strata(loop, Field.gf(2), 2)
              if r.key.beta}
        assert (f2[(2,)].parameter_count, f2[(2,)].dlf_count) == (2, 0)
        for p in (2, 3, 5):
            for record in enumerate_strata(loop, Field.gf(p), 4):
                expected = all(d <= p - 1 for d in record.key.degrees)
                assert (record.dlf_count > 0) == expected


def test_criterion_07_radical(loop):
    with criterion(7, "radical of (1-x)^2 drops to 1-x; dlf ideals fixed"):
        j = load_ideal("radical-ideal-Q")
        result = radical_quotient(loop, j)
        c = j.beta[0]
        assert result.j_prime.theta[c] == Polynomial.of(Q, [1, -1])
        assert result.degree_drops == (("C", 1),)
        assert quotient_dimension(loop, j) == 2
        assert quotient_dimension(loop, result.j_prime) == 1
        for g, jj in corpus_ideal_pairs():
            if not decide_lpa_quotient(g, jj).is_lpa:
                continue
            fixed = radical_quotient(g, jj)
            assert fixed.j_prime.theta == jj.theta
            assert all(drop == 0 for _, drop in fixed.degree_drops)


def test_criterion_08_dlf_oracle():
    with criterion(8, "is_dlf(f) iff f divides x^p - x, exhaustively"):
        mismatches = 0
        for p in (2, 3, 5):
            field = Field.gf(p)
            xp_minus_x = Polynomial.from_roots(field, list(range(p)))
            for deg in range(1, 5):
                for tail in itertools.product(range(p), repeat=deg):
                    if tail[-1] == 0:
                        continue
                    f = Polynomial.of(field, (1,) + tail)
                    if is_dlf(f).is_dlf != f.divides(xp_minus_x):
                        mismatches += 1
        assert mismatches == 0


def test_criterion_09_matrix_representation_oracle():
    with criterion(9, "sink-block representation satisfies the relations"):
        violations = []
        checked = 0
        for g in corpus_graphs().values():
            if not g.is_row_finite or find_any_cycle(g) is not None:
                continue
            dim = quotient_dimension(g)
            if dim > 64:
                continue
            rep = SinkBlockRepresentation(g)
            violations.extend(f"{g.name}: {v}" for v in rep.check_relations())
            if rep.spanning_rank() != dim:
                violations.append(f"{g.name}: rank != {dim}")
            checked += 1
        assert checked >= 4
        assert violations == []


def test_criterion_10_property_suites():
    with criterion(10, "closure/rewrite/dimension/orthogonality properties"):
        graphs = corpus_graphs()

        # closure is extensive, monotone, idempotent on small corpus graphs
        for g in graphs.values():
            if len(g.vertices) > 6:
                continue
            vs = list(g.vertices)
            subsets = [frozenset(c) for r in range(len(vs) + 1)
                       for c in itertools.combinations(vs, r)]
            cl = {x: hereditary_saturated_closure(g, x) for x in subsets}
            for x in subsets:
                assert x <= cl[x] and cl[cl[x]] == cl[x]
                assert is_hereditary(g, cl[x]) and is_saturated(g, cl[x])
            for x, y in itertools.combinations(subsets, 2):
                if x <= y:
                    assert cl[x] <= cl[y]
                if y <= x:
                    assert cl[y] <= cl[x]

        # cycle-to-loop preserves vertex count, arrow count, sinks
        for g in graphs.values():
            no_exit = [i.cycle for i in enumerate_cycles(g) if not i.has_exit]
            if not no_exit:
                continue
            out = cycle_to_loop(g, no_exit).digraph
            assert out.vertices == g.vertices
            assert len(out.arrows) == len(g.arrows)
            assert out.sinks() == g.sinks()

        # sever converts cycle blocks into sink blocks of the same dimension
        consistency_checked = 0
        for g, j in corpus_ideal_pairs():
            work = graded_quotient(g, j.pair).digraph
            if not work.is_row_finite:
                continue
            if {i.cycle for i in enumerate_cycles(work)} != set(j.beta):
                continue
            assert quotient_dimension(g, j) == quotient_dimension(sever(g, j).digraph)
            consistency_checked += 1
        assert consistency_checked >= 5

        # orthogonality is monotone along inclusion of graded ideals
        for g in graphs.values():
            if len(g.vertices) > 6:
                continue
            pairs = enumerate_admissible_pairs(g)
            presentations = [ProjectivePresentation.of([VertexGen(v)])
                             for v in g.vertices]
            presentations += [galois_phi(g, pair).generating_items(g)
                              for pair in pairs]
            for a, b in itertools.product(pairs, repeat=2):
                if not pair_order(g, a, b):
                    continue
                ja = IdealPresentation(field=Q, pair=a)
                jb = IdealPresentation(field=Q, pair=b)
                for p in presentations:
                    if is_orthogonal(g, p, ja):
                        assert is_orthogonal(g, p, jb)

"""Each entry point validates its (digraph, ideal) pair once and builds each
construction at most once; counted by wrapping the functions wherever a
leavitt module binds them."""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from leavitt import ideals
from leavitt.digraph import OMEGA, Digraph, GeometricCycle
from leavitt.errors import InternalConsistencyError
from leavitt.fields import Field, Polynomial
from leavitt.ideals import (
    AdmissiblePair,
    IdealPresentation,
    ValidatedIdeal,
    validate_ideal,
    validated_ideal,
)
from leavitt.io import serialize_digraph, serialize_ideal
from leavitt.ktheory import (
    ProjectivePresentation,
    VertexGen,
    galois_phi,
    galois_psi,
    is_orthogonal,
)
from leavitt.quotients import (
    decide_lpa_quotient,
    dimension_blocks,
    iso_certificate,
    quotient_dimension,
    radical_quotient,
    sever,
)

from conftest import corpus_ideal_pairs
from test_io_cli import run_cli

Q = Field.rationals()
COUNTED = ("validate_ideal", "graded_quotient", "_graded_quotient",
           "breaking_vertices", "find_roots")


def counted(counts: Counter, name: str, fn):
    """fn, counting its calls in counts[name]; a method too, set on its class."""
    def wrapper(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return wrapper


def count_calls(monkeypatch, names=COUNTED) -> Counter:
    """Live call counts of ``names``, wrapped in every leavitt module that binds them."""
    counts: Counter = Counter()
    modules = [m for n, m in sys.modules.items() if n == "leavitt" or n.startswith("leavitt.")]
    for mod in modules:
        for name in names:
            if name in vars(mod):
                monkeypatch.setattr(mod, name, counted(counts, name, vars(mod)[name]))
    return counts


def cycle_case(n: int, dlf: bool = True):
    """A β cycle of n vertices fed by a tail t, beside a breaking vertex b of H = {h}."""
    cycle_ids = [f"e{i}" for i in range(n)]
    arrows = [(aid, f"c{i}", f"c{(i + 1) % n}") for i, aid in enumerate(cycle_ids)]
    arrows += [("in", "t", "c0"), ("om", "b", "h", OMEGA), ("esc", "b", "t")]
    g = Digraph(f"cyc{n}", [f"c{i}" for i in range(n)] + ["t", "b", "h"], arrows)
    c = GeometricCycle.of(cycle_ids)
    coeffs = [1, Fraction(-3, 2), Fraction(1, 2)] if dlf else [1, -2, 1]
    j = IdealPresentation(field=Q, pair=AdmissiblePair.of({"h"}), beta=(c,),
                          theta={c: Polynomial.of(Q, coeffs)}, name="j")
    return g, j


TAIL = ProjectivePresentation.of([VertexGen("h")])

LIBRARY = {
    "sever": sever,
    "decide_lpa_quotient": decide_lpa_quotient,
    "iso_certificate": iso_certificate,
    "radical_quotient": radical_quotient,
    "quotient_dimension": quotient_dimension,
    "dimension_blocks": dimension_blocks,
    "is_orthogonal": lambda g, j: is_orthogonal(g, TAIL, j),
}


def _library_counts(monkeypatch, entry, n):
    g, j = cycle_case(n)
    counts = count_calls(monkeypatch)
    LIBRARY[entry](g, j)
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize("entry", sorted(LIBRARY))
def test_library_entry_point_counts(monkeypatch, entry):
    small = _library_counts(monkeypatch, entry, 3)
    large = _library_counts(monkeypatch, entry, 40)
    assert small["validate_ideal"] == 1
    assert small["graded_quotient"] + small["_graded_quotient"] <= 1
    assert small["find_roots"] <= 1  # one β cycle
    assert large == small  # nothing is recomputed per cycle vertex


CLI = {
    "decide": ("decide", True),
    "sever": ("sever", True),
    "sever-force-non-dlf": ("sever --force-degree-only", False),
    "certificate": ("certificate", True),
    "radical": ("radical", True),
    "dim": ("dim", True),
    "orth": ("orth", True),
}


def _cli_counts(monkeypatch, tmp_path, name, n):
    command, dlf = CLI[name]
    g, j = cycle_case(n, dlf)
    graph, ideal, pres = tmp_path / "g.graph", tmp_path / "j.ideal", tmp_path / "p.pres"
    graph.write_text(serialize_digraph(g))
    ideal.write_text(serialize_ideal(j))
    pres.write_text("P: h\n")
    args = command.split() + [str(graph), str(ideal)]
    if name == "orth":
        args.append(str(pres))
    counts = count_calls(monkeypatch)
    code, out = run_cli(*args)
    monkeypatch.undo()
    assert code == 0, name
    return counts


@pytest.mark.parametrize("name", sorted(CLI))
def test_cli_command_validates_once(monkeypatch, tmp_path, name):
    small = _cli_counts(monkeypatch, tmp_path, name, 3)
    large = _cli_counts(monkeypatch, tmp_path, name, 40)
    assert small["validate_ideal"] == 1
    assert small["graded_quotient"] + small["_graded_quotient"] <= 1
    assert small["find_roots"] <= 1
    assert large == small


@pytest.mark.parametrize("dlf", [True, False], ids=["dlf", "non-dlf"])
def test_forced_sever_finds_no_roots(monkeypatch, tmp_path, dlf):
    # severing reads only deg θ, so the forced construction runs no dlf test
    g, j = cycle_case(3, dlf)
    graph, ideal = tmp_path / "g.graph", tmp_path / "j.ideal"
    graph.write_text(serialize_digraph(g))
    ideal.write_text(serialize_ideal(j))
    counts = count_calls(monkeypatch)
    code, _ = run_cli("sever", "--force-degree-only", str(graph), str(ideal))
    monkeypatch.undo()
    assert code == 0
    assert counts["validate_ideal"] == 1 and counts["find_roots"] == 0


def test_validated_ideal_caches_primed_breaking_vertices():
    g, j = cycle_case(3)
    valid = validated_ideal(g, j)
    assert isinstance(valid, ValidatedIdeal)
    assert (valid.graph, valid.ideal, valid.primed) == (g, j, frozenset({"b"}))


def test_radical_ideal_is_valid_on_corpus():
    # radical_quotient severs j′ without validating it again
    for g, j in corpus_ideal_pairs():
        assert validate_ideal(g, radical_quotient(g, j).j_prime).valid, (g.name, j.name)


def test_fresh_id_collision(tmp_path):
    graph, ideal = tmp_path / "c.graph", tmp_path / "c.ideal"
    graph.write_text("digraph c\nvertex v\nvertex v.1\narrow e v v\narrow f v.1 v\n")
    ideal.write_text("ideal j\nfield Q\ncycle C: e\npoly C: 1 -3/2 1/2\n")
    for command in ("decide", "sever", "certificate"):
        assert run_cli(command, str(graph), str(ideal))[0] == 5, command
    g, j = cycle_case(3)
    clash = Digraph(g.name, g.vertices + ("c0.2",), g.arrows)
    with pytest.raises(InternalConsistencyError):
        iso_certificate(clash, j)


def test_rewrite_loop_takes_no_id(tmp_path):
    # the loop the cycle-to-loop rewrite would name e' is deleted by severing,
    # so an arrow already called e' does not collide with it
    graph, ideal = tmp_path / "r.graph", tmp_path / "r.ideal"
    graph.write_text("digraph r\nvertex a\nvertex b\nvertex c\n"
                     "arrow e a b\narrow f b a\narrow e' c a\n")
    ideal.write_text("ideal j\nfield Q\ncycle C: e f\npoly C: 1 -1\n")
    for command in ("decide", "sever", "certificate"):
        assert run_cli(command, str(graph), str(ideal))[0] == 0, command
    code, out = run_cli("sever", str(graph), str(ideal))
    assert out.splitlines()[:6] == ["digraph r", "vertex a.1", "vertex b", "vertex c",
                                    "arrow f.1 b a.1", "arrow e'.1 c a.1"]


def _strata_counts(monkeypatch, loops: int) -> Counter:
    """Checks run by enumerate_strata on ``loops`` bare loops beside a breaking
    vertex b of H = {h}: 2^loops · 3 admissible pairs."""
    arrows = [(f"c{i}", f"v{i}", f"v{i}") for i in range(loops)]
    arrows += [("om", "b", "h", OMEGA), ("esc", "b", "v0")]
    g = Digraph("strata", [f"v{i}" for i in range(loops)] + ["b", "h"], arrows)
    counts = count_calls(monkeypatch, ("is_hereditary", "is_saturated", "breaking_vertices",
                                       "ensure_admissible", "no_exit_quotient_cycles"))
    for method in ("check_vertices", "out_arrows"):
        monkeypatch.setattr(Digraph, method, counted(counts, method, getattr(Digraph, method)))
    records = ideals.enumerate_strata(g, Field.gf(3), 1)
    monkeypatch.undo()
    counts["records"] = len(records)
    return counts


def test_strata_does_not_recheck_the_pairs_it_enumerated(monkeypatch):
    small, large = _strata_counts(monkeypatch, 1), _strata_counts(monkeypatch, 4)
    assert large["records"] > 10 * small["records"]
    for counts in (small, large):
        # the no-exit walk reads the adjacency of ids taken from g.vertices:
        # no vertex check, per vertex or per pair, and no out_arrows copy
        assert counts["check_vertices"] == counts["out_arrows"] == 0
        assert counts["is_hereditary"] == counts["is_saturated"] == 0
        assert counts["breaking_vertices"] == counts["ensure_admissible"] == 0
        assert counts["no_exit_quotient_cycles"] == 0


def component_union(kinds: str) -> Digraph:
    """The disjoint union of components A (a loop feeding a sink, 3 pairs),
    B (an ω class beside an escaping arrow, 6 pairs) and C (a bare loop, 2)."""
    vertices, arrows = [], []
    for k, kind in enumerate(kinds):
        if kind == "A":
            vertices += [f"a{k}u", f"a{k}w"]
            arrows += [(f"a{k}c", f"a{k}u", f"a{k}u"), (f"a{k}x", f"a{k}u", f"a{k}w")]
        elif kind == "B":
            vertices += [f"b{k}v", f"b{k}h", f"b{k}w"]
            arrows += [(f"b{k}o", f"b{k}v", f"b{k}h", OMEGA), (f"b{k}x", f"b{k}v", f"b{k}w")]
        else:
            vertices.append(f"c{k}v")
            arrows.append((f"c{k}c", f"c{k}v", f"c{k}v"))
    return Digraph(kinds, vertices, arrows)


def test_galois_round_trip_does_not_recheck_enumerated_pairs(monkeypatch):
    g = component_union("ABBCA")
    lattice = ideals.pair_lattice(g)
    counts = count_calls(monkeypatch, ("breaking_vertices",))
    for pair in lattice.elements:
        assert galois_psi(g, galois_phi(g, pair).generating_items(g)) == pair
    monkeypatch.undo()
    assert len(lattice.elements) == 648
    assert counts["breaking_vertices"] == 0

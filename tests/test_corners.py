"""Corner generators.  Corner(v, Z) is v − Σ_{e∈Z} ee*, and at a regular vertex
(CK2) makes it one Vertex(r(e)) per instance e outside Z.  Checked here:
orthogonality read off the Galois order against the per-item rule it replaced
(oracle in ``helpers``), and ``galois_psi``, ``orth`` and ``end`` on a
presentation against its rewrite written out by hand."""

import contextlib
import io
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import digraphs, item_orthogonal
from leavitt.cli import main
from leavitt.digraph import Digraph, is_omega
from leavitt.fields import Field
from leavitt.io import parse_digraph, serialize_digraph
from leavitt.ktheory import (
    CornerGen,
    ProjectivePresentation,
    VertexGen,
    galois_psi,
    instances_escaping,
    validate_presentation,
)
from leavitt.lattice import enumerate_admissible_pairs
from leavitt.presentations import IdealPresentation, serialize_ideal
from leavitt.projectives import is_orthogonal, parse_presentation

from conftest import corpus_path

Q = Field.rationals()


def instances(g: Digraph, v: str) -> list[tuple[str, int]]:
    """v's arrow instances, two of each ω class."""
    return [(a.id, i) for a in g.out_arrows(v)
            for i in range(2 if is_omega(a.multiplicity) else a.multiplicity)]


def at_infinite_emitter(g: Digraph, item) -> bool:
    return is_omega(g.out_degree(item.vertex))


@st.composite
def presentations(draw, g: Digraph, pair, regular: bool = True) -> ProjectivePresentation:
    """Up to four items of g: vertices, and corners at infinite emitters and,
    if ``regular``, at regular vertices, where Z leaves an instance out.  At a
    vertex of S, Z is often its instances escaping H."""
    hosts = [v for v in g.vertices if is_omega(g.out_degree(v))
             or regular and g.out_degree(v) >= 2]
    items = []
    for _ in range(draw(st.integers(0, 4))):
        if hosts and draw(st.booleans()):
            v = draw(st.sampled_from(hosts))
            room = len(instances(g, v)) - (not is_omega(g.out_degree(v)))
            z = draw(st.lists(st.sampled_from(instances(g, v)), min_size=1, max_size=room,
                              unique=True))
            if v in pair.s and draw(st.booleans()):
                z = instances_escaping(g, v, pair.h) | set(z[1:])
            items.append(CornerGen(v, frozenset(z)))
        else:
            items.append(VertexGen(draw(st.sampled_from(g.vertices))))
    return ProjectivePresentation.of(items)


def text(p: ProjectivePresentation) -> str:
    return "".join(f"{item.label()}\n" if isinstance(item, CornerGen)
                   else f"P: {item.vertex}\n" for item in p.items)


def rewrite(g: Digraph, p: ProjectivePresentation) -> ProjectivePresentation:
    """p with each corner at a regular vertex v written out as the targets of
    v's arrow instances outside Z, one 'P:' line each."""
    lines = []
    for item in p.items:
        if isinstance(item, CornerGen) and not at_infinite_emitter(g, item):
            lines += [f"P: {a.target}\n" for a in g.out_arrows(item.vertex)
                      for i in range(a.multiplicity) if (a.id, i) not in item.z]
        else:
            lines.append(text(ProjectivePresentation.of([item])))
    return parse_presentation("".join(lines))


def run(*args) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one in-process command line."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main([str(arg) for arg in args])
    return code, out.getvalue(), err.getvalue()


def drawn_case(data, regular: bool):
    """A digraph, a presentation and a graded ideal, often one with S nonempty."""
    # half the graphs have a sink fed by ω classes, which breaking feeders put in S
    g = data.draw(digraphs(max_vertices=7).filter(lambda g: g.vertices))
    pairs = enumerate_admissible_pairs(g)
    with_s = [q for q in pairs if q.s]
    pair = data.draw(st.sampled_from(with_s if with_s and data.draw(st.booleans()) else pairs))
    p = data.draw(presentations(g, pair, regular))
    return g, p, IdealPresentation(field=Q, pair=pair)


@settings(max_examples=500)
@given(data=st.data())
def test_orthogonality_equals_the_item_rule_at_infinite_emitters(data):
    g, p, _ = drawn_case(data, regular=False)
    for pair in enumerate_admissible_pairs(g):
        j = IdealPresentation(field=Q, pair=pair)
        assert is_orthogonal(g, p, j) == item_orthogonal(g, p, j), pair


@settings(max_examples=300)
@given(data=st.data())
def test_psi_of_a_presentation_equals_psi_of_its_rewrite(data):
    g, p, _ = drawn_case(data, regular=True)
    assert galois_psi(g, p) == galois_psi(g, rewrite(g, p))


@settings(max_examples=100)
@given(data=st.data())
def test_orth_and_end_print_a_presentation_as_its_rewrite(data):
    g, p, j = drawn_case(data, regular=True)
    with tempfile.TemporaryDirectory() as tmp:
        graph, ideal, pres = (Path(tmp, name) for name in ("g.graph", "j.ideal", "p.pres"))
        graph.write_text(serialize_digraph(g))
        ideal.write_text(serialize_ideal(j))
        printed = []
        for q in (p, rewrite(g, p)):
            pres.write_text(text(q))
            printed.append([run(*command, pres, "--format", fmt)
                            for command in (("orth", graph, ideal), ("end", graph))
                            for fmt in ("text", "json-lines")])
        assert printed[0] == printed[1]


def test_fork_corner_is_the_projective_of_the_other_arrow(tmp_path):
    # v is regular, so (CK2) makes v − a1a1* = a2a2*, and a2a2*L ≅ w2L
    graph = corpus_path("fork")
    ideal = tmp_path / "w2.ideal"
    ideal.write_text("ideal w2\nfield Q\nH w2\n")
    for line in ("corner v {a1#0}", "P: w2"):
        pres = tmp_path / "p.pres"
        pres.write_text(line + "\n")
        assert run("orth", graph, ideal, pres) == (0, "orthogonal: true\n", "")
        assert run("end", graph, pres) == (0, "finite: 1 × M_1\n", "")


def test_a_rewrite_grows_with_the_classes_not_their_multiplicities(tmp_path):
    # v − a₀a₀* − b₀b₀* is m − 1 copies of wL, gathered in one item; m = 10⁶
    # first, so that a rewrite by instances fails there and never tries 10⁹
    graph, ideal, pres = (tmp_path / name for name in ("wide.graph", "w.ideal", "p.pres"))
    ideal.write_text("ideal w\nfield Q\nH w\n")
    for m in (10**6, 10**9):
        graph.write_text(f"digraph wide\nvertex v\nvertex w\nvertex u\narrow a v w {m}\n"
                         "arrow b v u\n")
        p = parse_presentation("corner v {a#0, b#0}\n")
        assert validate_presentation(parse_digraph(graph.read_text()), p).items == (
            VertexGen("w", m - 1),)
        for line in ("corner v {a#0, b#0}", "P: w"):
            pres.write_text(line + "\n")
            assert run("orth", graph, ideal, pres) == (0, "orthogonal: true\n", "")
        pres.write_text("corner v {a#0}\n")  # b₀ stays, and u lies outside J
        assert run("orth", graph, ideal, pres) == (0, "orthogonal: false\n", "")
        pres.write_text("corner v {a#0, b#0}\n")
        assert run("end", graph, pres) == (0, f"finite: 1 × M_{m - 1}\n", "")

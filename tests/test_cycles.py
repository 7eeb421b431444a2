"""The cycle search and the no-exit walk against their exhaustive oracles."""

import random
import subprocess
import sys
import time

import pytest

from leavitt.digraph import (
    OMEGA,
    Digraph,
    _vertex_cycles,
    cycle_vertices,
    enumerate_cycles,
    no_exit_cycles,
)
from leavitt.ideals import (
    enumerate_admissible_pairs,
    ensure_admissible,
    no_exit_quotient_cycles,
    quotient_out_degree,
)
from leavitt.ktheory import CornerKind, FgipClass, classify_fgips, corner_classify

from conftest import corpus_graphs
from test_io_cli import child_env, run_cli

RANDOM_GRAPHS = 1000


def random_digraph(seed: int) -> Digraph:
    """At most 9 vertices, with loops, parallel classes, multiplicity 2 and ω.

    Out-degrees lean towards one, so cycles without exits are common.
    """
    rng = random.Random(seed)
    vs = [f"v{i}" for i in range(rng.randint(1, 9))]
    arrows = []
    for v in vs:
        for _ in range(rng.choice((0, 1, 1, 1, 2, 3))):
            target = rng.choice(vs)
            for _ in range(rng.choice((1, 1, 1, 2))):  # 2: a parallel class
                mult = rng.choice((1,) * 8 + (2, OMEGA))
                arrows.append((f"e{len(arrows)}", v, target, mult))
    return Digraph(f"r{seed}", vs, arrows)


def rotated(vs) -> tuple:
    k = vs.index(min(vs))
    return tuple(vs[k:]) + tuple(vs[:k])


def all_cycles_no_exit(g: Digraph, out_degree) -> list:
    """The definition: enumerate every cycle, keep multiplicity one and out-degree one."""
    return [i.cycle for i in enumerate_cycles(g) if i.multiplicity_one
            and all(out_degree(v) == 1 for v in cycle_vertices(g, i.cycle))]


def quotient_oracle(g: Digraph, pair) -> list:
    primed = ensure_admissible(g, pair)
    sub = g.full_subgraph(v for v in g.vertices if v not in pair.h)
    return all_cycles_no_exit(sub, lambda v: quotient_out_degree(g, pair.h, primed, v))


def graphs_under_test():
    yield from corpus_graphs().values()
    for seed in range(RANDOM_GRAPHS):
        yield random_digraph(seed)


def test_vertex_cycles_match_networkx():
    nx = pytest.importorskip("networkx")
    with_cycles = 0
    for seed in range(RANDOM_GRAPHS):
        g = random_digraph(seed)
        simple = nx.DiGraph()
        simple.add_nodes_from(g.vertices)
        simple.add_edges_from((a.source, a.target) for a in g.arrows if a.source != a.target)
        ours = [rotated(vs) for vs in _vertex_cycles(g)]
        assert len(ours) == len(set(ours)), g
        assert set(ours) == {rotated(vs) for vs in nx.simple_cycles(simple)}, g
        with_cycles += bool(ours)
    assert with_cycles > RANDOM_GRAPHS // 2


def test_no_exit_walk_matches_enumeration():
    seen = 0
    for g in graphs_under_test():
        expected = all_cycles_no_exit(g, g.out_degree)
        assert no_exit_cycles(g) == expected, g
        assert classify_fgips(g) == tuple(
            FgipClass(c, g.predecessors(cycle_vertices(g, c))) for c in expected)
        for info in enumerate_cycles(g):
            assert info.has_exit == (info.cycle not in expected)
        on_laurent = {v for c in expected for v in cycle_vertices(g, c)}
        for v in g.vertices:
            kind = corner_classify(g, v)
            assert (kind == CornerKind.LAURENT_RING) == (v in on_laurent), (g, v)
        seen += len(expected)
    assert seen > RANDOM_GRAPHS // 4


def test_no_exit_quotient_walk_matches_enumeration():
    pairs = 0
    for g in graphs_under_test():
        for pair in enumerate_admissible_pairs(g):
            assert no_exit_quotient_cycles(g, pair) == quotient_oracle(g, pair), (g, pair)
            pairs += 1
    assert pairs > 2 * RANDOM_GRAPHS


def ring(n: int) -> Digraph:
    vs = [f"v{i}" for i in range(n)]
    arrows = [(f"r{i}", vs[i], vs[(i + 1) % n]) for i in range(n)]
    arrows += [(f"l{i}", v, v) for i, v in enumerate(vs)]
    return Digraph(f"ring{n}", vs, arrows)


def complete(n: int, name: str) -> str:
    vs = [f"k{i}" for i in range(n)]
    lines = [f"digraph {name}"] + [f"vertex {v}" for v in vs]
    lines += [f"arrow e{s}{t} {s} {t}" for s in vs for t in vs if s != t]
    return "\n".join(lines) + "\n"


def test_long_ring_needs_no_recursion():
    cycles = enumerate_cycles(ring(5000))
    assert len(cycles) == 5001
    assert sum(len(i.cycle) == 5000 for i in cycles) == 1


def test_cycle_limit_stops_the_search_early(tmp_path):
    graph = tmp_path / "k12.graph"
    graph.write_text(complete(12, "k12"))
    start = time.perf_counter()
    assert run_cli("--max-cycles", "1000", "analyze", str(graph))[0] == 4
    assert time.perf_counter() - start < 10


def test_fgip_and_strata_limit_the_cycles_they_list(tmp_path):
    graph = tmp_path / "k4loop.graph"
    graph.write_text(complete(4, "k4loop") + "vertex z\narrow l z z\n")
    assert run_cli("--max-cycles", "5", "fgip", str(graph)) == (0, "fgip (l): support z\n")
    code, out = run_cli("--max-pairs", "6", "strata", "--field", "F2", "--max-deg", "1",
                        str(graph))
    assert code == 0 and out.count("beta=[(l)]") == 2
    assert run_cli("--max-cycles", "5", "analyze", str(graph))[0] == 4


@pytest.mark.parametrize("limits,message", [
    ((), "more than 10000 strata"),
    (("--max-pairs", "200000"), "fixed bound of 4300 decimal digits"),
], ids=["strata", "digits"])
def test_strata_max_deg_is_bounded(tmp_path, limits, message):
    graph = tmp_path / "loop.graph"
    graph.write_text("digraph loop\nvertex v\narrow c v v\n")
    proc = subprocess.run(
        [sys.executable, "-m", "leavitt.cli", *limits, "strata", "--field", "F3",
         "--max-deg", "100000", str(graph)],
        capture_output=True, text=True, env=child_env(), timeout=10)
    assert proc.returncode == 4
    assert message in proc.stderr


def test_cli_import_leaves_networkx_out():
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, leavitt.cli; print('networkx' in sys.modules)"],
        capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0 and proc.stdout == "False\n", proc.stderr

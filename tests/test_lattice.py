"""Output-sensitive hereditary saturated sets, closure and pair lattice against
their exhaustive predecessors, and the absence of a vertex cap."""

import itertools
import subprocess
import sys
import time

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    digraphs,
    fixpoint_closure,
    search_lattice_tables,
    sweep_hereditary_saturated,
)
from leavitt.digraph import (
    Digraph,
    breaking_vertices,
    enumerate_hereditary_saturated,
    hereditary_saturated_closure,
)
from leavitt.errors import ResourceLimitError
from leavitt.ideals import AdmissiblePair, enumerate_admissible_pairs, pair_lattice

from conftest import corpus_graphs
from test_io_cli import child_env

SMALL_CORPUS = [g for g in corpus_graphs().values() if len(g.vertices) <= 12]


def powerset(xs):
    return itertools.chain.from_iterable(itertools.combinations(xs, k) for k in range(len(xs) + 1))


def sq_chain(n: int) -> Digraph:
    """v0 -> v1 -> ... -> v(n-1), a loop at every vertex: n + 1 closed sets."""
    return Digraph(f"sq{n}", [f"v{i}" for i in range(n)],
                   [(f"c{i}", f"v{i}", f"v{i}") for i in range(n)]
                   + [(f"a{i}", f"v{i}", f"v{i + 1}") for i in range(n - 1)])


def assert_lattice_matches_search(g: Digraph):
    lattice = pair_lattice(g)
    assert list(lattice.elements) == enumerate_admissible_pairs(g)
    meet, join = search_lattice_tables(lattice.elements)
    assert lattice.meet_table == meet
    assert lattice.join_table == join


class TestAgainstOracles:
    @pytest.mark.parametrize("g", SMALL_CORPUS, ids=lambda g: g.name)
    def test_corpus(self, g):
        assert enumerate_hereditary_saturated(g) == sweep_hereditary_saturated(g)
        for v in g.vertices:
            assert hereditary_saturated_closure(g, {v}) == fixpoint_closure(g, {v})
        assert_lattice_matches_search(g)

    @settings(max_examples=120)
    @given(g=digraphs())
    def test_enumeration_equals_sweep(self, g):
        assert enumerate_hereditary_saturated(g) == sweep_hereditary_saturated(g)

    @settings(max_examples=120)
    @given(data=st.data())
    def test_closure_equals_fixpoint(self, data):
        g = data.draw(digraphs())
        seeds = data.draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else set()
        assert hereditary_saturated_closure(g, seeds) == fixpoint_closure(g, seeds)

    @settings(max_examples=120)
    @given(g=digraphs(max_vertices=7))
    def test_admissible_pairs_equal_sweep(self, g):
        expected = [AdmissiblePair(h, frozenset(s))
                    for h in sweep_hereditary_saturated(g)
                    for s in powerset(sorted(breaking_vertices(g, h)))]
        assert enumerate_admissible_pairs(g) == sorted(expected, key=AdmissiblePair.sort_key)

    @settings(max_examples=120)
    @given(g=digraphs(max_vertices=7))
    def test_pair_lattice_equals_search(self, g):
        assume(len(enumerate_admissible_pairs(g)) <= 64)
        assert_lattice_matches_search(g)

    def test_limit_counts_like_the_sweep(self):
        g = Digraph("sinks", [f"v{i}" for i in range(6)], [])  # 64 sets
        assert len(enumerate_hereditary_saturated(g, limit=64)) == 64
        for fn in (enumerate_hereditary_saturated, sweep_hereditary_saturated):
            with pytest.raises(ResourceLimitError):
                fn(g, limit=63)


class TestNoVertexCap:
    @staticmethod
    def _analyze(tmp_path, n, *flags):
        g = sq_chain(n)
        lines = [f"digraph {g.name}"] + [f"vertex {v}" for v in g.vertices]
        lines += [f"arrow {a.id} {a.source} {a.target}" for a in g.arrows]
        path = tmp_path / f"{g.name}.graph"
        path.write_text("\n".join(lines) + "\n")
        return subprocess.run(
            [sys.executable, "-m", "leavitt.cli", "analyze", *flags, str(path)],
            capture_output=True, text=True, env=child_env(), timeout=10)

    @pytest.mark.parametrize("n", [20, 200])
    def test_sq_chain_lists_every_set(self, tmp_path, n):
        proc = self._analyze(tmp_path, n)
        assert proc.returncode == 0, proc.stderr
        hs_lines = [line for line in proc.stdout.splitlines() if line.startswith("hs-set ")]
        assert len(hs_lines) == n + 1

    def test_max_pairs_still_bounds_analyze(self, tmp_path):
        proc = self._analyze(tmp_path, 20, "--max-pairs", "5")
        assert proc.returncode == 4, proc.stderr

    def test_limit_stops_a_huge_lattice_early(self):
        g = Digraph("sinks", [f"v{i}" for i in range(40)], [])  # 2⁴⁰ closed sets
        start = time.perf_counter()
        with pytest.raises(ResourceLimitError):
            enumerate_hereditary_saturated(g, limit=100)
        assert time.perf_counter() - start < 1.0


class TestPairLatticeIndex:
    def test_index_is_position(self, sq2):
        lattice = pair_lattice(sq2)
        assert [lattice.index(p) for p in lattice.elements] == list(range(5))

    def test_index_of_a_stranger(self, sq2):
        with pytest.raises(ValueError):
            pair_lattice(sq2).index(AdmissiblePair.of({"u"}))

    def test_256_elements(self):
        loops = Digraph("c8", [f"v{i}" for i in range(8)],
                        [(f"c{i}", f"v{i}", f"v{i}") for i in range(8)])
        lattice = pair_lattice(loops)
        assert len(lattice.elements) == 256
        top = AdmissiblePair.of(loops.vertices)
        assert all(lattice.join(p, top) == top for p in lattice.elements)
        assert all(lattice.meet(p, top) == p for p in lattice.elements)

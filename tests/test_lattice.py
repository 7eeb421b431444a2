"""Output-sensitive hereditary saturated sets, closure and pair lattice against
their exhaustive predecessors, and the absence of a vertex cap."""

import contextlib
import io
import itertools
import json
import math
import random
import subprocess
import sys
import tempfile
import time
import tracemalloc
from collections.abc import Mapping
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from helpers import (
    bitset_lattice_tables,
    closure_enumerate_hereditary_saturated,
    digit_ids,
    digraphs,
    exhaustive_degree_census,
    fixpoint_closure,
    mask_admissibility,
    scan_breaking_vertices,
    search_lattice_tables,
    sweep_hereditary_saturated,
)
from leavitt.cli import main
from leavitt.digraph import (
    OMEGA,
    Digraph,
    breaking_vertices,
    enumerate_hereditary_saturated,
    hereditary_saturated_closure,
    is_hereditary,
    is_saturated,
)
from leavitt.errors import MeetJoinFailureError, NotAdmissibleError, ResourceLimitError
from leavitt.fields import Field
from leavitt.ideals import (
    AdmissiblePair,
    admissibility,
    ensure_admissible,
    no_exit_quotient_cycles,
)
from leavitt.io import serialize_digraph
from leavitt.ktheory import galois_phi, galois_psi
from leavitt.lattice import _CellTable, enumerate_admissible_pairs, pair_lattice
from leavitt.presentations import IdealPresentation, validate_ideal

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
    assert bitset_lattice_tables(g, lattice.elements) == (meet, join)


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

    @settings(max_examples=150)
    @given(data=st.data())
    def test_bit_index_equals_frozenset_oracles(self, data):
        g = data.draw(digraphs(max_vertices=7))
        sets = enumerate_hereditary_saturated(g)
        assert sets == closure_enumerate_hereditary_saturated(g)  # the order too
        for h in sets:
            assert breaking_vertices(g, h) == scan_breaking_vertices(g, h)
            assert admissibility(g, h) == mask_admissibility(g, h) \
                == (True, True, scan_breaking_vertices(g, h))
        pairs = enumerate_admissible_pairs(g)
        assert pairs == sorted([AdmissiblePair(h, frozenset(s)) for h in sets
                                for s in powerset(sorted(scan_breaking_vertices(g, h)))],
                               key=AdmissiblePair.sort_key)
        for pair in pairs:
            assert galois_psi(g, galois_phi(g, pair).generating_items(g)) == pair
        subsets = st.sets(st.sampled_from(g.vertices)) if g.vertices else st.just(set())
        seeds, h, s = data.draw(subsets), data.draw(subsets), data.draw(subsets)
        assert hereditary_saturated_closure(g, seeds) == fixpoint_closure(g, seeds)
        # any H: not hereditary, not saturated, or fed by ω classes into its sinks
        assert admissibility(g, h) == mask_admissibility(g, h) \
            == (is_hereditary(g, h), is_saturated(g, h), scan_breaking_vertices(g, h))
        closed = is_hereditary(g, h) and is_saturated(g, h)
        admissible = closed and s <= scan_breaking_vertices(g, h)
        try:
            primed = ensure_admissible(g, AdmissiblePair.of(h, s))
        except NotAdmissibleError:
            primed = None
        assert primed == (scan_breaking_vertices(g, h) - s if admissible else None)
        report = validate_ideal(g, IdealPresentation(Field.gf(2), AdmissiblePair.of(h, s)))
        expected = [text for text, bad in (("H is not hereditary", not is_hereditary(g, h)),
                                           ("H is not saturated", not is_saturated(g, h))) if bad]
        if closed:
            expected = [f"S contains {v}, which is not a breaking vertex of H"
                        for v in sorted(s - scan_breaking_vertices(g, h))]
        assert list(report.violations) == expected
        assert report.primed == (scan_breaking_vertices(g, h) - s if closed else frozenset())
        if len(pairs) <= 64:
            assert_lattice_matches_search(g)

    def test_limit_counts_like_the_sweep(self):
        g = Digraph("sinks", [f"v{i}" for i in range(6)], [])  # 64 sets
        assert len(enumerate_hereditary_saturated(g, limit=64)) == 64
        for fn in (enumerate_hereditary_saturated, sweep_hereditary_saturated):
            with pytest.raises(ResourceLimitError):
                fn(g, limit=63)


def run_on(g: Digraph, *argv: str) -> str:
    """stdout of ``leavitt ARGV GRAPH`` run in process on g, which must exit 0."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "g.graph"
        path.write_text(serialize_digraph(g))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main([*argv, str(path)]) == 0
    return out.getvalue()


def oracle_pairs(g: Digraph) -> list[AdmissiblePair]:
    """Every admissible pair, from the 2ⁿ sweep and the B_H scan, in sort_key order."""
    return sorted([AdmissiblePair(h, frozenset(s)) for h in sweep_hereditary_saturated(g)
                   for s in powerset(sorted(scan_breaking_vertices(g, h)))],
                  key=AdmissiblePair.sort_key)


def hs_lines(sets) -> list[str]:
    return ["hs-set {" + ",".join(sorted(h)) + "}" for h in sets]


def strata_lines(g: Digraph, pairs, field: Field, max_deg: int) -> list[str]:
    """strata's report rendered from oracle pairs and the exhaustive census."""
    census = {d: exhaustive_degree_census(field, d) for d in range(1, max_deg + 1)}
    lines = []
    for pair in pairs:
        cycles = sorted(no_exit_quotient_cycles(g, pair), key=lambda c: c.arrows)
        for r in range(len(cycles) + 1):
            for beta in itertools.combinations(cycles, r):
                for degrees in itertools.product(range(1, max_deg + 1), repeat=r):
                    lines.append(
                        f"stratum pair={pair.label()} "
                        f"beta=[{' '.join(c.label() for c in beta)}] "
                        f"degrees=[{' '.join(map(str, degrees))}]: "
                        f"parameters {math.prod(census[d][0] for d in degrees)}, "
                        f"dlf {math.prod(census[d][1] for d in degrees)}")
    return lines


def component_union(kinds: str) -> Digraph:
    """Disjoint components by letter: A a loop feeding a sink (3 closed sets),
    B an ω-breaking vertex (5), C a bare loop (2)."""
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
    return Digraph("union", vertices, arrows)


class TestMasksAgainstOracles:
    """The mask enumeration, the pair order read off the masks, and the
    reports rendered from them, against the frozenset oracles."""

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_ids_by_byte_table_equal_the_binary_digits(self, data):
        # up to 40 vertices: masks of one to five bytes, ids such as v10 < v2
        bits = data.draw(digraphs(max_vertices=40)).bits
        for m in data.draw(st.lists(st.integers(0, bits.everything), max_size=8)):
            assert bits.ids(m) == digit_ids(bits, m)

    @settings(max_examples=100, deadline=None)
    @given(g=digraphs(max_vertices=8))
    def test_masks_pairs_and_reports(self, g):
        bits = g.bits
        sets = closure_enumerate_hereditary_saturated(g)
        assert sweep_hereditary_saturated(g) == sets
        assert [bits.members(m) for m in enumerate_hereditary_saturated(g, masks=True)] \
            == sets  # in order
        for v in g.vertices:
            assert bits.ancestors[bits.bit[v].bit_length() - 1] == bits.mask(g.predecessors([v]))
        pairs = oracle_pairs(g)
        assert enumerate_admissible_pairs(g) == pairs  # in order
        assert enumerate_admissible_pairs(g, masks=True) == \
            [(bits.mask(p.h), bits.mask(p.s)) for p in pairs]

        analyze = run_on(g, "analyze").splitlines()
        head = [line for line in analyze if not line.startswith("hs-set ")]
        assert analyze == head + hs_lines(sets)
        records = [json.loads(line) for line in run_on(g, "--format", "json-lines", "analyze")
                   .splitlines()]
        assert [r["vertices"] for r in records if r["record"] == "hs-set"] == \
            [sorted(h) for h in sets]
        assert [r["text"] for r in records] == analyze

        # up to 4⁸ records (eight bare loops), beyond the default maxPairs
        strata_argv = ["--max-pairs", "100000", "strata", "--field", "F3", "--max-deg", "2"]
        strata = run_on(g, *strata_argv).splitlines()
        assert strata == strata_lines(g, pairs, Field.gf(3), 2)
        records = [json.loads(line) for line in run_on(
            g, "--format", "json-lines", *strata_argv).splitlines()]
        assert [r["text"] for r in records] == strata
        # every pair has its graded stratum (β empty), so each shows, in order
        assert list(dict.fromkeys((tuple(r["h"]), tuple(r["s"])) for r in records)) == \
            [(tuple(sorted(p.h)), tuple(sorted(p.s))) for p in pairs]

    def test_largest_analyze_of_the_lattice_schedule(self):
        """15 vertices, 9,600 closed sets, 9,623 lines."""
        g = component_union("CCBBCCACCC")
        sets = closure_enumerate_hereditary_saturated(g)
        assert len(sets) == 2**7 * 5**2 * 3
        analyze = run_on(g, "analyze").splitlines()
        head = [line for line in analyze if not line.startswith("hs-set ")]
        assert len(analyze) == 9623 and analyze == head + hs_lines(sets)


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

    def test_tables_are_read_only_square_mappings(self, sq2):
        lattice = pair_lattice(sq2)
        cells = {(i, k) for i in range(5) for k in range(5)}
        for table in (lattice.meet_table, lattice.join_table):
            assert isinstance(table, Mapping) and len(table) == 25 and set(table) == cells
            assert all(table[i, k] == table[k, i] for i, k in cells)
            assert list(table) == list(itertools.product(range(5), repeat=2))
            for key in [(-1, 0), (0, -1), (5, 0), (0, 5), (0,), (0, 0, 0), 0, "ab", None,
                        (0.0, 1), ("0", 1)]:
                assert key not in table
                with pytest.raises(KeyError):
                    table[key]
            with pytest.raises(TypeError):
                table[0, 0] = 0

    def test_256_elements(self):
        loops = Digraph("c8", [f"v{i}" for i in range(8)],
                        [(f"c{i}", f"v{i}", f"v{i}") for i in range(8)])
        lattice = pair_lattice(loops)
        assert len(lattice.elements) == 256
        top = AdmissiblePair.of(loops.vertices)
        assert all(lattice.join(p, top) == top for p in lattice.elements)
        assert all(lattice.meet(p, top) == p for p in lattice.elements)


class TestCellsOnRead:
    #: x and y below both p and q: p and q have no meet, x and y no join
    ELEMENTS = tuple(AdmissiblePair.of({v}) for v in "xypq")
    DOWN = [0b0001, 0b0010, 0b0111, 0b1011]  # by rank: x, y, p, q
    UP = [0b1101, 0b1110, 0b0100, 0b1000]

    def table(self, meet: bool) -> _CellTable:
        return _CellTable(self.ELEMENTS, [0, 1, 2, 3], self.DOWN if meet else self.UP, meet)

    def test_missing_meet_raises_naming_both_pairs(self):
        meet = self.table(meet=True)
        for key in [(2, 3), (3, 2)]:
            with pytest.raises(MeetJoinFailureError, match=r"no meet for \(\{p\}, \{\}\) "
                                                           r"and \(\{q\}, \{\}\)"):
                meet[key]
        assert meet[0, 2] == 0 and meet[2, 2] == 2 and meet[3, 1] == 1

    def test_missing_join_raises_naming_both_pairs(self):
        join = self.table(meet=False)
        with pytest.raises(MeetJoinFailureError, match=r"no join for \(\{x\}, \{\}\) "
                                                       r"and \(\{y\}, \{\}\)"):
            join[1, 0]
        assert join[0, 2] == 2 and join[3, 3] == 3

    def test_an_empty_intersection_has_no_meet(self):
        meet = self.table(meet=True)
        with pytest.raises(MeetJoinFailureError, match="no meet"):
            meet[0, 1]  # x and y share no lower bound here

    def test_mapping_shape(self):
        for table in (self.table(meet=True), self.table(meet=False)):
            assert len(table) == 16
            assert list(table) == list(itertools.product(range(4), repeat=2))
            for key in [(4, 0), (0, -1), (1,), 1, "xy", None, (1.0, 0)]:
                with pytest.raises(KeyError):
                    table[key]


def test_13_loops_read_on_demand():
    """8,192 pairs: the tables store no n² cells (two 67-million-cell lists
    before), so reading 1,000 cells stays far below 64 MB."""
    g = Digraph("c13", [f"v{i}" for i in range(13)],
                [(f"c{i}", f"v{i}", f"v{i}") for i in range(13)])
    tracemalloc.start()
    try:
        lattice = pair_lattice(g)
        rng = random.Random(13)
        n = len(lattice.elements)
        cells = [(rng.randrange(n), rng.randrange(n)) for _ in range(1000)]
        read = [(lattice.meet_table[c], lattice.join_table[c]) for c in cells]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n == 8192 and peak < 64 * 2**20
    # with loops only, S is always empty, so the meet is H ∩ H' and the join H ∪ H'
    for (i, k), (m, j) in zip(cells, read):
        a, b = lattice.elements[i], lattice.elements[k]
        assert lattice.elements[m].h == a.h & b.h and lattice.elements[j].h == a.h | b.h

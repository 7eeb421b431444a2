"""Work gates on generated families: a command's work is counted, not timed,
at n and 2n, so a gate does not depend on the machine.

Family so far: sq chains with a cut ideal.  Checking (H, S) reads only the
arrows at H, so its work does not grow with the chain at all, and the ideal
commands build no bit index over the whole digraph.
"""

from collections import Counter

import pytest

from leavitt import io
from leavitt.fields import Field
from leavitt.ideals import AdmissiblePair, ensure_admissible
from leavitt.io import serialize_digraph
from leavitt.presentations import IdealPresentation, serialize_ideal, validate_ideal

from test_io_cli import run_cli
from test_lattice import sq_chain
from test_walks import count_list_reads

#: H is the last CUT vertices of the chain, which only v(n−CUT−1) feeds.
CUT = 10
F2 = Field.gf(2)


def cut_chain(n: int):
    g = sq_chain(n)
    return g, AdmissiblePair.of(g.vertices[-CUT:])


def validate(g, pair):
    assert validate_ideal(g, IdealPresentation(F2, pair)).valid


def check(g, pair):
    assert ensure_admissible(g, pair) == frozenset()


@pytest.mark.parametrize("checker", [validate, check],
                         ids=["validate_ideal", "ensure_admissible"])
def test_checking_a_cut_reads_only_the_lists_at_h(checker):
    reads = []
    for n in (1000, 2000):
        g, pair = cut_chain(n)
        counts: Counter = Counter()
        count_list_reads(g, counts)
        checker(g, pair)
        reads.append(counts["lists"])
    # the out- and in-lists of H, and the out-list of the one vertex feeding H
    assert reads == [2 * CUT + 1] * 2


@pytest.mark.parametrize("command", ["decide", "quotient"])
def test_ideal_commands_on_a_cut_chain_build_no_bit_index(command, tmp_path, monkeypatch):
    g, pair = cut_chain(2000)
    graph, ideal = tmp_path / "chain.graph", tmp_path / "cut.ideal"
    graph.write_text(serialize_digraph(g))
    ideal.write_text(serialize_ideal(IdealPresentation(F2, pair, name="cut")))
    parse, parsed = io.parse_digraph, []

    def parse_keeping(text, path=None):
        parsed.append(parse(text, path))
        return parsed[-1]

    monkeypatch.setattr(io, "parse_digraph", parse_keeping)
    code, out = run_cli(command, str(graph), str(ideal))
    assert code == 0 and out
    assert len(parsed) == 1 and "bits" not in vars(parsed[0])

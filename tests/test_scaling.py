"""Work gates on generated families: a command's work is counted, not timed,
at n and 2n, so a gate does not depend on the machine.

Families: sq chains with a cut ideal, whose (H, S) check reads only the
arrows at H, so its work does not grow with the chain at all, and the ideal
commands build no bit index over the whole digraph; and cut sq chains with a
ℚ θ on every surviving loop, whose ideal commands (``decide``, ``radical``,
``sever`` and ``certificate``) do work linear in n.
"""

import sys
from collections import Counter
from fractions import Fraction

import pytest

from leavitt import io
from leavitt.fields import Field, Polynomial
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


def rational_cut_chains(n: int, plant: bool) -> dict:
    """n/2 copies of the sq chain u → w (a loop at each), each cut at w, so u's
    loop survives with no exit and carries a θ over ℚ of degree 1 to 3 with
    planted roots; with ``plant``, every fifth θ is a square or irreducible."""
    q, graph, ideal = Field.rationals(), ["digraph qchain"], ["ideal qcut", "field Q"]
    for i in range(n // 2):
        graph += [f"vertex u{i}", f"vertex w{i}", f"arrow c{i} u{i} u{i}",
                  f"arrow d{i} w{i} w{i}", f"arrow a{i} u{i} w{i}"]
        roots = [Fraction(-1 - (i + k) % 9, 1 + k) for k in range(1 + i % 3)]
        theta = Polynomial.from_roots(q, roots)
        if plant and i % 5 == 0:
            theta = Polynomial.from_roots(q, roots[:1] * 2) if i % 10 else \
                Polynomial.of(q, [1, 0, 1 + i % 4])
        theta = theta.scale(q.inv(theta.constant_term))
        ideal += [f"H w{i}", f"cycle C{i}: c{i}", f"poly C{i}: {theta}"]
    return {"qchain.graph": "\n".join(graph) + "\n", "qcut.ideal": "\n".join(ideal) + "\n"}


def python_calls(*args) -> int:
    """The Python function calls one in-process command line makes."""
    calls = Counter()

    def count(frame, event, arg):
        calls[event] += 1

    sys.setprofile(count)
    try:
        code, out = run_cli(*args)
    finally:
        sys.setprofile(None)
    assert code == 0 and out
    return calls["call"]


@pytest.mark.parametrize("command", ["decide", "radical", "sever", "certificate"])
def test_rational_ideal_commands_on_a_cut_chain_do_linear_work(command, tmp_path):
    paths = []
    for n in (40, 1000, 2000):
        for name, text in rational_cut_chains(n, plant=command == "radical").items():
            (tmp_path / f"{n}{name}").write_text(text)
        paths.append((str(tmp_path / f"{n}qchain.graph"), str(tmp_path / f"{n}qcut.ideal")))
    python_calls(command, *paths[0])  # imports and first-use caches off the count
    small, large = (python_calls(command, *pair) for pair in paths[1:])
    assert large <= 2.5 * small

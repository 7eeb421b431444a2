"""The one-pass readers and the ℚ root paths against what they replaced
(oracles in ``helpers``): the digraph parser that built ``Digraph(...)`` from
the collected lines, ``Fraction(token)`` and ``Polynomial.of`` for θ, and the
ℚ roots and squarefree parts taken through the integer form at every degree.
The digraphs the library builds, unchecked, are indexed as ``Digraph(...)``
indexes them, and no command runs its checks."""

from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    digraphs,
    fraction_parse,
    init_parse_digraph,
    keyword_verdict,
    lifted_roots,
    lifted_squarefree,
    planted_ideals,
)
from leavitt.digraph import Digraph
from leavitt.errors import LeavittError
from leavitt.fields import (
    Field,
    Polynomial,
    RootMultiset,
    find_roots,
    is_dlf,
    squarefree_part,
    squarefree_verdict,
)
from leavitt.io import parse_digraph, serialize_digraph
from leavitt.presentations import parse_ideal
from leavitt.quotients import cycle_to_loop, graded_quotient, sever

from test_io_cli import SAMPLE_ARGS, cpath, run_cli
from test_roots import rational_planted
from test_validated import counted

Q = Field.rationals()


def outcome(fn, *args):
    """fn's result, or the type and text of the error it raised."""
    try:
        return fn(*args)
    except (LeavittError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def internals(g):
    return g.name, g.vertices, g.arrows, g._by_id, g._out, g._in


# -- digraphs ---------------------------------------------------------------------

IDS = ["a", "b", "c", "e", "f"]
ARROWS = st.builds(lambda a, s, t, k: f"arrow {a} {s} {t}{k}", st.sampled_from(IDS),
                   st.sampled_from(IDS), st.sampled_from(IDS),
                   st.sampled_from(["", "", "", " 1", " 3", " omega", " 0", " x", " ²", " 2 2"]))
LINES = st.one_of(
    st.builds(lambda *w: " ".join(w), st.just("digraph"), st.sampled_from(["g", "h"])),
    st.builds(lambda v: f"vertex {v}", st.sampled_from(IDS)),
    ARROWS,
    st.sampled_from(["", "# note", "vertex", "arrow e a", "edge e a b", "vertex a # c",
                     "digraph", "\tvertex  b\t", "digraph g h"]),
)


@settings(max_examples=300)
@given(data=st.data())
def test_parsed_text_gives_what_the_checked_constructor_gave(data):
    # drawn lines fail at every check of the parser, or make a digraph; half
    # the draws declare some ids and then draw arrows, so the arrow checks are reached
    if data.draw(st.booleans()):
        declared = data.draw(st.lists(st.sampled_from(IDS), min_size=2, unique=True))
        lines = ["digraph g", *(f"vertex {v}" for v in declared), *data.draw(st.lists(ARROWS))]
    else:
        lines = data.draw(st.lists(LINES, max_size=12))
    text = "\n".join(lines) + "\n"
    new = outcome(parse_digraph, text, "x.graph")
    old = outcome(init_parse_digraph, text, "x.graph")
    if isinstance(old, tuple) and isinstance(old[0], str):
        assert new == old
    else:
        assert internals(new) == internals(old)


@settings(max_examples=150)
@given(g=digraphs())
def test_parsed_digraphs_keep_every_index(g):
    text = serialize_digraph(g)
    assert internals(parse_digraph(text)) == internals(init_parse_digraph(text)) \
        == internals(g)


def checked(g):
    """The same digraph, built by the checked constructor."""
    return Digraph(g.name, g.vertices, g.arrows)


@settings(max_examples=150)
@given(planted=planted_ideals(), data=st.data())
def test_built_digraphs_keep_the_indexes_of_the_checked_constructor(planted, data):
    # the graded quotient, Γ//J, a cycle-to-loop rewrite and a full subgraph are built unchecked
    g, j = planted
    quotient = graded_quotient(g, j.pair).digraph
    looped = cycle_to_loop(quotient, j.beta).digraph
    kept = data.draw(st.sets(st.sampled_from(g.vertices))) if g.vertices else set()
    for built in (quotient, sever(g, j).digraph, looped, g.full_subgraph(kept)):
        assert internals(built) == internals(checked(built))


#: Every command that builds a digraph from an ideal, with operands that make it build one.
QUOTIENT_COMMANDS = {
    **{name: SAMPLE_ARGS[name] for name in ("quotient", "decide", "sever", "certificate",
                                            "radical")},
    "dim": (cpath("ek"), cpath("ek-ideal-Q")),
}


@pytest.mark.parametrize("name", list(QUOTIENT_COMMANDS))
def test_no_command_runs_the_checked_constructor(monkeypatch, name):
    # the operand digraph and at least one quotient, all through Digraph.trusted
    counts: Counter = Counter()
    monkeypatch.setattr(Digraph, "__init__", counted(counts, "init", Digraph.__init__))
    monkeypatch.setattr(Digraph, "trusted",
                        classmethod(counted(counts, "trusted", Digraph.trusted.__func__)))
    assert run_cli(name, *QUOTIENT_COMMANDS[name])[0] == 0
    monkeypatch.undo()
    assert counts["init"] == 0 and counts["trusted"] >= 2


# -- θ tokens and θ ---------------------------------------------------------------

TOKENS = st.one_of(
    st.from_regex(r"\A[+-]?[0-9]{1,20}(/[0-9]{1,20})?\Z"),
    st.builds(lambda n, d: f"{n}/{d}", st.integers(-10**15, 10**15), st.integers(0, 3)),
    st.sampled_from(["3/0", "-0/0", "1.5", "+-1", "١٢", "1/-2", "1e3", "", "/", "7/",
                     "0x1", "9" * 4301, "-" + "9" * 4301, "1/" + "9" * 4301, "٣/4"]),
)


@settings(max_examples=400)
@given(token=TOKENS)
def test_rational_tokens_read_as_fraction_read_them(token):
    assert outcome(Q.parse_scalar, token) == outcome(fraction_parse, token)


@settings(max_examples=200)
@given(p=st.sampled_from([None, 2, 5, 1048573]),
       tokens=st.lists(st.integers(0, 4), min_size=1, max_size=6))
def test_parsed_theta_is_the_coerced_polynomial(p, tokens):
    # trailing zeros included: the parser trims them as Polynomial.of did
    field = Field(p)
    words = [str(t % (p or 5)) if t else "0" for t in tokens]
    j = parse_ideal(f"ideal j\nfield {field.header()}\ncycle C: e\npoly C: {' '.join(words)}\n")
    expected = Polynomial.of(field, [field.parse_scalar(w) for w in words])
    assert list(j.theta.values()) == [expected]
    assert all(type(c) is type(field.one) for c in expected.coeffs)


# -- roots, dlf verdicts and squarefree parts over ℚ ------------------------------

THETAS = st.one_of(rational_planted(), rational_planted(digits=13))


def lifted_multiset(f: Polynomial) -> RootMultiset:
    roots, unfactored = lifted_roots(f.coeffs)
    return RootMultiset(tuple(roots), unfactored)


@settings(max_examples=300)
@given(planted=THETAS)
def test_rational_roots_and_verdicts_equal_the_integer_form_at_every_degree(planted):
    # repeated roots, irreducible quadratics, xᵏ and roots above 10¹² are drawn
    f = planted[0]
    rm = lifted_multiset(f)
    assert find_roots(f) == rm
    if f.degree >= 1:
        assert is_dlf(f) == keyword_verdict(rm)


@settings(max_examples=300)
@given(planted=THETAS)
def test_rational_squarefree_parts_equal_the_integer_form_at_every_degree(planted):
    f = planted[0]
    if f.degree < 1 or f.constant_term == 0:
        return
    part = Polynomial.of(Q, lifted_squarefree(f.coeffs))
    assert squarefree_part(f) == part
    assert squarefree_verdict(f) == (part, keyword_verdict(lifted_multiset(part)))


def test_degree_one_is_read_off_its_coefficients():
    f = Polynomial.of(Q, [Fraction(-10**13 - 37, 7), Fraction(3, 5)])
    root = Fraction(5 * (10**13 + 37), 21)
    assert find_roots(f) == lifted_multiset(f) == RootMultiset(((root, 1),), 0)
    assert squarefree_verdict(f) == (f.scale(f.field.inv(f.constant_term)),
                                     keyword_verdict(find_roots(f)))


@settings(max_examples=100)
@given(p=st.sampled_from([2, 3, 7, 1009]), coeffs=st.lists(st.integers(0, 1008), min_size=2,
                                                           max_size=6))
def test_prime_field_verdicts_are_unchanged(p, coeffs):
    field = Field.gf(p)
    f = Polynomial.of(field, coeffs)
    if f.degree < 1:
        return
    assert is_dlf(f) == keyword_verdict(find_roots(f))
    if f.constant_term:
        part = squarefree_part(f)
        assert squarefree_verdict(f) == (part, keyword_verdict(find_roots(part)))

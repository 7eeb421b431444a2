import sys
from pathlib import Path

import pytest
from hypothesis import settings

from leavitt.digraph import Digraph
from leavitt.ideals import IdealPresentation
from leavitt.io import parse_digraph, parse_ideal

sys.path.insert(0, str(Path(__file__).parent))  # make helpers importable

# One profile for every property test: the same examples on every run and no
# per-example deadline (exact arithmetic on a loaded host is slow, not wrong).
# Tests set only their own max_examples.
settings.register_profile("leavitt", derandomize=True, deadline=None)
settings.load_profile("leavitt")

CORPUS = Path(__file__).resolve().parent.parent / "src" / "leavitt" / "corpus"

GRAPH_NAMES = sorted(p.stem for p in CORPUS.glob("*.graph"))
IDEAL_NAMES = sorted(p.stem for p in CORPUS.glob("*.ideal"))

#: which digraph each corpus ideal belongs to
IDEAL_GRAPHS = {
    "complex-ideal-Q": "loop",
    "complex-ideal-F5": "loop",
    "radical-ideal-Q": "loop",
    "ch2-ideal-F2": "sq5",
    "ch2-ideal-F3": "sq5",
    "ch2-graded-Q": "sq5",
    "sq21-ideal-Q": "sq5",
    "n4-ideal-F5": "dq4",
    "ek-ideal-Q": "ek",
    "breaking-ideal": "breaking",
}


def corpus_path(name: str) -> Path:
    matches = list(CORPUS.glob(name + ".*"))
    assert len(matches) == 1, name
    return matches[0]


def load_graph(name: str) -> Digraph:
    return parse_digraph(corpus_path(name).read_text(), name)


def load_ideal(name: str) -> IdealPresentation:
    return parse_ideal(corpus_path(name).read_text(), name)


def corpus_graphs() -> dict[str, Digraph]:
    return {name: load_graph(name) for name in GRAPH_NAMES}


def corpus_ideal_pairs():
    """(digraph, ideal) pairs from the corpus, each validating on its graph."""
    return [(load_graph(gname), load_ideal(iname))
            for iname, gname in sorted(IDEAL_GRAPHS.items())]


@pytest.fixture
def sq2():
    return load_graph("sq2")


@pytest.fixture
def sq3():
    return load_graph("sq3")


@pytest.fixture
def sq5():
    return load_graph("sq5")


@pytest.fixture
def loop():
    return load_graph("loop")


@pytest.fixture
def ek():
    return load_graph("ek")


@pytest.fixture
def breaking():
    return load_graph("breaking")

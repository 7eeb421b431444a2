"""Which modules a command loads, checked by module name rather than by time,
and the lazy ``leavitt`` namespace that makes that possible."""

import json
import subprocess
import sys

import pytest

import leavitt
from leavitt import (
    cycles, digraph, dimension, fields, ideals, ktheory, lattice, laurent, morphisms,
    presentations, projectives, quotients)
from leavitt.cli import COMMANDS

from test_io_cli import SAMPLE_ARGS, child_env, cpath

#: Every name ``leavitt`` exported when its ``__init__`` imported them eagerly.
EXPORTED = {
    cycles: ("enumerate_cycles",),
    digraph: ("ArrowClass", "Digraph", "GeometricCycle", "OMEGA", "breaking_vertices",
              "classify_vertices", "enumerate_hereditary_saturated",
              "hereditary_saturated_closure", "to_dot"),
    dimension: ("MatrixDecomposition", "dimension_blocks", "quotient_dimension"),
    fields: ("Field", "Polynomial", "RootMultiset", "find_roots", "is_dlf", "poly_gcd",
             "squarefree_part"),
    ideals: ("AdmissiblePair", "pair_order"),
    ktheory: ("ClosedSubmonoid", "CornerGen", "ProjectivePresentation", "VertexGen",
              "galois_phi", "galois_psi"),
    lattice: ("enumerate_admissible_pairs", "enumerate_strata", "pair_lattice"),
    laurent: ("LaurentElement", "crt_profile", "laurent_normalize"),
    morphisms: ("DigraphMorphism", "check_admissible_morphism"),
    presentations: ("IdealPresentation", "graded_part", "validate_ideal"),
    projectives: ("classify_fgips", "classify_simple_projectives", "end_finite_dim",
                  "is_orthogonal", "monoid_congruent", "monoid_presentation"),
    quotients: ("IsoCertificate", "QuotientResult", "cycle_to_loop", "decide_lpa_quotient",
                "graded_quotient", "iso_certificate", "radical_quotient", "sever"),
}
NAMES = sorted(name for names in EXPORTED.values() for name in names)

#: Runs ``python -m leavitt.cli ARGS`` as ``-m`` does, then prints the loaded
#: module names as the last line of stdout, from an ``atexit`` callback: the
#: program ends by ``os._exit`` once the callbacks ran, raising no SystemExit.
CLI_PROBE = """
import atexit, runpy, sys
sys.argv = ["leavitt", *sys.argv[1:]]
atexit.register(lambda: print(" ".join(sorted(sys.modules))))
runpy.run_module("leavitt.cli", run_name="__main__", alter_sys=True)
"""

#: The benchmark's library call: the pair lattice and the Galois round trip.
LATTICE_PROBE = """
import sys
from leavitt import ideals, io, ktheory
with open(sys.argv[1], encoding="utf-8") as fh:
    g = io.parse_digraph(fh.read(), sys.argv[1])
lattice = ideals.pair_lattice(g)
for pair in lattice.elements:
    assert ktheory.galois_psi(g, ktheory.galois_phi(g, pair).generating_items(g)) == pair
print(" ".join(sorted(sys.modules)))
"""


#: Runs ``cli.main`` on each command line of the JSON list in argv[1], with
#: their output discarded, then prints the loaded module names.
MAIN_PROBE = """
import json, os, sys
from leavitt import cli
streams = sys.stdout, sys.stderr
sys.stdout = sys.stderr = open(os.devnull, "w", encoding="utf-8")
codes = [cli.main(argv) for argv in json.loads(sys.argv[1])]
sys.stdout, sys.stderr = streams
assert set(codes) <= {0, 2}, codes
print(" ".join(sorted(sys.modules)))
"""

#: Modules that ℚ arithmetic (``fractions``) brings with it.
RATIONAL = {"leavitt.rationals", "fractions", "decimal", "numbers"}


def loaded(code: str, *args: str) -> set[str]:
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


@pytest.fixture(scope="module")
def bare() -> set[str]:
    """What a bare interpreter has loaded before any leavitt code runs."""
    return loaded("import sys; print(' '.join(sys.modules))")


def test_analyze_loads_no_algebra(bare):
    modules = loaded(CLI_PROBE, "analyze", cpath("sq2"))
    # the CLI itself runs as __main__, as under python -m
    assert {m for m in modules if m.startswith("leavitt")} == {
        "leavitt", "leavitt.bitindex", "leavitt.commands", "leavitt.commands.digraph",
        "leavitt.cycles", "leavitt.digraph", "leavitt.errors", "leavitt.io", "leavitt.records"}
    assert not {"fractions", "json"} & (modules - bare)


def test_bit_index_loads_on_first_use():
    assert "leavitt.bitindex" not in loaded("import sys, leavitt.cli; print(' '.join(sys.modules))")
    assert "leavitt.bitindex" not in loaded(CLI_PROBE, "dot", cpath("sq2"))


@pytest.mark.parametrize("args", [
    *[(name, *SAMPLE_ARGS[name]) for name in ("quotient", "decide", "sever", "certificate",
                                              "radical")],
    ("dim", cpath("ek"), cpath("ek-ideal-Q")),
], ids=lambda args: args[0])
def test_an_ideal_command_loads_no_bit_index(args):
    # validation walks only the arrows at H; nothing else asks a set question
    modules = loaded(CLI_PROBE, *args)
    assert "leavitt.presentations" in modules and "leavitt.bitindex" not in modules


def test_decide_loads_no_ktheory(bare):
    text = loaded(CLI_PROBE, "decide", cpath("sq5"), cpath("ch2-ideal-F3"))
    assert "leavitt.quotients" in text and "leavitt.ktheory" not in text
    assert "json" not in text - bare
    lines = loaded(CLI_PROBE, "--format", "json-lines", "decide", cpath("sq5"),
                   cpath("ch2-ideal-F3"))
    assert "json" in lines and "leavitt.ktheory" not in lines


#: The commands on a digraph and one ideal presentation.
IDEAL_COMMANDS = ("quotient", "decide", "sever", "certificate", "radical", "dim")
#: The commands that read no ideal, and the lattice, cycle and dimension modules.
NO_IDEALS = ("analyze", "closure", "dot", "check-morphism", "monoid")
ENUMERATIONS = {"leavitt.lattice", "leavitt.cycles", "leavitt.dimension"}
#: The modules split off ``ideals`` and ``ktheory``.
SPLIT = {"leavitt.presentations", "leavitt.projectives"}


@pytest.mark.parametrize("name", list(SAMPLE_ARGS))
def test_a_command_loads_only_its_own_family(name):
    modules = loaded(CLI_PROBE, name, *SAMPLE_ARGS[name])
    # the front end ran once, as __main__: no handler module imported it again
    assert "leavitt.cli" not in modules
    assert {m for m in modules if m.startswith("leavitt.commands")} == {
        "leavitt.commands", f"leavitt.commands.{COMMANDS[name].module}"}
    assert "leavitt.laurent" not in modules
    if name in IDEAL_COMMANDS:
        assert not {"leavitt.morphisms", "leavitt.ktheory", "leavitt.projectives"} & modules
    if name == "dim":
        assert ENUMERATIONS & modules == {"leavitt.dimension"}
    elif name in IDEAL_COMMANDS:
        assert not ENUMERATIONS & modules
    if name == "strata":
        assert "leavitt.lattice" in modules and "leavitt.cycles" not in modules
    if name in NO_IDEALS:
        assert not {"leavitt.ideals", "leavitt.presentations"} & modules
    if name in ("monoid", "fgip", "simples"):  # no generators, so no Galois maps
        assert "leavitt.projectives" in modules and "leavitt.ktheory" not in modules


#: Ends a probe: prints the number of source lines of the leavitt files that
#: were loaded, and of the files named in ``ran``, which ran as ``__main__``:
#: the lines the probe compiled.
COUNT_LINES = """
import os, sys
import leavitt
files = {m.__file__ for name, m in sys.modules.items() if name.split(".")[0] == "leavitt"}
files |= {os.path.join(os.path.dirname(leavitt.__file__), name) for name in ran}
lines = 0
for path in files:
    with open(path, encoding="utf-8") as fh:
        lines += fh.read().count("\\n")
print(lines)
"""

#: Runs ``python -m leavitt.cli ARGS`` as CLI_PROBE does, then counts the lines
#: compiled, ``cli.py`` included, from an ``atexit`` callback as CLI_PROBE prints.
LINES_PROBE = """
import atexit, runpy, sys
ran = ["cli.py"]
sys.argv = ["leavitt", *sys.argv[1:]]
atexit.register(exec, %r, globals())
runpy.run_module("leavitt.cli", run_name="__main__", alter_sys=True)
""" % COUNT_LINES

#: The library call, then the lines it compiled.
LATTICE_LINES_PROBE = "ran = []" + LATTICE_PROBE + COUNT_LINES

#: Ceilings on the lines each SAMPLE_ARGS command compiles: the counts measured
#: once each digraph remembered the pairs it admitted and indexed each digraph
#: the library builds once (``radical`` reads an ideal over ℚ, so it also
#: compiles ``rationals``).  A change that compiles less lowers them; none raises one.
COMPILED_BEFORE = {
    "analyze": 1682, "closure": 1532, "dot": 1368, "check-morphism": 1455,
    "quotient": 2669, "decide": 2669, "sever": 2669, "certificate": 2669, "radical": 2864,
    "dim": 1528, "strata": 2039, "orth": 2894, "end": 1919,
    "monoid": 1619, "fgip": 1619, "simples": 1619,
}
#: ``dim`` with an ideal also compiles the presentations and the graded quotient.
DIM_WITH_AN_IDEAL_COMPILED = 2991
#: The lines the library call compiles: the graded ideals, the pair lattice and
#: the Galois maps (2,147 with the presentations and projectives).
LATTICE_COMPILED = 1599


def compiled(code: str, *args: str) -> int:
    proc = subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, env=child_env())
    assert proc.returncode == 0, proc.stderr
    return int(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("name", list(SAMPLE_ARGS))
def test_no_command_compiles_more_than_before(name):
    assert compiled(LINES_PROBE, name, *SAMPLE_ARGS[name]) <= COMPILED_BEFORE[name]


def test_dim_with_an_ideal_compiles_no_more_than_its_ceiling():
    assert compiled(LINES_PROBE, "dim", cpath("ek"), cpath("ek-ideal-Q")) \
        <= DIM_WITH_AN_IDEAL_COMPILED


def test_lattice_library_call_compiles_no_more_than_its_ceiling():
    assert compiled(LATTICE_LINES_PROBE, cpath("sq5")) <= LATTICE_COMPILED


def test_check_morphism_loads_no_algebra():
    modules = loaded(CLI_PROBE, "check-morphism", *SAMPLE_ARGS["check-morphism"])
    assert "leavitt.morphisms" in modules
    assert not {"leavitt.fields", "leavitt.ideals", "leavitt.quotients"} & modules


def test_presentations_are_parsed_by_projectives(tmp_path):
    # a bad presentation stops orth and end in projectives' parser, before their handlers load
    bad = tmp_path / "bad.pres"
    bad.write_text("corner v {e1}\n")
    g, j = SAMPLE_ARGS["orth"][:2]
    modules = loaded(MAIN_PROBE, json.dumps([["orth", g, j, str(bad)], ["end", g, str(bad)]]))
    assert "leavitt.projectives" in modules
    assert not {"leavitt.commands.ktheory", "leavitt.quotients"} & modules


def test_orth_loads_the_pair_order_without_the_lattice():
    modules = loaded(CLI_PROBE, "orth", *SAMPLE_ARGS["orth"])
    assert {"leavitt.ideals", "leavitt.ktheory", "leavitt.projectives"} <= modules
    assert "leavitt.lattice" not in modules


def test_dim_without_an_ideal_loads_no_ideal_code():
    # the golden dim ek-severed.graph reads only the components and the path counts
    modules = loaded(CLI_PROBE, "dim", cpath("ek-severed"))
    assert "leavitt.dimension" in modules and "leavitt.cycles" not in modules
    assert not {"leavitt.fields", "leavitt.scalars", "leavitt.quotients", "leavitt.ideals",
                "leavitt.presentations"} & modules


def test_dim_with_an_ideal_loads_no_cycle_search():
    # the cycle search names a cycle only when the dimension is infinite
    modules = loaded(CLI_PROBE, "dim", cpath("ek"), cpath("ek-ideal-Q"))
    assert {"leavitt.dimension", "leavitt.quotients"} <= modules
    assert "leavitt.cycles" not in modules


def test_strata_loads_no_quotients():
    modules = loaded(CLI_PROBE, "strata", "--field", "F3", "--max-deg", "2", cpath("loop"))
    assert not {"leavitt.quotients", "leavitt.ktheory"} & modules
    assert not SPLIT & modules
    # the --field header is parsed by scalars, which holds no polynomial code
    assert "leavitt.scalars" in modules and "leavitt.fields" not in modules


def test_lattice_library_call_loads_no_quotients():
    modules = loaded(LATTICE_PROBE, cpath("sq5"))
    assert {"leavitt.ktheory", "leavitt.lattice"} <= modules
    assert "leavitt.quotients" not in modules
    assert not SPLIT & modules  # the graded ideals and the Galois maps only
    assert "leavitt.fields" not in modules  # nothing on this path reads a field


#: The names ``ideals`` forwards to the modules they moved to, which bench/ reads.
FORWARDED = {"is_dlf": fields, "pair_lattice": lattice, "enumerate_strata": lattice}


def test_ideals_forwards_is_dlf_to_fields():
    # importing ideals loads none of the modules it forwards to, nor the presentations
    code = "import sys; from leavitt import ideals; print(' '.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=child_env())
    assert proc.returncode == 0, proc.stderr
    assert not {"leavitt.fields", "leavitt.lattice", "leavitt.presentations"} \
        & set(proc.stdout.split())
    for name, home in FORWARDED.items():
        assert getattr(ideals, name) is getattr(home, name), name
    with pytest.raises(AttributeError, match="no_such_name"):
        ideals.no_such_name


def test_no_command_line_loads_argparse(bare):
    lines = [[*fmt, name, *args] for name, args in SAMPLE_ARGS.items()
             for fmt in ([], ["--format", "json-lines"], ["--format", "dot"])]
    lines += [["--help"], ["strata", "-h"], ["no-such-command"], ["strata", cpath("loop")]]
    modules = loaded(MAIN_PROBE, json.dumps(lines))
    assert "leavitt.projectives" in modules  # every command ran
    assert not {"argparse", "gettext", "locale"} & (modules - bare)


@pytest.mark.parametrize("code,args", [
    (CLI_PROBE, ("decide", cpath("sq5"), cpath("ch2-ideal-F3"))),
    (CLI_PROBE, ("--format", "json-lines", "decide", cpath("sq5"), cpath("ch2-ideal-F3"))),
    (CLI_PROBE, ("strata", "--field", "F3", "--max-deg", "2", cpath("loop"))),
    (LATTICE_PROBE, (cpath("sq5"),)),
], ids=["decide-F3", "decide-F3-json-lines", "strata-F3", "lattice"])
def test_prime_field_work_loads_no_rational_arithmetic(bare, code, args):
    assert not RATIONAL & (loaded(code, *args) - bare)


def test_rational_ideal_loads_rational_arithmetic(bare):
    modules = loaded(CLI_PROBE, "radical", cpath("loop"), cpath("radical-ideal-Q"))
    assert {"leavitt.rationals", "fractions"} <= modules - bare


def test_package_import_loads_no_submodule():
    modules = loaded("import sys, leavitt; print(' '.join(sys.modules))")
    assert "leavitt" in modules and not {m for m in modules if m.startswith("leavitt.")}


def test_every_name_resolves_through_its_module():
    for module, names in EXPORTED.items():
        for name in names:
            assert getattr(leavitt, name) is getattr(module, name), name


def test_namespace_listing():
    assert leavitt.__all__ == NAMES and leavitt.__version__ == "0.1.0"
    assert set(NAMES) | {"digraph", "fields", "ideals", "ktheory", "quotients"} \
        <= set(dir(leavitt))
    namespace = {}
    exec("from leavitt import *", namespace)
    namespace.pop("__builtins__")
    assert namespace == {name: getattr(leavitt, name) for name in NAMES}


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(leavitt, "no_such_name")
    assert not hasattr(leavitt, "cycle_vertices")  # defined in digraph, never exported


def test_names_are_looked_up_on_every_access(monkeypatch):
    # nothing is cached in the package: a rebinding in fields shows at once
    original = fields.is_dlf
    sentinel = object()
    monkeypatch.setattr(fields, "is_dlf", sentinel)
    assert leavitt.is_dlf is sentinel and "is_dlf" not in vars(leavitt)
    monkeypatch.undo()
    assert leavitt.is_dlf is original

import json
import os
import subprocess
import sys

import pytest

import leavitt
from leavitt.cli import main
from leavitt.digraph import to_dot
from leavitt.errors import ParseError
from leavitt.fields import Field
from leavitt.io import (
    cast_ideal,
    parse_digraph,
    parse_ideal,
    parse_morphism_file,
    parse_presentation,
    serialize_digraph,
    serialize_ideal,
)
from leavitt.ktheory import CornerGen, VertexGen

from conftest import CORPUS, corpus_graphs, corpus_ideal_pairs, corpus_path, load_graph


class TestDigraphFormat:
    def test_round_trip_all_corpus(self):
        for name, g in corpus_graphs().items():
            text = corpus_path(name).read_text()
            assert parse_digraph(serialize_digraph(g)) == g
            canonical = serialize_digraph(parse_digraph(text))
            assert parse_digraph(canonical) == g
            assert serialize_digraph(parse_digraph(canonical)) == canonical

    def test_multiplicity_and_omega_round_trip(self):
        text = "digraph g\nvertex a\nvertex b\narrow e a b 3\narrow o a b omega\n"
        g = parse_digraph(text)
        assert serialize_digraph(g) == text

    def test_duplicate_vertex_line_number(self):
        with pytest.raises(ParseError) as err:
            parse_digraph("digraph g\nvertex a\nvertex a\n", path="x.graph")
        assert err.value.line == 3 and err.value.path == "x.graph"

    def test_undeclared_endpoint(self):
        with pytest.raises(ParseError):
            parse_digraph("digraph g\nvertex a\narrow e a b\n")

    def test_comments_ignored(self):
        g = parse_digraph("# hi\ndigraph g # trailing\nvertex a\n")
        assert g.name == "g" and g.vertices == ("a",)

    def test_non_ascii_multiplicity(self, tmp_path):
        # '²'.isdigit() holds but int('²') fails
        graph = tmp_path / "m.graph"
        graph.write_text("digraph m\nvertex a\nvertex b\narrow e a b ²\n")
        with pytest.raises(ParseError) as err:
            parse_digraph(graph.read_text(), str(graph))
        assert err.value.line == 4 and err.value.path == str(graph)
        assert run_cli("analyze", str(graph)) == (2, "")


class TestIdealFormat:
    def test_round_trip_corpus(self):
        for _, j in corpus_ideal_pairs():
            text = serialize_ideal(j)
            again = parse_ideal(text)
            assert again.pair == j.pair
            assert again.beta == j.beta
            assert again.theta == j.theta
            assert serialize_ideal(again) == text

    def test_field_header_required(self):
        with pytest.raises(ParseError):
            parse_ideal("ideal j\nH v\n")

    def test_residue_out_of_range_is_parse_error(self):
        with pytest.raises(ParseError) as err:
            parse_ideal("ideal j\nfield F5\ncycle C: e\npoly C: 1 7\n")
        assert err.value.line == 4

    def test_poly_for_unknown_cycle(self):
        with pytest.raises(ParseError):
            parse_ideal("ideal j\nfield Q\npoly C: 1 1\n")

    def test_cast_between_fields(self):
        j = parse_ideal(corpus_path("complex-ideal-Q").read_text())
        jf = cast_ideal(j, Field.gf(5))
        assert jf.field == Field.gf(5)
        assert jf.theta[j.beta[0]].coeffs == (1, 0, 1)


class TestMorphismFormat:
    def test_corpus_file(self):
        name, src, dst, vmap, emap = parse_morphism_file(
            corpus_path("dq2-into-sq2").read_text())
        assert (name, src, dst) == ("inc", "dq2", "sq2")
        assert vmap == {"u": "u", "w1": "w1"}
        assert emap == {"c": "c", "a1": "a1"}

    def test_missing_graphs_line(self):
        with pytest.raises(ParseError):
            parse_morphism_file("morphism m\nv a -> b\n")


class TestPresentationFormat:
    def test_vertices_and_corner(self):
        p = parse_presentation("P: v1 v1 w\ncorner v {e1#0, e1#2}\n")
        assert p.items == (VertexGen("v1"), VertexGen("v1"), VertexGen("w"),
                           CornerGen("v", frozenset({("e1", 0), ("e1", 2)})))

    def test_full_line_comments_only(self):
        p = parse_presentation("# header\ncorner v {a#0}\n")
        assert p.items == (CornerGen("v", frozenset({("a", 0)})),)

    def test_bad_token(self):
        with pytest.raises(ParseError):
            parse_presentation("corner v {e1}\n")

    def test_non_ascii_instance_index(self, tmp_path):
        pres = tmp_path / "p.pres"
        pres.write_text("# corner\ncorner a {e#²}\n")
        with pytest.raises(ParseError) as err:
            parse_presentation(pres.read_text(), str(pres))
        assert err.value.line == 2 and err.value.path == str(pres)
        assert run_cli("end", cpath("path2"), str(pres)) == (2, "")


def run_cli(*args, env_extra=None):
    """Run the CLI in-process; returns (exit code, stdout)."""
    import contextlib
    import io as _io

    saved_env = {}
    if env_extra:
        for k, v in env_extra.items():
            saved_env[k] = os.environ.get(k)
            os.environ[k] = v
    buf = _io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            code = main(list(args))
    finally:
        for k, v in saved_env.items():
            if v is None:
                os.environ.pop(k, None)
            else:
                os.environ[k] = v
    return code, buf.getvalue()


def cpath(name):
    return str(corpus_path(name))


GOLDEN = [
    (("decide", cpath("sq5"), cpath("ch2-ideal-F2")), "decide-ch2-F2.txt"),
    (("decide", cpath("sq5"), cpath("ch2-ideal-F3")), "decide-ch2-F3.txt"),
    (("decide", cpath("dq4"), cpath("n4-ideal-F5")), "decide-n4-F5.txt"),
    (("sever", cpath("loop"), cpath("complex-ideal-F5")), "sever-complex-F5.txt"),
    (("dim", cpath("ek-severed")), "dim-ek-severed.txt"),
    (("certificate", cpath("loop"), cpath("complex-ideal-F5")),
     "certificate-complex-F5.txt"),
    (("dot", cpath("sq2")), "dot-sq2.dot"),
    (("analyze", cpath("sq2")), "analyze-sq2.txt"),
    (("radical", cpath("loop"), cpath("radical-ideal-Q")), "radical-loop-Q.txt"),
    (("strata", "--field", "F3", "--max-deg", "2", cpath("loop")),
     "strata-loop-F3.txt"),
]


class TestCliGolden:
    @pytest.mark.parametrize("args,expected", GOLDEN,
                             ids=[e for _, e in GOLDEN])
    def test_matches_expected(self, args, expected):
        code, out = run_cli(*args)
        assert code == 0
        assert out == (CORPUS / "expected" / expected).read_text()

    def test_output_stable_across_runs(self):
        for args, _ in GOLDEN:
            assert run_cli(*args) == run_cli(*args)


class TestCliBehavior:
    def test_parse_error_exit_2(self, tmp_path):
        bad = tmp_path / "bad.graph"
        bad.write_text("digraph g\nvertex a\nvertex a\n")
        code, _ = run_cli("analyze", str(bad))
        assert code == 2

    def test_missing_file_exit_2(self):
        code, _ = run_cli("analyze", "no-such-file.graph")
        assert code == 2

    def test_validation_error_exit_3(self, tmp_path):
        bad = tmp_path / "bad.ideal"
        bad.write_text("ideal j\nfield Q\ncycle C: e\npoly C: 2 1\n")
        code, _ = run_cli("decide", cpath("loop"), str(bad))
        assert code == 3

    def test_non_dlf_sever_needs_flag(self):
        code, _ = run_cli("sever", cpath("sq5"), cpath("ch2-ideal-F2"))
        assert code == 3
        code, out = run_cli("sever", "--force-degree-only",
                            cpath("sq5"), cpath("ch2-ideal-F2"))
        assert code == 0 and "vertex v2.1" in out

    def test_resource_limit_exit_4(self):
        code, _ = run_cli("analyze", "--max-cycles", "1", cpath("sq3"))
        assert code == 4

    def test_env_limits(self):
        code, _ = run_cli("analyze", cpath("sq3"),
                          env_extra={"LPA_LIMITS": "maxCycles=1"})
        assert code == 4

    @pytest.mark.parametrize("value", ["0", "-1", "x"])
    def test_limit_must_be_positive(self, value):
        # checked before any output, whether it comes from a flag or LPA_LIMITS
        assert run_cli("analyze", "--max-cycles", value, cpath("loop")) == (2, "")
        assert run_cli("analyze", cpath("loop"),
                       env_extra={"LPA_LIMITS": f"maxCycles={value}"}) == (2, "")

    def test_env_limit_non_ascii_digit(self):
        assert run_cli("analyze", cpath("loop"),
                       env_extra={"LPA_LIMITS": "maxCycles=²"}) == (2, "")

    def test_dim_respects_max_cycles(self, tmp_path):
        graph, ideal = tmp_path / "two.graph", tmp_path / "two.ideal"
        graph.write_text("digraph two\nvertex a\nvertex b\narrow e a a\narrow f b b\n")
        ideal.write_text("ideal j\nfield Q\ncycle C: e\ncycle D: f\n"
                         "poly C: 1 -1\npoly D: 1 -1\n")
        assert run_cli("dim", str(graph), str(ideal)) == (0, "2 = 2 × M_1\n")
        for args in (("analyze", str(graph)), ("fgip", str(graph)),
                     ("dim", str(graph), str(ideal))):
            assert run_cli("--max-cycles", "1", *args)[0] == 4, args

    def test_flag_overrides_env(self):
        code, _ = run_cli("analyze", "--max-cycles", "10", cpath("sq3"),
                          env_extra={"LPA_LIMITS": "maxCycles=1"})
        assert code == 0

    def test_internal_error_exit_5(self, monkeypatch):
        import leavitt.cli as cli_mod
        from leavitt.errors import MeetJoinFailureError

        def boom(path):
            raise MeetJoinFailureError("no meet")

        monkeypatch.setattr(cli_mod, "_load_graph", boom)
        code, _ = run_cli("analyze", cpath("sq2"))
        assert code == 5

    def test_field_override(self):
        code, out = run_cli("decide", "--field", "F5",
                            cpath("loop"), cpath("complex-ideal-Q"))
        assert code == 0 and out.startswith("isLPA")
        code, out = run_cli("decide", cpath("loop"), cpath("complex-ideal-Q"))
        assert code == 0 and out.startswith("notLPA")

    def test_json_lines_mirror(self):
        code, out = run_cli("--format", "json-lines",
                            "decide", cpath("sq5"), cpath("ch2-ideal-F2"))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        assert records[0]["record"] == "verdict" and records[0]["isLPA"] is False

    def test_json_lines_analyze(self):
        code, out = run_cli("--format", "json-lines", "analyze", cpath("sq2"))
        assert code == 0
        records = [json.loads(line) for line in out.splitlines()]
        kinds = {r["record"] for r in records}
        assert kinds == {"vertex", "cycle", "hs-set"}

    def test_dot_format_on_quotient(self):
        code, out = run_cli("--format", "dot", "quotient",
                            cpath("sq5"), cpath("ch2-graded-Q"))
        assert code == 0 and out.startswith('digraph "sq5"')

    def test_dot_format_rejected_elsewhere(self):
        code, _ = run_cli("--format", "dot", "analyze", cpath("sq2"))
        assert code == 2

    def test_check_morphism_valid(self):
        code, out = run_cli("check-morphism", cpath("dq2-into-sq2"),
                            cpath("dq2"), cpath("sq2"))
        assert code == 0 and out.strip() == "valid admissible morphism"

    def test_check_morphism_name_mismatch(self):
        code, _ = run_cli("check-morphism", cpath("dq2-into-sq2"),
                          cpath("sq3"), cpath("sq2"))
        assert code == 3

    def test_monoid(self):
        code, out = run_cli("monoid", cpath("sq2"))
        assert code == 0
        assert "relation u = u + w1 + w2" in out

    def test_monoid_multiplicity_rendering(self):
        code, out = run_cli("monoid", cpath("doublearrow"))
        assert code == 0 and "relation a = 2*b" in out

    def test_orth(self):
        code, out = run_cli("orth", cpath("breaking"), cpath("breaking-ideal"),
                            cpath("breaking-corner"))
        assert code == 0 and out.strip() == "orthogonal: true"

    def test_end(self):
        code, out = run_cli("end", cpath("ek-severed"), cpath("ek-severed-tail"))
        assert code == 0 and out.strip() == "finite: 3 × M_1"

    def test_closure(self):
        code, out = run_cli("closure", "--set", "w1,w2", cpath("fork"))
        assert code == 0 and out.strip() == "closure {v,w1,w2}"

    def test_fgip_and_simples(self):
        code, out = run_cli("fgip", cpath("sq3"))
        assert code == 0 and out.strip() == "fgip (c2): support v1 v2"
        code, out = run_cli("simples", cpath("path2"))
        assert code == 0 and out.strip() == "simple b: members a b"

    def test_usage_error_exit_2(self):
        assert run_cli("strata", cpath("loop"))[0] == 2  # missing --max-deg
        assert run_cli("no-such-command")[0] == 2


class TestConsoleScript:
    def test_module_entry_point(self):
        # the child imports the same leavitt as this process, installed or not
        src = os.path.dirname(os.path.dirname(leavitt.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "leavitt.cli", "dim", cpath("ek-severed")],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path))
        assert proc.returncode == 0
        assert proc.stdout.strip() == "48 = 3 × M_4"

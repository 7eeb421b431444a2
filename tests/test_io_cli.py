import json
import os
import subprocess
import sys

import pytest

import leavitt
from leavitt.cli import COMMANDS, main
from leavitt.digraph import to_dot
from leavitt.errors import ParseError
from leavitt.fields import Field, Polynomial
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

from conftest import (
    CORPUS,
    GRAPH_NAMES,
    IDEAL_NAMES,
    corpus_graphs,
    corpus_ideal_pairs,
    corpus_path,
    load_graph,
)


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

    def test_duplicate_cycle_label_names_its_line(self):
        text = "ideal j\nfield F5\ncycle C1: a\ncycle C2: b\ncycle C1: c\n"
        with pytest.raises(ParseError, match="duplicate cycle label 'C1'") as err:
            parse_ideal(text, path="j.ideal")
        assert err.value.line == 5 and err.value.path == "j.ideal"

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


#: A valid invocation of every subcommand, after its name.
SAMPLE_ARGS = {
    "analyze": (cpath("sq2"),),
    "closure": ("--set", "w1", cpath("sq2")),
    "quotient": (cpath("sq5"), cpath("ch2-graded-Q")),
    "decide": (cpath("loop"), cpath("complex-ideal-F5")),
    "sever": (cpath("loop"), cpath("complex-ideal-F5")),
    "certificate": (cpath("loop"), cpath("complex-ideal-F5")),
    "radical": (cpath("loop"), cpath("radical-ideal-Q")),
    "dim": (cpath("ek-severed"),),
    "monoid": (cpath("sq2"),),
    "strata": ("--field", "F3", "--max-deg", "2", cpath("loop")),
    "orth": (cpath("breaking"), cpath("breaking-ideal"), cpath("breaking-corner")),
    "fgip": (cpath("sq3"),),
    "simples": (cpath("path2"),),
    "end": (cpath("ek-severed"), cpath("ek-severed-tail")),
    "check-morphism": (cpath("dq2-into-sq2"), cpath("dq2"), cpath("sq2")),
    "dot": (cpath("sq2"),),
}


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

    def test_forced_sever_matches_sever_where_decide_accepts(self):
        # severing reads only deg θ, so forcing it changes no byte on a dlf ideal
        accepted = []
        for graph in GRAPH_NAMES:
            for ideal in IDEAL_NAMES:
                for field in ((), ("--field", "F2"), ("--field", "F5"), ("--field", "Q")):
                    operands = (*field, cpath(graph), cpath(ideal))
                    code, out = run_cli("decide", *operands)
                    if code != 0 or not out.startswith("isLPA"):
                        continue
                    accepted.append((graph, ideal, *field))
                    for fmt in ("text", "json-lines"):
                        severed = run_cli("--format", fmt, "sever", *operands)
                        assert severed[0] == 0, (graph, ideal, field, fmt)
                        assert run_cli("--format", fmt, "sever", "--force-degree-only",
                                       *operands) == severed, (graph, ideal, field, fmt)
        assert len(accepted) == 22, accepted

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

        def boom(operand, path, override):
            assert operand == "graph"
            raise MeetJoinFailureError("no meet")

        monkeypatch.setattr(cli_mod, "_load", boom)
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

    def test_dot_format_follows_the_table(self):
        assert set(SAMPLE_ARGS) == set(COMMANDS)
        assert {name for name, c in COMMANDS.items() if c.dot} == {"dot", "quotient", "sever"}
        for name, args in SAMPLE_ARGS.items():
            assert run_cli(name, *args)[0] == 0, name
            code, out = run_cli("--format", "dot", name, *args)
            if COMMANDS[name].dot:
                assert code == 0 and out.startswith("digraph "), name
            else:
                assert (code, out) == (2, ""), name

    @pytest.mark.parametrize("args,expected", GOLDEN, ids=[e for _, e in GOLDEN])
    def test_json_lines_is_json(self, args, expected):
        code, out = run_cli("--format", "json-lines", *args)
        assert code == 0 and out
        for line in out.splitlines():
            assert "record" in json.loads(line), line

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

    def test_max_deg_must_be_positive(self):
        assert run_cli("strata", "--field", "F3", "--max-deg", "0", cpath("loop")) == (2, "")

    def test_strata_counts_are_closed_forms(self):
        code, out = run_cli("strata", "--field", "F13", "--max-deg", "6", cpath("loop"))
        assert code == 0 and len(out.splitlines()) == 8
        assert "beta=[(e)] degrees=[6]: parameters 4455516, dlf 924\n" in out

    @pytest.mark.parametrize("max_deg", ["50", "9" * 4000], ids=["50", "4000-digits"])
    def test_strata_without_cycles_ignores_max_deg(self, max_deg):
        code, out = run_cli("strata", "--field", "F3", "--max-deg", max_deg, cpath("path2"))
        assert (code, out) == (0, "stratum pair=({}, {}) beta=[] degrees=[]: parameters 1, dlf 1\n"
                               "stratum pair=({a,b}, {}) beta=[] degrees=[]: parameters 1, dlf 1\n")

    def test_strata_count_digits_are_a_fixed_bound(self, capsys):
        code, out = run_cli("strata", "--field", "F3", "--max-deg", "9012", cpath("loop"))
        last = out.splitlines()[9012]
        assert code == 0 and "degrees=[9012]" in last
        assert len(last.split("parameters ")[1].split(",")[0]) == 4300
        capsys.readouterr()
        assert run_cli("strata", "--field", "F3", "--max-deg", "9013", cpath("loop")) == (4, "")
        assert "fixed bound of 4300 decimal digits" in capsys.readouterr().err

    @pytest.mark.parametrize("args,env", [
        (("--max-deg", "2", "--max-pairs", "9" * 5000), {}),
        (("--max-deg", "2"), {"LPA_LIMITS": "maxPairs=" + "9" * 5000}),
        (("--max-deg", "9" * 5000), {}),
    ], ids=["flag", "LPA_LIMITS", "max-deg"])
    def test_overlong_count_is_a_usage_error(self, capsys, args, env):
        # int() refuses more than 4,300 digits; that is still a bad count
        assert run_cli("strata", "--field", "F3", *args, cpath("loop"), env_extra=env) == (2, "")
        assert "must be a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("ideal,extra,message", [
        ("ideal j\nfield F²\n", (), "unrecognized field header"),
        ("ideal j\nfield Q\n", ("--field", "F²"), "unrecognized field header"),
        ("ideal j\nfield F5\ncycle C: e\npoly C: 1 ²\n", (), "bad residue"),
    ], ids=["header", "flag", "residue"])
    def test_non_ascii_digits_in_fields(self, tmp_path, capsys, ideal, extra, message):
        path = tmp_path / "j.ideal"
        path.write_text(ideal)
        assert run_cli("decide", *extra, cpath("loop"), str(path)) == (2, "")
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("token", ["1e1", "1_0", "١٢", "1.5", "3/-4", "0x10"])
    def test_rational_coefficients_are_ascii_fractions(self, tmp_path, capsys, token):
        path = tmp_path / "j.ideal"
        path.write_text(f"ideal j\nfield Q\ncycle C: e\npoly C: 1 {token}\n")
        assert run_cli("decide", cpath("loop"), str(path)) == (2, "")
        assert f"{path}:line 4: bad rational {token!r}" in capsys.readouterr().err

    def test_unknown_vertex_message_is_deterministic(self):
        errs = set()
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "leavitt.cli", "closure", "--set", "w1,w2",
                 cpath("loop")],
                capture_output=True, text=True, env=child_env(PYTHONHASHSEED=seed))
            assert proc.returncode == 3
            errs.add(proc.stderr)
        assert len(errs) == 1 and "'w1'" in errs.pop()

    def test_usage_error_exit_2(self):
        assert run_cli("strata", cpath("loop"))[0] == 2  # missing --max-deg
        assert run_cli("no-such-command")[0] == 2



class TestLargePrimeFields:
    """decide, certificate and radical over fields far beyond a residue sweep;
    each answer must come back in well under the 10 s timeout."""

    PLANTED = {1048583: [3, 524288, 1048582], 2**61 - 1: [2, 10**18, 2**61 - 2]}

    @staticmethod
    def _run(tmp_path, command, p, theta):
        theta = theta.scale(theta.field.inv(theta.constant_term))
        graph, ideal = tmp_path / "loop.graph", tmp_path / "planted.ideal"
        graph.write_text("digraph loop\nvertex v\narrow e v v\n")
        ideal.write_text(f"ideal planted\nfield F{p}\ncycle C: e\n"
                         f"poly C: {' '.join(map(str, theta.coeffs))}\n")
        proc = subprocess.run(
            [sys.executable, "-m", "leavitt.cli", command, str(graph), str(ideal)],
            capture_output=True, text=True, env=child_env(), timeout=10)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    @pytest.mark.parametrize("p", sorted(PLANTED))
    def test_decide_and_certificate(self, tmp_path, p):
        roots = self.PLANTED[p]
        theta = Polynomial.from_roots(Field.gf(p), roots)
        out = self._run(tmp_path, "decide", p, theta)
        assert out.splitlines()[:2] == ["isLPA", "cycle C: roots " + " ".join(map(str, roots))]
        out = self._run(tmp_path, "certificate", p, theta)
        assert f"C -> {roots[0]}*v.1 + {roots[1]}*v.2 + {roots[2]}*v.3" in out.splitlines()

    @pytest.mark.parametrize("p", sorted(PLANTED))
    def test_radical(self, tmp_path, p):
        field = Field.gf(p)
        r, s = self.PLANTED[p][:2]
        out = self._run(tmp_path, "radical", p, Polynomial.from_roots(field, [r, r, s]))
        radical = Polynomial.from_roots(field, [r, s])
        radical = radical.scale(field.inv(radical.constant_term))
        lines = out.splitlines()
        assert lines[0] == "cycle C: degree drop 1"
        assert f"poly C: {radical}" in lines and "vertex v.2" in lines

def child_env(**extra) -> dict:
    """Environment in which a child process imports the same leavitt as this one."""
    src = os.path.dirname(os.path.dirname(leavitt.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path, **extra)


class TestConsoleScript:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "leavitt.cli", "dim", cpath("ek-severed")],
            capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0
        assert proc.stdout.strip() == "48 = 3 × M_4"

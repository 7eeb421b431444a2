"""Tests of the benchmark itself: seeded inputs, caps, oracles, tracer.

Run from the repository root with ``python3 -m pytest bench/selftest.py``.
"""

from __future__ import annotations

import contextlib
import io
import math
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import run  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402


def build(workload: str, seed: int, slots: int, workdir: Path) -> list[W.Op]:
    return [W.build_op(workload, seed, i, workdir) for i in range(slots)]


def run_in_process(op: W.Op) -> tuple[int, str]:
    import lattice_call
    from leavitt import cli

    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = (lattice_call.main if op.kind == "library" else cli.main)(op.argv)
    return code, out.getvalue()


def files_of(workdir: Path) -> dict[str, str]:
    return {p.name: p.read_text() for p in sorted(workdir.iterdir())}


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_same_seed_same_inputs(workload, tmp_path):
    a, b, c = tmp_path / "a", tmp_path / "b", tmp_path / "c"
    for d in (a, b, c):
        d.mkdir()
    ops_a, ops_b = build(workload, 7, 12, a), build(workload, 7, 12, b)
    build(workload, 8, 12, c)
    assert files_of(a) == files_of(b)
    assert [op.expect for op in ops_a] == [op.expect for op in ops_b]
    assert files_of(a) != files_of(c)


def _q_constant(tokens: list[str]) -> int:
    """|a₀| of the primitive integer form, the number the ℚ root search factors."""
    coeffs = [Fraction(t) for t in tokens]
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    return abs(ints[0]) // math.gcd(*ints)


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_inputs_stay_inside_default_caps(workload, tmp_path):
    for seed in (1, 2, 3):
        for op in build(workload, seed, 48, tmp_path):
            graph = Path(next(a for a in op.argv if a.endswith(".graph"))).read_text()
            if op.kind == "analyze":
                assert graph.count("\nvertex ") <= W.CAPS["analyze_vertices"]
                assert op.expect["text"].count("hs-set") <= W.CAPS["max_listed"]
            if op.kind == "strata":
                assert op.expect["text"].count("\n") <= W.CAPS["max_listed"]
            ideal = [a for a in op.argv if a.endswith(".ideal")]
            if not ideal:
                continue
            lines = Path(ideal[0]).read_text().splitlines()
            header = next(line.split()[1] for line in lines if line.startswith("field "))
            for line in lines:
                if line.startswith("poly "):
                    if header == "Q":
                        assert _q_constant(line.split()[2:]) <= W.CAPS["max_q_constant"]
                    else:
                        assert int(header[1:]) <= W.CAPS["max_prime"]


def test_guard_refuses_out_of_cap_input():
    with pytest.raises(W.CapExceeded):
        W.guard(W.LatticeGraph("big", ["C"] * 17).n_vertices <= W.CAPS["analyze_vertices"],
                "analyze sweep above 16 vertices")


@pytest.mark.parametrize("workload", W.WORKLOADS)
def test_oracle_agrees_with_program(workload, tmp_path):
    for op in build(workload, 3, 9, tmp_path):
        code, out = run_in_process(op)
        assert W.check(op, code, out) is None, op.argv


def test_wrong_expected_answer_counts_as_failed(tmp_path):
    ops = build("chains", 5, 6, tmp_path)
    for op in ops:
        code, out, err, *_ = run.spawn(run.cli_argv(op), tmp_path)
        assert W.check(op, code, out) is None, err
        wrong = W.Op(op.kind, op.argv, dict(op.expect))
        if "head" in wrong.expect and wrong.expect["head"]:
            wrong.expect["head"] = ["isLPA?"] + wrong.expect["head"][1:]
        elif "shape" in wrong.expect:
            wrong.expect["shape"] = dict(wrong.expect["shape"],
                                         arrows=wrong.expect["shape"]["arrows"] + 1)
        else:
            wrong.expect["lines"] += 1
        assert W.check(wrong, code, out) is not None


def _sympy_roots(tokens: list[str], p: int | None) -> list:
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    if p is None:
        poly = sympy.Poly([sympy.Rational(t) for t in reversed(tokens)], x)
        return sorted(Fraction(int(r.p), int(r.q)) for r in poly.ground_roots())
    poly = sympy.Poly([int(t) for t in reversed(tokens)], x, modulus=p)
    roots = []
    for factor, _ in poly.factor_list()[1]:
        if factor.degree() == 1:
            a, b = factor.all_coeffs()
            roots.append(int(-b * pow(int(a) % p, -1, p)) % p)
    return sorted(roots)


@pytest.mark.parametrize("workload", ["chains", "fields"])
def test_planted_roots_match_sympy(workload, tmp_path):
    for op in build(workload, 4, 12, tmp_path):
        if op.kind != "decide" or not op.expect["head"][0] == "isLPA":
            continue
        lines = Path(op.argv[2]).read_text().splitlines()
        header = next(line.split()[1] for line in lines if line.startswith("field "))
        p = None if header == "Q" else int(header[1:])
        polys = [line.split()[2:] for line in lines if line.startswith("poly ")]
        for poly, head in zip(polys, op.expect["head"][1:]):
            planted = head.split(": roots ")[1].split()
            assert [str(r) for r in _sympy_roots(poly, p)] == planted


def test_tracer_rebinds_every_namespace_and_restores():
    import leavitt
    from leavitt import digraph, fields, ideals, quotients

    original = fields.is_dlf
    t = tracer.Tracer()
    t.install()
    try:
        for mod in (fields, ideals, quotients, leavitt):
            assert mod.is_dlf is not original and mod.is_dlf.__wrapped__ is original
        assert not hasattr(digraph.is_hereditary, "__wrapped__")
        assert not hasattr(digraph.is_saturated, "__wrapped__")
        fields.Field.from_header("F7")
        assert t.calls["fields.Field.from_header"] == 1
    finally:
        t.uninstall()
    assert fields.is_dlf is original and ideals.is_dlf is original


def test_traced_counts_repeat(tmp_path):
    ops = build("lattice", 2, 6, tmp_path) + build("fields", 2, 3, tmp_path)
    counts = []
    for _ in range(2):
        t = tracer.Tracer()
        t.install()
        try:
            for op in ops:
                run_in_process(op)
        finally:
            t.uninstall()
        counts.append((dict(t.calls), dict(t.counters)))
    assert counts[0] == counts[1]
    assert counts[0][1]["digraph.enumerate_hereditary_saturated.subsets_swept"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "chains", "--seed",
                           "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0 and proc.stdout == ""

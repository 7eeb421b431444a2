"""Single-call timings of the ROADMAP baseline probe, taken through the tracer.

Usage (from the repository root)::

    PYTHONPATH=src python3 bench/probe.py

Each probe item runs once, untraced for its wall time and then traced, and
the span that takes most of its self time is named beside it.  Import times
come from ``python -X importtime`` as in the traced benchmark run.  The
results and how they differ from the ROADMAP's figures are in NOTES.md.
"""

from __future__ import annotations

import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402


def probes():
    from leavitt import digraph, fields, ideals, io

    corpus = run.CORPUS
    loop = io.parse_digraph((corpus / "loop.graph").read_text())
    chain = digraph.Digraph(
        "sq16", [f"v{i}" for i in range(16)],
        [(f"c{i}", f"v{i}", f"v{i}", 1) for i in range(16)]
        + [(f"a{i}", f"v{i}", f"v{i + 1}", 1) for i in range(15)])
    bare_loops = digraph.Digraph("c8", [f"v{i}" for i in range(8)],
                                 [(f"c{i}", f"v{i}", f"v{i}", 1) for i in range(8)])
    f_big = fields.Field(1048573)
    dlf5 = fields.Polynomial.from_roots(f_big, range(1, 6))
    dlf5 = dlf5.scale(f_big.inv(dlf5.constant_term))
    q = fields.Field(None)
    near_1e12 = fields.Polynomial.of(q, [1, Fraction(-1, 999_999_999_989)])
    return [
        ("hereditary-saturated sweep, 16-vertex sq chain",
         lambda: len(digraph.enumerate_hereditary_saturated(chain)), "sets"),
        ("pair_lattice, 8 bare loops", lambda: len(ideals.pair_lattice(bare_loops).elements),
         "elements"),
        ("strata census, F13 d<=4 on loop.graph",
         lambda: len(ideals.enumerate_strata(loop, fields.Field(13), 4)), "records"),
        ("is_dlf, degree 5 over F1048573 (roots 1..5)",
         lambda: len(fields.is_dlf(dlf5).roots), "roots"),
        ("Field header F100000000000031",
         lambda: fields.Field.from_header("F100000000000031").p % 1000, "p mod 1000"),
        ("Q root search, root 999999999989",
         lambda: len(fields.find_roots(near_1e12).roots), "roots"),
    ]


def main() -> int:
    (run.ROOT / ".bench_work").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT / ".bench_work") as tmp:
        import_ms, nx_ms = run.importtime_ms(Path(tmp))
        argv = [sys.executable, "-m", "leavitt.cli", "dot", str(run.CORPUS / "sq2.graph")]
        cli_s = statistics.median(run.wall(argv, Path(tmp)) for _ in range(5))
    print(f"{'cold CLI call (dot sq2), median of 5':48s} {cli_s * 1e3:9.1f} ms")
    print(f"{'import leavitt.cli (-X importtime)':48s} {import_ms:9.1f} ms")
    print(f"{'  of which networkx':48s} {nx_ms:9.1f} ms")
    for label, call, what in probes():
        start = time.perf_counter()
        result = call()
        wall = time.perf_counter() - start
        t = Tracer()
        t.install()
        try:
            call()
        finally:
            t.uninstall()
        top = max(t.self_s, key=t.self_s.get)
        print(f"{label:48s} {wall * 1e3:9.1f} ms  {what} {result}; "
              f"most self time in {top} ({t.self_s[top] * 1e3:.1f} ms traced)")
    return 0


if __name__ == "__main__":
    sys.exit(main())

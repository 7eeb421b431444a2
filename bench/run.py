"""Benchmark of the leavitt CLI and library, end to end and layer by layer.

Usage (from the repository root)::

    python3 bench/run.py --workload chains --seed 1 --seconds 42 --trace 0

Every operation is a cold ``python -m leavitt.cli`` process (or the lattice
library call, also its own process), because a CLI user pays interpreter start and
import on every call.  One client runs them one after another (a closed loop)
until ``--seconds`` have passed, and every answer is checked against the
generator's own oracle (``workloads.py``).  Before timing, the corpus golden
commands run and must match ``corpus/expected`` byte for byte.

``--trace 0`` prints the end-to-end metrics of BENCHMARK.json; ``--trace 1``
runs a fixed prefix of the schedule, plus a control set (the golden commands
and one small lattice), in one traced process (``tracer.py``) and prints the
per-layer metrics.  The last stdout line is the JSON result.  Generated
inputs live in ``.bench_work/`` and are removed at exit.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import re
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from workloads import WORKLOADS, LatticeGraph, Op, build_op, check

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CORPUS = SRC / "leavitt" / "corpus"
LATTICE_CALL = Path(__file__).resolve().parent / "lattice_call.py"
TRACER = Path(__file__).resolve().parent / "tracer.py"

OP_TIMEOUT_S = 60
SETUP_EVERY = 4
CALIBRATE_EVERY = 2
#: The calibration process does what every operation does (start the
#: interpreter, import networkx and other modules, compute) without leavitt, so
#: no change to leavitt moves it.
CALIBRATION = """\
import argparse, asyncio, dataclasses, decimal, email.parser, fractions, http.client, inspect
import json, logging, networkx, statistics, typing, unittest, xml.dom.minidom
d = {}
for i in range(100_000):
    d[i % 1000] = d.get(i % 1000, 0) + i * i % 97
"""
#: Median wall time of the calibration on the reference machine (a 2-vCPU
#: virtual machine, Python 3.11); the timed metrics are rescaled to it.
REF_CALIBRATION_S = 0.40
STARTUP_SAMPLES = 5
#: Schedule prefix the traced run executes; a fixed amount of work, so its
#: counts repeat exactly for a seed.
TRACE_OPS = {"chains": 24, "fields": 24, "lattice": 36}

#: The corpus golden commands (the GOLDEN table of tests/test_io_cli.py).
GOLDEN = [
    (("decide", "sq5.graph", "ch2-ideal-F2.ideal"), "decide-ch2-F2.txt"),
    (("decide", "sq5.graph", "ch2-ideal-F3.ideal"), "decide-ch2-F3.txt"),
    (("decide", "dq4.graph", "n4-ideal-F5.ideal"), "decide-n4-F5.txt"),
    (("sever", "loop.graph", "complex-ideal-F5.ideal"), "sever-complex-F5.txt"),
    (("dim", "ek-severed.graph"), "dim-ek-severed.txt"),
    (("certificate", "loop.graph", "complex-ideal-F5.ideal"), "certificate-complex-F5.txt"),
    (("dot", "sq2.graph"), "dot-sq2.dot"),
    (("analyze", "sq2.graph"), "analyze-sq2.txt"),
    (("radical", "loop.graph", "radical-ideal-Q.ideal"), "radical-loop-Q.txt"),
    (("strata", "--field", "F3", "--max-deg", "2", "loop.graph"), "strata-loop-F3.txt"),
]


class BenchError(Exception):
    """The benchmark cannot produce a result (missing program, golden mismatch)."""


def child_env() -> dict:
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONIOENCODING="utf-8")
    env.pop("LPA_LIMITS", None)
    return env


def spawn(argv: list[str], workdir: Path, timeout: float = OP_TIMEOUT_S):
    """Run one process to completion: (exit code, stdout, stderr, seconds,
    peak RSS in KiB, timed out)."""
    with tempfile.TemporaryFile(dir=workdir) as out, tempfile.TemporaryFile(dir=workdir) as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=ROOT, env=child_env())
        timer = threading.Timer(timeout, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return (proc.returncode, out.read().decode("utf-8", "replace"),
                err.read().decode("utf-8", "replace"), seconds, usage.ru_maxrss,
                seconds >= timeout)


def cli_argv(op: Op) -> list[str]:
    if op.kind == "library":
        return [sys.executable, str(LATTICE_CALL), *op.argv]
    return [sys.executable, "-m", "leavitt.cli", *op.argv]


def golden_ops() -> list[Op]:
    ops = []
    for args, expected in GOLDEN:
        argv = [str(CORPUS / a) if a.endswith((".graph", ".ideal")) else a for a in args]
        ops.append(Op(args[0], argv, {"text": (CORPUS / "expected" / expected).read_text(
            encoding="utf-8")}))
    return ops


def golden_gate(workdir: Path):
    """Run the golden commands, two at a time (they are not timed)."""
    ops = golden_ops()
    with ThreadPoolExecutor(max_workers=2) as pool:
        runs = list(pool.map(lambda op: spawn(cli_argv(op), workdir), ops))
    for op, (code, out, err, *_) in zip(ops, runs):
        reason = check(op, code, out)
        if reason:
            raise BenchError(f"golden {' '.join(op.argv)}: {reason}\n{err}")


def wall(argv: list[str], workdir: Path) -> float:
    code, _, err, seconds, *_ = spawn(argv, workdir)
    if code != 0:
        raise BenchError(f"{' '.join(argv)} failed:\n{err}")
    return seconds


def timed_run(workload: str, seed: int, seconds: float, workdir: Path) -> dict:
    """The closed loop.  Every second turn also times one calibration process
    and every fourth one cold import, so the calibration and set-up samples
    see the same machine as the operations around them."""
    latencies, rss, failures, setup, calibration = [], [], [], [], []
    setup_at, calibration_at = [], []  # position in the sequence of operations
    deadline = time.perf_counter() + seconds
    slot = 0
    while time.perf_counter() < deadline:
        if slot % SETUP_EVERY == 0:
            setup.append(wall([sys.executable, "-c", "import leavitt.cli"], workdir))
            setup_at.append(slot - 0.75)
        if slot % CALIBRATE_EVERY == 0:
            calibration.append(wall([sys.executable, "-c", CALIBRATION], workdir))
            calibration_at.append(slot - 0.5)
        op = build_op(workload, seed, slot, workdir)
        code, out, err, took, peak_kib, timed_out = spawn(cli_argv(op), workdir)
        reason = "timeout" if timed_out else check(op, code, out)
        if reason:
            failures.append(f"slot {slot} {op.kind}: {reason} {err.strip()[-300:]}")
        latencies.append(took)
        rss.append(peak_kib)
        slot += 1

    # The host's speed swings by a third and more within tens of seconds, and
    # every process slows with it.  Each time is rescaled by the calibrations
    # taken just before and just after it, to a machine on which the
    # calibration takes REF_CALIBRATION_S.
    def speed(at: float) -> float:
        after = bisect.bisect(calibration_at, at)
        return REF_CALIBRATION_S / statistics.mean(calibration[max(after - 1, 0):after + 1])

    n = len(latencies)
    scaled = [t * speed(i) for i, t in enumerate(latencies)]
    raw, values = latency_metrics(latencies), latency_metrics(scaled)
    raw["setup_s"] = statistics.median(setup)
    values["setup_s"] = statistics.median(t * speed(at) for t, at in zip(setup, setup_at))
    beyond = sum(t * 1e3 > values["latency_tail_ms"] for t in scaled)
    print(f"# {workload} seed {seed}: {n} operations, tail = p75 ({beyond} beyond), "
          f"setup = median of {len(setup)} imports, "
          f"calibration = median of {len(calibration)}: "
          f"{statistics.median(calibration) * 1e3:.1f} ms")
    print("# unscaled: " + ", ".join(f"{k} {v:.4g}" for k, v in raw.items()))
    values["peak_rss_mb"] = max(rss) / 1024
    values["ok_ratio"] = (n - len(failures)) / n
    return {"attempted": n, "failures": failures, "values": values}


def latency_metrics(latencies: list[float]) -> dict:
    # The tail is a fixed percentile, so that a faster program, which
    # completes more operations in a run, is not judged at a higher one.
    n = len(latencies)
    tail = statistics.quantiles(latencies, n=4, method="inclusive")[2] if n > 1 else latencies[0]
    return {"latency_p50_ms": statistics.median(latencies) * 1e3,
            "latency_tail_ms": tail * 1e3,
            "ops_per_s": n / sum(latencies)}


def importtime_ms(workdir: Path) -> tuple[float, float]:
    """Median cumulative import time of leavitt.cli and of networkx within it."""
    totals, nx = [], []
    for _ in range(STARTUP_SAMPLES):
        code, _, err, *_ = spawn([sys.executable, "-X", "importtime", "-c", "import leavitt.cli"],
                                 workdir)
        if code != 0:
            raise BenchError(f"import leavitt.cli failed:\n{err}")
        cumulative = {}
        for line in err.splitlines():
            m = re.match(r"import time:\s+\d+ \|\s+(\d+) \| (\s*)(\S+)", line)
            if m and m.group(3) not in cumulative:
                cumulative[m.group(3)] = int(m.group(1)) / 1e3
        totals.append(cumulative["leavitt.cli"])
        nx.append(cumulative.get("networkx", 0.0))
    return statistics.median(totals), statistics.median(nx)


def traced_run(workload: str, seed: int, workdir: Path) -> dict:
    ops = [build_op(workload, seed, slot, workdir) for slot in range(TRACE_OPS[workload])]
    control = LatticeGraph("control", ["A", "B", "C"])
    control_graph = workdir / "control.graph"
    control_graph.write_text(control.text())
    ops += golden_ops() + [Op("library", [str(control_graph), "--sample-seed", "0", "--samples",
                                         "40"], {"pairs": [[h, s] for h, s, _ in control.pairs()]})]
    plan, report_path = workdir / "plan.json", workdir / "trace.json"
    plan.write_text(json.dumps({"ops": [{"kind": op.kind, "argv": op.argv} for op in ops]}))
    code, _, err, *_ = spawn([sys.executable, str(TRACER), str(plan), str(report_path)],
                             workdir, timeout=170)
    if code != 0:
        raise BenchError(f"traced run failed:\n{err}")
    report = json.loads(report_path.read_text())
    failures = []
    for i, (op, (code, out, err)) in enumerate(zip(ops, report["results"])):
        reason = check(op, code, out)
        if reason:
            failures.append(f"traced op {i} {op.kind}: {reason} {err.strip()[-300:]}")

    values = dict(report["counters"])
    for name, calls in report["calls"].items():
        values[f"{name}.calls"] = calls
        values[f"{name}.self_ms"] = report["self_s"][name] * 1e3
    values["io.bytes_out"] = sum(len(out.encode()) for _, out, _ in report["results"])
    for name in ("ideals.validate_ideal", "quotients.graded_quotient"):
        values[f"{name}.per_op"] = values.get(f"{name}.calls", 0) / len(ops)
    swept = values.get("digraph.enumerate_hereditary_saturated.subsets_swept", 0)
    values["digraph.enumerate_hereditary_saturated.yield"] = (
        values.get("digraph.enumerate_hereditary_saturated.sets_out", 0) / swept if swept else 0.0)
    candidates = values.get("fields.find_roots.candidates", 0)
    values["fields.find_roots.root_yield"] = (
        values.get("fields.find_roots.roots", 0) / candidates if candidates else 0.0)
    values["trace.spans"] = sum(report["calls"].values())
    values["trace.raised"] = sum(report["raised"].values())
    values["trace.overhead_ratio"] = report["traced_s"] / report["untraced_s"]
    import_ms, nx_ms = importtime_ms(workdir)
    values["startup.import_ms"] = import_ms
    values["startup.networkx_ms"] = nx_ms
    values["startup.python_ms"] = statistics.median(
        wall([sys.executable, "-c", "pass"], workdir) for _ in range(STARTUP_SAMPLES)) * 1e3
    return {"attempted": len(ops), "failures": failures, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if not (SRC / "leavitt" / "cli.py").is_file():
        print(f"bench: no leavitt sources under {SRC}", file=sys.stderr)
        return 2
    (ROOT / ".bench_work").mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=ROOT / ".bench_work") as tmp:
            workdir = Path(tmp)
            golden_gate(workdir)
            if args.trace:
                run, declared = traced_run(args.workload, args.seed, workdir), "per_layer"
            else:
                run = timed_run(args.workload, args.seed, args.seconds, workdir)
                declared = "end_to_end"
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    for line in run["failures"][:10]:
        print(f"bench: FAILED {line}", file=sys.stderr)
    # A layer function that no longer exists, or is never called, reads 0.
    unreached = [m["name"] for m in spec[declared] if m["name"] not in run["values"]]
    if unreached:
        print(f"# not reached: {', '.join(unreached)}")
    metrics = {m["name"]: {"value": run["values"].get(m["name"], 0), "unit": m["unit"]}
               for m in spec[declared]}
    print(json.dumps({"correct": not run["failures"], "attempted": run["attempted"],
                      "failed": len(run["failures"]), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing of leavitt, done from outside the package.

Usage::

    python3 bench/tracer.py PLAN.json OUT.json

PLAN lists operations (``{"kind", "argv"}``; kind ``library`` runs the lattice
library call, anything else ``leavitt.cli.main``).  They run in this process three
times: a warm-up, an untraced pass, then a pass with every public function of
the layer modules wrapped in a span.  OUT receives the traced pass's outputs and, per span name, the
call count, raised count and self time (span time minus the time of the spans
it called), plus the work counters below and both pass times.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import io
import json
import math
import sys
import time
from collections import Counter, defaultdict

from workloads import is_prime

LAYERS = ("cli", "io", "digraph", "ideals", "quotients", "fields", "ktheory")

#: Not wrapped.  The predicates run once per subset or per arrow inside the
#: sweeps, so a span around each would distort what is measured; the cli
#: helpers are steps of ``main``, whose self time is the cli layer's.
UNWRAPPED = {"digraph.is_hereditary", "digraph.is_saturated", "digraph.is_omega",
             "cli.run", "cli.build_parser"}


def _factor_count(n: int) -> int:
    """Number of divisors of n (Pollard rho; n stays below ~10^13 here)."""
    counts: Counter = Counter()
    stack = [n]
    while stack:
        m = stack.pop()
        if m == 1:
            continue
        if is_prime(m):
            counts[m] += 1
            continue
        d = _rho(m)
        stack += [d, m // d]
    return math.prod(e + 1 for e in counts.values())


def _rho(n: int) -> int:
    if n % 2 == 0:
        return 2
    c = 1
    while True:
        x = y = 2
        d = 1
        while d == 1:
            x = (x * x + c) % n
            y = (y * y + c) % n
            y = (y * y + c) % n
            d = math.gcd(abs(x - y), n)
        if d != n:
            return d
        c += 1


def _root_candidates(f) -> int:
    """Candidates the exhaustive root search tries: every residue over 𝔽p;
    ±num/den over divisors of the primitive form's end coefficients over ℚ."""
    if f.field.p is not None:
        return f.field.p
    coeffs = list(f.coeffs)
    while coeffs and coeffs[0] == 0:
        coeffs.pop(0)
    if len(coeffs) < 2:
        return 0
    denom = math.lcm(*(c.denominator for c in coeffs))
    ints = [int(c * denom) for c in coeffs]
    content = math.gcd(*ints)
    return 2 * _factor_count(abs(ints[0]) // content) * _factor_count(abs(ints[-1]) // content)


def _counter_hooks():
    """Span name -> hook(counters, args, result) adding work counts."""

    def add(**named):
        def hook(c, args, res):
            for key, fn in named.items():
                c[key] += fn(args, res)
        return hook

    def census_points(args, res):
        g, field, max_deg = args[:3]
        return sum(field.p ** d for d in range(1, max_deg + 1))

    def order_tests(args, res):
        n = len(res.elements)
        return n * n + n * (n + 1) * n  # order table, then both bound scans per pair

    return {
        "io.parse_digraph": add(**{"io.bytes_in": lambda a, r: len(a[0].encode())}),
        "io.parse_ideal": add(**{"io.bytes_in": lambda a, r: len(a[0].encode())}),
        "digraph.enumerate_cycles": add(
            **{"digraph.enumerate_cycles.cycles_out": lambda a, r: len(r)}),
        "digraph.enumerate_hereditary_saturated": add(**{
            "digraph.enumerate_hereditary_saturated.sets_out": lambda a, r: len(r),
            "digraph.enumerate_hereditary_saturated.subsets_swept":
                lambda a, r: 2 ** len(a[0].vertices)}),
        "ideals.enumerate_admissible_pairs": add(
            **{"ideals.enumerate_admissible_pairs.pairs_out": lambda a, r: len(r)}),
        "ideals.pair_lattice": add(**{
            "ideals.pair_lattice.elements": lambda a, r: len(r.elements),
            "ideals.pair_lattice.order_tests": order_tests}),
        "ideals.enumerate_strata": add(**{
            "ideals.enumerate_strata.records_out": lambda a, r: len(r),
            "ideals.enumerate_strata.param_points": census_points}),
        "fields.find_roots": add(**{
            "fields.find_roots.candidates": lambda a, r: _root_candidates(a[0]),
            "fields.find_roots.roots": lambda a, r: len(r.roots)}),
    }


class Tracer:
    """Rebinds functions to span-recording wrappers; aggregates spans as they close."""

    def __init__(self):
        self.calls: Counter = Counter()
        self.raised: Counter = Counter()
        self.self_s: dict[str, float] = defaultdict(float)
        self.counters: Counter = Counter()
        self._stack: list[float] = []   # child time of each open span
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, fn, hook=None):
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.raised[name] += 1
                raise
            finally:
                took = clock() - start
                self.calls[name] += 1
                self.self_s[name] += took - stack.pop()
                if stack:
                    stack[-1] += took
            if hook is not None:
                start = clock()
                hook(self.counters, args, result)
                if stack:  # the hook's time is not the caller's either
                    stack[-1] += clock() - start
            return result

        return span

    def install(self):
        """Wrap each public function of the layers in every leavitt namespace."""
        hooks = _counter_hooks()
        wrappers = {}
        for layer in LAYERS:
            mod = importlib.import_module(f"leavitt.{layer}")
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in UNWRAPPED):
                    wrappers[fn] = self._wrap(name, fn, hooks.get(name))
        namespaces = [m for n, m in sys.modules.items()
                      if n == "leavitt" or n.startswith("leavitt.")]
        for mod in namespaces:
            for attr, value in list(vars(mod).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrappers[value])
        field_cls = importlib.import_module("leavitt.fields").Field
        original = field_cls.__dict__["from_header"]
        self._undo.append((field_cls, "from_header", original))
        field_cls.from_header = classmethod(
            self._wrap("fields.Field.from_header", original.__func__))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


def run_ops(ops: list[dict]) -> list[list]:
    from leavitt import cli
    import lattice_call

    results = []
    for op in ops:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            entry = lattice_call.main if op["kind"] == "library" else cli.main
            code = entry(op["argv"])
        results.append([code, out.getvalue(), err.getvalue()])
    return results


def main(argv=None) -> int:
    plan_path, out_path = argv if argv is not None else sys.argv[1:]
    with open(plan_path, encoding="utf-8") as fh:
        ops = json.load(fh)["ops"]
    run_ops(ops)  # warm-up: first calls pay one-time costs (lazy imports, caches)
    start = time.perf_counter()
    run_ops(ops)
    untraced_s = time.perf_counter() - start

    tracer = Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        results = run_ops(ops)
        traced_s = time.perf_counter() - start
    finally:
        tracer.uninstall()
    report = {
        "results": results,
        "untraced_s": untraced_s,
        "traced_s": traced_s,
        "calls": tracer.calls,
        "raised": tracer.raised,
        "self_s": tracer.self_s,
        "counters": tracer.counters,
    }
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())

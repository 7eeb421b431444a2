"""Seeded benchmark inputs and the answers they must produce.

Every operation is built from ``(workload, seed, slot)`` alone, so the same
seed always yields the same files and the same expected answers.  Expected
answers come from the generator's own construction (planted roots, the
component structure, closed-form counts), never from ``leavitt`` itself.

Slot ``i`` of a workload has a fixed operation kind and draws its size from
the van der Corput quantile of its round, jittered by the seed.  Any prefix of
the schedule therefore covers the size range evenly, which keeps the mix of
a time-bounded run the same from seed to seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from math import comb
from pathlib import Path

#: Default caps of the program; every generated input stays inside them.
#: ``max_listed`` bounds sets, pairs, strata records and cycles alike.
CAPS = {
    "analyze_vertices": 16,
    "max_prime": 2**20,
    "max_listed": 10_000,
    "max_param_points": 1_000_000,
    "max_q_constant": 10**13,
}

WORKLOADS = ("chains", "fields", "lattice")
KINDS = {
    "chains": ("decide", "sever", "certificate", "radical", "dim", "quotient"),
    "fields": ("decide", "certificate", "radical"),
    "lattice": ("analyze", "strata", "library"),
}
SMALL_PRIMES = (5, 7, 11, 13, 17, 19, 23, 29, 31)


class CapExceeded(ValueError):
    """A generated input would leave the program's default caps."""


def guard(ok: bool, what: str):
    if not ok:
        raise CapExceeded(what)


@dataclass
class Op:
    """One benchmark operation: a CLI call or a lattice library call."""

    kind: str          # the subcommand, or "library"
    argv: list[str]    # arguments after the program
    expect: dict       # what the output must show; see check()


# -- number theory and polynomials, independent of leavitt ---------------------

def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_at_or_below(x: int) -> int:
    while not is_prime(x):
        x -= 1
    return x


def _next_prime(x: int) -> int:
    x += 1
    while not is_prime(x):
        x += 1
    return x


def poly_mul(a: list, b: list, p: int | None) -> list:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return [c % p for c in out] if p else out


@dataclass
class Theta:
    """θ(C) built from planted factors: linear ones (root, multiplicity) and
    irreducible quadratics, each normalised to constant term 1."""

    p: int | None
    roots: list[tuple[int | Fraction, int]]
    quadratics: int = 0

    def coeffs(self, rng: random.Random) -> list:
        p = self.p
        acc = [1] if p else [Fraction(1)]
        for r, m in self.roots:
            lin = [1, (-pow(r, -1, p)) % p] if p else [Fraction(1), -1 / Fraction(r)]
            for _ in range(m):
                acc = poly_mul(acc, lin, p)
        for _ in range(self.quadratics):
            if p:
                c = rng.choice([c for c in range(2, min(p, 200))
                                if pow(c, (p - 1) // 2, p) == p - 1])
                acc = poly_mul(acc, [1, 0, p - c], p)  # x² = 1/c has no root
            else:
                acc = poly_mul(acc, [Fraction(1), Fraction(0), Fraction(rng.randint(1, 5))], p)
        return acc

    @property
    def degree(self) -> int:
        return sum(m for _, m in self.roots) + 2 * self.quadratics

    @property
    def squarefree_degree(self) -> int:
        return len(self.roots) + 2 * self.quadratics

    @property
    def is_dlf(self) -> bool:
        return not self.quadratics and all(m == 1 for _, m in self.roots)

    def sorted_roots(self) -> list[str]:
        return [str(r) for r in sorted(r for r, _ in self.roots)]

    def describe_failure(self) -> str:
        repeated = sorted(r for r, m in self.roots if m > 1)
        if repeated:
            return f"repeated root {repeated[0]}"
        return f"unfactored degree {2 * self.quadratics}"


# -- digraph instances with an ideal ---------------------------------------------

@dataclass
class Cycle:
    label: str
    arrows: list[str]
    base: str
    theta: Theta
    paths: int = 0   # |P_C|: paths into the cycle that do not run round it


@dataclass
class Instance:
    """A generated digraph and ideal, plus what the generator knows of them."""

    name: str
    p: int | None
    vertices: list[str] = field(default_factory=list)
    arrows: list[tuple[str, str, str, str]] = field(default_factory=list)  # id src dst mult
    h: set[str] = field(default_factory=set)
    s: set[str] = field(default_factory=set)
    breaking: set[str] = field(default_factory=set)   # B_H, by construction
    cycles: list[Cycle] = field(default_factory=list)
    sink_paths: list[int] = field(default_factory=list)  # n(v) of each quotient sink

    def add_path(self, prefix: str, length: int, into: str):
        """A tail t0 -> ... -> t_{length-1} -> into."""
        ts = [f"{prefix}t{i}" for i in range(length)]
        self.vertices += ts
        for i, t in enumerate(ts):
            self.arrows.append((f"{prefix}s{i}", t, ts[i + 1] if i + 1 < length else into, "1"))

    def graph_text(self) -> str:
        lines = [f"digraph {self.name}"] + [f"vertex {v}" for v in self.vertices]
        for aid, src, dst, mult in self.arrows:
            lines.append(f"arrow {aid} {src} {dst}" + ("" if mult == "1" else f" {mult}"))
        return "\n".join(lines) + "\n"

    def ideal_text(self, rng: random.Random) -> str:
        lines = [f"ideal {self.name}j", "field " + (f"F{self.p}" if self.p else "Q")]
        if self.h:
            lines.append("H " + " ".join(sorted(self.h)))
        if self.s:
            lines.append("S " + " ".join(sorted(self.s)))
        for c in self.cycles:
            lines.append(f"cycle {c.label}: " + " ".join(c.arrows))
        for c in self.cycles:
            lines.append(f"poly {c.label}: " + " ".join(map(str, c.theta.coeffs(rng))))
        return "\n".join(lines) + "\n"

    # -- answers read off the construction --------------------------------------

    def quotient_shape(self) -> tuple[set[str], list[tuple[str, str]]]:
        """Vertices and (src, dst) arrows of the graded quotient Γ/(H, S)."""
        primed = self.breaking - self.s
        vs = {v for v in self.vertices if v not in self.h} | {b + "'" for b in primed}
        arrows = [(src, dst) for _, src, dst, _ in self.arrows if dst not in self.h]
        arrows += [(src, dst + "'") for _, src, dst, _ in self.arrows if dst in primed]
        return vs, arrows

    def severed_shape(self, degrees: list[int]) -> dict:
        """Γ//J: each base vertex becomes d sinks, each arrow into it d copies."""
        vs, arrows = self.quotient_shape()
        count = len(arrows)
        for c, d in zip(self.cycles, degrees):
            vs.discard(c.base)
            vs |= {f"{c.base}.{j}" for j in range(1, d + 1)}
            into = sum(1 for src, dst in arrows if dst == c.base and src != c.base)
            count += (d - 1) * into - 1
        return {"vertices": sorted(vs), "arrows": count}

    def dim_line(self) -> str:
        """dim = Σ_sinks n(v)² + Σ_C deg θ(C)·|P_C|², grouped by block size."""
        sizes: dict[int, int] = {}
        for n in self.sink_paths:
            sizes[n] = sizes.get(n, 0) + 1
        for c in self.cycles:
            sizes[c.paths] = sizes.get(c.paths, 0) + c.theta.degree
        total = sum(n * n * copies for n, copies in sizes.items())
        return f"{total} = " + " ⊕ ".join(f"{c} × M_{n}" for n, c in sorted(sizes.items()))


def _ring(inst: Instance, k: int, rng: random.Random, length: int, tails: int,
          theta: Theta):
    """A cycle with tails feeding it (the ek/loopex shape); it joins β."""
    zs = [f"r{k}z{i}" for i in range(length)]
    inst.vertices += zs
    arrows = [f"r{k}e{i:02d}" for i in range(length)]  # e00 leads the canonical rotation
    for i, aid in enumerate(arrows):
        inst.arrows.append((aid, zs[i], zs[(i + 1) % length], "1"))
    total = 0
    for t in range(tails):
        n = rng.randint(1, 3)
        inst.add_path(f"r{k}q{t}", n, rng.choice(zs))
        total += n
    inst.cycles.append(Cycle(f"C{len(inst.cycles)}", arrows, zs[0], theta, length + total))


def _chain(inst: Instance, k: int, rng: random.Random, length: int, sink: bool,
           cut: int, theta: Theta):
    """An sq chain of loop vertices (dq: ending in a sink), H = everything from
    vertex ``cut`` on; the last surviving loop loses its exit and joins β."""
    qs = [f"q{k}v{i}" for i in range(length)]
    inst.vertices += qs
    for i, v in enumerate(qs):
        inst.arrows.append((f"q{k}l{i}", v, v, "1"))
        if i + 1 < length:
            inst.arrows.append((f"q{k}a{i}", v, qs[i + 1], "1"))
    if sink:
        inst.vertices.append(f"q{k}w")
        inst.arrows.append((f"q{k}b", qs[-1], f"q{k}w", "1"))
        inst.h.add(f"q{k}w")
    inst.h |= set(qs[cut:])
    tail = rng.randint(0, 3)
    inst.add_path(f"q{k}", tail, qs[0])
    inst.cycles.append(Cycle(f"C{len(inst.cycles)}", [f"q{k}l{cut - 1}"], qs[cut - 1],
                             theta, 1 + tail))


def _breaking(inst: Instance, k: int, rng: random.Random, in_s: bool):
    """An infinite emitter with an ω class into H and 1-3 arrows to sinks."""
    b, h = f"b{k}v", f"b{k}h"
    inst.vertices += [b, h]
    inst.arrows.append((f"b{k}o", b, h, "omega"))
    inst.h.add(h)
    inst.breaking.add(b)
    r = rng.randint(1, 3)
    for i in range(r):
        inst.vertices.append(f"b{k}w{i}")
        inst.arrows.append((f"b{k}x{i}", b, f"b{k}w{i}", "1"))
    tail = rng.randint(0, 3)
    inst.add_path(f"b{k}", tail, b)
    if in_s:
        inst.s.add(b)
    else:
        inst.sink_paths.append(1 + tail)   # the primed sink b'
    inst.sink_paths += [tail + 2] * r


def _small_theta(rng: random.Random, p: int | None, plant: str | None) -> Theta:
    d = rng.randint(1, 3)
    pool = list(range(1, p)) if p else [r for r in range(-9, 10) if r]
    roots = [(r, 1) for r in rng.sample(pool, d)]
    if plant == "repeat":
        roots[0] = (roots[0][0], 2)
    return Theta(p, roots, 1 if plant == "quadratic" else 0)


def chains_instance(name: str, rng: random.Random, n_target: int, p: int | None,
                    plant: str | None, dim_ready: bool) -> Instance:
    """Disjoint sq/dq chains cut by H, cycles with tails, and breaking vertices.

    With ``dim_ready`` every chain is cut below its first vertex, so the only
    cycles left in the quotient are those of β and the dimension is finite.
    """
    inst = Instance(name, p)
    k = 0
    for kind, share in (("chain", 0.35), ("ring", 0.5), ("breaking", 0.15)):
        start = len(inst.vertices)
        while len(inst.vertices) - start < share * n_target:
            if kind == "chain":
                length = rng.randint(20, 60)
                cut = 1 if dim_ready else rng.randint(1, length // 2)
                _chain(inst, k, rng, length, rng.random() < 0.5, cut,
                       _small_theta(rng, p, None))
            elif kind == "ring":
                _ring(inst, k, rng, rng.randint(1, 6), rng.randint(0, 2),
                      _small_theta(rng, p, None))
            else:
                _breaking(inst, k, rng, rng.random() < 0.5)
            k += 1
    if plant:
        rng.choice(inst.cycles).theta = _small_theta(rng, p, plant)
    guard(len(inst.cycles) <= CAPS["max_listed"], "too many cycles")
    return inst


def _big_theta(rng: random.Random, p: int | None, plant: str | None, d: int,
               product: float) -> Theta:
    """Degree d, with a search cost set by the slot, not by the draw.

    Over 𝔽p the sweep evaluates θ up to its largest root, so that root lies in
    [0.9p, p) and the others in equal bins below.  Over ℚ the roots are primes
    multiplying to about ``product``: trial division up to √a₀ costs the same
    for every draw, and a₀ has few divisors to try."""
    quadratics = 1 if plant == "quadratic" else 0
    linear = d - 2 * quadratics
    distinct = linear - (1 if plant == "repeat" else 0)
    mults = [2 if plant == "repeat" and i == 0 else 1 for i in range(distinct)]
    if p:
        top, below = 9 * p // 10, distinct - 1
        roots = [rng.randrange(max(1, j * top // below), (j + 1) * top // below)
                 for j in range(below)]
        if distinct:
            roots.append(rng.randrange(top, p))
        return Theta(p, list(zip(roots, mults)), quadratics)
    scale = product ** (1 / max(linear, 1))
    for _ in range(100):
        roots: list[int] = []
        for i, m in enumerate(mults):
            if i == distinct - 1:  # the last root takes up the others' jitter
                done = math.prod(abs(r) ** k for r, k in zip(roots, mults))
                r = prime_at_or_below(max(2, round((product / done) ** (1 / m))))
            else:
                r = prime_at_or_below(max(2, round(scale * math.exp(rng.gauss(0, 0.25)))))
            while r in roots or -r in roots:
                r = _next_prime(r)
            roots.append(r * rng.choice((1, -1)))
        if math.prod(abs(r) ** m for r, m in zip(roots, mults)) <= CAPS["max_q_constant"]:
            return Theta(p, list(zip(roots, mults)), quadratics)
    raise CapExceeded("no root draw under the ℚ constant-term cap")


def fields_instance(name: str, rng: random.Random, degrees: list[int], p: int | None,
                    plant: str | None, product: float) -> Instance:
    """1-4 disjoint loops or short cycles, one per entry of ``degrees``."""
    inst = Instance(name, p)
    victim = rng.randrange(len(degrees)) if plant else -1
    for k, d in enumerate(degrees):
        _ring(inst, k, rng, rng.randint(1, 3), 0,
              _big_theta(rng, p, plant if k == victim else None, d, product))
    return inst


# -- lattice components ---------------------------------------------------------

#: kind -> (vertices, hereditary saturated sets, admissible pairs)
COMPONENTS = {"A": (2, 3, 3), "B": (3, 5, 6), "C": (1, 2, 2)}


@dataclass
class LatticeGraph:
    """A union of small components whose lattices multiply.

    A: a loop feeding a sink; B: an ω-breaking vertex; C: a bare loop.
    """

    name: str
    kinds: list[str]

    def text(self) -> str:
        lines = [f"digraph {self.name}"]
        arrows = []
        for k, kind in enumerate(self.kinds):
            if kind == "A":
                lines += [f"vertex a{k}u", f"vertex a{k}w"]
                arrows += [f"arrow a{k}c a{k}u a{k}u", f"arrow a{k}x a{k}u a{k}w"]
            elif kind == "B":
                lines += [f"vertex b{k}v", f"vertex b{k}h", f"vertex b{k}w"]
                arrows += [f"arrow b{k}o b{k}v b{k}h omega", f"arrow b{k}x b{k}v b{k}w"]
            else:
                lines.append(f"vertex c{k}v")
                arrows.append(f"arrow c{k}c c{k}v c{k}v")
        return "\n".join(lines + arrows) + "\n"

    @property
    def n_vertices(self) -> int:
        return sum(COMPONENTS[k][0] for k in self.kinds)

    @property
    def n_sets(self) -> int:
        return math.prod(COMPONENTS[k][1] for k in self.kinds)

    @property
    def n_pairs(self) -> int:
        return math.prod(COMPONENTS[k][2] for k in self.kinds)

    def component_pairs(self):
        """Per component: its admissible pairs (H, S) and the no-exit loops of
        the quotient by each."""
        for k, kind in enumerate(self.kinds):
            if kind == "A":
                u, w, loop = f"a{k}u", f"a{k}w", f"a{k}c"
                yield [((), (), ()), ((w,), (), (loop,)), ((u, w), (), ())]
            elif kind == "B":
                v, h, w = f"b{k}v", f"b{k}h", f"b{k}w"
                yield [((), (), ()), ((h,), (), ()), ((w,), (), ()), ((h, w), (), ()),
                       ((v, h, w), (), ()), ((h,), (v,), ())]
            else:
                v, loop = f"c{k}v", f"c{k}c"
                yield [((), (), (loop,)), ((v,), (), ())]

    def pairs(self) -> list[tuple[list[str], list[str], list[str]]]:
        """All admissible pairs, as leavitt sorts them, with their no-exit loops."""
        out = []
        for combo in itertools.product(*self.component_pairs()):
            h = sorted(x for c in combo for x in c[0])
            s = sorted(x for c in combo for x in c[1])
            out.append((h, s, sorted(x for c in combo for x in c[2])))
        return sorted(out, key=lambda t: (t[0], t[1]))

    def analyze_text(self) -> str:
        lines, loops = [], []
        for k, kind in enumerate(self.kinds):
            if kind == "A":
                lines += [f"vertex a{k}u: branch regular", f"vertex a{k}w: sink line-point"]
                loops.append((f"a{k}c", "has-exit"))
            elif kind == "B":
                lines += [f"vertex b{k}v: source branch infinite-emitter",
                          f"vertex b{k}h: sink line-point", f"vertex b{k}w: sink line-point"]
            else:
                lines.append(f"vertex c{k}v: regular")
                loops.append((f"c{k}c", "no-exit"))
        lines += [f"cycle ({a}): {flag} exclusive" for a, flag in sorted(loops)]
        sets = sorted({tuple(h) for h, _, _ in self.pairs()}, key=lambda h: (len(h), list(h)))
        lines += ["hs-set {" + ",".join(h) + "}" for h in sets]
        return "\n".join(lines) + "\n"

    def strata_text(self, p: int, max_deg: int) -> str:
        lines = []
        for h, s, loops in self.pairs():
            label = "({%s}, {%s})" % (",".join(h), ",".join(s))
            for r in range(len(loops) + 1):
                for beta in itertools.combinations(loops, r):
                    for degs in itertools.product(range(1, max_deg + 1), repeat=r):
                        params = math.prod((p - 1) * p ** (d - 1) for d in degs)
                        dlf = math.prod(comb(p - 1, d) for d in degs)
                        lines.append(
                            f"stratum pair={label} beta=[{' '.join(f'({a})' for a in beta)}] "
                            f"degrees=[{' '.join(map(str, degs))}]: "
                            f"parameters {params}, dlf {dlf}")
        return "\n".join(lines) + "\n"

    def strata_records(self, max_deg: int) -> int:
        per = {"A": max_deg + 3, "B": 6, "C": max_deg + 2}
        return math.prod(per[k] for k in self.kinds)


def _unions(name: str) -> list[LatticeGraph]:
    return [LatticeGraph(name, ["A"] * a + ["B"] * b + ["C"] * c)
            for a in range(9) for b in range(6) for c in range(17)]


def _random_graph(name: str, rng: random.Random, ok) -> LatticeGraph:
    """A random union, in random order, among the component counts ``ok`` accepts."""
    lg = rng.choice([g for g in _unions(name) if ok(g)])
    rng.shuffle(lg.kinds)
    return lg


# -- the schedule ----------------------------------------------------------------

def vdc(i: int) -> float:
    """Van der Corput radical inverse of i in base 2."""
    q, denom = 0.0, 1.0
    while i:
        denom *= 2
        q += (i & 1) / denom
        i >>= 1
    return q


def slot_rng(workload: str, seed: int, slot: int) -> random.Random:
    return random.Random(f"{workload}:{seed}:{slot}")


def build_op(workload: str, seed: int, slot: int, workdir: Path) -> Op:
    """Write the inputs of one slot under ``workdir`` and return its operation."""
    rng = slot_rng(workload, seed, slot)
    kinds = KINDS[workload]
    kind = kinds[slot % len(kinds)]
    rnd = slot // len(kinds)
    q = min(vdc(rnd) + rng.random() / 128, 0.999)
    plant_turn = (rnd + slot % len(kinds)) % 4 == 3 and kind != "certificate"
    name = f"{workload}{slot}"
    graph = workdir / f"{name}.graph"
    if workload == "lattice":
        return _lattice_op(kind, name, rng, q, graph)

    if workload == "chains":
        n = int(300 + 700 * q)
        p = rng.choice(SMALL_PRIMES) if rnd % 2 == 0 else None
        plant = rng.choice(("repeat", "quadratic")) if plant_turn else None
        inst = chains_instance(name, rng, n, p, plant, dim_ready=(kind == "dim"))
    else:
        cycles = 1 + (rnd + slot) % 4
        p = None
        if rnd % 3 != 2:
            top = CAPS["max_prime"] // cycles
            p = prime_at_or_below(int(math.exp(math.log(1e3) + q * math.log(top / 1e3))))
            guard(p <= CAPS["max_prime"], f"prime {p} above the exhaustive-search cap")
        product = math.exp(math.log(1e3) + q * math.log(CAPS["max_q_constant"] / 1e3 / cycles**2))
        plant = rng.choice(("repeat", "quadratic")) if plant_turn else None
        degrees = [2 + (slot + k) % 7 for k in range(cycles)]
        inst = fields_instance(name, rng, degrees, p, plant, product)
    ideal = workdir / f"{name}.ideal"
    graph.write_text(inst.graph_text())
    ideal.write_text(inst.ideal_text(rng))
    return _ideal_op(kind, inst, str(graph), str(ideal))


def _ideal_op(kind: str, inst: Instance, graph: str, ideal: str) -> Op:
    thetas = [c.theta for c in inst.cycles]
    dlf = all(t.is_dlf for t in thetas)
    severed = inst.severed_shape([t.degree for t in thetas])
    if kind == "decide":
        if dlf:
            head = ["isLPA"] + [f"cycle {c.label}: roots " + " ".join(c.theta.sorted_roots())
                                for c in inst.cycles]
            return Op(kind, [kind, graph, ideal], {"head": head, "shape": severed})
        bad = "; ".join(f"cycle {c.label}: {c.theta.describe_failure()}"
                        for c in inst.cycles if not c.theta.is_dlf)
        return Op(kind, [kind, graph, ideal], {"head": [f"notLPA: {bad}"], "exact": True})
    if kind == "sever":
        flags = [] if dlf else ["--force-degree-only"]
        return Op(kind, [kind, *flags, graph, ideal], {"head": [], "shape": severed})
    if kind == "certificate":
        vs, arrows = inst.quotient_shape()
        lines = [f"{c.label} -> " + " + ".join(
            f"{r}*{c.base}.{i}" for i, r in enumerate(c.theta.sorted_roots(), 1))
            for c in inst.cycles]
        return Op(kind, [kind, graph, ideal], {"lines": len(vs) + len(arrows), "contains": lines})
    if kind == "radical":
        head = [f"cycle {c.label}: degree drop {c.theta.degree - c.theta.squarefree_degree}"
                for c in inst.cycles]
        head += [f"hypothesis violation: {c.label}: squarefree part is not split "
                 f"(unfactored degree {2 * c.theta.quadratics})"
                 for c in inst.cycles if c.theta.quadratics]
        shape = inst.severed_shape([t.squarefree_degree for t in thetas])
        return Op(kind, [kind, graph, ideal], {"head": head, "shape": shape})
    if kind == "dim":
        return Op(kind, [kind, graph, ideal], {"head": [inst.dim_line()], "exact": True})
    vs, arrows = inst.quotient_shape()
    return Op(kind, [kind, graph, ideal],
              {"head": [], "shape": {"vertices": sorted(vs), "arrows": len(arrows)}})


#: (p, max degree) pairs for strata, cheapest census first; Σ p^d ≤ 35,000
STRATA_FIELDS = sorted(
    ((p, d) for p in (5, 7, 11, 13, 17) for d in range(1, 5)
     if sum(p**e for e in range(1, d + 1)) <= 35_000),
    key=lambda pd: sum(pd[0]**e for e in range(1, pd[1] + 1)))


def _lattice_op(kind: str, name: str, rng: random.Random, q: float, graph: Path) -> Op:
    if kind == "analyze":
        n = 8 + round(8 * q)
        lg = _random_graph(name, rng, lambda g: g.n_vertices == n
                           and g.n_sets <= CAPS["max_listed"])
        guard(lg.n_vertices <= CAPS["analyze_vertices"], "analyze sweep above 16 vertices")
        guard(lg.n_sets <= CAPS["max_listed"], "too many hereditary saturated sets")
        graph.write_text(lg.text())
        return Op(kind, [kind, str(graph)], {"text": lg.analyze_text()})
    if kind == "strata":
        p, d = STRATA_FIELDS[int(q * len(STRATA_FIELDS))]
        lg = _random_graph(name, rng, lambda g: 3 <= len(g.kinds) <= 4
                           and 24 <= g.n_pairs <= 72
                           and g.strata_records(d) <= CAPS["max_listed"])
        guard(lg.strata_records(d) <= CAPS["max_listed"], "too many strata")
        guard(sum(p**e for e in range(1, d + 1)) <= CAPS["max_param_points"],
              "parameter sweep above the cap")
        graph.write_text(lg.text())
        return Op(kind, [kind, "--field", f"F{p}", "--max-deg", str(d), str(graph)],
                  {"text": lg.strata_text(p, d)})
    target = 24 + 232 * q
    nearest = min(abs(g.n_pairs - target) for g in _unions(name)
                  if g.n_vertices <= CAPS["analyze_vertices"])
    lg = _random_graph(name, rng, lambda g: g.n_vertices <= CAPS["analyze_vertices"]
                       and abs(g.n_pairs - target) == nearest)
    guard(lg.n_pairs <= 256, "lattice above 256 elements")
    graph.write_text(lg.text())
    sample_seed = rng.randrange(2**31)
    return Op(kind, [str(graph), "--sample-seed", str(sample_seed), "--samples", "40"],
              {"pairs": [[h, s] for h, s, _ in lg.pairs()]})


# -- answer checks ---------------------------------------------------------------

def check(op: Op, code: int, out: str) -> str | None:
    """None when the output is right, else a one-line reason."""
    if code != 0:
        return f"exit code {code}"
    e = op.expect
    if "text" in e:
        return None if out == e["text"] else "output differs from the expected text"
    if "pairs" in e:
        return _check_lattice(e["pairs"], out)
    lines = out.splitlines()
    if "contains" in e:
        if len(lines) != e["lines"]:
            return f"{len(lines)} certificate lines, expected {e['lines']}"
        missing = set(e["contains"]) - set(lines)
        return f"missing certificate line {sorted(missing)[0]!r}" if missing else None
    head = e["head"]
    if lines[:len(head)] != head:
        return f"head {lines[:len(head)]!r} != {head!r}"
    if e.get("exact"):
        return None if len(lines) == len(head) else "unexpected extra output"
    shape = e["shape"]
    vs = sorted(line[7:] for line in lines if line.startswith("vertex "))
    arrows = sum(1 for line in lines if line.startswith("arrow "))
    if vs != shape["vertices"]:
        return f"{len(vs)} vertices, expected {len(shape['vertices'])} (or other ids)"
    if arrows != shape["arrows"]:
        return f"{arrows} arrows, expected {shape['arrows']}"
    return None


def _check_lattice(pairs: list, out: str) -> str | None:
    """Elements equal the closed-form product; sampled meets and joins are the
    greatest lower and least upper bounds; the Galois round trip is exact."""
    import json
    try:
        got = json.loads(out)
    except ValueError:
        return "library call output is not JSON"
    elements = [(frozenset(h), frozenset(s)) for h, s in got["elements"]]
    expected = {(frozenset(h), frozenset(s)) for h, s in pairs}
    if len(elements) != len(pairs) or set(elements) != expected:
        return f"{len(elements)} lattice elements, expected {len(pairs)}"

    def leq(a, b):
        return a[0] <= b[0] and (a[0] | a[1]) <= (b[0] | b[1])

    for i, k, meet, join in got["samples"]:
        a, b = elements[i], elements[k]
        lower = [x for x in elements if leq(x, a) and leq(x, b)]
        upper = [x for x in elements if leq(a, x) and leq(b, x)]
        if elements[meet] not in lower or not all(leq(x, elements[meet]) for x in lower):
            return f"meet of elements {i} and {k} is not their greatest lower bound"
        if elements[join] not in upper or not all(leq(elements[join], x) for x in upper):
            return f"join of elements {i} and {k} is not their least upper bound"
    if got["roundtrip_failures"]:
        return f"{got['roundtrip_failures']} Galois round-trip failures"
    return None

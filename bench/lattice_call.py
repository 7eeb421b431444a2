"""Library call: the admissible-pair lattice and the Galois round trip.

No CLI command reaches ``pair_lattice``, so the benchmark calls it here, as
its own process.  Usage::

    python3 bench/lattice_call.py GRAPH --sample-seed N --samples K

Prints one JSON object: the lattice elements as ``[H, S]`` lists, ``K``
sampled ``[i, k, meet, join]`` index rows, and the number of pairs for which
``galois_psi(galois_phi(pair))`` is not the pair again.  Functions are looked
up on their modules at call time, so a tracer that rebinds them sees the calls.
"""

from __future__ import annotations

import argparse
import json
import random
import sys


def main(argv=None) -> int:
    from leavitt import ideals, io, ktheory

    parser = argparse.ArgumentParser(prog="lattice_call")
    parser.add_argument("graph")
    parser.add_argument("--sample-seed", type=int, required=True)
    parser.add_argument("--samples", type=int, required=True)
    args = parser.parse_args(argv)
    with open(args.graph, encoding="utf-8") as fh:
        g = io.parse_digraph(fh.read(), args.graph)
    lattice = ideals.pair_lattice(g)
    n = len(lattice.elements)
    rng = random.Random(args.sample_seed)
    samples = []
    for _ in range(args.samples):
        i, k = rng.randrange(n), rng.randrange(n)
        samples.append([i, k, lattice.meet_table[i, k], lattice.join_table[i, k]])
    failures = 0
    for pair in lattice.elements:
        closed = ktheory.galois_phi(g, pair)
        if ktheory.galois_psi(g, closed.generating_items(g)) != pair:
            failures += 1
    json.dump({"elements": [[sorted(p.h), sorted(p.s)] for p in lattice.elements],
               "samples": samples, "roundtrip_failures": failures}, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

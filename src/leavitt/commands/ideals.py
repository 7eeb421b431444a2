"""``strata``: the census of ideal presentations over a prime field."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import lattice as la
from ..errors import ParseError, _positive_int

if TYPE_CHECKING:
    from ..cli import Reporter


def strata(rep: Reporter, args, g):
    if args.override is None or not args.override.is_prime_field:
        raise ParseError("strata requires --field F<p>")
    records = la.enumerate_strata(g, args.override, _positive_int(args.max_deg, "--max-deg"),
                                  limit=args.limits["maxPairs"])
    lines = rep.fmt == "json-lines"
    for r in records:
        pair, beta, degrees = r.key.pair, r.key.beta, r.key.degrees
        text = (f"stratum pair={pair.label()} beta=[{' '.join(c.label() for c in beta)}] "
                f"degrees=[{' '.join(map(str, degrees))}]: "
                f"parameters {r.parameter_count}, dlf {r.dlf_count}")
        if lines:  # the json-lines fields cost a sort and a list per record
            rep.emit(text, record="stratum", h=sorted(pair.h), s=sorted(pair.s),
                     beta=[list(c.arrows) for c in beta], degrees=list(degrees),
                     parameters=r.parameter_count, dlf=r.dlf_count)
        else:
            rep.emit(text)

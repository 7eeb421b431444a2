"""``check-morphism``: the admissibility of a digraph morphism."""

from __future__ import annotations

from typing import TYPE_CHECKING

from .. import morphisms as mo
from ..errors import MalformedMorphismError

if TYPE_CHECKING:
    from ..cli import Reporter


def check_morphism(rep: Reporter, args, morphism, src, dst):
    name, src_name, dst_name, vmap, emap = morphism
    if src.name != src_name or dst.name != dst_name:
        raise MalformedMorphismError(
            f"morphism {name} names graphs {src_name} -> {dst_name}, "
            f"got {src.name} -> {dst.name}")
    report = mo.check_admissible_morphism(mo.DigraphMorphism(name, src, dst, vmap, emap))
    if report.valid:
        rep.emit("valid admissible morphism", record="morphism", valid=True)
    else:
        rep.emit("invalid morphism", record="morphism", valid=False)
        for v in report.violations:
            rep.emit(f"violation: {v}", record="violation", detail=v)

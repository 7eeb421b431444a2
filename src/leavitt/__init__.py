"""Exact computations with Leavitt path algebras of finite digraphs.

The package works at the combinatorial level: digraph structure, ideal
presentations (H, S, β, θ), quotient digraph constructions, the
distinct-linear-factor criterion for a quotient to be of path-algebra type,
radical quotients, and the Galois correspondence between graded ideals and
the graph monoid.  All arithmetic is exact (rationals or prime fields).

Importing the package loads none of its modules.  Each name below is looked
up on its module at every access (PEP 562), so ``leavitt.is_dlf`` is always
``leavitt.fields.is_dlf``, and a command loads only the modules it runs.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "cycles": ("enumerate_cycles",),
    "digraph": (
        "ArrowClass", "Digraph", "GeometricCycle", "OMEGA", "breaking_vertices",
        "classify_vertices", "enumerate_hereditary_saturated",
        "hereditary_saturated_closure", "to_dot",
    ),
    "dimension": ("MatrixDecomposition", "dimension_blocks", "quotient_dimension"),
    "fields": (
        "Polynomial", "RootMultiset", "find_roots", "is_dlf", "poly_gcd", "squarefree_part",
    ),
    "ideals": ("AdmissiblePair", "pair_order"),
    "ktheory": ("ClosedSubmonoid", "CornerGen", "ProjectivePresentation", "VertexGen",
                "galois_phi", "galois_psi"),
    "lattice": ("enumerate_admissible_pairs", "enumerate_strata", "pair_lattice"),
    "laurent": ("LaurentElement", "crt_profile", "laurent_normalize"),
    "morphisms": ("DigraphMorphism", "check_admissible_morphism"),
    "presentations": ("IdealPresentation", "graded_part", "validate_ideal"),
    "projectives": ("classify_fgips", "classify_simple_projectives", "end_finite_dim",
                    "is_orthogonal", "monoid_congruent", "monoid_presentation"),
    "quotients": (
        "IsoCertificate", "QuotientResult", "cycle_to_loop", "decide_lpa_quotient",
        "graded_quotient", "iso_certificate", "radical_quotient", "sever",
    ),
    "scalars": ("Field",),
}
#: exported name -> the module that defines it
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}
#: the modules an ``import leavitt`` used to bind as attributes
_MODULES = ("digraph", "errors", "fields", "ideals", "ktheory", "quotients", "records")

__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _HOME:
        return getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted(set(globals()) | set(_HOME) | set(_MODULES))

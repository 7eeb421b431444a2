"""Exact computations with Leavitt path algebras of finite digraphs.

The package works at the combinatorial level: digraph structure, ideal
presentations (H, S, β, θ), quotient digraph constructions, the
distinct-linear-factor criterion for a quotient to be of path-algebra type,
radical quotients, and the Galois correspondence between graded ideals and
the graph monoid.  All arithmetic is exact (rationals or prime fields).
"""

from .digraph import (
    ArrowClass,
    Digraph,
    DigraphMorphism,
    GeometricCycle,
    OMEGA,
    breaking_vertices,
    check_admissible_morphism,
    classify_vertices,
    enumerate_cycles,
    enumerate_hereditary_saturated,
    hereditary_saturated_closure,
    to_dot,
)
from .fields import (
    Field,
    LaurentElement,
    Polynomial,
    RootMultiset,
    crt_profile,
    find_roots,
    is_dlf,
    laurent_normalize,
    poly_gcd,
    squarefree_part,
)
from .ideals import (
    AdmissiblePair,
    IdealPresentation,
    enumerate_admissible_pairs,
    enumerate_strata,
    graded_part,
    pair_lattice,
    pair_order,
    validate_ideal,
)
from .ktheory import (
    ClosedSubmonoid,
    CornerGen,
    ProjectivePresentation,
    VertexGen,
    acyclic_decomposition,
    classify_fgips,
    classify_simple_projectives,
    corner_classify,
    end_finite_dim,
    galois_phi,
    galois_psi,
    is_orthogonal,
    monoid_congruent,
    monoid_presentation,
)
from .quotients import (
    IsoCertificate,
    MatrixDecomposition,
    QuotientResult,
    cycle_to_loop,
    decide_lpa_quotient,
    dimension_blocks,
    graded_quotient,
    iso_certificate,
    quotient_dimension,
    radical_quotient,
    sever,
)

__version__ = "0.1.0"

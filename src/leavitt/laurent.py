"""The Laurent ring 𝔽[x, x⁻¹]: its elements, the generators of a principal
ideal, and the block shape of a quotient 𝔽[x, x⁻¹]/(f).

Laurent elements are sparse maps from (possibly negative) integer exponents
to nonzero scalars.  :func:`laurent_normalize` reads the polynomial
generators of (g) off an element; :func:`crt_profile` checks a factorization
of f into pairwise coprime powers and reports the Chinese-remainder blocks
of 𝔽[x, x⁻¹]/(f), and :func:`linear_factorization` supplies one over 𝔽p from
:func:`~leavitt.fields.find_roots`.  The polynomial arithmetic is that of
:mod:`leavitt.fields`; no command runs this module, so none compiles it.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Iterable

from .errors import (
    FieldMismatchError,
    NotCoprimeError,
    ProductMismatchError,
    UnitElementError,
    ZeroElementError,
    ZeroPolynomialError,
)
from .fields import Polynomial, find_roots, poly_gcd
from .records import record

if TYPE_CHECKING:
    from .fields import Scalar
    from .scalars import Field


@record
class LaurentElement:
    """Sparse element of 𝔽[x, x⁻¹]: exponent → nonzero coefficient."""

    field: Field
    terms: tuple[tuple[int, Scalar], ...]

    @classmethod
    def of(cls, field: Field, terms) -> "LaurentElement":
        cleaned = {}
        items = terms.items() if hasattr(terms, "items") else terms
        for exp, c in items:
            c = field.coerce(c)
            if c != 0:
                cleaned[int(exp)] = field.add(cleaned.get(int(exp), field.zero), c)
        return cls(field, tuple(sorted((e, c) for e, c in cleaned.items() if c != 0)))

    @property
    def is_zero(self) -> bool:
        return not self.terms


def laurent_normalize(g: LaurentElement) -> tuple[Polynomial, Polynomial]:
    """The monic and the constant-term-1 polynomial generators of the ideal (g).

    Returns ``(monic, canonical)`` where ``monic`` is the unique monic
    f ∈ 𝔽[x] with f(0) ≠ 0 generating (g) in 𝔽[x, x⁻¹] and ``canonical`` is
    its unique scalar multiple with constant term 1.
    """
    if g.is_zero:
        raise ZeroElementError("the zero element generates the zero ideal")
    if len(g.terms) == 1:
        raise UnitElementError("λxⁿ is a unit; the ideal is the whole ring")
    field = g.field
    low = g.terms[0][0]
    coeffs = [field.zero] * (g.terms[-1][0] - low + 1)
    for exp, c in g.terms:
        coeffs[exp - low] = c
    poly = Polynomial.of(field, coeffs)
    return poly.monic(), poly.scale(field.inv(poly.constant_term))


@record
class CrtProfile:
    """Shape of 𝔽[x, x⁻¹]/(f) read off a verified factorization of f."""

    total_dimension: int
    blocks: tuple[tuple[Polynomial, int, int], ...]  # (factor, multiplicity, block dim)
    maximal_ideal_count: int
    is_split_product: bool  # ≅ 𝔽^m, i.e. all factors linear with multiplicity 1


def linear_factorization(f: Polynomial) -> list[tuple[Polynomial, int]]:
    """Write f as ∏ (x − r)^m over 𝔽p; fails if f does not split."""
    if not f.field.is_prime_field:
        raise FieldMismatchError("automatic factorization is only done over prime fields")
    rm = find_roots(f)
    if rm.unfactored_degree:
        raise ProductMismatchError(
            f"polynomial does not split into linear factors "
            f"(unfactored degree {rm.unfactored_degree})")
    field = f.field
    return [(Polynomial.of(field, [field.neg(r), field.one]), m) for r, m in rm.roots]


def crt_profile(f: Polynomial,
                factorization: Iterable[tuple[Polynomial, int]] | None = None) -> CrtProfile:
    """Validate a factorization of f into pairwise coprime powers and report
    the block structure of 𝔽[x, x⁻¹]/(f).

    When ``factorization`` is None the factors are derived from
    :func:`find_roots`, which requires f to split over 𝔽p.
    """
    if f.is_zero:
        raise ZeroPolynomialError("crt profile needs a nonzero polynomial")
    factors = list(factorization) if factorization is not None else linear_factorization(f)
    for (g1, _), (g2, _) in itertools.combinations(factors, 2):
        if poly_gcd(g1, g2).degree != 0:
            raise NotCoprimeError(f"factors {g1} and {g2} share a common factor")
    product = Polynomial.one(f.field)
    for g, m in factors:
        if m < 1:
            raise ProductMismatchError("factor multiplicities must be positive")
        for _ in range(m):
            product = product * g
    if product.degree != f.degree or product.scale(f.leading) != f.scale(product.leading):
        raise ProductMismatchError("factor powers do not multiply back to the polynomial")
    blocks = tuple((g, m, m * g.degree) for g, m in factors)
    return CrtProfile(
        total_dimension=f.degree,
        blocks=blocks,
        maximal_ideal_count=len(factors),
        is_split_product=all(g.degree == 1 and m == 1 for g, m in factors),
    )

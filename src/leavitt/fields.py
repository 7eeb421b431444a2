"""Exact scalar and polynomial arithmetic over ℚ and 𝔽p.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always in lowest terms with positive denominator) and ``int`` residues in
``[0, p)`` over a prime field.  A :class:`Field` value carries the choice of
field and performs all scalar arithmetic, parsing and printing.

Polynomials are dense coefficient tuples, low degree first, with a nonzero
trailing coefficient; the empty tuple is the zero polynomial.  Laurent
elements are sparse maps from (possibly negative) integer exponents to
nonzero scalars.  Everything is immutable and safe to share.

Root finding is exhaustive over 𝔽p (rejecting p > 2**20) and uses the
rational-root theorem over ℚ; there is deliberately no general polynomial
factorization here.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Union

from .errors import (
    ConstantPolynomialError,
    DivisionByZeroError,
    FieldMismatchError,
    NotCoprimeError,
    ProductMismatchError,
    ResourceLimitError,
    UnitElementError,
    ZeroConstantTermError,
    ZeroElementError,
    ZeroPolynomialError,
)

Scalar = Union[Fraction, int]

#: Largest prime modulus accepted by the exhaustive root search.
MAX_ENUMERABLE_PRIME = 2**20


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True)
class Field:
    """The coefficient field: ℚ when ``p`` is None, 𝔽p otherwise."""

    p: int | None = None

    def __post_init__(self):
        if self.p is not None and not _is_prime(self.p):
            raise ValueError(f"characteristic {self.p} is not prime")

    @classmethod
    def rationals(cls) -> "Field":
        return cls(None)

    @classmethod
    def gf(cls, p: int) -> "Field":
        return cls(p)

    @classmethod
    def from_header(cls, text: str) -> "Field":
        """Parse a field header token: ``Q`` or ``F<p>``."""
        if text == "Q":
            return cls.rationals()
        if text.startswith("F") and text[1:].isdigit():
            return cls(int(text[1:]))
        raise ValueError(f"unrecognized field header {text!r}")

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def header(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    # -- scalar arithmetic ------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return 0 if self.p is not None else Fraction(0)

    @property
    def one(self) -> Scalar:
        return 1 if self.p is not None else Fraction(1)

    def coerce(self, x) -> Scalar:
        """Normalize an int/Fraction (or a scalar from another field) into this field."""
        if self.p is None:
            if isinstance(x, bool):
                raise FieldMismatchError(f"cannot coerce {x!r} into Q")
            if isinstance(x, (int, Fraction)):
                return Fraction(x)
            raise FieldMismatchError(f"cannot coerce {x!r} into Q")
        if isinstance(x, bool):
            raise FieldMismatchError(f"cannot coerce {x!r} into F{self.p}")
        if isinstance(x, int):
            return x % self.p
        if isinstance(x, Fraction):
            if x.denominator % self.p == 0:
                raise FieldMismatchError(
                    f"denominator of {x} is divisible by the characteristic {self.p}")
            return (x.numerator * self.inv(x.denominator % self.p)) % self.p
        raise FieldMismatchError(f"cannot coerce {x!r} into F{self.p}")

    def add(self, a: Scalar, b: Scalar) -> Scalar:
        return (a + b) % self.p if self.p is not None else a + b

    def sub(self, a: Scalar, b: Scalar) -> Scalar:
        return (a - b) % self.p if self.p is not None else a - b

    def mul(self, a: Scalar, b: Scalar) -> Scalar:
        return (a * b) % self.p if self.p is not None else a * b

    def neg(self, a: Scalar) -> Scalar:
        return (-a) % self.p if self.p is not None else -a

    def inv(self, a: Scalar) -> Scalar:
        if a == 0:
            raise DivisionByZeroError("inverse of zero")
        if self.p is None:
            return 1 / Fraction(a)
        return pow(a, self.p - 2, self.p)

    def div(self, a: Scalar, b: Scalar) -> Scalar:
        return self.mul(a, self.inv(b))

    def elements(self) -> Iterator[Scalar]:
        """All field elements, ascending; only available over 𝔽p."""
        if self.p is None:
            raise FieldMismatchError("cannot enumerate the rationals")
        if self.p > MAX_ENUMERABLE_PRIME:
            raise ResourceLimitError(f"refusing exhaustive search over F{self.p}")
        return iter(range(self.p))

    # -- text form ---------------------------------------------------------

    def parse_scalar(self, token: str) -> Scalar:
        """Parse ``a`` or ``a/b`` over ℚ, a decimal residue in [0, p) over 𝔽p."""
        if self.p is None:
            try:
                return Fraction(token)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational {token!r}: {exc}") from None
        if not token.isdigit():
            raise ValueError(f"bad residue {token!r}: expected a decimal integer in [0, {self.p})")
        value = int(token)
        if not 0 <= value < self.p:
            raise ValueError(f"residue {value} out of range [0, {self.p})")
        return value

    def format_scalar(self, x: Scalar) -> str:
        return str(x)

    def __repr__(self):
        return f"Field({self.header()})"


@dataclass(frozen=True)
class Polynomial:
    """Dense univariate polynomial; ``coeffs`` low degree first, trailing nonzero."""

    field: Field
    coeffs: tuple[Scalar, ...]

    @classmethod
    def of(cls, field: Field, coeffs: Iterable) -> "Polynomial":
        cs = [field.coerce(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        return cls(field, tuple(cs))

    @classmethod
    def zero(cls, field: Field) -> "Polynomial":
        return cls(field, ())

    @classmethod
    def one(cls, field: Field) -> "Polynomial":
        return cls(field, (field.one,))

    @classmethod
    def x(cls, field: Field) -> "Polynomial":
        return cls(field, (field.zero, field.one))

    @classmethod
    def from_roots(cls, field: Field, roots: Iterable) -> "Polynomial":
        """Monic ∏ (x − r)."""
        acc = cls.one(field)
        for r in roots:
            acc = acc * cls.of(field, [field.neg(field.coerce(r)), field.one])
        return acc

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def degree(self) -> int:
        """Degree, with −1 for the zero polynomial."""
        return len(self.coeffs) - 1

    @property
    def constant_term(self) -> Scalar:
        return self.coeffs[0] if self.coeffs else self.field.zero

    @property
    def leading(self) -> Scalar:
        if not self.coeffs:
            raise ZeroPolynomialError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def _check_field(self, other: "Polynomial"):
        if self.field != other.field:
            raise FieldMismatchError(f"{self.field} vs {other.field}")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        n = max(len(self.coeffs), len(other.coeffs))
        f = self.field
        return Polynomial.of(f, [
            f.add(self.coeffs[i] if i < len(self.coeffs) else f.zero,
                  other.coeffs[i] if i < len(other.coeffs) else f.zero)
            for i in range(n)])

    def __neg__(self) -> "Polynomial":
        f = self.field
        return Polynomial(f, tuple(f.neg(c) for c in self.coeffs))

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        self._check_field(other)
        if self.is_zero or other.is_zero:
            return Polynomial.zero(self.field)
        f = self.field
        out = [f.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            for j, b in enumerate(other.coeffs):
                out[i + j] = f.add(out[i + j], f.mul(a, b))
        return Polynomial.of(f, out)

    def scale(self, c) -> "Polynomial":
        f = self.field
        c = f.coerce(c)
        return Polynomial.of(f, [f.mul(c, a) for a in self.coeffs])

    def __divmod__(self, other: "Polynomial") -> tuple["Polynomial", "Polynomial"]:
        self._check_field(other)
        if other.is_zero:
            raise DivisionByZeroError("polynomial division by zero")
        f = self.field
        rem = list(self.coeffs)
        dq = len(self.coeffs) - len(other.coeffs)
        if dq < 0:
            return Polynomial.zero(f), self
        quo = [f.zero] * (dq + 1)
        inv_lead = f.inv(other.leading)
        for k in range(dq, -1, -1):
            c = f.mul(rem[k + other.degree], inv_lead)
            quo[k] = c
            if c != 0:
                for i, b in enumerate(other.coeffs):
                    rem[k + i] = f.sub(rem[k + i], f.mul(c, b))
        return Polynomial.of(f, quo), Polynomial.of(f, rem)

    def __floordiv__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[0]

    def __mod__(self, other: "Polynomial") -> "Polynomial":
        return divmod(self, other)[1]

    def divides(self, other: "Polynomial") -> bool:
        return (other % self).is_zero

    def monic(self) -> "Polynomial":
        if self.is_zero:
            return self
        return self.scale(self.field.inv(self.leading))

    def derivative(self) -> "Polynomial":
        f = self.field
        return Polynomial.of(
            f, [f.mul(f.coerce(i), c) for i, c in enumerate(self.coeffs)][1:])

    def evaluate(self, x) -> Scalar:
        f = self.field
        x = f.coerce(x)
        acc = f.zero
        for c in reversed(self.coeffs):
            acc = f.add(f.mul(acc, x), c)
        return acc

    def __str__(self):
        return " ".join(self.field.format_scalar(c) for c in self.coeffs) or "0"

    def __repr__(self):
        return f"Polynomial({self.field.header()}, [{', '.join(map(str, self.coeffs))}])"


def poly_gcd(a: Polynomial, b: Polynomial) -> Polynomial:
    """Monic greatest common divisor (zero if both arguments are zero)."""
    a._check_field(b)
    while not b.is_zero:
        a, b = b, a % b
    return a.monic()


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class RootMultiset:
    """Roots found in the field, with multiplicities, plus the rootless leftover degree."""

    roots: tuple[tuple[Scalar, int], ...]
    unfactored_degree: int

    def multiplicity(self, r) -> int:
        for root, m in self.roots:
            if root == r:
                return m
        return 0


@dataclass(frozen=True)
class DlfVerdict:
    """Outcome of the distinct-linear-factors test, with a witness either way."""

    is_dlf: bool
    roots: tuple[Scalar, ...] = ()
    repeated_root: Scalar | None = None
    unfactored_degree: int = 0

    def describe(self, field: Field) -> str:
        if self.is_dlf:
            return "roots " + " ".join(field.format_scalar(r) for r in self.roots)
        if self.repeated_root is not None:
            return f"repeated root {field.format_scalar(self.repeated_root)}"
        return f"unfactored degree {self.unfactored_degree}"


def _deflate(f: Polynomial, r: Scalar) -> Polynomial:
    """Exact division by (x − r); assumes f(r) = 0."""
    quotient, rem = divmod(f, Polynomial.of(f.field, [f.field.neg(r), f.field.one]))
    assert rem.is_zero
    return quotient


def find_roots(f: Polynomial) -> RootMultiset:
    """All roots of f in its coefficient field, with multiplicities by deflation."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot find roots of the zero polynomial")
    field = f.field
    roots: list[tuple[Scalar, int]] = []
    if field.is_prime_field:
        rem = f
        for a in field.elements():
            m = 0
            while not rem.is_zero and rem.degree >= 1 and rem.evaluate(a) == 0:
                rem = _deflate(rem, a)
                m += 1
            if m:
                roots.append((a, m))
        return RootMultiset(tuple(roots), rem.degree if rem.degree > 0 else 0)

    # over Q: strip x^k, pass to the primitive integer form, apply the
    # rational-root theorem, then deflate candidate by candidate
    rem = f
    k = next(i for i, c in enumerate(f.coeffs) if c != 0)
    if k:
        rem = Polynomial.of(field, f.coeffs[k:])
        roots.append((Fraction(0), k))
    if rem.degree >= 1:
        from math import gcd, lcm
        denom = lcm(*(c.denominator for c in rem.coeffs))
        ints = [int(c * denom) for c in rem.coeffs]
        content = gcd(*ints)
        ints = [c // content for c in ints]
        for num in sorted(_divisors(abs(ints[0]))):
            for den in sorted(_divisors(abs(ints[-1]))):
                for cand in (Fraction(num, den), Fraction(-num, den)):
                    if rem.degree < 1:
                        break
                    m = 0
                    while rem.degree >= 1 and rem.evaluate(cand) == 0:
                        rem = _deflate(rem, cand)
                        m += 1
                    if m:
                        roots.append((cand, m))
    roots.sort(key=lambda rm: rm[0])
    return RootMultiset(tuple(roots), rem.degree if rem.degree > 0 else 0)


def _divisors(n: int) -> list[int]:
    if n == 0:
        return []
    out = []
    d = 1
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            out.append(n // d)
        d += 1
    return sorted(set(out))


def is_dlf(f: Polynomial) -> DlfVerdict:
    """True iff f is a product of pairwise distinct linear factors over its field."""
    if f.is_zero:
        raise ZeroPolynomialError("dlf test needs a nonzero polynomial")
    if f.degree < 1:
        raise ConstantPolynomialError("dlf test needs degree >= 1")
    rm = find_roots(f)
    repeated = next((r for r, m in rm.roots if m > 1), None)
    if repeated is not None:
        return DlfVerdict(False, repeated_root=repeated,
                          unfactored_degree=rm.unfactored_degree)
    if rm.unfactored_degree:
        return DlfVerdict(False, unfactored_degree=rm.unfactored_degree)
    return DlfVerdict(True, roots=tuple(r for r, _ in rm.roots))


def _pth_root(f: Polynomial) -> Polynomial:
    """Inverse Frobenius for f = h(xᵖ) over 𝔽p (coefficientwise, since aᵖ = a)."""
    p = f.field.p
    assert p is not None
    assert all(c == 0 for i, c in enumerate(f.coeffs) if i % p), f
    return Polynomial.of(f.field, f.coeffs[::p])


def _radical(f: Polynomial) -> Polynomial:
    """Monic product of the distinct irreducible factors of f (any field)."""
    if f.degree < 1:
        return Polynomial.one(f.field)
    fp = f.derivative()
    if fp.is_zero:
        return _radical(_pth_root(f))
    d = poly_gcd(f, fp)
    if d.degree == 0:
        return f.monic()
    w = (f // d).monic()
    # strip every factor of w from d; what survives has all multiplicities
    # divisible by the characteristic, hence is a p-th power
    y = d
    g = poly_gcd(y, w)
    while g.degree >= 1:
        y = (y // g).monic()
        g = poly_gcd(y, w)
    if y.degree == 0:
        return w
    return (w * _radical(_pth_root(y))).monic()


def squarefree_part(f: Polynomial) -> Polynomial:
    """Product of the distinct irreducible factors of f, normalized so g(0) = 1."""
    if f.is_zero or f.degree < 1:
        raise ConstantPolynomialError("squarefree part needs degree >= 1")
    if f.constant_term == 0:
        raise ZeroConstantTermError("squarefree part needs f(0) != 0")
    g = _radical(f)
    return g.scale(f.field.inv(g.constant_term))


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


@dataclass(frozen=True)
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

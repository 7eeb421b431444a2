"""Exact polynomial arithmetic over ℚ and 𝔽p.

Scalars are plain values: ``int`` residues in ``[0, p)`` over 𝔽p and
``fractions.Fraction`` in lowest terms over ℚ.  :class:`Field`, re-exported
from :mod:`leavitt.scalars` so that a field header compiles no polynomial
code, does all scalar arithmetic, parsing and printing.  Polynomials are
dense coefficient tuples, low degree first, with a nonzero trailing
coefficient (the empty tuple is zero); every value is immutable.  The Laurent
ring 𝔽[x, x⁻¹] lives in :mod:`leavitt.laurent`, which no command loads.

Over 𝔽p, roots come from g = gcd(f, xᵖ − x), split into linear factors by
Cantor–Zassenhaus (small fields are swept residue by residue), in time
polynomial in deg f and log p, with multiplicities by exact deflation.  The
roots over ℚ (p-adic lifting) and the squarefree part (a primitive remainder
sequence) live in :mod:`leavitt.rationals`, which ℚ imports on first use
(``Field._rationals``): work over 𝔽p loads neither it nor ``fractions``.
Over ℚ a θ is put in primitive integer form once, and degree 1 needs none.
There is deliberately no general polynomial factorization here.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

from .errors import (
    ConstantPolynomialError,
    DivisionByZeroError,
    FieldMismatchError,
    InternalConsistencyError,
    ZeroConstantTermError,
    ZeroPolynomialError,
)
from .records import record
from .scalars import Field  # re-exported

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = Fraction | int


@record
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


@record
class RootMultiset:
    """Roots found in the field, with multiplicities, plus the rootless leftover degree."""

    roots: tuple[tuple[Scalar, int], ...]
    unfactored_degree: int

    def multiplicity(self, r) -> int:
        for root, m in self.roots:
            if root == r:
                return m
        return 0


@record
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


# -- root finding over 𝔽p on plain coefficient lists ----------------------------
#
# Lists are low degree first with residues in [0, p) and no trailing zero; the
# empty list is 0.  Moduli are monic.

def _trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _divmod(a: list[int], m: list[int], p: int) -> tuple[list[int], list[int]]:
    """(quotient, remainder) of a by monic m of degree ≥ 1."""
    n = len(m) - 1
    a = list(a)
    quo = [0] * max(len(a) - n, 0)
    for i in range(len(a) - 1, n - 1, -1):
        c = quo[i - n] = a[i] % p
        if c:
            for j in range(n):
                a[i - n + j] -= c * m[j]
    return quo, _trim([c % p for c in a[:n]])


def _mulmod(a: list[int], b: list[int], m: list[int], p: int) -> list[int]:
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _divmod(prod, m, p)[1]


def _powmod(base: list[int], e: int, m: list[int], p: int) -> list[int]:
    """baseᵉ mod m by left-to-right square-and-multiply."""
    result = [1]
    for bit in bin(e)[2:]:
        result = _mulmod(result, result, m, p)
        if bit == "1":
            result = _mulmod(result, base, m, p)
    return result


def _monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd; ``a`` must be monic."""
    while b:
        b = _monic(b, p)
        a, b = b, _divmod(a, b, p)[1]
    return a


def _minus_one(a: list[int], p: int) -> list[int]:
    a = a or [0]
    a[0] = (a[0] - 1) % p
    return _trim(a)


def _split_roots(f: list[int], p: int) -> list[int]:
    """The distinct roots of f in 𝔽p, for monic f with f(0) ≠ 0.

    g = gcd(f, x^(p−1) − 1) is the product of the x − r; Cantor–Zassenhaus
    splits it with gcd(g, (x + a)^((p−1)/2) − 1) for a = 0, 1, 2, …, which
    keeps the result deterministic.  p = 2 never reaches the splitting: its
    only nonzero residue is 1, so deg g ≤ 1.
    """
    if len(f) == 2:
        return [-f[0] % p]
    g = _gcd(f, _minus_one(_powmod([0, 1], p - 1, f, p), p), p)
    half = (p - 1) // 2
    roots = []
    stack = [(g, 0)]
    while stack:
        h, a = stack.pop()
        if len(h) <= 2:
            if len(h) == 2:
                roots.append(-h[0] % p)
            continue
        while True:
            if a == p:
                raise InternalConsistencyError(f"no residue splits {h} over F{p}")
            u = _gcd(h, _minus_one(_powmod([a, 1], half, h, p), p), p)
            a += 1
            if 2 <= len(u) < len(h):
                v, r = _divmod(h, u, p)
                if r:
                    raise InternalConsistencyError(f"{u} does not divide {h} over F{p}")
                stack += [(u, a), (v, a)]
                break
    return sorted(roots)


def _synthetic_division(f: list[int], r: int, p: int) -> tuple[list[int], int]:
    """(quotient, remainder) of f by (x − r); the remainder is f(r).

    The same division as ``_divmod(f, [-r % p, 1], p)``, which runs the sweep
    of small fields 2–5× slower.
    """
    out = []
    acc = 0
    for c in reversed(f):
        acc = (acc * r + c) % p
        out.append(acc)
    remainder = out.pop()
    out.reverse()
    return out, remainder


def _roots_mod_p(coeffs: tuple[int, ...], p: int) -> tuple[list[tuple[int, int]], int]:
    """(roots ascending with multiplicities, unfactored degree) of a nonzero f over 𝔽p."""
    k = next(i for i, c in enumerate(coeffs) if c)
    rem = list(coeffs[k:])
    roots = [(0, k)] if k else []
    if len(rem) == 1:
        return roots, 0
    d = len(rem) - 1
    # Measured for 2 ≤ d ≤ 8, sweeping and splitting cost the same near
    # p ≈ 250–300 for d = 2 and 3, rising to p ≈ 500 for d = 8.  Fields with
    # p ≤ 32·bit_length(p) (every p < 288) are swept: the lower end of that
    # band, where degrees 2 and 3 cross.  Degree 1 needs neither.
    sweep = d > 1 and p <= 32 * p.bit_length()
    candidates = range(1, p) if sweep else _split_roots(_monic(rem, p), p)
    for a in candidates:
        m = 0
        while len(rem) > 1:
            quotient, remainder = _synthetic_division(rem, a, p)
            if remainder:
                break
            rem = quotient
            m += 1
        if m:
            roots.append((a, m))
        elif not sweep:
            raise InternalConsistencyError(f"split root {a} does not divide out over F{p}")
        if len(rem) == 1:
            break
    return roots, len(rem) - 1


def find_roots(f: Polynomial) -> RootMultiset:
    """All roots of f in its coefficient field, with multiplicities by deflation."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot find roots of the zero polynomial")
    if f.field.is_prime_field:
        roots, unfactored = _roots_mod_p(f.coeffs, f.field.p)
    else:
        roots, unfactored = f.field._rationals.roots(f.coeffs)
    return RootMultiset(tuple(roots), unfactored)


def _verdict(roots, unfactored: int) -> DlfVerdict:
    """The dlf verdict on (root, multiplicity) pairs and an unfactored degree."""
    repeated = next((r for r, m in roots if m > 1), None)
    if repeated is not None or unfactored:
        return DlfVerdict(False, (), repeated, unfactored)  # by position: no keyword binding
    return DlfVerdict(True, tuple(r for r, _ in roots), None, 0)


def is_dlf(f: Polynomial) -> DlfVerdict:
    """True iff f is a product of pairwise distinct linear factors over its field."""
    if f.is_zero:
        raise ZeroPolynomialError("dlf test needs a nonzero polynomial")
    if f.degree < 1:
        raise ConstantPolynomialError("dlf test needs degree >= 1")
    rm = find_roots(f)
    return _verdict(rm.roots, rm.unfactored_degree)


def _pth_root(f: Polynomial) -> Polynomial:
    """Inverse Frobenius for f = h(xᵖ) over 𝔽p (coefficientwise, since aᵖ = a)."""
    p = f.field.p
    if p is None or any(c != 0 for i, c in enumerate(f.coeffs) if i % p):
        raise InternalConsistencyError(f"{f!r} is not a p-th power over its field")
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
    return _squarefree_part(f)[0]


def squarefree_verdict(f: Polynomial) -> tuple[Polynomial, DlfVerdict]:
    """The squarefree part g of f and is_dlf(g), over ℚ from one integer form."""
    g, form = _squarefree_part(f)
    return g, _verdict(*f.field._rationals.form_roots(form)) if form else is_dlf(g)


def _squarefree_part(f: Polynomial) -> tuple[Polynomial, list[int] | None]:
    if f.is_zero or f.degree < 1:
        raise ConstantPolynomialError("squarefree part needs degree >= 1")
    if f.constant_term == 0:
        raise ZeroConstantTermError("squarefree part needs f(0) != 0")
    if f.field.is_prime_field:
        g = _radical(f)
        return g.scale(f.field.inv(g.constant_term)), None
    coeffs, form = f.field._rationals.squarefree(f.coeffs)  # f / gcd(f, f′), its form
    return Polynomial(f.field, tuple(coeffs)), form

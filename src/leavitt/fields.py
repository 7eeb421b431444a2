"""Exact scalar and polynomial arithmetic over ℚ and 𝔽p.

Scalars are plain Python values: ``fractions.Fraction`` over the rationals
(always in lowest terms with positive denominator) and ``int`` residues in
``[0, p)`` over a prime field.  A :class:`Field` value carries the choice of
field and performs all scalar arithmetic, parsing and printing.

Polynomials are dense coefficient tuples, low degree first, with a nonzero
trailing coefficient; the empty tuple is the zero polynomial.  Laurent
elements are sparse maps from (possibly negative) integer exponents to
nonzero scalars.  Everything is immutable and safe to share.

Over 𝔽p, roots come from g = gcd(f, xᵖ − x), computed by square-and-multiply
modulo f, which Cantor–Zassenhaus equal-degree splitting breaks into its
linear factors; fields too small to repay that are swept residue by residue.
Either way the cost is polynomial in deg f and log p, and every multiplicity
is read by exact deflation.  Over ℚ, the roots of the primitive integer form
modulo a small prime are Newton-lifted p-adically until a bound on a·r
(a the leading coefficient) fixes each candidate, and multiplicities are again
read by exact deflation, all on plain integer lists; the cost is polynomial in
deg f and the coefficients' bit size (Loos 1983).  The squarefree part over ℚ
is f / gcd(f, f′) by a primitive remainder sequence on the same integer form.
There is deliberately no general polynomial factorization here.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, Union

from .errors import (
    ConstantPolynomialError,
    DivisionByZeroError,
    FieldMismatchError,
    InternalConsistencyError,
    NotCoprimeError,
    ProductMismatchError,
    UnitElementError,
    ZeroConstantTermError,
    ZeroElementError,
    ZeroPolynomialError,
)
from .records import record

Scalar = Union[Fraction, int]

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")

#: Miller–Rabin with the first thirteen prime bases 2, 3, …, 41 is proven
#: correct for every n below this bound (Sorenson & Webster 2015; OEIS A014233);
#: larger characteristics are refused.
MILLER_RABIN_BOUND = 3_317_044_064_679_887_385_961_981
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(n: int) -> bool:
    """Deterministic Miller–Rabin; exact for n < MILLER_RABIN_BOUND."""
    if n < 2:
        return False
    for q in _MILLER_RABIN_BASES:
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MILLER_RABIN_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@record
class Field:
    """The coefficient field: ℚ when ``p`` is None, 𝔽p otherwise."""

    p: int | None = None

    def __post_init__(self):
        if self.p is None:
            return
        if self.p >= MILLER_RABIN_BOUND:
            raise ValueError(
                f"characteristic {self.p} is not below {MILLER_RABIN_BOUND}, "
                "the bound up to which primality is decided")
        if not _is_prime(self.p):
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
        if text.startswith("F") and text[1:].isascii() and text[1:].isdigit():
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

    # -- text form ---------------------------------------------------------

    def parse_scalar(self, token: str) -> Scalar:
        """Parse ``a`` or ``a/b`` over ℚ, a decimal residue in [0, p) over 𝔽p.

        Over ℚ, ``a`` is ASCII ``[+-]?digits`` and ``b`` is ASCII digits, so a
        coefficient has no more digits than its token (no ``1e4000``).
        """
        if self.p is None:
            if not _RATIONAL.fullmatch(token):
                raise ValueError(f"bad rational {token!r}: expected a or a/b in decimal digits")
            try:
                return Fraction(token)
            except (ValueError, ZeroDivisionError) as exc:
                raise ValueError(f"bad rational {token!r}: {exc}") from None
        if not (token.isascii() and token.isdigit()):
            raise ValueError(f"bad residue {token!r}: expected a decimal integer in [0, {self.p})")
        value = int(token)
        if not 0 <= value < self.p:
            raise ValueError(f"residue {value} out of range [0, {self.p})")
        return value

    def format_scalar(self, x: Scalar) -> str:
        return str(x)

    def __repr__(self):
        return f"Field({self.header()})"


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


# -- rational roots by p-adic lifting on integer coefficient lists ---------------
#
# Lists are low degree first with no trailing zero, as above, but hold
# arbitrary integers.

#: Primes at which the roots of f mod p must all be simple before the exact
#: squarefree part of f is taken instead; only a repeated rational root (or
#: roots that collide modulo every one of these primes) costs that gcd.
LIFTING_PRIME_TRIES = 8


def _primitive(coeffs: Iterable[int]) -> list[int]:
    """The coefficients divided by their content, with a positive leading one."""
    coeffs = list(coeffs)
    content = gcd(*coeffs)
    if coeffs[-1] < 0:
        content = -content
    return [c // content for c in coeffs]


def _integer_form(coeffs: Iterable[Fraction]) -> list[int]:
    """The primitive integer multiple of a list of rationals (see _primitive)."""
    coeffs = list(coeffs)
    denom = lcm(*(c.denominator for c in coeffs))
    return _primitive(c.numerator * (denom // c.denominator) for c in coeffs)


def _exact_quotient(f: list[int], d: list[int]) -> list[int]:
    """f / d over ℤ; fails loudly unless d divides f with an integer quotient."""
    rem = list(f)
    n = len(d) - 1
    quo = [0] * (len(f) - n)
    for i in range(len(quo) - 1, -1, -1):
        c, r = divmod(rem[i + n], d[-1])
        if r:
            raise InternalConsistencyError(f"{d} does not divide {f} over Z")
        quo[i] = c
        for j in range(n):
            rem[i + j] -= c * d[j]
    if any(rem[:n]):
        raise InternalConsistencyError(f"{d} does not divide {f} over Z")
    return quo


def _squarefree(f: list[int]) -> list[int]:
    """f / gcd(f, f′) for primitive f, by the primitive remainder sequence."""
    a, b = f, _primitive([i * c for i, c in enumerate(f)][1:])
    while len(b) > 1:
        r = list(a)
        while len(r) >= len(b):
            c, shift = r[-1], len(r) - len(b)
            r = [x * b[-1] for x in r]
            for j, y in enumerate(b):
                r[shift + j] -= c * y
            _trim(r)
        a, b = b, _primitive(r) if r else []
    return f if b else _exact_quotient(f, a)


def _vanishes(f: list[int], u: int, v: int) -> bool:
    """f(u/v) = 0, by Horner on the homogeneous form Σ fᵢ uⁱ v^(n−i)."""
    acc, w = 0, 1
    for c in reversed(f):
        acc = acc * u + c * w
        w *= v
    return acc == 0


def _lift(g: list[int], r: int, p: int, bound: int) -> tuple[int, int]:
    """(root, pᵏ): a simple root r of g mod p Newton-lifted until pᵏ > bound."""
    m = p
    while m <= bound:
        m *= m
        val = der = 0
        for c in reversed(g):
            der = (der * r + val) % m
            val = (val * r + c) % m
        r = (r - val * pow(der, -1, m)) % m
    return r, m


def _root_candidates(f: list[int]) -> list[Fraction]:
    """Candidates covering every rational root of a primitive f.

    Degree 1 is answered directly.  Otherwise take the first prime p ∤ a = lc(f)
    at which f's roots mod p are all simple (after LIFTING_PRIME_TRIES
    failures, those of the exact squarefree part g, which has finitely many
    bad primes); each lifts to a unique p-adic root r.  A rational root u/v
    has v | a, so y = a·u/v is an integer with |y| ≤ B = |a| + max|fᵢ|
    (Cauchy), read off as the symmetric residue of a·r mod pᵏ > 2B.  Roots
    mod p that come from no rational root give candidates at which f does
    not vanish.
    """
    if len(f) <= 2:
        return [Fraction(-f[0], f[1])] if len(f) == 2 else []
    a, g = f[-1], f
    primes = (n for n in itertools.count(2) if _is_prime(n) and a % n)
    for tries, p in enumerate(primes):
        if tries == LIFTING_PRIME_TRIES:
            g = _squarefree(f)
        residues, _ = _roots_mod_p(tuple(c % p for c in g), p)
        if all(m == 1 for _, m in residues):
            break
    bound = 2 * (abs(a) + max(map(abs, f)))
    out = []
    for r, _ in residues:
        r, m = _lift(g, r, p, bound)
        y = a * r % m
        out.append(Fraction(y - m if 2 * y > m else y, a))
    return out


def find_roots(f: Polynomial) -> RootMultiset:
    """All roots of f in its coefficient field, with multiplicities by deflation."""
    if f.is_zero:
        raise ZeroPolynomialError("cannot find roots of the zero polynomial")
    field = f.field
    if field.is_prime_field:
        roots, unfactored = _roots_mod_p(f.coeffs, field.p)
        return RootMultiset(tuple(roots), unfactored)

    # over Q: strip x^k, pass to the primitive integer form, lift its roots
    # mod p to rational candidates, then deflate while a candidate is a root
    k = next(i for i, c in enumerate(f.coeffs) if c)
    roots = [(Fraction(0), k)] if k else []
    rem = _integer_form(f.coeffs[k:])
    for root in _root_candidates(rem):
        u, v, m = root.numerator, root.denominator, 0
        while len(rem) > 1 and _vanishes(rem, u, v):
            rem = _exact_quotient(rem, [-u, v])
            m += 1
        if m:
            roots.append((root, m))
    roots.sort(key=lambda rm: rm[0])
    return RootMultiset(tuple(roots), len(rem) - 1)


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
    if f.is_zero or f.degree < 1:
        raise ConstantPolynomialError("squarefree part needs degree >= 1")
    if f.constant_term == 0:
        raise ZeroConstantTermError("squarefree part needs f(0) != 0")
    if f.field.is_prime_field:
        g = _radical(f)
        return g.scale(f.field.inv(g.constant_term))
    # over Q (characteristic 0) the radical is f / gcd(f, f′), taken on the
    # primitive integer form; g(0) ≠ 0 because f(0) ≠ 0
    g = _squarefree(_integer_form(f.coeffs))
    return Polynomial.of(f.field, [Fraction(c, g[0]) for c in g])


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

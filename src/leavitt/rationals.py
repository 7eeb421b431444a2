"""Arithmetic over ℚ: the rational half of :mod:`leavitt.fields`.

Scalars over ℚ are ``fractions.Fraction`` values, always in lowest terms with
a positive denominator.  :class:`~leavitt.scalars.Field` and the root and
squarefree functions of ``fields`` import this module inside their ℚ branches
only, so a computation over 𝔽p loads neither it nor ``fractions`` (and with
it ``decimal`` and ``numbers``).

Roots: the roots of the primitive integer form modulo a small prime are
Newton-lifted p-adically until a bound on a·r (a the leading coefficient)
fixes each candidate, and multiplicities are read by exact deflation, all on
plain integer lists; the cost is polynomial in the degree and the
coefficients' bit size (Loos 1983).  The squarefree part is f / gcd(f, f′)
by a primitive remainder sequence on the same integer form.
"""

from __future__ import annotations

import itertools
import re
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable

from . import fields, scalars
from .errors import FieldMismatchError, InternalConsistencyError

ZERO = Fraction(0)
ONE = Fraction(1)

_RATIONAL = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")


def coerce(x) -> Fraction:
    """An int or Fraction as a Fraction; anything else (bool included) is refused."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise FieldMismatchError(f"cannot coerce {x!r} into Q")


def inverse(a) -> Fraction:
    return 1 / Fraction(a)


def parse(token: str) -> Fraction:
    """:meth:`~leavitt.fields.Field.parse_scalar` over ℚ."""
    if not _RATIONAL.fullmatch(token):
        raise ValueError(f"bad rational {token!r}: expected a or a/b in decimal digits")
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {token!r}: {exc}") from None


# -- roots by p-adic lifting on integer coefficient lists -------------------------
#
# Lists are low degree first with no trailing zero, as in fields, but hold
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
            fields._trim(r)
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
    primes = (n for n in itertools.count(2) if scalars._is_prime(n) and a % n)
    for tries, p in enumerate(primes):
        if tries == LIFTING_PRIME_TRIES:
            g = _squarefree(f)
        residues, _ = fields._roots_mod_p(tuple(c % p for c in g), p)
        if all(m == 1 for _, m in residues):
            break
    bound = 2 * (abs(a) + max(map(abs, f)))
    out = []
    for r, _ in residues:
        r, m = _lift(g, r, p, bound)
        y = a * r % m
        out.append(Fraction(y - m if 2 * y > m else y, a))
    return out


def roots(coeffs: tuple[Fraction, ...]) -> tuple[list[tuple[Fraction, int]], int]:
    """(roots ascending with multiplicities, unfactored degree) of a nonzero f over ℚ.

    Strips xᵏ, passes to the primitive integer form, lifts its roots mod p
    to rational candidates, then deflates while a candidate is a root.
    """
    k = next(i for i, c in enumerate(coeffs) if c)
    found = [(ZERO, k)] if k else []
    rem = _integer_form(coeffs[k:])
    for root in _root_candidates(rem):
        u, v, m = root.numerator, root.denominator, 0
        while len(rem) > 1 and _vanishes(rem, u, v):
            rem = _exact_quotient(rem, [-u, v])
            m += 1
        if m:
            found.append((root, m))
    found.sort(key=lambda rm: rm[0])
    return found, len(rem) - 1


def squarefree(coeffs: tuple[Fraction, ...]) -> list[Fraction]:
    """f / gcd(f, f′) scaled to constant term 1, for f with f(0) ≠ 0 (so g(0) ≠ 0)."""
    g = _squarefree(_integer_form(coeffs))
    return [Fraction(c, g[0]) for c in g]

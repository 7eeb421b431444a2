"""Arithmetic over ℚ: the rational half of :mod:`leavitt.fields`.

Scalars are ``fractions.Fraction`` values in lowest terms; a ℚ
:class:`~leavitt.scalars.Field` imports this module on its first scalar
operation, so work over 𝔽p loads neither it nor ``fractions``.  An ideal
file's token is checked and read once, into the Fraction of its integers
(:func:`parse`).  A θ of degree 1 is read off its coefficients; any other is
put in primitive integer form once, whose roots mod a small prime are
Newton-lifted p-adically (Loos 1983) and whose squarefree part comes from a
primitive remainder sequence, all on integer lists.
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

_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def coerce(x) -> Fraction:
    """An int or Fraction as a Fraction; anything else (bool included) is refused."""
    if isinstance(x, (int, Fraction)) and not isinstance(x, bool):
        return Fraction(x)
    raise FieldMismatchError(f"cannot coerce {x!r} into Q")


def parse(token: str) -> Fraction:
    """:meth:`~leavitt.fields.Field.parse_scalar` over ℚ: the token's one match
    gives its integers, and the Fraction is made from them in lowest terms."""
    match = _RATIONAL.fullmatch(token)
    if match is None:
        raise ValueError(f"bad rational {token!r}: expected a or a/b in decimal digits")
    num, den = match.groups()
    try:  # int() refuses more than 4,300 digits, and Fraction a zero denominator
        return Fraction(int(num), int(den)) if den else Fraction(int(num))
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"bad rational {token!r}: {exc}") from None


# -- roots by p-adic lifting on integer lists, low degree first, no trailing zero --

#: Primes at which the roots of f mod p must all be simple before the exact
#: squarefree part of f is taken instead; only a repeated rational root (or
#: roots that collide modulo every one of these primes) costs that gcd.
LIFTING_PRIME_TRIES = 8


def _primitive(coeffs: Iterable[int]) -> list[int]:
    """The coefficients divided by their content, with a positive leading one."""
    coeffs = list(coeffs)
    content = gcd(*coeffs) if coeffs[-1] > 0 else -gcd(*coeffs)
    return [c // content for c in coeffs]


def _integer_form(coeffs: Iterable[Fraction]) -> list[int]:
    """The primitive integer multiple of a list of rationals (see _primitive)."""
    coeffs = list(coeffs)
    denom = lcm(*(c.denominator for c in coeffs))
    return _primitive(c.numerator * (denom // c.denominator) for c in coeffs)


def _exact_quotient(f: list[int], d: list[int]) -> list[int]:
    """f / d over ℤ; fails loudly unless d divides f with an integer quotient."""
    rem, n = list(f), len(d) - 1
    quo = [0] * (len(f) - n)
    for i in range(len(quo) - 1, -1, -1):
        quo[i], r = divmod(rem[i + n], d[-1])
        if r:
            raise InternalConsistencyError(f"{d} does not divide {f} over Z")
        for j in range(n):
            rem[i + j] -= quo[i] * d[j]
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


def _at(g: list[int], r: int, m: int) -> tuple[int, int]:
    """(g(r), g′(r)) mod m, in one Horner pass."""
    val = der = 0
    for c in reversed(g):
        der = (der * r + val) % m
        val = (val * r + c) % m
    return val, der


def _lift(g: list[int], r: int, p: int, bound: int) -> tuple[int, int]:
    """(root, pᵏ): a simple root r of g mod p Newton-lifted until pᵏ > bound."""
    m = p
    while m <= bound:
        m *= m
        val, der = _at(g, r, m)
        r = (r - val * pow(der, -1, m)) % m
    return r, m


def _root_candidates(f: list[int]) -> list[tuple[int, int]]:
    """Coprime (u, v), v > 0, covering every rational root u/v of a primitive f.

    At the first prime p ∤ a = lc(f) where f's roots mod p are all simple (or,
    after LIFTING_PRIME_TRIES failures, those of the squarefree part g), each
    lifts to a p-adic root r.  A rational root u/v has v | a, so y = a·u/v is
    an integer with |y| ≤ B = |a| + max|fᵢ| (Cauchy): the symmetric residue
    of a·r mod pᵏ > 2B.  A root mod p from no rational root gives a candidate
    at which f does not vanish.  The residues are swept: every prime tried
    but the last divides a or disc(g), or is among the first tries, so p
    stays polynomial in the bit size.
    """
    if len(f) <= 2:
        return [(-f[0], f[1])] if len(f) == 2 else []
    a, g = f[-1], f
    primes = (n for n in itertools.count(2) if a % n and scalars._is_prime(n))
    for tries, p in enumerate(primes):
        if tries == LIFTING_PRIME_TRIES:
            g = _squarefree(f)
        at = [_at(g, r, p) for r in range(p)]
        residues = [r for r, (val, _) in enumerate(at) if not val]
        if all(at[r][1] for r in residues):
            break
    bound = 2 * (abs(a) + max(map(abs, f)))
    out = []
    for r in residues:
        r, m = _lift(g, r, p, bound)
        y = a * r % m
        y = y - m if 2 * y > m else y
        d = gcd(y, a)
        out.append((y // d, a // d))
    return out


def roots(coeffs: tuple[Fraction, ...]) -> tuple[list[tuple[Fraction, int]], int]:
    """(roots ascending with multiplicities, unfactored degree) of a nonzero f over ℚ:
    for degree > 1, strip xᵏ and take those of the integer form (:func:`form_roots`)."""
    if len(coeffs) == 2:
        return [(-coeffs[0] / coeffs[1], 1)], 0
    k = next(i for i, c in enumerate(coeffs) if c)
    return form_roots(_integer_form(coeffs[k:]), k)


def form_roots(rem: list[int], k: int = 0) -> tuple[list[tuple[Fraction, int]], int]:
    """:func:`roots` of xᵏ times a primitive integer form with a nonzero constant
    term: its roots mod p lift to candidates, each deflated while it is a root,
    ordered by a·u/v (a the leading coefficient) before any Fraction is made."""
    a, found = rem[-1], [(0, 0, 1, k)] if k else []
    for u, v in _root_candidates(rem):
        m = 0
        while len(rem) > 1 and _vanishes(rem, u, v):
            rem = _exact_quotient(rem, [-u, v])
            m += 1
        if m:
            found.append((u * (a // v), u, v, m))
    found.sort()
    return [(Fraction(u, v), m) for _, u, v, m in found], len(rem) - 1


def squarefree(coeffs: tuple[Fraction, ...]) -> tuple[list[Fraction], list[int] | None]:
    """f / gcd(f, f′) scaled to constant term 1, for f(0) ≠ 0, and the primitive
    integer form it came from (None at degree 1, where the part is f itself)."""
    if len(coeffs) == 2:
        return [ONE, coeffs[1] / coeffs[0]], None
    g = _squarefree(_integer_form(coeffs))
    return [Fraction(c, g[0]) for c in g], g

"""The coefficient field of an ideal: :class:`Field`, ℚ or 𝔽p.

A field is chosen by a header token, ``Q`` or ``F<p>``, and carries all
scalar arithmetic, parsing and printing: ``int`` residues in ``[0, p)`` over
a prime field, ``fractions.Fraction`` over the rationals.  A characteristic
is accepted only if it is prime, which deterministic Miller–Rabin decides
below :data:`MILLER_RABIN_BOUND`.  This module holds no polynomial code, so
reading ``--field F<p>`` compiles none; :mod:`leavitt.fields` re-exports
:class:`Field`.  ℚ imports :mod:`leavitt.rationals` on its first scalar
operation and keeps it (``Field._rationals``), so work over 𝔽p, or over ℚ
with no scalar, loads neither it nor ``fractions``, and no ℚ operation runs
an import statement.
"""

from __future__ import annotations

import sys
from typing import TYPE_CHECKING

from .errors import DivisionByZeroError, FieldMismatchError
from .records import record

if TYPE_CHECKING:
    from fractions import Fraction

    Scalar = Fraction | int


def _is_fraction(x) -> bool:
    """isinstance(x, Fraction) without importing fractions: until something
    has loaded it, no Fraction exists."""
    fractions = sys.modules.get("fractions")
    return fractions is not None and isinstance(x, fractions.Fraction)


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
    def _rationals(self):
        """:mod:`leavitt.rationals`, imported on first use and then kept on the class."""
        from . import rationals
        type(self)._rationals = rationals  # no instance state, so a Field still pickles
        return rationals

    @property
    def is_prime_field(self) -> bool:
        return self.p is not None

    def header(self) -> str:
        return "Q" if self.p is None else f"F{self.p}"

    # -- scalar arithmetic ------------------------------------------------

    @property
    def zero(self) -> Scalar:
        return 0 if self.p is not None else self._rationals.ZERO

    @property
    def one(self) -> Scalar:
        return 1 if self.p is not None else self._rationals.ONE

    def coerce(self, x) -> Scalar:
        """Normalize an int/Fraction (or a scalar from another field) into this field."""
        if self.p is None:
            return self._rationals.coerce(x)
        if isinstance(x, bool):
            raise FieldMismatchError(f"cannot coerce {x!r} into F{self.p}")
        if isinstance(x, int):
            return x % self.p
        if _is_fraction(x):
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
            return self._rationals.ONE / a
        return pow(a, self.p - 2, self.p)

    # -- text form ---------------------------------------------------------

    def parse_scalar(self, token: str) -> Scalar:
        """Parse ``a`` or ``a/b`` over ℚ, a decimal residue in [0, p) over 𝔽p.

        Over ℚ, ``a`` is ASCII ``[+-]?digits`` and ``b`` is ASCII digits, so a
        coefficient has no more digits than its token (no ``1e4000``).
        """
        if self.p is None:
            return self._rationals.parse(token)
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

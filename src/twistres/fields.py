"""Exact scalar arithmetic: rationals and odd prime fields.

A coefficient over Q is a Python ``int`` while it is integral and a
``fractions.Fraction`` once a division leaves a remainder; over GF(p) it is
an ``Fp``.  An ``Fp`` is immutable and shared: each modulus has one table,
filled on first use with the residues actually produced, and ``Fp(v, p)``
returns that table's element for ``v % p``; an operation on two residues is
``int`` arithmetic on their values and one lookup in the table.  All of them
support ``+ - *``, compare against ``int`` zero and one, and hash
consistently with ``==``, so all higher layers stay field-agnostic.  Division goes only through the field (``div``/``inv``),
never through ``/``: on two ``int`` coefficients ``/`` would give a float.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from fractions import Fraction

from .errors import FieldError


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


class _Residues(dict):
    """The shared elements of GF(p), keyed by residue and made on first use."""

    __slots__ = ("p",)

    def __init__(self, p):
        super().__init__()
        self.p = p

    def __missing__(self, v):
        x = object.__new__(Fp)
        object.__setattr__(x, "v", v)
        object.__setattr__(x, "p", self.p)
        object.__setattr__(x, "_residues", self)
        self[v] = x
        return x


# modulus -> its _Residues, for the whole process: the elements are
# immutable, so every caller can share them
_RESIDUES = {}


class Fp:
    """Element of the prime field GF(p): one shared, immutable object per
    residue, so ``Fp(7, 5) is Fp(2, 5)``."""

    __slots__ = ("v", "p", "_residues")

    def __new__(cls, v: int, p: int):
        residues = _RESIDUES.get(p)
        if residues is None:
            residues = _RESIDUES[p] = _Residues(p)
        return residues[v % p]

    def __setattr__(self, name, value):
        raise AttributeError("GF(p) elements are immutable")

    def __delattr__(self, name):
        raise AttributeError("GF(p) elements are immutable")

    def __reduce__(self):
        return Fp, (self.v, self.p)

    def _coerce(self, other):
        # called only when other is not an Fp of this modulus
        if isinstance(other, Fp):
            raise FieldError(f"mixed moduli {self.p} and {other.p}")
        if isinstance(other, int):
            return self._residues[other % self.p]
        return None

    def __add__(self, other):
        if other.__class__ is not Fp or other._residues is not self._residues:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._residues[(self.v + other.v) % self.p]

    __radd__ = __add__

    def __sub__(self, other):
        if other.__class__ is not Fp or other._residues is not self._residues:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._residues[(self.v - other.v) % self.p]

    def __rsub__(self, other):
        if other.__class__ is not Fp or other._residues is not self._residues:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._residues[(other.v - self.v) % self.p]

    def __mul__(self, other):
        if other.__class__ is not Fp or other._residues is not self._residues:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._residues[self.v * other.v % self.p]

    __rmul__ = __mul__

    def __truediv__(self, other):
        if other.__class__ is not Fp or other._residues is not self._residues:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._residues[self.v * _inverse(other.v, self.p) % self.p]

    def __rtruediv__(self, other):
        if other.__class__ is not Fp or other._residues is not self._residues:
            other = self._coerce(other)
            if other is None:
                return NotImplemented
        return self._residues[other.v * _inverse(self.v, self.p) % self.p]

    def __neg__(self):
        return self._residues[-self.v % self.p]

    def __pow__(self, k: int):
        return self._residues[pow(self.v, k, self.p)]

    def __eq__(self, other):
        if isinstance(other, Fp):
            return self.p == other.p and self.v == other.v
        if isinstance(other, int):
            return self.v == other % self.p
        return NotImplemented

    def __bool__(self):
        return self.v != 0

    def __hash__(self):
        # equal to the hash of the int it compares equal to
        return hash(self.v)

    def __repr__(self):
        return f"{self.v}"


def _inverse(v, p):
    """The inverse of the residue v mod p; ZeroDivisionError when v is 0."""
    if v == 0:
        raise ZeroDivisionError("division by zero in GF(p)")
    return pow(v, -1, p)


@dataclass(frozen=True)
class Rationals:
    """The rational numbers: ``int`` where integral, ``Fraction`` otherwise."""

    characteristic: int = 0
    zero = 0
    one = 1

    @property
    def name(self):
        return "Q"

    def from_int(self, n: int):
        return n

    def parse(self, text: str):
        try:
            return _integral(Fraction(str(text).strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def div(self, a, b):
        """a / b, an ``int`` when integral; ZeroDivisionError when b is 0."""
        if a.__class__ is int and b.__class__ is int and a % b == 0:
            return a // b
        return _integral(Fraction(a, b))

    def inv(self, a):
        return self.div(1, a)

    def format(self, c) -> str:
        return str(c)


def _integral(q: Fraction):
    return q.numerator if q.denominator == 1 else q


@dataclass(frozen=True)
class PrimeField:
    """GF(p) for an odd prime p; characteristic 2 is rejected."""

    p: int
    zero: Fp = field(init=False, repr=False, compare=False)
    one: Fp = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
        if self.p == 2:
            raise FieldError("characteristic 2 is not supported")
        object.__setattr__(self, "zero", Fp(0, self.p))
        object.__setattr__(self, "one", Fp(1, self.p))

    @property
    def characteristic(self):
        return self.p

    @property
    def name(self):
        return f"F{self.p}"

    def from_int(self, n: int):
        return Fp(n, self.p)

    def div(self, a, b):
        """a / b; ZeroDivisionError when b is 0."""
        return a * self.inv(b)

    def inv(self, a):
        v = a.v if isinstance(a, Fp) else a % self.p
        return Fp(_inverse(v, self.p), self.p)

    def parse(self, text: str):
        text = str(text).strip()
        if "/" in text:
            num, den = text.split("/", 1)
            return self.div(self.from_int(int(num)), self.from_int(int(den)))
        try:
            return self.from_int(int(text))
        except ValueError as exc:
            raise FieldError(f"bad GF({self.p}) literal {text!r}") from exc

    def format(self, c) -> str:
        return str(c.v)


def field_of(c) -> Rationals | PrimeField:
    """The field a stored coefficient lives in: GF(p) for an ``Fp``, else Q."""
    return _prime_field(c.p) if isinstance(c, Fp) else Rationals()


@functools.cache
def _prime_field(p):
    return PrimeField(p)


def field_from_name(name) -> Rationals | PrimeField:
    """Parse a field descriptor: ``"Q"``, ``"F5"``, ``5``, or ``{"prime": 5}``."""
    if isinstance(name, (Rationals, PrimeField)):
        return name
    if isinstance(name, dict) and type(name.get("prime")) is int:
        return PrimeField(name["prime"])
    if isinstance(name, int):
        return PrimeField(name)
    text = str(name).strip().upper()
    if text in ("Q", "QQ", "RATIONAL", "RATIONALS", "0"):
        return Rationals()
    digits = text.lstrip("GF").strip("()") if text.startswith(("F", "GF")) else text
    if digits.isdecimal():
        return PrimeField(int(digits))
    raise FieldError(f"unknown field {name!r}")

"""Exact scalar arithmetic: rationals and odd prime fields.

A coefficient over Q is a Python ``int`` while it is integral and a
``fractions.Fraction`` once a division leaves a remainder; over GF(p) it is
an ``Fp``.  ``fractions`` is imported only where Q makes its first
``Fraction`` (``Rationals.parse``, or a division that leaves a remainder),
so a process that works over GF(p) alone never loads it.  An ``Fp`` is
immutable and shared: each modulus has one table, filled on first use with
the residues actually produced, and ``Fp(v, p)`` returns that table's
element for ``v % p``; an operation on two residues is ``int`` arithmetic
on their values and one lookup in the table.  All of them support
``+ - *``, compare against ``int`` zero and one, and hash consistently with
``==``, so all higher layers stay field-agnostic.  Division goes only
through the field (``div``/``inv``), never through ``/``: on two ``int``
coefficients ``/`` would give a float.

The fields themselves are immutable values with ``__slots__``, and
``field_from_name`` reads the descriptors of the instance format.
"""

from __future__ import annotations

import functools
import re

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


class Rationals:
    """The rational numbers: ``int`` where integral, ``Fraction`` otherwise.

    Immutable, and all instances are equal."""

    __slots__ = ()
    characteristic = 0
    zero = 0
    one = 1

    def __eq__(self, other):
        return other.__class__ is Rationals or NotImplemented

    def __hash__(self):
        return hash(Rationals)

    @property
    def name(self):
        return "Q"

    def from_int(self, n: int):
        return n

    def parse(self, text: str):
        from fractions import Fraction
        try:
            return _integral(Fraction(str(text).strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def div(self, a, b):
        """a / b, an ``int`` when integral; ZeroDivisionError when b is 0."""
        if a.__class__ is int and b.__class__ is int and a % b == 0:
            return a // b
        from fractions import Fraction
        return _integral(Fraction(a, b))

    def inv(self, a):
        return self.div(1, a)

    def format(self, c) -> str:
        return str(c)


def _integral(q):
    return q.numerator if q.denominator == 1 else q


class PrimeField:
    """GF(p) for an odd prime p; characteristic 2 is rejected.

    Immutable, and equal (with equal hashes) exactly when the primes are."""

    __slots__ = ("p", "zero", "one")

    def __init__(self, p: int):
        if not is_prime(p):
            raise FieldError(f"{p} is not prime")
        if p == 2:
            raise FieldError("characteristic 2 is not supported")
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "zero", Fp(0, p))
        object.__setattr__(self, "one", Fp(1, p))

    def __setattr__(self, name, value):
        raise AttributeError("fields are immutable")

    def __delattr__(self, name):
        raise AttributeError("fields are immutable")

    def __reduce__(self):
        return PrimeField, (self.p,)

    def __eq__(self, other):
        if other.__class__ is not PrimeField:
            return NotImplemented
        return self.p == other.p

    def __hash__(self):
        return hash(self.p)

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
    """Parse a field descriptor.

    Q is ``"Q"``, ``"QQ"``, ``"RATIONAL"``, ``"RATIONALS"`` or ``"0"`` (any
    case); GF(p) is ``"F<p>"``, ``"GF<p>"``, ``"GF(<p>)"``, ``p`` as an int
    or a decimal string, or ``{"prime": p}``.  Anything else is a
    ``FieldError``.
    """
    if isinstance(name, (Rationals, PrimeField)):
        return name
    if isinstance(name, dict) and type(name.get("prime")) is int:
        return PrimeField(name["prime"])
    if isinstance(name, int):
        return PrimeField(name)
    text = str(name).strip().upper()
    if text in ("Q", "QQ", "RATIONAL", "RATIONALS", "0"):
        return Rationals()
    match = re.fullmatch(r"G?F(\d+)|GF\((\d+)\)|(\d+)", text)
    if match:
        return PrimeField(int(match[match.lastindex]))
    raise FieldError(f"unknown field {name!r}")

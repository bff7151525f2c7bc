"""Exact scalar arithmetic: rationals and odd prime fields.

A coefficient over Q is a Python ``int`` while it is integral and a
``fractions.Fraction`` once a division leaves a remainder; over GF(p) it is
an ``Fp``.  All of them support ``+ - *``, compare against ``int`` zero and
one, and hash consistently with ``==``, so all higher layers stay
field-agnostic.  Division goes only through the field (``div``/``inv``),
never through ``/``: on two ``int`` coefficients ``/`` would give a float.
"""

from __future__ import annotations

from dataclasses import dataclass
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


class Fp:
    """Element of the prime field GF(p)."""

    __slots__ = ("v", "p")

    def __init__(self, v: int, p: int):
        self.v = v % p
        self.p = p

    def _coerce(self, other):
        if isinstance(other, Fp):
            if other.p != self.p:
                raise FieldError(f"mixed moduli {self.p} and {other.p}")
            return other
        if isinstance(other, int):
            return Fp(other, self.p)
        return None

    def __add__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v + o.v, self.p)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v - o.v, self.p)

    def __rsub__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(o.v - self.v, self.p)

    def __mul__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else Fp(self.v * o.v, self.p)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is None:
            return NotImplemented
        if o.v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return Fp(self.v * pow(o.v, -1, self.p), self.p)

    def __rtruediv__(self, other):
        o = self._coerce(other)
        return NotImplemented if o is None else o.__truediv__(self)

    def __neg__(self):
        return Fp(-self.v, self.p)

    def __pow__(self, k: int):
        return Fp(pow(self.v, k, self.p), self.p)

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


@dataclass(frozen=True)
class Rationals:
    """The rational numbers: ``int`` where integral, ``Fraction`` otherwise."""

    characteristic: int = 0

    @property
    def name(self):
        return "Q"

    @property
    def zero(self):
        return 0

    @property
    def one(self):
        return 1

    def from_int(self, n: int):
        return n

    def parse(self, text: str):
        try:
            return _integral(Fraction(str(text).strip()))
        except (ValueError, ZeroDivisionError) as exc:
            raise FieldError(f"bad rational literal {text!r}") from exc

    def div(self, a, b):
        """a / b, an ``int`` when integral; ZeroDivisionError when b is 0."""
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

    def __post_init__(self):
        if not is_prime(self.p):
            raise FieldError(f"{self.p} is not prime")
        if self.p == 2:
            raise FieldError("characteristic 2 is not supported")

    @property
    def characteristic(self):
        return self.p

    @property
    def name(self):
        return f"F{self.p}"

    @property
    def zero(self):
        return Fp(0, self.p)

    @property
    def one(self):
        return Fp(1, self.p)

    def from_int(self, n: int):
        return Fp(n, self.p)

    def div(self, a, b):
        """a / b; ZeroDivisionError when b is 0."""
        return a * self.inv(b)

    def inv(self, a):
        v = a.v if isinstance(a, Fp) else a % self.p
        if v == 0:
            raise ZeroDivisionError("division by zero in GF(p)")
        return Fp(pow(v, -1, self.p), self.p)

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
    return PrimeField(c.p) if isinstance(c, Fp) else Rationals()


def field_from_name(name) -> Rationals | PrimeField:
    """Parse a field descriptor: ``"Q"``, ``"F5"``, ``5``, or ``{"prime": 5}``."""
    if isinstance(name, (Rationals, PrimeField)):
        return name
    if isinstance(name, dict):
        return PrimeField(int(name["prime"]))
    if isinstance(name, int):
        return PrimeField(name)
    text = str(name).strip()
    if text.upper() in ("Q", "QQ", "RATIONAL", "RATIONALS", "0"):
        return Rationals()
    if text.upper().startswith("F") or text.upper().startswith("GF"):
        digits = text.upper().lstrip("GF").strip("()")
        return PrimeField(int(digits))
    if text.isdigit():
        return PrimeField(int(text))
    raise FieldError(f"unknown field {name!r}")

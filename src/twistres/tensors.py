"""Tensor-word bookkeeping for terms of complexes.

A term of a complex is a direct sum of components; each component has a
signature (a tuple of slots) and a pure tensor word is a tuple holding one
word per slot.  Elements are sparse linear combinations of
``(component, word)`` pairs.  Nothing here is ever materialized as a dense
vector space; matrices are only assembled per (degree, internal degree)
block by the callers that need ranks.
"""

from __future__ import annotations

from .errors import DimensionMismatch, TwistresError
from .linalg import accumulate, accumulate_scaled, member_coords, rref


class FullSlot:
    """A tensor factor running over the whole algebra."""

    __slots__ = ("algebra",)

    def __init__(self, algebra):
        self.algebra = algebra

    def words(self, d):
        return self.algebra.basis(d)

    def degree(self, w):
        return self.algebra.degree(w)

    def contains(self, w):
        return True

    def format(self, w):
        return self.algebra.format_word(w)

    def parse(self, text):
        return self.algebra.parse_word(text)

    def label(self):
        return self.algebra.name


class ReducedSlot(FullSlot):
    """An inner tensor factor running over the non-unit basis words."""

    def words(self, d):
        return self.algebra.reduced_basis(d)

    def contains(self, w):
        return w != self.algebra.unit

    def label(self):
        return self.algebra.name + "~"


class TensorSubspace:
    """A subspace of V^(x)n with a fixed reduced-echelon basis.

    Basis vectors are stored as dicts over n-tuples of degree-1 words of the
    ambient algebra; ``coordinatize`` rewrites any such combination in the
    stored basis and refuses vectors outside the span.
    """

    __slots__ = ("algebra", "power", "label", "vwords", "_index", "basis",
                 "_echelon", "_pivots")

    def __init__(self, algebra, power, vectors, label):
        self.algebra = algebra
        self.power = power
        self.label = label
        self.vwords = tuple(tuple_power(algebra.basis(1), power))
        self._index = {w: i for i, w in enumerate(self.vwords)}
        for vec in vectors:
            for w in vec:
                if w not in self._index:
                    raise TwistresError(f"vector word {w} outside V^{power}")
        rows = [{self._index[w]: c for w, c in vec.items()} for vec in vectors]
        self._echelon, self._pivots = rref(rows, len(self.vwords))
        # words in ambient order: the basis depends on the span only
        self.basis = [{self.vwords[j]: c for j, c in sorted(row.items())}
                      for row in self._echelon]

    @property
    def dim(self):
        return len(self.basis)

    def coordinatize(self, vec):
        """Coordinates over the echelon basis; raises if outside the span."""
        keyed = {}
        for w, c in vec.items():
            j = self._index.get(w)
            if j is None:
                raise TwistresError(f"word {w} outside ambient V^{self.power}")
            keyed[j] = c
        coords = member_coords(self._echelon, self._pivots, keyed)
        if coords is None:
            raise TwistresError(f"vector not inside subspace {self.label}")
        return coords


def tuple_power(words, n):
    out = [()]
    for _ in range(n):
        out = [t + (w,) for t in out for w in words]
    return out


class SubspaceSlot:
    """A tensor factor with an abstract basis indexing a TensorSubspace."""

    __slots__ = ("space",)

    def __init__(self, space):
        self.space = space

    def words(self, d):
        if d == self.space.power:
            return tuple(range(self.space.dim))
        return ()

    def degree(self, w):
        return self.space.power

    def contains(self, w):
        return isinstance(w, int) and 0 <= w < self.space.dim

    def format(self, w):
        return f"{self.space.label}[{w}]"

    def parse(self, text):
        text = text.strip()
        prefix = f"{self.space.label}["
        if not (text.startswith(prefix) and text.endswith("]")):
            raise TwistresError(f"bad subspace word {text!r}")
        return int(text[len(prefix):-1])

    def label(self):
        return self.space.label


class Signature:
    """An ordered tuple of slots describing one component of a term."""

    __slots__ = ("slots",)

    def __init__(self, slots):
        self.slots = tuple(slots)

    def __len__(self):
        return len(self.slots)

    def degree(self, word):
        return sum(s.degree(w) for s, w in zip(self.slots, word))

    def contains(self, word):
        return len(word) == len(self.slots) and all(
            s.contains(w) for s, w in zip(self.slots, word))

    def words(self, d):
        """All pure tensor words of total internal degree d."""
        out = [((), d)]
        for slot in self.slots:
            by_degree = [slot.words(k) for k in range(d + 1)]
            new = []
            for prefix, rem in out:
                for k in range(rem + 1):
                    for w in by_degree[k]:
                        new.append((prefix + (w,), rem - k))
            out = new
        return [prefix for prefix, rem in out if rem == 0]

    def format(self, word):
        return " (x) ".join(s.format(w) for s, w in zip(self.slots, word))

    def label(self):
        return " (x) ".join(s.label() for s in self.slots)


class Term:
    """Direct sum of signature components, keyed e.g. by bidegree."""

    __slots__ = ("components", "name")

    def __init__(self, components, name=""):
        # components: list of (key, Signature); () is the key for plain terms
        self.components = tuple(components)
        self.name = name
        if len({k for k, _ in self.components}) != len(self.components):
            raise DimensionMismatch("duplicate component keys")

    def signature(self, comp):
        for k, sig in self.components:
            if k == comp:
                return sig
        raise DimensionMismatch(f"no component {comp} in term {self.name}")

    def basis(self, d):
        out = []
        for key, sig in self.components:
            out.extend((key, w) for w in sig.words(d))
        return out

    def degree(self, comp, word):
        return self.signature(comp).degree(word)

    def format(self, comp, word):
        body = self.signature(comp).format(word)
        return f"[{comp}] {body}" if comp != () else body

    def zero(self):
        return FreeElement(self)


class FreeElement:
    """Sparse combination of pure tensor words in one term of a complex."""

    __slots__ = ("term", "data")

    def __init__(self, term, data=None):
        self.term = term
        self.data = {}
        if data:
            for key, c in data.items():
                if c:
                    self.data[key] = c

    def add_term(self, comp, word, coeff):
        accumulate(self.data, (comp, word), coeff)

    def add_elt(self, other, factor=None):
        accumulate_scaled(self.data, other.data, factor)

    def __add__(self, other):
        out = FreeElement(self.term, dict(self.data))
        out.add_elt(other)
        return out

    def __sub__(self, other):
        out = FreeElement(self.term, dict(self.data))
        for (comp, word), c in other.data.items():
            out.add_term(comp, word, -c)
        return out

    def scale(self, c):
        if not c:
            return FreeElement(self.term)
        return FreeElement(self.term, {k: c * v for k, v in self.data.items()})

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        return isinstance(other, FreeElement) and self.data == other.data

    def items_sorted(self):
        return sorted(self.data.items(), key=lambda kv: kv[0])

    def __str__(self):
        if not self.data:
            return "0"
        bits = []
        for (comp, word), c in self.items_sorted():
            bits.append(f"{c} * {self.term.format(comp, word)}")
        return "  +  ".join(bits)

    __repr__ = __str__

"""Graded algebras presented by normalized basis words.

Four families share one protocol:

* ``PolynomialAlgebra`` -- commutative monomials, words are exponent tuples;
* ``GroupAlgebra``      -- structure constants from a Cayley table, degree 0;
* ``RewritingAlgebra``  -- PBW-ordered words normalized by confluent rules
  (quantum planes, enveloping algebras of small Lie algebras);
* ``TwistedProductAlgebra`` -- pairs of words multiplied through a twisting
  map, the algebra R (x)_tau S.

A word is any hashable value the owning algebra knows how to multiply,
grade, format and enumerate.  The unit word always exists and the reduced
complement of an algebra is the span of all non-unit basis words.
"""

from __future__ import annotations

import itertools
import re

from .errors import InstanceError
from .linalg import Memo, accumulate, accumulate_scaled


class AlgebraElement:
    """Sparse linear combination of basis words of one algebra."""

    __slots__ = ("algebra", "data")

    def __init__(self, algebra, data=None):
        self.algebra = algebra
        self.data = {}
        if data:
            for w, c in data.items():
                if c:
                    self.data[w] = c

    def items_sorted(self):
        alg = self.algebra
        return sorted(self.data.items(), key=lambda wc: (alg.degree(wc[0]), wc[0]))

    def is_zero(self):
        return not self.data

    def __eq__(self, other):
        return isinstance(other, AlgebraElement) and self.algebra is other.algebra \
            and self.data == other.data

    def __add__(self, other):
        out = dict(self.data)
        accumulate_scaled(out, other.data)
        return AlgebraElement(self.algebra, out)

    def __sub__(self, other):
        return self + other.scale(-self.algebra.field.one)

    def scale(self, c):
        if not c:
            return AlgebraElement(self.algebra)
        return AlgebraElement(self.algebra, {w: c * cc for w, cc in self.data.items()})

    def __mul__(self, other):
        alg = self.algebra
        out = {}
        for u, cu in self.data.items():
            for v, cv in other.data.items():
                accumulate_scaled(out, alg.mul_words(u, v), cu * cv)
        return AlgebraElement(alg, out)

    def __str__(self):
        if not self.data:
            return "0"
        alg = self.algebra
        bits = []
        for w, c in self.items_sorted():
            bits.append(f"{alg.field.format(c)}*{alg.format_word(w)}")
        return " + ".join(bits)

    __repr__ = __str__


class Algebra:
    """Shared behaviour for all basis-word families."""

    def __init__(self, field, name, max_degree):
        self.field = field
        self.name = name
        self.max_degree = max_degree

    # family API: unit, degree, mul_words, basis, format_word, parse_word,
    # split_first, strongly_graded

    def element(self, data=None):
        return AlgebraElement(self, data)

    def one(self):
        return AlgebraElement(self, {self.unit: self.field.one})

    def monomial(self, word, coeff=None):
        return AlgebraElement(self, {word: coeff if coeff is not None else self.field.one})

    def basis_upto(self, d):
        out = []
        for k in range(d + 1):
            out.extend(self.basis(k))
        return out

    def reduced_basis(self, d):
        return tuple(w for w in self.basis(d) if w != self.unit)

    def split_first(self, word):
        """Split off a leading generator: word = gen * rest, or None for atoms."""
        return None

    def __repr__(self):
        return f"{self.__class__.__name__}({self.name})"


class PolynomialAlgebra(Algebra):
    """k[x_1, ..., x_m]; words are exponent tuples, sorted-degree grading."""

    def __init__(self, field, variables, max_degree):
        super().__init__(field, "k[" + ",".join(variables) + "]", max_degree)
        self.variables = tuple(variables)
        self.nvars = len(self.variables)
        self.unit = (0,) * self.nvars
        self.strongly_graded = True
        self._mul_cache = Memo(self._product)

    def degree(self, w):
        return sum(w)

    def mul_words(self, u, v):
        return self._mul_cache[u, v]

    def _product(self, key):
        u, v = key
        return {tuple(a + b for a, b in zip(u, v)): self.field.one}

    def basis(self, d):
        if d < 0:
            return ()
        return tuple(_compositions(d, self.nvars))

    def var_word(self, i):
        return tuple(1 if j == i else 0 for j in range(self.nvars))

    def split_first(self, word):
        if sum(word) <= 1:
            return None
        for i, e in enumerate(word):
            if e:
                rest = list(word)
                rest[i] -= 1
                return self.var_word(i), tuple(rest)
        return None

    def format_word(self, w):
        if not any(w):
            return "1"
        bits = []
        for name, e in zip(self.variables, w):
            if e == 1:
                bits.append(name)
            elif e > 1:
                bits.append(f"{name}^{e}")
        return "*".join(bits)

    def parse_word(self, text):
        text = text.strip()
        if text == "1":
            return self.unit
        exps = [0] * self.nvars
        for piece in text.split("*"):
            m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(\d+))?", piece.strip())
            if not m or m.group(1) not in self.variables:
                raise InstanceError(f"bad monomial {text!r} for {self.name}")
            exps[self.variables.index(m.group(1))] += int(m.group(2) or 1)
        return tuple(exps)


def _compositions(d, n):
    """Weak compositions of d into n parts, lexicographically by tuple."""
    if n == 0:
        if d == 0:
            yield ()
        return
    if n == 1:
        yield (d,)
        return
    for head in range(d, -1, -1):
        for tail in _compositions(d - head, n - 1):
            yield (head,) + tail


class Group:
    """Finite group as an element list plus Cayley table on indices."""

    __slots__ = ("elements", "table", "identity", "_inverse", "name")

    def __init__(self, elements, table, name="G"):
        self.elements = list(elements)
        self.table = table
        self.name = name
        n = len(self.elements)
        self.identity = None
        for i in range(n):
            if all(table[i][j] == j == table[j][i] for j in range(n)):
                self.identity = i
                break
        if self.identity is None:
            raise InstanceError(f"group {name} has no identity")
        self._inverse = [None] * n
        for i in range(n):
            for j in range(n):
                if table[i][j] == self.identity and table[j][i] == self.identity:
                    self._inverse[i] = j
                    break
            if self._inverse[i] is None:
                raise InstanceError(f"group element {self.elements[i]} has no inverse")

    def __len__(self):
        return len(self.elements)

    def mul(self, i, j):
        return self.table[i][j]

    def inv(self, i):
        return self._inverse[i]

    def index(self, name):
        return self.elements.index(name)

    @classmethod
    def cyclic(cls, n):
        names = ["e"] + [f"g^{k}" if k > 1 else "g" for k in range(1, n)]
        table = [[(i + j) % n for j in range(n)] for i in range(n)]
        return cls(names, table, name=f"C{n}")

    @classmethod
    def symmetric(cls, n):
        perms = sorted(itertools.permutations(range(n)))
        names = [_perm_name(p) for p in perms]
        idx = {p: i for i, p in enumerate(perms)}
        table = [[idx[tuple(p[q[k]] for k in range(n))] for q in perms]
                 for p in perms]
        return cls(names, table, name=f"S{n}")


def _perm_name(p):
    n = len(p)
    seen = [False] * n
    cycles = []
    for i in range(n):
        if seen[i] or p[i] == i:
            continue
        cyc = [i]
        seen[i] = True
        j = p[i]
        while j != i:
            cyc.append(j)
            seen[j] = True
            j = p[j]
        cycles.append("(" + "".join(str(k + 1) for k in cyc) + ")")
    return "".join(cycles) if cycles else "e"


class GroupAlgebra(Algebra):
    """kG with the trivial grading: every group element sits in degree 0."""

    def __init__(self, field, group, max_degree=0):
        super().__init__(field, f"k{group.name}", max_degree)
        self.group = group
        self.unit = group.identity
        self.strongly_graded = True
        self._mul_cache = Memo(self._product)

    def degree(self, w):
        return 0

    def mul_words(self, u, v):
        return self._mul_cache[u, v]

    def _product(self, key):
        return {self.group.mul(*key): self.field.one}

    def basis(self, d):
        if d == 0:
            return tuple(range(len(self.group)))
        return ()

    def format_word(self, w):
        return self.group.elements[w]

    def parse_word(self, text):
        text = text.strip()
        if text == "1":
            return self.group.identity
        try:
            return self.group.index(text)
        except ValueError:
            raise InstanceError(f"unknown element {text!r} of {self.name}") from None


class RewritingAlgebra(Algebra):
    """Words in noncommuting generators, normalized by rules on descents.

    A word is a tuple of generator indices; normal form is non-decreasing.
    ``rules[(j, i)]`` for j > i rewrites the adjacent pair (x_j, x_i) as a
    linear combination of words of length at most 2.  The rule set is
    assumed confluent; associativity is verified up to budget by the check
    harness, which catches non-confluence at desk scale.
    """

    def __init__(self, field, generators, rules, max_degree):
        super().__init__(field, "k<" + ",".join(generators) + ">", max_degree)
        self.generators = tuple(generators)
        self.unit = ()
        self.rules = dict(rules)
        for (j, i), value in self.rules.items():
            if j <= i:
                raise InstanceError(f"rule key {(j, i)} is not a descent")
            for w in value:
                if len(w) > 2:
                    raise InstanceError("rewriting rules may not raise word length")
        self._normal_cache = Memo(self._normalize)
        self.strongly_graded = all(
            all(len(w) == 2 for w in value) for value in self.rules.values())

    def degree(self, w):
        return len(w)

    def _normalize(self, word):
        descent = None
        for k in range(len(word) - 1):
            if word[k] > word[k + 1]:
                descent = k
                break
        if descent is None:
            return {word: self.field.one}
        pair = (word[descent], word[descent + 1])
        rule = self.rules.get(pair)
        if rule is None:
            raise InstanceError(
                f"missing rewriting rule for descent {pair} in {self.name}")
        result = {}
        for repl, c in rule.items():
            accumulate_scaled(
                result, self._normal_cache[word[:descent] + repl + word[descent + 2:]], c)
        return result

    def mul_words(self, u, v):
        return self._normal_cache[u + v]

    def basis(self, d):
        return tuple(itertools.combinations_with_replacement(range(len(self.generators)), d))

    def split_first(self, word):
        if len(word) <= 1:
            return None
        return (word[0],), word[1:]

    def format_word(self, w):
        if not w:
            return "1"
        bits = []
        for idx, run in itertools.groupby(w):
            k = len(list(run))
            name = self.generators[idx]
            bits.append(name if k == 1 else f"{name}^{k}")
        return "*".join(bits)

    def parse_word(self, text):
        text = text.strip()
        if text == "1":
            return ()
        out = []
        for piece in text.split("*"):
            m = re.fullmatch(r"([A-Za-z_]\w*)(?:\^(\d+))?", piece.strip())
            if not m or m.group(1) not in self.generators:
                raise InstanceError(f"bad word {text!r} for {self.name}")
            out.extend([self.generators.index(m.group(1))] * int(m.group(2) or 1))
        word = tuple(out)
        # accept only normal forms so parsing stays a bijection onto the basis
        if list(word) != sorted(word):
            raise InstanceError(f"{text!r} is not in normal form for {self.name}")
        return word


class TwistedProductAlgebra(Algebra):
    """R (x)_tau S on pair words, multiplied through the twisting map."""

    def __init__(self, R, S, tau, max_degree=None):
        if max_degree is None:
            max_degree = min(R.max_degree, S.max_degree)
        super().__init__(R.field, f"{R.name}(x){S.name}", max_degree)
        self.R = R
        self.S = S
        self.tau = tau
        self.unit = (R.unit, S.unit)
        self._mul_cache = Memo(self._product)

    def degree(self, w):
        return self.R.degree(w[0]) + self.S.degree(w[1])

    def mul_words(self, u, v):
        return self._mul_cache[u, v]

    def _product(self, key):
        (r1, s1), (r2, s2) = key
        out = {}
        for (rm, sm), c in self.tau.apply(s1, r2).items():
            for rw, cr in self.R.mul_words(r1, rm).items():
                for sw, cs in self.S.mul_words(sm, s2).items():
                    accumulate(out, (rw, sw), c * cr * cs)
        return out

    def basis(self, d):
        out = []
        for i in range(d + 1):
            for rw in self.R.basis(i):
                for sw in self.S.basis(d - i):
                    out.append((rw, sw))
        return tuple(out)

    def format_word(self, w):
        return f"{self.R.format_word(w[0])} # {self.S.format_word(w[1])}"

    def parse_word(self, text):
        if " # " not in text:
            raise InstanceError(f"product word {text!r} must look like 'r # s'")
        rpart, spart = text.split(" # ", 1)
        return (self.R.parse_word(rpart), self.S.parse_word(spart))

    def pair_element(self, r_elt, s_elt):
        out = {}
        for rw, cr in r_elt.data.items():
            for sw, cs in s_elt.data.items():
                out[(rw, sw)] = cr * cs
        return AlgebraElement(self, out)

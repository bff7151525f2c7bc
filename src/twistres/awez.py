"""Twisted Alexander-Whitney and Eilenberg-Zilber maps.

Both maps factor through the intermediate complex Y:

* the twisted perfect unshuffle moves every S-factor of a bar word of
  R (x)_tau S rightward past the R-factors to its right, the whole block
  at once by the iterated twist tau_B (``prod_bar.tau_C``, the memoized
  ``BarLeftCompat`` Y's action crosses by), and its inverse moves each
  S-factor back by the iterated inverse twist (a ``BarRightCompat`` over
  tau^(-1));
* the front/back face map multiplies a leading run of R-factors and a
  trailing run of S-factors;
* the shuffle map spreads the two inner blocks over signed (l, n-l)
  shuffles with unit padding.

Reduced versions keep, of the unreduced images, the words the componentwise
projections onto the reduced bar complexes keep.

Every ``ChainMap`` is given by one oracle, ``oracle(out, factor, n, comp,
word)``, which adds factor * f(word) into ``out``, a dict {(comp, word):
coeff} of the target the caller owns, dropping every key whose sum is zero
(``linalg.accumulate``); ``ChainMap.apply_word`` is the one wrapper
returning a ``FreeElement``.
"""

from __future__ import annotations

import functools
import itertools

from .complexes import BarComplex, IntermediateComplex, TwistedProductComplex
from .linalg import accumulate, accumulate_scaled, summed
from .tensors import FreeElement
from .twisting import BarLeftCompat, BarRightCompat, TwistingMap


class Shuffle:
    """An (ell, m)-shuffle; ``images[k]`` is the 0-indexed image of k+1.

    Immutable, and equal (with equal hashes) exactly when its fields are."""

    __slots__ = ("images", "ell", "m", "sign")

    def __init__(self, images: tuple, ell: int, m: int, sign: int):
        object.__setattr__(self, "images", images)
        object.__setattr__(self, "ell", ell)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "sign", sign)

    def __setattr__(self, name, value):
        raise AttributeError("shuffles are immutable")

    def __delattr__(self, name):
        raise AttributeError("shuffles are immutable")

    def __reduce__(self):
        return Shuffle, (self.images, self.ell, self.m, self.sign)

    def __eq__(self, other):
        if other.__class__ is not Shuffle:
            return NotImplemented
        return (self.images, self.ell, self.m, self.sign) == (
            other.images, other.ell, other.m, other.sign)

    def __hash__(self):
        return hash((self.images, self.ell, self.m, self.sign))

    def permute(self, values):
        """Place values so that output slot sigma(k) holds input slot k."""
        out = [None] * len(self.images)
        for src, dst in enumerate(self.images):
            out[dst] = values[src]
        return tuple(out)

    def cycle_notation(self):
        n = len(self.images)
        seen = [False] * n
        bits = []
        for i in range(n):
            if seen[i] or self.images[i] == i:
                continue
            cyc = [i]
            seen[i] = True
            j = self.images[i]
            while j != i:
                cyc.append(j)
                seen[j] = True
                j = self.images[j]
            bits.append("(" + " ".join(str(k + 1) for k in cyc) + ")")
        return "".join(bits) if bits else "(1)"


@functools.cache
def enumerate_shuffles(ell, m):
    """All binomial(ell+m, ell) shuffles with signs, in lexicographic order.

    Returns one shared tuple per (ell, m).
    """
    n = ell + m
    out = []
    for first_block in itertools.combinations(range(n), ell):
        rest = [p for p in range(n) if p not in first_block]
        images = tuple(list(first_block) + rest)
        inversions = sum(1 for a in range(n) for b in range(a + 1, n)
                         if images[a] > images[b])
        out.append(Shuffle(images, ell, m, -1 if inversions % 2 else 1))
    return tuple(out)


def word_into(out, factor, n, comp, word):
    """The oracle of an identity or an inclusion: the word itself."""
    accumulate(out, (comp, word), factor)


def projected_into(f, keep):
    """The oracle of f followed by the projection onto the words ``keep``
    accepts."""
    def oracle(out, factor, n, comp, word):
        for key, c in summed(f.apply_into, factor, n, comp, word).items():
            if keep(key):
                accumulate(out, key, c)
    return oracle


class ChainMap:
    """Degree-indexed family of linear maps given by a basis-word oracle
    that adds into the caller's sum (see the module docstring)."""

    def __init__(self, source, target, oracle, name):
        self.source = source
        self.target = target
        self._oracle = oracle
        self.name = name

    def apply_into(self, out, factor, n, comp, word):
        self._oracle(out, factor, n, comp, word)

    def apply_word(self, n, comp, word):
        return self.apply(n, self.source.single(n, comp, word))

    def apply(self, n, elt):
        out = FreeElement(self.target.term(n))
        for (comp, word), c in elt.data.items():
            self.apply_into(out.data, c, n, comp, word)
        return out

    def compose(self, other, name=None):
        """self o other (other acts first)."""
        def oracle(out, factor, n, comp, word):
            middle = summed(other.apply_into, factor, n, comp, word)
            for (comp2, word2), c in middle.items():
                self.apply_into(out, c, n, comp2, word2)
        return ChainMap(other.source, self.target, oracle,
                        name or f"{self.name} o {other.name}")

    @classmethod
    def identity(cls, X):
        return cls(X, X, word_into, f"id({X.name})")


class TwistedBarMaps:
    """The AW/EZ tower over one twisted tensor product algebra."""

    def __init__(self, A, n_max):
        self.A = A
        self.R = A.R
        self.S = A.S
        self.tau = A.tau
        self.n_max = n_max
        self.bar_A = BarComplex(A, reduced=False, n_max=n_max)
        self.rbar_A = BarComplex(A, reduced=True, n_max=n_max)
        self.bar_R = BarComplex(self.R, reduced=False, n_max=n_max)
        self.bar_S = BarComplex(self.S, reduced=False, n_max=n_max)
        self.rbar_R = BarComplex(self.R, reduced=True, n_max=n_max)
        self.rbar_S = BarComplex(self.S, reduced=True, n_max=n_max)
        self.prod_bar = TwistedProductComplex(
            A, self.bar_R, self.bar_S,
            BarLeftCompat(A.tau, reduced=False),
            BarRightCompat(A.tau, reduced=False), n_max,
            name=f"bar({self.R.name})(x)bar({self.S.name})")
        self.prod_rbar = TwistedProductComplex(
            A, self.rbar_R, self.rbar_S,
            BarLeftCompat(A.tau, reduced=True),
            BarRightCompat(A.tau, reduced=True), n_max,
            name=f"rbar({self.R.name})(x)rbar({self.S.name})")
        self.Y = IntermediateComplex(self.prod_bar, n_max=n_max)
        self.twisted_unshuffle = ChainMap(self.bar_A, self.Y,
                                          self._unshuffle_into, "unshuffle")
        self.twisted_shuffle = ChainMap(self.Y, self.bar_A,
                                        self._shuffle_into, "shuffle")
        self.front_back_face = ChainMap(self.Y, self.prod_bar,
                                        self._front_back_into, "front/back face")
        self.shuffle_map = ChainMap(self.prod_bar, self.Y,
                                    self._shuffle_map_into, "shuffle map")
        self.aw_unreduced = self.front_back_face.compose(
            self.twisted_unshuffle, "AW_bar")
        self.ez_unreduced = self.twisted_shuffle.compose(
            self.shuffle_map, "EZ_bar")
        self.aw_reduced = ChainMap(
            self.rbar_A, self.prod_rbar,
            projected_into(self.aw_unreduced, self.in_reduced_product), "AW")
        self.ez_reduced = ChainMap(
            self.prod_rbar, self.rbar_A,
            projected_into(self.ez_unreduced, self.in_reduced_bar), "EZ")
        # in_2: merely a k-linear inclusion, generally not a bimodule map
        self.inclusion_reduced_product = ChainMap(
            self.prod_rbar, self.prod_bar, word_into, "in_2")
        # tau^(-1): R (x) S -> S (x) R, a twist with the roles of R and S
        # swapped, crossed over R-blocks by the shuffle
        self._back = BarRightCompat(
            TwistingMap(A.R, A.S, A.tau.inverse, name=f"{A.tau.name}^-1"))

    # -- twisted perfect unshuffle and its inverse ---------------------------

    def _unshuffle_into(self, out, factor, n, comp, word):
        # last pair first, s_k crosses the R-block already moved to its
        # right by one lookup of prod_bar's tau_C, keyed as Y's action keys it
        *head, (r, s) = word
        states = {((r,), (s,)): factor}
        for r, s in reversed(head):
            new = {}
            for (rblock, sblock), c in states.items():
                for (moved, s2), c2 in self.prod_bar.tau_C.apply(
                        len(rblock) - 2, s, rblock).items():
                    accumulate(new, ((r,) + moved, (s2,) + sblock), c * c2)
            states = new
        for (rblock, sblock), c in states.items():
            accumulate(out, ((), rblock + sblock), c)

    def _shuffle_into(self, out, factor, n, comp, word):
        # first pair first, s_k crosses back over the R-block to the right
        # of r_k by the iterated inverse twist
        rpart, spart = word[:n + 2], word[n + 2:]
        states = {((), rpart): factor}
        for s in spart[:-1]:
            new = {}
            for (pairs, rblock), c in states.items():
                r, block = rblock[0], rblock[1:]
                for (s2, moved), c2 in self._back.apply(len(block) - 2, block, s).items():
                    accumulate(new, (pairs + ((r, s2),), moved), c * c2)
            states = new
        for (pairs, (r,)), c in states.items():
            accumulate(out, ((), pairs + ((r, spart[-1]),)), c)

    # -- front/back face and shuffle maps ------------------------------------

    def _front_back_into(self, out, factor, n, comp, word):
        rpart, spart = word[:n + 2], word[n + 2:]
        one = self.A.field.one
        for ell in range(n + 1):
            sign = factor if (ell * (n - ell)) % 2 == 0 else -factor
            front = {rpart[0]: one}
            for k in range(1, ell + 1):
                new = {}
                for w, c in front.items():
                    accumulate_scaled(new, self.R.mul_words(w, rpart[k]), c)
                front = new
            back = {spart[n + 1]: one}
            for k in range(n, ell, -1):
                new = {}
                for w, c in back.items():
                    accumulate_scaled(new, self.S.mul_words(spart[k], w), c)
                back = new
            for fw, fc in front.items():
                for bw, bc in back.items():
                    new_word = (fw,) + rpart[ell + 1:] + spart[:ell + 1] + (bw,)
                    accumulate(out, ((n - ell, ell), new_word), sign * fc * bc)

    def _shuffle_map_into(self, out, factor, n, comp, word):
        # The bidegree prefactor lives on the face map only: with the Koszul
        # sign placement of the total differential, the shuffle sum is a
        # chain map bare, and the face-map prefactor alone makes the
        # composite the identity (the surviving block-swap shuffle has sign
        # (-1)^(i*j)).
        i, j = comp
        cw, dw = word[:i + 2], word[i + 2:]
        r_inner = cw[1:i + 1]
        s_inner = dw[1:j + 1]
        r_padded = r_inner + (self.R.unit,) * j
        s_padded = (self.S.unit,) * i + s_inner
        for sh in enumerate_shuffles(i, j):
            coeff = factor if sh.sign == 1 else -factor
            new_r = (cw[0],) + sh.permute(r_padded) + (cw[i + 1],)
            new_s = (dw[0],) + sh.permute(s_padded) + (dw[j + 1],)
            accumulate(out, ((), new_r + new_s), coeff)

    # -- the projections of AW and EZ, as filters on words -------------------

    def in_reduced_product(self, key):
        """Whether pr_2, the componentwise inner projection in both bar
        factors, keeps the prod_bar word ``key``."""
        (i, j), word = key
        return (self.R.unit not in word[1:i + 1]
                and self.S.unit not in word[i + 3:i + j + 3])

    def in_reduced_bar(self, key):
        """Whether pr_1 keeps the bar word ``key`` of A: no unit inner slot."""
        return self.A.unit not in key[1][1:-1]


# -- closed formulas for group actions on polynomial rings -------------------


def group_prefix_products(S, g_words):
    """Left-to-right partial products g_0 g_1 ... g_(k-1); index 0 is empty."""
    prods = [S.unit]
    for g in g_words:
        prods.append(S.group.mul(prods[-1], g))
    return prods


def group_closed_aw(maps, action, n, word, reduced):
    """Closed-form AW for a group smash product, written directly.

    Twist each polynomial slot by the product of all group slots to its
    left, then front-multiply the first run of polynomial slots and
    back-multiply the trailing group slots.  Independent of the unshuffle
    machinery; pairs with the generic composition in the acceptance suite.
    """
    A = maps.A
    R, S = maps.R, maps.S
    target = maps.prod_rbar if reduced else maps.prod_bar
    one = A.field.one
    f_words = [w[0] for w in word]
    g_words = [w[1] for w in word]
    prefixes = group_prefix_products(S, g_words)
    twisted = [action.act(prefixes[k], f_words[k]) for k in range(n + 2)]
    out = FreeElement(target.term(n))
    for ell in range(n + 1):
        sign = one if (ell * (n - ell)) % 2 == 0 else -one
        front = {R.unit: one}
        for k in range(ell + 1):
            new = {}
            for w, c in front.items():
                for w2, c2 in twisted[k].items():
                    accumulate_scaled(new, R.mul_words(w, w2), c * c2)
            front = new
        back_word = S.unit
        for k in range(ell + 1, n + 2):
            back_word = S.group.mul(back_word, g_words[k])
        if reduced and any(g == S.unit for g in g_words[1:ell + 1]):
            continue
        for combo, cc in _spread(twisted[ell + 1:], one):
            if reduced and any(w == R.unit for w in combo[:-1]):
                continue
            for fw, fc in front.items():
                full = (fw,) + combo + tuple(g_words[:ell + 1]) + (back_word,)
                out.add_term((n - ell, ell), full, sign * fc * cc)
    return out


def group_closed_ez(maps, action, n, comp, word, reduced):
    """Closed EZ for a group smash product via the explicit interleave.

    Shuffle the two padded inner blocks, then pair slot k with the inverse
    of the group prefix acting on its polynomial part.
    """
    A = maps.A
    R, S = maps.R, maps.S
    G = S.group
    target = maps.rbar_A if reduced else maps.bar_A
    i, j = comp
    cw, dw = word[:i + 2], word[i + 2:]
    out = FreeElement(target.term(n))
    one = A.field.one
    r_padded = cw[1:i + 1] + (R.unit,) * j
    s_padded = (S.unit,) * i + dw[1:j + 1]
    for sh in enumerate_shuffles(i, j):
        coeff = one if sh.sign == 1 else -one
        rfull = (cw[0],) + sh.permute(r_padded) + (cw[i + 1],)
        gfull = (dw[0],) + sh.permute(s_padded) + (dw[j + 1],)
        prefixes = group_prefix_products(S, gfull)
        slots = [action.act(G.inv(prefixes[k]), rfull[k]) for k in range(n + 2)]
        for combo, cc in _spread(slots, one):
            pairs = tuple((combo[k], gfull[k]) for k in range(n + 2))
            if reduced and any(p == A.unit for p in pairs[1:n + 1]):
                continue
            out.add_term((), pairs, coeff * cc)
    return out


def _spread(dicts, one):
    """Cartesian expansion of a list of sparse dicts into (tuple, coeff)."""
    combos = [((), one)]
    for d in dicts:
        combos = [(prefix + (w,), c * c2)
                  for prefix, c in combos for w, c2 in d.items()]
    return combos

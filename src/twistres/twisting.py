"""Twisting maps tau: S (x) R -> R (x) S and their bar-complex iterates.

A twisting map is stored as an oracle on basis pairs.  Values on longer
words are derived by recursion through the hexagon identity
``tau (m_S (x) m_R) = (m_R (x) m_S)(1 (x) tau (x) 1)(tau (x) tau)(1 (x) tau (x) 1)``,
splitting the left word first, then the right; the axiom checker certifies
that this fixed order is consistent on all basis quadruples within budget.
"""

from __future__ import annotations

from .errors import NotInvertible, TwistInconsistent
from .linalg import Memo, SparseMatrix, accumulate, solve_linear_system


class TwistingMap:
    """Bijective linear map S (x) R -> R (x) S fixing units."""

    def __init__(self, S, R, rule, name="tau", inverse_rule=None,
                 strongly_graded=False, filtered=True):
        self.S = S
        self.R = R
        self._rule = rule            # (s_word, r_word) -> dict or None
        self._inverse_rule = inverse_rule
        self.name = name
        self._cache = Memo(self._evaluate)
        self._inv_cache = Memo(self._evaluate_inverse)
        # block key -> {(r, s): column of tau^(-1)}, see _invert_linear
        self._inv_blocks = Memo(
            lambda key: _invert_block(self, *self._block_pairs(key)))
        self.strongly_graded = strongly_graded
        self.filtered = filtered or strongly_graded

    # -- forward evaluation ------------------------------------------------

    def apply(self, s_word, r_word):
        """tau(s (x) r) as a sparse dict {(r', s'): coeff}."""
        one = self.R.field.one
        if s_word == self.S.unit:
            return {(r_word, self.S.unit): one}
        if r_word == self.R.unit:
            return {(self.R.unit, s_word): one}
        return self._cache[s_word, r_word]

    def _evaluate(self, key):
        direct = self._rule(*key)
        if direct is None:
            return self._extend(*key)
        return {pair: c for pair, c in direct.items() if c}

    def _extend(self, s_word, r_word):
        split_s = self.S.split_first(s_word)
        out = {}
        if split_s is not None:
            a, b = split_s
            # tau(ab (x) r): pass r through b, then through a, multiply in S.
            for (r1, s1), c1 in self.apply(b, r_word).items():
                for (r2, s2), c2 in self.apply(a, r1).items():
                    for sw, cs in self.S.mul_words(s2, s1).items():
                        accumulate(out, (r2, sw), c1 * c2 * cs)
            return out
        split_r = self.R.split_first(r_word)
        if split_r is not None:
            c_head, d_tail = split_r
            # tau(s (x) cd): pass s through c, then through d, multiply in R.
            for (r1, s1), c1 in self.apply(s_word, c_head).items():
                for (r2, s2), c2 in self.apply(s1, d_tail).items():
                    for rw, cr in self.R.mul_words(r1, r2).items():
                        accumulate(out, (rw, s2), c1 * c2 * cr)
            return out
        raise TwistInconsistent(
            f"{self.name} has no rule for ({self.S.format_word(s_word)}, "
            f"{self.R.format_word(r_word)}) and the words cannot be split",
            witness=(s_word, r_word))

    # -- the hexagon axiom ---------------------------------------------------

    def hexagon_sides(self, s1, s2, r1, r2):
        """Both compositions of the twisting axiom on a basis quadruple."""
        lhs = {}
        for sw, cs in self.S.mul_words(s1, s2).items():
            for rw, cr in self.R.mul_words(r1, r2).items():
                for pair, c in self.apply(sw, rw).items():
                    accumulate(lhs, pair, cs * cr * c)
        rhs = {}
        for (rm, sm), c0 in self.apply(s2, r1).items():
            for (ra, sa), c1 in self.apply(s1, rm).items():
                for (rb, sb), c2 in self.apply(sm, r2).items():
                    for (rc, sc), c3 in self.apply(sa, rb).items():
                        base = c0 * c1 * c2 * c3
                        for rw, cr in self.R.mul_words(ra, rc).items():
                            for sw, cs in self.S.mul_words(sc, sb).items():
                                accumulate(rhs, (rw, sw), base * cr * cs)
        return lhs, rhs

    def creates_units(self, deg_budget):
        """Whether tau(s (x) r) has a term with a unit factor for some basis
        words s != 1 and r != 1 of total internal degree within budget."""
        R, S = self.R, self.S
        for s in S.basis_upto(min(deg_budget, S.max_degree)):
            for r in R.basis_upto(min(deg_budget, R.max_degree)):
                if s == S.unit or r == R.unit or \
                        S.degree(s) + R.degree(r) > deg_budget:
                    continue
                if any(r2 == R.unit or s2 == S.unit for r2, s2 in self.apply(s, r)):
                    return True
        return False

    def axiom_quadruples(self, deg_budget):
        """Basis quadruples (s, s', r, r') with total internal degree in budget."""
        s_words = self.S.basis_upto(min(deg_budget, self.S.max_degree))
        r_words = self.R.basis_upto(min(deg_budget, self.R.max_degree))
        quads = []
        for s1 in s_words:
            for s2 in s_words:
                ds = self.S.degree(s1) + self.S.degree(s2)
                if ds > deg_budget:
                    continue
                for r1 in r_words:
                    for r2 in r_words:
                        total = ds + self.R.degree(r1) + self.R.degree(r2)
                        if total <= deg_budget:
                            quads.append((total, s1, s2, r1, r2))
        quads.sort()
        return [q[1:] for q in quads]

    def check_axiom(self, deg_budget):
        """Evaluate the hexagon on every quadruple within budget.

        Returns (ok, witness) where the witness carries the quadruple and
        both evaluated sides of the first mismatch.
        """
        checked = 0
        for s1, s2, r1, r2 in self.axiom_quadruples(deg_budget):
            lhs, rhs = self.hexagon_sides(s1, s2, r1, r2)
            checked += 1
            if lhs != rhs:
                witness = {
                    "quadruple": (self.S.format_word(s1), self.S.format_word(s2),
                                  self.R.format_word(r1), self.R.format_word(r2)),
                    "lhs": _format_pairs(self, lhs),
                    "rhs": _format_pairs(self, rhs),
                }
                return False, witness, checked
        return True, None, checked

    # -- inversion -----------------------------------------------------------

    def inverse(self, r_word, s_word):
        """tau^(-1)(r (x) s) as a sparse dict {(s', r'): coeff}."""
        one = self.R.field.one
        if s_word == self.S.unit:
            return {(self.S.unit, r_word): one}
        if r_word == self.R.unit:
            return {(s_word, self.R.unit): one}
        return self._inv_cache[r_word, s_word]

    def _evaluate_inverse(self, key):
        if self._inverse_rule is None:
            return self._invert_linear(*key)
        return {pair: c for pair, c in self._inverse_rule(*key).items() if c}

    def _block_pairs(self, block_key):
        """Domain/codomain bases of a truncated block: bidegree (i, j) when
        strongly graded, else all total degrees up to ``block_key``."""
        if self.strongly_graded:
            i, j = block_key
            dom = [(s, r) for s in self.S.basis(j) for r in self.R.basis(i)]
            cod = [(r, s) for r in self.R.basis(i) for s in self.S.basis(j)]
        elif self.filtered:
            total = block_key
            dom, cod = [], []
            for a in range(total + 1):
                for b in range(total + 1 - a):
                    for s in self.S.basis(b):
                        for r in self.R.basis(a):
                            dom.append((s, r))
                            cod.append((r, s))
        else:
            raise NotInvertible(
                f"{self.name} is neither strongly graded nor filtered")
        return dom, cod

    def _invert_linear(self, r_word, s_word):
        i, j = self.R.degree(r_word), self.S.degree(s_word)
        block_key = (i, j) if self.strongly_graded else i + j
        block = self._inv_blocks[block_key]
        try:
            return block[(r_word, s_word)]
        except KeyError:
            raise NotInvertible(
                f"{self.name}: no preimage for block of degree {block_key}") from None


def _invert_block(tau, dom, cod):
    """Invert tau restricted to a finite block: solve for every unit vector."""
    n = len(dom)
    if n != len(cod):
        raise NotInvertible("truncated block is not square")
    index = {pair: t for t, pair in enumerate(cod)}
    rows = [{} for _ in range(n)]
    for jcol, (s, r) in enumerate(dom):
        for pair, c in tau.apply(s, r).items():
            irow = index.get(pair)
            if irow is None:
                raise NotInvertible(
                    f"{tau.name}: image of block leaves the block at "
                    f"({tau.S.format_word(s)}, {tau.R.format_word(r)})")
            rows[irow][jcol] = c
    one = tau.R.field.one
    inverse = solve_linear_system(SparseMatrix(n, n, rows),
                                  [{t: one} for t in range(n)])
    if None in inverse:
        raise NotInvertible(f"{tau.name}: singular truncated block")
    return {cod[t]: {dom[j]: c for j, c in x.items()}
            for t, x in enumerate(inverse)}


def _format_pairs(tau, pairs):
    bits = []
    for (r, s), c in sorted(pairs.items(), key=lambda kv: (str(kv[0]),)):
        bits.append(f"{c} * {tau.R.format_word(r)} (x) {tau.S.format_word(s)}")
    return " + ".join(bits) if bits else "0"


def twist_from_generator_rules(S, R, rules, name="tau"):
    """Build a twisting map from values on (S-generator, R-generator) pairs.

    ``rules`` maps word pairs to sparse dicts over (r_word, s_word).  The
    grading flags are inferred from the rule outputs; rules keyed on a unit
    word must agree with the unit axiom and are rejected otherwise.
    """
    table = dict(rules)
    one = R.field.one
    for (s, r), value in table.items():
        value = {pair: c for pair, c in value.items() if c}
        if s == S.unit and value != {(r, S.unit): one}:
            raise TwistInconsistent(
                f"{name}: rule for the unit of S violates tau(1 (x) r) = r (x) 1",
                witness=(s, r))
        if r == R.unit and value != {(R.unit, s): one}:
            raise TwistInconsistent(
                f"{name}: rule for the unit of R violates tau(s (x) 1) = 1 (x) s",
                witness=(s, r))

    def rule(s_word, r_word):
        return table.get((s_word, r_word))

    strongly = True
    filtered = True
    for (s, r), value in table.items():
        ds, dr = S.degree(s), R.degree(r)
        for (r2, s2), c in value.items():
            if not c:
                continue
            if (R.degree(r2), S.degree(s2)) != (dr, ds):
                strongly = False
            if R.degree(r2) + S.degree(s2) > dr + ds:
                filtered = False
    return TwistingMap(S, R, rule, name=name,
                       strongly_graded=strongly, filtered=filtered)


def bicharacter_twist(S, R, q, name="tau_q"):
    """tau(s (x) r) = q^(deg s * deg r) r (x) s, a strongly graded twist."""
    one = R.field.one

    def rule(s_word, r_word):
        c = q ** (S.degree(s_word) * R.degree(r_word))
        return {(r_word, s_word): c * one}

    def inverse_rule(r_word, s_word):
        c = q ** (S.degree(s_word) * R.degree(r_word))
        return {(s_word, r_word): R.field.inv(c)}

    return TwistingMap(S, R, rule, name=name, inverse_rule=inverse_rule,
                       strongly_graded=True)


class CompatMap:
    """A compatibility map, memoized on its full arguments ``(n, x, y)``.

    Subclasses compute a value in ``_apply(n, x, y)`` as a sparse dict;
    ``apply`` hands out the value from a ``linalg.Memo``, computed once per
    instance and argument triple.
    """

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # every map class owns ``apply``, so wrappers that replace a class's
        # own methods (perfbench's tracer) reach each compatibility map
        cls.apply = CompatMap.apply

    def __init__(self):
        self._cache = Memo(lambda key: self._apply(*key))

    def apply(self, n, x, y):
        return self._cache[n, x, y]


class BarLeftCompat(CompatMap):
    """tau_{B_R}: S (x) (B_R)_n -> (B_R)_n (x) S by iterated slot twists.

    The reduced variant post-composes the componentwise inner projection,
    giving tau for the reduced bar complex.  Compatibility oracles take the
    homological degree first so subspace-slot implementations can dispatch;
    the bar versions ignore it.
    """

    def __init__(self, tau, reduced=False):
        super().__init__()
        self.tau = tau
        self.reduced = reduced
        self.unit = tau.R.unit

    def _apply(self, n, s_word, word):
        states = {((), s_word): self.tau.R.field.one}
        for slot in word:
            new = {}
            for (prefix, s_cur), c in states.items():
                for (r2, s2), c2 in self.tau.apply(s_cur, slot).items():
                    accumulate(new, (prefix + (r2,), s2), c * c2)
            states = new
        if self.reduced:
            states = {(full, s): c for (full, s), c in states.items()
                      if self.unit not in full[1:-1]}
        return states


class BarRightCompat(CompatMap):
    """tau_{B_S}: (B_S)_n (x) R -> R (x) (B_S)_n by iterated slot twists."""

    def __init__(self, tau, reduced=False):
        super().__init__()
        self.tau = tau
        self.reduced = reduced
        self.unit = tau.S.unit

    def _apply(self, n, word, r_word):
        states = {(r_word, ()): self.tau.R.field.one}
        for slot in reversed(word):
            new = {}
            for (r_cur, suffix), c in states.items():
                for (r2, s2), c2 in self.tau.apply(slot, r_cur).items():
                    accumulate(new, (r2, (s2,) + suffix), c * c2)
            states = new
        if self.reduced:
            states = {(r, full): c for (r, full), c in states.items()
                      if self.unit not in full[1:-1]}
        return states

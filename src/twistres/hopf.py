"""Hopf algebras, Hopf module actions, smash-product twists, comodules.

The built-in family is a group algebra kG with group-like coproduct, but
all oracles (coproduct, counit, antipode, action) are word-level callables,
so table-driven Hopf algebras plug in the same way.
"""

from __future__ import annotations

from .errors import ActionNotAdmissible, TwistresError
from .linalg import Memo, accumulate, accumulate_scaled
from .twisting import CompatMap, TwistingMap


class HopfAlgebra:
    """A Hopf algebra structure on top of an Algebra of basis words."""

    def __init__(self, algebra, coproduct, counit, antipode, antipode_inv):
        self.algebra = algebra
        self._coproduct = coproduct
        self._counit = counit
        self._antipode = antipode
        self._antipode_inv = antipode_inv
        self._sweedler_cache = Memo(self._sweedler)

    def coproduct(self, w):
        return self._coproduct(w)

    def counit(self, w):
        return self._counit(w)

    def antipode(self, w):
        return self._antipode(w)

    def antipode_inv(self, w):
        return self._antipode_inv(w)

    def sweedler(self, w, m):
        """Iterated coproduct with m output legs as {m-tuple: coeff}.

        Coassociativity makes the bracketing irrelevant; we always expand
        the final leg, so results are reproducible.
        """
        if m == 1:
            return {(w,): self.algebra.field.one}
        return self._sweedler_cache[w, m]

    def _sweedler(self, key):
        w, m = key
        legs_out = {}
        for legs, c in self.sweedler(w, m - 1).items():
            for (h1, h2), c2 in self.coproduct(legs[-1]).items():
                accumulate(legs_out, legs[:-1] + (h1, h2), c * c2)
        return legs_out

    def check_axioms(self, budget=0):
        """Coassociativity, counit and antipode laws on basis words."""
        H = self.algebra
        failures = []
        one = H.field.one
        for w in H.basis_upto(min(budget, H.max_degree)):
            left = {}
            right = {}
            for (a, b), c in self.coproduct(w).items():
                for (a1, a2), c2 in self.coproduct(a).items():
                    accumulate(left, (a1, a2, b), c * c2)
                for (b1, b2), c2 in self.coproduct(b).items():
                    accumulate(right, (a, b1, b2), c * c2)
            if left != right:
                failures.append(("coassociativity", H.format_word(w)))
            ce_left = {}
            ce_right = {}
            for (a, b), c in self.coproduct(w).items():
                accumulate(ce_left, b, c * self.counit(a))
                accumulate(ce_right, a, c * self.counit(b))
            if ce_left != {w: one} or ce_right != {w: one}:
                failures.append(("counit", H.format_word(w)))
            snake_l = {}
            snake_r = {}
            for (a, b), c in self.coproduct(w).items():
                for g, cg in self.antipode(a).items():
                    accumulate_scaled(snake_l, H.mul_words(g, b), c * cg)
                for g, cg in self.antipode(b).items():
                    accumulate_scaled(snake_r, H.mul_words(a, g), c * cg)
            expected = {}
            accumulate(expected, H.unit, self.counit(w))
            if snake_l != expected or snake_r != expected:
                failures.append(("antipode", H.format_word(w)))
            round_trip = {}
            for g, cg in self.antipode(w).items():
                accumulate_scaled(round_trip, self.antipode_inv(g), cg)
            if round_trip != {w: one}:
                failures.append(("antipode inverse", H.format_word(w)))
        return not failures, failures


def group_hopf(group_algebra):
    """kG as a Hopf algebra: group-likes, gamma(g) = g^(-1)."""
    G = group_algebra.group
    one = group_algebra.field.one

    def coproduct(w):
        return {(w, w): one}

    def counit(w):
        return one

    def antipode(w):
        return {G.inv(w): one}

    return HopfAlgebra(group_algebra, coproduct, counit, antipode, antipode)


class HopfAction:
    """A left Hopf module-algebra action of H on R, given on basis words."""

    def __init__(self, hopf, module, oracle):
        self.hopf = hopf
        self.module = module
        self._cache = Memo(
            lambda key: {w: c for w, c in oracle(*key).items() if c})

    def act(self, h_word, r_word):
        if h_word == self.hopf.algebra.unit:
            return {r_word: self.module.field.one}
        return self._cache[h_word, r_word]

    def check(self, budget):
        """Module and module-algebra axioms with grading, on basis words."""
        H = self.hopf.algebra
        R = self.module
        failures = []
        r_words = R.basis_upto(min(budget, R.max_degree))
        h_words = H.basis_upto(0)
        for h in h_words:
            for r in r_words:
                image = self.act(h, r)
                deg = R.degree(r)
                if any(R.degree(w) != deg for w in image):
                    failures.append(("grading", H.format_word(h), R.format_word(r)))
                for h2 in h_words:
                    iterated = {}
                    for w, c in self.act(h2, r).items():
                        accumulate_scaled(iterated, self.act(h, w), c)
                    multiplied = {}
                    for hw, ch in H.mul_words(h, h2).items():
                        accumulate_scaled(multiplied, self.act(hw, r), ch)
                    if iterated != multiplied:
                        failures.append(("module law", H.format_word(h),
                                         H.format_word(h2), R.format_word(r)))
            unit_img = self.act(h, R.unit)
            expected = {}
            accumulate(expected, R.unit, self.hopf.counit(h))
            if unit_img != expected:
                failures.append(("unit", H.format_word(h)))
            for r1 in r_words:
                for r2 in r_words:
                    if R.degree(r1) + R.degree(r2) > budget:
                        continue
                    lhs = {}
                    for w, c in R.mul_words(r1, r2).items():
                        for w2, c2 in self.act(h, w).items():
                            accumulate(lhs, w2, c * c2)
                    rhs = {}
                    for (h1, h2), c in self.hopf.coproduct(h).items():
                        for a, ca in self.act(h1, r1).items():
                            for b, cb in self.act(h2, r2).items():
                                for w, cw in R.mul_words(a, b).items():
                                    accumulate(rhs, w, c * ca * cb * cw)
                    if lhs != rhs:
                        failures.append(("multiplicativity", H.format_word(h),
                                         R.format_word(r1), R.format_word(r2)))
        return not failures, failures


def linear_group_action(hopf, R, matrices):
    """Action of a group algebra on a polynomial ring by linear substitution.

    ``matrices[g]`` has columns describing g.x_j = sum_i M[i][j] x_i; the
    identity may be omitted.  Extension to monomials is multiplicative.
    """
    G = hopf.algebra.group
    field = R.field
    images = {}
    for g_idx in range(len(G)):
        name = G.elements[g_idx]
        if g_idx == G.identity and name not in matrices:
            images[g_idx] = [R.monomial(R.var_word(j)) for j in range(R.nvars)]
            continue
        if name not in matrices:
            raise ActionNotAdmissible(f"no matrix for group element {name}")
        M = matrices[name]
        cols = []
        for j in range(R.nvars):
            data = {}
            for i in range(R.nvars):
                c = M[i][j]
                c = field.from_int(c) if isinstance(c, int) else c
                if c:
                    data[R.var_word(i)] = c
            cols.append(R.element(data))
        images[g_idx] = cols

    # HopfAction.act caches each value, so the oracle runs once per pair
    def oracle(h_word, r_word):
        acc = R.one()
        for j, e in enumerate(r_word):
            for _ in range(e):
                acc = acc * images[h_word][j]
        return acc.data

    return HopfAction(hopf, R, oracle)


def permutation_group_action(hopf, R):
    """Permutation matrices: each group element permutes the variables."""
    G = hopf.algebra.group
    matrices = {}
    for idx, name in enumerate(G.elements):
        perm = _perm_from_name(name, R.nvars)
        M = [[0] * R.nvars for _ in range(R.nvars)]
        for j in range(R.nvars):
            M[perm[j]][j] = 1
        matrices[name] = M
    return linear_group_action(hopf, R, matrices)


def _perm_from_name(name, degree):
    """Parse a cycle-notation element name like '(12)(34)' back to a tuple."""
    perm = list(range(degree))
    if name == "e":
        return tuple(perm)
    try:
        for chunk in name.replace(")(", ")|(").split("|"):
            body = chunk.strip("()")
            pts = [int(ch) - 1 for ch in body]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                perm[a] = b
    except ValueError:
        raise ActionNotAdmissible(
            f"element name {name!r} is not in cycle notation; "
            "permutation actions need a symmetric or permutation group") from None
    return tuple(perm)


def smash_twist(action, name="smash"):
    """tau(h (x) r) = sum ^(h1) r (x) h2, with the antipode-formula inverse.

    The Hopf and module-algebra axioms are verified on basis words up to
    degree 2 before the twist is built.
    """
    H = action.hopf.algebra
    R = action.module
    hopf = action.hopf
    ok, failures = hopf.check_axioms(0)
    if not ok:
        raise ActionNotAdmissible(
            f"Hopf axioms fail: {failures[0]}", witness=failures[0])
    ok, failures = action.check(min(2, R.max_degree))
    if not ok:
        raise ActionNotAdmissible(
            f"action axioms fail: {failures[0]}", witness=failures[0])

    def rule(h_word, r_word):
        out = {}
        for (h1, h2), c in hopf.coproduct(h_word).items():
            for rw, cr in action.act(h1, r_word).items():
                accumulate(out, (rw, h2), c * cr)
        return out

    def inverse_rule(r_word, h_word):
        # tau^(-1)(r (x) h) = sum h2 (x) ^(gamma^(-1)(h1)) r
        out = {}
        for (h1, h2), c in hopf.coproduct(h_word).items():
            for g, cg in hopf.antipode_inv(h1).items():
                for rw, cr in action.act(g, r_word).items():
                    accumulate(out, (h2, rw), c * cg * cr)
        return out

    tau = TwistingMap(H, R, rule, name=name, inverse_rule=inverse_rule,
                      strongly_graded=True)
    tau.action = action
    return tau


def hopf_act_slotwise(hopf, slot_actions, h_word, word):
    """Diagonal Hopf action with one Sweedler leg per slot, last leg out.

    ``slot_actions[k](h_word, w) -> {w: coeff}``; returns a sparse dict over
    ``(new_word, h_out)`` pairs.
    """
    m = len(word)
    if m != len(slot_actions):
        raise TwistresError("word length does not match slot actions")
    out = {}
    for legs, c in hopf.sweedler(h_word, m + 1).items():
        states = {(): c}
        for k, slot_word in enumerate(word):
            new = {}
            image = slot_actions[k](legs[k], slot_word)
            for prefix, cp in states.items():
                for w2, c2 in image.items():
                    accumulate(new, prefix + (w2,), cp * c2)
            states = new
        for new_word, cw in states.items():
            accumulate(out, (new_word, legs[-1]), cw)
    return out


class KoszulActionCompat(CompatMap):
    """tau_K: H (x) K -> K (x) H for a Koszul resolution carrying an action.

    The middle slot is an abstract subspace index acted on through its
    expansion and re-coordinatization; admissibility (^h of the relation
    space staying inside it) is checked at construction.
    """

    def __init__(self, action, koszul):
        super().__init__()
        self.action = action
        self.koszul = koszul
        if koszul.spaces[2].dim:
            koszul_relations_preserved(action, koszul.spaces[2])
        self._slot_actions = {}

    def _actions_for(self, n):
        cached = self._slot_actions.get(n)
        if cached is None:
            act = self.action.act
            if n == 0:
                cached = (act, act)
            else:
                mid = subspace_slot_action(self.action, self.koszul.spaces[n])
                cached = (act, mid, act)
            self._slot_actions[n] = cached
        return cached

    def _apply(self, n, h_word, word):
        return hopf_act_slotwise(self.action.hopf, self._actions_for(n),
                                 h_word, word)


class BarComoduleCompat(CompatMap):
    """tau_D: (B_H)_n (x) R -> R (x) (B_H)_n from the bar comodule structure.

    The comodule map sends h^0 (x) ... (x) h^(n+1) to the product of first
    Sweedler legs tensor the word of second legs; that product acts on R.
    """

    def __init__(self, action, reduced=False):
        super().__init__()
        self.action = action
        self.hopf = action.hopf
        self.reduced = reduced
        self.unit = action.hopf.algebra.unit

    def _apply(self, n, word, r_word):
        H = self.hopf.algebra
        out = {}
        states = {(H.unit, ()): H.field.one}
        for slot in word:
            new = {}
            for (prod, prefix), c in states.items():
                for (h1, h2), c2 in self.hopf.coproduct(slot).items():
                    for pw, cp in H.mul_words(prod, h1).items():
                        accumulate(new, (pw, prefix + (h2,)), c * c2 * cp)
            states = new
        for (prod, new_word), c in states.items():
            if self.reduced and any(w == self.unit for w in new_word[1:-1]):
                continue
            for rw, cr in self.action.act(prod, r_word).items():
                accumulate(out, (rw, new_word), c * cr)
        return out


def koszul_relations_preserved(action, relation_space):
    """Check ^h R <= R for the quadratic relation space; witness on failure."""
    H = action.hopf.algebra
    for h in H.basis(0):
        for idx, vec in enumerate(relation_space.basis):
            image = _act_on_vwords(action, h, vec)
            if not relation_space.contains_vector(image):
                raise ActionNotAdmissible(
                    f"group element {H.format_word(h)} does not preserve the "
                    f"relation space (basis vector {idx})",
                    witness=(h, idx))


def _act_on_vwords(action, h_word, vec):
    """Diagonal action of h on a sparse combination of V-word tuples."""
    out = {}
    for words, c in vec.items():
        for legs, cl in action.hopf.sweedler(h_word, len(words)).items():
            states = {(): c * cl}
            for leg, w in zip(legs, words):
                new = {}
                image = action.act(leg, w)
                for prefix, cp in states.items():
                    for w2, c2 in image.items():
                        accumulate(new, prefix + (w2,), cp * c2)
                states = new
            for tup, cc in states.items():
                accumulate(out, tup, cc)
    return out


def subspace_slot_action(action, space):
    """Slot action on an abstract subspace slot, via expand/act/coordinatize."""

    def image(key):
        h_word, idx = key
        return space.coordinatize(_act_on_vwords(action, h_word, space.basis[idx]))

    cache = Memo(image)

    def act(h_word, idx):
        return cache[h_word, idx]

    return act

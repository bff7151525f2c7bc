"""Hopf algebras, Hopf module actions and smash-product twists.

The built-in family is a group algebra kG with group-like coproduct; the
structure maps are word-level callables, so table-driven Hopf algebras plug
in the same way.  An action is its images of R's generators (matrices,
permutations and tables write them): every other value extends from them
through the coproduct and the counit.
"""

from __future__ import annotations

from .errors import ActionNotAdmissible
from .linalg import Memo, accumulate, accumulate_scaled
from .twisting import TwistingMap


class HopfAlgebra:
    """A Hopf algebra on an Algebra of basis words, by word-level callables."""

    def __init__(self, algebra, coproduct, counit, antipode, antipode_inv):
        self.algebra = algebra
        self.coproduct = coproduct
        self.counit = counit
        self.antipode = antipode
        self.antipode_inv = antipode_inv

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
    """A left Hopf module-algebra action of H on R, fixed by its atoms.

    ``images`` is read only at an atom (h, x), h not 1 and x a generator of
    R (a word other than 1 that ``R.split_first`` leaves whole): it maps
    the atom to h.x as {r word: coeff}. The rest extends through the Hopf
    structure, whose axioms are verified at construction: 1.r = r,
    h.1 = eps(h) 1 and h.(x rest) = sum (h1.x)(h2.rest).
    """

    def __init__(self, hopf, module, images):
        ok, failures = hopf.check_axioms(0)
        if not ok:
            raise ActionNotAdmissible(
                f"Hopf axioms fail: {failures[0]}", witness=failures[0])
        self.hopf = hopf
        self.module = module
        self._images = images
        self._cache = Memo(self._evaluate)

    def act(self, h_word, r_word):
        if h_word == self.hopf.algebra.unit:
            return {r_word: self.module.field.one}
        return self._cache[h_word, r_word]

    def _evaluate(self, key):
        h_word, r_word = key
        R = self.module
        out = {}
        if r_word == R.unit:
            accumulate(out, R.unit, self.hopf.counit(h_word))
            return out
        split = R.split_first(r_word)
        if split is None:
            if key not in self._images:
                pair = (self.hopf.algebra.format_word(h_word), R.format_word(r_word))
                raise ActionNotAdmissible(f"no image of {pair[1]} under {pair[0]}",
                                          witness=pair)
            return {w: c for w, c in self._images[key].items() if c}
        head, rest = split
        for (h1, h2), c in self.hopf.coproduct(h_word).items():
            for a, ca in self.act(h1, head).items():
                for b, cb in self.act(h2, rest).items():
                    accumulate_scaled(out, R.mul_words(a, b), c * ca * cb)
        return out

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
    """Action of a group algebra by linear substitution of R's generators.

    With x_0, x_1, ... the words of ``R.basis(1)``, ``matrices[g]`` has
    columns describing g.x_j = sum_i M[i][j] x_i; the identity may be
    omitted.
    """
    G = hopf.algebra.group
    field = R.field
    gens = R.basis(1)
    images = {}
    for g, name in enumerate(G.elements):
        if g == G.identity:
            continue
        if name not in matrices:
            raise ActionNotAdmissible(f"no matrix for group element {name}")
        for j, x in enumerate(gens):
            images[g, x] = {y: field.from_int(row[j]) if isinstance(row[j], int)
                            else row[j] for y, row in zip(gens, matrices[name])}
    return HopfAction(hopf, R, images)


def permutation_group_action(hopf, R):
    """Each group element, named in cycle notation, permutes the words of
    ``R.basis(1)``: the point i stands for the i-th of them."""
    G = hopf.algebra.group
    gens = R.basis(1)
    images = {}
    for g, name in enumerate(G.elements):
        perm = _perm_from_name(name, len(gens))
        for j, x in enumerate(gens):
            images[g, x] = {gens[perm[j]]: R.field.one}
    return HopfAction(hopf, R, images)


def _perm_from_name(name, degree):
    """Parse a cycle-notation element name like '(12)(34)' into the list of
    images of the points 0..degree-1."""
    perm = list(range(degree))
    if name == "e":
        return perm
    for chunk in name.replace(")(", ")|(").split("|"):
        # the point of each digit 1..9, and -1 for any other character
        pts = ["123456789".find(ch) for ch in chunk.strip("()")]
        if not pts or not all(0 <= p < degree for p in pts):
            raise ActionNotAdmissible(
                f"{name!r} names no permutation, in cycle notation, of the "
                f"points 1..{degree} (the degree-1 generators of R)")
        for a, b in zip(pts, pts[1:] + pts[:1]):
            perm[a] = b
    return perm


def smash_twist(action, name="smash"):
    """tau(h (x) r) = sum ^(h1) r (x) h2, with the antipode-formula inverse.

    The module and module-algebra axioms are verified on basis words up to
    degree 2 before the twist is built; the action verified the Hopf
    axioms when it was made.
    """
    H = action.hopf.algebra
    R = action.module
    hopf = action.hopf
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

    return TwistingMap(H, R, rule, name=name, inverse_rule=inverse_rule,
                       strongly_graded=True)

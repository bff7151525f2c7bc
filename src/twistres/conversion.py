"""Conversion between resolutions: compatible pairs, pi/iota, bootstrapping.

Given compatible chain maps into (or out of) the reduced bar resolutions of
the two factors, the twisted AW/EZ maps convert between the reduced bar
resolution of R (x)_tau S and a twisted product resolution C (x)_tau D.
When only injective maps are available, a one-sided inverse is built degree
by degree: invert on the image, lift on an echelon-pivot complement of the
free generators by solving the chain-square equation exactly.
"""

from __future__ import annotations

from .awez import ChainMap
from .complexes import (DColumns, KoszulComplex, KoszulLeftCompat,
                        TwistedProductComplex, block_matrix, down)
from .errors import (ActionNotAdmissible, NotLiftable, TwistInconsistent,
                     TwistresError)
from .linalg import (SparseMatrix, accumulate, accumulate_scaled, columns,
                     rref, solve_linear_system, summed)


class CompatibleChainMapPair:
    """Chain maps psi_R: C -> C' and psi_S: D -> D' with their four twists."""

    __slots__ = ("psi_R", "psi_S", "tau_C", "tau_Cp", "tau_D", "tau_Dp")

    def __init__(self, psi_R: ChainMap, psi_S: ChainMap, tau_C, tau_Cp, tau_D,
                 tau_Dp):
        self.psi_R, self.psi_S = psi_R, psi_S
        self.tau_C, self.tau_Cp = tau_C, tau_Cp
        self.tau_D, self.tau_Dp = tau_D, tau_Dp

    def __eq__(self, other):
        if other.__class__ is not CompatibleChainMapPair:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)


def check_compatible(pair, S, R, n_max, d_max):
    """Exhaustive basis check of both compatibility squares.

    Left square: (psi_R (x) 1) tau_C = tau_C' (1 (x) psi_R); right square:
    (1 (x) psi_S) tau_D = tau_D' (psi_S (x) 1), with coefficient words up
    to degree 2.  psi is summed through ``apply_into``, once per basis word
    on the right of each square.  Returns (ok, witness).
    """
    s_words = S.basis_upto(min(2, S.max_degree))
    r_words = R.basis_upto(min(2, R.max_degree))
    psi_R, psi_S = pair.psi_R.apply_into, pair.psi_S.apply_into
    one = R.field.one
    for n in range(n_max + 1):
        for d in range(d_max + 1):
            for comp, word in pair.psi_R.source.basis(n, d):
                image = summed(psi_R, one, n, comp, word)
                for s in s_words:
                    lhs = {}
                    for (w2, s2), c in pair.tau_C.apply(n, s, word).items():
                        for ((), w3), c2 in summed(psi_R, c, n, (), w2).items():
                            accumulate(lhs, (w3, s2), c2)
                    rhs = {}
                    for ((), w2), c in image.items():
                        for (w3, s2), c2 in pair.tau_Cp.apply(n, s, w2).items():
                            accumulate(rhs, (w3, s2), c * c2)
                    if lhs != rhs:
                        return False, ("left", n, comp, word, s, lhs, rhs)
            for comp, word in pair.psi_S.source.basis(n, d):
                image = summed(psi_S, one, n, comp, word)
                for r in r_words:
                    lhs = {}
                    for (r2, w2), c in pair.tau_D.apply(n, word, r).items():
                        for ((), w3), c2 in summed(psi_S, c, n, (), w2).items():
                            accumulate(lhs, (r2, w3), c2)
                    rhs = {}
                    for ((), w2), c in image.items():
                        for (r2, w3), c2 in pair.tau_Dp.apply(n, w2, r).items():
                            accumulate(rhs, (r2, w3), c * c2)
                    if lhs != rhs:
                        return False, ("right", n, comp, word, r, lhs, rhs)
    return True, None


def tensor_chain_maps(pair, X, Xp, name=None):
    """psi_R (x) psi_S on the twisted product complexes.

    Both chain maps have homological degree 0, so the Koszul sign
    convention contributes no signs here.
    """
    psi_R, psi_S = pair.psi_R, pair.psi_S

    def oracle(out, factor, n, comp, word):
        i, j = comp
        cw, dw = X.split(comp, word)
        right = summed(psi_S.apply_into, X.A.field.one, j, (), dw)
        for ((), cw2), c1 in summed(psi_R.apply_into, factor, i, (), cw).items():
            for ((), dw2), c2 in right.items():
                accumulate(out, (comp, cw2 + dw2), c1 * c2)

    return ChainMap(X, Xp, oracle, name or f"{psi_R.name}(x){psi_S.name}")


class Conversion:
    """Chain maps between X = C (x)_tau D and rbar(R (x)_tau S) with
    pi o iota = 1.

    ``pair`` carries iota_C: C -> rbar(R) and iota_D: D -> rbar(S);
    ``iota_tensor`` is iota_C (x) iota_D into rbar(R) (x)_tau rbar(S) and
    ``iota`` is EZ o iota_tensor; ``pi`` maps rbar(R (x)_tau S) -> X and
    ``pi_RH`` is pi o EZ: rbar(R) (x)_tau rbar(S) -> X; ``window`` is the
    (n_max, d_max) the pairs and pi were built on.
    """

    __slots__ = ("X", "pair", "iota_tensor", "iota", "pi", "pi_RH", "window")

    def __init__(self, X: TwistedProductComplex, pair: CompatibleChainMapPair,
                 iota_tensor: ChainMap, iota: ChainMap, pi: ChainMap,
                 pi_RH: ChainMap, window: tuple):
        self.X, self.pair, self.iota_tensor = X, pair, iota_tensor
        self.iota, self.pi, self.pi_RH, self.window = iota, pi, pi_RH, window

    def __eq__(self, other):
        if other.__class__ is not Conversion:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)


def conversion_pi_iota(maps, X, inclusions, n_max, d_max, projections=None,
                       name=None):
    """iota = EZ (iota_C (x) iota_D), and pi = (pi_C (x) pi_D) AW or a lift.

    ``inclusions`` carries iota_C: C -> rbar(R) and iota_D: D -> rbar(S);
    ``projections``, when given, carries pi_C and pi_D the other way.
    Without projections, pi is the ``BootstrapLift`` of iota through
    (n_max, d_max).  Each given pair must pass ``check_compatible`` on that
    window, else ``TwistInconsistent`` carries its witness.  ``name``
    names iota_C (x) iota_D.
    """
    for pair in filter(None, (inclusions, projections)):
        ok, witness = check_compatible(pair, maps.S, maps.R, n_max, d_max)
        if not ok:
            raise TwistInconsistent(
                f"{pair.psi_R.name}, {pair.psi_S.name}: the {witness[0]} "
                f"compatibility square fails in degree {witness[1]}",
                witness=witness)
    iota_tensor = tensor_chain_maps(inclusions, X, maps.prod_rbar, name)
    iota = maps.ez_reduced.compose(iota_tensor)
    if projections is None:
        pi = BootstrapLift(iota, n_max, d_max).chain_map
    else:
        pi_tensor = tensor_chain_maps(projections, maps.prod_rbar, X)
        pi = pi_tensor.compose(maps.aw_reduced)
    return Conversion(X, inclusions, iota_tensor, iota, pi,
                      pi.compose(maps.ez_reduced), (n_max, d_max))


def koszul_inclusion(K, rbar_R):
    """The standard inclusion chain map K -> reduced bar resolution of R."""

    def oracle(out, factor, n, comp, word):
        for w, c in K.include_word(n, comp, word).items():
            accumulate(out, ((), w), factor * c)

    return ChainMap(K, rbar_R, oracle, "koszul inclusion")


class BootstrapLift:
    """One-sided inverse of an injective chain map into a reduced bar complex.

    Built block by block, as in the comparison-theorem diagram chase, over
    the (n, d) blocks in order: on the image of iota invert directly; on an
    echelon-pivot complement of the generator words lift through the
    differential by solving an exact sparse linear system on X's degree-d
    block ``block_matrix(cols, n, [d])``.  The degree -1 seed is the
    identity on the resolved algebra, realized here as the
    augmentation-preserving solve in degree 0.  X must be graded (d_X keeps
    the internal degree); a differential leaving the block is refused by
    ``block_matrix``, which names it.  The first failing block raises at
    once.
    """

    def __init__(self, iota, n_max, d_max):
        self.iota = iota
        self.X = iota.source
        self.B = iota.target          # reduced bar complex of A
        self.A = self.B.A
        self.n_max = n_max
        self.d_max = d_max
        self._gen_values = {}          # (n, inner_word) -> {key: coeff} of X_n
        self.chain_map = ChainMap(self.B, self.X, self._oracle, "bootstrap pi")
        cols = DColumns(self.X, d_max)
        for n in range(n_max + 1):
            for d in range(d_max + 1):
                self._lift_block(cols, n, d)

    def _lift_block(self, cols, n, d):
        """pi on the generator words of B at (n, d).

        iota's images of X's generators, as rows over the words, are brought
        to reduced echelon form.  A complement word takes its lift.  A pivot
        word is its echelon row minus the row's non-pivot part, so it takes
        the row's coordinates over the images (one solve for all rows) minus
        the lifts of that part.
        """
        unit = self.A.unit
        gens = self.X.free_generators(n, d)
        words = self.B.generator_words(n, d)
        index = {w: k for k, w in enumerate(words)}
        rows = []
        for g in gens:
            row = {}
            for ((), word), c in self.iota.apply(n, g).data.items():
                if word[0] != unit or word[-1] != unit:
                    raise NotLiftable(
                        "iota image leaves the free-generator window "
                        f"k (x) Abar^{n} (x) k", block=(n, d))
                row[index[word[1:-1]]] = c
            rows.append(row)
        echelon, pivots = rref(rows, len(words))
        pivot_set = set(pivots)
        complement = [w for k, w in enumerate(words) if k not in pivot_set]
        if complement:
            self._lift_complement(cols, n, d, complement)
        if not pivots:
            return
        width = len(words)
        coords = solve_linear_system(
            SparseMatrix(width, len(gens), columns(rows, width)), echelon)
        for k, row, x in zip(pivots, echelon, coords):
            if x is None:
                raise NotLiftable("internal: echelon row not in image span",
                                  block=(n, d))
            value = {}
            for t, c in x.items():
                accumulate_scaled(value, gens[t].data, c)
            for j, c in row.items():
                if j != k:
                    accumulate_scaled(value, self._gen_values[(n, words[j])], -c)
            self._gen_values[(n, words[k])] = value

    def _lift_complement(self, cols, n, d, words):
        """Solve d_X xi = pi_(n-1)(d_B e) for the complement words e of the
        block in one elimination (eps_X xi = eps_B e at n = 0)."""
        unit = self.A.unit
        system, dom, cod = block_matrix(cols, n, [d])
        index = {key: i for i, key in enumerate(cod)}
        targets = []
        for w in words:
            rhs = down(self.B, n, (), (unit,) + w + (unit,))
            if n:
                rhs = self.evaluate(n - 1, rhs)
            if not rhs.data.keys() <= index.keys():
                raise NotLiftable("lift target outside the degree block",
                                  block=(n, d))
            targets.append({index[key]: c for key, c in rhs.data.items()})
        for w, sol in zip(words, solve_linear_system(system, targets)):
            if sol is None:
                raise NotLiftable(
                    "inconsistent lift system (free-complement hypothesis failed)",
                    block=(n, d))
            self._gen_values[(n, w)] = {dom[j]: c for j, c in sol.items()}

    def _oracle(self, out, factor, n, comp, word):
        inner = word[1:-1]
        value = self._gen_values.get((n, inner))
        if value is None:
            raise NotLiftable(
                f"bootstrap lift not built for a degree-{n} word of internal "
                f"degree {self.B.term(n).degree(comp, word)}")
        for (comp2, word2), c in value.items():
            self.X.act_into(out, factor * c, n, word[0], comp2, word2, word[-1])

    def evaluate(self, n, elt):
        return self.chain_map.apply(n, elt)


def smash_product_complex(maps, n_max):
    """X = K_R (x)_tau rbar(H) with its compatibility oracles, no chain maps.

    X.tau_C is ``maps.prod_rbar.tau_C`` restricted to K_R and X.tau_D is
    ``maps.prod_rbar.tau_D`` itself, so both complexes share their memos.
    X is a complex only if tau_C keeps K_R, so it is evaluated on K_2 for
    every degree-0 word h of H first; an image leaving K_2 raises
    ``ActionNotAdmissible`` with witness (h, index of the K_2 basis vector).
    """
    R, H = maps.R, maps.S
    K = KoszulComplex(R, n_max)
    tau_K = KoszulLeftCompat(maps.prod_rbar.tau_C, K)
    for h in H.basis(0):
        for idx in range(K.spaces[2].dim):
            try:
                tau_K.apply(2, h, (R.unit, idx, R.unit))
            except TwistresError:
                raise ActionNotAdmissible(
                    f"{H.format_word(h)} does not preserve the relation "
                    f"space (basis vector {idx})", witness=(h, idx)) from None
    return TwistedProductComplex(maps.A, K, maps.rbar_S, tau_K,
                                 maps.prod_rbar.tau_D, n_max,
                                 name=f"K({R.name})(x)rbar({H.name})")


def smash_koszul_pipeline(maps, n_max, d_max):
    """The conversion of X = K_R (x)_tau rbar(H) (``smash_product_complex``)
    through the Koszul inclusion of K_R and the identity of rbar(H), with
    pi lifted from iota.  ``maps`` is the TwistedBarMaps bundle of
    A = R (x)_tau H for a smash twist."""
    X = smash_product_complex(maps, n_max)
    pair = CompatibleChainMapPair(
        psi_R=koszul_inclusion(X.C, maps.rbar_R),
        psi_S=ChainMap.identity(maps.rbar_S),
        tau_C=X.tau_C, tau_Cp=maps.prod_rbar.tau_C,
        tau_D=X.tau_D, tau_Dp=X.tau_D)
    return conversion_pi_iota(maps, X, pair, n_max, d_max,
                              name="iota_R (x) 1")

"""Complexes of free bimodules with distinguished tensor-word bases.

All complexes expose the same oracle surface: term signatures, a
differential on basis words, an augmentation in degree 0, the bimodule
action of the resolved algebra evaluated on basis words, and free
generators per (homological degree, internal degree).  The differential and
the action add into the caller's sum: ``diff_into(out, factor, n, comp,
word)`` and ``act_into(out, factor, n, a_left, comp, word, a_right)`` add
factor times their value to ``out``, a dict {(comp, word): coeff} the caller
owns, dropping every key whose sum is zero (``linalg.accumulate``).
``Complex.diff_word``/``act_word`` are the one-word wrappers returning a
``FreeElement``.  The checks read the differentials by column (DColumns);
matrices are only assembled per block when ranks are needed.
"""

from __future__ import annotations

from bisect import bisect_right

from .errors import BudgetExceeded, InstanceError, TwistresError
from .linalg import (FlatVector, Memo, SparseMatrix, accumulate,
                     linear_extension, null_space, rank, summed)
from .tensors import (FreeElement, FullSlot, ReducedSlot, Signature,
                      SubspaceSlot, Term, TensorSubspace, tuple_power)
from .twisting import CompatMap


class Complex:
    """Shared plumbing for all complex families: the one-word and
    element forms of each family's ``diff_into``/``act_into``."""

    def __init__(self, A, n_max, name):
        self.A = A
        self.n_max = n_max
        self.name = name
        self._terms = {}

    def term(self, n):
        # only degrees inside the budget are ever stored
        t = self._terms.get(n)
        if t is None:
            if n < 0 or n > self.n_max:
                raise BudgetExceeded(
                    f"degree {n} outside homological budget of {self.name}",
                    degree=n)
            t = self._terms[n] = self._build_term(n)
        return t

    def diff_word(self, n, comp, word):
        return self.differential(n, self.single(n, comp, word))

    def act_word(self, n, a_left, comp, word, a_right):
        return self.act(n, self.A.monomial(a_left), self.single(n, comp, word),
                        self.A.monomial(a_right))

    def differential(self, n, elt):
        if n == 0:
            raise TwistresError("d_0 is the augmentation: use aug_word()")
        out = FreeElement(self.term(n - 1))
        for (comp, word), c in elt.data.items():
            self.diff_into(out.data, c, n, comp, word)
        return out

    def act(self, n, left, elt, right):
        out = FreeElement(self.term(n))
        for lw, lc in left.data.items():
            for (comp, word), c in elt.data.items():
                for rw, rc in right.data.items():
                    self.act_into(out.data, lc * c * rc, n, lw, comp, word, rw)
        return out

    def basis(self, n, d):
        return self.term(n).basis(d)

    def single(self, n, comp, word, coeff=None):
        out = FreeElement(self.term(n))
        out.add_term(comp, word, coeff if coeff is not None else self.A.field.one)
        return out


class BarComplex(Complex):
    """Bar and reduced (normalized) bar resolution of an algebra A.

    A degree-n word is (a_0, middle letters, a_(n+1)): the outer letters
    run over A and carry the bimodule action, the middle ones fill
    ``inner_slots(n)``.
    """

    def __init__(self, A, reduced, n_max):
        tag = "reduced bar" if reduced else "bar"
        super().__init__(A, n_max, f"{tag}({A.name})")
        self.reduced = reduced

    def inner_slots(self, n):
        return [ReducedSlot(self.A) if self.reduced else FullSlot(self.A)] * n

    def _build_term(self, n):
        slots = [FullSlot(self.A), *self.inner_slots(n), FullSlot(self.A)]
        return Term([((), Signature(slots))], name=f"{self.name}_{n}")

    def diff_into(self, out, factor, n, comp, word):
        sign = factor
        for i in range(n + 1):
            merged = self.A.mul_words(word[i], word[i + 1])
            inner_merge = self.reduced and 1 <= i <= n - 1
            for w, c in merged.items():
                if inner_merge and w == self.A.unit:
                    continue
                accumulate(out, ((), word[:i] + (w,) + word[i + 2:]), sign * c)
            sign = -sign

    def aug_word(self, comp, word):
        return self.A.element(self.A.mul_words(word[0], word[1]))

    def act_into(self, out, factor, n, a_left, comp, word, a_right):
        for wl, cl in self.A.mul_words(a_left, word[0]).items():
            cl = factor * cl
            for wr, cr in self.A.mul_words(word[-1], a_right).items():
                accumulate(out, ((), (wl,) + word[1:-1] + (wr,)), cl * cr)

    def generator_words(self, n, d):
        """Inner tuples of the free bimodule basis in degree n."""
        return Signature(self.inner_slots(n)).words(d)

    def free_generators(self, n, d):
        unit = self.A.unit
        out = []
        for inner in self.generator_words(n, d):
            out.append(self.single(n, (), (unit,) + inner + (unit,)))
        return out


class KoszulComplex(BarComplex):
    """Koszul resolution K(R) of a quadratic algebra R, inside rbar(R).

    The middle letter of a degree-n word indexes a basis vector of the
    Koszul space K_n, the intersection of the V^i (x) I_2 (x) V^(n-2-i) in
    V^n, V = R_1 and I_2 the kernel of R's multiplication V (x) V -> R_2
    (all of V at n = 1).  K_n is the null space of the rows
    pre (x) m (x) suf, m that multiplication, and keeps an echelon basis.
    The action, augmentation and free generators are the reduced bar's; the
    differential is the reduced bar's on the included word, read back in K
    (``read_back``).  R must be connected and graded by word length.
    """

    def __init__(self, R, n_max):
        if len(R.basis(0)) != 1 or not R.strongly_graded:
            raise InstanceError(
                f"{R.name} is not connected and graded: no Koszul complex")
        super().__init__(R, True, n_max)
        self.name = f"koszul({R.name})"
        v_words = R.basis(1)
        pairs = tuple_power(v_words, 2)
        # the multiplication V (x) V -> R_2, one row per word of R_2
        mult = {}
        for t, (a, b) in enumerate(pairs):
            for w, c in R.mul_words(a, b).items():
                mult.setdefault(w, {})[t] = c
        self.spaces = {}
        for n in range(1, max(n_max, 2) + 1):
            words = tuple_power(v_words, n)
            index = {w: i for i, w in enumerate(words)}
            rows = []
            for j in range(n - 1):
                suffixes = tuple_power(v_words, n - 2 - j)
                for pre in tuple_power(v_words, j):
                    for row in mult.values():
                        for suf in suffixes:
                            rows.append({index[pre + pairs[t] + suf]: c
                                         for t, c in row.items()})
            vectors = [{words[i]: c for i, c in vec.items()}
                       for vec in null_space(rows, len(words), R.field.one)]
            label = f"K{n}" if n > 1 else "V"
            self.spaces[n] = TensorSubspace(R, n, vectors, label)

    def dim_tilde(self, n):
        if n == 0:
            return 1
        return self.spaces[n].dim

    def inner_slots(self, n):
        return [SubspaceSlot(self.spaces[n])] if n else []

    def diff_into(self, out, factor, n, comp, word):
        faces = {}
        for bar_word, c in self.include_word(n, comp, word).items():
            super().diff_into(faces, factor * c, n, comp, bar_word)
        image = {w: c for ((), w), c in faces.items()}
        for w, c in self.read_back(n - 1, image).items():
            accumulate(out, ((), w), c)

    def include_word(self, n, comp, word):
        """Expand a Koszul word into reduced-bar words of R (the inclusion)."""
        if n == 0:
            return {word: self.A.field.one}
        r0, idx, r1 = word
        return {(r0,) + vs + (r1,): c
                for vs, c in self.spaces[n].basis[idx].items()}

    def read_back(self, n, image):
        """The degree-n Koszul words whose inclusion is ``image``, a dict
        {reduced-bar word: coeff}.  The middle letters of the words sharing
        their outer letters are coordinatized in K_n; an image leaving K_n
        raises ``TwistresError``."""
        if n == 0:
            return image
        middles = {}             # (r0, r1) -> {middle letters: coeff}
        for word, c in image.items():
            middles.setdefault((word[0], word[-1]), {})[word[1:-1]] = c
        out = {}
        for (r0, r1), vec in middles.items():
            for idx, c in self.spaces[n].coordinatize(vec).items():
                out[(r0, idx, r1)] = c
        return out


class KoszulLeftCompat(CompatMap):
    """tau_K: S (x) K_n -> K_n (x) S, the reduced-bar crossing restricted to K.

    A Koszul word is expanded by the inclusion into reduced-bar words, each
    is crossed by ``bar`` (the reduced bar's ``BarLeftCompat``), and the
    images are read back in K (``read_back``), refusing one leaving K_n.
    """

    def __init__(self, bar, koszul):
        super().__init__()
        self.koszul = koszul
        self.bar = bar

    def _apply(self, n, s_word, word):
        images = {}              # s -> {reduced-bar word: coeff}
        for bar_word, c in self.koszul.include_word(n, (), word).items():
            for (full, s2), c2 in self.bar.apply(n, s_word, bar_word).items():
                accumulate(images.setdefault(s2, {}), full, c * c2)
        return {(kw, s2): c for s2, image in images.items()
                for kw, c in self.koszul.read_back(n, image).items()}


class IntermediateComplex(Complex):
    """The complex Y with Y_n = R^(n+2) (x) S^(n+2) mediating AW and EZ.

    Y_n is the bidegree (n, n) of P = bar(R) (x)_tau bar(S): the action,
    augmentation and free generators are P's, under Y's one component
    ``()``; the differential, multiplying the ell-th pairs of both blocks
    at once, is Y's own.
    """

    def __init__(self, P, n_max):
        super().__init__(P.A, n_max, f"Y({P.A.name})")
        self.P = P
        self.R, self.S = P.A.R, P.A.S

    def _build_term(self, n):
        slots = [FullSlot(self.R)] * (n + 2) + [FullSlot(self.S)] * (n + 2)
        return Term([((), Signature(slots))], name=f"{self.name}_{n}")

    def split(self, n, word):
        return word[:n + 2], word[n + 2:]

    def diff_into(self, out, factor, n, comp, word):
        rpart, spart = self.split(n, word)
        sign = factor
        for ell in range(n + 1):
            rm = self.R.mul_words(rpart[ell], rpart[ell + 1])
            sm = self.S.mul_words(spart[ell], spart[ell + 1])
            for rw, cr in rm.items():
                new_r = rpart[:ell] + (rw,) + rpart[ell + 2:]
                for sw, cs in sm.items():
                    new_s = spart[:ell] + (sw,) + spart[ell + 2:]
                    accumulate(out, ((), new_r + new_s), sign * cr * cs)
            sign = -sign

    def aug_word(self, comp, word):
        return self.P.aug_word((0, 0), word)

    def act_into(self, out, factor, n, a_left, comp, word, a_right):
        self.P.pair_act_into(out, factor, (), (n, n), a_left,
                             self.split(n, word), a_right)

    def free_generators(self, n, d):
        return [self.single(n, (), word)
                for word in self.P.generator_words(n, n, d)]


class TwistedProductComplex(Complex):
    """Total complex X = C (x)_tau D with the composed bimodule action.

    Each factor is a ``BarComplex`` (bar, reduced bar or ``KoszulComplex``),
    whose action multiplies the outer letters of a word: ``pair_act_into``
    does so inline.  ``_factor_cache`` keeps the factors' differentials.
    """

    def __init__(self, A, C, D, tau_C, tau_D, n_max, name=None):
        super().__init__(A, n_max, name or f"{C.name}(x){D.name}")
        self.C = C
        self.D = D
        self.tau = A.tau
        self.tau_C = tau_C
        self.tau_D = tau_D
        # ("C" or "D", n, factor word) -> {factor word: coeff}
        self._factor_cache = Memo(self._factor_diff)

    def _factor_diff(self, key):
        # the differential is looked up on the factor at each miss, so a
        # wrapper installed on the factor's class sees every real evaluation
        which, n, word = key
        diff_into = getattr(self, which).diff_into
        faces = summed(diff_into, self.A.field.one, n, (), word)
        return {w: c for ((), w), c in faces.items()}

    def _c_sig(self, i):
        return self.C.term(i).components[0][1]

    def _d_sig(self, j):
        return self.D.term(j).components[0][1]

    def _build_term(self, n):
        comps = []
        for i in range(n, -1, -1):
            j = n - i
            sig = Signature(self._c_sig(i).slots + self._d_sig(j).slots)
            comps.append(((i, j), sig))
        return Term(comps, name=f"{self.name}_{n}")

    def split(self, comp, word):
        i, j = comp
        k = len(self._c_sig(i))
        return word[:k], word[k:]

    def diff_into(self, out, factor, n, comp, word):
        i, j = comp
        cw, dw = self.split(comp, word)
        if i >= 1:
            for cw2, c in self._factor_cache["C", i, cw].items():
                accumulate(out, ((i - 1, j), cw2 + dw), factor * c)
        if j >= 1:
            sign = factor if i % 2 == 0 else -factor
            for dw2, c in self._factor_cache["D", j, dw].items():
                accumulate(out, ((i, j - 1), cw + dw2), sign * c)

    def aug_word(self, comp, word):
        cw, dw = self.split(comp, word)
        r_elt = self.C.aug_word((), cw)
        s_elt = self.D.aug_word((), dw)
        return self.A.pair_element(r_elt, s_elt)

    def pair_act_into(self, out, factor, key, bidegree, a_left, words, a_right):
        """Add factor * (rL # sL) (cw (x) dw) (rR # sR) to the dict ``out``
        under the component ``key``, for a_left = (rL, sL), a_right =
        (rR, sR) and the factor words (cw, dw) = ``words`` of ``bidegree``:
        sL crosses cw by tau_C, rR crosses dw back by tau_D, the middle pair
        by tau, and the outer letters of both words are multiplied."""
        (i, j), (cw, dw), (rL, sL), (rR, sR) = bidegree, words, a_left, a_right
        mul_C, mul_D = self.C.A.mul_words, self.D.A.mul_words
        for (cw1, s1), c1 in self.tau_C.apply(i, sL, cw).items():
            c1 = factor * c1
            for (r1, dw1), c2 in self.tau_D.apply(j, dw, rR).items():
                for (r2, s2), c3 in self.tau.apply(s1, r1).items():
                    base = c1 * c2 * c3
                    for w0, c4 in mul_C(rL, cw1[0]).items():
                        for wl, c5 in mul_C(cw1[-1], r2).items():
                            new_c = (w0,) + cw1[1:-1] + (wl,)
                            for v0, c6 in mul_D(s2, dw1[0]).items():
                                for vl, c7 in mul_D(dw1[-1], sR).items():
                                    new_d = (v0,) + dw1[1:-1] + (vl,)
                                    accumulate(out, (key, new_c + new_d),
                                               base * c4 * c5 * c6 * c7)

    def act_into(self, out, factor, n, a_left, comp, word, a_right):
        self.pair_act_into(out, factor, comp, comp, a_left,
                           self.split(comp, word), a_right)

    def generator_words(self, i, j, d):
        """The words of the free generators of bidegree (i, j) in internal
        degree d: the factors' generator words, padded by units."""
        r1, s1 = self.C.A.unit, self.D.A.unit
        return [(r1,) + cg + (r1, s1) + dg + (s1,)
                for dc in range(d + 1)
                for cg in self.C.generator_words(i, dc)
                for dg in self.D.generator_words(j, d - dc)]

    def free_generators(self, n, d):
        return [self.single(n, (i, n - i), word) for i in range(n, -1, -1)
                for word in self.generator_words(i, n - i, d)]


class ExactnessEntry:
    __slots__ = ("position", "degrees", "dim", "rank_out", "rank_in",
                 "composite_zero")

    def __init__(self, position: int, degrees: tuple, dim: int, rank_out: int,
                 rank_in: int, composite_zero: bool = True):
        self.position, self.degrees, self.dim = position, degrees, dim
        self.rank_out, self.rank_in = rank_out, rank_in
        self.composite_zero = composite_zero

    def __eq__(self, other):
        if other.__class__ is not ExactnessEntry:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    @property
    def homology_dim(self):
        # rank bookkeeping certifies exactness only on top of d o d = 0;
        # a nonzero composite is reported as a defect in its own right
        if not self.composite_zero:
            return None
        return self.dim - self.rank_out - self.rank_in

    @property
    def exact(self):
        return self.composite_zero and self.homology_dim == 0


class ExactnessReport:
    __slots__ = ("complex_name", "entries")

    def __init__(self, complex_name: str, entries: list | None = None):
        self.complex_name = complex_name
        self.entries = [] if entries is None else entries

    def __eq__(self, other):
        if other.__class__ is not ExactnessReport:
            return NotImplemented
        return all(getattr(self, a) == getattr(other, a) for a in self.__slots__)

    @property
    def exact(self):
        return all(e.exact for e in self.entries)


def down(X, n, comp, word):
    """The differential of X on a degree-n word, the augmentation at n = 0."""
    return X.aug_word(comp, word) if n == 0 else X.diff_word(n, comp, word)


class DColumns:
    """The differentials of one complex by column, over internal degrees 0..d_max.

    ``basis(n)`` lays out the words of X_n degree by degree (the algebra's
    basis at n = -1).  ``column(n, j)`` is d_n (the augmentation at n = 0)
    of its j-th word, a ``FlatVector`` of (row, coeff) over the positions of
    ``basis(n - 1)``, evaluated when first read and kept, read-only, until
    ``release(n)``.  ``word_column(n, word)`` reads the same column by
    word, and evaluates it without keeping it while X_n is not laid out,
    so a reader that never lays X_n out streams its columns.
    """

    def __init__(self, X, d_max):
        self.X, self.d_max = X, d_max
        self._layouts, self._columns = {}, {}

    def _layout(self, n):
        """(words, {word: position}, position of each degree's first word)."""
        if n not in self._layouts:
            words, starts = [], []
            for d in range(self.d_max + 1):
                starts.append(len(words))
                words.extend(self.X.A.basis(d) if n == -1 else self.X.basis(n, d))
            self._layouts[n] = (words, {w: i for i, w in enumerate(words)},
                                starts + [len(words)])
        return self._layouts[n]

    def basis(self, n):
        return self._layout(n)[0]

    def words(self, n):
        """The words of X_n in ``basis(n)`` order, without laying X_n out."""
        if n in self._layouts:
            return self._layouts[n][0]
        return (w for d in range(self.d_max + 1) for w in self.X.basis(n, d))

    def span(self, n, degrees):
        """Positions [lo, hi) of the words of X_n in the run ``degrees``."""
        starts = self._layout(n)[2]
        return starts[degrees[0]], starts[degrees[-1] + 1]

    def positions(self, n, data, label, degrees=None):
        """``data``, a dict {word of X_n: coeff}, keyed by position, as a
        read-only ``FlatVector``; a word outside the window is refused,
        naming the run ``degrees`` (all of 0..d_max by default) that
        ``data`` belongs to."""
        index = self._layout(n)[1]
        try:
            return FlatVector.of(data, index)
        except KeyError as exc:
            raise leaves_block(label, degrees or range(self.d_max + 1),
                               exc.args[0]) from None

    def element(self, n, data):
        """The element of X_n with coefficient c at each position i of ``data``."""
        words = self.basis(n)
        return FreeElement(self.X.term(n), {words[i]: c for i, c in data.items()})

    def _evaluate(self, n, key, degree):
        return self.positions(n - 1, down(self.X, n, *key).data,
                              f"d_{n} of {self.X.name}", [degree])

    def column(self, n, j):
        cols = self._columns.get(n)
        if cols is None:
            cols = self._columns[n] = [None] * len(self.basis(n))
        if cols[j] is None:
            # the degree of the j-th word: the last degree starting at or before j
            degree = bisect_right(self._layout(n)[2], j) - 1
            cols[j] = self._evaluate(n, self.basis(n)[j], degree)
        return cols[j]

    def word_column(self, n, key, label):
        """d_n of the word ``key`` of X_n: ``column`` at its position while
        X_n is laid out, else evaluated and not kept.  A word outside the
        window (by its degree, when X_n is not laid out) is refused, naming
        ``label``."""
        if n in self._layouts:
            j = self._layouts[n][1].get(key)
            if j is not None:
                return self.column(n, j)
        else:
            degree = self.X.term(n).degree(*key)
            if 0 <= degree <= self.d_max:
                return self._evaluate(n, key, degree)
        raise leaves_block(label, range(self.d_max + 1), key)

    def columns(self, n):
        return [self.column(n, j) for j in range(len(self.basis(n)))]

    def release(self, n):
        """Forget the columns of X_n and the layout of X_(n-1) keying their
        rows."""
        self._columns.pop(n, None)
        self._layouts.pop(n - 1, None)


def leaves_block(label, degrees, key):
    """The error refusing ``key``, a word outside the run ``degrees``."""
    return TwistresError(f"{label} leaves the degree block {list(degrees)} "
                         f"at {key}")


def d_columns(store, X, d_max):
    """X's DColumns over degrees 0..d_max, and the function its reader calls
    with n once no later step of its own reads d_n (``DColumns.release``).

    ``store`` (a dict keyed by complex, or None) holds the DColumns its
    caller entered, before their first reader, for the complexes a later
    reader reads again.  One over d_max is returned with a function that
    does nothing, so it keeps every column; otherwise the columns are new,
    read by this reader alone, and released degree by degree.
    """
    cols = None if store is None else store.get(X)
    if cols is not None and cols.d_max == d_max:
        return cols, lambda n: None
    cols = DColumns(X, d_max)
    return cols, cols.release


def block_matrix(columns, n, degrees):
    """Matrix of d_n (the augmentation at n = 0) on the run of internal
    degrees ``degrees``, read from the DColumns ``columns``.

    Returns ``(matrix, domain, codomain)``, the words indexing its columns
    and rows.
    """
    lo, hi = columns.span(n, degrees)
    row_lo, row_hi = columns.span(n - 1, degrees)
    matrix = SparseMatrix(row_hi - row_lo, hi - lo)
    rows = matrix.rows
    for j in range(lo, hi):
        for i, c in columns.column(n, j).items():
            if not row_lo <= i < row_hi:
                raise leaves_block(f"d_{n} of {columns.X.name}", degrees,
                                   columns.basis(n - 1)[i])
            rows[i - row_lo][j - lo] = c
    return (matrix, columns.basis(n)[lo:hi],
            columns.basis(n - 1)[row_lo:row_hi])


def check_truncated_exactness(X, n_max, d_max, graded=True, columns=None):
    """Rank bookkeeping certifying no homology in the truncated strands.

    Graded complexes are checked per internal degree, on blocks sliced out
    of the d-columns over degrees 0..d_max (``d_columns(columns, ...)``);
    filtered ones on the whole range (the differential may drop degree).
    Degree n is read with degree n + 1, for the composite d_n d_(n+1), and
    released after it.
    """
    cols, release = d_columns(columns, X, d_max)
    blocks = [(d,) for d in range(d_max + 1)] if graded else [tuple(range(d_max + 1))]
    strands = {degrees: [] for degrees in blocks}   # (rows, cols, rank, d d = 0)
    outer = None
    for n in range(n_max + 1):
        inner = cols.columns(n)
        for degrees in blocks:
            mat = block_matrix(cols, n, degrees)[0]
            lo, hi = cols.span(n, degrees)
            zero = n == 0 or first_nonzero_column(outer, inner[lo:hi]) is None
            strands[degrees].append((mat.nrows, mat.ncols, rank(mat), zero))
        if n:
            release(n - 1)
        outer = inner
    report = ExactnessReport(X.name)
    for degrees, strand in strands.items():
        report.entries.append(ExactnessEntry(-1, degrees, strand[0][0], 0,
                                             strand[0][2]))
        for n in range(n_max):
            report.entries.append(ExactnessEntry(
                n, degrees, strand[n][1], strand[n][2], strand[n + 1][2],
                strand[n + 1][3]))
    return report


def first_nonzero_column(outer, inner):
    """The first column of ``inner`` whose product with ``outer`` is nonzero.

    ``inner`` is an iterable of columns, vectors {row: coeff} (dicts or
    ``FlatVector``s), and ``outer`` a list of columns indexed by their rows.
    Returns ``(index, column)``, the column of ``outer * inner`` as a dict
    over the rows of ``outer``, or ``None`` when the product vanishes
    (im d_in <= ker d_out).
    """
    for j, column in enumerate(inner):
        product = linear_extension(outer.__getitem__, column)
        if product:
            return j, product
    return None


def check_d_squared(X, n_max, d_max, columns=None):
    """d o d = 0 as products of consecutive blocks over degrees 0..d_max.

    Tests eps d_1 and d_(n-1) d_n for n = 2..n_max on the columns of
    ``d_columns(columns, X, d_max)``, reading degree n with degree n - 1
    and releasing n - 1 after it.  Returns ``(True, None)``, or
    ``(False, (n, comp, word, twice))`` for the first basis word
    (``DColumns.basis`` order) with d(d(w)) != 0 of the first failing
    degree in the order 2..n_max, 1; ``twice`` is d(d(w)) in X_(n-2),
    ``None`` at n = 1.
    """
    cols, release = d_columns(columns, X, d_max)
    failures = {}
    outer = None
    for n in range(n_max + 1):
        inner = cols.columns(n)
        hit = first_nonzero_column(outer, inner) if n else None
        if hit is not None:
            j, column = hit
            comp, word = cols.basis(n)[j]
            failures[n] = (n, comp, word,
                           None if n == 1 else cols.element(n - 2, column))
        if n:
            release(n - 1)
        outer = inner
    if not failures:
        return True, None
    return False, failures[min(failures, key=lambda n: (n == 1, n))]

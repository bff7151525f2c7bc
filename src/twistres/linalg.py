"""Exact sparse linear algebra: echelon forms, rank, solving, null spaces.

A vector is a dict ``column -> nonzero scalar`` while it is written; one
that is kept and only read is a ``FlatVector``, which gives its terms by
``items()`` as a dict does.  Matrices are lists of dict rows.  Pivots are
chosen column-major (leftmost column first, first usable row first), so
every result is reproducible bit for bit.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import DimensionMismatch
from .fields import field_of


class SparseMatrix:
    """Row-major sparse matrix."""

    __slots__ = ("nrows", "ncols", "rows")

    def __init__(self, nrows, ncols, rows=None):
        self.nrows = nrows
        self.ncols = ncols
        self.rows = [dict(r) for r in rows] if rows is not None else [
            {} for _ in range(nrows)]
        if len(self.rows) != nrows:
            raise DimensionMismatch("row count does not match rows given")
        for r in self.rows:
            for j in r:
                if not 0 <= j < ncols:
                    raise DimensionMismatch(f"column {j} outside width {ncols}")

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols})"


class FlatVector(tuple):
    """A sparse vector that is kept and only read, stored flat as key, coeff,
    key, coeff, ...: a tuple, so no reader can change what another reads.
    ``items()`` gives the (key, coeff) pairs, as a dict's does."""

    __slots__ = ()

    @classmethod
    def of(cls, data, index):
        """The vector with coefficient c at index[key] for each term
        c * key of ``data`` (a dict, or anything with ``items()``)."""
        flat = []       # a list, not chained iterators: as fast as a dict
        for key, c in data.items():
            flat += (index[key], c)
        return cls(flat)

    def items(self):
        pairs = iter(self)
        return zip(pairs, pairs)


def accumulate(store, key, coeff):
    """store[key] += coeff, deleting the key when the sum is zero."""
    if not coeff:
        return
    prev = store.get(key)
    new = coeff if prev is None else prev + coeff
    if new:
        store[key] = new
    else:
        del store[key]


class Memo(dict):
    """A dict that fills itself: ``memo[key]`` is ``make(key)``, computed once.

    The value is stored as a read-only mapping, so no caller can change what
    another one reads.  ``make`` may look up other keys of the same memo; an
    exception from it propagates and stores nothing.  ``in``, ``len`` and
    ``get`` only read what is stored.
    """

    __slots__ = ("make",)

    def __init__(self, make):
        super().__init__()
        self.make = make

    def __missing__(self, key):
        value = self[key] = MappingProxyType(self.make(key))
        return value


def columns(rows, ncols):
    """The transpose of a list of dict-rows: one dict-column per column."""
    out = [{} for _ in range(ncols)]
    for i, row in enumerate(rows):
        for j, c in row.items():
            out[j][i] = c
    return out


def accumulate_scaled(dst, src, factor=None):
    """dst += factor * src (src itself when factor is None), dropping zeros."""
    if factor is not None and not factor:
        return
    get = dst.get
    for key, c in src.items():
        if factor is not None:
            c = factor * c
        prev = get(key)
        new = c if prev is None else prev + c
        if new:
            dst[key] = new
        elif prev is not None:
            del dst[key]


def summed(into, *args):
    """The dict ``into(out, *args)`` leaves in ``out``, a new dict: the sum
    an add-into function (an oracle's ``*_into`` form) makes from nothing."""
    out = {}
    into(out, *args)
    return out


def linear_extension(value, data):
    """The sum of c * value(key) over the terms c * key of ``data``."""
    out = {}
    for key, c in data.items():
        accumulate_scaled(out, value(key), c)
    return out


def rref(rows, ncols):
    """Reduced row echelon form of a list of dict-rows.

    Returns ``(echelon_rows, pivots)`` where row i has leading 1 in column
    ``pivots[i]`` and that column is zero elsewhere.  Input rows are not
    mutated.
    """
    echelon = []
    return echelon, _eliminate(rows, ncols, echelon)


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over the scalar field: ``rref``'s pivots, by the forward
    pass alone (no pivot row is kept or reduced)."""
    return len(_eliminate(matrix.rows, matrix.ncols, None))


def _eliminate(rows, ncols, echelon):
    """The pivot columns of a list of dict-rows: the one elimination loop.

    Each pivot row is scaled to a leading 1 and cleared from the rows left.
    With ``echelon`` a list, it is also cleared from the pivot rows in
    ``echelon`` and appended there (reduced echelon form); with None, the
    pass runs forward only.  Input rows are not mutated.
    """
    work = [dict(r) for r in rows if r]
    pivots = []
    if not work:
        return pivots
    field = field_of(next(iter(work[0].values())))
    rational = field.characteristic == 0
    for col in range(ncols):
        hit = None
        for idx, row in enumerate(work):
            if row.get(col):
                hit = idx
                break
        if hit is None:
            continue
        piv_row = work.pop(hit)
        pivot = piv_row[col]
        # div, not a product with the inverse: over Q an integral quotient
        # stays an int instead of becoming Fraction(k, 1)
        piv_row = {j: field.div(c, pivot) for j, c in piv_row.items()}
        # over Q a sum of fractions may be integral; only a Fraction factor
        # or pivot-row entry can make one, and it is stored as its int (a Q
        # coefficient is an int or a Fraction, so "not an int" is a Fraction)
        fractional = rational and any(
            c.__class__ is not int for c in piv_row.values())
        for row in work if echelon is None else (*work, *echelon):
            f = row.get(col)
            if f:
                accumulate_scaled(row, piv_row, -f)
                if fractional or rational and f.__class__ is not int:
                    for j in piv_row:
                        c = row.get(j, 0)
                        if c.__class__ is not int and c.denominator == 1:
                            row[j] = c.numerator
        if echelon is not None:
            echelon.append(piv_row)
        pivots.append(col)
        work = [r for r in work if r]
        if not work:
            break
    return pivots


def member_coords(echelon, pivots, vec):
    """Coordinates of ``vec`` over a reduced-echelon basis, or None."""
    residue = dict(vec)
    coords = {}
    for i, col in enumerate(pivots):
        f = residue.get(col)
        if f:
            coords[i] = f
            accumulate_scaled(residue, echelon[i], -f)
    return None if residue else coords


def solve_linear_system(matrix: SparseMatrix, rhs):
    """First solution of A x = b for each b of ``rhs``, or None for each.

    ``rhs`` is a list of dict-vectors over the rows of A, solved in one
    elimination; the answers are dict-vectors over its columns.  Pivots are
    chosen among the columns of A only, with every right-hand side carried
    to their right, so each answer is the one it would get alone.  Free
    variables are set to zero, so the answer is deterministic; every answer
    is checked exactly against A x = b, and a right-hand side that fails
    gives None.
    """
    ncols = matrix.ncols
    aug = [dict(row) for row in matrix.rows]
    for k, b in enumerate(rhs):
        for i, c in b.items():
            if not 0 <= i < matrix.nrows:
                raise DimensionMismatch(
                    f"rhs index {i} outside the {matrix.nrows} rows")
            aug[i][ncols + k] = c
    echelon, pivots = rref(aug, ncols) if rhs else ([], [])
    # one pass over the echelon rows: the right-hand-side entries of the
    # row of pivot col are the answers' values at col
    answers = [{} for _ in rhs]
    for row, col in zip(echelon, pivots):
        for j, c in row.items():
            if j >= ncols and c:
                answers[j - ncols][col] = c
    checked = products(matrix, answers)
    return [x if ax == b else None for x, ax, b in zip(answers, checked, rhs)]


def products(matrix, vectors):
    """A x for every dict-vector x, in one pass over the rows of A."""
    by_column = {}
    for k, x in enumerate(vectors):
        for j, c in x.items():
            by_column.setdefault(j, []).append((k, c))
    out = [{} for _ in vectors]
    for i, row in enumerate(matrix.rows):
        sums = {}
        for j, c in row.items():
            for k, xc in by_column.get(j, ()):
                prev = sums.get(k)
                sums[k] = c * xc if prev is None else prev + c * xc
        for k, total in sums.items():
            if total:
                out[k][i] = total
    return out


def null_space(rows, ncols, one):
    """Basis of the vectors x with row . x = 0 for every row, one per free
    column of ``rref(rows, ncols)``.

    The vector of free column f is 1 at f and minus column f of each
    echelon row at that row's pivot.  ``one`` is the field's unit, so no
    rows give the unit vectors.
    """
    echelon, pivots = rref(rows, ncols)
    pivot_set = set(pivots)
    basis = {f: {f: one} for f in range(ncols) if f not in pivot_set}
    for row, col in zip(echelon, pivots):
        for j, c in row.items():
            if c and j != col:
                basis[j][col] = -c
    return list(basis.values())

"""Exact sparse linear algebra: echelon forms, solving, kernels, intersections.

Vectors are dicts ``column -> nonzero scalar``; matrices are lists of such
rows.  Pivots are chosen column-major (leftmost column first, first usable
row first), so every result is reproducible bit for bit.
"""

from __future__ import annotations

from types import MappingProxyType

from .errors import DimensionMismatch
from .fields import field_of


class SparseVector:
    """Sparse vector with an explicit ambient dimension."""

    __slots__ = ("n", "entries")

    def __init__(self, n, entries=None):
        self.n = n
        self.entries = {}
        if entries:
            for j, c in entries.items():
                if c:
                    if not 0 <= j < n:
                        raise DimensionMismatch(f"index {j} outside dimension {n}")
                    self.entries[j] = c

    @classmethod
    def from_dense(cls, values, field):
        ent = {j: field.from_int(v) if isinstance(v, int) else v
               for j, v in enumerate(values) if v}
        return cls(len(values), ent)

    def get(self, j):
        return self.entries.get(j)

    def is_zero(self):
        return not self.entries

    def __eq__(self, other):
        return isinstance(other, SparseVector) and self.n == other.n \
            and self.entries == other.entries

    def __repr__(self):
        body = ", ".join(f"{j}: {c}" for j, c in sorted(self.entries.items()))
        return f"SparseVector({self.n}, {{{body}}})"


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

    @classmethod
    def from_dense(cls, rows, field):
        ncols = len(rows[0]) if rows else 0
        data = []
        for row in rows:
            if len(row) != ncols:
                raise DimensionMismatch("ragged rows")
            data.append({j: field.from_int(v) if isinstance(v, int) else v
                         for j, v in enumerate(row) if v})
        return cls(len(rows), ncols, data)

    def __repr__(self):
        return f"SparseMatrix({self.nrows}x{self.ncols})"


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
    work = [dict(r) for r in rows if r]
    echelon = []
    pivots = []
    if not work:
        return echelon, pivots
    field = field_of(next(iter(work[0].values())))
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
        for row in work:
            f = row.get(col)
            if f:
                accumulate_scaled(row, piv_row, -f)
        for row in echelon:
            f = row.get(col)
            if f:
                accumulate_scaled(row, piv_row, -f)
        echelon.append(piv_row)
        pivots.append(col)
        work = [r for r in work if r]
        if not work:
            break
    return echelon, pivots


def rank(matrix: SparseMatrix) -> int:
    """Exact rank over the scalar field."""
    _, pivots = rref(matrix.rows, matrix.ncols)
    return len(pivots)


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


def solve_linear_system(matrix: SparseMatrix, b):
    """First solution of A x = b under the fixed pivot order, or None.

    ``b`` is a SparseVector, or a list of them; a list is solved in one
    elimination and gives a list of answers.  Pivots are chosen among the
    columns of A only, with every right-hand side carried to their right,
    so each answer is the one it would get alone.  Free variables are set
    to zero, so the answer is deterministic; every answer is checked
    exactly against A x = b, and a right-hand side that fails gives None.
    """
    single = isinstance(b, SparseVector)
    rhs = [b] if single else list(b)
    for v in rhs:
        if v.n != matrix.nrows:
            raise DimensionMismatch(
                f"rhs dimension {v.n} does not match {matrix.nrows} rows")
    ncols = matrix.ncols
    aug = [dict(row) for row in matrix.rows]
    for k, v in enumerate(rhs):
        for i, c in v.entries.items():
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
    out = [SparseVector(ncols, x) if ax == v.entries else None
           for x, ax, v in zip(answers, checked, rhs)]
    return out[0] if single else out


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


def kernel_basis(matrix: SparseMatrix):
    """Basis of the null space of A, one vector per free column."""
    echelon, pivots = rref(matrix.rows, matrix.ncols)
    pivot_set = set(pivots)
    one = _one_like(matrix)
    basis = []
    for free in range(matrix.ncols):
        if free in pivot_set:
            continue
        vec = {free: one}
        for i, col in enumerate(pivots):
            c = echelon[i].get(free)
            if c:
                vec[col] = -c
        vector = SparseVector(matrix.ncols, vec)
        if __debug__:
            assert matrix_product_vec(matrix, vector).is_zero()
        basis.append(vector)
    return basis


def _one_like(matrix):
    # The unit of the field of any stored coefficient; for the all-zero
    # matrix the integer unit interoperates with every scalar type.
    for row in matrix.rows:
        for c in row.values():
            return field_of(c).one
    return 1


def matrix_product_vec(matrix: SparseMatrix, x: SparseVector) -> SparseVector:
    if x.n != matrix.ncols:
        raise DimensionMismatch("vector does not match column count")
    out = {}
    for i, row in enumerate(matrix.rows):
        acc = None
        for j, c in row.items():
            xc = x.get(j)
            if xc:
                acc = c * xc if acc is None else acc + c * xc
        if acc:
            out[i] = acc
    return SparseVector(matrix.nrows, out)


def intersect_pair(a_rows, b_rows, ncols):
    """Row-span intersection of two sparse row lists."""
    a_rows = [r for r in a_rows if r]
    b_rows = [r for r in b_rows if r]
    if not a_rows or not b_rows:
        return []
    # Kernel of the (ncols) x (len(a)+len(b)) matrix whose columns are the
    # a-rows and the negated b-rows; the a-part of each kernel vector maps
    # back to an intersection vector.
    na = len(a_rows)
    negated = [{j: -c for j, c in row.items()} for row in b_rows]
    stacked = SparseMatrix(ncols, na + len(b_rows), columns(a_rows + negated, ncols))
    vectors = []
    for k in kernel_basis(stacked):
        vec = {}
        for t, c in k.entries.items():
            if t < na:
                accumulate_scaled(vec, a_rows[t], c)
        if vec:
            vectors.append(vec)
    echelon, _ = rref(vectors, ncols)
    return echelon


def subspace_intersection(bases):
    """Intersection of row spans, as a reduced-echelon SparseMatrix.

    ``bases`` is a nonempty list of SparseMatrix with equal column counts.
    """
    if not bases:
        raise DimensionMismatch("subspace_intersection needs at least one basis")
    ncols = bases[0].ncols
    for m in bases:
        if m.ncols != ncols:
            raise DimensionMismatch("ambient dimensions differ")
    current, _ = rref(bases[0].rows, ncols)
    for m in bases[1:]:
        current = intersect_pair(current, m.rows, ncols)
        if not current:
            break
    return SparseMatrix(len(current), ncols, current)

import itertools
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from twistres.errors import DimensionMismatch
from twistres.fields import PrimeField, Rationals
from twistres.linalg import (Memo, SparseMatrix, member_coords, null_space,
                             products, rank, rref, solve_linear_system)

Q = Rationals()
F5 = PrimeField(5)


def rows_of(dense_rows, field=Q):
    # integer entries reduced into the field, zeros (3 in F3 too) dropped
    reduced = [[field.from_int(v) for v in row] for row in dense_rows]
    return [{j: c for j, c in enumerate(row) if c} for row in reduced]


def dense(dense_rows, field=Q):
    ncols = len(dense_rows[0]) if dense_rows else 0
    return SparseMatrix(len(dense_rows), ncols, rows_of(dense_rows, field))


def vec(values, field=Q):
    (row,) = rows_of([values], field)
    return row


def product(matrix, x):
    """A x, one row at a time: the oracle for the batched ``products``."""
    out = {}
    for i, row in enumerate(matrix.rows):
        total = sum((c * x[j] for j, c in row.items() if j in x), 0)
        if total:
            out[i] = total
    return out


def test_solve_identity_case():
    A = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = vec([0, 1, 0])
    assert solve_linear_system(A, [b]) == [b]


def test_solve_2x2_verified_by_substitution():
    # oracle: substitute the solution back into the system
    A = dense([[1, 2], [3, 4]])
    b = vec([5, 11])
    (x,) = solve_linear_system(A, [b])
    assert x == vec([1, 2])
    assert product(A, x) == b


def test_solve_inconsistent_rows():
    A = dense([[1, 1], [1, 1]])
    assert solve_linear_system(A, [vec([0, 1])]) == [None]


def test_solve_dimension_mismatch():
    # a right-hand side indexing outside the rows of A is refused
    A = dense([[1, 2], [3, 4]])
    for b in ({2: Q.one}, {-1: Q.one}):
        with pytest.raises(DimensionMismatch):
            solve_linear_system(A, [vec([1, 0]), b])


def test_rank_examples():
    assert rank(SparseMatrix(2, 3)) == 0
    assert rank(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(dense([[1, 2], [2, 4]])) == 1


def test_null_space_annihilates():
    A = dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    kernel = null_space(A.rows, A.ncols, Q.one)
    assert kernel == [{2: 1, 0: -1, 1: -1}]
    assert all(product(A, v) == {} for v in kernel)


def test_null_space_of_no_rows_is_the_unit_vectors():
    for field in (Q, F5):
        assert null_space([], 3, field.one) == [
            {0: field.one}, {1: field.one}, {2: field.one}]
        assert null_space([{}, {}], 2, field.one) == [
            {0: field.one}, {1: field.one}]
    assert null_space([], 0, Q.one) == []


def intersection(row_lists, ncols, one):
    """Row-span intersection as the null space of the stacked annihilators,
    the way KoszulComplex computes K_n."""
    annihilators = [phi for rows in row_lists
                    for phi in null_space(rows, ncols, one)]
    return rref(null_space(annihilators, ncols, one), ncols)[0]


def test_single_subspace_is_echelonized():
    # the annihilator of the annihilator is the span itself
    A = dense([[2, 4], [1, 3]])
    assert intersection([A.rows], 2, Q.one) == rref(A.rows, 2)[0]
    B = dense([[2, 4, 0], [1, 2, 0]])
    assert intersection([B.rows], 3, Q.one) == [{0: 1, 1: 2}]


def shifted_relation_rows(relations, nvars, first):
    """R (x) V (first) or V (x) R inside (k^nvars)^(x3), as rows over the
    index of each word (a, b, c)."""
    index = {w: i for i, w in enumerate(itertools.product(range(nvars), repeat=3))}
    rows = []
    for rel in relations:
        for v in range(nvars):
            rows.append({index[(a, b, v) if first else (v, a, b)]: Q.from_int(c)
                         for (a, b), c in rel.items()})
    return rows


def brute_force_intersection_dim(a_rows, b_rows, ncols):
    """dim(U cap W) = dim U + dim W - dim(U + W)."""
    def dim(rows):
        return rank(SparseMatrix(len(rows), ncols, rows))
    return dim(a_rows) + dim(b_rows) - dim(a_rows + b_rows)


def test_intersection_shifted_relation_spaces_k2():
    # R (x) V cap V (x) R inside (k^2)^(x3) for R = span(x(x)y - y(x)x):
    # the zero subspace
    rel = [{(0, 1): 1, (1, 0): -1}]
    spaces = [shifted_relation_rows(rel, 2, first) for first in (True, False)]
    assert intersection(spaces, 8, Q.one) == []
    assert brute_force_intersection_dim(*spaces, 8) == 0


def test_intersection_alternating_cube_k3():
    # the same intersection over (k^3)^(x3) with R = Lambda^2(k^3):
    # dimension 1, cross-checked against dim Lambda^3(k^3) = 1
    rels = [{(a, b): 1, (b, a): -1} for a, b in ((0, 1), (0, 2), (1, 2))]
    spaces = [shifted_relation_rows(rels, 3, first) for first in (True, False)]
    assert len(intersection(spaces, 27, Q.one)) == 1
    assert brute_force_intersection_dim(*spaces, 27) == 1


small_entries = st.integers(-3, 3)


@st.composite
def small_matrix(draw, max_rows=4, max_cols=4, field=Q):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]
    return dense(rows, field)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([Q, PrimeField(3), F5, PrimeField(7)]), st.data())
def test_rank_nullity(field, data):
    # null_space: every vector is annihilated by every row, and the vectors
    # and the pivots share out the columns; rank's forward pass finds rref's
    # pivots and leaves the rows as they were
    m = data.draw(small_matrix(field=field))
    rows = [dict(r) for r in m.rows]
    assert rank(m) == len(rref(m.rows, m.ncols)[1])
    assert m.rows == rows
    kernel = null_space(m.rows, m.ncols, field.one)
    assert rank(m) + len(kernel) == m.ncols
    assert all(product(m, v) == {} for v in kernel)
    assert rank(SparseMatrix(len(kernel), m.ncols, kernel)) == len(kernel)


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_solves_when_consistent(m, coeffs):
    # build a consistent rhs from a known solution, then verify A x = b
    x0 = vec((coeffs + [0] * m.ncols)[:m.ncols])
    b = product(m, x0)
    (x,) = solve_linear_system(m, [b])
    assert x is not None
    assert product(m, x) == b


@settings(max_examples=40, deadline=None)
@given(small_matrix(max_rows=3, max_cols=4), small_matrix(max_rows=3, max_cols=4),
       st.lists(small_entries, min_size=3, max_size=3))
def test_intersection_contains_and_is_contained(a, b, coeffs):
    ncols = max(a.ncols, b.ncols)
    inter = intersection([a.rows, b.rows], ncols, Q.one)
    assert len(inter) == brute_force_intersection_dim(a.rows, b.rows, ncols)
    ech_a, piv_a = rref(a.rows, ncols)
    ech_b, piv_b = rref(b.rows, ncols)
    # every intersection vector lies in both spans
    for row in inter:
        assert member_coords(ech_a, piv_a, row) is not None
        assert member_coords(ech_b, piv_b, row) is not None
    # a random combination of intersection vectors stays in its span
    ech_i, piv_i = rref(inter, ncols)
    combo = {}
    for c, row in zip(coeffs, inter):
        for j, v in row.items():
            new = combo.get(j, Q.zero) + Q.from_int(c) * v
            if new:
                combo[j] = new
            else:
                combo.pop(j, None)
    if combo:
        assert member_coords(ech_i, piv_i, combo) is not None


def test_prime_field_solve():
    A = dense([[1, 2], [3, 4]], F5)
    b = vec([0, 1], F5)
    (x,) = solve_linear_system(A, [b])
    assert x is not None
    assert product(A, x) == b


@pytest.mark.parametrize("field", [Q, PrimeField(3), F5])
def test_list_solve_matches_single_solves(field):
    # rank 2 on three columns: column 2 is free, and the third row is the sum
    # of the first two, so b = (0, 0, 1) has no solution
    A = dense([[1, 2, 1], [0, 1, 2], [1, 3, 3], [0, 0, 0]], field)
    rhs = [vec(v, field) for v in
           ([1, 0, 1, 0], [2, 1, 3, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0])]
    batch = solve_linear_system(A, rhs)
    assert batch == [solve_linear_system(A, [b])[0] for b in rhs]
    assert batch[2] is None
    for k in (0, 1, 3, 4):
        assert product(A, batch[k]) == rhs[k]
        assert 2 not in batch[k]      # free variable set to zero


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.lists(st.lists(small_entries, min_size=4, max_size=4),
                                max_size=5))
def test_batched_check_products_match_single_products(m, vectors):
    # solve_linear_system checks every answer through one pass over A
    xs = [vec(v[:m.ncols]) for v in vectors]
    assert products(m, xs) == [product(m, x) for x in xs]


def test_list_solve_empty_and_mismatch():
    A = dense([[1, 0], [0, 1]])
    assert solve_linear_system(A, []) == []
    with pytest.raises(DimensionMismatch):
        solve_linear_system(A, [{0: Q.one}, {2: Q.one}])


def _exact(values):
    # Q coefficients are int or Fraction; a bare "/" on ints would give float
    return all(type(c) in (int, Fraction) for c in values)


def test_q_elimination_with_non_unit_pivots_is_exact():
    echelon, pivots = rref(dense([[2, 4, 6], [3, 5, 7]]).rows, 3)
    assert pivots == [0, 1]
    assert echelon == [{0: 1, 2: -1}, {1: 1, 2: 2}]
    assert all(_exact(row.values()) for row in echelon)

    (x,) = solve_linear_system(dense([[2, 1], [4, 3]]), [vec([1, 0])])
    assert x == {0: Fraction(3, 2), 1: -2}
    assert _exact(x.values())

    (k,) = null_space(dense([[2, 3, 5], [4, 6, 9]]).rows, 3, Q.one)
    assert k == {0: Fraction(-3, 2), 1: 1}
    assert _exact(k.values())


def test_accumulate_adds_and_drops_zero_sums():
    from twistres.linalg import accumulate

    store = {"a": 2}
    accumulate(store, "b", 0)               # a zero coefficient is a no-op
    assert store == {"a": 2}
    accumulate(store, "b", 3)
    accumulate(store, "a", -2)              # a sum that cancels deletes the key
    assert store == {"b": 3}
    accumulate(store, "b", Fraction(1, 2))
    accumulate(store, "c", 4)
    assert store == {"b": Fraction(7, 2), "c": 4}
    assert type(store["b"]) is Fraction and type(store["c"]) is int
    F5 = PrimeField(5)
    store = {}
    accumulate(store, "x", F5.from_int(3))
    accumulate(store, "x", F5.from_int(4))
    assert store == {"x": F5.from_int(2)}
    accumulate(store, "x", F5.from_int(3))
    assert store == {}


@given(small_matrix())
def test_columns_round_trip(m):
    from twistres.linalg import columns

    cols = columns(m.rows, m.ncols)
    assert len(cols) == m.ncols
    assert columns(cols, m.nrows) == m.rows


def test_q_pivot_rows_stay_integral():
    # the pivots 2 and 3 are not units of Z; the integral quotients they
    # leave are stored as int, not Fraction(k, 1), and print as before
    echelon, pivots = rref([{0: 2, 1: 4, 2: 6, 3: 1}, {1: 3, 2: 9, 3: 2}], 4)
    assert pivots == [0, 1]
    assert [{j: str(c) for j, c in row.items()} for row in echelon] == [
        {0: "1", 2: "-3", 3: "-5/6"}, {1: "1", 2: "3", 3: "2/3"}]
    for row in echelon:
        for c in row.values():
            assert type(c) is int or c.denominator != 1


def test_q_elimination_sums_stay_integral():
    # 1/2 - 3/2 left Fraction(-1, 1) in row 0 once row 1 was eliminated
    # from it; an integral sum of fractions is stored as int
    echelon, pivots = rref([{0: 2, 1: 1, 2: 1}, {0: 4, 1: 3, 2: 5}], 3)
    assert pivots == [0, 1]
    assert echelon == [{0: 1, 2: -1}, {1: 1, 2: 3}]
    assert all(type(c) is int for row in echelon for c in row.values())


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Q, PrimeField(5)]), st.data())
def test_add_elt_equals_the_add_term_loop(field, data):
    from twistres.tensors import FreeElement, Signature, Term

    keys = [((), (w,)) for w in range(4)]
    values = st.integers(-3, 3).map(field.from_int)

    def element():
        # few keys, so the two elements share terms and some sums cancel
        return FreeElement(term, {k: data.draw(values) for k in data.draw(
            st.lists(st.sampled_from(keys), max_size=4, unique=True))})

    term = Term([((), Signature(()))])
    base = element()
    mode = data.draw(st.sampled_from(["random", "cancel", "cancel by factor"]))
    if mode == "cancel":
        other, factor = base.scale(-field.one), None
    elif mode == "cancel by factor":
        other, factor = base, -field.one
    else:
        other, factor = element(), data.draw(st.one_of(st.none(), values))
    by_terms = FreeElement(term, dict(base.data))
    for (comp, word), c in other.data.items():
        by_terms.add_term(comp, word, c if factor is None else factor * c)
    bulk = FreeElement(term, dict(base.data))
    bulk.add_elt(other, factor)
    assert bulk.data == by_terms.data
    assert all(bulk.data.values())
    if mode != "random":
        assert bulk.is_zero()


def counting_memo(make):
    calls = []

    def counted(key):
        calls.append(key)
        return make(key)
    return Memo(counted), calls


def test_memo_computes_each_key_once():
    memo, calls = counting_memo(lambda key: {key: 1})
    first = memo["a"]
    assert memo["a"] is first
    assert memo["b"] == {"b": 1}
    assert calls == ["a", "b"]


def test_memo_values_are_read_only():
    memo, _ = counting_memo(lambda key: {key: 1})
    value = memo["a"]
    assert isinstance(value, MappingProxyType)
    with pytest.raises(TypeError):
        value["b"] = 2
    assert all(isinstance(v, MappingProxyType) for v in memo.values())


def test_memo_membership_size_and_get_compute_nothing():
    memo, calls = counting_memo(lambda key: {key: 1})
    assert "a" not in memo
    assert len(memo) == 0
    assert memo.get("a") is None
    assert calls == []
    memo["a"]
    assert "a" in memo and len(memo) == 1 and memo.get("a") == {"a": 1}
    assert calls == ["a"]


def test_memo_failure_propagates_and_stores_nothing():
    def make(key):
        if key < 0:
            raise ValueError(key)
        return {key: 1}
    memo, calls = counting_memo(make)
    with pytest.raises(ValueError):
        memo[-1]
    assert -1 not in memo and len(memo) == 0
    with pytest.raises(ValueError):
        memo[-1]
    assert calls == [-1, -1]


def test_memo_make_may_look_up_other_keys():
    # Fibonacci numbers through the memo itself: each key is made once
    memo, calls = counting_memo(
        lambda n: {"fib": n if n < 2 else memo[n - 1]["fib"] + memo[n - 2]["fib"]})
    assert memo[30]["fib"] == 832040
    assert sorted(calls) == list(range(31))

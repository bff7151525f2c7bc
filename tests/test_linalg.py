import itertools
from fractions import Fraction
from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from twistres.errors import DimensionMismatch
from twistres.fields import PrimeField, Rationals
from twistres.linalg import (Memo, SparseMatrix, SparseVector, kernel_basis,
                             matrix_product_vec, member_coords, rank, rref,
                             solve_linear_system, subspace_intersection)

Q = Rationals()


def dense(rows):
    return SparseMatrix.from_dense(rows, Q)


def test_solve_identity_case():
    A = dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    b = SparseVector.from_dense([0, 1, 0], Q)
    assert solve_linear_system(A, b) == b


def test_solve_2x2_verified_by_substitution():
    # oracle: substitute the solution back into the system
    A = dense([[1, 2], [3, 4]])
    b = SparseVector.from_dense([5, 11], Q)
    x = solve_linear_system(A, b)
    assert x == SparseVector.from_dense([1, 2], Q)
    assert matrix_product_vec(A, x) == b


def test_solve_inconsistent_rows():
    A = dense([[1, 1], [1, 1]])
    b = SparseVector.from_dense([0, 1], Q)
    assert solve_linear_system(A, b) is None


def test_solve_dimension_mismatch():
    A = dense([[1, 2], [3, 4]])
    with pytest.raises(DimensionMismatch):
        solve_linear_system(A, SparseVector.from_dense([1, 2, 3], Q))


def test_rank_examples():
    assert rank(SparseMatrix(2, 3)) == 0
    assert rank(dense([[1, 0, 0], [0, 1, 0], [0, 0, 1]])) == 3
    assert rank(dense([[1, 2], [2, 4]])) == 1


def test_kernel_basis_annihilates():
    A = dense([[1, 2, 3], [2, 4, 6], [0, 1, 1]])
    for v in kernel_basis(A):
        assert matrix_product_vec(A, v).is_zero()
    assert rank(A) + len(kernel_basis(A)) == A.ncols


def brute_force_intersection_dim(mats, ncols):
    """Oracle: intersect by enumerating the joint solution space.

    A vector is in every row span iff it is orthogonal to the kernel of
    each basis-matrix transpose; solve the combined membership system via
    rank counting on stacked coefficient matrices.
    """
    # dim(U cap W) = dim U + dim W - dim(U + W), folded pairwise
    def pair_dim(a_rows, b_rows):
        da = rank(SparseMatrix(len(a_rows), ncols, a_rows))
        db = rank(SparseMatrix(len(b_rows), ncols, b_rows))
        dsum = rank(SparseMatrix(len(a_rows) + len(b_rows), ncols,
                                 a_rows + b_rows))
        return da + db - dsum

    current = mats[0].rows
    for m in mats[1:]:
        inter = subspace_intersection(
            [SparseMatrix(len(current), ncols, current), m])
        assert len(inter.rows) == pair_dim(current, m.rows)
        current = inter.rows
    return len(current)


def test_single_subspace_is_echelonized():
    A = dense([[2, 4], [1, 3]])
    result = subspace_intersection([A])
    echelon, pivots = rref(A.rows, 2)
    assert result.rows == echelon


def test_intersection_shifted_relation_spaces_k2():
    # R (x) V cap V (x) R inside (k^2)^(x3) for R = span(x(x)y - y(x)x):
    # brute-force coefficient matching gives the zero subspace
    words = list(itertools.product(range(2), repeat=3))
    index = {w: i for i, w in enumerate(words)}
    one = Q.one

    def emb(rel_pos_first):
        rows = []
        for v in range(2):
            row = {}
            if rel_pos_first:
                row[index[(0, 1, v)]] = one
                row[index[(1, 0, v)]] = -one
            else:
                row[index[(v, 0, 1)]] = one
                row[index[(v, 1, 0)]] = -one
            rows.append(row)
        return SparseMatrix(2, 8, rows)

    mats = [emb(True), emb(False)]
    inter = subspace_intersection(mats)
    assert inter.nrows == 0
    assert brute_force_intersection_dim(mats, 8) == 0


def test_intersection_alternating_cube_k3():
    # same intersection over (k^3)^(x3) with R = Lambda^2(k^3): dimension 1,
    # cross-checked against dim Lambda^3(k^3) = 1
    words = list(itertools.product(range(3), repeat=3))
    index = {w: i for i, w in enumerate(words)}
    one = Q.one
    pairs = [(0, 1), (0, 2), (1, 2)]

    def emb(rel_first):
        rows = []
        for (a, b) in pairs:
            for v in range(3):
                row = {}
                if rel_first:
                    row[index[(a, b, v)]] = one
                    row[index[(b, a, v)]] = -one
                else:
                    row[index[(v, a, b)]] = one
                    row[index[(v, b, a)]] = -one
                rows.append(row)
        return SparseMatrix(len(rows), 27, rows)

    mats = [emb(True), emb(False)]
    inter = subspace_intersection(mats)
    assert inter.nrows == 1
    assert brute_force_intersection_dim(mats, 27) == 1


def test_intersection_requires_input():
    with pytest.raises(DimensionMismatch):
        subspace_intersection([])


small_entries = st.integers(-3, 3)


@st.composite
def small_matrix(draw, max_rows=4, max_cols=4):
    nrows = draw(st.integers(1, max_rows))
    ncols = draw(st.integers(1, max_cols))
    rows = [[draw(small_entries) for _ in range(ncols)] for _ in range(nrows)]
    return SparseMatrix.from_dense(rows, Q)


@settings(max_examples=60, deadline=None)
@given(small_matrix())
def test_rank_nullity(m):
    assert rank(m) + len(kernel_basis(m)) == m.ncols


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.lists(small_entries, min_size=1, max_size=4))
def test_solve_solves_when_consistent(m, coeffs):
    # build a consistent rhs from a known solution, then verify A x = b
    coeffs = (coeffs + [0] * m.ncols)[:m.ncols]
    x0 = SparseVector.from_dense(coeffs, Q)
    b = matrix_product_vec(m, x0)
    x = solve_linear_system(m, b)
    assert x is not None
    assert matrix_product_vec(m, x) == b


@settings(max_examples=40, deadline=None)
@given(small_matrix(max_rows=3, max_cols=4), small_matrix(max_rows=3, max_cols=4),
       st.lists(small_entries, min_size=3, max_size=3))
def test_intersection_contains_and_is_contained(a, b, coeffs):
    ncols = max(a.ncols, b.ncols)
    a = SparseMatrix(a.nrows, ncols, a.rows)
    b = SparseMatrix(b.nrows, ncols, b.rows)
    inter = subspace_intersection([a, b])
    ech_a, piv_a = rref(a.rows, ncols)
    ech_b, piv_b = rref(b.rows, ncols)
    # every intersection vector lies in both spans
    for row in inter.rows:
        assert member_coords(ech_a, piv_a, row) is not None
        assert member_coords(ech_b, piv_b, row) is not None
    # a random combination of intersection vectors stays in its span
    ech_i, piv_i = rref(inter.rows, ncols)
    vec = {}
    for c, row in zip(coeffs, inter.rows):
        for j, v in row.items():
            new = vec.get(j, Q.zero) + Q.from_int(c) * v
            if new:
                vec[j] = new
            else:
                vec.pop(j, None)
    if vec:
        assert member_coords(ech_i, piv_i, vec) is not None


def test_prime_field_solve():
    F = PrimeField(5)
    A = SparseMatrix.from_dense([[1, 2], [3, 4]], F)
    b = SparseVector.from_dense([0, 1], F)
    x = solve_linear_system(A, b)
    assert x is not None
    assert matrix_product_vec(A, x) == b


@pytest.mark.parametrize("field", [Q, PrimeField(3), PrimeField(5)])
def test_list_solve_matches_single_solves(field):
    # rank 2 on three columns: column 2 is free, and the third row is the sum
    # of the first two, so b = (0, 0, 1) has no solution
    A = SparseMatrix.from_dense([[1, 2, 1], [0, 1, 2], [1, 3, 3], [0, 0, 0]], field)
    rhs = [SparseVector.from_dense(v, field) for v in
           ([1, 0, 1, 0], [2, 1, 3, 0], [0, 0, 1, 0], [0, 1, 1, 0], [0, 0, 0, 0])]
    batch = solve_linear_system(A, rhs)
    assert batch == [solve_linear_system(A, b) for b in rhs]
    assert batch[2] is None
    for k in (0, 1, 3, 4):
        assert matrix_product_vec(A, batch[k]) == rhs[k]
        assert 2 not in batch[k].entries      # free variable set to zero


@settings(max_examples=60, deadline=None)
@given(small_matrix(), st.lists(st.lists(small_entries, min_size=4, max_size=4),
                                max_size=5))
def test_batched_check_products_match_single_products(m, vectors):
    # solve_linear_system checks every answer through one pass over A
    from twistres.linalg import products

    xs = [SparseVector.from_dense(v[:m.ncols], Q).entries for v in vectors]
    assert products(m, xs) == [
        matrix_product_vec(m, SparseVector(m.ncols, x)).entries for x in xs]


def test_list_solve_empty_and_mismatch():
    A = dense([[1, 0], [0, 1]])
    assert solve_linear_system(A, []) == []
    with pytest.raises(DimensionMismatch):
        solve_linear_system(A, [SparseVector(2, {0: Q.one}), SparseVector(3)])


def _exact(values):
    # Q coefficients are int or Fraction; a bare "/" on ints would give float
    return all(type(c) in (int, Fraction) for c in values)


def test_q_elimination_with_non_unit_pivots_is_exact():
    echelon, pivots = rref(dense([[2, 4, 6], [3, 5, 7]]).rows, 3)
    assert pivots == [0, 1]
    assert echelon == [{0: 1, 2: -1}, {1: 1, 2: 2}]
    assert all(_exact(row.values()) for row in echelon)

    A = dense([[2, 1], [4, 3]])
    x = solve_linear_system(A, SparseVector.from_dense([1, 0], Q))
    assert x.entries == {0: Fraction(3, 2), 1: -2}
    assert _exact(x.entries.values())

    (k,) = kernel_basis(dense([[2, 3, 5], [4, 6, 9]]))
    assert k.entries == {0: Fraction(-3, 2), 1: 1}
    assert _exact(k.entries.values())


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

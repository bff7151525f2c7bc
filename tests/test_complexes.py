import pytest
from hypothesis import given, settings, strategies as st

from twistres.algebras import Group, GroupAlgebra, PolynomialAlgebra
from twistres.checks import SignCorruptedBar
from twistres.complexes import (BarComplex, KoszulComplex, check_d_squared,
                                check_truncated_exactness)
from twistres.errors import InstanceError, TwistresError
from twistres.fields import Fp, PrimeField, Rationals
from twistres.instances import builtin_instance
from twistres.tensors import TensorSubspace

Q = Rationals()


def bar_of_polynomials(reduced=False, variables=("x",)):
    return BarComplex(PolynomialAlgebra(Q, list(variables), 8), reduced, 4)


def test_bar_differential_degree_one():
    B = bar_of_polynomials()
    A = B.A
    one, x = A.unit, (1,)
    d = B.diff_word(1, (), (one, x, one))
    assert d.data == {((), (x, one)): Q.one, ((), (one, x)): Q.from_int(-1)}


def test_bar_differential_middle_terms_cancel():
    # d(1 (x) a1 (x) 1 (x) a3 (x) 1) = a1 (x) 1 (x) a3 (x) 1 - 1 (x) a1 (x) 1 (x) a3
    B = bar_of_polynomials(reduced=False)
    one, a1, a3 = B.A.unit, (1,), (2,)
    d = B.diff_word(3, (), (one, a1, one, a3, one))
    assert d.data == {((), (a1, one, a3, one)): Q.one,
                      ((), (one, a1, one, a3)): Q.from_int(-1)}


def test_reduced_bar_differential_example():
    # d(1 (x) x (x) x (x) 1) = x (x) x (x) 1 - 1 (x) x^2 (x) 1 + 1 (x) x (x) x
    B = bar_of_polynomials(reduced=True)
    one, x, x2 = (0,), (1,), (2,)
    d = B.diff_word(2, (), (one, x, x, one))
    assert d.data == {((), (x, x, one)): Q.one,
                      ((), (one, x2, one)): Q.from_int(-1),
                      ((), (one, x, x)): Q.one}


def test_reduced_bar_projection_identity():
    # d_rbar = pr o d_bar o in, and pr o d_bar kills unit-slot complements
    A = PolynomialAlgebra(Q, ["x"], 8)
    bar = BarComplex(A, False, 4)
    rbar = BarComplex(A, True, 4)
    one, x = A.unit, (1,)

    def pr(elt, n):
        out = rbar.term(n).zero()
        for ((), word), c in elt.data.items():
            if any(w == one for w in word[1:-1]):
                continue
            out.add_term((), word, c)
        return out

    for word in [(one, x, x, one), ((2,), x, (3,), x)]:
        assert rbar.diff_word(2, (), word) == pr(bar.diff_word(2, (), word), 1)
    # words with a unit inner slot: pr d (1 - in pr) = 0
    for word in [(one, x, one, x, one), (x, one, x, one, one)]:
        assert pr(bar.diff_word(3, (), word), 2).is_zero()


def test_koszul_terms_k_xy():
    R = PolynomialAlgebra(Q, ["x", "y"], 8)
    K = KoszulComplex(R, 4)
    assert [K.dim_tilde(n) for n in range(5)] == [1, 2, 1, 0, 0]
    # the degree-2 space is spanned by x (x) y - y (x) x
    vec = K.spaces[2].basis[0]
    x, y = R.var_word(0), R.var_word(1)
    scaled = {k: Q.div(v, vec[(x, y)]) for k, v in vec.items()}
    assert scaled == {(x, y): Q.one, (y, x): Q.from_int(-1)}


def test_koszul_dims_binomial():
    for m in (1, 2, 3):
        R = PolynomialAlgebra(Q, [f"x{i}" for i in range(m)], 8)
        K = KoszulComplex(R, 4)
        from math import comb
        for n in range(4):
            assert K.dim_tilde(n) == comb(m, n)


def test_koszul_terminates_for_one_variable():
    R = PolynomialAlgebra(Q, ["x"], 8)
    K = KoszulComplex(R, 4)
    assert K.dim_tilde(2) == 0
    assert K.basis(2, 2) == []
    assert K.free_generators(2, 2) == []


def test_koszul_differential_squares_to_zero():
    R = PolynomialAlgebra(Q, ["x", "y", "z"], 6)
    K = KoszulComplex(R, 4)
    ok, witness = check_d_squared(K, 4, 4)
    assert ok, witness


# The stored echelon bases of K_n for the polynomial rings k[x,y,z] and
# k[x,y,z,w], each vector as its words (sorted) with their coefficients.
KOSZUL_BASES = {
    ("Q", "xyz", 3): [
        "xyz:1 xzy:-1 yxz:-1 yzx:1 zxy:1 zyx:-1",
    ],
    ("Q", "xyzw", 3): [
        "xyz:1 xzy:-1 yxz:-1 yzx:1 zxy:1 zyx:-1",
        "wxy:1 wyx:-1 xwy:-1 xyw:1 ywx:1 yxw:-1",
        "wxz:1 wzx:-1 xwz:-1 xzw:1 zwx:1 zxw:-1",
        "wyz:1 wzy:-1 ywz:-1 yzw:1 zwy:1 zyw:-1",
    ],
    ("Q", "xyzw", 4): [
        "wxyz:-1 wxzy:1 wyxz:1 wyzx:-1 wzxy:-1 wzyx:1 xwyz:1 xwzy:-1 "
        "xywz:-1 xyzw:1 xzwy:1 xzyw:-1 ywxz:-1 ywzx:1 yxwz:1 yxzw:-1 "
        "yzwx:-1 yzxw:1 zwxy:1 zwyx:-1 zxwy:-1 zxyw:1 zywx:1 zyxw:-1",
    ],
    ("F5", "xyz", 3): [
        "xyz:1 xzy:4 yxz:4 yzx:1 zxy:1 zyx:4",
    ],
    ("F5", "xyzw", 3): [
        "xyz:1 xzy:4 yxz:4 yzx:1 zxy:1 zyx:4",
        "wxy:1 wyx:4 xwy:4 xyw:1 ywx:1 yxw:4",
        "wxz:1 wzx:4 xwz:4 xzw:1 zwx:1 zxw:4",
        "wyz:1 wzy:4 ywz:4 yzw:1 zwy:1 zyw:4",
    ],
    ("F5", "xyzw", 4): [
        "wxyz:4 wxzy:1 wyxz:1 wyzx:4 wzxy:4 wzyx:1 xwyz:1 xwzy:4 "
        "xywz:4 xyzw:1 xzwy:1 xzyw:4 ywxz:4 ywzx:1 yxwz:1 yxzw:4 "
        "yzwx:4 yzxw:1 zwxy:1 zwyx:4 zxwy:4 zxyw:1 zywx:1 zyxw:4",
    ],
}


@pytest.mark.parametrize("key", sorted(KOSZUL_BASES))
def test_koszul_bases_pinned(key):
    field_name, names, n = key
    field = Q if field_name == "Q" else PrimeField(5)
    R = PolynomialAlgebra(field, list(names), 2)
    K = KoszulComplex(R, n)
    scalar = int if field is Q else Fp
    got = []
    for vec in K.spaces[n].basis:
        assert all(type(c) is scalar for c in vec.values())
        words = {"".join(map(R.format_word, vs)): str(c) for vs, c in vec.items()}
        got.append(" ".join(f"{w}:{c}" for w, c in sorted(words.items())))
    assert got == KOSZUL_BASES[key]


def test_koszul_quantum_plane_relations():
    # K_2 is the kernel of R's multiplication V (x) V -> R_2
    inst = builtin_instance("quantum-plane")
    assert KoszulComplex(inst.R, 2).dim_tilde(2) == 0  # k[x]: no relations
    # for the q-plane y x = 2 x y over F5 it is the line of y (x) x - 2 x (x) y
    from twistres.algebras import RewritingAlgebra
    F5 = PrimeField(5)
    Rq = RewritingAlgebra(F5, ["x", "y"],
                          {(1, 0): {(0, 1): F5.from_int(2)}}, 6)
    (vec,) = KoszulComplex(Rq, 2).spaces[2].basis
    x, y = (0,), (1,)
    assert {k: F5.div(v, vec[(y, x)]) for k, v in vec.items()} == \
        {(y, x): F5.one, (x, y): F5.from_int(-2)}


def test_non_quadratic_presentation_rejected():
    # y x = x y + x drops degree, so R is not graded by word length
    from twistres.algebras import RewritingAlgebra
    U = RewritingAlgebra(Q, ["x", "y"],
                         {(1, 0): {(0, 1): Q.one, (0,): Q.one}}, 6)
    with pytest.raises(InstanceError):
        KoszulComplex(U, 2)


def test_koszul_differential_refuses_a_space_outside_k():
    # negative control: with K_2 replaced by the line of x (x) y, which is
    # no relation, d(1 (x) x (x) y (x) 1) has the face 1 (x) xy (x) 1, and
    # reading it back in K_1 = V must fail
    R = PolynomialAlgebra(Q, ["x", "y"], 4)
    K = KoszulComplex(R, 2)
    x, y = R.var_word(0), R.var_word(1)
    K.spaces[2] = TensorSubspace(R, 2, [{(x, y): Q.one}], "K2")
    with pytest.raises(TwistresError):
        K.diff_word(2, (), (R.unit, 0, R.unit))


def test_intermediate_differential_example():
    inst = builtin_instance("example-5.2")
    Y = inst.bar_maps().Y
    R, S = inst.R, inst.S
    u, x, y = (0,), (1,), (1,)
    word = (u, x, u, u, y, u)
    d = Y.diff_word(1, (), word)
    assert d.data == {((), (x, u, y, u)): Q.one,
                      ((), (u, x, u, y)): Q.from_int(-1)}


def test_intermediate_augmentation():
    inst = builtin_instance("example-5.2")
    Y = inst.bar_maps().Y
    x, y, u = (1,), (1,), (0,)
    aug = Y.aug_word((), (x, x, y, u))
    assert aug.data == {((2,), (1,)): Q.one}


def test_intermediate_d_squared_and_exactness():
    inst = builtin_instance("example-5.2")
    Y = inst.bar_maps().Y
    ok, witness = check_d_squared(Y, 3, 3)
    assert ok
    report = check_truncated_exactness(Y, 2, 2, graded=False)
    assert report.exact


def test_total_complex_sign_at_bidegree_11():
    # the D-differential on C_1 (x) D_1 carries the sign (-1)^1
    inst = builtin_instance("example-5.2")
    X = inst.bar_maps().prod_rbar
    u, x, y = (0,), (1,), (1,)
    word = (u, x, u, u, y, u)
    d = X.diff_word(2, (1, 1), word)
    c_part = {key: c for key, c in d.data.items() if key[0] == (0, 1)}
    d_part = {key: c for key, c in d.data.items() if key[0] == (1, 0)}
    assert c_part == {((0, 1), (x, u, u, y, u)): Q.one,
                      ((0, 1), (u, x, u, y, u)): Q.from_int(-1)}
    assert d_part == {((1, 0), (u, x, u, y, u)): Q.from_int(-1),
                      ((1, 0), (u, x, u, u, y)): Q.one}


def test_smash_bimodule_action_formula():
    # h . (x (x) y) . r = sum (h1 . x)(h2 y1 . r) (x) h3 y2 for group-likes:
    # g . (c (x) (h0 (x) ... )) . r = (g.c)(g h0 ... . r) (x) g-word
    inst = builtin_instance("c2-koszul-kxy")
    pipe = inst.koszul_pipeline(n_max=3, d_max=2)
    X = pipe.X
    R = inst.R
    G = inst.S.group
    e, g = 0, 1
    x = R.var_word(0)
    unit = R.unit
    # basis word (1 (x) K2[0] (x) 1) (x) (e (x) g (x) e) at bidegree (2, 1)
    word = (unit, 0, unit, e, g, e)
    left = (unit, g)         # the group element g in A
    right = (x, e)           # the polynomial x in A
    acted = X.act_word(3, left, (2, 1), word, right)
    # smash action formula h.(c (x) y).r = (^h1 c)(^{h2 y1} r) (x) h3 y2:
    # ^g(x^y - y^x) = (-x)(-y) pattern = the same relation, coefficient +1;
    # y1 = e*g*e = g so r twists by g*g = e and x lands untwisted in the
    # right Koszul coefficient; h3 = g left-multiplies the bar word:
    # g.(e (x) g (x) e) = (g (x) g (x) e)
    expected_word = (unit, 0, x, g, g, e)
    assert acted.data == {((2, 1), expected_word): Q.one}


def test_skew_group_action_formula():
    # (f' (x) g)(x (x) y)(f (x) g') = f' (g.x) (gh.f) (x) g y g' for y in
    # G-degree h; check on the reduced bar product of k[x] # kC2
    inst = builtin_instance("c2-skew")
    maps = inst.bar_maps()
    X = maps.prod_rbar
    R = inst.R
    e, g = 0, 1
    u, x = (0,), (1,)
    # generator x (x) (e (x) g (x) e) at bidegree (1, 1); G-degree h = g
    word = (u, x, u, e, g, e)
    fprime = (2,)   # x^2
    f = (3,)        # x^3
    acted = X.act_word(2, (fprime, g), (1, 1), word, (f, g))
    # g.x = -x; gh = g*g = e so (gh).f = f; g-part: g e g e g... left g,
    # right g': word g (e g e) g -> (g, g, g)
    expected_word = ((2,), x, (3,), g, g, g)
    assert acted.data == {((1, 1), expected_word): Q.from_int(-1)}


def test_bar_exactness_group_algebra():
    B = BarComplex(GroupAlgebra(Q, Group.cyclic(2), 4), False, 4)
    report = check_truncated_exactness(B, 2, 0, graded=True)
    assert report.exact


def test_koszul_exactness():
    R = PolynomialAlgebra(Q, ["x", "y"], 8)
    K = KoszulComplex(R, 4)
    report = check_truncated_exactness(K, 2, 3, graded=True)
    assert report.exact


def test_corrupted_differential_reports_homology():
    inst = builtin_instance("example-5.2")
    bad = SignCorruptedBar(inst.A, n_max=3)
    ok, witness = check_d_squared(bad, 3, 2)
    assert not ok
    report = check_truncated_exactness(bad, 2, 2, graded=False)
    assert not report.exact


def test_differentials_are_bimodule_maps_sampled():
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    rbar = maps.rbar_A
    A = inst.A
    coeffs = A.basis_upto(2)[:4]
    for d in range(3):
        for comp, word in rbar.basis(2, d):
            for a in coeffs:
                for b in coeffs:
                    moved = rbar.act_word(2, a, comp, word, b)
                    lhs = rbar.differential(2, moved)
                    rhs = rbar.act(1, A.monomial(a),
                                   rbar.diff_word(2, comp, word), A.monomial(b))
                    assert lhs == rhs


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 3), st.data())
def test_d_squared_property_on_random_words(n, data):
    inst = builtin_instance("example-5.2")
    maps = inst.bar_maps()
    for X in (maps.bar_A, maps.Y, maps.prod_rbar):
        words = X.basis(n + 1, data.draw(st.integers(0, 2), label="degree"))
        if not words:
            continue
        comp, word = data.draw(st.sampled_from(words), label="word")
        assert X.differential(n, X.diff_word(n + 1, comp, word)).is_zero()


def test_boundary_shifted_d2_fails_through_previous_degree_images():
    # d_2(w0) shifted by the boundary d_2(v): d_1 d_2 = 0 still holds, so only
    # d_2(d_3(w)) at n = 3, built from the degree-2 images, sees the shift
    # (witness taken before check_d_squared reused the degree-2 images)
    A = builtin_instance("example-5.2").A
    plain = BarComplex(A, reduced=False, n_max=3)
    w0 = plain.basis(2, 1)[0]
    v = next(key for key in plain.basis(2, 1)
             if key != w0 and not plain.diff_word(2, *key).is_zero())

    class ShiftedBar(BarComplex):
        def diff_into(self, out, factor, n, comp, word):
            super().diff_into(out, factor, n, comp, word)
            if n == 2 and (comp, word) == w0:
                super().diff_into(out, factor, 2, *v)

    bad = ShiftedBar(A, reduced=False, n_max=3)
    assert check_d_squared(bad, 2, 1) == (True, None)
    ok, (n, comp, word, twice) = check_d_squared(bad, 3, 1)
    assert not ok and n == 3
    assert bad.term(3).format(comp, word) == \
        "1 # 1 (x) 1 # 1 (x) 1 # 1 (x) 1 # y (x) 1 # 1"
    assert str(twice) == "-1 * 1 # 1 (x) 1 # 1 (x) x # 1"


def field_rows(field, dense):
    """Dict rows of a dense integer matrix over ``field``, zeros dropped."""
    reduced = [[field.from_int(v) for v in row] for row in dense]
    return [{j: c for j, c in enumerate(row) if c} for row in reduced]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Q, PrimeField(5)]), st.booleans(), st.data())
def test_product_is_zero_matches_dense_product(field, from_kernel, data):
    # im(inner) <= ker(outer) exactly when the dense product vanishes; inner
    # is drawn from ker(outer) or at random, so both verdicts occur
    from twistres.complexes import first_nonzero_column
    from twistres.linalg import columns, null_space

    entries = st.integers(-2, 2)
    a, b, c = (data.draw(st.integers(1, 4)) for _ in range(3))
    outer = field_rows(field, [[data.draw(entries) for _ in range(b)]
                               for _ in range(a)])
    if from_kernel:
        kernel = null_space(outer, b, field.one) or [{}]
        inner = [data.draw(st.sampled_from(kernel)) for _ in range(c)]
    else:
        inner = field_rows(field, [[data.draw(entries) for _ in range(b)]
                                   for _ in range(c)])
    product_zero = all(
        not sum((row.get(j, field.zero) * col.get(j, field.zero)
                 for j in range(b)), field.zero)
        for row in outer for col in inner)
    hit = first_nonzero_column(columns(outer, b), inner)
    assert (hit is None) == product_zero


def test_product_is_zero_stops_at_the_first_nonzero_column():
    # a zero product reads every column of inner, and a nonzero column
    # stops the test there
    from twistres.complexes import first_nonzero_column
    from twistres.linalg import columns

    read = []

    def counted(rows):
        for j, column in enumerate(columns(rows, 5)):
            read.append(j)
            yield column

    outer = columns(field_rows(Q, [[1, 1, 0]]), 3)
    zero = field_rows(Q, [[1, 0, 2, 3, 1], [-1, 0, -2, -3, -1], [0, 4, 0, 0, 0]])
    assert first_nonzero_column(outer, counted(zero)) is None
    assert read == [0, 1, 2, 3, 4]
    read.clear()
    nonzero = field_rows(Q, [[1, 0, 2, 1, 1], [-1, 0, -2, 3, -1], [0, 4, 0, 0, 0]])
    assert first_nonzero_column(outer, counted(nonzero)) == (3, {0: Q.from_int(4)})
    assert read == [0, 1, 2, 3]


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([Q, PrimeField(5)]), st.data())
def test_first_nonzero_column_is_the_dense_products_first(field, data):
    # each column of inner is drawn from ker(outer) or at random, so the first
    # nonzero product column falls anywhere
    from twistres.complexes import first_nonzero_column
    from twistres.linalg import columns, null_space

    entries = st.integers(-2, 2)
    a, b = (data.draw(st.integers(1, 4)) for _ in range(2))
    c = data.draw(st.integers(1, 7))
    outer = field_rows(field, [[data.draw(entries) for _ in range(b)]
                               for _ in range(a)])
    kernel = null_space(outer, b, field.one) or [{}]
    inner = []
    for _ in range(c):
        if data.draw(st.booleans()):
            inner.append(data.draw(st.sampled_from(kernel)))
        else:
            inner.extend(field_rows(field, [[data.draw(entries) for _ in range(b)]]))
    expected = None
    for k, pick in enumerate(inner):
        column = {}
        for i, row in enumerate(outer):
            value = sum((c * pick.get(j, field.zero) for j, c in row.items()),
                        field.zero)
            if value:
                column[i] = value
        if column:
            expected = (k, column)
            break
    assert first_nonzero_column(columns(outer, b), inner) == expected


def corrupted_bar(A, augmented=None, shifted=None):
    """Bar complex of A with eps doubled on the degree-0 word ``augmented``
    and d_2 of the degree-2 word ``shifted[0]`` shifted by d_2(shifted[1])."""

    class CorruptedBar(BarComplex):
        def aug_word(self, comp, word):
            out = super().aug_word(comp, word)
            return out + out if (comp, word) == augmented else out

        def diff_into(self, out, factor, n, comp, word):
            super().diff_into(out, factor, n, comp, word)
            if n == 2 and shifted and (comp, word) == shifted[0]:
                super().diff_into(out, factor, 2, *shifted[1])

    return CorruptedBar(A, reduced=False, n_max=3)


def test_corrupted_augmentation_fails_only_at_degree_one():
    A = builtin_instance("example-5.2").A
    plain = BarComplex(A, reduced=False, n_max=3)
    w0 = plain.basis(0, 1)[0]
    bad = corrupted_bar(A, augmented=w0)
    # the first degree-1 word, in block order, whose boundary meets w0
    first = next(key for d in range(2) for key in plain.basis(1, d)
                 if w0 in plain.diff_word(1, *key).data)
    assert check_d_squared(bad, 3, 1) == (False, (1, *first, None))
    assert check_d_squared(plain, 3, 1) == (True, None)


def test_d_squared_reports_the_higher_degree_first():
    # broken at n = 1 (augmentation) and at n = 3 (boundary shift): the
    # blocks n = 2..n_max are tested before the augmentation square
    A = builtin_instance("example-5.2").A
    plain = BarComplex(A, reduced=False, n_max=3)
    w0 = plain.basis(2, 1)[0]
    v = next(key for key in plain.basis(2, 1)
             if key != w0 and not plain.diff_word(2, *key).is_zero())
    bad = corrupted_bar(A, augmented=plain.basis(0, 1)[0], shifted=(w0, v))
    ok, (n, comp, word, twice) = check_d_squared(bad, 3, 1)
    assert not ok and n == 3
    assert bad.term(3).format(comp, word) == \
        "1 # 1 (x) 1 # 1 (x) 1 # 1 (x) 1 # y (x) 1 # 1"
    assert str(twice) == "-1 * 1 # 1 (x) 1 # 1 (x) x # 1"
    assert check_d_squared(bad, 2, 1)[1][0] == 1


# -- the factor cache of a twisted product ------------------------------------


def product_complexes():
    """(label, X) for the bar products of two twists and the pipeline X."""
    out = []
    for name in ("c2-skew", "example-5.2"):
        maps = builtin_instance(name).bar_maps()
        out += [(f"{name} prod_bar", maps.prod_bar),
                (f"{name} prod_rbar", maps.prod_rbar)]
    kxy = builtin_instance("c2-koszul-kxy", hdeg=3, gdeg=2)
    out.append(("c2-koszul-kxy pipeline X", kxy.koszul_smash_complex()))
    return out


def coefficient_pairs(A):
    """The unit on both sides, and a degree-0 and a degree-1 word mixed."""
    g, a = A.basis(0)[-1], A.basis(1)[-1]
    return [(A.unit, A.unit), (g, a), (a, g)]


def fresh_factor_value(X, key):
    which, n, word = key
    elt = getattr(X, which).diff_word(n, (), word)
    return {w: c for ((), w), c in elt.data.items()}


@pytest.mark.parametrize("label, X", product_complexes())
def test_factor_cache_holds_fresh_factor_values(label, X):
    pairs = coefficient_pairs(X.A)
    for n in range(4):
        for d in range(3):
            for comp, word in X.basis(n, d):
                if n >= 1:
                    X.diff_word(n, comp, word)
                    (i, j), (cw, dw) = comp, X.split(comp, word)
                    if i >= 1:
                        assert ("C", i, cw) in X._factor_cache
                    if j >= 1:
                        assert ("D", j, dw) in X._factor_cache
                for a, b in pairs:
                    X.act_word(n, a, comp, word, b)
    # the action multiplies the factors' outer letters inline: the cache
    # holds the factors' differentials only
    assert {key[0] for key in X._factor_cache} == {"C", "D"}, label
    for key, value in X._factor_cache.items():
        assert dict(value) == fresh_factor_value(X, key), (label, key)


def test_factor_cache_keys_separate_factors_and_arguments():
    inst = builtin_instance("example-5.2")
    X = inst.bar_maps().prod_bar
    u, x = (0,), (1,)
    # C's and D's words are the same tuple of exponents here
    X.diff_word(2, (1, 1), (u, x, u, u, x, u))
    assert set(X._factor_cache) == {("C", 1, (u, x, u)), ("D", 1, (u, x, u))}
    X._factor_cache.clear()
    unit = inst.A.unit
    for left in (unit, (x, u)):
        X.act_word(0, left, (0, 0), (u, u, u, u), unit)
    assert not X._factor_cache


def test_factor_cache_misses_reach_a_wrapped_factor_method(monkeypatch):
    # wrap the factor methods on the class, as a tracer does, after the
    # complexes exist: every miss is counted, every hit is not
    inst = builtin_instance("example-5.2")
    X = inst.bar_maps().prod_rbar
    calls = []

    def counting(method):
        def wrapper(self, *args):
            calls.append((self, method.__name__))
            return method(self, *args)
        return wrapper

    for attr in ("diff_into", "act_into"):
        monkeypatch.setattr(BarComplex, attr, counting(BarComplex.__dict__[attr]))
    u, x, y = (0,), (1,), (1,)
    word = (u, x, u, u, y, u)
    first = X.diff_word(2, (1, 1), word)
    assert calls == [(X.C, "diff_into"), (X.D, "diff_into")]
    assert X.diff_word(2, (1, 1), word) == first
    assert len(calls) == 2
    unit = inst.A.unit
    acted = X.act_word(2, unit, (1, 1), word, unit)
    assert X.act_word(2, unit, (1, 1), word, unit) == acted
    # the action calls no factor method
    assert len(calls) == 2

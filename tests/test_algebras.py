from types import MappingProxyType

import pytest
from hypothesis import given, settings, strategies as st

from twistres.algebras import (Group, GroupAlgebra, PolynomialAlgebra,
                               RewritingAlgebra, TwistedProductAlgebra)
from twistres.checks import check_associativity
from twistres.complexes import BarComplex
from twistres.errors import BudgetExceeded, InstanceError
from twistres.fields import Rationals
from twistres.twisting import twist_from_generator_rules

Q = Rationals()


def u_nonabelian():
    """k<x, y : yx - xy - x>, PBW-ordered, via a rewriting rule."""
    one = Q.one
    rules = {(1, 0): {(0, 1): one, (0,): one}}
    return RewritingAlgebra(Q, ["x", "y"], rules, max_degree=8)


def test_group_algebra_order_two_law():
    H = GroupAlgebra(Q, Group.cyclic(2), 4)
    g = H.parse_word("g")
    assert H.mul_words(g, g) == {H.unit: Q.one}


def test_rewriting_normal_form_matches_relation():
    # y * x -> x*y + x in the enveloping algebra presentation
    U = u_nonabelian()
    y, x = U.parse_word("y"), U.parse_word("x")
    prod = U.mul_words(y, x)
    assert prod == {U.parse_word("x*y"): Q.one, U.parse_word("x"): Q.one}


def test_rewriting_normal_forms_are_read_only():
    U = u_nonabelian()
    y, x = U.parse_word("y"), U.parse_word("x")
    prod = U.mul_words(y, x)
    assert prod == {U.parse_word("x*y"): Q.one, U.parse_word("x"): Q.one}
    assert U.mul_words(y, x) is prod
    with pytest.raises(TypeError):
        prod[x] = Q.one
    assert all(isinstance(v, MappingProxyType) for v in U._normal_cache.values())


def test_polynomial_product_sorts():
    R = PolynomialAlgebra(Q, ["x", "y"], 6)
    x, y = R.parse_word("x"), R.parse_word("y")
    assert R.mul_words(x, y) == {R.parse_word("x*y"): Q.one}
    assert R.mul_words(y, x) == {R.parse_word("x*y"): Q.one}


def test_graded_basis_examples():
    R = PolynomialAlgebra(Q, ["x", "y"], 6)
    assert [R.format_word(w) for w in R.basis(2)] == ["x^2", "x*y", "y^2"]
    H = GroupAlgebra(Q, Group.cyclic(2), 4)
    assert [H.format_word(w) for w in H.basis(0)] == ["e", "g"]
    assert H.basis(1) == ()
    Rx = PolynomialAlgebra(Q, ["x"], 6)
    assert [Rx.format_word(w) for w in Rx.basis(3)] == ["x^3"]


def test_project_reduced():
    # the section of A -> A/k1 the reduced bar slots range over: every
    # basis word but the unit
    R = PolynomialAlgebra(Q, ["x"], 6)
    assert R.reduced_basis(0) == ()
    assert R.reduced_basis(2) == R.basis(2) == (R.parse_word("x^2"),)
    H = GroupAlgebra(Q, Group.cyclic(2), 4)
    assert [H.format_word(w) for w in H.reduced_basis(0)] == ["g"]


def test_project_reduced_after_normalization():
    # x*y + x, the normal form of y*x, has no unit component: it lies in
    # the span of the reduced basis
    U = u_nonabelian()
    y, x = U.parse_word("y"), U.parse_word("x")
    prod = U.mul_words(y, x)
    assert all(w in U.reduced_basis(U.degree(w)) for w in prod)


def test_budget_exceeded():
    R = PolynomialAlgebra(Q, ["x"], 3)
    bar = BarComplex(R, reduced=False, n_max=2)
    assert bar.basis(2, 1)
    with pytest.raises(BudgetExceeded) as err:
        bar.term(3)
    assert err.value.degree == 3


def test_rewriting_rejects_degree_raising_rules():
    with pytest.raises(InstanceError):
        RewritingAlgebra(Q, ["x", "y"], {(1, 0): {(0, 0, 1): Q.one}}, 6)


def test_parse_word_errors():
    R = PolynomialAlgebra(Q, ["x"], 6)
    with pytest.raises(InstanceError):
        R.parse_word("z^2")
    U = u_nonabelian()
    with pytest.raises(InstanceError):
        U.parse_word("y*x")  # not in normal form


def test_associativity_and_unitality_checks():
    assert check_associativity(u_nonabelian(), 4).passed
    assert check_associativity(GroupAlgebra(Q, Group.symmetric(3), 3), 0).passed


def test_twisted_product_algebra_matches_rewriting_presentation():
    # The twisted product k[x] (x)_tau k[y] with tau(y (x) x) = x(y+1)
    # realizes the same algebra as the PBW rewriting presentation.
    R = PolynomialAlgebra(Q, ["x"], 8)
    S = PolynomialAlgebra(Q, ["y"], 8)
    rules = {((1,), (1,)): {((1,), (1,)): Q.one, ((1,), (0,)): Q.one}}
    tau = twist_from_generator_rules(S, R, rules)
    A = TwistedProductAlgebra(R, S, tau, max_degree=8)
    U = u_nonabelian()

    def to_u(word):
        (a,), (b,) = word
        return ((0,) * a) + ((1,) * b)

    for u in A.basis_upto(3):
        for v in A.basis_upto(3):
            prod = A.mul_words(u, v)
            expected = U.mul_words(to_u(u), to_u(v))
            assert {to_u(w): c for w, c in prod.items()} == expected
    assert check_associativity(A, 4).passed


def test_filtered_degree_bound():
    # multiplication in U(g) may drop degree but never raises it
    U = u_nonabelian()
    for u in U.basis_upto(3):
        for v in U.basis_upto(3):
            for w in U.mul_words(u, v):
                assert U.degree(w) <= U.degree(u) + U.degree(v)


def test_group_from_permutations_closure():
    # the permutations (12) and (23) generate all of S3 under its table
    G = Group.symmetric(3)
    gens = [G.index("(12)"), G.index("(23)")]
    seen, frontier = {G.identity}, [G.identity]
    while frontier:
        p = frontier.pop()
        for q in gens:
            r = G.mul(p, q)
            if r not in seen:
                seen.add(r)
                frontier.append(r)
    assert len(G) == 6 and seen == set(range(6))


poly_words = st.tuples(st.integers(0, 3), st.integers(0, 3))


@settings(max_examples=50, deadline=None)
@given(poly_words, poly_words, poly_words)
def test_polynomial_associativity_property(u, v, w):
    R = PolynomialAlgebra(Q, ["x", "y"], 30)
    lhs = (R.monomial(u) * R.monomial(v)) * R.monomial(w)
    rhs = R.monomial(u) * (R.monomial(v) * R.monomial(w))
    assert lhs == rhs


u_words = st.lists(st.integers(0, 1), min_size=0, max_size=4).map(
    lambda ls: tuple(sorted(ls)))


@settings(max_examples=40, deadline=None)
@given(u_words, u_words, u_words)
def test_enveloping_associativity_property(u, v, w):
    U = u_nonabelian()
    lhs = (U.monomial(u) * U.monomial(v)) * U.monomial(w)
    rhs = U.monomial(u) * (U.monomial(v) * U.monomial(w))
    assert lhs == rhs

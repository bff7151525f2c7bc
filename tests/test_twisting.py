from types import MappingProxyType

import pytest

from twistres.algebras import Group, GroupAlgebra, PolynomialAlgebra
from twistres.errors import NotInvertible, TwistInconsistent
from twistres.fields import PrimeField, Rationals
from twistres.hopf import group_hopf, linear_group_action, smash_twist
from twistres.instances import BUILTIN_NAMES, builtin_instance
from twistres.linalg import linear_extension
from twistres.complexes import BarComplex
from twistres.twisting import (BarLeftCompat, BarRightCompat, CompatMap,
                               TwistingMap, bicharacter_twist,
                               twist_from_generator_rules)

Q = Rationals()


def ore_twist():
    """tau(y (x) x) = x (x) y + x (x) 1 between k[y] and k[x]."""
    R = PolynomialAlgebra(Q, ["x"], 10)
    S = PolynomialAlgebra(Q, ["y"], 10)
    rules = {((1,), (1,)): {((1,), (1,)): Q.one, ((1,), (0,)): Q.one}}
    return twist_from_generator_rules(S, R, rules)


def sign_action_twist(field=Q):
    R = PolynomialAlgebra(field, ["x"], 10)
    H = GroupAlgebra(field, Group.cyclic(2), 10)
    action = linear_group_action(group_hopf(H), R, {"g": [[-1]]})
    return smash_twist(action), action


def test_unit_axioms_hold_structurally():
    tau = ore_twist()
    x, y = (1,), (1,)
    assert tau.apply((0,), x) == {(x, (0,)): Q.one}
    assert tau.apply(y, (0,)) == {((0,), y): Q.one}


def test_extension_by_hexagon_on_x_squared():
    tau = ore_twist()
    # tau(y (x) x^2) = x^2 (x) y + 2 x^2 (x) 1
    assert tau.apply((1,), (2,)) == {((2,), (1,)): Q.one,
                                     ((2,), (0,)): Q.from_int(2)}


def test_group_action_rule():
    tau, action = sign_action_twist()
    g = 1
    assert tau.apply(g, (3,)) == {((3,), g): Q.from_int(-1)}
    assert tau.apply(g, (2,)) == {((2,), g): Q.one}


def test_axiom_passes_for_builtin_twists():
    assert ore_twist().check_axiom(4)[0]
    assert sign_action_twist()[0].check_axiom(4)[0]
    inst = builtin_instance("quantum-plane")
    assert inst.tau.check_axiom(4)[0]


def test_weyl_rule_is_a_twisting_map():
    # x (x) y + 1 (x) 1 seeds the Weyl algebra yx = xy + 1: a genuine twist,
    # so the hexagon holds (including on the quadruple (y, y, x, x))
    R = PolynomialAlgebra(Q, ["x"], 10)
    S = PolynomialAlgebra(Q, ["y"], 10)
    rules = {((1,), (1,)): {((1,), (1,)): Q.one, ((0,), (0,)): Q.one}}
    tau = twist_from_generator_rules(S, R, rules)
    ok, witness, count = tau.check_axiom(4)
    assert ok and witness is None
    lhs, rhs = tau.hexagon_sides((1,), (1,), (1,), (1,))
    assert lhs == rhs == {((2,), (2,)): Q.one, ((1,), (1,)): Q.from_int(4),
                          ((0,), (0,)): Q.from_int(2)}


def test_corrupted_twist_fails_with_witness():
    inst = builtin_instance("corrupted-twist")
    ok, witness, count = inst.tau.check_axiom(4)
    assert not ok
    assert witness["quadruple"] == ("1", "z", "y", "x")
    assert witness["lhs"] != witness["rhs"]


def test_unit_rules_validated_at_construction():
    R = PolynomialAlgebra(Q, ["x"], 6)
    S = PolynomialAlgebra(Q, ["y"], 6)
    bad = {((0,), (1,)): {((1,), (1,)): Q.one}}   # tau(1 (x) x) must be x (x) 1
    with pytest.raises(TwistInconsistent):
        twist_from_generator_rules(S, R, bad)
    ok = {((0,), (1,)): {((1,), (0,)): Q.one},
          ((1,), (1,)): {((1,), (1,)): Q.one}}
    twist_from_generator_rules(S, R, ok)


def test_smash_twist_verifies_action_at_construction():
    import json
    from twistres.errors import ActionNotAdmissible
    from twistres.instances import parse_instance

    desc = {
        "name": "shear",
        "field": "Q",
        "budgets": {"hdeg": 2, "gdeg": 3},
        "R": {"family": "polynomial", "variables": ["x", "y"]},
        "S": {"family": "group", "group": {"kind": "cyclic", "order": 2}},
        "twist": {"kind": "group_action", "matrices": {"g": [[1, 1], [0, 1]]}},
    }
    # the unipotent shear has infinite order, so it cannot define a C2 action
    with pytest.raises(ActionNotAdmissible):
        parse_instance(json.dumps(desc))


def test_missing_rule_raises():
    R = PolynomialAlgebra(Q, ["x", "y"], 6)
    S = PolynomialAlgebra(Q, ["z"], 6)
    rules = {(S.parse_word("z"), R.parse_word("x")):
             {(R.parse_word("x"), S.parse_word("z")): Q.one}}
    tau = twist_from_generator_rules(S, R, rules)
    with pytest.raises(TwistInconsistent):
        tau.apply(S.parse_word("z"), R.parse_word("y"))


def test_inverse_of_ore_twist():
    tau = ore_twist()
    # tau(y (x) x - 1 (x) x) = x (x) y, so tau^-1(x (x) y) = y (x) x - 1 (x) x
    assert tau.inverse((1,), (1,)) == {(((1,), (1,))): Q.one,
                                       (((0,), (1,))): Q.from_int(-1)}
    assert tau.inverse((1,), (0,)) == {(((0,), (1,))): Q.one}


def test_inverse_round_trips():
    for tau in (ore_twist(), sign_action_twist()[0],
                builtin_instance("quantum-plane").tau):
        S, R = tau.S, tau.R
        for s in S.basis_upto(3):
            for r in R.basis_upto(3):
                assert linear_extension(lambda pair: tau.inverse(*pair),
                                        tau.apply(s, r)) == {(s, r): R.field.one}
                assert linear_extension(lambda pair: tau.apply(*pair),
                                        tau.inverse(r, s)) == {(r, s): R.field.one}


def test_hopf_closed_inverse_matches_linear_inversion():
    tau, action = sign_action_twist()
    linear = TwistingMap(tau.S, tau.R, tau._rule, strongly_graded=True)
    for r in tau.R.basis_upto(4):
        for h in tau.S.basis(0):
            assert tau.inverse(r, h) == linear.inverse(r, h)


def test_non_invertible_rule_detected():
    # tau(y (x) x) = x (x) 1 collapses y and 1; the graded block is singular
    R = PolynomialAlgebra(Q, ["x"], 8)
    S = PolynomialAlgebra(Q, ["y"], 8)
    rules = {((1,), (1,)): {((1,), (0,)): Q.one}}
    tau = twist_from_generator_rules(S, R, rules)
    with pytest.raises(NotInvertible):
        tau.inverse((1,), (1,))


def test_iterated_twist_group_case():
    # n = 1: g (x) (f0 (x) f1 (x) f2) -> (g.f0 (x) g.f1 (x) g.f2) (x) g
    tau, action = sign_action_twist()
    compat = BarLeftCompat(tau, reduced=False)
    word = ((1,), (2,), (3,))
    result = compat.apply(1, 1, word)
    assert result == {(word, 1): Q.from_int((-1) ** 6)}
    word = ((1,), (1,), (1,))
    assert compat.apply(1, 1, word) == {(word, 1): Q.from_int(-1)}


def test_iterated_twist_unit_case():
    tau = ore_twist()
    compat = BarLeftCompat(tau, reduced=False)
    word = ((2,), (1,))
    assert compat.apply(0, (0,), word) == {(word, (0,)): Q.one}


def test_reduced_iterated_twist_projects_inner_units():
    tau = ore_twist()
    full = BarLeftCompat(tau, reduced=False)
    red = BarLeftCompat(tau, reduced=True)
    # moving y through 1 (x) x (x) 1 keeps inner slot x; sub-branches with a
    # unit inner slot are cut by the projection
    word = ((0,), (1,), (0,))
    raw = full.apply(1, (1,), word)
    projected = red.apply(1, (1,), word)
    unit = (0,)
    assert projected == {k: v for k, v in raw.items()
                         if all(w != unit for w in k[0][1:-1])}


def group_comodule_crossing(action, word, r_word):
    """The comodule crossing for group-likes: word (x) r goes to
    (g0 g1 ... g_(n+1)).r (x) word."""
    G = action.hopf.algebra.group
    product = G.identity
    for g in word:
        product = G.mul(product, g)
    return {(rw, word): c for rw, c in action.act(product, r_word).items()}


def test_right_iterated_twist_matches_comodule_formula():
    # for the reduced bar of a group algebra, the iterated twist equals the
    # comodule-structure compatibility map
    tau, action = sign_action_twist()
    iterated = BarRightCompat(tau, reduced=True)
    e, g = 0, 1
    words = [(e, g, e), (g, g, g), (e, g, g), (g, g, e)]
    for word in words:
        for r in ((1,), (2,), (3,)):
            assert iterated.apply(1, word, r) == \
                group_comodule_crossing(action, word, r)


def test_comodule_compat_group_product_acts():
    R = PolynomialAlgebra(Q, ["x", "y"], 8)
    H = GroupAlgebra(Q, Group.cyclic(2), 8)
    action = linear_group_action(group_hopf(H), R, {"g": [[0, 1], [1, 0]]})
    crossing = BarRightCompat(smash_twist(action), reduced=True)
    x = R.parse_word("x")
    y = R.parse_word("y")
    e, g = 0, 1
    # (g (x) g (x) e) twists r by g*g*e = e; (e (x) g (x) e) twists by g
    assert crossing.apply(1, (g, g, e), x) == {(x, (g, g, e)): Q.one}
    assert crossing.apply(1, (e, g, e), x) == {(y, (e, g, e)): Q.one}
    for word in ((g, g, e), (e, g, e), (g, g, g)):
        for r in (x, y, R.parse_word("x*y")):
            assert crossing.apply(1, word, r) == \
                group_comodule_crossing(action, word, r)


def test_bicharacter_twist_values():
    F5 = PrimeField(5)
    R = PolynomialAlgebra(F5, ["x"], 8)
    S = PolynomialAlgebra(F5, ["y"], 8)
    tau = bicharacter_twist(S, R, F5.from_int(2))
    assert tau.apply((2,), (1,)) == {(((1,), (2,))): F5.from_int(4)}
    assert tau.inverse((1,), (2,)) == {(((2,), (1,))): F5.from_int(4)}
    assert tau.strongly_graded


def bar_words(algebra, n_max=3, d_max=3):
    """(n, word) for every unreduced bar word in the (n_max, d_max) window."""
    bar = BarComplex(algebra, reduced=False, n_max=n_max)
    return [(n, word) for n in range(n_max + 1) for d in range(d_max + 1)
            for _, word in bar.basis(n, d)]


def assert_memo_matches_fresh(compat, arguments):
    for args in arguments:
        first = compat.apply(*args)
        assert isinstance(first, MappingProxyType)
        assert first == compat._apply(*args)
        assert compat.apply(*args) is first


@pytest.mark.parametrize("name", ["c2-skew", "quantum-plane", "c2-koszul-kxy"])
def test_bar_compat_memo_matches_fresh_apply(name):
    tau = builtin_instance(name).tau
    S, R = tau.S, tau.R
    left = [(n, s, word) for n, word in bar_words(R)
            for s in S.basis_upto(min(3, S.max_degree))]
    right = [(n, word, r) for n, word in bar_words(S)
             for r in R.basis_upto(min(3, R.max_degree))]
    for reduced in (False, True):
        assert_memo_matches_fresh(BarLeftCompat(tau, reduced=reduced), left)
        assert_memo_matches_fresh(BarRightCompat(tau, reduced=reduced), right)


def test_compat_memo_keys_on_all_arguments():
    class Echo(CompatMap):
        def _apply(self, n, x, y):
            return {(n, x, y): 1}

    echo = Echo()
    values = [echo.apply(0, "a", "b"), echo.apply(1, "a", "b"),
              echo.apply(0, "b", "a"), echo.apply(0, "a", "a")]
    assert [dict(v) for v in values] == [{(0, "a", "b"): 1}, {(1, "a", "b"): 1},
                                         {(0, "b", "a"): 1}, {(0, "a", "a"): 1}]
    with pytest.raises(TypeError):
        values[0][(0, "a", "b")] = 2


def test_reduced_and_unreduced_compat_keep_separate_values():
    tau = ore_twist()
    full = BarLeftCompat(tau, reduced=False)
    red = BarLeftCompat(tau, reduced=True)
    # x (x) 1 (x) x has a unit inner slot, which only the reduced map
    # projects away
    word = ((1,), (0,), (1,))
    raw = full.apply(1, (1,), word)
    projected = red.apply(1, (1,), word)
    assert raw and not projected
    assert raw == full._apply(1, (1,), word)
    assert projected == red._apply(1, (1,), word)
    assert full.apply(1, (1,), word) is raw
    assert red.apply(1, (1,), word) is projected


@pytest.mark.parametrize("name", BUILTIN_NAMES)
def test_unit_creation_matches_the_strongly_graded_flag(name):
    # the in_2 expectation of the battery reads creates_units; on every
    # built-in it agrees with the strongly_graded flag it replaced, at the
    # windows the battery uses
    tau = builtin_instance(name).tau
    for budget in (3, 5):
        assert tau.creates_units(budget) == (not tau.strongly_graded)
